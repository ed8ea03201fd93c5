//! Communication accounting.
//!
//! Every byte the distributed algorithms move between simulated nodes is
//! recorded here. The totals feed the cost model (modeled superstep time) and
//! the communication-volume comparisons that underpin the paper's argument
//! for PLaNT (zero label traffic) over DGLL / DparaPLL (label broadcast every
//! superstep).

use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of accumulated communication volumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommVolume {
    /// Bytes moved by broadcasts (payload size × one, not × receivers —
    /// matching how the paper reports "data broadcast").
    pub broadcast_bytes: u64,
    /// Bytes moved by point-to-point messages.
    pub p2p_bytes: u64,
    /// Bytes reduced by all-reduce operations.
    pub allreduce_bytes: u64,
    /// Number of broadcast operations.
    pub broadcasts: u64,
    /// Number of point-to-point messages.
    pub p2p_messages: u64,
    /// Number of all-reduce operations.
    pub allreduces: u64,
}

impl CommVolume {
    /// Total payload bytes across all primitive kinds.
    pub fn total_bytes(&self) -> u64 {
        self.broadcast_bytes + self.p2p_bytes + self.allreduce_bytes
    }

    /// Total number of communication operations.
    pub fn total_operations(&self) -> u64 {
        self.broadcasts + self.p2p_messages + self.allreduces
    }

    /// Component-wise sum.
    pub fn combined(&self, other: &CommVolume) -> CommVolume {
        CommVolume {
            broadcast_bytes: self.broadcast_bytes + other.broadcast_bytes,
            p2p_bytes: self.p2p_bytes + other.p2p_bytes,
            allreduce_bytes: self.allreduce_bytes + other.allreduce_bytes,
            broadcasts: self.broadcasts + other.broadcasts,
            p2p_messages: self.p2p_messages + other.p2p_messages,
            allreduces: self.allreduces + other.allreduces,
        }
    }
}

/// Thread-safe accumulator for communication volumes; shared by all simulated
/// nodes of one run.
#[derive(Debug, Default)]
pub struct CommTracker {
    broadcast_bytes: AtomicU64,
    p2p_bytes: AtomicU64,
    allreduce_bytes: AtomicU64,
    broadcasts: AtomicU64,
    p2p_messages: AtomicU64,
    allreduces: AtomicU64,
}

impl CommTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a broadcast of `bytes` of payload.
    pub fn record_broadcast(&self, bytes: usize) {
        bump(&self.broadcast_bytes, bytes as u64);
        bump(&self.broadcasts, 1);
    }

    /// Records a point-to-point message of `bytes`.
    pub fn record_p2p(&self, bytes: usize) {
        bump(&self.p2p_bytes, bytes as u64);
        bump(&self.p2p_messages, 1);
    }

    /// Records an all-reduce of `bytes` of payload.
    pub fn record_allreduce(&self, bytes: usize) {
        bump(&self.allreduce_bytes, bytes as u64);
        bump(&self.allreduces, 1);
    }

    /// Reads the accumulated totals.
    pub fn snapshot(&self) -> CommVolume {
        CommVolume {
            broadcast_bytes: read(&self.broadcast_bytes),
            p2p_bytes: read(&self.p2p_bytes),
            allreduce_bytes: read(&self.allreduce_bytes),
            broadcasts: read(&self.broadcasts),
            p2p_messages: read(&self.p2p_messages),
            allreduces: read(&self.allreduces),
        }
    }

    /// Resets all counters to zero and returns what they held.
    pub fn take(&self) -> CommVolume {
        CommVolume {
            broadcast_bytes: drain(&self.broadcast_bytes),
            p2p_bytes: drain(&self.p2p_bytes),
            allreduce_bytes: drain(&self.allreduce_bytes),
            broadcasts: drain(&self.broadcasts),
            p2p_messages: drain(&self.p2p_messages),
            allreduces: drain(&self.allreduces),
        }
    }
}

// The tracker's fields are independent monotonic statistics totals with no
// cross-field invariant, so all three accessors below use Relaxed: the
// counters publish no other memory, and slightly stale or mutually skewed
// snapshots are acceptable by design.

fn bump(counter: &AtomicU64, delta: u64) {
    // ORDERING: monotonic statistics counter; the RMW's atomicity alone
    // guarantees no lost increment, and nothing orders against it.
    counter.fetch_add(delta, Ordering::Relaxed);
}

fn read(counter: &AtomicU64) -> u64 {
    // ORDERING: statistics snapshot; cross-counter skew is acceptable.
    counter.load(Ordering::Relaxed)
}

fn drain(counter: &AtomicU64) -> u64 {
    // ORDERING: statistics reset; the swap's atomicity guarantees no lost
    // increment, and cross-counter skew is acceptable.
    counter.swap(0, Ordering::Relaxed)
}

/// Size in bytes of one serialized hub label on the wire: vertex id (4),
/// hub rank position (4) and distance (8). Used consistently by the
/// distributed algorithms when they account label exchanges.
pub const LABEL_WIRE_BYTES: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates_and_snapshots() {
        let t = CommTracker::new();
        t.record_broadcast(100);
        t.record_broadcast(50);
        t.record_p2p(8);
        t.record_allreduce(4);
        let v = t.snapshot();
        assert_eq!(v.broadcast_bytes, 150);
        assert_eq!(v.broadcasts, 2);
        assert_eq!(v.p2p_bytes, 8);
        assert_eq!(v.allreduce_bytes, 4);
        assert_eq!(v.total_bytes(), 162);
        assert_eq!(v.total_operations(), 4);
    }

    #[test]
    fn take_resets_counters() {
        let t = CommTracker::new();
        t.record_p2p(10);
        let first = t.take();
        assert_eq!(first.p2p_bytes, 10);
        let second = t.snapshot();
        assert_eq!(second.p2p_bytes, 0);
        assert_eq!(second.total_operations(), 0);
    }

    #[test]
    fn combined_adds_component_wise() {
        let a = CommVolume {
            broadcast_bytes: 5,
            p2p_messages: 2,
            ..Default::default()
        };
        let b = CommVolume {
            broadcast_bytes: 7,
            allreduces: 1,
            ..Default::default()
        };
        let c = a.combined(&b);
        assert_eq!(c.broadcast_bytes, 12);
        assert_eq!(c.p2p_messages, 2);
        assert_eq!(c.allreduces, 1);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let t = CommTracker::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.record_broadcast(3);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().broadcast_bytes, 12_000);
        assert_eq!(t.snapshot().broadcasts, 4_000);
    }
}
