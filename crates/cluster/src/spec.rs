//! Cluster description and the α-β communication cost model.

use std::time::Duration;

/// Parameters of the simulated interconnect, used to convert communication
/// volumes into modeled time (the classic α-β a.k.a. latency-bandwidth
/// model: a message of `s` bytes costs `α + s·β`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-message latency (α).
    pub latency: Duration,
    /// Link bandwidth in bytes per second (1/β).
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // Values typical of the HPC-class interconnects the paper's cluster
        // uses: ~5 µs end-to-end message latency, ~3 GB/s effective
        // point-to-point bandwidth.
        NetworkModel {
            latency: Duration::from_micros(5),
            bandwidth_bytes_per_sec: 3.0e9,
        }
    }
}

impl NetworkModel {
    /// Cost of one point-to-point message of `bytes`.
    pub fn p2p_cost(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Cost of broadcasting `bytes` from one node to the other `q - 1` nodes
    /// using a binomial tree (`⌈log2 q⌉` rounds, full payload per round).
    pub fn broadcast_cost(&self, bytes: usize, q: usize) -> Duration {
        if q <= 1 || bytes == 0 {
            return Duration::ZERO;
        }
        let rounds = (q as f64).log2().ceil().max(1.0);
        Duration::from_secs_f64(
            rounds * (self.latency.as_secs_f64() + bytes as f64 / self.bandwidth_bytes_per_sec),
        )
    }

    /// Cost of an all-reduce of `bytes` over `q` nodes (recursive doubling:
    /// `⌈log2 q⌉` rounds of the full payload).
    pub fn allreduce_cost(&self, bytes: usize, q: usize) -> Duration {
        // Same round structure as the broadcast for this model's purposes.
        self.broadcast_cost(bytes, q)
    }

    /// Cost of an all-to-all personalized exchange where every node sends
    /// `bytes_per_pair` to every other node.
    pub fn all_to_all_cost(&self, bytes_per_pair: usize, q: usize) -> Duration {
        if q <= 1 {
            return Duration::ZERO;
        }
        let per_node = bytes_per_pair.saturating_mul(q - 1);
        Duration::from_secs_f64(
            (q - 1) as f64 * self.latency.as_secs_f64()
                + per_node as f64 / self.bandwidth_bytes_per_sec,
        )
    }
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of compute nodes (`q` in the paper).
    pub nodes: usize,
    /// Hardware threads per node (the paper's nodes run 8 cores / 16 threads).
    pub threads_per_node: usize,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Main memory per node in bytes, used to flag out-of-memory conditions
    /// the way the paper reports OOM for DparaPLL at high node counts.
    pub memory_per_node_bytes: usize,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 4,
            threads_per_node: 2,
            network: NetworkModel::default(),
            memory_per_node_bytes: 64 * (1 << 30),
        }
    }
}

impl ClusterSpec {
    /// Creates a spec with `nodes` nodes and defaults for everything else.
    pub fn with_nodes(nodes: usize) -> Self {
        ClusterSpec {
            nodes: nodes.max(1),
            ..Default::default()
        }
    }

    /// Total hardware threads across the cluster ("# compute cores" on the
    /// x-axis of Figure 8 counts 8 per node).
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_cost_scales_with_bytes() {
        let net = NetworkModel::default();
        let small = net.p2p_cost(1_000);
        let large = net.p2p_cost(10_000_000);
        assert!(large > small);
        assert!(small >= net.latency);
    }

    #[test]
    fn broadcast_cost_grows_logarithmically_with_nodes() {
        let net = NetworkModel::default();
        let b = 1 << 20;
        let c2 = net.broadcast_cost(b, 2);
        let c4 = net.broadcast_cost(b, 4);
        let c64 = net.broadcast_cost(b, 64);
        assert!(c4 > c2);
        assert!(c64 > c4);
        // log2(64) = 6 rounds vs 1 round.
        assert!(c64.as_secs_f64() / c2.as_secs_f64() < 7.0);
        assert_eq!(net.broadcast_cost(0, 64), Duration::ZERO);
        assert_eq!(net.broadcast_cost(b, 1), Duration::ZERO);
    }

    #[test]
    fn all_to_all_cost_scales_with_cluster_size() {
        let net = NetworkModel::default();
        assert_eq!(net.all_to_all_cost(1000, 1), Duration::ZERO);
        assert!(net.all_to_all_cost(1000, 8) > net.all_to_all_cost(1000, 2));
    }

    #[test]
    fn spec_helpers() {
        let spec = ClusterSpec::with_nodes(16);
        assert_eq!(spec.nodes, 16);
        assert_eq!(spec.total_threads(), 16 * spec.threads_per_node);
        assert_eq!(ClusterSpec::with_nodes(0).nodes, 1);
    }
}
