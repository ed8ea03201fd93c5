//! Per-superstep and per-run metrics plus the modeled-time computation.

use std::time::Duration;

use crate::comm::CommVolume;
use crate::spec::ClusterSpec;

/// Everything measured during one superstep of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct SuperstepMetrics {
    /// Wall-clock compute time measured on each simulated node (the node's
    /// thread-local busy time for this superstep).
    pub per_node_compute: Vec<Duration>,
    /// Communication performed during / at the end of the superstep.
    pub comm: CommVolume,
    /// Labels generated during this superstep (before any cleaning).
    pub labels_generated: usize,
    /// Labels deleted by the superstep's cleaning pass.
    pub labels_deleted: usize,
}

impl SuperstepMetrics {
    /// The superstep's critical-path compute time: the slowest node.
    pub fn max_compute(&self) -> Duration {
        self.per_node_compute
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Modeled wall time of the superstep on the given cluster: slowest node
    /// compute plus the cost of its communication on the modeled network.
    pub fn modeled_time(&self, spec: &ClusterSpec) -> Duration {
        let q = spec.nodes;
        let net = &spec.network;
        let comm_time = net.broadcast_cost(self.comm.broadcast_bytes as usize, q)
            + net.allreduce_cost(self.comm.allreduce_bytes as usize, q)
            + if self.comm.p2p_messages > 0 {
                net.p2p_cost(self.comm.p2p_bytes as usize)
            } else {
                Duration::ZERO
            };
        self.max_compute() + comm_time
    }
}

/// Aggregate metrics of one distributed run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Name of the algorithm.
    pub algorithm: String,
    /// Cluster size used (`q`).
    pub nodes: usize,
    /// Per-superstep measurements, in execution order.
    pub supersteps: Vec<SuperstepMetrics>,
    /// Measured wall-clock time of the whole simulated run (all nodes share
    /// one machine, so this under-reports the scaling a real cluster gets).
    pub wall_time: Duration,
    /// Peak per-node label memory in bytes (max over nodes of that node's
    /// label partition plus any replicated tables it holds).
    pub peak_node_label_bytes: usize,
    /// Labels stored per node at the end of the run.
    pub labels_per_node: Vec<usize>,
    /// Whether any node exceeded the spec's per-node memory (the analogue of
    /// the paper's OOM failures for DparaPLL at large `q`).
    pub out_of_memory: bool,
}

impl RunMetrics {
    /// Creates an empty record for `algorithm` on `nodes` nodes.
    pub fn new(algorithm: impl Into<String>, nodes: usize) -> Self {
        RunMetrics {
            algorithm: algorithm.into(),
            nodes,
            ..Default::default()
        }
    }

    /// Total communication volume over all supersteps.
    pub fn total_comm(&self) -> CommVolume {
        self.supersteps
            .iter()
            .fold(CommVolume::default(), |acc, s| acc.combined(&s.comm))
    }

    /// Modeled cluster execution time: the sum of modeled superstep times.
    /// This is the series plotted for Figure 8 alongside measured wall time.
    pub fn modeled_time(&self, spec: &ClusterSpec) -> Duration {
        self.supersteps.iter().map(|s| s.modeled_time(spec)).sum()
    }

    /// Modeled critical-path compute time only (no communication).
    pub fn modeled_compute_time(&self) -> Duration {
        self.supersteps.iter().map(|s| s.max_compute()).sum()
    }

    /// Total labels generated before cleaning.
    pub fn labels_generated(&self) -> usize {
        self.supersteps.iter().map(|s| s.labels_generated).sum()
    }

    /// Total labels deleted by cleaning.
    pub fn labels_deleted(&self) -> usize {
        self.supersteps.iter().map(|s| s.labels_deleted).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkModel;

    fn superstep(compute_ms: &[u64], broadcast: u64) -> SuperstepMetrics {
        SuperstepMetrics {
            per_node_compute: compute_ms
                .iter()
                .map(|&m| Duration::from_millis(m))
                .collect(),
            comm: CommVolume {
                broadcast_bytes: broadcast,
                broadcasts: 1,
                ..Default::default()
            },
            labels_generated: 10,
            labels_deleted: 2,
        }
    }

    #[test]
    fn max_compute_is_critical_path() {
        let s = superstep(&[5, 20, 10], 0);
        assert_eq!(s.max_compute(), Duration::from_millis(20));
        assert_eq!(SuperstepMetrics::default().max_compute(), Duration::ZERO);
    }

    #[test]
    fn modeled_time_adds_communication() {
        let spec = ClusterSpec {
            nodes: 8,
            network: NetworkModel::default(),
            ..Default::default()
        };
        let without_comm = superstep(&[10, 10], 0).modeled_time(&spec);
        let with_comm = superstep(&[10, 10], 100 << 20).modeled_time(&spec);
        assert!(with_comm > without_comm);
    }

    #[test]
    fn run_metrics_aggregate() {
        let mut run = RunMetrics::new("DGLL", 4);
        run.supersteps.push(superstep(&[5, 6, 7, 8], 1000));
        run.supersteps.push(superstep(&[1, 2, 3, 4], 500));
        assert_eq!(run.total_comm().broadcast_bytes, 1500);
        assert_eq!(run.labels_generated(), 20);
        assert_eq!(run.labels_deleted(), 4);
        assert_eq!(run.modeled_compute_time(), Duration::from_millis(12));
        let spec = ClusterSpec::with_nodes(4);
        assert!(run.modeled_time(&spec) >= run.modeled_compute_time());
    }
}
