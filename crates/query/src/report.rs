//! The per-mode evaluation report consumed by the Table 4 benchmark.

use std::time::Duration;

/// Results of evaluating one query mode on one workload.
#[derive(Debug, Clone)]
pub struct QueryModeReport {
    /// Mode name ("QLSN", "QFDL", "QDOL").
    pub mode: String,
    /// Number of queries evaluated.
    pub queries: usize,
    /// Modeled throughput in queries per second for the batch (multi-node
    /// parallel processing plus batched communication).
    pub throughput_qps: f64,
    /// Modeled latency of a single isolated query.
    pub latency: Duration,
    /// Measured single-node compute time for the whole batch (no modeling).
    pub measured_batch_compute: Duration,
    /// Label memory per node in bytes.
    pub memory_per_node_bytes: Vec<usize>,
}

impl QueryModeReport {
    /// Total label memory across the cluster in bytes.
    pub fn total_memory_bytes(&self) -> usize {
        self.memory_per_node_bytes.iter().sum()
    }

    /// Maximum per-node label memory in bytes.
    pub fn max_memory_per_node_bytes(&self) -> usize {
        self.memory_per_node_bytes
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total label memory in gigabytes (the unit of Table 4).
    pub fn total_memory_gb(&self) -> f64 {
        self.total_memory_bytes() as f64 / 1e9
    }

    /// Throughput in million queries per second (the unit of Table 4).
    pub fn throughput_mqps(&self) -> f64 {
        self.throughput_qps / 1e6
    }

    /// Latency in microseconds (the unit of Table 4).
    pub fn latency_us(&self) -> f64 {
        self.latency.as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let r = QueryModeReport {
            mode: "QLSN".into(),
            queries: 100,
            throughput_qps: 2_000_000.0,
            latency: Duration::from_micros(3),
            measured_batch_compute: Duration::from_millis(1),
            memory_per_node_bytes: vec![1_000_000_000, 500_000_000],
        };
        assert_eq!(r.total_memory_bytes(), 1_500_000_000);
        assert_eq!(r.max_memory_per_node_bytes(), 1_000_000_000);
        assert!((r.total_memory_gb() - 1.5).abs() < 1e-9);
        assert!((r.throughput_mqps() - 2.0).abs() < 1e-9);
        assert!((r.latency_us() - 3.0).abs() < 1e-9);
    }
}
