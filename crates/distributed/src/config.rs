//! Configuration of the distributed constructors.

/// How the simulated nodes of a superstep are executed on the host machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One OS thread per simulated node. Fast wall-clock, but per-node busy
    /// times are distorted once the node count exceeds the physical cores.
    Concurrent,
    /// Nodes run one after another. Slower wall-clock, but per-node busy
    /// times are contention-free, which is what the scaling cost model needs.
    Sequential,
}

/// Parameters of the distributed constructors. Names follow the paper.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of SPTs in the first DGLL superstep.
    pub initial_superstep: usize,
    /// Geometric growth factor `β` between consecutive DGLL supersteps.
    pub beta: f64,
    /// Size `η` of the Common Label Table (labels of the `η` most important
    /// hubs are replicated on every node). The paper uses 16.
    pub common_hubs: u32,
    /// Hybrid switching threshold `Ψ_th` (average vertices explored per label
    /// over a superstep above which the Hybrid moves from PLaNT to DGLL).
    pub psi_threshold: f64,
    /// Enable PLaNT's early-termination optimization.
    pub early_termination: bool,
    /// Number of fixed-size supersteps used by the DparaPLL baseline (the
    /// paper's implementation synchronizes `log_8 n` times).
    pub dparapll_supersteps: usize,
    /// How simulated nodes are scheduled on the host.
    pub execution: ExecutionMode,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            initial_superstep: 32,
            beta: 2.0,
            common_hubs: 16,
            psi_threshold: 100.0,
            early_termination: true,
            dparapll_supersteps: 0, // 0 = derive log_8(n) at run time
            execution: ExecutionMode::Sequential,
        }
    }
}

impl DistributedConfig {
    /// Builder-style helper: sets the Common Label Table size.
    pub fn with_common_hubs(mut self, eta: u32) -> Self {
        self.common_hubs = eta;
        self
    }

    /// Builder-style helper: sets the Hybrid switching threshold.
    pub fn with_psi_threshold(mut self, psi: f64) -> Self {
        self.psi_threshold = psi;
        self
    }

    /// Builder-style helper: sets the execution mode.
    pub fn with_execution(mut self, mode: ExecutionMode) -> Self {
        self.execution = mode;
        self
    }

    /// Number of DparaPLL supersteps for a graph with `n` vertices: the
    /// configured value, or `log_8 n` (at least 1) when left at 0.
    pub fn dparapll_superstep_count(&self, n: usize) -> usize {
        if self.dparapll_supersteps > 0 {
            self.dparapll_supersteps
        } else {
            ((n.max(2) as f64).ln() / 8f64.ln()).ceil().max(1.0) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = DistributedConfig::default();
        assert_eq!(c.common_hubs, 16);
        assert_eq!(c.beta, 2.0);
        assert!(c.early_termination);
        assert_eq!(c.execution, ExecutionMode::Sequential);
    }

    #[test]
    fn builders() {
        let c = DistributedConfig::default()
            .with_common_hubs(8)
            .with_psi_threshold(500.0)
            .with_execution(ExecutionMode::Concurrent);
        assert_eq!(c.common_hubs, 8);
        assert_eq!(c.psi_threshold, 500.0);
        assert_eq!(c.execution, ExecutionMode::Concurrent);
    }

    #[test]
    fn dparapll_superstep_count_scales_logarithmically() {
        let c = DistributedConfig::default();
        assert_eq!(c.dparapll_superstep_count(8), 1);
        assert!(c.dparapll_superstep_count(1_000_000) >= 6);
        let fixed = DistributedConfig {
            dparapll_supersteps: 3,
            ..Default::default()
        };
        assert_eq!(fixed.dparapll_superstep_count(1_000_000), 3);
    }
}
