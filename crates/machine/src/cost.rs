//! Analytic performance model for kernels, launches, tasks and transfers.

use crate::{GpuId, MachineConfig, SimTime, Topology};

/// Analytic cost model over a [`MachineConfig`].
///
/// The model is a roofline plus fixed overheads: a GPU kernel costs
/// the maximum of its memory-traffic time and its arithmetic time plus a fixed
/// launch overhead; a task additionally pays the runtime's per-task overhead;
/// and moving bytes between GPUs pays latency plus bytes over the bandwidth of
/// the narrowest link crossed (NVLink within a node, InfiniBand across nodes).
#[derive(Debug, Clone)]
pub struct CostModel {
    config: MachineConfig,
    topology: Topology,
}

impl CostModel {
    /// Creates a cost model for the given machine.
    pub fn new(config: MachineConfig) -> Self {
        let topology = Topology::new(&config);
        CostModel { config, topology }
    }

    /// The machine description this model was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The machine topology this model was built from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Time for one GPU kernel that moves `bytes` through device memory and
    /// performs `flops` floating point operations, excluding launch overhead.
    ///
    /// The roofline-style estimate takes the maximum of the bandwidth term and
    /// the compute term; `extra_passes` charges additional full passes over
    /// the moved data (used for kernels with poor locality).
    pub fn kernel_time(&self, bytes: u64, flops: u64, extra_passes: u64) -> SimTime {
        let bw_time = (bytes as f64) * (1 + extra_passes) as f64 / self.config.gpu_bandwidth;
        let compute_time = flops as f64 / self.config.gpu_peak_flops;
        bw_time.max(compute_time)
    }

    /// Fixed overhead of launching a single GPU kernel.
    pub fn launch_time(&self) -> SimTime {
        self.config.kernel_launch_overhead
    }

    /// Per-task overhead charged by the dynamic task-based runtime
    /// (dependence analysis, mapping, and metadata movement).
    pub fn task_overhead(&self) -> SimTime {
        self.config.task_runtime_overhead
    }

    /// Per-operation overhead charged by the explicitly parallel MPI baseline.
    pub fn mpi_overhead(&self) -> SimTime {
        self.config.mpi_call_overhead
    }

    /// Time to move `bytes` from GPU `src` to GPU `dst`.
    ///
    /// Transfers within a GPU are free; transfers within a node use NVLink;
    /// transfers across nodes use the network.
    pub fn transfer_time(&self, bytes: u64, src: GpuId, dst: GpuId) -> SimTime {
        if src == dst {
            return 0.0;
        }
        if self.topology.same_node(src, dst) {
            self.config.nvlink_latency + bytes as f64 / self.config.nvlink_bandwidth
        } else {
            self.config.network_latency + bytes as f64 / self.config.network_bandwidth
        }
    }

    /// Time for every GPU to exchange `bytes_per_gpu` with a small, fixed set
    /// of neighbours (halo exchange). `off_node_fraction` in `[0, 1]` gives the
    /// fraction of the exchanged data that crosses node boundaries.
    pub fn halo_exchange_time(&self, bytes_per_gpu: u64, off_node_fraction: f64) -> SimTime {
        if bytes_per_gpu == 0 || self.topology.total_gpus() == 1 {
            return 0.0;
        }
        let frac = off_node_fraction.clamp(0.0, 1.0);
        let on_node = bytes_per_gpu as f64 * (1.0 - frac);
        let off_node = bytes_per_gpu as f64 * frac;
        let mut t = 0.0;
        if on_node > 0.0 {
            t += self.config.nvlink_latency + on_node / self.config.nvlink_bandwidth;
        }
        if off_node > 0.0 && self.config.nodes > 1 {
            t += self.config.network_latency + off_node / self.config.network_bandwidth;
        } else if off_node > 0.0 {
            // Single-node machine: "off node" traffic stays on NVLink.
            t += self.config.nvlink_latency + off_node / self.config.nvlink_bandwidth;
        }
        t
    }

    /// Time for an all-gather in which every GPU ends up with the full
    /// `total_bytes` of a value currently partitioned across all GPUs.
    ///
    /// Modelled as a ring: each GPU receives `total_bytes * (G-1)/G`, limited
    /// by the slowest link it must traverse.
    pub fn allgather_time(&self, total_bytes: u64) -> SimTime {
        let g = self.topology.total_gpus();
        if g <= 1 || total_bytes == 0 {
            return 0.0;
        }
        let recv_bytes = total_bytes as f64 * (g as f64 - 1.0) / g as f64;
        let bw = if self.config.nodes > 1 {
            self.config.network_bandwidth
        } else {
            self.config.nvlink_bandwidth
        };
        let latency = if self.config.nodes > 1 {
            self.config.network_latency
        } else {
            self.config.nvlink_latency
        };
        latency * (g as f64 - 1.0).log2().max(1.0) + recv_bytes / bw
    }

    /// Time for an all-reduce of `bytes_per_gpu` (for example the partial sums
    /// of a distributed dot product). Modelled as a latency-dominated
    /// tree reduction plus broadcast, since the reduced values are tiny.
    pub fn allreduce_time(&self, bytes_per_gpu: u64) -> SimTime {
        let g = self.topology.total_gpus();
        if g <= 1 {
            return 0.0;
        }
        let rounds = (g as f64).log2().ceil().max(1.0);
        let latency = if self.config.nodes > 1 {
            self.config.network_latency
        } else {
            self.config.nvlink_latency
        };
        let bw = if self.config.nodes > 1 {
            self.config.network_bandwidth
        } else {
            self.config.nvlink_bandwidth
        };
        2.0 * rounds * (latency + bytes_per_gpu as f64 / bw)
    }

    /// Fraction of a block-partitioned array's halo traffic that crosses node
    /// boundaries when the array is distributed over all GPUs in contiguous
    /// blocks. With `G` GPUs in nodes of `n`, `(G/n - 1)` of the `G - 1`
    /// internal block boundaries separate different nodes.
    pub fn off_node_boundary_fraction(&self) -> f64 {
        let g = self.topology.total_gpus();
        if g <= 1 {
            return 0.0;
        }
        let node_boundaries = (self.config.nodes - 1) as f64;
        let total_boundaries = (g - 1) as f64;
        node_boundaries / total_boundaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(gpus: usize) -> CostModel {
        CostModel::new(MachineConfig::with_gpus(gpus))
    }

    #[test]
    fn kernel_time_scales_with_bytes() {
        let m = model(1);
        let t1 = m.kernel_time(1 << 20, 0, 0);
        let t2 = m.kernel_time(1 << 24, 0, 0);
        assert!(t2 > t1 * 15.0 && t2 < t1 * 17.0);
    }

    #[test]
    fn kernel_time_roofline_picks_max() {
        let m = model(1);
        // Huge flop count with no bytes: compute bound.
        let compute = m.kernel_time(0, 1 << 40, 0);
        assert!(compute > 0.0);
        // Huge byte count with no flops: bandwidth bound.
        let bw = m.kernel_time(1 << 40, 0, 0);
        assert!(bw > 0.0);
        let both = m.kernel_time(1 << 40, 1 << 40, 0);
        assert!((both - compute.max(bw)).abs() < 1e-12);
    }

    #[test]
    fn extra_passes_increase_time() {
        let m = model(1);
        assert!(m.kernel_time(1 << 24, 0, 1) > m.kernel_time(1 << 24, 0, 0));
    }

    #[test]
    fn transfer_same_gpu_is_free() {
        let m = model(8);
        assert_eq!(m.transfer_time(1 << 30, GpuId(3), GpuId(3)), 0.0);
    }

    #[test]
    fn transfer_cross_node_slower_than_intra_node() {
        let m = model(16);
        let intra = m.transfer_time(1 << 26, GpuId(0), GpuId(1));
        let inter = m.transfer_time(1 << 26, GpuId(0), GpuId(8));
        assert!(inter > intra);
    }

    #[test]
    fn halo_exchange_zero_on_single_gpu() {
        let m = model(1);
        assert_eq!(m.halo_exchange_time(1 << 20, 0.5), 0.0);
    }

    #[test]
    fn allgather_grows_with_gpus() {
        let small = model(8).allgather_time(1 << 28);
        let large = model(64).allgather_time(1 << 28);
        assert!(large > small);
    }

    #[test]
    fn allreduce_zero_on_single_gpu() {
        assert_eq!(model(1).allreduce_time(8), 0.0);
        assert!(model(16).allreduce_time(8) > 0.0);
    }

    #[test]
    fn off_node_fraction_bounds() {
        assert_eq!(model(1).off_node_boundary_fraction(), 0.0);
        assert_eq!(model(8).off_node_boundary_fraction(), 0.0);
        let f = model(128).off_node_boundary_fraction();
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn task_overhead_exceeds_mpi_overhead() {
        let m = model(8);
        assert!(m.task_overhead() > m.mpi_overhead());
    }
}
