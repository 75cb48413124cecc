//! The calibrated GPU cost model.
//!
//! Every latency and bandwidth constant that shapes the paper's figures is a
//! field here, with the calibration anchor recorded next to it. Values are
//! derived from the paper's own measurements on the GH200 testbed (see
//! DESIGN.md §2); they are *model inputs*, so experiments can also sweep them
//! for ablations.

use parcomm_sim::SimDuration;

use crate::kernel::KernelSpec;

/// Aggregation granularity for device-side `MPIX_Pready` notification writes
/// (paper §IV-A4, Figure 3).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum AggLevel {
    /// Every CUDA thread writes its own flag into host memory
    /// (`MPIX_Pready_thread`, the MPI-ACX-style baseline).
    Thread,
    /// Threads synchronize with `__syncwarp()`; lane 0 writes one flag per
    /// warp (`MPIX_Pready_warp`).
    Warp,
    /// Threads synchronize with `__syncthreads()`; thread 0 writes one flag
    /// per block (`MPIX_Pready_block`).
    Block,
}

impl AggLevel {
    /// Number of host-memory flag writes a kernel of `threads` threads
    /// performs at this aggregation level (one block assumed ≤ 1024 threads;
    /// for multi-block launches, multiply by blocks at `Block` level).
    pub fn writes_for_threads(self, threads: u32) -> u32 {
        match self {
            AggLevel::Thread => threads,
            AggLevel::Warp => threads.div_ceil(32),
            AggLevel::Block => 1,
        }
    }
}

/// The GPU + NVLink-C2C latency/bandwidth model.
///
/// All `*_us` fields are microseconds; bandwidths are GB/s (1e9 bytes/s).
/// Host-runtime knobs are not here: the progression engine's poll
/// interval is the MPI world's `WorldConfig::progress_poll_us`.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Host CPU time consumed by enqueuing a kernel launch (cudaLaunchKernel
    /// returning). Calibration: small-kernel total ≈ 10 µs with sync at
    /// 71.6–78.9 % (Fig. 2) leaves ≈ 2.2 µs for launch + execute.
    pub kernel_launch_host_us: f64,
    /// Latency from enqueue to the kernel starting on an idle device.
    pub kernel_launch_latency_us: f64,
    /// Fixed device-side cost per kernel (scheduling the first wave).
    pub kernel_fixed_us: f64,
    /// Effective HBM3 streaming bandwidth for kernel memory traffic.
    /// Calibration: 128K-grid vector add (3 × 8 B/thread × 134M threads
    /// ≈ 3.2 GB) ≈ 970 µs (Fig. 2) → ≈ 3.3 TB/s.
    pub hbm_bw_gbps: f64,
    /// Device compute throughput for the flop term (rarely binding for the
    /// streaming kernels in the paper).
    pub gflops: f64,
    /// Fixed cost of `cudaStreamSynchronize` observed by the host.
    /// Calibration: 7.8 ± 0.1 µs regardless of kernel size (Fig. 2).
    pub stream_sync_us: f64,
    /// Jitter (standard deviation) on the stream-sync cost.
    pub stream_sync_jitter_us: f64,
    /// Device→pinned-host flag write cost model `a + n·b`: the base cost
    /// `a` of draining one notification over NVLink-C2C…
    /// Calibration: thread/block = 271.5×, warp/block = 9.4× at 1024
    /// threads (Fig. 3) → a ≈ 2.78·b.
    pub host_flag_write_base_us: f64,
    /// …and the per-write increment `b` (serialized device-side stores).
    pub host_flag_write_per_us: f64,
    /// In-kernel synchronization cost for warp-level aggregation
    /// (`__syncwarp` + lane election), per warp group.
    pub syncwarp_us: f64,
    /// In-kernel synchronization cost for block-level aggregation
    /// (`__syncthreads`), per block.
    pub syncthreads_us: f64,
    /// One atomic add on a counter in GPU global memory (multi-block
    /// aggregation, `MPIX_Prequest_create` counters).
    pub device_atomic_us: f64,
    /// Device read of a flag in GPU global memory (`MPIX_Parrived` device
    /// binding; paper: much cheaper than host memory).
    pub device_flag_read_us: f64,
    /// Host-side cost to post one *data* `ucp_put_nbx` for device memory:
    /// UCX protocol selection, descriptor build, doorbell, DMA-engine
    /// start-up. This is the software path the Kernel Copy design removes.
    pub data_put_post_us: f64,
    /// Host-side cost to post a small *control* put (partition flags,
    /// completion signals).
    pub control_put_post_us: f64,
    /// Memory fence closing a kernel's fire-and-forget NVLink stores
    /// (`__threadfence_system`).
    pub kernel_store_fence_us: f64,
    /// Device-side cost of issuing one symmetric-heap one-sided put
    /// (`shmem_put`-style): local offset translation plus pushing the
    /// descriptor onto the NVLink store path. Slightly above the launch
    /// latency class of costs, far below the host's `data_put_post_us` —
    /// this gap is the mechanism's whole advantage.
    pub shmem_put_issue_us: f64,
    /// Device-side cost of the completion signal paired with a shmem put
    /// (`shmem_signal`-style flag store on the target), paid on the wire
    /// side after arrival.
    pub shmem_signal_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            kernel_launch_host_us: 1.0,
            kernel_launch_latency_us: 1.2,
            kernel_fixed_us: 0.9,
            hbm_bw_gbps: 3300.0,
            gflops: 60_000.0,
            stream_sync_us: 7.8,
            stream_sync_jitter_us: 0.1,
            host_flag_write_base_us: 0.97,
            host_flag_write_per_us: 0.35,
            syncwarp_us: 0.05,
            syncthreads_us: 0.15,
            device_atomic_us: 0.02,
            device_flag_read_us: 0.02,
            data_put_post_us: 2.6,
            control_put_post_us: 0.5,
            kernel_store_fence_us: 0.3,
            shmem_put_issue_us: 1.2,
            shmem_signal_us: 0.5,
        }
    }
}

impl CostModel {
    /// Device-side execution time for a kernel: fixed cost plus the larger
    /// of the memory-streaming and compute terms.
    pub fn kernel_duration(&self, spec: &KernelSpec) -> SimDuration {
        let threads = spec.threads() as f64;
        let bytes = (spec.bytes_read_per_thread + spec.bytes_written_per_thread) as f64 * threads;
        let mem_us = bytes / (self.hbm_bw_gbps * 1e3); // GB/s = bytes/µs·1e3
        let compute_us = (spec.flops_per_thread * threads) / (self.gflops * 1e3);
        SimDuration::from_micros_f64(self.kernel_fixed_us + mem_us.max(compute_us))
    }

    /// Total in-kernel cost of emitting `n` notification writes into pinned
    /// host memory: `a + n·b` (Fig. 3 model).
    pub fn host_flag_writes_us(&self, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.host_flag_write_base_us + n as f64 * self.host_flag_write_per_us
    }

    /// In-kernel aggregation overhead (sync cost) for marking `threads`
    /// thread-partitions ready at `level`, excluding the host writes.
    pub fn aggregation_sync_us(&self, level: AggLevel, threads: u32) -> f64 {
        match level {
            AggLevel::Thread => 0.0,
            AggLevel::Warp => self.syncwarp_us * threads.div_ceil(32) as f64,
            AggLevel::Block => self.syncthreads_us,
        }
    }

    /// Full device-side cost (µs) of an aggregated Pready for a single block
    /// of `threads` threads: sync + host flag writes.
    pub fn pready_cost_us(&self, level: AggLevel, threads: u32) -> f64 {
        self.aggregation_sync_us(level, threads)
            + self.host_flag_writes_us(level.writes_for_threads(threads))
    }

    /// Host-observed stream synchronize cost (no jitter applied).
    pub fn stream_sync(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.stream_sync_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelSpec;

    fn vec_add(grid: u32) -> KernelSpec {
        KernelSpec::new("vec_add", grid, 1024).with_memory_traffic(16, 8)
    }

    #[test]
    fn kernel_duration_scales_with_grid() {
        let cm = CostModel::default();
        let small = cm.kernel_duration(&vec_add(1));
        let large = cm.kernel_duration(&vec_add(128 * 1024));
        assert!(small < large);
        // Calibration anchors from Fig. 2: tiny kernel ≈ 1 µs device time,
        // 128K-grid kernel ≈ 950-1000 µs.
        assert!(small.as_micros_f64() < 2.0, "small = {small}");
        let l = large.as_micros_f64();
        assert!((900.0..1100.0).contains(&l), "large = {l}");
    }

    #[test]
    fn sync_fraction_matches_paper() {
        // For small kernels, sync should be ~72-79% of launch+exec+sync.
        let cm = CostModel::default();
        let total = cm.kernel_launch_host_us
            + cm.kernel_launch_latency_us
            + cm.kernel_duration(&vec_add(1)).as_micros_f64()
            + cm.stream_sync_us;
        let frac = cm.stream_sync_us / total;
        assert!((0.70..0.80).contains(&frac), "sync fraction {frac}");
    }

    #[test]
    fn aggregation_ratios_match_fig3() {
        let cm = CostModel::default();
        let block = cm.pready_cost_us(AggLevel::Block, 1024);
        let warp = cm.pready_cost_us(AggLevel::Warp, 1024);
        let thread = cm.pready_cost_us(AggLevel::Thread, 1024);
        let t_over_b = thread / block;
        let w_over_b = warp / block;
        // Paper: thread 271.5× block, warp 9.4× block. Model should land in
        // the same decade with the right ordering.
        assert!(t_over_b > 150.0 && t_over_b < 400.0, "thread/block = {t_over_b}");
        assert!(w_over_b > 5.0 && w_over_b < 15.0, "warp/block = {w_over_b}");
        assert!(block < warp && warp < thread);
    }

    #[test]
    fn single_thread_costs_equal_across_levels() {
        // Paper Fig. 3: "for a single thread, the cost is the same (within
        // error) for all three methods" — one write each; only tiny sync
        // overhead differs.
        let cm = CostModel::default();
        let t = cm.pready_cost_us(AggLevel::Thread, 1);
        let w = cm.pready_cost_us(AggLevel::Warp, 1);
        let b = cm.pready_cost_us(AggLevel::Block, 1);
        assert!((w - t).abs() / t < 0.2);
        assert!((b - t).abs() / t < 0.2);
    }

    #[test]
    fn writes_for_threads_counts() {
        assert_eq!(AggLevel::Thread.writes_for_threads(1024), 1024);
        assert_eq!(AggLevel::Warp.writes_for_threads(1024), 32);
        assert_eq!(AggLevel::Warp.writes_for_threads(33), 2);
        assert_eq!(AggLevel::Block.writes_for_threads(1024), 1);
    }

    #[test]
    fn zero_writes_cost_nothing() {
        assert_eq!(CostModel::default().host_flag_writes_us(0), 0.0);
    }
}
