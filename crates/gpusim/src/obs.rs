//! Per-GPU observability state: rank attribution for span recording plus
//! the `gpu.*` metrics instruments.
//!
//! One [`GpuObs`] is shared between a [`crate::Gpu`] and every stream it
//! creates (mirroring how the emission fault schedule is shared). Its
//! instruments count from the first kernel on into the [`GpuMetrics`] the
//! GPU was built with, which every GPU of a world shares; spans record
//! unattributed until [`crate::Gpu::set_rank`] names the rank.

use std::sync::atomic::{AtomicU64, Ordering};

use parcomm_obs::{Counter, MetricsRegistry};

/// The `gpu.*` instruments: resolved once per registry and shared by every
/// GPU built with them. Cheap to clone; clones share counters.
#[derive(Clone, Debug)]
pub struct GpuMetrics {
    /// Kernels launched.
    kernels: Counter,
    /// Timed device-side emissions scheduled (flag writes, copy notifies).
    emissions: Counter,
    /// `cudaStreamSynchronize` calls completed.
    stream_syncs: Counter,
}

impl GpuMetrics {
    /// `gpu.kernels`, `gpu.emissions` and `gpu.stream_syncs` in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        let mut block = registry.block(3, 0);
        GpuMetrics {
            kernels: block.counter("gpu.kernels"),
            emissions: block.counter("gpu.emissions"),
            stream_syncs: block.counter("gpu.stream_syncs"),
        }
    }
}

/// Shared observability state of one GPU.
pub(crate) struct GpuObs {
    /// The attributed MPI rank, or [`UNATTRIBUTED`]. Every kernel span
    /// reads it, so it is an atomic, not a lock.
    rank: AtomicU64,
    instruments: GpuMetrics,
}

/// [`GpuObs::rank`] before [`crate::Gpu::set_rank`].
const UNATTRIBUTED: u64 = u64::MAX;

impl GpuObs {
    pub(crate) fn new(metrics: &GpuMetrics) -> Self {
        GpuObs { rank: AtomicU64::new(UNATTRIBUTED), instruments: metrics.clone() }
    }

    /// The MPI rank this GPU is attributed to, once known.
    pub(crate) fn rank(&self) -> Option<u32> {
        let rank = self.rank.load(Ordering::Acquire);
        (rank != UNATTRIBUTED).then_some(rank as u32)
    }

    pub(crate) fn set_rank(&self, rank: u32) {
        self.rank.store(u64::from(rank), Ordering::Release);
    }

    pub(crate) fn count_kernel(&self, emissions: u64) {
        self.instruments.kernels.inc();
        self.instruments.emissions.add(emissions);
    }

    pub(crate) fn count_stream_sync(&self) {
        self.instruments.stream_syncs.inc();
    }
}
