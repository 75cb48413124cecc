//! Per-GPU observability state: rank attribution for span recording plus
//! the `gpu.*` metrics instruments.
//!
//! One [`GpuObs`] is shared between a [`crate::Gpu`] and every stream it
//! creates (mirroring how the emission fault schedule is shared). Its
//! instruments count into the registry the GPU was built with from the
//! first kernel on; spans record unattributed until
//! [`crate::Gpu::set_rank`] names the rank.

use parcomm_obs::{Counter, MetricsRegistry};
use parcomm_sim::Mutex;

/// Metrics instruments for one GPU (shared across its streams).
struct GpuInstruments {
    /// Kernels launched.
    kernels: Counter,
    /// Timed device-side emissions scheduled (flag writes, copy notifies).
    emissions: Counter,
    /// `cudaStreamSynchronize` calls completed.
    stream_syncs: Counter,
}

/// Shared observability state of one GPU.
pub(crate) struct GpuObs {
    rank: Mutex<Option<u32>>,
    instruments: GpuInstruments,
}

impl GpuObs {
    /// `gpu.kernels`, `gpu.emissions` and `gpu.stream_syncs` in `registry`;
    /// every GPU built on one registry counts into the same instruments.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        GpuObs {
            rank: Mutex::new(None),
            instruments: GpuInstruments {
                kernels: registry.counter("gpu.kernels"),
                emissions: registry.counter("gpu.emissions"),
                stream_syncs: registry.counter("gpu.stream_syncs"),
            },
        }
    }

    /// The MPI rank this GPU is attributed to, once known.
    pub(crate) fn rank(&self) -> Option<u32> {
        *self.rank.lock()
    }

    pub(crate) fn set_rank(&self, rank: u32) {
        *self.rank.lock() = Some(rank);
    }

    pub(crate) fn count_kernel(&self, emissions: u64) {
        self.instruments.kernels.inc();
        self.instruments.emissions.add(emissions);
    }

    pub(crate) fn count_stream_sync(&self) {
        self.instruments.stream_syncs.inc();
    }
}
