//! Calibrated software overheads of the partitioned API itself (Table I).
//!
//! These are the host-side costs of the MPI library bookkeeping, separate
//! from the hardware costs in [`parcomm_gpu::CostModel`]. Means and standard
//! deviations come straight from the paper's Table I; the `table1_overheads`
//! harness re-measures them from the simulation.

/// Mean/σ pair in microseconds.
#[derive(Copy, Clone, Debug)]
pub struct Overhead {
    /// Mean cost in microseconds.
    pub mean_us: f64,
    /// Standard deviation in microseconds.
    pub sd_us: f64,
}

/// The API overhead table.
#[derive(Copy, Clone, Debug)]
pub struct ApiOverheads {
    /// `MPI_Psend_init` / `MPI_Precv_init` (Table I: 17.2 ± 10.2 µs).
    pub p2p_init: Overhead,
    /// `MPIX_Prequest_create` (Table I: 110.7 ± 37.8 µs — flag registration
    /// plus the host→device copy of the request structures).
    pub prequest_create: Overhead,
    /// Receiver-side work in the first `MPIX_Pbuf_prepare`: deferred MCA
    /// module init, buffer + flag registration, rkey packing. The sender
    /// observes this plus the reply wire time ⇒ ≈ the paper's 193.4 µs.
    pub pbuf_prepare_first_recv: Overhead,
    /// Sender-side bookkeeping in the first `MPIX_Pbuf_prepare`.
    pub pbuf_prepare_first_send: Overhead,
    /// Steady-state `MPIX_Pbuf_prepare` bookkeeping per side (the 3.4 µs
    /// average is dominated by the RTR signal's wire latency).
    pub pbuf_prepare_steady: Overhead,
    /// Per-channel increment for channels *after the first* in one batched
    /// `MPIX_Pbuf_prepare` tick ([`crate::pbuf_prepare_batch_async`]): the
    /// once-per-process setup (deferred MCA init, endpoint warm-up) is
    /// charged by the batch's first channel; every further channel pays
    /// only its own registration bookkeeping. This is the admission-
    /// batching amortization the mux layer relies on at 4096 channels.
    pub pbuf_prepare_batch_extra: Overhead,
    /// Extra cost of `MPIX_P<collective>_init` on top of its constituent
    /// point-to-point inits (Table I: 62.3 ± 6.2 µs total).
    pub pcoll_init_extra: Overhead,
}

impl Default for ApiOverheads {
    fn default() -> Self {
        ApiOverheads {
            p2p_init: Overhead { mean_us: 17.2, sd_us: 10.2 },
            prequest_create: Overhead { mean_us: 110.7, sd_us: 37.8 },
            pbuf_prepare_first_recv: Overhead { mean_us: 185.0, sd_us: 8.0 },
            pbuf_prepare_first_send: Overhead { mean_us: 5.0, sd_us: 1.0 },
            pbuf_prepare_steady: Overhead { mean_us: 0.5, sd_us: 0.15 },
            pbuf_prepare_batch_extra: Overhead { mean_us: 2.5, sd_us: 0.6 },
            pcoll_init_extra: Overhead { mean_us: 28.0, sd_us: 4.0 },
        }
    }
}

impl ApiOverheads {
    /// Sample one charge for `o` from the simulation's RNG. Takes a
    /// [`parcomm_sim::SimHandle`] so blocking code (`ctx.handle()`) and
    /// async code (`proc.handle()`) draw it the same way.
    pub fn sample(h: &parcomm_sim::SimHandle, o: Overhead) -> parcomm_sim::SimDuration {
        h.jitter_us(o.mean_us, o.sd_us)
    }
}
