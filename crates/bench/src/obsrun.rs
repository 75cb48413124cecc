//! Traced-run harness behind `--trace-out` / `--metrics-out`.
//!
//! Runs the paper's §VI-B configuration — a 1K-grid partitioned allreduce
//! on 4 GH200 ranks with device-side `MPIX_Pready` — with **causal** span
//! tracing, then exports:
//!
//! - a Chrome `trace_event` JSON trace (Perfetto-loadable, one track per
//!   rank × layer, causal edges as flow arrows),
//! - folded flamegraph stacks built from the causal chains,
//! - the end-of-run metrics snapshot (PE polls, puts, bytes per rail,
//!   retransmits, watchdog arms/fires) as JSON,
//! - a critical-path report walking the causal graph backward from the
//!   last completion.

use parcomm_coll::pallreduce_init;
use parcomm_gpu::KernelSpec;
use parcomm_mpi::{MpiError, Rank};
use parcomm_obs::{chrome_trace_json_with_counters, folded_stacks, CriticalPath, MetricsSnapshot};
use parcomm_sim::{Ctx, SimTime, TraceSpan};

use crate::world::World;

/// The artifacts of one traced allreduce run.
pub struct ObsRun {
    /// Every span recorded inside the measured epoch (causal level).
    pub spans: Vec<TraceSpan>,
    /// End-of-run metrics snapshot across every layer.
    pub metrics: MetricsSnapshot,
    /// Timestamped metrics snapshots at the measured-epoch boundaries
    /// (pure atomic reads at deterministic points — digest-neutral),
    /// rendered as Perfetto counter tracks by [`ObsRun::chrome_json`].
    pub counter_samples: Vec<(SimTime, MetricsSnapshot)>,
    /// Start of the measured interval (rank 0).
    pub from: SimTime,
    /// End of the measured interval (rank 0).
    pub to: SimTime,
}

impl ObsRun {
    /// The Chrome `trace_event` JSON export, including `"C"` counter
    /// events for the boundary metrics samples.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json_with_counters(&self.spans, &self.counter_samples)
    }

    /// Folded flamegraph stacks (`rankN;cat;...;cat weight_us` lines).
    pub fn folded(&self) -> String {
        folded_stacks(&self.spans)
    }

    /// The critical path through the causal span graph.
    pub fn critical_path(&self) -> CriticalPath {
        CriticalPath::from_spans(&self.spans)
    }

    /// Human-readable critical-path report including interval coverage.
    pub fn critical_path_report(&self) -> String {
        let cp = self.critical_path();
        format!(
            "{}  coverage of measured interval: {:.1}%\n",
            cp.render(),
            100.0 * cp.coverage_of(self.from, self.to)
        )
    }
}

/// The §VI-B measured epoch, on every rank: a partitioned allreduce of
/// `n` f64 whose warm-up epoch is host-readied, so the setup exchange and
/// the first `pbuf_prepare` stay outside the measurement; then a barrier,
/// `begin` (where rank 0 starts tracing), and one device-readied epoch.
/// Returns the measured window.
pub fn allreduce_epoch(
    ctx: &mut Ctx,
    rank: &Rank,
    n: usize,
    begin: impl FnOnce(SimTime),
) -> Result<(SimTime, SimTime), MpiError> {
    let buf = rank.gpu().alloc_global(n * 8);
    let stream = rank.gpu().create_stream();
    let grid = (n as u32).div_ceil(1024);
    let coll = pallreduce_init(ctx, rank, &buf, 4, &stream, 7)?;
    coll.start(ctx)?;
    coll.pbuf_prepare(ctx)?;
    for u in 0..4 {
        coll.pready(ctx, u)?;
    }
    coll.wait(ctx)?;
    rank.barrier(ctx);
    let from = ctx.now();
    begin(from);
    coll.start(ctx)?;
    coll.pbuf_prepare(ctx)?;
    let c2 = coll.clone();
    stream.launch(ctx, KernelSpec::vector_add(grid, 1024), move |d| c2.pready_device_all(d));
    coll.wait(ctx)?;
    Ok((from, ctx.now()))
}

/// Run the traced 1K-grid partitioned allreduce (quick mode shrinks the
/// buffer, not the topology). Returns the spans, metrics, and measured
/// window; any rank-level [`MpiError`] or simulation failure is rendered
/// into the error string.
pub fn run_traced_allreduce(quick: bool) -> Result<ObsRun, String> {
    let n = if quick { 64 * 1024 } else { 1024 * 1024 };
    let world = World::gh200(0x0B5, 1);
    let trace = world.sim.trace();
    let registry = world.mpi.enable_metrics();
    let (t2, r2) = (trace.clone(), registry.clone());
    let (reports, _) = world
        .try_run(move |ctx, rank| {
            let me = rank.rank();
            let mut samples = Vec::new();
            let measured = allreduce_epoch(ctx, rank, n, |from| {
                if me == 0 {
                    t2.enable_causal(); // record the measured epoch, with handoffs
                    samples.push((from, r2.snapshot()));
                }
            });
            match measured {
                Ok(window) if me == 0 => {
                    samples.push((window.1, r2.snapshot()));
                    Some(Ok((window, samples)))
                }
                Ok(_) => None,
                Err(e) => Some(Err((me, e))),
            }
        })
        .map_err(|e| format!("traced allreduce simulation failed: {e:?}"))?;
    let mut measured = None;
    for report in reports {
        match report {
            Ok(m) => measured = Some(m),
            Err((r, e)) => return Err(format!("traced allreduce: rank {r} failed: {e}")),
        }
    }
    let ((from, to), counter_samples) = measured.ok_or("traced allreduce: no measured window")?;
    Ok(ObsRun { spans: trace.spans(), metrics: registry.snapshot(), counter_samples, from, to })
}

/// Honor `--trace-out` / `--metrics-out` for a harness: when either is
/// set, run the traced allreduce and write the requested artifacts,
/// printing the critical-path report alongside. Failures are warnings —
/// observability must never fail the benchmark run itself.
pub fn emit_requested_outputs(quick: bool) {
    let trace_path = crate::report::trace_out();
    let metrics_path = crate::report::metrics_out();
    if trace_path.is_none() && metrics_path.is_none() {
        return;
    }
    let run = match run_traced_allreduce(quick) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("warning: {e}");
            return;
        }
    };
    if let Some(path) = &trace_path {
        match std::fs::write(path, run.chrome_json()) {
            Ok(()) => println!("trace written to {path} (load in https://ui.perfetto.dev)"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
        let folded = format!("{path}.folded");
        match std::fs::write(&folded, run.folded()) {
            Ok(()) => println!("folded flamegraph stacks written to {folded}"),
            Err(e) => eprintln!("warning: could not write {folded}: {e}"),
        }
    }
    if let Some(path) = &metrics_path {
        match std::fs::write(path, run.metrics.to_json()) {
            Ok(()) => println!("metrics snapshot written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    print!("{}", run.critical_path_report());
}
