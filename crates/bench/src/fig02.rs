//! Figure 2: the cost of `cudaStreamSynchronize`, and of a vector-add
//! kernel launch + synchronization, across grid sizes.
//!
//! Columns: grid, sync-only µs (±σ), kernel launch+exec+sync total µs,
//! sync share of the total (%), and the "lost overlap" band (device time
//! the CPU spends blocked).

use parcomm_gpu::{CostModel, Gpu, GpuId, KernelSpec};
use parcomm_obs::MetricsRegistry;
use parcomm_sim::Simulation;
use parcomm_sweep::SweepSpec;

use crate::report::Experiment;
use crate::stats::{mean, pow2_range, stddev};

/// Run the Fig. 2 sweep, one sweep cell per grid size. `quick` trims the
/// sweep for smoke runs.
pub fn run(quick: bool) -> Experiment {
    let max_grid = if quick { 1024 } else { 128 * 1024 };
    let grids = pow2_range(1, max_grid);
    let samples = if quick { 3 } else { 10 };
    let iters = if quick { 5 } else { 20 };

    let mut exp = Experiment::new(
        "fig02",
        "cudaStreamSynchronize cost and kernel launch+sync vs grid size (block = 1024)",
        &["grid", "sync_us", "sync_sd", "total_us", "sync_pct", "lost_overlap_us"],
    );

    let mut spec = SweepSpec::new();
    for &grid in &grids {
        spec.cell(format!("grid={grid}"), move || {
            let mut sync_only = Vec::new();
            let mut totals = Vec::new();
            for s in 0..samples {
                let (a, b) = sample(grid, iters, s as u64);
                sync_only.extend(a);
                totals.extend(b);
            }
            let sync_us = mean(&sync_only);
            let total = mean(&totals);
            let kernel_device_us = {
                let cm = CostModel::default();
                cm.kernel_duration(&KernelSpec::vector_add(grid, 1024)).as_micros_f64()
            };
            vec![
                grid as f64,
                sync_us,
                stddev(&sync_only),
                total,
                100.0 * sync_us / total,
                kernel_device_us, // CPU blocked while the device computes
            ]
        });
    }
    for row in crate::report::run_sweep(spec, "fig02 sweep") {
        exp.push_row(row);
    }

    let first = &exp.rows[0];
    exp.note(format!(
        "paper anchors: sync 7.8±0.1 µs (measured {:.2}±{:.2}); small-kernel sync share \
         71.6-78.9% (measured {:.1}%)",
        first[1], first[2], first[4]
    ));
    if let Some(last) = exp.rows.last() {
        exp.note(format!(
            "largest grid: sync share {:.2}% (paper: 0.8% at 128K), lost overlap {:.1} µs",
            last[4], last[5]
        ));
    }
    exp
}

/// One sample: `iters` sync-only costs and `iters` launch+exec+sync totals.
fn sample(grid: u32, iters: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut sim = Simulation::with_seed(0xF160_0200 ^ seed);
    let handle = sim.handle();
    let registry = MetricsRegistry::new();
    let gpu = Gpu::new(GpuId { node: 0, index: 0 }, CostModel::default(), handle, &registry);
    let out = std::sync::Arc::new(parcomm_sim::Mutex::new((Vec::new(), Vec::new())));
    let out2 = out.clone();
    sim.spawn("bench", move |ctx| {
        let stream = gpu.create_stream();
        let mut syncs = Vec::with_capacity(iters);
        let mut totals = Vec::with_capacity(iters);
        for _ in 0..iters {
            // Sync-only: stream is idle.
            let t0 = ctx.now();
            stream.synchronize(ctx);
            syncs.push(ctx.now().since(t0).as_micros_f64());
            // Launch + execute + synchronize.
            let t0 = ctx.now();
            stream.launch(ctx, KernelSpec::vector_add(grid, 1024), |_| {});
            stream.synchronize(ctx);
            totals.push(ctx.now().since(t0).as_micros_f64());
        }
        *out2.lock() = (syncs, totals);
    });
    sim.run().expect("fig02 sample");
    let guard = out.lock();
    guard.clone()
}
