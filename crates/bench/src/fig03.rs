//! Figure 3: the cost of mapping partitions to threads, warps, and blocks
//! for an intra-node partitioned point-to-point transfer.
//!
//! For 1..=1024 threads in a single block, the measured quantity is the
//! device-side cost of the `MPIX_Pready_{thread,warp,block}` call — the
//! kernel execution-time extension relative to the identical kernel
//! without the call.

use parcomm_gpu::{AggLevel, KernelSpec};
use parcomm_sweep::SweepSpec;

use crate::p2p::pready_extension_us;
use crate::report::Experiment;
use crate::stats::pow2_range;

/// Run the Fig. 3 sweep, one sweep cell per thread count.
pub fn run(quick: bool) -> Experiment {
    let counts = if quick { vec![1u32, 32, 1024] } else { pow2_range(1, 1024) };
    let mut exp = Experiment::new(
        "fig03",
        "Device-side MPIX_Pready cost by aggregation level (1 block, intra-node)",
        &["threads", "thread_us", "warp_us", "block_us"],
    );
    let mut spec = SweepSpec::new();
    for &t in &counts {
        spec.cell(format!("threads={t}"), move || {
            let row = [AggLevel::Thread, AggLevel::Warp, AggLevel::Block]
                .into_iter()
                .map(|agg| {
                    let kernel = KernelSpec::vector_add(1, t);
                    pready_extension_us(0xF160_0300 ^ t as u64, 3, kernel, agg, false)
                })
                .collect::<Vec<_>>();
            vec![t as f64, row[0], row[1], row[2]]
        });
    }
    for row in crate::report::run_sweep(spec, "fig03 sweep") {
        exp.push_row(row);
    }
    if let Some(last) = exp.rows.last() {
        let (thread, warp, block) = (last[1], last[2], last[3]);
        exp.note(format!(
            "1024 threads: thread/block = {:.1}x (paper 271.5x), warp/block = {:.1}x \
             (paper 9.4x)",
            thread / block,
            warp / block
        ));
    }
    exp.note("single thread: all three levels cost the same within error (paper §VI-A1)");
    exp
}
