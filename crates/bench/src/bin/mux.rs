//! Multi-tenant mux bench: per-tenant goodput and tail latency vs live
//! channel count and copy mechanism.
//!
//! Usage: `mux [--channels 16,256,1024,4096] [--tenants 8] [--quick]
//! [--threads N] [--trace-out <path>]`
//! (`PARCOMM_CHANNELS`, `PARCOMM_TENANTS`, `PARCOMM_QUICK`,
//! `PARCOMM_THREADS`, and `PARCOMM_TRACE_OUT` work too). An argument the
//! usage does not list, an odd or unparseable channel count or a tenant
//! count that is not a positive integer prints the usage and exits 2.
//!
//! Output is byte-identical at any `--threads` count — the CI `mux` job
//! diffs a serial run against a 4-worker run and greps the
//! "mux weighted fairness verdict: PASS" line. With `--trace-out` a
//! bounded-ring traced cell also runs, spilling evicted spans to the
//! given JSONL path.

use parcomm_bench as b;
use parcomm_core::CopyMechanism;

const USAGE: &str = "\
usage: mux [--channels 16,256,1024,4096] [--tenants N] [--quick] [--threads N]
           [--trace-out PATH]
";

/// Print `msg` and the usage to stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    b::usage_error("mux", USAGE, msg)
}

fn main() {
    let valued = ["--channels", "--tenants", "--threads", "--trace-out"];
    b::check_args("mux", USAGE, &["--quick"], &valued);
    let quick = b::quick_mode();
    let channels = b::mux::channels_arg(quick).unwrap_or_else(|e| usage_error(&e));
    let tenants = b::mux::tenants_arg().unwrap_or_else(|e| usage_error(&e));
    b::mux::run(&channels, tenants, quick).emit();
    if let Some(path) = b::trace_out() {
        // A bounded-ring traced run of the largest requested grid: the
        // ring keeps memory flat and every evicted span streams to the
        // JSONL spill file.
        let c = channels.iter().copied().max().unwrap_or(256);
        let cfg = b::mux::MuxCellCfg {
            channels: c,
            tenants,
            mechanism: CopyMechanism::ProgressionEngine,
            rounds: b::mux::rounds_for(c, quick),
        };
        let stats = b::mux::mux_cell(&cfg, Some(&path));
        println!(
            "trace spill written to {path}: {} spans evicted through the bounded ring \
             (digest 0x{:016x})",
            stats.spilled_spans, stats.digest
        );
    }
}
