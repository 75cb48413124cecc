//! Multi-tenant mux bench: per-tenant goodput and tail latency vs live
//! channel count and copy mechanism.
//!
//! Usage: `mux [--channels 16,256,1024,4096] [--tenants 8] [--quick]
//! [--threads N]`. An argument the usage does not list, an odd or
//! unparseable channel count or a tenant count that is not a positive
//! integer prints the usage and exits 2.
//!
//! Output is byte-identical at any `--threads` count — the CI `mux` job
//! diffs a serial run against a 4-worker run and greps the
//! "mux weighted fairness verdict: PASS" line.

use parcomm_bench as b;

const USAGE: &str =
    "usage: mux [--channels 16,256,1024,4096] [--tenants N] [--quick] [--threads N]\n";

/// Print `msg` and the usage to stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    b::usage_error("mux", USAGE, msg)
}

fn main() {
    b::check_args("mux", USAGE, &["--quick"], &["--channels", "--tenants", "--threads"]);
    let quick = b::quick_mode();
    let channels = b::mux::channels_arg(quick).unwrap_or_else(|e| usage_error(&e));
    let tenants = b::mux::tenants_arg().unwrap_or_else(|e| usage_error(&e));
    b::mux::run(&channels, tenants, quick).emit();
}
