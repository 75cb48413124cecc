//! Striping ablation: cross-node partitioned p2p goodput vs the channel's
//! multi-path stripe count.
//!
//! Usage: `striping [--stripes 1,2,4] [--quick] [--threads N]`. An
//! argument the usage does not list, or a stripe list that does not parse,
//! prints the usage and exits 2.
//!
//! Output is byte-identical at any `--threads` count — the CI `scale` job
//! diffs a serial run against a 4-worker run and greps the
//! "striped cross-node goodput beats single-path" verdict line.

use parcomm_bench as b;

const USAGE: &str = "usage: striping [--stripes 1,2,4] [--quick] [--threads N]\n";

fn main() {
    b::check_args("striping", USAGE, &["--quick"], &["--stripes", "--threads"]);
    let stripes =
        b::striping::stripes_arg().unwrap_or_else(|e| b::usage_error("striping", USAGE, &e));
    b::striping::run(&stripes, b::quick_mode()).emit();
}
