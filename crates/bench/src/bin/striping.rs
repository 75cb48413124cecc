//! Striping ablation: cross-node partitioned p2p goodput vs the channel's
//! multi-path stripe count.
//!
//! Usage: `striping [--stripes 1,2,4] [--quick] [--threads N]`
//! (`PARCOMM_STRIPES`, `PARCOMM_QUICK`, and `PARCOMM_THREADS` work too).
//!
//! Output is byte-identical at any `--threads` count — the CI `scale` job
//! diffs a serial run against a 4-worker run and greps the
//! "striped cross-node goodput beats single-path" verdict line.

use parcomm_bench as b;

fn main() {
    b::striping::run(b::quick_mode()).emit();
}
