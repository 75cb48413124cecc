//! Three-mechanism head-to-head: Progression Engine vs Kernel Copy vs the
//! symmetric-heap (shmem) backend, plus the rkey-exchange invariant. Pass
//! `--quick` for the reduced sweep; `--threads N` sets sweep workers. Any
//! other argument prints the usage and exits 2.
use parcomm_bench as b;

fn main() {
    b::mechanisms::run(b::sweep_args("mechanisms")).emit();
}
