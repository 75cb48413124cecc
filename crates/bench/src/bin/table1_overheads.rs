//! Regenerate Table I. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::table1::run(parcomm_bench::sweep_args("table1_overheads")).emit();
}
