//! Regenerate Fig. 7. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::fig0607::run_fig07(parcomm_bench::sweep_args("fig07_allreduce_2node")).emit();
}
