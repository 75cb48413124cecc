//! Regenerate Fig. 5. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::fig0405::run_fig05(parcomm_bench::sweep_args("fig05_inter_node")).emit();
}
