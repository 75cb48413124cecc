//! Regenerate Fig. 11. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::fig1011::run_fig11(parcomm_bench::sweep_args("fig11_dl_2node")).emit();
}
