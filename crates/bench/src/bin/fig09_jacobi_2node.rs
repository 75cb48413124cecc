//! Regenerate Fig. 9. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::fig0809::run_fig09(parcomm_bench::sweep_args("fig09_jacobi_2node")).emit();
}
