//! Regenerate Fig. 8. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::fig0809::run_fig08(parcomm_bench::sweep_args("fig08_jacobi_1node")).emit();
}
