//! Regenerate Fig. 3. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::fig03::run(parcomm_bench::sweep_args("fig03_aggregation")).emit();
}
