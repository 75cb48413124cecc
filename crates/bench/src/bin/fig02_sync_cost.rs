//! Regenerate Fig. 2. Pass `--quick` for a reduced sweep and `--threads N`
//! to set sweep workers; any other argument prints the usage and exits 2.
fn main() {
    parcomm_bench::fig02::run(parcomm_bench::sweep_args("fig02_sync_cost")).emit();
}
