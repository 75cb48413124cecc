//! Run the ablation studies (poll interval, transport partitions,
//! multi-block counters, fault-rate goodput). Pass `--quick` for reduced
//! sweeps; `--faults <seed>` picks the chaos seed for the fault ablation;
//! `--mechanism pe|kc|shmem` selects the copy mechanism the transport
//! sweep measures (default: the Progression Engine).
//! `--trace-out <path>` / `--metrics-out <path>` additionally export the
//! traced allreduce's Chrome trace, flamegraph stacks, and metrics.
//! An argument the usage does not list, or a mechanism or seed that does
//! not parse, prints the usage and exits 2.
use parcomm_bench as b;

const USAGE: &str = "\
usage: ablations [--quick] [--threads N] [--mechanism pe|kc|shmem]
                 [--faults SEED] [--trace-out PATH] [--metrics-out PATH]
";

/// Print `msg` and the usage to stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    b::usage_error("ablations", USAGE, msg)
}

fn main() {
    let valued = ["--threads", "--mechanism", "--faults", "--trace-out", "--metrics-out"];
    b::check_args("ablations", USAGE, &["--quick"], &valued);
    let mechanism = b::mechanism().unwrap_or_else(|e| usage_error(&e));
    let fault_seed = b::fault_seed().unwrap_or_else(|e| usage_error(&e));
    let q = b::quick_mode();
    b::ablations::run_poll_interval(q).emit();
    match mechanism {
        Some(m) => b::ablations::run_transport_sweep_mech(q, m).emit(),
        None => b::ablations::run_transport_sweep(q).emit(),
    }
    b::ablations::run_counter_aggregation(q).emit();
    b::striping::run(&b::striping::DEFAULT_STRIPES, q).emit();
    b::ablations::run_fault_goodput(q, fault_seed.unwrap_or(0xC4A05)).emit();
    b::obsrun::emit_requested_outputs(q);
}
