//! Run the ablation studies (poll interval, transport partitions,
//! multi-block counters, fault-rate goodput). Pass `--quick` for reduced
//! sweeps; `--faults <seed>` picks the chaos seed for the fault ablation;
//! `--mechanism pe|kc|shmem` selects the copy mechanism the transport
//! sweep measures (default: the Progression Engine).
//! `--trace-out <path>` / `--metrics-out <path>` additionally export the
//! traced allreduce's Chrome trace, flamegraph stacks, and metrics.
use parcomm_bench as b;

fn main() {
    let q = b::quick_mode();
    b::ablations::run_poll_interval(q).emit();
    match b::mechanism() {
        Some(m) => b::ablations::run_transport_sweep_mech(q, m).emit(),
        None => b::ablations::run_transport_sweep(q).emit(),
    }
    b::ablations::run_counter_aggregation(q).emit();
    b::striping::run(q).emit();
    b::ablations::run_fault_goodput(q, b::fault_seed().unwrap_or(0xC4A05)).emit();
    b::obsrun::emit_requested_outputs(q);
}
