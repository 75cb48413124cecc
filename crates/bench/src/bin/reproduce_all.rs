//! Run every table/figure harness in paper order. Pass `--quick` for a
//! smoke run; set `PARCOMM_RESULTS_DIR` to save JSON next to the text.
//! Pass `--threads N` to bound the sweep-engine worker count — each
//! harness fans its parameter grid out in parallel, and the output is
//! byte-identical at any thread count (default: available parallelism).
//! Pass `--faults <seed>` to additionally run the whole suite's fault
//! ablation: the canonical allreduce under seeded chaos at increasing
//! fault rates (goodput vs fault rate, deterministic per seed). An
//! argument the usage does not list, or a seed that does not parse,
//! prints the usage and exits 2 before any figure runs.
//! Pass `--trace-out <path>` / `--metrics-out <path>` to additionally run
//! the traced 1K-grid partitioned allreduce and export a Perfetto-loadable
//! Chrome trace (plus `<path>.folded` flamegraph stacks), a metrics
//! snapshot, and a critical-path report.
use parcomm_bench as b;

const USAGE: &str = "\
usage: reproduce_all [--quick] [--threads N] [--faults SEED]
                     [--trace-out PATH] [--metrics-out PATH]
";

/// Print `msg` and the usage to stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    b::usage_error("reproduce_all", USAGE, msg)
}

fn main() {
    let valued = ["--threads", "--faults", "--trace-out", "--metrics-out"];
    b::check_args("reproduce_all", USAGE, &["--quick"], &valued);
    let fault_seed = b::fault_seed().unwrap_or_else(|e| usage_error(&e));
    let q = b::quick_mode();
    b::fig02::run(q).emit();
    b::fig03::run(q).emit();
    b::fig0405::run_fig04(q).emit();
    b::fig0405::run_fig05(q).emit();
    b::fig0607::run_fig06(q).emit();
    b::fig0607::run_fig07(q).emit();
    b::table1::run(q).emit();
    b::fig0809::run_fig08(q).emit();
    b::fig0809::run_fig09(q).emit();
    b::fig1011::run_fig10(q).emit();
    b::fig1011::run_fig11(q).emit();
    b::striping::run(&b::striping::DEFAULT_STRIPES, q).emit();
    if let Some(seed) = fault_seed {
        b::ablations::run_fault_goodput(q, seed).emit();
    }
    b::obsrun::emit_requested_outputs(q);
}
