//! Scaling bench: flat vs hierarchical partitioned allreduce goodput
//! across a node-count grid or an explicit `--topology` shape grid.
//!
//! Usage: `scaling [--nodes 1,2,4,8,16] [--quick] [--threads N]`
//! or `scaling --topology "2x4;4,2,4,1:2,1,2,1@2"` — semicolon-separated
//! cluster specs in the `--topology` grammar (uniform `NxG[xK][@O]`,
//! ragged `G1,G2,…[:K1,K2,…][@O]`), each becoming one sweep cell. An
//! argument the usage does not list, a node list that does not parse, or
//! a malformed or invalid topology spec prints the usage and exits 2.

use parcomm_bench as b;

const USAGE: &str = "\
usage: scaling [--nodes 1,2,4,8,16] [--quick] [--threads N]
       scaling --topology SPEC[;SPEC...] [--quick] [--threads N]
";

fn main() {
    b::check_args("scaling", USAGE, &["--quick"], &["--nodes", "--topology", "--threads"]);
    let quick = b::quick_mode();
    let nodes =
        b::scaling::nodes_arg(quick).unwrap_or_else(|e| b::usage_error("scaling", USAGE, &e));
    let specs =
        b::scaling::topology_arg().unwrap_or_else(|e| b::usage_error("scaling", USAGE, &e));
    if let Some(specs) = specs {
        b::scaling::run_scaling_specs(&specs, quick).emit();
        return;
    }
    b::scaling::run_scaling(&nodes, quick).emit();
}
