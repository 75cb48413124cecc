//! A `--mechanism` or `--faults` value that does not parse is a usage
//! error (exit 2, nothing run) in every harness that reads it, not a
//! silent fall-back to the default. So is an argument a harness's usage
//! does not list, in every harness binary, a `--channels`, `--tenants`,
//! `--nodes` or `--stripes` value that does not parse, a `--topology`
//! spec that is malformed or names an invalid shape, and a
//! `chaos_campaign --channels` of 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("PARCOMM_RESULTS_DIR")
        .output()
        .expect("run harness")
}

fn assert_usage_error(out: &Output, name: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} should be a usage error:\n{err}"
    );
    assert!(err.contains("usage:"), "{name} printed no usage:\n{err}");
    assert!(
        out.stdout.is_empty(),
        "{name} ran before rejecting its arguments"
    );
}

#[test]
fn unknown_mechanism_stops_chaos_campaign() {
    let out = run(env!("CARGO_BIN_EXE_chaos_campaign"), &["--mechanism", "bogus"]);
    assert_usage_error(&out, "chaos_campaign --mechanism bogus");
}

#[test]
fn zero_channels_stops_chaos_campaign() {
    let out = run(env!("CARGO_BIN_EXE_chaos_campaign"), &["--channels", "0", "--seeds", "1"]);
    assert_usage_error(&out, "chaos_campaign --channels 0 --seeds 1");
}

#[test]
fn unknown_mechanism_stops_ablations() {
    let out = run(env!("CARGO_BIN_EXE_ablations"), &["--quick", "--mechanism", "bogus"]);
    assert_usage_error(&out, "ablations --quick --mechanism bogus");
}

#[test]
fn unparseable_fault_seed_stops_reproduce_all() {
    let out = run(env!("CARGO_BIN_EXE_reproduce_all"), &["--quick", "--faults", "nope"]);
    assert_usage_error(&out, "reproduce_all --quick --faults nope");
}

/// Every harness binary checks its whole command line before it runs
/// anything, and `mux` has no `--trace-out`.
#[test]
fn unknown_argument_stops_ablations_and_reproduce_all() {
    for (name, bin) in [
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
        ("reproduce_all", env!("CARGO_BIN_EXE_reproduce_all")),
        ("fig02_sync_cost", env!("CARGO_BIN_EXE_fig02_sync_cost")),
        ("fig03_aggregation", env!("CARGO_BIN_EXE_fig03_aggregation")),
        ("fig04_intra_node", env!("CARGO_BIN_EXE_fig04_intra_node")),
        ("fig05_inter_node", env!("CARGO_BIN_EXE_fig05_inter_node")),
        ("fig06_allreduce_1node", env!("CARGO_BIN_EXE_fig06_allreduce_1node")),
        ("fig07_allreduce_2node", env!("CARGO_BIN_EXE_fig07_allreduce_2node")),
        ("fig08_jacobi_1node", env!("CARGO_BIN_EXE_fig08_jacobi_1node")),
        ("fig09_jacobi_2node", env!("CARGO_BIN_EXE_fig09_jacobi_2node")),
        ("fig10_dl_1node", env!("CARGO_BIN_EXE_fig10_dl_1node")),
        ("fig11_dl_2node", env!("CARGO_BIN_EXE_fig11_dl_2node")),
        ("table1_overheads", env!("CARGO_BIN_EXE_table1_overheads")),
        ("pbench", env!("CARGO_BIN_EXE_pbench")),
        ("mechanisms", env!("CARGO_BIN_EXE_mechanisms")),
        ("obs_smoke", env!("CARGO_BIN_EXE_obs_smoke")),
    ] {
        let out = run(bin, &["--quick", "--bogus"]);
        assert_usage_error(&out, &format!("{name} --quick --bogus"));
    }
    let out = run(env!("CARGO_BIN_EXE_mechanisms"), &["--quik"]);
    assert_usage_error(&out, "mechanisms --quik");
    let out = run(env!("CARGO_BIN_EXE_gap_decomposition"), &["--bogus"]);
    assert_usage_error(&out, "gap_decomposition --bogus");
    let out = run(env!("CARGO_BIN_EXE_mux"), &["--quick", "--trace-out", "x"]);
    assert_usage_error(&out, "mux --quick --trace-out x");
}

#[test]
fn unparseable_lists_stop_mux_scaling_and_striping() {
    for (name, bin, args) in [
        ("mux", env!("CARGO_BIN_EXE_mux"), &["--quick", "--channels", "3"][..]),
        ("mux", env!("CARGO_BIN_EXE_mux"), &["--quick", "--tenants", "0"]),
        ("scaling", env!("CARGO_BIN_EXE_scaling"), &["--quick", "--nodes", "x"]),
        ("striping", env!("CARGO_BIN_EXE_striping"), &["--quick", "--stripes=bogus"]),
    ] {
        let out = run(bin, args);
        assert_usage_error(&out, &format!("{name} {}", args.join(" ")));
    }
}

#[test]
fn invalid_topology_specs_stop_scaling() {
    for (spec, message) in [
        ("4,0,2", "zero GPUs on node 1"),
        ("2x2x3", "more NICs (3) than GPUs (2) on node 0"),
        (";", "expected at least one spec"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_scaling"), &["--quick", "--topology", spec]);
        let name = format!("scaling --quick --topology {spec}");
        assert_usage_error(&out, &name);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{name} did not say {message:?}:\n{err}");
    }
}

/// `bench_record` checks its whole command line, and every value a run
/// needs, before it starts a perfbench run.
#[test]
fn bad_arguments_stop_bench_record() {
    let bin = env!("CARGO_BIN_EXE_bench_record");
    let base = ["--perfbench", "/nonexistent", "--commit", "c", "--out", "/nonexistent/x.json"];
    for (extra, name) in [
        (&["--bogus"][..], "an unknown argument"),
        (&["--seeds", "3..3"], "an empty seed range"),
    ] {
        let out = run(bin, &[&base[..], extra].concat());
        assert_usage_error(&out, &format!("bench_record with {name}"));
    }
    let out = run(bin, &["--commit", "c", "--out", "x.json"]);
    assert_usage_error(&out, "bench_record without --perfbench");
}
