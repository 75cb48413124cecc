//! A `--mechanism`/`PARCOMM_MECHANISM` or `--faults`/`PARCOMM_FAULTS`
//! value that does not parse is a usage error (exit 2, nothing run) in
//! every harness that reads it, not a silent fall-back to the default. So
//! is an argument a harness's usage does not list, and a `--channels`,
//! `--tenants`, `--nodes` or `--stripes` value that does not parse.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .env_remove("PARCOMM_MECHANISM")
        .env_remove("PARCOMM_FAULTS")
        .env_remove("PARCOMM_RESULTS_DIR")
        .env_remove("PARCOMM_THREADS")
        .env_remove("PARCOMM_CHANNELS")
        .env_remove("PARCOMM_TENANTS")
        .env_remove("PARCOMM_NODES")
        .env_remove("PARCOMM_STRIPES");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run harness")
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
fn unknown_mechanism_in_the_environment_stops_chaos_campaign() {
    let out = run(
        env!("CARGO_BIN_EXE_chaos_campaign"),
        &[],
        &[("PARCOMM_MECHANISM", "bogus")],
    );
    assert_usage_error(&out, "PARCOMM_MECHANISM=bogus chaos_campaign");
}

#[test]
fn unknown_mechanism_stops_ablations() {
    let out = run(
        env!("CARGO_BIN_EXE_ablations"),
        &["--quick", "--mechanism", "bogus"],
        &[],
    );
    assert_usage_error(&out, "ablations --quick --mechanism bogus");
}

#[test]
fn unparseable_fault_seed_stops_reproduce_all() {
    let out = run(
        env!("CARGO_BIN_EXE_reproduce_all"),
        &["--quick", "--faults", "nope"],
        &[],
    );
    assert_usage_error(&out, "reproduce_all --quick --faults nope");
}

#[test]
fn unknown_argument_stops_ablations_and_reproduce_all() {
    for (name, bin) in [
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
        ("reproduce_all", env!("CARGO_BIN_EXE_reproduce_all")),
    ] {
        let out = run(bin, &["--quick", "--bogus"], &[]);
        assert_usage_error(&out, &format!("{name} --quick --bogus"));
    }
}

#[test]
fn unparseable_lists_stop_mux_scaling_and_striping() {
    for (name, bin, args) in [
        ("mux", env!("CARGO_BIN_EXE_mux"), &["--quick", "--channels", "3"][..]),
        ("mux", env!("CARGO_BIN_EXE_mux"), &["--quick", "--tenants", "0"]),
        ("scaling", env!("CARGO_BIN_EXE_scaling"), &["--quick", "--nodes", "x"]),
        ("striping", env!("CARGO_BIN_EXE_striping"), &["--quick", "--stripes=bogus"]),
    ] {
        let out = run(bin, args, &[]);
        assert_usage_error(&out, &format!("{name} {}", args.join(" ")));
    }
}
