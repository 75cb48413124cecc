//! Observability smoke check (the CI `obs` job): run the traced
//! partitioned allreduce, validate the Chrome `trace_event` export with
//! the first-party JSON parser, check the folded stacks and metrics are
//! non-empty, and require the critical path to explain at least 90% of
//! the measured interval (the acceptance bar). Exits non-zero on any
//! failure. Honors `--trace-out` / `--metrics-out` to also keep the
//! artifacts. Any other argument but `--quick` prints the usage and
//! exits 2.

use parcomm_bench as b;
use parcomm_obs::json;

const USAGE: &str = "usage: obs_smoke [--quick] [--trace-out PATH] [--metrics-out PATH]\n";

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    b::check_args("obs_smoke", USAGE, &["--quick"], &["--trace-out", "--metrics-out"]);
    let run = match b::obsrun::run_traced_allreduce(b::quick_mode()) {
        Ok(run) => run,
        Err(e) => fail(&e),
    };
    if run.spans.is_empty() {
        fail("traced run recorded no spans");
    }

    // Chrome export parses with the first-party parser and has the
    // expected shape.
    let chrome = run.chrome_json();
    let v = match json::parse(&chrome) {
        Ok(v) => v,
        Err(e) => fail(&format!("chrome trace is not valid JSON: {e:?}")),
    };
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .unwrap_or_else(|| fail("chrome trace has no traceEvents array"));
    let n_spans = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    let n_flows = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
        .count();
    if n_spans == 0 {
        fail("chrome trace has no duration events");
    }
    if n_flows == 0 {
        fail("chrome trace has no causal flow events");
    }
    println!("obs_smoke: chrome trace ok ({n_spans} spans, {n_flows} causal edges)");

    if run.folded().lines().count() == 0 {
        fail("folded stacks are empty");
    }
    if json::parse(&run.metrics.to_json()).is_err() {
        fail("metrics snapshot is not valid JSON");
    }
    let puts = run.metrics.counter("ucx.puts").unwrap_or(0);
    let polls = run.metrics.counter("mpi.pe.polls").unwrap_or(0);
    if puts == 0 || polls == 0 {
        fail(&format!("metrics look dead: ucx.puts={puts} mpi.pe.polls={polls}"));
    }
    println!("obs_smoke: metrics ok (ucx.puts={puts}, mpi.pe.polls={polls})");

    let cp = run.critical_path();
    if cp.steps.is_empty() {
        fail("critical path is empty");
    }
    let coverage = cp.coverage_of(run.from, run.to);
    print!("{}", run.critical_path_report());
    if coverage < 0.9 {
        fail(&format!(
            "critical path covers only {:.1}% of the measured interval (< 90%)",
            100.0 * coverage
        ));
    }
    println!("obs_smoke: PASS (critical path covers {:.1}%)", 100.0 * coverage);

    if let Some(path) = b::trace_out() {
        if let Err(e) = std::fs::write(&path, &chrome) {
            eprintln!("warning: could not write {path}: {e}");
        }
        let folded_path = format!("{path}.folded");
        if let Err(e) = std::fs::write(&folded_path, run.folded()) {
            eprintln!("warning: could not write {folded_path}: {e}");
        }
    }
    if let Some(path) = b::metrics_out() {
        if let Err(e) = std::fs::write(&path, run.metrics.to_json()) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}
