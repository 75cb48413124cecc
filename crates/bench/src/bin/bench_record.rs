//! Benchmark recorder: one point of the performance trajectory.
//!
//! Usage: `bench_record --perfbench PATH --commit SHA --out FILE
//! [--seeds A..B]`.
//!
//! Runs a built perfbench (`--perfbench`, its path; this binary neither
//! builds nor edits it) on every workload and every seed of the half-open
//! range `A..B` (default `1..4`), once at `--trace 0` and once at
//! `--trace 1`, each for [`SECONDS`]. It parses the last line
//! of each run's standard output with `parcomm_obs::json` and writes one
//! JSON object to `--out` (conventionally `BENCH_<n>.json`): the commit the
//! perfbench was built from, the seeds, the seconds, the median and IQR of
//! `host.reference_task_ms` over the `--trace 1` runs, and per workload and
//! trace level the median and IQR over the seeds of every metric. A run
//! that fails, or whose result is not `correct` with zero failures, stops
//! the recorder with exit status 1 and writes nothing. A bad argument
//! prints the usage and exits 2.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use parcomm_bench as b;
use parcomm_obs::json::{self, JsonValue};

const USAGE: &str =
    "usage: bench_record --perfbench PATH --commit SHA --out FILE [--seeds A..B]\n";

/// The workloads of `BENCHMARK.json`, in its order.
const WORKLOADS: [&str; 4] = ["p2p_intra", "p2p_inter", "allreduce", "moe"];

/// The length of each run, perfbench's `--seconds`.
const SECONDS: u32 = 1;

fn usage_error(msg: &str) -> ! {
    b::usage_error("bench_record", USAGE, msg)
}

/// The value of a required flag.
fn required(flag: &str) -> String {
    b::arg_value(flag).unwrap_or_else(|| usage_error(&format!("{flag} is required")))
}

/// Parse `A..B` into the seeds `A, A + 1, …, B - 1` (at least one).
fn seeds(spec: &str) -> Result<Vec<u64>, String> {
    let (a, b) = spec.split_once("..").ok_or(format!("--seeds {spec}: want A..B"))?;
    let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("--seeds {spec}: bad bound {s}"));
    let (a, b) = (parse(a)?, parse(b)?);
    if a >= b {
        return Err(format!("--seeds {spec}: the range is empty"));
    }
    Ok((a..b).collect())
}

/// One perfbench run: its metrics, `name → value`.
fn run(perfbench: &str, workload: &str, seed: u64, trace: u8) -> Result<Vec<(String, f64)>, String> {
    let what = format!("{workload} seed {seed} trace {trace}");
    let out = Command::new(perfbench)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &SECONDS.to_string(), "--trace", &trace.to_string()])
        .output()
        .map_err(|e| format!("{what}: cannot run {perfbench}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what}: perfbench exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or(format!("{what}: no output"))?;
    let v = json::parse(last).map_err(|e| format!("{what}: last line is not JSON: {e}"))?;
    let correct = matches!(v.get("correct"), Some(JsonValue::Bool(true)));
    let failed = v.get("failed").and_then(JsonValue::as_f64);
    if !correct || failed != Some(0.0) {
        return Err(format!("{what}: run not correct (failed {failed:?})"));
    }
    let metrics = v.get("metrics").and_then(JsonValue::as_object).ok_or(format!("{what}: no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// `{"median": …, "iqr": …}` of `values` (linear-interpolated quartiles).
fn summary(values: &mut [f64]) -> String {
    values.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (values.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (x - lo as f64)
    };
    format!("{{\"median\": {}, \"iqr\": {}}}", json::number(q(0.5)), json::number(q(0.75) - q(0.25)))
}

fn record() -> Result<String, String> {
    let perfbench = required("--perfbench");
    let commit = required("--commit");
    let seeds = seeds(&b::arg_value("--seeds").unwrap_or_else(|| "1..4".into()))
        .unwrap_or_else(|e| usage_error(&e));
    let mut reference = Vec::new();
    let mut per_workload = Vec::new();
    for w in WORKLOADS {
        let mut levels = Vec::new();
        for trace in [0u8, 1] {
            // metric → its value at each seed
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for &seed in &seeds {
                for (name, v) in run(&perfbench, w, seed, trace)? {
                    if trace == 1 && name == "host.reference_task_ms" {
                        reference.push(v);
                    }
                    values.entry(name).or_default().push(v);
                }
            }
            let metrics: Vec<String> = values
                .iter_mut()
                .map(|(name, vs)| format!("{}: {}", json::quote(name), summary(vs)))
                .collect();
            levels.push(format!("\"trace{trace}\": {{{}}}", metrics.join(", ")));
        }
        per_workload.push(format!("{}: {{{}}}", json::quote(w), levels.join(", ")));
    }
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    Ok(format!(
        "{{\"commit\": {}, \"seeds\": [{}], \"seconds\": {}, \"host.reference_task_ms\": {}, \
         \"workloads\": {{{}}}}}\n",
        json::quote(&commit),
        seed_list.join(", "),
        SECONDS,
        summary(&mut reference),
        per_workload.join(", ")
    ))
}

fn main() -> ExitCode {
    b::check_args(
        "bench_record",
        USAGE,
        &[],
        &["--perfbench", "--commit", "--out", "--seeds"],
    );
    let out = required("--out");
    match record() {
        Ok(text) => {
            if let Err(e) = std::fs::write(&out, text) {
                eprintln!("bench_record: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_record: {e}");
            ExitCode::FAILURE
        }
    }
}
