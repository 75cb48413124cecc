//! Benchmark recorder: one point of the performance trajectory.
//!
//! Usage: `bench_record --perfbench PATH --commit SHA --out FILE
//! [--seeds A..B] [--baseline PATH --baseline-commit SHA]`, or
//! `bench_record --perfbench PATH --check FILE`.
//!
//! Runs a built perfbench (`--perfbench`, its path; this binary neither
//! builds nor edits it) on every workload and every seed of the half-open
//! range `A..B` (default `1..4`), once at `--trace 0` and once at
//! `--trace 1`, each for [`SECONDS`]. It parses the last line
//! of each run's standard output with `parcomm_obs::json` and writes one
//! JSON object to `--out` (conventionally `BENCH_<n>.json`): the commit the
//! perfbench was built from, the seeds, the seconds, the median and IQR of
//! `host.reference_task_ms` over the `--trace 1` runs, and per workload and
//! trace level the median and IQR over the seeds of every metric.
//!
//! With `--baseline`, a second built perfbench (the parent, say) runs
//! alternately with the first, run by run, each pair starting with the
//! other build than the pair before, so both see the same drift of a
//! shared host; the file then holds the baseline's point too, under
//! `"baseline"`, with the same fields.
//!
//! With `--check FILE`, it records at the seeds of `FILE` (a file it
//! wrote) and writes nothing: it exits 1 unless every `--trace 1` metric
//! outside `host.*`, `simcore.cpu_ns_per_event` excepted, has the median
//! and IQR `FILE` holds. Those metrics repeat exactly for a build and a
//! seed, so a mismatch means the simulation's behaviour changed.
//!
//! A run that fails, or whose result is not `correct` with zero failures,
//! stops the recorder with exit status 1 and writes nothing. A bad argument
//! prints the usage and exits 2.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use parcomm_bench as b;
use parcomm_obs::json::{self, JsonValue};

const USAGE: &str = "usage: bench_record --perfbench PATH --commit SHA --out FILE [--seeds A..B] \
                     [--baseline PATH --baseline-commit SHA]\n       \
                     bench_record --perfbench PATH --check FILE\n";

/// The workloads of `BENCHMARK.json`, in its order.
const WORKLOADS: [&str; 4] = ["p2p_intra", "p2p_inter", "allreduce", "moe"];

/// The length of each run, perfbench's `--seconds`.
const SECONDS: u32 = 1;

/// A `--trace 1` metric outside `host.*` that still varies between two
/// runs of one build: host CPU time per processed event.
const VARYING: &str = "simcore.cpu_ns_per_event";

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
    let what = format!("{perfbench}: {workload} seed {seed} trace {trace}");
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

/// Every run of one build: per `(workload, trace level)`, each metric's
/// value at each seed, and `host.reference_task_ms` of every `--trace 1`
/// run.
#[derive(Default)]
struct Runs {
    values: BTreeMap<(&'static str, u8), BTreeMap<String, Vec<f64>>>,
    reference: Vec<f64>,
}

impl Runs {
    fn add(&mut self, workload: &'static str, trace: u8, metrics: Vec<(String, f64)>) {
        let values = self.values.entry((workload, trace)).or_default();
        for (name, v) in metrics {
            if trace == 1 && name == "host.reference_task_ms" {
                self.reference.push(v);
            }
            values.entry(name).or_default().push(v);
        }
    }

    /// The point's fields after its commit: seeds, seconds, reference task
    /// and per-workload summaries, as JSON object members.
    fn point(mut self, seeds: &[u64]) -> String {
        let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
        let mut per_workload = Vec::new();
        for w in WORKLOADS {
            let levels: Vec<String> = [0u8, 1]
                .iter()
                .map(|&trace| {
                    let values = self.values.entry((w, trace)).or_default();
                    let metrics: Vec<String> = values
                        .iter_mut()
                        .map(|(name, vs)| format!("{}: {}", json::quote(name), summary(vs)))
                        .collect();
                    format!("\"trace{trace}\": {{{}}}", metrics.join(", "))
                })
                .collect();
            per_workload.push(format!("{}: {{{}}}", json::quote(w), levels.join(", ")));
        }
        format!(
            "\"seeds\": [{}], \"seconds\": {}, \"host.reference_task_ms\": {}, \
             \"workloads\": {{{}}}",
            seed_list.join(", "),
            SECONDS,
            summary(&mut self.reference),
            per_workload.join(", ")
        )
    }
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

/// Run every workload, trace level and seed on each of `builds`, one run
/// per build in turn, the first build of each turn alternating.
fn record(builds: &[String], seeds: &[u64]) -> Result<Vec<Runs>, String> {
    let mut runs: Vec<Runs> = builds.iter().map(|_| Runs::default()).collect();
    let mut turn = 0;
    for w in WORKLOADS {
        for trace in [0u8, 1] {
            for &seed in seeds {
                for i in 0..builds.len() {
                    let k = (turn + i) % builds.len();
                    runs[k].add(w, trace, run(&builds[k], w, seed, trace)?);
                }
                turn += 1;
            }
        }
    }
    Ok(runs)
}

/// Record one point, or a point and its baseline, as the text of `--out`.
fn write_point() -> Result<String, String> {
    let seeds = seeds(&b::arg_value("--seeds").unwrap_or_else(|| "1..4".into()))
        .unwrap_or_else(|e| usage_error(&e));
    let mut builds = vec![(required("--perfbench"), required("--commit"))];
    match (b::arg_value("--baseline"), b::arg_value("--baseline-commit")) {
        (Some(path), Some(commit)) => builds.push((path, commit)),
        (None, None) => {}
        _ => usage_error("--baseline and --baseline-commit go together"),
    }
    let paths: Vec<String> = builds.iter().map(|(path, _)| path.clone()).collect();
    let mut points = record(&paths, &seeds)?
        .into_iter()
        .zip(&builds)
        .map(|(runs, (_, commit))| {
            format!("\"commit\": {}, {}", json::quote(commit), runs.point(&seeds))
        });
    let point = points.next().expect("one build at least");
    Ok(match points.next() {
        Some(baseline) => format!("{{{point}, \"baseline\": {{{baseline}}}}}\n"),
        None => format!("{{{point}}}\n"),
    })
}

/// Re-record the seeds of the point in `file` and list every `--trace 1`
/// metric outside `host.*` (but [`VARYING`]) whose median or IQR differs
/// from the file's.
fn check(file: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let want = json::parse(&text).map_err(|e| format!("{file}: not JSON: {e}"))?;
    let seeds: Vec<u64> = want
        .get("seeds")
        .and_then(JsonValue::as_array)
        .map(|a| a.iter().filter_map(JsonValue::as_f64).map(|s| s as u64).collect())
        .filter(|s: &Vec<u64>| !s.is_empty())
        .ok_or(format!("{file}: no seeds"))?;
    let mut runs = record(&[required("--perfbench")], &seeds)?.remove(0);
    let mut diffs = Vec::new();
    for w in WORKLOADS {
        let recorded = want
            .get("workloads")
            .and_then(|ws| ws.get(w)?.get("trace1")?.as_object())
            .ok_or(format!("{file}: no trace1 metrics for {w}"))?;
        let got = runs.values.entry((w, 1)).or_default();
        for (name, m) in recorded {
            if name.starts_with("host.") || name == VARYING {
                continue;
            }
            let Some(values) = got.get_mut(name) else {
                diffs.push(format!("{w} {name}: not reported any more"));
                continue;
            };
            let now = summary(values);
            let then = format!(
                "{{\"median\": {}, \"iqr\": {}}}",
                json::number(m.get("median").and_then(JsonValue::as_f64).unwrap_or(f64::NAN)),
                json::number(m.get("iqr").and_then(JsonValue::as_f64).unwrap_or(f64::NAN))
            );
            if now != then {
                diffs.push(format!("{w} {name}: {now}, recorded {then}"));
            }
        }
        for name in got.keys().filter(|n| !n.starts_with("host.") && *n != VARYING) {
            if !recorded.iter().any(|(n, _)| n == name) {
                diffs.push(format!("{w} {name}: not in {file}"));
            }
        }
    }
    Ok(diffs)
}

fn main() -> ExitCode {
    b::check_args(
        "bench_record",
        USAGE,
        &[],
        &[
            "--perfbench",
            "--commit",
            "--out",
            "--seeds",
            "--baseline",
            "--baseline-commit",
            "--check",
        ],
    );
    if let Some(file) = b::arg_value("--check") {
        for flag in ["--commit", "--out", "--seeds", "--baseline", "--baseline-commit"] {
            if b::arg_value(flag).is_some() {
                let msg = format!("--check takes the file's seeds and writes nothing: no {flag}");
                usage_error(&msg);
            }
        }
        return match check(&file) {
            Ok(diffs) if diffs.is_empty() => ExitCode::SUCCESS,
            Ok(diffs) => {
                eprintln!("bench_record: {} metric(s) differ from {file}:", diffs.len());
                for d in diffs {
                    eprintln!("  {d}");
                }
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("bench_record: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let out = required("--out");
    match write_point() {
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
