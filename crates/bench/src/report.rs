//! Experiment result container and rendering: aligned text tables for the
//! terminal plus JSON for EXPERIMENTS.md bookkeeping, and the command-line
//! helpers every harness binary reads its flags with.

use parcomm_obs::json::{number, quote};
use parcomm_sweep::SweepSpec;

/// One reproduced table or figure.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Paper label, e.g. `"fig04"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers; column 0 is the x-axis parameter.
    pub columns: Vec<String>,
    /// One row per parameter point.
    pub rows: Vec<Vec<f64>>,
    /// Free-form observations (shape checks, paper anchors).
    pub notes: Vec<String>,
}

impl Experiment {
    /// Create an empty experiment.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Experiment {
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a data row (must match the column count).
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch in {}", self.id);
        self.rows.push(row);
    }

    /// Append an observation note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let width = 14usize;
        let header: Vec<String> =
            self.columns.iter().map(|c| format!("{c:>width$}")).collect();
        out.push_str(&header.join(" "));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| {
                    if v.abs() >= 1e6 || (v.abs() < 1e-3 && *v != 0.0) {
                        format!("{v:>width$.3e}")
                    } else {
                        format!("{v:>width$.3}")
                    }
                })
                .collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("   note: {n}\n"));
        }
        out
    }

    /// Serialize to pretty-printed JSON (hand-rolled: the workspace builds
    /// with zero external dependencies, so no `serde`). The field layout
    /// matches what `serde_json` used to emit for this struct.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", quote(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", quote(&self.title)));
        out.push_str(&format!(
            "  \"columns\": [{}],\n",
            self.columns.iter().map(|c| quote(c)).collect::<Vec<_>>().join(", ")
        ));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    [{}]",
                row.iter().map(|v| number(*v)).collect::<Vec<_>>().join(", ")
            ));
        }
        out.push_str(if self.rows.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str(&format!(
            "  \"notes\": [{}]\n",
            self.notes.iter().map(|n| quote(n)).collect::<Vec<_>>().join(", ")
        ));
        out.push('}');
        out
    }

    /// Print to stdout and, if `PARCOMM_RESULTS_DIR` is set, write
    /// `<dir>/<id>.json`.
    pub fn emit(&self) {
        println!("{}", self.render());
        if let Ok(dir) = std::env::var("PARCOMM_RESULTS_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{}.json", self.id));
            if let Err(e) = std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&path, self.to_json()))
            {
                eprintln!("warning: could not write {path:?}: {e}");
            }
        }
    }
}

/// True when the harness should run a reduced sweep (CI / smoke runs):
/// `--quick` on the command line.
pub fn quick_mode() -> bool {
    arg_flag("--quick")
}

/// Print `msg` and `usage` to stderr as a usage error of `bin` and exit 2.
pub fn usage_error(bin: &str, usage: &str, msg: &str) -> ! {
    eprint!("{bin}: {msg}\n\n{usage}");
    std::process::exit(2);
}

/// Check the command line against a harness's usage before anything runs:
/// every argument must be one of `switches`, or one of `valued` followed
/// by its value (`--flag VALUE` or `--flag=VALUE`). Returns the valued
/// flags as `(flag, value)` pairs in command-line order; an unknown
/// argument or a missing value is a usage error of `bin`.
pub fn check_args(
    bin: &str,
    usage: &str,
    switches: &[&str],
    valued: &[&str],
) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if switches.contains(&arg.as_str()) {
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg.clone(), None),
        };
        if !valued.contains(&flag.as_str()) {
            usage_error(bin, usage, &format!("unknown argument {arg}"));
        }
        let value = inline
            .or_else(|| args.next())
            .unwrap_or_else(|| usage_error(bin, usage, &format!("{flag} needs a value")));
        pairs.push((flag, value));
    }
    pairs
}

/// Check the command line of a sweep harness whose only flags are
/// `--quick` and `--threads N` (any other argument is a usage error of
/// `bin`) and return [`quick_mode`].
pub fn sweep_args(bin: &str) -> bool {
    let usage = format!("usage: {bin} [--quick] [--threads N]\n");
    check_args(bin, &usage, &["--quick"], &["--threads"]);
    quick_mode()
}

/// The comma-separated list in `flag`, `Ok(None)` when it is not given.
/// `Err` names a value with an item that does not parse or fails `ok`, and
/// what was `expected`.
pub fn list_arg<T: std::str::FromStr>(
    flag: &str,
    expected: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<Vec<T>>, String> {
    let Some(list) = arg_value(flag) else {
        return Ok(None);
    };
    list.split(',')
        .map(|s| s.trim().parse().ok().filter(|v| ok(v)))
        .collect::<Option<Vec<T>>>()
        .map(Some)
        .ok_or_else(|| format!("{flag} {list}: expected {expected}"))
}

/// True when `flag` appears on the command line.
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Value of `flag` on the command line — `flag value` or `flag=value`,
/// first occurrence wins — if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// Output path for the Chrome `trace_event` export: `--trace-out <path>`
/// on the command line. When set, harnesses that support tracing enable
/// causal span recording and write a Perfetto-loadable JSON trace there
/// (plus folded flamegraph stacks at `<path>.folded`).
pub fn trace_out() -> Option<String> {
    arg_value("--trace-out")
}

/// Output path for the end-of-run metrics snapshot JSON:
/// `--metrics-out <path>` on the command line.
pub fn metrics_out() -> Option<String> {
    arg_value("--metrics-out")
}

/// Worker-thread count for the sweep engine: `--threads N` (or
/// `--threads=N`) on the command line, else available parallelism. Every
/// harness fans its parameter grid out over this many workers via
/// `parcomm_sweep::SweepSpec`; output is byte-identical at any thread
/// count.
pub fn threads() -> usize {
    parcomm_sweep::threads()
}

/// Run a harness's sweep on [`threads`] workers and return the cell
/// values in cell order — the one place a harness reads the worker count.
/// Panics with `what` if a cell failed.
pub(crate) fn run_sweep<T: Send + 'static>(spec: SweepSpec<T>, what: &str) -> Vec<T> {
    spec.run(threads()).into_values().expect(what)
}

/// Copy mechanism selected on the command line: `--mechanism pe|kc|shmem`.
/// `Ok(None)` when unset — callers fall back to their own default; `Err`
/// names a value that does not parse.
pub fn mechanism() -> Result<Option<parcomm_core::CopyMechanism>, String> {
    arg_value("--mechanism")
        .map(|s| {
            parcomm_core::CopyMechanism::from_short_name(&s)
                .ok_or_else(|| format!("--mechanism {s}: expected pe|kc|shmem"))
        })
        .transpose()
}

/// Chaos seed for the fault-injection ablation: `--faults <seed>` on the
/// command line (decimal or `0x`-prefixed hex). `Ok(None)` means the
/// caller should skip fault runs entirely; `Err` names a value that does
/// not parse.
pub fn fault_seed() -> Result<Option<u64>, String> {
    fn parse(s: &str) -> Option<u64> {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok()
        } else {
            s.parse().ok()
        }
    }
    arg_value("--faults")
        .map(|s| parse(&s).ok_or_else(|| format!("--faults {s}: not a decimal or 0x-hex seed")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_parts() {
        let mut e = Experiment::new("figX", "demo", &["grid", "a", "b"]);
        e.push_row(vec![1.0, 2.5, 3.25]);
        e.note("shape ok");
        let s = e.render();
        assert!(s.contains("figX"));
        assert!(s.contains("grid"));
        assert!(s.contains("3.25"));
        assert!(s.contains("shape ok"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut e = Experiment::new("figY", "demo", &["a", "b"]);
        e.push_row(vec![1.0]);
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut e = Experiment::new("figZ", "demo", &["a"]);
        e.push_row(vec![42.0]);
        let j = e.to_json();
        assert!(j.contains("\"id\": \"figZ\""));
        assert!(j.contains("42.0"));
    }
}
