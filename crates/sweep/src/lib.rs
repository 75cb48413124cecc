//! # parcomm-sweep — deterministic parallel experiment engine
//!
//! Every result this workspace produces — the paper's Fig. 2–11
//! reproductions, the ablation grids, `parcomm-testkit` seed sweeps, and
//! the faultsim chaos campaigns — is a grid of fully independent
//! deterministic simulations. This crate fans those cells out across
//! cores **without sacrificing bit-for-bit reproducibility**, using only
//! first-party code (no rayon/crossbeam — the workspace is hermetic):
//!
//! - an internal work-stealing thread pool over `Mutex<VecDeque>`
//!   deques; one panicking cell fails that cell, not the campaign.
//! - [`SweepSpec`]: a campaign as an ordered grid of keyed cells, each an
//!   independent closure. [`SweepSpec::run`] aggregates by cell index in
//!   insertion order, so output is **byte-identical regardless of thread
//!   count or completion order** (each cell is itself a deterministic
//!   simulation — `(program, seed)` fixes its result, and nothing is
//!   shared between cells).
//! - [`JsonlSink`]: a streaming JSON-lines result sink, flushed per cell,
//!   with resume — [`SweepSpec::run_with_sink`] re-runs only the cells a
//!   killed campaign had not yet completed.
//!
//! Thread count selection is shared by every binary via [`threads`]:
//! the `--threads N` flag, else available parallelism.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pool;
pub mod sink;
pub mod spec;

pub use sink::{CellValue, JsonlSink};
pub use spec::{CellError, SweepResults, SweepSpec};

/// Worker-thread count for a sweep-running binary: the `--threads N` (or
/// `--threads=N`) command-line flag if present, else
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        let explicit = if arg == "--threads" {
            args.get(i + 1).map(String::as_str)
        } else {
            arg.strip_prefix("--threads=")
        };
        if let Some(n) = explicit.and_then(|v| v.parse::<usize>().ok()) {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
