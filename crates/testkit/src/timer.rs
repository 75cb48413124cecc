//! Wall-clock micro-benchmark timer (criterion replacement).
//!
//! The bench harness binaries (`crates/bench/benches/*`) measure how fast
//! the *simulator itself* runs on the host — wall-clock time, not virtual
//! time. This module provides the minimal pieces: warmup, repeated samples,
//! robust summary statistics, and an aligned report line.

use std::time::{Duration, Instant};

/// Summary of one benchmark's samples.
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Benchmark label.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample (robust central tendency for noisy hosts).
    pub median: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl BenchStats {
    /// One aligned report line, e.g.
    /// `bench engine/callbacks_10k            median 12.3ms  (min 11.9ms, max 14.0ms, 10 samples)`.
    pub fn report_line(&self) -> String {
        format!(
            "bench {:<44} median {:>10}  (min {}, max {}, {} samples)",
            self.name,
            fmt_dur(self.median),
            fmt_dur(self.min),
            fmt_dur(self.max),
            self.samples
        )
    }
}

/// Configuration for [`bench()`].
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Untimed warmup iterations before sampling.
    pub warmup: usize,
    /// Timed samples.
    pub samples: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { warmup: 2, samples: 10 }
    }
}

impl BenchConfig {
    /// Reduced configuration for CI smoke runs (the caller picks it on
    /// `--quick`).
    pub fn quick() -> Self {
        BenchConfig { warmup: 1, samples: 3 }
    }
}

/// Time `f` under `cfg`, print the report line to stdout, return the stats.
///
/// `f` is an entire unit of work per sample; sink its output through
/// [`std::hint::black_box`] if the optimizer might delete it.
pub fn bench<F: FnMut()>(cfg: &BenchConfig, name: &str, mut f: F) -> BenchStats {
    for _ in 0..cfg.warmup {
        f();
    }
    let mut samples: Vec<Duration> = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples.max(1) {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    let stats = summarize(name, &mut samples);
    println!("{}", stats.report_line());
    stats
}

fn summarize(name: &str, samples: &mut [Duration]) -> BenchStats {
    samples.sort_unstable();
    let n = samples.len();
    let total: Duration = samples.iter().sum();
    BenchStats {
        name: name.to_string(),
        samples: n,
        min: samples[0],
        median: samples[n / 2],
        mean: total / n as u32,
        max: samples[n - 1],
    }
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_expected_iteration_count() {
        let mut calls = 0u32;
        let cfg = BenchConfig { warmup: 2, samples: 5 };
        let stats = bench(&cfg, "unit/counting", || calls += 1);
        assert_eq!(calls, 7); // 2 warmup + 5 timed
        assert_eq!(stats.samples, 5);
        assert!(stats.min <= stats.median && stats.median <= stats.max);
    }

    #[test]
    fn report_line_contains_name_and_unit() {
        let cfg = BenchConfig { warmup: 0, samples: 1 };
        let stats = bench(&cfg, "unit/spin", || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let line = stats.report_line();
        assert!(line.contains("unit/spin"), "{line}");
        assert!(line.contains("median"), "{line}");
    }
}
