//! First-party hermetic metrics: counters, gauges, log2-bucket histograms.
//!
//! A [`MetricsRegistry`] hands out cheap cloneable instruments backed by
//! atomics. Every layer takes a registry when it is built and counts from
//! then on: an `MpiWorld` creates one and hands it to its fabric, UCX
//! universe, symmetric heap and GPUs; a layer built on its own gets a fresh
//! one. A layer builds its instruments from one [`MetricsRegistry::block`],
//! so they share one allocation of atomic cells. A counted event costs one
//! to three relaxed atomic adds and no lock. Instrument updates never touch
//! the virtual clock, so counting cannot perturb timing, event counts or
//! trace digests.
//!
//! [`MetricsRegistry::snapshot`] freezes every instrument into a
//! [`MetricsSnapshot`] that renders to the same hand-rolled JSON style the
//! bench reporter uses (the workspace builds with zero external
//! dependencies, so no `serde`).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `u64::MAX`.
const HIST_BUCKETS: usize = 65;

/// Cells of one histogram: its count, its sum, then its buckets.
const HIST_CELLS: usize = 2 + HIST_BUCKETS;

/// The atomic cells behind instruments built together: one allocation,
/// shared by every instrument in it. An instrument is an index into it.
type Cells = Arc<[AtomicU64]>;

fn cells(n: usize) -> Cells {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter {
    cells: Cells,
    at: usize,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cells[self.at].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cells[self.at].load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (f64, stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge {
    cells: Cells,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.cells[0].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cells[0].load(Ordering::Relaxed))
    }
}

/// A log2-bucket histogram of `u64` observations (bytes, iterations, µs).
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`.
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Cells,
    at: usize,
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    fn buckets(&self) -> &[AtomicU64] {
        &self.cells[self.at + 2..self.at + HIST_CELLS]
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.cells[self.at].fetch_add(1, Ordering::Relaxed);
        self.cells[self.at + 1].fetch_add(v, Ordering::Relaxed);
        self.buckets()[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.cells[self.at].load(Ordering::Relaxed)
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> u64 {
        self.cells[self.at + 1].load(Ordering::Relaxed)
    }

    /// Approximate quantile `q` (in `[0, 1]`) of the recorded observations:
    /// the *upper bound* of the first log2 bucket whose cumulative count
    /// reaches `ceil(q · count)`. Conservative by construction (never
    /// under-reports); resolution is the bucket width, i.e. within 2× of
    /// the true quantile. Returns 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets().iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                // Bucket 0 is exact zeros; bucket i ≥ 1 covers [2^(i-1), 2^i).
                return if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
            }
        }
        u64::MAX
    }
}

/// A registry entry: an instrument and its name.
type Entry = (Cow<'static, str>, Instrument);

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn pick_counter(i: &Instrument) -> Option<&Counter> {
    match i {
        Instrument::Counter(c) => Some(c),
        _ => None,
    }
}

fn pick_histogram(i: &Instrument) -> Option<&Histogram> {
    match i {
        Instrument::Histogram(h) => Some(h),
        _ => None,
    }
}

/// Registry of named instruments. Cheap to clone; clones share state.
/// Instrument lookups are idempotent: asking for the same name and kind
/// twice returns handles to the same underlying value. A name is a static
/// string or an owned `String`, kept without a copy.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get the instrument `name` that `pick` accepts, or create it with
    /// `make`.
    fn instrument<T: Clone>(
        &self,
        name: Cow<'static, str>,
        pick: fn(&Instrument) -> Option<&T>,
        make: impl FnOnce() -> T,
        wrap: fn(T) -> Instrument,
    ) -> T {
        let mut es = self.entries.lock();
        let found = es.iter().find_map(|(n, i)| if *n == name { pick(i) } else { None });
        if let Some(found) = found {
            return found.clone();
        }
        let made = make();
        es.push((name, wrap(made.clone())));
        made
    }

    /// Room for one layer's `counters` counters and `histograms`
    /// histograms, all in one allocation: build each of them with
    /// [`InstrumentBlock::counter`] and [`InstrumentBlock::histogram`].
    pub fn block(&self, counters: usize, histograms: usize) -> InstrumentBlock<'_> {
        self.entries.lock().reserve(counters + histograms);
        let cells = cells(counters + histograms * HIST_CELLS);
        InstrumentBlock { registry: self, cells, next: 0 }
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: impl Into<Cow<'static, str>>) -> Counter {
        let make = || Counter { cells: cells(1), at: 0 };
        self.instrument(name.into(), pick_counter, make, Instrument::Counter)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>) -> Gauge {
        self.instrument(
            name.into(),
            |i| match i {
                Instrument::Gauge(g) => Some(g),
                _ => None,
            },
            || Gauge { cells: cells(1) },
            Instrument::Gauge,
        )
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>) -> Histogram {
        self.instrument(
            name.into(),
            pick_histogram,
            || Histogram { cells: cells(HIST_CELLS), at: 0 },
            Instrument::Histogram,
        )
    }

    /// Freeze every instrument into a snapshot, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, MetricValue)> = self
            .entries
            .lock()
            .iter()
            .map(|(n, i)| {
                let v = match i {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => {
                        let buckets = h
                            .buckets()
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let c = b.load(Ordering::Relaxed);
                                (c > 0).then(|| {
                                    let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                                    (lo, c)
                                })
                            })
                            .collect();
                        MetricValue::Histogram { count: h.count(), sum: h.sum(), buckets }
                    }
                };
                (n.to_string(), v)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }
}

/// One layer's instruments, built over one allocation of atomic cells (see
/// [`MetricsRegistry::block`]). A name the registry already holds resolves
/// to the existing instrument, as a plain lookup does.
pub struct InstrumentBlock<'r> {
    registry: &'r MetricsRegistry,
    cells: Cells,
    next: usize,
}

impl InstrumentBlock<'_> {
    /// The index of `n` fresh cells.
    fn claim(cells: &Cells, next: &mut usize, n: usize) -> usize {
        let at = *next;
        *next += n;
        assert!(*next <= cells.len(), "more instruments built than the block holds");
        at
    }

    /// Get the counter `name`, or create it in this block.
    pub fn counter(&mut self, name: impl Into<Cow<'static, str>>) -> Counter {
        let (cells, next) = (&self.cells, &mut self.next);
        let make = || Counter { cells: cells.clone(), at: Self::claim(cells, next, 1) };
        self.registry.instrument(name.into(), pick_counter, make, Instrument::Counter)
    }

    /// Get the histogram `name`, or create it in this block.
    pub fn histogram(&mut self, name: impl Into<Cow<'static, str>>) -> Histogram {
        let (cells, next) = (&self.cells, &mut self.next);
        let make = || Histogram { cells: cells.clone(), at: Self::claim(cells, next, HIST_CELLS) };
        self.registry.instrument(name.into(), pick_histogram, make, Instrument::Histogram)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("instruments", &self.entries.lock().len())
            .finish()
    }
}

/// A frozen instrument value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram: observation count, sum, and non-empty `(bucket_lo,
    /// count)` pairs in ascending bucket order.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Non-empty buckets as `(lower_bound, count)`.
        buckets: Vec<(u64, u64)>,
    },
}

/// A point-in-time copy of every instrument, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Value of the counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Serialize to pretty-printed JSON (hand-rolled, no `serde`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("  {}: ", crate::json::quote(name)));
            match v {
                MetricValue::Counter(c) => out.push_str(&c.to_string()),
                MetricValue::Gauge(g) => out.push_str(&crate::json::number(*g)),
                MetricValue::Histogram { count, sum, buckets } => {
                    out.push_str(&format!(
                        "{{\"count\": {count}, \"sum\": {sum}, \"buckets\": ["
                    ));
                    for (j, (lo, c)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("[{lo}, {c}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pe.polls");
        c.add(3);
        reg.counter("pe.polls").inc(); // same instrument by name
        assert_eq!(c.get(), 4);
        let g = reg.gauge("net.util");
        g.set(0.5);
        assert_eq!(reg.gauge("net.util").get(), 0.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pe.polls"), Some(4));
    }

    #[test]
    fn a_block_shares_one_allocation_and_resolves_known_names() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(5);
        let mut block = reg.block(2, 1);
        let a = block.counter("a");
        let b = block.counter("b");
        let h = block.histogram("h");
        a.inc();
        b.add(2);
        h.record(3);
        assert_eq!(reg.counter("a").get(), 6, "a known name resolves to its instrument");
        assert_eq!(reg.counter("b").get(), 2);
        assert_eq!(reg.histogram("h").count(), 1);
        assert!(Arc::ptr_eq(&b.cells, &h.cells), "one allocation per block");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("put.bytes");
        for v in [0u64, 1, 2, 3, 1024, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 2 + 3 + 1024 + 1_000_000);
        let snap = reg.snapshot();
        let MetricValue::Histogram { count, buckets, .. } = &snap.entries[0].1 else {
            panic!("expected histogram");
        };
        assert_eq!(*count, 6);
        // 0 → bucket lo 0; 1 → lo 1; 2,3 → lo 2; 1024 → lo 1024;
        // 1_000_000 → lo 2^19.
        assert_eq!(
            buckets,
            &vec![(0u64, 1u64), (1, 1), (2, 2), (1024, 1), (1 << 19, 1)]
        );
    }

    #[test]
    fn histogram_quantile_is_conservative_bucket_bound() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat.us");
        assert_eq!(h.quantile(0.99), 0, "empty histogram");
        for v in [0u64, 1, 2, 3, 100, 100, 100, 100, 100, 4000] {
            h.record(v);
        }
        // p40 target = 4th of 10 sorted obs (3) → bucket [2,4) → bound 3.
        assert_eq!(h.quantile(0.4), 3);
        // p90 target = 9th (100) → bucket [64,128) → bound 127.
        assert_eq!(h.quantile(0.9), 127);
        // p99 target = 10th (4000) → bucket [2048,4096) → bound 4095; never
        // under the true value.
        assert_eq!(h.quantile(0.99), 4095);
        assert!(h.quantile(0.99) >= 4000);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn snapshot_json_is_sorted_and_parseable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.histogram("m.hist").record(7);
        let json = reg.snapshot().to_json();
        let v = crate::json::parse(&json).expect("valid json");
        let obj = v.as_object().expect("object");
        assert_eq!(obj[0].0, "a.first");
        assert_eq!(obj[2].0, "z.last");
        assert_eq!(v.get("a.first").and_then(|x| x.as_f64()), Some(2.0));
    }
}
