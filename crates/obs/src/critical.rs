//! Critical-path analysis over the causal span graph.
//!
//! Walks backward from the last-completing span, following recorded
//! causal edges when present and falling back to the latest-ending
//! predecessor otherwise, to recover the longest dependency chain that
//! produced the final completion. The per-category occupancy along that
//! chain answers the paper's question directly: which layer of the
//! GPU-initiated pipeline bounds end-to-end latency.

use std::collections::BTreeMap;

use parcomm_sim::{SimDuration, SimTime, SpanId, TraceSpan};

/// One hop on the critical path, in chronological order.
#[derive(Clone, Debug)]
pub struct CriticalStep {
    /// Id of the span (1-based, matching the Chrome export's `span` arg).
    pub span: SpanId,
    /// Span category.
    pub category: &'static str,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Rank attribution, if any.
    pub rank: Option<u32>,
    /// Partition attribution, if any.
    pub partition: Option<u32>,
    /// True when the hop to the *next* step followed a recorded causal
    /// edge rather than an inferred (latest-ending predecessor) one.
    pub causal_edge: bool,
}

/// The longest dependency chain ending at the last-completing span.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Steps in chronological order (first cause → final completion).
    pub steps: Vec<CriticalStep>,
}

impl CriticalPath {
    /// Recover the critical path from a span stream.
    ///
    /// Starting at the span with the greatest end time, repeatedly step to
    /// its cause: the recorded `caused_by` span when present, otherwise
    /// the latest-*ending* span that started strictly earlier (work that
    /// was still in flight when the current span began and so plausibly
    /// gated it). A visited set guards against cycles from malformed
    /// input. Spans are indexed by start time, so each step costs
    /// O(log n) rather than a scan of every span.
    pub fn from_spans(spans: &[TraceSpan]) -> Self {
        let Some(mut cur) = (0..spans.len()).max_by_key(|&i| (spans[i].end, i)) else {
            return Self::default();
        };
        let mut unvisited = Unvisited::new(spans);
        let mut rev: Vec<(usize, bool)> = Vec::new(); // (index, arrived via causal edge)
        loop {
            unvisited.remove(cur);
            let s = &spans[cur];
            if let Some(c) = s.caused_by.index().filter(|&c| unvisited.contains(c)) {
                rev.push((cur, true));
                cur = c;
                continue;
            }
            // Inferred predecessor: among spans that started strictly
            // earlier, the latest-ending one (max end prefers work still in
            // flight at this span's start over work that finished before
            // it; ties go to the later-recorded span). Strictness ends the
            // walk at the earliest root instead of hopping between
            // concurrent same-start spans.
            match unvisited.latest_ending_before(s.start) {
                Some(p) => {
                    rev.push((cur, false));
                    cur = p;
                }
                None => {
                    rev.push((cur, false));
                    break;
                }
            }
        }
        let steps = rev
            .into_iter()
            .rev()
            .map(|(i, via_causal)| {
                let s = &spans[i];
                CriticalStep {
                    span: SpanId::from_index(i),
                    category: s.category,
                    start: s.start,
                    end: s.end,
                    rank: s.rank,
                    partition: s.partition,
                    causal_edge: via_causal,
                }
            })
            .collect();
        Self { steps }
    }

    /// Start of the chain (start of its first step).
    pub fn start(&self) -> Option<SimTime> {
        self.steps.first().map(|s| s.start)
    }

    /// End of the chain (end of its last step).
    pub fn end(&self) -> Option<SimTime> {
        self.steps.last().map(|s| s.end)
    }

    /// Fraction of `[from, to]` covered by the chain's extent. The chain
    /// is a dependency explanation of the interval, so its extent — not
    /// summed step durations, which overlap at handoffs — is what must
    /// span the measured window (paper's ≥90% acceptance bar).
    pub fn coverage_of(&self, from: SimTime, to: SimTime) -> f64 {
        let (Some(s), Some(e)) = (self.start(), self.end()) else {
            return 0.0;
        };
        let interval = to.saturating_since(from).as_micros_f64();
        if interval <= 0.0 {
            return 0.0;
        }
        let lo = s.max(from);
        let hi = e.min(to);
        hi.saturating_since(lo).as_micros_f64() / interval
    }

    /// Occupancy along the chain by category: time each category
    /// *advances the horizon*, so overlapping handoff spans are not double
    /// counted and the pieces sum to the chain extent. Time no step
    /// covers is reported under the pseudo-category `"gap"`.
    pub fn occupancy(&self) -> BTreeMap<&'static str, SimDuration> {
        let mut out: BTreeMap<&'static str, SimDuration> = BTreeMap::new();
        let Some(mut horizon) = self.start() else {
            return out;
        };
        for step in &self.steps {
            if step.start > horizon {
                *out.entry("gap").or_default() += step.start.since(horizon);
                horizon = step.start;
            }
            if step.end > horizon {
                *out.entry(step.category).or_default() += step.end.since(horizon);
                horizon = step.end;
            }
        }
        out
    }

    /// Human-readable report: the chain, then per-category occupancy.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.steps.is_empty() {
            out.push_str("critical path: (no spans)\n");
            return out;
        }
        let extent = self
            .end()
            .unwrap_or(SimTime::ZERO)
            .saturating_since(self.start().unwrap_or(SimTime::ZERO));
        out.push_str(&format!(
            "critical path: {} steps spanning {}\n",
            self.steps.len(),
            extent
        ));
        for s in &self.steps {
            let rank = s.rank.map(|r| format!("r{r}")).unwrap_or_else(|| "r?".into());
            let part = s.partition.map(|p| format!(" p{p}")).unwrap_or_default();
            let edge = if s.causal_edge { "=>" } else { "~>" };
            out.push_str(&format!(
                "  {edge} {:<12} [{rank}{part}] {} .. {} ({})\n",
                s.category,
                s.start,
                s.end,
                s.end.saturating_since(s.start)
            ));
        }
        out.push_str("  occupancy along path:\n");
        let occ = self.occupancy();
        let total = extent.as_micros_f64().max(f64::MIN_POSITIVE);
        for (cat, d) in &occ {
            out.push_str(&format!(
                "    {cat:<12} {:>12} ({:.1}%)\n",
                format!("{d}"),
                100.0 * d.as_micros_f64() / total
            ));
        }
        out
    }
}

/// The spans not yet on the path, indexed by start time: the spans sorted
/// by start, with a max segment tree over their `(end, index)` keys in
/// which a visited span's leaf is `None`. "The latest-ending unvisited span
/// that started before `t`" is then a prefix maximum, O(log n), instead of
/// a scan of every span.
struct Unvisited {
    /// Span starts in ascending order.
    starts: Vec<SimTime>,
    /// Each span's position in `starts` (by span index).
    position: Vec<usize>,
    /// With `n` spans, leaves `n..2n` in `starts` order; node `k` holds
    /// the max of nodes `2k` and `2k + 1`.
    tree: Vec<Option<(SimTime, usize)>>,
}

impl Unvisited {
    fn new(spans: &[TraceSpan]) -> Self {
        let n = spans.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (spans[i].start, i));
        let mut position = vec![0; n];
        let mut tree = vec![None; 2 * n];
        for (at, &i) in order.iter().enumerate() {
            position[i] = at;
            tree[n + at] = Some((spans[i].end, i));
        }
        for k in (1..n).rev() {
            tree[k] = tree[2 * k].max(tree[2 * k + 1]);
        }
        let starts = order.iter().map(|&i| spans[i].start).collect();
        Unvisited { starts, position, tree }
    }

    /// True when span `i` exists and is not yet on the path.
    fn contains(&self, i: usize) -> bool {
        i < self.position.len() && self.tree[self.starts.len() + self.position[i]].is_some()
    }

    fn remove(&mut self, i: usize) {
        let mut k = self.starts.len() + self.position[i];
        self.tree[k] = None;
        while k > 1 {
            k /= 2;
            self.tree[k] = self.tree[2 * k].max(self.tree[2 * k + 1]);
        }
    }

    /// Among unvisited spans that started strictly before `t`, the one
    /// with the greatest `(end, index)`.
    fn latest_ending_before(&self, t: SimTime) -> Option<usize> {
        let n = self.starts.len();
        // Leaves `[0, prefix)` are the spans that started before `t`.
        let (mut lo, mut hi) = (n, n + self.starts.partition_point(|&s| s < t));
        let mut best = None;
        while lo < hi {
            if lo % 2 == 1 {
                best = best.max(self.tree[lo]);
                lo += 1;
            }
            if hi % 2 == 1 {
                hi -= 1;
                best = best.max(self.tree[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        best.map(|(_, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm_sim::Trace;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn follows_causal_edges_backward() {
        let tr = Trace::default();
        tr.enable_causal();
        let k = tr.record_attr("kernel", t(0), t(10), Some(0), None, SpanId::NONE);
        let f = tr.record_causal("pready_flag", t(8), t(8), Some(0), Some(0), k);
        let p = tr.record_causal("pe_post", t(9), t(11), Some(0), Some(0), f);
        let put = tr.record_causal("put", t(11), t(11), Some(0), Some(0), p);
        let w = tr.record_attr("wire", t(11), t(20), None, None, put);
        tr.record_causal("put_complete", t(20), t(20), Some(1), Some(0), w);
        // Noise that ends earlier and is not on the chain.
        tr.record("kernel", t(0), t(5));

        let cp = CriticalPath::from_spans(&tr.spans());
        let cats: Vec<_> = cp.steps.iter().map(|s| s.category).collect();
        assert_eq!(
            cats,
            ["kernel", "pready_flag", "pe_post", "put", "wire", "put_complete"]
        );
        assert_eq!(cp.start(), Some(t(0)));
        assert_eq!(cp.end(), Some(t(20)));
        assert!((cp.coverage_of(t(0), t(20)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infers_predecessor_without_causal_edges() {
        let tr = Trace::default();
        tr.enable();
        tr.record("kernel", t(0), t(10));
        tr.record("stream_sync", t(10), t(10)); // instant at kernel end
        tr.record("wire", t(4), t(18)); // overlaps, ends last
        let cp = CriticalPath::from_spans(&tr.spans());
        // Last-ending span is wire; its inferred predecessor is the
        // kernel (started before it, still running at wire start).
        let cats: Vec<_> = cp.steps.iter().map(|s| s.category).collect();
        assert_eq!(cats, ["kernel", "wire"]);
        assert!(!cp.steps[0].causal_edge);
    }

    #[test]
    fn occupancy_accounts_handoffs_and_gaps() {
        let tr = Trace::default();
        tr.enable_causal();
        let a = tr.record_attr("kernel", t(0), t(10), Some(0), None, SpanId::NONE);
        // Effect starts 5 µs after its cause ends: a genuine gap.
        tr.record_causal("pe_post", t(15), t(20), Some(0), Some(0), a);
        let cp = CriticalPath::from_spans(&tr.spans());
        let occ = cp.occupancy();
        assert_eq!(occ["kernel"], SimDuration::from_micros(10));
        assert_eq!(occ["gap"], SimDuration::from_micros(5));
        assert_eq!(occ["pe_post"], SimDuration::from_micros(5));
        let total: SimDuration = occ.values().copied().fold(SimDuration::ZERO, |x, y| x + y);
        assert_eq!(total, SimDuration::from_micros(20)); // sums to extent
        let report = cp.render();
        assert!(report.contains("critical path: 2 steps"));
        assert!(report.contains("gap"));
    }

    /// The unindexed walk: rescans every span for each inferred
    /// predecessor. Kept as the oracle for the indexed one.
    fn naive_steps(spans: &[TraceSpan]) -> Vec<(usize, bool)> {
        let Some(mut cur) = (0..spans.len()).max_by_key(|&i| (spans[i].end, i)) else {
            return Vec::new();
        };
        let mut visited = vec![false; spans.len()];
        let mut rev = Vec::new();
        loop {
            visited[cur] = true;
            let s = &spans[cur];
            if let Some(c) = s.caused_by.index().filter(|&c| c < spans.len() && !visited[c]) {
                rev.push((cur, true));
                cur = c;
                continue;
            }
            rev.push((cur, false));
            let pred = (0..spans.len())
                .filter(|&i| !visited[i] && spans[i].start < s.start)
                .max_by_key(|&i| (spans[i].end, i));
            match pred {
                Some(p) => cur = p,
                None => break,
            }
        }
        rev.reverse();
        rev
    }

    #[test]
    fn indexed_walk_matches_the_naive_scan() {
        let mut rng = parcomm_sim::SimRng::seeded(0xC217);
        for case in 0..300 {
            let n = rng.uniform_range(0, 60) as usize;
            // Few distinct instants, so equal starts and ends are common.
            let horizon = rng.uniform_range(1, 40);
            let causal = rng.uniform_range(0, 3); // 0: none, 1: some, 2: most
            let spans: Vec<TraceSpan> = (0..n)
                .map(|i| {
                    let start = rng.uniform_range(0, horizon);
                    let end = start + rng.uniform_range(0, horizon / 2 + 1);
                    let draw = rng.uniform_range(0, 4);
                    let caused_by = if i > 0 && draw < causal {
                        // Mostly earlier spans; sometimes later ones or out
                        // of range, as malformed input may carry.
                        SpanId::from_index(rng.uniform_range(0, n as u64 + 2) as usize)
                    } else {
                        SpanId::NONE
                    };
                    TraceSpan {
                        category: "x",
                        start: t(start),
                        end: t(end),
                        rank: None,
                        partition: None,
                        caused_by,
                    }
                })
                .collect();
            let got: Vec<(usize, bool)> = CriticalPath::from_spans(&spans)
                .steps
                .iter()
                .map(|s| (s.span.index().expect("a recorded span"), s.causal_edge))
                .collect();
            assert_eq!(got, naive_steps(&spans), "case {case}: {n} spans");
        }
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let cp = CriticalPath::from_spans(&[]);
        assert!(cp.steps.is_empty());
        assert_eq!(cp.coverage_of(SimTime::ZERO, t(10)), 0.0);
        assert!(cp.render().contains("no spans"));
    }
}
