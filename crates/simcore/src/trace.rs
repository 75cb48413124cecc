//! Structured span tracing over virtual time — the recording backbone of
//! the `parcomm-obs` observability subsystem.
//!
//! Model layers record named spans (`kernel`, `stream_sync`, `wire`, …)
//! against the virtual clock. Spans optionally carry **attribution** (the
//! MPI rank and partition they belong to) and a **causal edge**: the
//! [`SpanId`] of the span that caused them, recorded at each handoff of the
//! GPU-initiated pipeline (device flag-write → progression-engine poll →
//! `ucp_put_nbx` → wire serialization → completion). Analysis code in
//! `parcomm-obs` aggregates the stream into occupancy tables, Chrome
//! `trace_event` timelines, flamegraphs, and critical paths.
//!
//! Recording is **level-gated** so observability never perturbs a run:
//!
//! - level 0 (default): every `record*` call is a no-op;
//! - level 1 ([`Trace::enable`]): the pre-existing base categories record —
//!   exactly the span stream the frozen digest regressions were taken over;
//! - level 2 ([`Trace::enable_causal`]): additionally records the causal
//!   handoff spans ([`Trace::record_causal`]) that only exist for analysis.
//!
//! Span *digests* (see `parcomm-testkit`) hash only `(category, start,
//! end)`, so the attribution fields are digest-neutral at every level, and
//! the level-1 stream is byte-identical whether or not the new fields are
//! populated. Recording never touches the virtual clock or the scheduler,
//! so enabling any level changes neither end times nor event counts.
//!
//! ## Bounding trace memory
//!
//! A **bounded ring-buffer sink** ([`Trace::set_capacity`]) keeps a
//! long run's memory flat: once full, the oldest spans are evicted, and
//! [`Trace::spans`] remaps surviving causal edges and drops edges into
//! the evicted prefix. An optional **eviction sink**
//! ([`Trace::set_evict_sink`]) streams evicted spans out at eviction time
//! instead of discarding them, so bounded memory no longer means lost
//! history. Both only decide what is *retained*, never what the model
//! does, so they are digest-neutral toward the simulation itself.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use std::collections::VecDeque;

use crate::lock::Mutex;

use crate::time::{SimDuration, SimTime};

/// Identity of a recorded span within one [`Trace`], used as the target of
/// causal edges. `SpanId::NONE` means "no cause recorded".
///
/// Ids are allocated densely in recording order: the `i`-th recorded span
/// (0-based) has id `i + 1`, so — until the ring-buffer sink evicts — the
/// id indexes straight into [`Trace::spans`]. After evictions,
/// [`Trace::spans`] re-bases surviving edges onto the returned slice. A
/// cause is always recorded before its effect, hence every causal edge
/// points to a strictly smaller id.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span id (no causal edge).
    pub const NONE: SpanId = SpanId(0);

    /// True when this id names no span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Index of the span in the recording order, or `None` for
    /// [`SpanId::NONE`].
    pub fn index(self) -> Option<usize> {
        self.0.checked_sub(1).map(|i| i as usize)
    }

    /// Id of the span at `index` in a span stream.
    pub fn from_index(index: usize) -> SpanId {
        SpanId(index as u64 + 1)
    }

    /// Raw id value (0 = none; otherwise index + 1).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Category label (static so recording never allocates for the name).
    pub category: &'static str,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
    /// MPI rank the span belongs to, when the recording site knows it.
    pub rank: Option<u32>,
    /// Transport/user partition the span serves, when meaningful.
    pub partition: Option<u32>,
    /// The span that caused this one ([`SpanId::NONE`] when unrecorded).
    pub caused_by: SpanId,
}

impl TraceSpan {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

const LEVEL_OFF: u8 = 0;
const LEVEL_SPANS: u8 = 1;
const LEVEL_CAUSAL: u8 = 2;

/// Retained spans plus ring-buffer accounting. Ids handed to recorders are
/// *global* (index into the full recording order); the `evicted` prefix
/// length re-bases them onto the retained window.
#[derive(Default)]
struct SpanStore {
    spans: VecDeque<TraceSpan>,
    /// Spans evicted from the front of the ring so far.
    evicted: u64,
    /// Retained-span cap; 0 = unbounded.
    capacity: usize,
}

/// Callback invoked with each span the ring buffer evicts, in eviction
/// order. See [`Trace::set_evict_sink`].
pub type EvictSink = Arc<dyn Fn(&TraceSpan) + Send + Sync>;

#[derive(Default)]
pub(crate) struct TraceState {
    level: AtomicU8,
    store: Mutex<SpanStore>,
    evict_sink: Mutex<Option<EvictSink>>,
}

/// Shared handle to a simulation's trace buffer.
#[derive(Clone, Default)]
pub struct Trace {
    pub(crate) state: Arc<TraceState>,
}

impl Trace {
    /// Turn base-span recording on (level 1). Never downgrades a trace
    /// already at causal level.
    pub fn enable(&self) {
        self.state.level.fetch_max(LEVEL_SPANS, Ordering::AcqRel);
    }

    /// Turn full causal recording on (level 2): base spans plus the
    /// handoff spans recorded via [`Trace::record_causal`].
    pub fn enable_causal(&self) {
        self.state.level.fetch_max(LEVEL_CAUSAL, Ordering::AcqRel);
    }

    /// True when spans are being recorded (any level).
    pub fn is_enabled(&self) -> bool {
        self.state.level.load(Ordering::Acquire) > LEVEL_OFF
    }

    /// True when causal handoff spans are being recorded (level 2).
    pub fn causal_enabled(&self) -> bool {
        self.state.level.load(Ordering::Acquire) >= LEVEL_CAUSAL
    }

    /// Bound the retained span window to `cap` spans (`None` = unbounded,
    /// the default). Once full, recording evicts the oldest span; see
    /// [`Trace::spans`] for how causal edges are re-based.
    pub fn set_capacity(&self, cap: Option<usize>) {
        let mut dropped: Vec<TraceSpan> = Vec::new();
        {
            let mut store = self.state.store.lock();
            store.capacity = cap.unwrap_or(0);
            if store.capacity > 0 {
                while store.spans.len() > store.capacity {
                    if let Some(s) = store.spans.pop_front() {
                        dropped.push(s);
                    }
                    store.evicted += 1;
                }
            }
        }
        self.drain_to_sink(&dropped);
    }

    /// Stream spans the ring buffer evicts into `sink`, in eviction order,
    /// instead of discarding them — long chaos campaigns keep a bounded
    /// in-memory window while spilling the full history (e.g. to a JSONL
    /// file via `parcomm-obs`). The sink runs *after* the span store's
    /// lock is released, so it may call back into this trace; it is a pure
    /// retention decision and never perturbs the simulation or its digest.
    /// [`Trace::reset`] discards deliberately and does not sink. `None`
    /// detaches.
    pub fn set_evict_sink(&self, sink: Option<EvictSink>) {
        *self.state.evict_sink.lock() = sink;
    }

    fn drain_to_sink(&self, dropped: &[TraceSpan]) {
        if dropped.is_empty() {
            return;
        }
        let sink = self.state.evict_sink.lock().clone();
        if let Some(sink) = sink {
            for span in dropped {
                sink(span);
            }
        }
    }

    /// The retained-span cap, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        let cap = self.state.store.lock().capacity;
        (cap > 0).then_some(cap)
    }

    /// Spans evicted by the ring buffer so far.
    pub fn evicted(&self) -> u64 {
        self.state.store.lock().evicted
    }

    /// Total spans ever recorded (retained + evicted).
    pub fn recorded(&self) -> u64 {
        let store = self.state.store.lock();
        store.evicted + store.spans.len() as u64
    }

    fn push(
        &self,
        category: &'static str,
        start: SimTime,
        end: SimTime,
        rank: Option<u32>,
        partition: Option<u32>,
        caused_by: SpanId,
    ) -> SpanId {
        let mut evicted_span: Option<TraceSpan> = None;
        let mut store = self.state.store.lock();
        let id = SpanId::from_index(store.evicted as usize + store.spans.len());
        store.spans.push_back(TraceSpan { category, start, end, rank, partition, caused_by });
        if store.capacity > 0 && store.spans.len() > store.capacity {
            evicted_span = store.spans.pop_front();
            store.evicted += 1;
        }
        drop(store);
        if let Some(s) = evicted_span {
            self.drain_to_sink(std::slice::from_ref(&s));
        }
        id
    }

    /// Record an unattributed span (no-op unless enabled). Returns the new
    /// span's id, or [`SpanId::NONE`] when recording is off.
    pub fn record(&self, category: &'static str, start: SimTime, end: SimTime) -> SpanId {
        if self.is_enabled() {
            self.push(category, start, end, None, None, SpanId::NONE)
        } else {
            SpanId::NONE
        }
    }

    /// Record an attributed span (no-op unless enabled). Attribution fields
    /// are digest-neutral: span digests hash only `(category, start, end)`.
    pub fn record_attr(
        &self,
        category: &'static str,
        start: SimTime,
        end: SimTime,
        rank: Option<u32>,
        partition: Option<u32>,
        caused_by: SpanId,
    ) -> SpanId {
        if self.is_enabled() {
            self.push(category, start, end, rank, partition, caused_by)
        } else {
            SpanId::NONE
        }
    }

    /// Record a causal handoff span — only at causal level (2), so the
    /// level-1 span stream stays byte-identical to the pre-causal baseline
    /// and frozen digests hold. Returns [`SpanId::NONE`] below level 2.
    pub fn record_causal(
        &self,
        category: &'static str,
        start: SimTime,
        end: SimTime,
        rank: Option<u32>,
        partition: Option<u32>,
        caused_by: SpanId,
    ) -> SpanId {
        if self.causal_enabled() {
            self.push(category, start, end, rank, partition, caused_by)
        } else {
            SpanId::NONE
        }
    }

    /// All retained spans (clone), with causal edges re-based onto the
    /// returned slice: an edge to an evicted span becomes
    /// [`SpanId::NONE`]; surviving edges satisfy
    /// `spans[e.index()]` being the cause. Without evictions this is the
    /// identity mapping, byte-identical to the pre-ring behavior.
    pub fn spans(&self) -> Vec<TraceSpan> {
        let store = self.state.store.lock();
        let evicted = store.evicted as usize;
        store
            .spans
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.caused_by = match s.caused_by.index() {
                    Some(i) if i >= evicted => SpanId::from_index(i - evicted),
                    _ => SpanId::NONE,
                };
                s
            })
            .collect()
    }

    /// Number of spans currently retained.
    pub fn span_count(&self) -> usize {
        self.state.store.lock().spans.len()
    }

    /// Clear recorded spans (between measurement phases). Causal edges in
    /// later spans never reference cleared ones: ids restart from 1, and
    /// eviction accounting restarts with them.
    pub fn reset(&self) {
        let mut store = self.state.store.lock();
        store.spans.clear();
        store.evicted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let tr = Trace::default();
        assert_eq!(tr.record("kernel", t(0), t(5)), SpanId::NONE);
        assert_eq!(tr.record_causal("put", t(0), t(0), None, None, SpanId::NONE), SpanId::NONE);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn level_one_skips_causal_spans() {
        let tr = Trace::default();
        tr.enable();
        let k = tr.record("kernel", t(0), t(5));
        assert_eq!(k, SpanId::from_index(0));
        assert_eq!(tr.record_causal("put", t(5), t(5), None, None, k), SpanId::NONE);
        assert_eq!(tr.span_count(), 1);
        // enable() after enable_causal() must not downgrade.
        tr.enable_causal();
        tr.enable();
        assert!(tr.causal_enabled());
    }

    #[test]
    fn causal_level_links_spans() {
        let tr = Trace::default();
        tr.enable_causal();
        let flag = tr.record_causal("pready_flag", t(1), t(1), Some(0), Some(2), SpanId::NONE);
        let pe = tr.record_causal("pe_post", t(2), t(3), Some(0), Some(2), flag);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].caused_by, flag);
        assert_eq!(pe.index(), Some(1));
        assert!(spans[flag.index().unwrap()].start <= spans[pe.index().unwrap()].start);
        tr.reset();
        assert_eq!(tr.span_count(), 0);
    }

    #[test]
    fn span_ids_are_dense_and_ordered() {
        let tr = Trace::default();
        tr.enable();
        let a = tr.record("a", t(0), t(1));
        let b = tr.record("b", t(1), t(2));
        assert!(a < b);
        assert_eq!(a.as_u64(), 1);
        assert_eq!(b.index(), Some(1));
        assert!(SpanId::NONE.is_none());
        assert_eq!(SpanId::NONE.index(), None);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_rebases_edges() {
        let tr = Trace::default();
        tr.enable();
        tr.set_capacity(Some(3));
        let a = tr.record("a", t(0), t(1));
        let b = tr.record_attr("b", t(1), t(2), None, None, a);
        let _c = tr.record_attr("c", t(2), t(3), None, None, b);
        assert_eq!(tr.span_count(), 3);
        assert_eq!(tr.evicted(), 0);
        // Fourth span evicts "a".
        let _d = tr.record_attr("d", t(3), t(4), None, None, b);
        assert_eq!(tr.span_count(), 3);
        assert_eq!(tr.evicted(), 1);
        assert_eq!(tr.recorded(), 4);
        let spans = tr.spans();
        assert_eq!(spans[0].category, "b");
        // b's edge pointed at evicted "a": dropped.
        assert_eq!(spans[0].caused_by, SpanId::NONE);
        // c and d pointed at "b", now slice index 0.
        assert_eq!(spans[1].caused_by, SpanId::from_index(0));
        assert_eq!(spans[2].caused_by, SpanId::from_index(0));
        // Shrinking the cap evicts immediately.
        tr.set_capacity(Some(1));
        assert_eq!(tr.span_count(), 1);
        assert_eq!(tr.spans()[0].category, "d");
        tr.reset();
        assert_eq!(tr.evicted(), 0);
        assert_eq!(tr.recorded(), 0);
    }

    #[test]
    fn evict_sink_receives_exactly_the_evicted_prefix_in_order() {
        let tr = Trace::default();
        tr.enable();
        tr.set_capacity(Some(2));
        let sunk = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&sunk);
        tr.set_evict_sink(Some(Arc::new(move |s: &TraceSpan| {
            tap.lock().push(s.category);
        })));
        for name in ["a", "b", "c", "d", "e"] {
            // Leak is fine in tests; categories are &'static str.
            tr.record(Box::leak(name.to_string().into_boxed_str()), t(0), t(1));
        }
        // Retained window is the last 2; everything before streamed out.
        assert_eq!(tr.span_count(), 2);
        assert_eq!(*sunk.lock(), vec!["a", "b", "c"]);
        // Shrinking the cap sinks the extra evictions too.
        tr.set_capacity(Some(1));
        assert_eq!(*sunk.lock(), vec!["a", "b", "c", "d"]);
        // Retained + sunk == recorded: no span is lost.
        assert_eq!(sunk.lock().len() as u64 + tr.span_count() as u64, tr.recorded());
        // reset() discards deliberately: nothing new is sunk.
        tr.reset();
        assert_eq!(sunk.lock().len(), 4);
        // Detaching stops the stream.
        tr.set_capacity(Some(1));
        tr.set_evict_sink(None);
        tr.record("x", t(0), t(1));
        tr.record("y", t(0), t(1));
        assert_eq!(sunk.lock().len(), 4);
    }
}
