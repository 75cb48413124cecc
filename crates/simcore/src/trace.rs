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
//! A trace keeps every span it records until [`Trace::reset`]: the
//! critical path walks the whole causal graph, so no span and no edge
//! into one is ever dropped.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::lock::Mutex;

use crate::time::{SimDuration, SimTime};

/// Identity of a recorded span within one [`Trace`], used as the target of
/// causal edges. `SpanId::NONE` means "no cause recorded".
///
/// Ids are allocated densely in recording order: the `i`-th recorded span
/// (0-based) has id `i + 1`, so the id indexes straight into
/// [`Trace::spans`]. A cause is always recorded before its effect, hence
/// every causal edge points to a strictly smaller id.
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

#[derive(Default)]
pub(crate) struct TraceState {
    level: AtomicU8,
    spans: Mutex<Vec<TraceSpan>>,
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

    fn push(
        &self,
        category: &'static str,
        start: SimTime,
        end: SimTime,
        rank: Option<u32>,
        partition: Option<u32>,
        caused_by: SpanId,
    ) -> SpanId {
        let mut spans = self.state.spans.lock();
        spans.push(TraceSpan { category, start, end, rank, partition, caused_by });
        SpanId::from_index(spans.len() - 1)
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

    /// Every recorded span (clone), in recording order: a causal edge
    /// `e` names `spans[e.index()]`.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.state.spans.lock().clone()
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.state.spans.lock().len()
    }

    /// Clear recorded spans (between measurement phases). Causal edges in
    /// later spans never reference cleared ones: ids restart from 1.
    pub fn reset(&self) {
        self.state.spans.lock().clear();
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
}
