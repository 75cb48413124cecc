//! One-shot and resettable events: the basic wake-up primitive.
//!
//! An [`Event`] starts unset. Processes block on it with `Ctx::wait`;
//! callbacks and other processes fire it with [`Event::set`]. Setting an
//! already-set event is a no-op. Events can be `reset` for reuse across
//! communication epochs (e.g. per-iteration partition-arrival flags); the
//! caller is responsible for making sure no one is still waiting on the old
//! epoch when resetting, which the partitioned runtime guarantees by
//! quiescing in `MPI_Wait` first.

use std::borrow::Cow;
use std::sync::Arc;

use crate::lock::Mutex;

use crate::sched::{ProcessId, SimHandle};
use crate::time::SimTime;

#[derive(Default)]
struct EventState {
    set: bool,
    set_at: Option<SimTime>,
    waiters: Vec<(ProcessId, u64)>,
    /// Optional label surfaced in deadlock diagnostics ("what was this
    /// process waiting on?"). Never affects scheduling.
    label: Option<Label>,
}

/// An event's diagnostic label.
enum Label {
    Text(Cow<'static, str>),
    /// `"{prefix} {n}"`, formatted only when the label is read, so events
    /// created on a hot path name themselves without allocating.
    Numbered(&'static str, u64),
}

impl Label {
    fn render(&self) -> String {
        match self {
            Label::Text(text) => text.to_string(),
            Label::Numbered(prefix, n) => format!("{prefix} {n}"),
        }
    }
}

/// A fireable flag that processes can block on. Cheap to clone (shared).
#[derive(Clone, Default)]
pub struct Event {
    inner: Arc<Mutex<EventState>>,
}

impl Event {
    /// Create a new, unset event.
    pub fn new() -> Self {
        Event::default()
    }

    /// Create a new, unset event carrying a diagnostic label (shown in
    /// [`crate::SimError::Deadlock`] wait-for reports).
    pub fn named(label: impl Into<Cow<'static, str>>) -> Self {
        Event::labelled(Label::Text(label.into()))
    }

    /// Create a new, unset event labelled `"{prefix} {n}"`. The label is
    /// formatted only when read, so creating the event allocates nothing
    /// for it.
    pub fn numbered(prefix: &'static str, n: u64) -> Self {
        Event::labelled(Label::Numbered(prefix, n))
    }

    fn labelled(label: Label) -> Self {
        let state = EventState { label: Some(label), ..EventState::default() };
        Event { inner: Arc::new(Mutex::new(state)) }
    }

    /// Attach or replace the diagnostic label.
    pub fn set_label(&self, label: impl Into<Cow<'static, str>>) {
        self.inner.lock().label = Some(Label::Text(label.into()));
    }

    /// The diagnostic label, if any.
    pub fn label(&self) -> Option<String> {
        self.inner.lock().label.as_ref().map(Label::render)
    }

    /// True if the event has fired (and has not been reset since).
    pub fn is_set(&self) -> bool {
        self.inner.lock().set
    }

    /// The virtual instant at which the event was last set, if any.
    pub fn set_at(&self) -> Option<SimTime> {
        self.inner.lock().set_at
    }

    /// Fire the event at the current virtual time, waking all waiters.
    /// Idempotent.
    pub fn set(&self, h: &SimHandle) {
        let waiters = {
            let mut st = self.inner.lock();
            if st.set {
                return;
            }
            st.set = true;
            st.set_at = Some(h.now());
            std::mem::take(&mut st.waiters)
        };
        for (pid, epoch) in waiters {
            h.wake(pid, epoch);
        }
    }

    /// Clear the event for reuse. Any registered waiters are dropped; the
    /// caller must guarantee none exist (see type-level docs).
    pub fn reset(&self) {
        let mut st = self.inner.lock();
        debug_assert!(
            st.waiters.is_empty(),
            "Event::reset with waiters still registered"
        );
        st.set = false;
        st.set_at = None;
        st.waiters.clear();
    }

    /// Register a waiter. Returns `false` if the event is already set (the
    /// caller must then self-wake).
    pub(crate) fn register_waiter(&self, pid: ProcessId, epoch: u64) -> bool {
        let mut st = self.inner.lock();
        if st.set {
            return false;
        }
        st.waiters.push((pid, epoch));
        true
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("Event")
            .field("set", &st.set)
            .field("waiters", &st.waiters.len())
            .finish()
    }
}

/// A monotonically increasing counter processes can wait on: fires waiters
/// whenever the count reaches their threshold. Used for partition-arrival
/// accounting ("wake me when `n` partitions have arrived").
#[derive(Clone, Default)]
pub struct CountEvent {
    inner: Arc<Mutex<CountState>>,
}

#[derive(Default)]
struct CountState {
    count: u64,
    /// (threshold, pid, epoch)
    waiters: Vec<(u64, ProcessId, u64)>,
    /// Optional label surfaced in deadlock diagnostics.
    label: Option<Cow<'static, str>>,
}

impl CountEvent {
    /// New counter starting at zero.
    pub fn new() -> Self {
        CountEvent::default()
    }

    /// New counter carrying a diagnostic label (shown in
    /// [`crate::SimError::Deadlock`] wait-for reports).
    pub fn named(label: impl Into<Cow<'static, str>>) -> Self {
        let ev = CountEvent::default();
        ev.inner.lock().label = Some(label.into());
        ev
    }

    /// Attach or replace the diagnostic label.
    pub fn set_label(&self, label: impl Into<Cow<'static, str>>) {
        self.inner.lock().label = Some(label.into());
    }

    /// The diagnostic label, if any.
    pub fn label(&self) -> Option<String> {
        self.inner.lock().label.as_deref().map(str::to_owned)
    }

    /// Current count.
    pub fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Increment by `n`, waking any waiter whose threshold is now met.
    pub fn add(&self, h: &SimHandle, n: u64) {
        let woken = {
            let mut st = self.inner.lock();
            st.count += n;
            let count = st.count;
            // `Vec::new` allocates only once a waiter is actually woken.
            let mut ready = Vec::new();
            st.waiters.retain(|&(t, pid, epoch)| {
                let met = t <= count;
                if met {
                    ready.push((pid, epoch));
                }
                !met
            });
            ready
        };
        for (pid, epoch) in woken {
            h.wake(pid, epoch);
        }
    }

    /// Reset the count to zero (between communication epochs).
    pub fn reset(&self) {
        let mut st = self.inner.lock();
        debug_assert!(st.waiters.is_empty(), "CountEvent::reset with waiters");
        st.count = 0;
    }

    /// Returns `false` if the threshold is already met (caller self-wakes).
    pub(crate) fn register_waiter(&self, threshold: u64, pid: ProcessId, epoch: u64) -> bool {
        let mut st = self.inner.lock();
        if st.count >= threshold {
            return false;
        }
        st.waiters.push((threshold, pid, epoch));
        true
    }
}

impl std::fmt::Debug for CountEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("CountEvent")
            .field("count", &st.count)
            .field("waiters", &st.waiters.len())
            .finish()
    }
}

