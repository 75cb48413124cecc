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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::lock::Mutex;

use crate::sched::{ProcessId, SimHandle};
use crate::time::SimTime;

#[derive(Default)]
struct EventState {
    set: bool,
    set_at: Option<SimTime>,
    waiters: Waiters<(ProcessId, u64)>,
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
    /// `"join '{process}'"`: a process's `done` event, named from the
    /// process's own name when the label is read.
    Join(Arc<str>),
}

impl Label {
    fn render(&self) -> String {
        match self {
            Label::Text(text) => text.to_string(),
            Label::Numbered(prefix, n) => format!("{prefix} {n}"),
            Label::Join(process) => format!("join '{process}'"),
        }
    }
}

/// The processes parked on an event, in registration order. The first
/// waiter is kept inline and only later ones go to the heap: most events
/// (a partition's arrival counter, a kernel's completion) have at most one
/// waiter at a time, so parking on them allocates nothing.
struct Waiters<W> {
    /// The earliest registered waiter; `None` only while `rest` is empty
    /// too, so registration order is `first`, then `rest` in order.
    first: Option<W>,
    rest: Vec<W>,
}

impl<W> Default for Waiters<W> {
    fn default() -> Self {
        Waiters { first: None, rest: Vec::new() }
    }
}

impl<W: Copy> Waiters<W> {
    fn push(&mut self, w: W) {
        if self.first.is_none() {
            self.first = Some(w);
        } else {
            self.rest.push(w);
        }
    }

    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn clear(&mut self) {
        self.first = None;
        self.rest.clear();
    }

    /// Remove every waiter; registration order is the inline one, then the
    /// `Vec`.
    fn take(&mut self) -> (Option<W>, Vec<W>) {
        (self.first.take(), std::mem::take(&mut self.rest))
    }

    /// Remove the waiters `met` accepts, keeping the others in order.
    /// Returns the removed ones in registration order: the earliest inline,
    /// the later ones in a `Vec` that allocates only when two or more are
    /// removed.
    fn remove_where(&mut self, mut met: impl FnMut(&W) -> bool) -> (Option<W>, Vec<W>) {
        let mut head = self.first.filter(&mut met);
        if head.is_some() {
            self.first = None;
        }
        let mut more = Vec::new();
        self.rest.retain(|w| {
            if !met(w) {
                return true;
            }
            match head {
                None => head = Some(*w),
                Some(_) => more.push(*w),
            }
            false
        });
        if self.first.is_none() && !self.rest.is_empty() {
            self.first = Some(self.rest.remove(0));
        }
        (head, more)
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

    /// Create a new, unset event labelled `"join '{process}'"`, formatted
    /// only when read: the `done` event of the process named `process`.
    pub(crate) fn joining(process: Arc<str>) -> Self {
        Event::labelled(Label::Join(process))
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
        let (head, more) = {
            let mut st = self.inner.lock();
            if st.set {
                return;
            }
            st.set = true;
            st.set_at = Some(h.now());
            st.waiters.take()
        };
        for (pid, epoch) in head.into_iter().chain(more) {
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
    inner: Arc<CountInner>,
}

#[derive(Default)]
struct CountInner {
    /// A copy of `state.count`, stored under the lock by every write, so
    /// reading the count takes no lock.
    count: AtomicU64,
    state: Mutex<CountState>,
}

#[derive(Default)]
struct CountState {
    count: u64,
    /// (threshold, pid, epoch)
    waiters: Waiters<(u64, ProcessId, u64)>,
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
        let state = CountState { label: Some(label.into()), ..CountState::default() };
        let inner = CountInner { count: AtomicU64::new(0), state: Mutex::new(state) };
        CountEvent { inner: Arc::new(inner) }
    }

    /// Attach or replace the diagnostic label.
    pub fn set_label(&self, label: impl Into<Cow<'static, str>>) {
        self.inner.state.lock().label = Some(label.into());
    }

    /// The diagnostic label, if any.
    pub fn label(&self) -> Option<String> {
        self.inner.state.lock().label.as_deref().map(str::to_owned)
    }

    /// Current count. Takes no lock.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Acquire)
    }

    /// Increment by `n`, waking any waiter whose threshold is now met.
    pub fn add(&self, h: &SimHandle, n: u64) {
        let (head, more) = {
            let mut st = self.inner.state.lock();
            st.count += n;
            let count = st.count;
            self.inner.count.store(count, Ordering::Release);
            st.waiters.remove_where(|&(t, _, _)| t <= count)
        };
        for (_, pid, epoch) in head.into_iter().chain(more) {
            h.wake(pid, epoch);
        }
    }

    /// Reset the count to zero (between communication epochs).
    pub fn reset(&self) {
        let mut st = self.inner.state.lock();
        debug_assert!(st.waiters.is_empty(), "CountEvent::reset with waiters");
        st.count = 0;
        self.inner.count.store(0, Ordering::Release);
    }

    /// Returns `false` if the threshold is already met (caller self-wakes).
    pub(crate) fn register_waiter(&self, threshold: u64, pid: ProcessId, epoch: u64) -> bool {
        let mut st = self.inner.state.lock();
        if st.count >= threshold {
            return false;
        }
        st.waiters.push((threshold, pid, epoch));
        true
    }
}

impl std::fmt::Debug for CountEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("CountEvent")
            .field("count", &st.count)
            .field("waiters", &st.waiters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::Waiters;

    #[test]
    fn clear_empties_the_inline_slot() {
        let mut w = Waiters::default();
        w.push(1u32);
        w.push(2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        // The next waiter is held inline again, ahead of later ones.
        w.push(3);
        w.push(4);
        assert_eq!(w.take(), (Some(3), vec![4]));
    }

    #[test]
    fn removing_the_inline_waiter_promotes_the_next() {
        let mut w = Waiters::default();
        for i in 0..4u32 {
            w.push(i);
        }
        assert_eq!(w.remove_where(|&i| i % 2 == 0), (Some(0), vec![2]));
        assert_eq!(w.len(), 2);
        w.push(9);
        assert_eq!(w.take(), (Some(1), vec![3, 9]));
    }
}
