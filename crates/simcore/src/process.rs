//! The process-side API: what simulation code can do.
//!
//! Every simulation process receives a `&mut Ctx`. All blocking operations
//! (`advance`, `wait`, channel receives) go through it; the mutable borrow
//! statically prevents a process from blocking re-entrantly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::event::{CountEvent, Event};
use crate::rng::SimRng;
use crate::sched::{self, ProcessId, SchedCore, SimHandle, SpawnHandle};
use crate::time::{SimDuration, SimTime};

/// Per-process execution context.
///
/// Not `Clone` and not `Send`-shareable: it owns the process's resume flag.
/// To give long-lived model objects access to the simulation, use
/// [`Ctx::handle`].
pub struct Ctx {
    pid: ProcessId,
    core: Arc<SchedCore>,
    /// Set by the thread that passes this process the baton.
    resume: Arc<AtomicBool>,
    handle: SimHandle,
}

impl Ctx {
    pub(crate) fn new(pid: ProcessId, core: Arc<SchedCore>, resume: Arc<AtomicBool>) -> Self {
        let handle = SimHandle { core: core.clone() };
        Ctx { pid, core, resume, handle }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        sched::now_of(&self.core)
    }

    /// A cloneable, non-blocking capability handle (for model objects and
    /// scheduled callbacks).
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// True once the simulation is winding down daemons (all regular
    /// processes finished). Daemon poll loops should check this.
    pub fn is_shutdown(&self) -> bool {
        sched::is_shutdown(&self.core)
    }

    /// Let virtual time pass: park this process and resume it `dt` later.
    ///
    /// `advance(SimDuration::ZERO)` yields to other same-instant work
    /// (FIFO order among equal timestamps).
    pub fn advance(&mut self, dt: SimDuration) {
        sched::park_for(&self.core, self.pid, dt);
        self.yield_baton();
    }

    /// Yield to other processes/callbacks scheduled at the current instant.
    pub fn yield_now(&mut self) {
        self.advance(SimDuration::ZERO);
    }

    /// Block until `event` fires. Returns `true` if the event is set, or
    /// `false` if the process was released by simulation shutdown instead
    /// (only happens to daemons).
    pub fn wait(&mut self, event: &Event) -> bool {
        loop {
            if event.is_set() {
                return true;
            }
            if self.is_shutdown() {
                return false;
            }
            let epoch = sched::park_on(&self.core, self.pid, WaitTarget::Event(event.clone()));
            // Register *after* bumping so the event wakes the right epoch.
            if !event.register_waiter(self.pid, epoch) {
                // Event fired between the check and registration: un-park by
                // scheduling an immediate resume for our epoch.
                self.handle.wake(self.pid, epoch);
            }
            self.yield_baton();
        }
    }

    /// Block until `event` fires or `dt` elapses. Returns `true` if the event
    /// is set (even if it fired exactly at the deadline).
    pub fn wait_timeout(&mut self, event: &Event, dt: SimDuration) -> bool {
        let deadline = self.now() + dt;
        loop {
            if event.is_set() {
                return true;
            }
            if self.is_shutdown() || self.now() >= deadline {
                return event.is_set();
            }
            let epoch = sched::park_on(&self.core, self.pid, WaitTarget::Event(event.clone()));
            if !event.register_waiter(self.pid, epoch) {
                self.handle.wake(self.pid, epoch);
            }
            // Timed backstop at the deadline; cancelled below if the event
            // wins, so it can never stretch the simulation's end time.
            let backstop = sched::schedule_resume(&self.core, deadline, self.pid, epoch);
            self.yield_baton();
            sched::cancel_queued(&self.core, backstop);
        }
    }

    /// Block until all events in `events` have fired.
    pub fn wait_all(&mut self, events: &[Event]) {
        for e in events {
            self.wait(e);
        }
    }

    /// Block until `counter` reaches at least `threshold` (or shutdown).
    pub fn wait_count(&mut self, counter: &CountEvent, threshold: u64) {
        loop {
            if counter.count() >= threshold || self.is_shutdown() {
                return;
            }
            let target = WaitTarget::Count(counter.clone(), threshold);
            let epoch = sched::park_on(&self.core, self.pid, target);
            if !counter.register_waiter(threshold, self.pid, epoch) {
                self.handle.wake(self.pid, epoch);
            }
            self.yield_baton();
        }
    }

    /// Block until `counter` reaches at least `threshold`, `dt` elapses, or
    /// shutdown. Returns `true` if the threshold was met (even exactly at the
    /// deadline). The timed backstop is only scheduled when this method is
    /// called, so code paths that never arm a timeout cost no extra events.
    pub fn wait_count_timeout(
        &mut self,
        counter: &CountEvent,
        threshold: u64,
        dt: SimDuration,
    ) -> bool {
        let deadline = self.now() + dt;
        loop {
            if counter.count() >= threshold {
                return true;
            }
            if self.is_shutdown() || self.now() >= deadline {
                return counter.count() >= threshold;
            }
            let target = WaitTarget::Count(counter.clone(), threshold);
            let epoch = sched::park_on(&self.core, self.pid, target);
            if !counter.register_waiter(threshold, self.pid, epoch) {
                self.handle.wake(self.pid, epoch);
            }
            // Timed backstop at the deadline; cancelled below if the counter
            // wins, so it can never stretch the simulation's end time.
            let backstop = sched::schedule_resume(&self.core, deadline, self.pid, epoch);
            self.yield_baton();
            sched::cancel_queued(&self.core, backstop);
        }
    }

    /// Spawn a regular child process starting at the current virtual time.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) -> SpawnHandle {
        sched::spawn_process(&self.core, name.into(), false, body)
    }

    /// Spawn a daemon child process (released at shutdown; see crate docs).
    pub fn spawn_daemon(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) -> SpawnHandle {
        sched::spawn_process(&self.core, name.into(), true, body)
    }

    /// Block until the given spawned process finishes.
    pub fn join(&mut self, handle: &SpawnHandle) {
        self.wait(&handle.done);
    }

    /// Draw from the simulation's deterministic RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        self.handle.with_rng(f)
    }

    /// Sample a normally distributed duration (clamped at zero), in
    /// microseconds.
    pub fn jitter_us(&self, mean: f64, sd: f64) -> SimDuration {
        self.handle.jitter_us(mean, sd)
    }

    /// Hand the baton to the event loop after parking; returns once this
    /// process is resumed.
    fn yield_baton(&mut self) {
        if !sched::dispatch(&self.handle, Some(self.pid), true) {
            self.park();
        }
    }

    /// Block the calling thread until another thread passes us the baton.
    /// A process left parked when its run ends (deadlock, panic) stays
    /// parked: no thread passes it the baton again.
    pub(crate) fn park(&mut self) {
        while !self.resume.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

/// What a parked process waits on. Kept as the primitive itself and
/// formatted only when a deadlock is reported.
#[derive(Clone)]
pub(crate) enum WaitTarget {
    Event(Event),
    /// A counter and the threshold the process waits for.
    Count(CountEvent, u64),
}

impl WaitTarget {
    /// Wait-for description for deadlock diagnostics; a counter reports how
    /// far along it was when the deadlock was detected.
    pub(crate) fn describe(&self) -> String {
        match self {
            WaitTarget::Event(event) => match event.label() {
                Some(l) => format!("event '{l}'"),
                None => "event <unnamed>".to_string(),
            },
            WaitTarget::Count(counter, threshold) => {
                let cur = counter.count();
                match counter.label() {
                    Some(l) => format!("count '{l}' ({cur}/{threshold})"),
                    None => format!("count <unnamed> ({cur}/{threshold})"),
                }
            }
        }
    }
}
