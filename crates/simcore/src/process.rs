//! The process-side API: what simulation code can do.
//!
//! Every thread-backed simulation process receives a `&mut Ctx`. All
//! blocking operations (`advance`, `wait`, channel receives) go through it;
//! the mutable borrow statically prevents a process from blocking
//! re-entrantly.
//!
//! A process can also run async code with [`Ctx::block_on`]. The future
//! suspends through a [`Proc`] handle, whose `advance` / `wait*` methods park
//! the process exactly like their `Ctx` namesakes; while it is parked, the
//! scheduler polls the future in place instead of switching to the
//! process's thread (see the `sched` module docs). A thread-free process
//! ([`Ctx::spawn_future`]) has only a `Proc`: its whole body is such a
//! future, and it has no thread to switch to.

use std::future::Future;
use std::panic;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::event::{CountEvent, Event};
use crate::lock::Mutex;
use crate::rng::SimRng;
use crate::sched::{self, ParkedFuture, ProcessId, SchedCore, SimHandle, SpawnHandle};
use crate::time::{SimDuration, SimTime};

/// Per-process execution context.
///
/// Not `Clone`: it owns the process's resume flag. To give long-lived model
/// objects access to the simulation, use [`Ctx::handle`]; to give async code
/// run under [`Ctx::block_on`] a way to suspend, use [`Ctx::proc`].
pub struct Ctx {
    proc: Proc,
    /// Set by the thread that passes this process the baton.
    resume: Arc<AtomicBool>,
}

impl Ctx {
    pub(crate) fn new(pid: ProcessId, core: Arc<SchedCore>, resume: Arc<AtomicBool>) -> Self {
        Ctx { proc: Proc::new(pid, core), resume }
    }

    fn core(&self) -> &Arc<SchedCore> {
        &self.proc.handle.core
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.proc.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.proc.now()
    }

    /// A cloneable, non-blocking capability handle (for model objects and
    /// scheduled callbacks).
    pub fn handle(&self) -> SimHandle {
        self.proc.handle.clone()
    }

    /// A cloneable handle through which async code run by
    /// [`Ctx::block_on`] suspends this process.
    pub fn proc(&self) -> Proc {
        self.proc.clone()
    }

    /// True once the simulation is winding down daemons (all regular
    /// processes finished). Daemon poll loops should check this.
    pub fn is_shutdown(&self) -> bool {
        self.proc.is_shutdown()
    }

    /// Let virtual time pass: park this process and resume it `dt` later.
    ///
    /// `advance(SimDuration::ZERO)` yields to other same-instant work
    /// (FIFO order among equal timestamps).
    pub fn advance(&mut self, dt: SimDuration) {
        sched::park_for(self.core(), self.proc.pid, dt);
        self.yield_baton();
    }

    /// Block until `event` fires. Returns `true` if the event is set, or
    /// `false` if the process was released by simulation shutdown instead
    /// (only happens to daemons).
    pub fn wait(&mut self, event: &Event) -> bool {
        loop {
            if let Some(set) = self.proc.park_on_event(event) {
                return set;
            }
            self.yield_baton();
        }
    }

    /// Block until `event` fires or `dt` elapses. Returns `true` if the event
    /// is set (even if it fired exactly at the deadline).
    pub fn wait_timeout(&mut self, event: &Event, dt: SimDuration) -> bool {
        let deadline = self.now() + dt;
        loop {
            match self.proc.park_on_event_until(event, deadline) {
                Ok(set) => return set,
                Err(backstop) => {
                    self.yield_baton();
                    sched::cancel_backstop(self.core(), backstop);
                }
            }
        }
    }

    /// Block until `counter` reaches at least `threshold` (or shutdown).
    pub fn wait_count(&mut self, counter: &CountEvent, threshold: u64) {
        while !self.proc.park_on_count(counter, threshold) {
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
            match self.proc.park_on_count_until(counter, threshold, deadline) {
                Ok(met) => return met,
                Err(backstop) => {
                    self.yield_baton();
                    sched::cancel_backstop(self.core(), backstop);
                }
            }
        }
    }

    /// Run `fut` to completion on this process and return its output.
    ///
    /// The future suspends only by awaiting this process's [`Proc`] methods
    /// (any other `Pending` is a bug and panics the process). Each such
    /// await parks the process exactly like the blocking `Ctx` method of the
    /// same name, so queue order, RNG draws and event counts are those of
    /// the equivalent blocking code. The difference is host cost: while the
    /// process is parked inside `fut`, whichever thread pops its resume
    /// polls `fut` in place, and the process's own thread gets the baton
    /// back only once, when `fut` completes. A panic inside `fut` is
    /// re-raised on this process's thread.
    ///
    /// `fut` must not hold a lock guard across an `.await`: the `Send`
    /// bound rejects `std` guards, which are `!Send`.
    pub fn block_on<F>(&mut self, fut: F) -> F::Output
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let out = Arc::new(Mutex::new(None));
        let slot = out.clone();
        let mut fut: ParkedFuture = Box::pin(async move {
            let value = fut.await;
            *slot.lock() = Some(value);
        });
        let first = fut.as_mut().poll(&mut Context::from_waker(Waker::noop()));
        if first.is_pending() {
            sched::park_future(self.core(), self.proc.pid, fut);
            self.yield_baton();
            if let Some(payload) = sched::take_future_panic(self.core(), self.proc.pid) {
                panic::resume_unwind(payload);
            }
        }
        let value = out.lock().take();
        value.expect("block_on: future completed without an output")
    }

    /// Spawn a regular child process starting at the current virtual time.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) -> SpawnHandle {
        sched::spawn_process(self.core(), name.into(), false, body)
    }

    /// Spawn a daemon child process (released at shutdown; see crate docs).
    pub fn spawn_daemon(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) -> SpawnHandle {
        sched::spawn_process(self.core(), name.into(), true, body)
    }

    /// Spawn a regular, thread-free child process starting at the current
    /// virtual time. Its body is the future `body` returns, given the new
    /// process's [`Proc`]; the scheduler polls it in place from its first
    /// resume on, so the process costs no OS thread and no thread handoff.
    /// It suspends only by awaiting that `Proc`'s methods, as under
    /// [`Ctx::block_on`].
    pub fn spawn_future<Fut>(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(Proc) -> Fut + Send + 'static,
    ) -> SpawnHandle
    where
        Fut: Future<Output = ()> + Send + 'static,
    {
        sched::spawn_future(self.core(), name.into(), false, body)
    }

    /// Spawn a thread-free daemon child process; see [`Ctx::spawn_future`]
    /// and [`Ctx::spawn_daemon`].
    pub fn spawn_daemon_future<Fut>(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(Proc) -> Fut + Send + 'static,
    ) -> SpawnHandle
    where
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.proc.spawn_daemon_future(name, body)
    }

    /// Block until the given spawned process finishes.
    pub fn join(&mut self, handle: &SpawnHandle) {
        self.wait(&handle.done);
    }

    /// Draw from the simulation's deterministic RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        self.proc.handle.with_rng(f)
    }

    /// Sample a normally distributed duration (clamped at zero), in
    /// microseconds.
    pub fn jitter_us(&self, mean: f64, sd: f64) -> SimDuration {
        self.proc.jitter_us(mean, sd)
    }

    /// Hand the baton to the event loop after parking; returns once this
    /// process is resumed.
    fn yield_baton(&mut self) {
        if !sched::dispatch(&self.proc.handle, Some(self.proc.pid), true) {
            self.park();
        }
    }

    /// Block the calling thread until another thread passes us the baton.
    /// A process left parked when its run ends (deadlock, panic) stays
    /// parked, and keeps its pooled worker: no thread passes it the baton
    /// again.
    fn park(&mut self) {
        while !self.resume.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }
}

/// A cloneable, `Send + 'static` handle onto one process, through which
/// async code run by that process's [`Ctx::block_on`], or the body of a
/// thread-free process ([`Ctx::spawn_future`]), suspends it.
///
/// Its async `advance` / `wait*` methods park the process exactly like the
/// `Ctx` methods of the same name (same wait-target bookkeeping, waiter
/// registration and timed backstops), then return `Pending` once. Await
/// them only inside a `block_on` of the process the handle came from, or in
/// the body of the thread-free process it was given to.
#[derive(Clone)]
pub struct Proc {
    pid: ProcessId,
    handle: SimHandle,
}

impl Proc {
    pub(crate) fn new(pid: ProcessId, core: Arc<SchedCore>) -> Self {
        Proc { pid, handle: SimHandle { core } }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        sched::now_of(&self.handle.core)
    }

    /// A cloneable, non-blocking capability handle onto the simulation.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// True once the simulation is winding down daemons; see
    /// [`Ctx::is_shutdown`].
    pub fn is_shutdown(&self) -> bool {
        sched::is_shutdown(&self.handle.core)
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

    /// Spawn a thread-free daemon child process; see
    /// [`Ctx::spawn_daemon_future`].
    pub fn spawn_daemon_future<Fut>(
        &self,
        name: impl Into<String>,
        body: impl FnOnce(Proc) -> Fut + Send + 'static,
    ) -> SpawnHandle
    where
        Fut: Future<Output = ()> + Send + 'static,
    {
        sched::spawn_future(&self.handle.core, name.into(), true, body)
    }

    /// Async [`Ctx::advance`].
    pub async fn advance(&self, dt: SimDuration) {
        sched::park_for(&self.handle.core, self.pid, dt);
        Suspend(false).await;
    }

    /// Async [`Ctx::wait`].
    pub async fn wait(&self, event: &Event) -> bool {
        loop {
            if let Some(set) = self.park_on_event(event) {
                return set;
            }
            Suspend(false).await;
        }
    }

    /// Async [`Ctx::wait_timeout`].
    pub async fn wait_timeout(&self, event: &Event, dt: SimDuration) -> bool {
        let deadline = self.now() + dt;
        loop {
            match self.park_on_event_until(event, deadline) {
                Ok(set) => return set,
                Err(backstop) => {
                    Suspend(false).await;
                    sched::cancel_backstop(&self.handle.core, backstop);
                }
            }
        }
    }

    /// Async [`Ctx::wait_count`].
    pub async fn wait_count(&self, counter: &CountEvent, threshold: u64) {
        while !self.park_on_count(counter, threshold) {
            Suspend(false).await;
        }
    }

    /// Async [`Ctx::wait_count_timeout`].
    pub async fn wait_count_timeout(
        &self,
        counter: &CountEvent,
        threshold: u64,
        dt: SimDuration,
    ) -> bool {
        let deadline = self.now() + dt;
        loop {
            match self.park_on_count_until(counter, threshold, deadline) {
                Ok(met) => return met,
                Err(backstop) => {
                    Suspend(false).await;
                    sched::cancel_backstop(&self.handle.core, backstop);
                }
            }
        }
    }

    /// One round of `wait`: the result if the wait is over, else `None`
    /// with the process parked on `event`.
    fn park_on_event(&self, event: &Event) -> Option<bool> {
        if event.is_set() {
            return Some(true);
        }
        if self.is_shutdown() {
            return Some(false);
        }
        let epoch = sched::park_on(&self.handle.core, self.pid, WaitTarget::Event(event.clone()));
        // Register *after* bumping so the event wakes the right epoch.
        if !event.register_waiter(self.pid, epoch) {
            // Event fired between the check and registration: un-park by
            // scheduling an immediate resume for our epoch.
            self.handle.wake(self.pid, epoch);
        }
        None
    }

    /// One round of `wait_timeout`: `Ok(result)` if the wait is over, else
    /// the process is parked on `event` with a timed backstop at `deadline`,
    /// whose id the caller cancels once resumed.
    fn park_on_event_until(&self, event: &Event, deadline: SimTime) -> Result<bool, u64> {
        if event.is_set() {
            return Ok(true);
        }
        if self.is_shutdown() || self.now() >= deadline {
            return Ok(event.is_set());
        }
        let epoch = sched::park_on(&self.handle.core, self.pid, WaitTarget::Event(event.clone()));
        if !event.register_waiter(self.pid, epoch) {
            self.handle.wake(self.pid, epoch);
        }
        // Timed backstop at the deadline; cancelled if the event wins, so it
        // can never stretch the simulation's end time.
        Err(sched::schedule_backstop(&self.handle.core, deadline, self.pid, epoch))
    }

    /// One round of `wait_count`: `true` if the wait is over, else the
    /// process is parked on `counter`.
    fn park_on_count(&self, counter: &CountEvent, threshold: u64) -> bool {
        if counter.count() >= threshold || self.is_shutdown() {
            return true;
        }
        let target = WaitTarget::Count(counter.clone(), threshold);
        let epoch = sched::park_on(&self.handle.core, self.pid, target);
        if !counter.register_waiter(threshold, self.pid, epoch) {
            self.handle.wake(self.pid, epoch);
        }
        false
    }

    /// One round of `wait_count_timeout`; see [`Proc::park_on_event_until`].
    fn park_on_count_until(
        &self,
        counter: &CountEvent,
        threshold: u64,
        deadline: SimTime,
    ) -> Result<bool, u64> {
        if counter.count() >= threshold {
            return Ok(true);
        }
        if self.is_shutdown() || self.now() >= deadline {
            return Ok(counter.count() >= threshold);
        }
        let target = WaitTarget::Count(counter.clone(), threshold);
        let epoch = sched::park_on(&self.handle.core, self.pid, target);
        if !counter.register_waiter(threshold, self.pid, epoch) {
            self.handle.wake(self.pid, epoch);
        }
        Err(sched::schedule_backstop(&self.handle.core, deadline, self.pid, epoch))
    }
}

/// The one suspension point of a parked future: `Pending` on the first poll
/// (the process has just parked), `Ready` on the next, which the scheduler
/// makes only after the process's matching resume.
struct Suspend(bool);

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            Poll::Pending
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
