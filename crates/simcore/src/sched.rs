//! The discrete-event scheduler.
//!
//! ## Execution model
//!
//! The simulation is *process-oriented* (SimGrid / SimPy style): user code
//! runs in **simulation processes**, while fine-grained hardware actions
//! (DMA completions, flag writes) are **scheduled callbacks** that run inline
//! on whichever thread is currently driving the event loop. A process is
//! one of two kinds:
//!
//! - *Thread-backed* ([`Simulation::spawn`], [`crate::Ctx::spawn`]): its body
//!   is ordinary blocking Rust, so it needs a stack of its own. It runs on a
//!   worker thread taken from a process-wide pool, which it gives back once
//!   it has finished; the next simulation reuses the worker instead of
//!   starting a thread. Until it starts the process holds only its body:
//!   no worker, and nothing that keeps its simulation alive. It may begin
//!   with an *init future* ([`Simulation::spawn_init`]): the event loop
//!   polls that future in place, like a thread-free body, and the process
//!   takes its worker only at the resume where the future completes, which
//!   hands the future's output to the body.
//! - *Thread-free* ([`Simulation::spawn_future`],
//!   [`crate::Ctx::spawn_future`], [`crate::Ctx::spawn_daemon_future`]): its
//!   body is a future, polled in place by the event loop (see below) from
//!   its first resume to its completion. It has no thread at all.
//!
//! There is no dedicated scheduler thread. Exactly one thread holds the
//! *baton* at any wall-clock instant, and the holder is the only thread that
//! runs simulation code. When a thread-backed process yields (`advance`, a
//! `wait*` that parks, or its body returning), its own thread runs
//! [`dispatch`]: it pops the event queue in `(time, seq)` order, runs
//! callbacks inline, and stops at the first resume of a still-parked
//! thread-backed process.
//!
//! - If that resume is for the yielding process itself, the process simply
//!   keeps running — no OS thread switch at all.
//! - If it starts a process (its first resume, or the one where its init
//!   future completes), the holder takes a worker from the pool, hands it
//!   the process's body as its job and parks itself. The worker runs the
//!   body at once, holding the baton: starting a process costs one OS wake.
//! - Otherwise the holder sets the target's resume flag, unparks its thread
//!   and parks itself: one thread handoff per switch.
//!
//! ## Parked futures are polled in place
//!
//! A process that runs async code with [`crate::Ctx::block_on`] parks inside
//! the future through its [`crate::Proc`] handle, exactly as the blocking
//! `Ctx` call of the same name would park it. The future is then stored in
//! the process's record. When `dispatch` pops a valid resume of such a
//! process, it does not pass the baton: it polls the future right there,
//! on the holder's thread, with a no-op waker.
//!
//! - `Pending`: the future has parked the process again; the loop goes on.
//! - `Ready`: the baton passes to the process's thread (or the holder keeps
//!   running, if that is the process itself), at the same pop where blocking
//!   code would have been resumed.
//! - A panic: the payload is stored and re-raised on the process's thread
//!   once it has the baton, so it ends the run as that process's
//!   [`SimError::ProcessPanic`].
//!
//! The body of a thread-free process is such a future from the start. Its
//! first poll happens at its first resume, the pop where a thread-backed
//! process would start. When it completes, the holder retires the process
//! right there (finished, `done` fired) and goes on with the loop; a panic
//! ends the run as that process's [`SimError::ProcessPanic`].
//!
//! The init future of a thread-backed process is polled the same way, from
//! its first resume on. When it completes, the process starts: the holder
//! hands a pooled worker its body at that same pop. A panic in it retires
//! the process right there, as that process's [`SimError::ProcessPanic`],
//! and no worker is taken. `MPI_Init` runs this way: every rank's
//! initialisation runs on the baton holder's thread, and a rank's worker is
//! woken once, when its body starts after the init barrier.
//!
//! The queue sees the same items in the same order either way, so event
//! counts, RNG draws and spans are those of the blocking code; only the
//! number of thread handoffs drops, to one per `block_on` completion, one
//! per process start however long its init future waited, and none at all
//! for a thread-free process. A future runs on whichever thread
//! holds the baton, so it must be `Send`, and it must not hold a lock guard
//! across an `.await` (the compiler enforces this: a `std` `MutexGuard` is
//! `!Send`).
//!
//! [`Simulation::run`] starts the first dispatch on the caller's thread and
//! then blocks on a one-shot outcome channel. Whichever holder sees the run
//! end (completion, deadlock, a process panic, or a panicking callback)
//! reports it there. `run` then waits until the worker of every finished
//! thread-backed process is back in the pool: after a completed run, that
//! is every one of them. Dropping the [`Simulation`] drops the bodies of
//! processes that never started. Virtual time only
//! advances inside `dispatch`, between process steps, which makes the
//! simulation deterministic: a given program and seed always produce the
//! identical event trace, whichever thread happens to run each step.
//!
//! ## Shutdown semantics
//!
//! Processes are either *regular* or *daemon*. The simulation completes when
//! every regular process has finished. As soon as the last regular process
//! finishes (or the queue runs dry with only daemons left), the baton holder
//! sets the global shutdown flag and queues one resume per parked daemon, in
//! process-id order, so their `while !ctx.is_shutdown()` loops can exit
//! cleanly. The run ends when the last daemon has returned and the queue is
//! empty.
//!
//! ## Deadlock detection
//!
//! If no timed work remains but regular processes are still blocked, the
//! run aborts with a diagnostic listing every blocked process by name and
//! the primitive it waits on — turning would-be hangs into test failures.

use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError, Weak};
use std::task::{Context, Poll, Waker};
use std::thread::Thread;

use crate::lock::Mutex;

use crate::error::{BlockedProcess, SimError};
use crate::event::Event;
use crate::hash::FxHashSet;
use crate::pool::Worker;
use crate::process::{Ctx, Proc, WaitTarget};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanId, Trace};

/// Identifier of a simulation process (dense, assigned at spawn).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) u64);

/// A callback scheduled to run at a virtual instant, on whichever thread
/// holds the baton (see module docs).
pub type Callback = Box<dyn FnOnce(&SimHandle) + Send + 'static>;

/// A long-lived handler of scheduled work: a model object that queues
/// itself with a `u64` token instead of boxing a closure per occurrence
/// (see [`SimHandle::schedule_action_at`]). The token is the handler's
/// own business: typically the key of what the occurrence needs in a
/// [`crate::Slab`] the handler keeps, or a small index such as a
/// transport partition. Model layers that hold work for someone else (a
/// kernel's timed emissions, a put's completion) call the same trait, with
/// the span that caused the occurrence.
pub trait Action: Send + Sync + 'static {
    /// Run the occurrence queued with `token`, on whichever thread holds
    /// the baton, at the instant it was queued for. `span` is the trace
    /// span that caused it, [`SpanId::NONE`] when there is none (always so
    /// for an entry of the event queue itself).
    fn run(self: Arc<Self>, h: &SimHandle, token: u64, span: SpanId);
}

/// What an entry in the event queue does when its time arrives.
enum QueueItem {
    /// Resume process `pid` if it is still parked with the given epoch.
    /// Stale epochs (the process was woken earlier by an event) are ignored.
    Resume { pid: ProcessId, epoch: u64 },
    /// A `Resume` that can be cancelled before it fires: the deadline of a
    /// timed wait (see [`cancel_backstop`]).
    Backstop { pid: ProcessId, epoch: u64 },
    /// Run a closure on the baton holder's thread.
    Callback(Callback),
    /// Run a long-lived handler with its token: the allocation-free form
    /// of a callback. Its payload is 24 bytes, no more than any other
    /// item's, so it does not grow [`Entry`].
    Action(Arc<dyn Action>, u64),
    /// Fire an event: the unboxed form of a callback that only calls
    /// [`Event::set`] (see [`SimHandle::set_at`]).
    Set(Event),
    /// A payload-free entry: it only counts as one processed event and runs
    /// the shutdown check a callback runs (see [`SimHandle::tick_at`]).
    Tick,
}

/// One event-queue entry. The heap pops the earliest `(at, seq)` first;
/// `seq` is unique, so items at the same instant pop in insertion order.
struct Entry {
    at: SimTime,
    seq: u64,
    item: QueueItem,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    /// Reversed, so the max-heap `BinaryHeap` pops the earliest entry.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The future a process is parked inside (see [`crate::Ctx::block_on`]).
pub(crate) type ParkedFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// How a run ended; sent once to the thread blocked in [`Simulation::run`].
enum Outcome {
    Done,
    Failed(SimError),
    /// A scheduled callback panicked; `run` re-raises the payload.
    CallbackPanic(Box<dyn Any + Send>),
}

/// The body of a thread-backed process.
type Body = Box<dyn FnOnce(&mut Ctx) + Send>;

/// How the baton reaches a thread-backed process.
enum Baton {
    /// Not started yet. Its first resume, or the one where its init future
    /// completes, hands `Body` to a pooled worker, which runs it at once.
    /// The body does not hold the scheduler core, so an unstarted process
    /// keeps neither a worker nor its simulation alive.
    Pending(Body),
    /// Running on a pooled worker's `thread`; set `resume`, then unpark
    /// `thread`, to pass it the baton.
    Started { thread: Thread, resume: Arc<AtomicBool> },
}

struct ProcRecord {
    /// Shared with the label of `done`.
    name: Arc<str>,
    daemon: bool,
    /// `None` for a thread-free process, whose body is `future`.
    thread: Option<Baton>,
    /// Bumped every time the process parks; used to discard stale timed wakes.
    park_epoch: u64,
    parked: bool,
    finished: bool,
    done: Event,
    /// The primitive the process is parked on (set by `Ctx` wait methods),
    /// formatted into deadlock diagnostics only when one is reported.
    waiting_on: Option<WaitTarget>,
    /// Set while the process is parked inside `Ctx::block_on`, for a
    /// thread-free process from its spawn until it completes, and for a
    /// thread-backed one with an init future until that completes: its
    /// resumes poll this future in place.
    future: Option<ParkedFuture>,
    /// A panic raised while polling `future` in place; re-raised on the
    /// process's own thread when it gets the baton back.
    future_panic: Option<Box<dyn Any + Send>>,
}

/// Shared scheduler state. Lives behind `Arc` in [`SimHandle`] and `Ctx`.
pub(crate) struct SchedCore {
    pub(crate) state: Mutex<SchedState>,
    /// A copy of `SchedState::now` in nanoseconds, written by `dispatch`
    /// right after each pop, so reading the clock takes no lock. The
    /// holder's `Release` store pairs with `now_of`'s `Acquire` load; the
    /// baton pass between threads orders them too.
    clock: AtomicU64,
    /// Global shutdown flag: set once all regular processes have finished.
    shutdown: AtomicBool,
    /// Span tracing (disabled by default).
    pub(crate) trace: Trace,
    /// Thread-backed processes whose worker is back in the pool;
    /// [`Simulation::run`] waits until all of them are.
    released: Arc<ReleaseCount>,
}

/// A count of released workers and the condvar that signals it. It lives
/// apart from [`SchedCore`] so that a worker reporting its release no
/// longer holds the scheduler state: once `run` returns, dropping the
/// [`Simulation`] frees it.
#[derive(Default)]
struct ReleaseCount {
    count: StdMutex<usize>,
    cv: Condvar,
}

/// Dropped by a pooled worker once it is idle again, after its process
/// has finished: counts the worker as released by that process's run.
pub(crate) struct Released(Arc<ReleaseCount>);

impl Drop for Released {
    fn drop(&mut self) {
        *self.0.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.cv.notify_all();
    }
}

/// What a pooled worker runs for one thread-backed process, handed over
/// when the process starts: the body holds the baton from its first line.
pub(crate) struct Job {
    body: Body,
    ctx: Ctx,
    released: Released,
}

impl Job {
    /// Run the body to its end, retire the process and pass the baton on.
    /// The [`Released`] it returns is dropped only once the worker is back
    /// in the idle list.
    pub(crate) fn run(self) -> Released {
        let Job { body, mut ctx, released } = self;
        let pid = ctx.pid();
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)))
            .map_err(|payload| payload_to_string(payload.as_ref()));
        finish(&ctx.handle(), pid, result);
        released
    }
}

pub(crate) struct SchedState {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    /// Sequence numbers of queued, not yet cancelled backstops. A cancelled
    /// one stays in the heap as a tombstone until popped.
    live_backstops: FxHashSet<u64>,
    /// Indexed by the dense [`ProcessId`].
    procs: Vec<ProcRecord>,
    live_regular: usize,
    live_daemons: usize,
    pub(crate) rng: SimRng,
    events_processed: u64,
    handoffs: u64,
    /// Where the holder that sees the run end reports it; taken once.
    outcome_tx: Option<Sender<Outcome>>,
}

/// A non-owning handle onto a simulation (see [`SimHandle::downgrade`]).
#[derive(Clone)]
pub struct WeakSimHandle {
    core: Weak<SchedCore>,
}

impl WeakSimHandle {
    /// True while anything still holds the simulation's scheduler state.
    pub fn is_live(&self) -> bool {
        self.core.strong_count() > 0
    }
}

/// A cloneable capability handle onto the running simulation.
///
/// `SimHandle` is what scheduled callbacks receive, and what long-lived model
/// objects (GPU devices, network links, UCX workers) store so they can read
/// the clock, schedule callbacks, and fire [`Event`]s. It deliberately cannot
/// block: blocking is only possible from a process `Ctx`.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) core: Arc<SchedCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        now_of(&self.core)
    }

    /// True once every regular process has finished and daemons are being
    /// wound down.
    pub fn is_shutdown(&self) -> bool {
        self.core.shutdown.load(Ordering::Acquire)
    }

    /// Schedule `f` to run after `delay` (on the event loop, see module
    /// docs).
    pub fn schedule_in(&self, delay: SimDuration, f: impl FnOnce(&SimHandle) + Send + 'static) {
        let mut st = self.core.state.lock();
        let at = st.now + delay;
        st.push(at, QueueItem::Callback(Box::new(f)));
    }

    /// Schedule `f` at an absolute virtual instant (must not be in the past).
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&SimHandle) + Send + 'static) {
        let mut st = self.core.state.lock();
        assert!(at >= st.now, "schedule_at: {at:?} is in the past (now {:?})", st.now);
        st.push(at, QueueItem::Callback(Box::new(f)));
    }

    /// Run `action.run(h, token, SpanId::NONE)` at the absolute virtual
    /// instant `at` (must not be in the past). It takes the queue's `(at, seq)` order
    /// exactly like [`SimHandle::schedule_at`] and counts as one processed
    /// event, but allocates nothing: the entry holds the handler's `Arc`
    /// and the token inline.
    pub fn schedule_action_at(&self, at: SimTime, action: Arc<dyn Action>, token: u64) {
        let mut st = self.core.state.lock();
        assert!(at >= st.now, "schedule_action_at: {at:?} is in the past (now {:?})", st.now);
        st.push(at, QueueItem::Action(action, token));
    }

    /// Fire `event` at the absolute virtual instant `at` (must not be in
    /// the past). The same queue entry as `schedule_at(at, move |h|
    /// event.set(h))`, without boxing a closure.
    pub fn set_at(&self, at: SimTime, event: Event) {
        let mut st = self.core.state.lock();
        assert!(at >= st.now, "set_at: {at:?} is in the past (now {:?})", st.now);
        st.push(at, QueueItem::Set(event));
    }

    /// Queue a payload-free entry at the absolute virtual instant `at`
    /// (must not be in the past). It runs nothing: it counts as one
    /// processed event and, like a callback, lets a run whose regular
    /// processes have all finished begin shutdown. The fabric queues one
    /// at each transfer's arrival, which keeps `events_processed` equal to
    /// that of a transfer carrying its own completion event.
    pub fn tick_at(&self, at: SimTime) {
        let mut st = self.core.state.lock();
        assert!(at >= st.now, "tick_at: {at:?} is in the past (now {:?})", st.now);
        st.push(at, QueueItem::Tick);
    }

    /// Draw from the simulation's deterministic RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        f(&mut self.core.state.lock().rng)
    }

    /// Sample a normally distributed duration (clamped at zero) around
    /// `mean` with standard deviation `sd`, both in microseconds.
    pub fn jitter_us(&self, mean: f64, sd: f64) -> SimDuration {
        self.with_rng(|rng| SimDuration::from_micros_f64(rng.normal(mean, sd)))
    }

    /// The simulation's span trace (recording is a no-op until the trace
    /// is enabled via [`crate::Simulation::trace`]).
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// A handle that does not keep the simulation alive: once the
    /// [`Simulation`] and every model object holding a `SimHandle` are gone,
    /// [`WeakSimHandle::is_live`] turns false.
    pub fn downgrade(&self) -> WeakSimHandle {
        WeakSimHandle { core: Arc::downgrade(&self.core) }
    }

    pub(crate) fn wake(&self, pid: ProcessId, epoch: u64) {
        let mut st = self.core.state.lock();
        let at = st.now;
        st.push(at, QueueItem::Resume { pid, epoch });
    }
}

impl SchedState {
    /// Enqueue `item` at `at`; returns its sequence number.
    fn push(&mut self, at: SimTime, item: QueueItem) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, item });
        seq
    }

    /// Pop the earliest live queue item, advancing the clock to it.
    /// Cancelled backstops (timeouts whose wait completed early) are
    /// tombstones: skip them without advancing the clock or the event
    /// count, so an armed-but-unused watchdog never stretches the run's end
    /// time.
    fn pop_live(&mut self) -> Option<QueueItem> {
        while let Some(Entry { at, seq, item }) = self.queue.pop() {
            if matches!(item, QueueItem::Backstop { .. }) && !self.live_backstops.remove(&seq) {
                continue;
            }
            self.now = at;
            self.events_processed += 1;
            return Some(item);
        }
        None
    }

    fn proc_mut(&mut self, pid: ProcessId) -> &mut ProcRecord {
        &mut self.procs[pid.0 as usize]
    }

    /// Park `pid`: bump its epoch and record what it waits on.
    fn park(&mut self, pid: ProcessId, waiting_on: Option<WaitTarget>) -> u64 {
        let p = self.proc_mut(pid);
        p.park_epoch += 1;
        p.parked = true;
        p.waiting_on = waiting_on;
        p.park_epoch
    }

    /// Set the shutdown flag and wake every parked process (in pid order) so
    /// daemon poll loops can observe the flag and exit.
    fn begin_shutdown(&mut self, shutdown: &AtomicBool) {
        shutdown.store(true, Ordering::Release);
        let now = self.now;
        let parked: Vec<(ProcessId, u64)> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.parked && !p.finished)
            .map(|(i, p)| (ProcessId(i as u64), p.park_epoch))
            .collect();
        for (pid, epoch) in parked {
            self.push(now, QueueItem::Resume { pid, epoch });
        }
    }

    /// Parked, unfinished processes with their wait targets, in pid order.
    fn blocked(&self) -> Vec<(String, Option<WaitTarget>)> {
        self.procs
            .iter()
            .filter(|p| p.parked && !p.finished)
            .map(|p| (p.name.to_string(), p.waiting_on.clone()))
            .collect()
    }
}

/// Statistics returned by [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the last event was processed.
    pub end_time: SimTime,
    /// Number of queue items (resumes + callbacks) processed.
    pub events_processed: u64,
    /// Number of processes that ran (regular + daemon).
    pub processes: u64,
    /// OS thread handoffs: resumes that passed the baton to another
    /// thread-backed process's thread, including the resume that starts
    /// it. Thread-free processes and futures polled in place, init futures
    /// included, cost none. A host-cost statistic, kept out of the
    /// behaviour digests.
    pub handoffs: u64,
}

/// Configuration for a [`Simulation`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the deterministic RNG. Two runs with the same seed produce
    /// identical traces.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0x5EED_CAFE }
    }
}

/// A configured simulation: spawn processes, then [`run`](Simulation::run).
pub struct Simulation {
    core: Arc<SchedCore>,
}

impl Simulation {
    /// Create a simulation with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let core = Arc::new(SchedCore {
            state: Mutex::new(SchedState {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                live_backstops: FxHashSet::default(),
                procs: Vec::new(),
                live_regular: 0,
                live_daemons: 0,
                rng: SimRng::seeded(cfg.seed),
                events_processed: 0,
                handoffs: 0,
                outcome_tx: None,
            }),
            clock: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            trace: Trace::default(),
            released: Arc::default(),
        });
        Simulation { core }
    }

    /// Create a simulation with the default configuration (fixed seed).
    pub fn with_seed(seed: u64) -> Self {
        Simulation::new(SimConfig { seed })
    }

    /// Handle usable to pre-build model objects before `run`.
    pub fn handle(&self) -> SimHandle {
        SimHandle { core: self.core.clone() }
    }

    /// The simulation's span trace; call [`Trace::enable`] to record.
    pub fn trace(&self) -> Trace {
        self.core.trace.clone()
    }

    /// Spawn a regular root process starting at t = 0.
    pub fn spawn(&mut self, name: impl Into<String>, body: impl FnOnce(&mut Ctx) + Send + 'static) {
        spawn_process(&self.core, name.into(), false, body);
    }

    /// Spawn a daemon root process starting at t = 0 (see module docs).
    pub fn spawn_daemon(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) {
        spawn_process(&self.core, name.into(), true, body);
    }

    /// Spawn a regular, thread-free root process whose body is the future
    /// `body` returns (see module docs).
    pub fn spawn_future<Fut>(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(Proc) -> Fut + Send + 'static,
    ) where
        Fut: Future<Output = ()> + Send + 'static,
    {
        spawn_future(&self.core, name.into(), false, body);
    }

    /// Spawn a regular, thread-backed root process that begins with the
    /// future `init` returns, given the new process's [`Proc`]. The event
    /// loop polls that future in place, so while it runs the process holds
    /// no worker thread; the process takes one at the resume where the
    /// future completes, and `body` runs there with the future's output.
    /// A panic in the future ends the run as this process's
    /// [`SimError::ProcessPanic`] without `body` ever running.
    pub fn spawn_init<T, Fut>(
        &mut self,
        name: impl Into<String>,
        init: impl FnOnce(Proc) -> Fut + Send + 'static,
        body: impl FnOnce(&mut Ctx, T) + Send + 'static,
    ) where
        T: Send + 'static,
        Fut: Future<Output = T> + Send + 'static,
    {
        let slot = Arc::new(Mutex::new(None));
        let out = slot.clone();
        let body = move |ctx: &mut Ctx| {
            let value = out.lock().take().expect("a process starts once its init future is done");
            body(ctx, value)
        };
        let core = &self.core;
        let handle = register(core, name.into(), false, Some(Baton::Pending(Box::new(body))));
        let proc = Proc::new(handle.pid, core.clone());
        let init = async move { *slot.lock() = Some(init(proc).await) };
        park_future(core, handle.pid, Box::pin(init));
    }

    /// Run the event loop to completion.
    ///
    /// Returns once every regular process has finished and the queue has
    /// drained. Fails with [`SimError::Deadlock`] if regular processes remain
    /// blocked with no timed work pending, or [`SimError::ProcessPanic`] if
    /// any process body panicked. A panicking scheduled callback is re-raised
    /// on the caller's thread with its original payload.
    pub fn run(self) -> Result<SimReport, SimError> {
        let (outcome_tx, outcome_rx) = channel();
        self.core.state.lock().outcome_tx = Some(outcome_tx);
        dispatch(&self.handle(), None, false);
        let outcome = outcome_rx.recv().expect("simulation ended without an outcome");

        // No process runs any more. Wait until the worker of each finished
        // thread-backed process is back in the pool, done with the
        // process's state. After a completed run that is every one of
        // them; a process a failed run left parked keeps its worker.
        let finished = self
            .core
            .state
            .lock()
            .procs
            .iter()
            .filter(|p| p.finished && matches!(p.thread, Some(Baton::Started { .. })))
            .count();
        let released = &self.core.released;
        let count = released.count.lock().unwrap_or_else(PoisonError::into_inner);
        let count = released.cv.wait_while(count, |n| *n < finished);
        drop(count.unwrap_or_else(PoisonError::into_inner));
        match outcome {
            Outcome::Done => {}
            Outcome::Failed(err) => return Err(err),
            Outcome::CallbackPanic(payload) => panic::resume_unwind(payload),
        }

        let st = self.core.state.lock();
        Ok(SimReport {
            end_time: st.now,
            events_processed: st.events_processed,
            processes: st.procs.len() as u64,
            handoffs: st.handoffs,
        })
    }
}

impl Drop for Simulation {
    /// Drop the bodies of processes that never started and the futures of
    /// parked ones. Either may hold a handle onto this simulation, which
    /// would otherwise keep it alive through its own process table.
    fn drop(&mut self) {
        let mut st = self.core.state.lock();
        let held: Vec<(Option<Baton>, Option<ParkedFuture>)> = st
            .procs
            .iter_mut()
            .filter(|p| matches!(p.thread, Some(Baton::Pending(_))) || p.future.is_some())
            .map(|p| (p.thread.take_if(|b| matches!(b, Baton::Pending(_))), p.future.take()))
            .collect();
        drop(st);
        drop(held); // outside the lock: a body's destructor may use the simulation
    }
}

/// Run the event loop on the calling thread, which holds the baton, until
/// the next valid resume or the end of the run.
///
/// `me` is the yielding process (`None` for `run`'s thread and for a process
/// whose body has returned). `after_yield` applies the check that starts
/// shutdown once the last regular process is gone; the initial dispatch
/// from `run` skips it. Returns `true` if the next resume is for `me`, which
/// then simply keeps running. Otherwise the baton has been passed to another
/// process (or the run has ended) and the caller must park or exit.
pub(crate) fn dispatch(h: &SimHandle, me: Option<ProcessId>, after_yield: bool) -> bool {
    let core = &h.core;
    let mut check_shutdown = after_yield;
    loop {
        let mut st = core.state.lock();
        if check_shutdown
            && st.live_regular == 0
            && st.live_daemons > 0
            && !core.shutdown.load(Ordering::Acquire)
        {
            st.begin_shutdown(&core.shutdown);
        }
        check_shutdown = false;

        let item = st.pop_live();
        core.clock.store(st.now.as_nanos(), Ordering::Release);
        match item {
            Some(QueueItem::Callback(f)) => {
                drop(st);
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(h))) {
                    end_run(core, Outcome::CallbackPanic(payload));
                    return false;
                }
                check_shutdown = true;
            }
            Some(QueueItem::Action(action, token)) => {
                drop(st);
                if let Err(payload) =
                    panic::catch_unwind(AssertUnwindSafe(|| action.run(h, token, SpanId::NONE)))
                {
                    end_run(core, Outcome::CallbackPanic(payload));
                    return false;
                }
                check_shutdown = true;
            }
            Some(QueueItem::Set(event)) => {
                drop(st);
                event.set(h);
                check_shutdown = true;
            }
            Some(QueueItem::Tick) => check_shutdown = true,
            Some(QueueItem::Resume { pid, epoch } | QueueItem::Backstop { pid, epoch }) => {
                let p = st.proc_mut(pid);
                if !p.parked || p.finished || p.park_epoch != epoch {
                    continue; // stale wake
                }
                p.parked = false;
                p.waiting_on = None;
                if let Some(mut fut) = p.future.take() {
                    // Parked inside its future: poll in place. A process
                    // thread gets the baton only once the future completes.
                    drop(st);
                    let polled = poll_in_place(&mut fut);
                    st = core.state.lock();
                    let p = st.proc_mut(pid);
                    let result = match polled {
                        Poll::Pending if p.parked => {
                            // The future re-parked the process.
                            p.future = Some(fut);
                            check_shutdown = true;
                            continue;
                        }
                        Poll::Pending => Err(Box::new(UNPARKED_PENDING.to_string()) as _),
                        Poll::Ready(result) => result,
                    };
                    let unstarted = matches!(p.thread, Some(Baton::Pending(_)));
                    if p.thread.is_none() || (unstarted && result.is_err()) {
                        // A thread-free process's body is done, or an init
                        // future panicked before its process took a worker:
                        // retire it here, as its thread would have. An
                        // unrun body is dropped with the simulation.
                        drop(st);
                        let result = result.map_err(|payload| payload_to_string(payload.as_ref()));
                        if !retire(h, pid, result) {
                            return false;
                        }
                        check_shutdown = true;
                        continue;
                    }
                    p.future_panic = result.err();
                }
                if me == Some(pid) {
                    return true;
                }
                st.handoffs += 1;
                let baton = st
                    .proc_mut(pid)
                    .thread
                    .as_mut()
                    .expect("a thread-free process is parked in its future");
                match baton {
                    Baton::Started { thread, resume } => {
                        resume.store(true, Ordering::Release);
                        let thread = thread.clone();
                        drop(st);
                        thread.unpark();
                    }
                    Baton::Pending(_) => {
                        // The process starts: the one place a worker is
                        // handed a job. The channel send is the only OS
                        // wake.
                        let worker = Worker::take();
                        let resume = Arc::new(AtomicBool::new(false));
                        let thread = worker.thread().clone();
                        let started = Baton::Started { thread, resume: resume.clone() };
                        let Baton::Pending(body) = std::mem::replace(baton, started) else {
                            unreachable!("matched as pending")
                        };
                        drop(st);
                        let ctx = Ctx::new(pid, core.clone(), resume);
                        worker.run(Job { body, ctx, released: Released(core.released.clone()) });
                    }
                }
                return false;
            }
            None => {
                // Queue empty: either done, shutdown phase, or deadlock.
                if st.live_regular == 0 && st.live_daemons == 0 {
                    drop(st);
                    end_run(core, Outcome::Done);
                    return false;
                }
                if st.live_regular == 0 {
                    // Only daemons remain: initiate shutdown, wake them all.
                    st.begin_shutdown(&core.shutdown);
                    continue;
                }
                let blocked = st.blocked();
                drop(st);
                // Format outside the scheduler lock: describing a wait
                // target locks the primitive itself.
                let mut blocked: Vec<BlockedProcess> = blocked
                    .into_iter()
                    .map(|(process, target)| BlockedProcess {
                        process,
                        waiting_on: target.map(|t| t.describe()),
                    })
                    .collect();
                blocked.sort_by(|a, b| a.process.cmp(&b.process));
                end_run(core, Outcome::Failed(SimError::Deadlock { blocked }));
                return false;
            }
        }
    }
}

/// Why a future that returned `Pending` without parking its process fails.
const UNPARKED_PENDING: &str = "block_on: future returned Pending without awaiting a Proc method";

/// Poll a parked process's future once, with a no-op waker (the scheduler
/// knows when to poll: at the process's next valid resume). A panic is
/// returned as `Err` with its payload.
fn poll_in_place(fut: &mut ParkedFuture) -> Poll<Result<(), Box<dyn Any + Send>>> {
    let mut cx = Context::from_waker(Waker::noop());
    match panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
        Ok(Poll::Pending) => Poll::Pending,
        Ok(Poll::Ready(())) => Poll::Ready(Ok(())),
        Err(payload) => Poll::Ready(Err(payload)),
    }
}

/// Report the run's outcome to `Simulation::run`.
fn end_run(core: &SchedCore, outcome: Outcome) {
    if let Some(tx) = core.state.lock().outcome_tx.take() {
        let _ = tx.send(outcome);
    }
}

/// Retire a process whose body returned (`Ok`) or panicked (`Err`): mark
/// it finished and fire its `done` event. A panic ends the run. Returns
/// whether the run goes on.
fn retire(h: &SimHandle, pid: ProcessId, result: Result<(), String>) -> bool {
    let (name, done) = {
        let mut st = h.core.state.lock();
        let p = st.proc_mut(pid);
        p.finished = true;
        p.parked = false;
        p.waiting_on = None;
        let out = (p.name.clone(), p.done.clone());
        if p.daemon {
            st.live_daemons -= 1;
        } else {
            st.live_regular -= 1;
        }
        out
    };
    done.set(h);
    match result {
        Ok(()) => true,
        Err(message) => {
            let name = name.to_string();
            end_run(&h.core, Outcome::Failed(SimError::ProcessPanic { name, message }));
            false
        }
    }
}

/// Retire a thread-backed process, then pass the baton on.
fn finish(h: &SimHandle, pid: ProcessId, result: Result<(), String>) {
    if retire(h, pid, result) {
        dispatch(h, None, true);
    }
}

/// Handle returned by dynamic spawn; lets other processes await completion.
#[derive(Clone)]
pub struct SpawnHandle {
    pub(crate) pid: ProcessId,
    /// Fired when the process body returns.
    pub done: Event,
}

impl SpawnHandle {
    /// The spawned process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }
}

/// Internal: register a process, parked until its first `Resume`, which
/// is queued at the current virtual time.
fn register(
    core: &Arc<SchedCore>,
    name: String,
    daemon: bool,
    thread: Option<Baton>,
) -> SpawnHandle {
    let name: Arc<str> = name.into();
    let done = Event::joining(name.clone());
    let mut st = core.state.lock();
    let pid = ProcessId(st.procs.len() as u64);
    if daemon {
        st.live_daemons += 1;
    } else {
        st.live_regular += 1;
    }
    st.procs.push(ProcRecord {
        name,
        daemon,
        thread,
        park_epoch: 0,
        parked: true,
        finished: false,
        done: done.clone(),
        waiting_on: None,
        future: None,
        future_panic: None,
    });
    let now = st.now;
    st.push(now, QueueItem::Resume { pid, epoch: 0 });
    SpawnHandle { pid, done }
}

/// Internal: register a thread-backed process. It takes a pooled worker
/// at its first resume, which hands the worker its body (see [`dispatch`]).
pub(crate) fn spawn_process(
    core: &Arc<SchedCore>,
    name: String,
    daemon: bool,
    body: impl FnOnce(&mut Ctx) + Send + 'static,
) -> SpawnHandle {
    register(core, name, daemon, Some(Baton::Pending(Box::new(body))))
}

/// Internal: register a thread-free process. `body` runs, and its future
/// is first polled, at the process's first resume, where a thread-backed
/// process would start.
pub(crate) fn spawn_future<Fut>(
    core: &Arc<SchedCore>,
    name: String,
    daemon: bool,
    body: impl FnOnce(Proc) -> Fut + Send + 'static,
) -> SpawnHandle
where
    Fut: Future<Output = ()> + Send + 'static,
{
    let handle = register(core, name, daemon, None);
    let proc = Proc::new(handle.pid, core.clone());
    park_future(core, handle.pid, Box::pin(async move { body(proc).await }));
    handle
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Internal API used by `Ctx`: park `pid` on `target` and return the new
/// epoch its wakers must carry.
pub(crate) fn park_on(core: &Arc<SchedCore>, pid: ProcessId, target: WaitTarget) -> u64 {
    core.state.lock().park(pid, Some(target))
}

/// Internal API used by `Ctx::advance`: park `pid` and queue its resume
/// `dt` from now.
pub(crate) fn park_for(core: &Arc<SchedCore>, pid: ProcessId, dt: SimDuration) {
    let mut st = core.state.lock();
    let epoch = st.park(pid, None);
    let at = st.now + dt;
    st.push(at, QueueItem::Resume { pid, epoch });
}

pub(crate) fn now_of(core: &Arc<SchedCore>) -> SimTime {
    SimTime::from_nanos(core.clock.load(Ordering::Acquire))
}

/// Queue a cancellable resume of `pid` at `at` (a timed wait's deadline);
/// returns the id [`cancel_backstop`] takes.
pub(crate) fn schedule_backstop(
    core: &Arc<SchedCore>,
    at: SimTime,
    pid: ProcessId,
    epoch: u64,
) -> u64 {
    let mut st = core.state.lock();
    let seq = st.push(at, QueueItem::Backstop { pid, epoch });
    st.live_backstops.insert(seq);
    seq
}

/// Cancel a backstop before it fires (no-op if it already fired). The heap
/// entry stays behind as a tombstone that the run loop discards without
/// advancing virtual time.
pub(crate) fn cancel_backstop(core: &Arc<SchedCore>, id: u64) {
    core.state.lock().live_backstops.remove(&id);
}

/// Internal API used by `Ctx::block_on` and the future-taking spawns: store
/// the future `pid` has just parked inside (or, for a new process, starts
/// with), for the scheduler to poll at its next resume.
pub(crate) fn park_future(core: &Arc<SchedCore>, pid: ProcessId, fut: ParkedFuture) {
    let mut st = core.state.lock();
    let p = st.proc_mut(pid);
    assert!(p.parked, "{UNPARKED_PENDING}");
    p.future = Some(fut);
}

/// Internal API used by `Ctx::block_on`: the panic its future raised while
/// polled in place, if any.
pub(crate) fn take_future_panic(
    core: &Arc<SchedCore>,
    pid: ProcessId,
) -> Option<Box<dyn Any + Send>> {
    core.state.lock().proc_mut(pid).future_panic.take()
}

pub(crate) fn is_shutdown(core: &Arc<SchedCore>) -> bool {
    core.shutdown.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::Entry;

    #[test]
    fn a_queue_entry_stays_48_bytes() {
        // `(at, seq)`, then the largest item, `Action` (the handler's `Arc`
        // and its token: 24 bytes), and the item's tag. The heap moves
        // entries on every push and pop, so a larger item costs every one.
        assert_eq!(std::mem::size_of::<Entry>(), 48);
    }
}
