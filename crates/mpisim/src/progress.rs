//! The per-rank MPI progression engine.
//!
//! The paper's design (§IV-A4, §IV-B3) leans on a host progress thread: it
//! notices device-side `MPIX_Pready` notifications in pinned host memory,
//! issues the corresponding `ucp_put_nbx` calls, and advances partitioned
//! collective schedules. Here it is a daemon simulation process per rank
//! that runs registered **hooks** every poll interval.
//!
//! The daemon is a thread-free process (`Proc::spawn_daemon_future`): its
//! whole loop is one future that the scheduler polls in place at each of
//! its resumes (idle wake-ups, poll ticks, waits inside a hook), so the
//! engine has no OS thread of its own.
//!
//! A hook is a long-lived [`PeHook`], registered as an `Arc` (registering
//! one allocates nothing). The sweep runs it in [`HookStep`]s: a step may
//! ask the engine to charge host time (e.g. the put-post cost) and step it
//! again afterwards, which is how a hook posts a queue of puts without a
//! future per run. A hook whose run needs more than host-time charges
//! hands the engine a [`HookFuture`] to await instead; that future runs
//! inside the engine's future, on whichever thread holds the baton, so it
//! must not hold a lock guard across an `.await` (the `Send` bound rejects
//! the `std` guards). A run ending in [`HookOutcome::Remove`] unregisters
//! the hook. The engine parks on an event while no hooks are registered,
//! so idle ranks cost no simulation events.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parcomm_sim::Mutex;

use parcomm_sim::{Event, Proc, SimDuration, SimTime};

/// What a hook wants after an invocation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HookOutcome {
    /// Call me again on the next poll.
    Keep,
    /// Done; unregister.
    Remove,
}

/// Fault schedule for one rank's progression engine.
///
/// A **stall** pauses the engine's poll loop for `stall_us` starting at
/// `stall_at_us` — hooks run late, puts post late, the run survives with
/// degraded timing. A **crash** (`crash_at_us`) permanently halts the loop:
/// registered hooks never run again, and the typed error surfaces through
/// the `MPI_Wait` watchdog ([`crate::MpiError::ProgressionHalted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PeFaultConfig {
    /// Virtual instant (µs) the stall begins.
    pub stall_at_us: f64,
    /// Stall duration (µs); 0 disables the stall.
    pub stall_us: f64,
    /// Virtual instant (µs) the engine crashes; `None` disables.
    pub crash_at_us: Option<f64>,
}

impl Default for PeFaultConfig {
    fn default() -> Self {
        PeFaultConfig { stall_at_us: 0.0, stall_us: 0.0, crash_at_us: None }
    }
}

/// The rest of a hook run as a future for the engine to await (see
/// [`HookStep::Await`]). It runs inside the engine's own future, so it
/// suspends only through the [`Proc`] it was given and must not hold a
/// lock guard across an `.await`.
pub type HookFuture = Pin<Box<dyn Future<Output = HookOutcome> + Send>>;

/// What one step of a hook run asks of the engine.
pub enum HookStep {
    /// Charge this much host time, then step the hook again.
    Advance(SimDuration),
    /// Await this future; its output ends the run.
    Await(HookFuture),
    /// The run is over.
    Done(HookOutcome),
}

/// Work the progression engine runs on every poll while it is registered
/// (see the module docs).
pub trait PeHook: Send + Sync + 'static {
    /// The next step of the current run, at the engine's current instant.
    /// A run's first step is taken at the sweep; each step after an
    /// [`HookStep::Advance`] is taken once that time has been charged.
    fn step(&self, p: &Proc) -> HookStep;
}

struct PeState {
    hooks: Vec<Arc<dyn PeHook>>,
    /// An empty list with room, swapped in for `hooks` while a sweep runs
    /// them, so registering during a sweep does not allocate.
    spare: Vec<Arc<dyn PeHook>>,
    /// Set whenever a hook is registered while the engine is idle.
    work_available: Event,
}

/// Handle to a rank's progression engine.
///
/// The handle holds the engine's hook list weakly: only the engine's
/// daemon and its [`Rank`](crate::Rank) keep the list alive. A hook holds
/// its channel and a channel holds this handle, so a strong handle would
/// turn every hook still registered when a run ends (a crashed engine's,
/// for one) into a reference cycle.
#[derive(Clone)]
pub struct ProgressionEngine {
    inner: Weak<Mutex<PeState>>,
    crashed: Arc<AtomicBool>,
    /// Virtual instant of the last hook sweep — the engine's heartbeat,
    /// renewed immediately before each sweep. Recovery's lease check reads
    /// this to distinguish a slow PE from a dead one without any wall clock.
    heartbeat: Arc<Mutex<SimTime>>,
}

/// Keeps a progression engine's hooks alive while its rank runs, so a
/// crashed engine's hooks (and the device requests they hold) stay
/// reachable by the rank's host-drain takeover.
#[derive(Clone)]
pub(crate) struct HookOwner {
    _hooks: Arc<Mutex<PeState>>,
}

impl ProgressionEngine {
    /// Spawn the engine daemon for `rank` with the given poll interval and
    /// optional fault schedule (`None` in every fault-free run).
    pub(crate) fn start(
        p: &Proc,
        rank: usize,
        poll: SimDuration,
        fault: Option<PeFaultConfig>,
        instruments: crate::world::MpiInstruments,
    ) -> (ProgressionEngine, HookOwner) {
        let inner = Arc::new(Mutex::new(PeState {
            hooks: Vec::new(),
            spare: Vec::new(),
            work_available: Event::numbered("work_available rank", rank as u64),
        }));
        let crashed = Arc::new(AtomicBool::new(false));
        let heartbeat = Arc::new(Mutex::new(SimTime::ZERO));
        let owner = HookOwner { _hooks: inner.clone() };
        let engine = ProgressionEngine {
            inner: Arc::downgrade(&inner),
            crashed: crashed.clone(),
            heartbeat: heartbeat.clone(),
        };
        let mut stall_pending = fault.as_ref().is_some_and(|f| f.stall_us > 0.0);
        p.spawn_daemon_future(format!("progress{rank}"), move |p| async move {
            loop {
                if p.is_shutdown() {
                    break;
                }
                // Park while idle.
                let wait_ev = {
                    let st = inner.lock();
                    if st.hooks.is_empty() {
                        Some(st.work_available.clone())
                    } else {
                        None
                    }
                };
                if let Some(ev) = wait_ev {
                    if !p.wait(&ev).await {
                        break; // shutdown
                    }
                    {
                        let st = inner.lock();
                        if st.work_available.is_set() && st.hooks.is_empty() {
                            st.work_available.reset();
                            continue;
                        }
                    }
                    // The progress thread polls on a grid: a notification
                    // raised between ticks is observed up to one poll
                    // interval later (uniform phase).
                    let phase = p.with_rng(|r| r.uniform());
                    p.advance(SimDuration::from_micros_f64(poll.as_micros_f64() * phase))
                        .await;
                    if p.is_shutdown() {
                        break;
                    }
                }
                if let Some(f) = &fault {
                    // Stall: checked immediately before each hook sweep
                    // so that work arriving mid-window (even while the
                    // engine was parked idle) is not serviced until the
                    // window closes — hooks run late, puts post late, the
                    // run survives with degraded timing.
                    let now_us = p.now().as_micros_f64();
                    if stall_pending && now_us >= f.stall_at_us {
                        stall_pending = false;
                        let end = f.stall_at_us + f.stall_us;
                        if end > now_us {
                            p.advance(SimDuration::from_micros_f64(end - now_us)).await;
                            continue;
                        }
                    }
                    // Crash: halt the loop for good. Checked immediately
                    // before each sweep so no hook runs at or after the
                    // crash instant; waiters time out upstream with
                    // `MpiError::ProgressionHalted`.
                    if f.crash_at_us.is_some_and(|t| p.now().as_micros_f64() >= t) {
                        crashed.store(true, Ordering::Release);
                        break;
                    }
                }
                // Renew the lease immediately before the sweep: a live PE
                // always heartbeats before servicing hooks, so a stale
                // heartbeat with hooks pending means the loop is dead (or
                // stalled long enough that host takeover is safe anyway —
                // takeover is idempotent).
                *heartbeat.lock() = p.now();
                // Run every registered hook once. Hooks are temporarily
                // moved out so they can re-enter the engine (e.g.
                // register follow-up work) without deadlocking the lock.
                let mut hooks = {
                    let st = &mut *inner.lock();
                    std::mem::replace(&mut st.hooks, std::mem::take(&mut st.spare))
                };
                instruments.pe_polls.inc();
                instruments.pe_hook_runs.add(hooks.len() as u64);
                // Kept hooks move to the front, in order; the rest are
                // dropped after the sweep.
                let mut kept = 0;
                for i in 0..hooks.len() {
                    if run_hook(&hooks[i], &p).await == HookOutcome::Keep {
                        hooks.swap(kept, i);
                        kept += 1;
                    }
                }
                hooks.truncate(kept);
                {
                    let st = &mut *inner.lock();
                    // New hooks registered during the sweep go behind
                    // kept ones.
                    hooks.append(&mut st.hooks);
                    st.spare = std::mem::replace(&mut st.hooks, hooks);
                    if st.hooks.is_empty() && st.work_available.is_set() {
                        st.work_available.reset();
                    }
                }
                p.advance(poll).await;
            }
        });
        (engine, owner)
    }

    /// Register a hook; the engine wakes if it was idle. Callable from both
    /// process context (pass `ctx.handle()`) and scheduled callbacks — the
    /// device-side `MPIX_Pready` notification path registers from the
    /// latter. Once the daemon has stopped and its rank is gone, no hook
    /// can run again and the hook is dropped.
    pub fn register(&self, h: &parcomm_sim::SimHandle, hook: Arc<dyn PeHook>) {
        let Some(inner) = self.inner.upgrade() else { return };
        let ev = {
            let mut st = inner.lock();
            st.hooks.push(hook);
            st.work_available.clone()
        };
        ev.set(h);
    }

    /// True once an injected crash has permanently halted the engine.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Virtual instant of the engine's last hook sweep (its heartbeat).
    pub fn last_heartbeat(&self) -> SimTime {
        *self.heartbeat.lock()
    }

    /// Lease check: true when the engine is provably dead (crashed) or has
    /// hooks registered yet has not swept them within `lease_us` of `now`.
    /// A parked-idle engine (no hooks) never expires — there is nothing to
    /// take over. False positives on a merely-stalled engine are safe: the
    /// host-drain takeover pops from the same queue the PE hook drains, so
    /// each notification is serviced exactly once.
    pub fn lease_expired(&self, now: SimTime, lease_us: f64) -> bool {
        if self.is_crashed() {
            return true;
        }
        if self.hook_count() == 0 {
            return false;
        }
        now.saturating_since(self.last_heartbeat()).as_micros_f64() > lease_us
    }

    /// Number of registered hooks (diagnostics/tests).
    pub fn hook_count(&self) -> usize {
        self.inner.upgrade().map_or(0, |inner| inner.lock().hooks.len())
    }
}

/// Run `hook` once: step it, charging the host time its steps ask for.
async fn run_hook(hook: &Arc<dyn PeHook>, p: &Proc) -> HookOutcome {
    loop {
        match hook.step(p) {
            HookStep::Advance(dt) => p.advance(dt).await,
            HookStep::Await(run) => return run.await,
            HookStep::Done(outcome) => return outcome,
        }
    }
}
