//! Higher-level synchronization built on [`Event`]: channels, semaphores,
//! and barriers that block in *virtual* time.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::lock::Mutex;

use crate::event::Event;
use crate::process::{Ctx, Proc};
use crate::sched::SimHandle;

/// An unbounded multi-producer multi-consumer channel delivering instantly
/// (zero virtual latency). Latency, if desired, is modeled by the sender
/// advancing time or by scheduling the send via a callback.
pub struct SimChannel<T> {
    inner: Arc<Mutex<ChannelState<T>>>,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    /// Fired when the queue becomes non-empty; reset under lock by receivers.
    nonempty: Event,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel { inner: self.inner.clone() }
    }
}

impl<T> Default for SimChannel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SimChannel<T> {
    /// Create an empty channel.
    pub fn new() -> Self {
        SimChannel {
            inner: Arc::new(Mutex::new(ChannelState {
                queue: VecDeque::new(),
                nonempty: Event::named("channel"),
            })),
        }
    }

    /// Create an empty channel whose blocked receivers show up in deadlock
    /// diagnostics under `channel '<label>'`.
    pub fn named(label: impl Into<String>) -> Self {
        let ch = SimChannel::new();
        ch.inner.lock().nonempty.set_label(format!("channel '{}'", label.into()));
        ch
    }

    /// Enqueue a value (from a process or a scheduled callback).
    pub fn send(&self, h: &SimHandle, value: T) {
        let ev = {
            let mut st = self.inner.lock();
            st.queue.push_back(value);
            st.nonempty.clone()
        };
        ev.set(h);
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let mut st = self.inner.lock();
        let v = st.queue.pop_front();
        if st.queue.is_empty() && st.nonempty.is_set() {
            st.nonempty.reset();
        }
        v
    }

    /// Blocking receive in virtual time.
    pub fn recv(&self, ctx: &mut Ctx) -> T {
        loop {
            if let Some(v) = self.try_recv() {
                return v;
            }
            let ev = self.inner.lock().nonempty.clone();
            ctx.wait(&ev);
        }
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A counting semaphore in virtual time.
pub struct Semaphore {
    inner: Arc<Mutex<SemState>>,
}

struct SemState {
    permits: u64,
    available: Event,
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        Semaphore { inner: self.inner.clone() }
    }
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            inner: Arc::new(Mutex::new(SemState {
                permits,
                available: Event::named("semaphore"),
            })),
        }
    }

    /// Acquire one permit, blocking in virtual time if none are available.
    pub fn acquire(&self, ctx: &mut Ctx) {
        loop {
            {
                let mut st = self.inner.lock();
                if st.permits > 0 {
                    st.permits -= 1;
                    return;
                }
            }
            let ev = self.inner.lock().available.clone();
            ctx.wait(&ev);
            // Reset so subsequent waits block again; benign if several
            // waiters race, they re-check permits above.
            let st = self.inner.lock();
            if st.permits == 0 && st.available.is_set() {
                st.available.reset();
            }
        }
    }

    /// Release one permit, waking a waiter if any.
    pub fn release(&self, h: &SimHandle) {
        let ev = {
            let mut st = self.inner.lock();
            st.permits += 1;
            st.available.clone()
        };
        ev.set(h);
    }

    /// Currently available permits.
    pub fn permits(&self) -> u64 {
        self.inner.lock().permits
    }
}

/// A reusable N-party barrier in virtual time (used for rank start-up and
/// epoch alignment in benchmarks).
pub struct SimBarrier {
    inner: Arc<Mutex<BarrierState>>,
    parties: usize,
}

struct BarrierState {
    arrived: usize,
    release: Event,
}

impl Clone for SimBarrier {
    fn clone(&self) -> Self {
        SimBarrier { inner: self.inner.clone(), parties: self.parties }
    }
}

impl SimBarrier {
    /// Create a barrier for `parties` processes.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0);
        SimBarrier {
            inner: Arc::new(Mutex::new(BarrierState {
                arrived: 0,
                release: Event::named("barrier"),
            })),
            parties,
        }
    }

    /// Arrive and wait for all parties. The last arriver releases everyone
    /// and resets the barrier for the next generation.
    pub fn wait(&self, ctx: &mut Ctx) {
        if let Some(release) = self.arrive(&ctx.handle()) {
            ctx.wait(&release);
        }
    }

    /// Async [`SimBarrier::wait`], for code run under `Ctx::block_on` or in
    /// a thread-free process.
    pub async fn wait_async(&self, p: &Proc) {
        if let Some(release) = self.arrive(&p.handle()) {
            p.wait(&release).await;
        }
    }

    /// Count one party in. The last arriver fires the generation's release
    /// event, installs a fresh one for the next generation and gets `None`;
    /// every other party gets the event to wait on.
    fn arrive(&self, h: &SimHandle) -> Option<Event> {
        let release = {
            let mut st = self.inner.lock();
            st.arrived += 1;
            if st.arrived < self.parties {
                return Some(st.release.clone());
            }
            st.arrived = 0;
            std::mem::replace(&mut st.release, Event::named("barrier"))
        };
        release.set(h);
        None
    }

    /// Number of participating processes.
    pub fn parties(&self) -> usize {
        self.parties
    }
}
