//! Higher-level synchronization built on [`Event`]: a barrier that blocks
//! in *virtual* time.

use std::sync::Arc;

use crate::lock::Mutex;

use crate::event::Event;
use crate::process::{Ctx, Proc};
use crate::sched::SimHandle;

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
