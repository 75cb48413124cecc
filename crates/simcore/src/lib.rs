//! # parcomm-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the whole `parcomm` reproduction. Provides:
//!
//! - a virtual clock ([`SimTime`], [`SimDuration`]) with nanosecond
//!   resolution;
//! - **simulation processes**, exactly one runnable at a time
//!   (SimGrid-style cooperative scheduling): blocking-style user code on a
//!   pooled worker thread — so `MPI_Wait` can be written as an ordinary
//!   blocking call — or a future polled in place, with no thread at all;
//! - **scheduled callbacks** for fine-grained hardware events (DMA
//!   completions, flag writes) that run inline on whichever thread drives
//!   the event loop, without thread-switch cost; a long-lived model object
//!   schedules itself as an [`Action`] with a token (often a [`Slab`] key)
//!   instead of boxing a closure per occurrence;
//! - wake-up primitives: [`Event`], [`CountEvent`], [`SimBarrier`];
//! - deterministic seeded randomness ([`SimRng`]) for timing jitter;
//! - [`FxHashMap`]/[`FxHashSet`], maps keyed by small integers that hash
//!   with a multiply instead of SipHash;
//! - deadlock detection and daemon-process shutdown semantics.
//!
//! ## Example
//!
//! ```
//! use parcomm_sim::{Simulation, SimConfig, SimDuration, Event};
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let done = Event::new();
//! let done2 = done.clone();
//! sim.spawn("producer", move |ctx| {
//!     ctx.advance(SimDuration::from_micros(5));
//!     done2.set(&ctx.handle());
//! });
//! sim.spawn("consumer", move |ctx| {
//!     ctx.wait(&done);
//!     assert_eq!(ctx.now().as_micros_f64(), 5.0);
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time.as_micros_f64(), 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod event;
mod hash;
mod lock;
mod pool;
mod process;
mod rng;
mod sched;
mod slab;
mod sync;
mod time;
mod trace;

pub use error::{BlockedProcess, SimError};
pub use event::{CountEvent, Event};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use lock::Mutex;
pub use process::{Ctx, Proc};
pub use rng::SimRng;
pub use sched::{
    Action, ProcessId, SimConfig, SimHandle, SimReport, Simulation, SpawnHandle, WeakSimHandle,
};
pub use slab::Slab;
pub use sync::SimBarrier;
pub use time::{SimDuration, SimTime};
pub use trace::{SpanId, Trace, TraceSpan};
