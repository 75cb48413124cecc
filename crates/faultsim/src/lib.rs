//! # parcomm-fault — deterministic fault injection for the parcomm stack
//!
//! Chaos engineering for a discrete-event simulator has one extra
//! obligation the real world never grants: **replayability**. Every fault a
//! [`FaultPlan`] injects is derived from the plan's own seed through
//! dedicated RNGs (or deterministic counters), never from the simulation's
//! main jitter RNG, so:
//!
//! - the same `(sim seed, FaultPlan)` pair always reproduces the identical
//!   faulted trace, byte for byte — a chaos failure is a unit test, not a
//!   flake;
//! - [`FaultPlan::none`] arms nothing: zero extra events, zero extra RNG
//!   draws, and a run digest **byte-identical** to a build without the
//!   fault machinery.
//!
//! ## Fault classes
//!
//! | Class | Injected at | Recovery |
//! |---|---|---|
//! | transient link drop / latency spike | `netsim` fabric | retransmit / absorb — latency only, never integrity |
//! | NIC outage window | `netsim` routing | re-route + re-stripe over surviving rails; UCX put retry with backoff if the whole node is dark |
//! | progression-engine stall | `mpisim` PE daemon | bounded: delayed puts, then catches up |
//! | progression-engine crash | `mpisim` PE daemon | recovery off: watchdog surfaces [`MpiError::ProgressionHalted`]; recovery on: host lease-detects the dead engine, drains its queue, and replays the epoch |
//! | delayed / lost device flag write | `gpusim` stream emission | delayed: absorbed; lost: watchdog surfaces a typed timeout |
//! | delayed / lost device shmem signal | `gpusim` stream emission (symmetric-heap channels) | delayed: absorbed; lost: epoch replay re-issues the put host-side when recovery is armed, typed timeout otherwise |
//! | symmetric-heap registration failure | `parcomm-shmem` heap | the channel demotes to the Progression Engine with a typed `ShmemError` denial |
//! | IPC revocation mid-epoch | `ucxsim` rkey | Kernel Copy falls back to the Progression Engine per `MPIX_Pready` |
//!
//! Unsurvivable classes require an armed watchdog
//! ([`FaultPlan::with_watchdog`]) to convert the would-be hang into a typed
//! [`MpiError`]; [`FaultPlan::chaos`] and every campaign plan arm one.
//!
//! ## Cells and campaigns
//!
//! A [`chaos::Cell`] is one workload (allreduce, device-initiated p2p,
//! MoE, Jacobi) plus the world axes it runs under (cluster shape, stripes,
//! copy mechanism, channels, recovery); [`chaos::Cell::run`] executes it
//! under a plan. [`chaos::run_world`] runs a custom rank program, and
//! [`chaos::run_allreduce`] is the canonical cell the frozen digests
//! anchor on.
//!
//! A campaign ([`coverage`]) is one engine with two plan sources
//! ([`PlanSource`]): a fixed `chaos(seed, rate)` grid, or a
//! coverage-guided search over fault-class × layer points. Either way the
//! whole plan list is generated serially, run on the `parcomm-sweep` pool
//! (each cell twice, against one fault-free baseline per workload), judged
//! by one contract, and any violation is shrunk to a minimal replayable
//! plan. The `chaos_campaign` binary drives it.
//!
//! ## Quickstart
//!
//! ```
//! use parcomm_fault::{chaos, FaultPlan};
//!
//! // Seeded chaos: transient drops + spikes + one NIC down-window.
//! let plan = FaultPlan::chaos(0xC4A05, 0.3).expect("rate in [0, 1]");
//! let a = chaos::run_allreduce(7, &plan, 1);
//! let b = chaos::run_allreduce(7, &plan, 1);
//! assert_eq!(a.digest, b.digest, "same (seed, plan) => same trace");
//! assert!(a.survived(), "chaos defaults are survivable");
//!
//! // The baseline is untouched: FaultPlan::none() arms nothing.
//! assert_ne!(chaos::run_allreduce(7, &FaultPlan::none(), 1).digest, a.digest);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod coverage;
mod plan;

pub use coverage::{
    run_campaign, run_campaign_with_sink, CampaignConfig, CampaignReport, CellOutcome, FaultClass,
    FaultLayer, PlanSource,
};
pub use parcomm_mpi::MpiError;
pub use plan::{FaultPlan, PlanError};
