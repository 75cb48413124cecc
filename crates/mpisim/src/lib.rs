//! # parcomm-mpi — the MPI core substrate
//!
//! A simulated MPI over the UCX layer: `MPI_COMM_WORLD` with one rank per
//! GPU, tag-matched point-to-point (the paper's `MPI_Send`/`MPI_Recv`
//! baseline), the traditional host-driven ring `MPI_Allreduce` baseline,
//! and the per-rank progression engine the Partitioned component (and the
//! partitioned collectives) hook into.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coll;
mod error;
mod mechanism;
mod p2p;
mod progress;
mod world;

pub use coll::chunk_range;
pub use error::MpiError;
pub use mechanism::CopyMechanism;
pub use p2p::P2pOp;
pub use progress::{HookFuture, HookOutcome, HookStep, PeFaultConfig, PeHook, ProgressionEngine};
pub use world::{
    EscalationLevel, MpiInstruments, MpiWorld, Rank, RecoverConfig, RecoveryReport, WorldConfig,
};
