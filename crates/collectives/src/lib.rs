//! # parcomm-coll — MPI Partitioned collectives
//!
//! The first partitioned-collective schedule design (paper §IV-B): a
//! generic, algorithm-independent step schedule `S_i = (I, R, ⊕, O, A)`
//! built on the partitioned point-to-point library and progressed by the
//! Algorithm 2 state machine in `MPI_Wait`. Every collective is one
//! request type, [`PcollRequest`]; each `MPIX_P<collective>_init`
//! function only chooses this rank's [`Schedule`] — a ring
//! reduce-scatter-allgather allreduce (Algorithm 1) or its node-aware
//! hierarchical form, a binomial-tree broadcast, ring allgather and
//! reduce-scatter, chain gather and scatter, and pairwise alltoall.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod init;
mod schedule;

pub use engine::PcollRequest;
pub use init::{
    pallgather_init, pallreduce_init, pallreduce_init_hierarchical, palltoall_init, pbcast_init,
    pgather_init, preduce_scatter_init, pscatter_init,
};
pub use schedule::{Schedule, Step, StepOp};
