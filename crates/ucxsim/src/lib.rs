//! # parcomm-ucx — the UCP-like communication layer
//!
//! Reproduces the API boundary the paper's Partitioned component is written
//! against (§II-C, §IV-A): workers and endpoints, tagged active messages for
//! the `setup_t` bootstrap exchange, registered memory with packable remote
//! keys, non-blocking RMA puts whose caller's long-lived sink lands them and chains, and the
//! modified CUDA-IPC `rkey_ptr` that underpins the Kernel Copy path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod rma;
mod worker;

pub use parcomm_net::MAX_STRIPES;
pub use rma::{
    IpcMapping, MemHandle, Put, PutHandle, PutOpts, PutStatus, RKey, PUT_MAX_ATTEMPTS,
    PUT_RETRY_BACKOFF_US,
};
pub use worker::{
    AmMessage, Endpoint, UcxError, UcxUniverse, Worker, WorkerAddress, AM_MAX_ATTEMPTS,
    AM_RETRY_BACKOFF_US,
};
