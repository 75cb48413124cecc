//! # parcomm-core — MPI-native GPU-initiated MPI Partitioned communication
//!
//! The paper's primary contribution: a UCX-based Partitioned point-to-point
//! component with device bindings.
//!
//! - **Host API** (MPI-4.0 + proposed extensions): [`psend_init`],
//!   [`precv_init`], `start`, `pbuf_prepare` (the proposed
//!   `MPIX_Pbuf_prepare` remote-buffer-readiness guarantee), host
//!   `pready`/`parrived`, `wait`/`test`.
//! - **Device API**: [`prequest_create`]/`free` building the slim
//!   [`DevicePrequest`] (`MPIX_Prequest`), with in-kernel
//!   `pready_all`/`pready_users` at thread/warp/block aggregation levels
//!   ([`parcomm_gpu::AggLevel`]) and three copy mechanisms
//!   ([`CopyMechanism::ProgressionEngine`], [`CopyMechanism::KernelCopy`],
//!   [`CopyMechanism::Shmem`] — the symmetric-heap one-sided backend).
//!
//! See `DESIGN.md` for the experiment map and calibration anchors.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod channel;
mod device;
mod overheads;
mod recv;
mod send;
mod watchdog;

pub use batch::pbuf_prepare_batch_async;
pub use device::{prequest_create, prequest_create_async, DevicePrequest, PrequestConfig};
pub use overheads::{ApiOverheads, Overhead};
pub use parcomm_mpi::{CopyMechanism, MpiError};
pub use parcomm_shmem::ShmemError;
pub use recv::{precv_init, precv_init_async, PrecvRequest};
pub use send::{psend_init, psend_init_async, transport_of_user, PsendRequest};
