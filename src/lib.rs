//! # parcomm — MPI-native GPU-initiated MPI Partitioned communication
//!
//! A Rust reproduction of *"Design and Implementation of MPI-Native
//! GPU-Initiated MPI Partitioned Communication"* (SC 2024): partitioned
//! point-to-point with device-side `MPIX_Pready` bindings (thread / warp /
//! block aggregation; Progression-Engine and Kernel-Copy mechanisms),
//! schedule-based partitioned collectives, and every substrate the paper's
//! system runs on — a deterministic simulated GH200 cluster (CUDA-like GPU
//! model, NVLink/C2C/InfiniBand fabric, UCX-like RMA layer, MPI core, and
//! an NCCL baseline).
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and
//! hardware-substitution rationale, and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use parcomm::prelude::*;
//!
//! let mut sim = Simulation::with_seed(42);
//! let world = MpiWorld::gh200(&sim, 1); // one node, four GH200
//! world.run_ranks(&mut sim, |ctx, rank| {
//!     let buf = rank.gpu().alloc_global(4 * 1024);
//!     match rank.rank() {
//!         0 => {
//!             buf.write_f64_slice(0, &[1.0; 512]);
//!             let sreq = psend_init(ctx, rank, 1, 7, &buf, 4).expect("init");
//!             sreq.start(ctx).expect("start");
//!             sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
//!             for u in 0..4 {
//!                 sreq.pready(ctx, u).expect("pready");
//!             }
//!             sreq.wait(ctx).expect("wait");
//!         }
//!         1 => {
//!             let rreq = precv_init(ctx, rank, 0, 7, &buf, 4).expect("init");
//!             rreq.start(ctx).expect("start");
//!             rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
//!             rreq.wait(ctx).expect("wait");
//!             assert_eq!(buf.read_f64(0), 1.0);
//!         }
//!         _ => {}
//!     }
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use parcomm_apps as apps;
pub use parcomm_coll as coll;
pub use parcomm_core as core;
pub use parcomm_fault as fault;
pub use parcomm_gpu as gpu;
pub use parcomm_mpi as mpi;
pub use parcomm_mux as mux;
pub use parcomm_nccl as nccl;
pub use parcomm_net as net;
pub use parcomm_obs as obs;
pub use parcomm_recover as recover;
pub use parcomm_shmem as shmem;
pub use parcomm_sim as sim;
pub use parcomm_ucx as ucx;

/// The common imports for writing parcomm programs.
pub mod prelude {
    pub use parcomm_coll::{pallreduce_init, pbcast_init, Pallreduce, Pbcast};
    pub use parcomm_core::{
        precv_init, prequest_create, psend_init, CopyMechanism, DevicePrequest, PrecvRequest,
        PrequestConfig, PsendRequest,
    };
    pub use parcomm_fault::FaultPlan;
    pub use parcomm_gpu::{AggLevel, Buffer, CostModel, DeviceCtx, Gpu, KernelSpec, Stream};
    pub use parcomm_mpi::{MpiError, MpiWorld, Rank, WorldConfig};
    pub use parcomm_mux::{ChannelSpec, Direction, MuxConfig, MuxService};
    pub use parcomm_nccl::{NcclComm, NcclConfig};
    pub use parcomm_net::ClusterSpec;
    pub use parcomm_recover::{RecoverPolicy, RecoveryReport};
    pub use parcomm_shmem::{ShmemError, SymmetricHeap};
    pub use parcomm_sim::{Ctx, Event, SimConfig, SimDuration, SimTime, Simulation};
}
