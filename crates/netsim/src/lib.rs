//! # parcomm-net — the cluster interconnect model
//!
//! Substitutes the GH200 testbed's physical fabric (NVLink 4 between GPUs,
//! NVLink-C2C between Grace and Hopper, ConnectX-7 InfiniBand between nodes)
//! with an occupancy-aware link model: every link is a FIFO resource, every
//! transfer serializes on its route and accumulates hop latency. See
//! `DESIGN.md` §2 for calibration values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fabric;
mod faults;
mod multipath;
mod spec;
mod topology;

pub use fabric::{Fabric, LinkId, Route, StripeArrival, StripedTransfer, Transfer, WireAttr};
pub use faults::{NetError, NetFaultConfig, NicOutage, MAX_RETRANSMITS};
pub use multipath::{MultiPathPlan, PlanError, Stripe, MAX_STRIPES};
pub use spec::{ClusterSpec, LinkSpec};
pub use topology::{RouteClass, Topology, TopologyError};
