//! # parcomm-gpu — the simulated GPU substrate
//!
//! A software model of the CUDA execution environment the paper's system
//! runs on: devices, global/pinned memory, FIFO streams,
//! `cudaStreamSynchronize` and kernel launches with a calibrated cost
//! model. Kernel Copy's CUDA-IPC peer mapping is ucxsim's `rkey_ptr`.
//! See `DESIGN.md` §2 for the hardware-substitution rationale and the
//! calibration anchors.
//!
//! The model is *functional + timed*: kernel bodies really read and write
//! simulated buffers (so numerics are exact), while the cost model places
//! every action on the virtual timeline (so the paper's latency/overlap
//! shapes are reproduced).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
mod device;
mod faults;
mod kernel;
mod mem;
mod obs;
mod stream;

pub use cost::{AggLevel, CostModel};
pub use device::{Gpu, GpuId};
pub use faults::EmissionFaultConfig;
pub use kernel::{DeviceCtx, KernelSpec, LaunchHandle};
#[doc(hidden)]
pub use mem::pages_allocated;
pub use mem::{Buffer, BufferId, Location, MemSpace, Unit, WeakBuffer};
pub use obs::GpuMetrics;
pub use stream::Stream;
