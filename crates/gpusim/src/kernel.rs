//! Kernel launches and the device-side execution context.
//!
//! A kernel is described by a [`KernelSpec`] (geometry + per-thread resource
//! counts, which drive the cost model) and an optional **body closure** that
//! runs once per launch against a [`DeviceCtx`]. The body performs the
//! kernel's *functional* effects (reading/writing simulated buffers) and
//! records *timed* device-side actions — notification-flag writes, in-kernel
//! NVLink stores — as offsets within the kernel's execution window. The
//! stream engine then schedules those actions at `kernel_start + offset`,
//! each as its emitter's [`Action`] `Arc` plus a token, so a launch
//! allocates nothing per emission.
//!
//! This keeps the programming model close to the paper's Listing 2 — the
//! body is "the kernel", and calling the device-side partitioned API inside
//! it both moves data and costs time — without simulating 10⁸ CUDA threads
//! individually.

use std::sync::Arc;

use parcomm_sim::{Action, CountEvent, Ctx, SimDuration, SimHandle, SimTime, SpanId};

use crate::cost::CostModel;

/// What kind of device-visible side effect an emission is. The stream
/// engine classifies each kind against its own fault schedule: pinned-host
/// flag writes (the PE/KC notification path) against the flag schedule,
/// symmetric-heap signals (the shmem one-sided path) against the shmem
/// schedule — so chaos campaigns can fault one mechanism without touching
/// the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EmissionKind {
    /// A pinned-host notification-flag write (`MPIX_Pready` device flag).
    FlagWrite,
    /// A symmetric-heap one-sided put/signal emission.
    Shmem,
}

/// A timed device-side action: an emitter and its token, due at an offset
/// within the kernel's execution window.
pub(crate) type Emission = (SimDuration, EmissionKind, Arc<dyn Action>, u64);

/// Geometry and resource description of a kernel launch.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Kernel name (diagnostics only).
    pub name: &'static str,
    /// Number of thread blocks ("grid size" in the paper's figures).
    pub grid_dim: u32,
    /// Threads per block (≤ 1024 on Hopper).
    pub block_dim: u32,
    /// Bytes each thread reads from global memory.
    pub bytes_read_per_thread: u64,
    /// Bytes each thread writes to global memory.
    pub bytes_written_per_thread: u64,
    /// Floating-point operations per thread.
    pub flops_per_thread: f64,
}

impl KernelSpec {
    /// A kernel with the given geometry and no modeled memory/compute
    /// traffic (cost = fixed launch cost only).
    pub fn new(name: &'static str, grid_dim: u32, block_dim: u32) -> Self {
        assert!((1..=1024).contains(&block_dim), "block_dim must be 1..=1024");
        assert!(grid_dim >= 1, "grid_dim must be >= 1");
        KernelSpec {
            name,
            grid_dim,
            block_dim,
            bytes_read_per_thread: 0,
            bytes_written_per_thread: 0,
            flops_per_thread: 0.0,
        }
    }

    /// Set per-thread global-memory traffic (read, written) in bytes.
    pub fn with_memory_traffic(mut self, read: u64, written: u64) -> Self {
        self.bytes_read_per_thread = read;
        self.bytes_written_per_thread = written;
        self
    }

    /// Set per-thread flop count.
    pub fn with_flops(mut self, flops: f64) -> Self {
        self.flops_per_thread = flops;
        self
    }

    /// The paper's vector-add workload: `C = A + B`, 8 B elements, so each
    /// thread reads 16 B, writes 8 B, and does 1 flop.
    pub fn vector_add(grid_dim: u32, block_dim: u32) -> Self {
        KernelSpec::new("vector_add", grid_dim, block_dim)
            .with_memory_traffic(16, 8)
            .with_flops(1.0)
    }

    /// Total threads in the launch.
    pub fn threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }
}

/// The device-side context a kernel body runs against.
///
/// Provides the clock-free facilities a kernel has: extending its own
/// execution time (modeling in-kernel communication work) and scheduling
/// timed emissions (flag writes, copy completions) at offsets inside its
/// execution window.
pub struct DeviceCtx<'a> {
    spec: &'a KernelSpec,
    cost: &'a CostModel,
    handle: &'a SimHandle,
    start: SimTime,
    /// Duration of the pure-compute phase (from the spec).
    compute: SimDuration,
    /// Extra device time accumulated by in-kernel communication.
    extra: SimDuration,
    /// Timed actions: (offset from kernel start, kind, emitter, token).
    emissions: Vec<Emission>,
    /// Host-flag writes already issued by this kernel (the fixed drain
    /// latency `a` of the `a + n·b` model is paid once per kernel).
    flag_writes_done: u32,
}

impl<'a> DeviceCtx<'a> {
    pub(crate) fn new(
        spec: &'a KernelSpec,
        cost: &'a CostModel,
        handle: &'a SimHandle,
        start: SimTime,
    ) -> Self {
        let compute = cost.kernel_duration(spec);
        DeviceCtx {
            spec,
            cost,
            handle,
            start,
            compute,
            extra: SimDuration::ZERO,
            emissions: Vec::new(),
            flag_writes_done: 0,
        }
    }

    /// The launch geometry of this kernel.
    pub fn spec(&self) -> &KernelSpec {
        self.spec
    }

    /// The cost model of the device this kernel runs on.
    pub fn cost(&self) -> &CostModel {
        self.cost
    }

    /// Virtual instant at which this kernel starts executing on the device.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// Duration of the compute phase (before any in-kernel communication
    /// tail added with [`extend`](Self::extend)).
    pub fn compute_duration(&self) -> SimDuration {
        self.compute
    }

    /// Offset of the current end of the kernel (compute + accumulated extra).
    pub fn current_end_offset(&self) -> SimDuration {
        self.compute + self.extra
    }

    /// Add device time to this kernel (in-kernel sync, flag writes, NVLink
    /// stores). Returns the new end offset.
    pub fn extend(&mut self, d: SimDuration) -> SimDuration {
        self.extra += d;
        self.current_end_offset()
    }

    /// Run `emitter.run(h, token, kernel_span)` at `offset` from kernel
    /// start, as a pinned-host notification-flag write: the stream engine
    /// classifies it against the GPU's flag-write fault schedule. The
    /// emitter is a long-lived model object (a device request, a
    /// collective engine) and `token` says which of its actions is due
    /// (for example a transport partition); `kernel_span` is the emitting
    /// kernel's trace span ([`SpanId::NONE`] when tracing is off), so the
    /// action can be causally chained to the kernel. The kernel's
    /// execution window is *not* implicitly extended; call
    /// [`extend`](Self::extend) for actions that occupy the device.
    pub fn at_offset(&mut self, offset: SimDuration, emitter: Arc<dyn Action>, token: u64) {
        self.emissions.push((offset, EmissionKind::FlagWrite, emitter, token));
    }

    /// Like [`at_offset`](Self::at_offset), but tagged as a symmetric-heap
    /// emission: the stream engine classifies it against the GPU's *shmem*
    /// signal fault schedule
    /// ([`Gpu::arm_shmem_signal_faults`](crate::Gpu::arm_shmem_signal_faults))
    /// instead of the notification-flag schedule.
    pub fn at_offset_shmem(&mut self, offset: SimDuration, emitter: Arc<dyn Action>, token: u64) {
        self.emissions.push((offset, EmissionKind::Shmem, emitter, token));
    }

    /// Non-blocking access to the simulation (e.g. for reading the RNG).
    pub fn sim(&self) -> &SimHandle {
        self.handle
    }

    /// Cost (µs) of issuing `n` more pinned-host notification writes from
    /// this kernel. The first train of the kernel pays the fixed drain
    /// latency `a`; later trains (e.g. additional channels in the same
    /// kernel) ride the already-primed pipeline and pay only `n·b`.
    pub fn flag_write_train_us(&mut self, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let base = if self.flag_writes_done == 0 { self.cost.host_flag_write_base_us } else { 0.0 };
        self.flag_writes_done += n;
        base + n as f64 * self.cost.host_flag_write_per_us
    }

    pub(crate) fn finish(self) -> (SimDuration, Vec<Emission>) {
        (self.compute + self.extra, self.emissions)
    }
}

/// Handle to an in-flight (or completed) kernel launch, or to another
/// operation enqueued on a stream.
///
/// A stream completes its operations in issue order, so it counts them on
/// one completion counter: the operation is done once the counter has
/// reached its place in the stream. No event is made per launch.
#[derive(Clone, Debug)]
pub struct LaunchHandle {
    /// The stream's completion counter.
    pub(crate) completed: CountEvent,
    /// This operation's place in its stream (1 for the first).
    pub(crate) seq: u64,
    /// Kernel start on the device.
    pub start: SimTime,
    /// Kernel end on the device.
    pub end: SimTime,
    /// Trace span of the launch ([`SpanId::NONE`] when tracing is off).
    pub span: SpanId,
}

impl LaunchHandle {
    /// Device-side execution duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// True once the operation's execution window has closed.
    pub fn is_done(&self) -> bool {
        self.completed.count() >= self.seq
    }

    /// Block the calling host process until the operation completes.
    pub fn wait(&self, ctx: &mut Ctx) {
        ctx.wait_count(&self.completed, self.seq);
    }
}
