//! CUDA-style streams: FIFO queues of device operations.
//!
//! A stream tracks a `busy_until` horizon. Each enqueued operation begins at
//! `max(enqueue_time + launch_latency, busy_until)` and advances the horizon
//! by its duration, which reproduces FIFO in-order execution and the
//! back-to-back pipelining of consecutive launches.
//!
//! `synchronize` reproduces the paper's `cudaStreamSynchronize` behaviour:
//! the host blocks until the last enqueued operation completes, then pays the
//! fixed ~7.8 µs synchronization cost (Fig. 2) regardless of how much device
//! work was pending.

use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_sim::{Ctx, Event, Proc, SimDuration, SimHandle, SimTime, SpanId};

use crate::cost::CostModel;
use crate::faults::{EmissionFate, EmissionFaults};
use crate::kernel::{DeviceCtx, EmissionKind, KernelSpec, LaunchHandle};
use crate::obs::GpuObs;

struct StreamState {
    busy_until: SimTime,
    /// Completion event of the most recently enqueued operation; starts set
    /// (an idle stream synchronizes immediately).
    tail_done: Event,
}

/// A FIFO stream of device operations on one GPU.
#[derive(Clone)]
pub struct Stream {
    inner: Arc<StreamInner>,
}

struct StreamInner {
    cost: CostModel,
    state: Mutex<StreamState>,
    gpu_name: String,
    /// The owning GPU's notification-flag fault schedule (shared across its
    /// streams).
    emission_faults: Arc<Mutex<Option<EmissionFaults>>>,
    /// The owning GPU's symmetric-heap signal fault schedule, kept separate
    /// so chaos campaigns can fault one mechanism without the other.
    shmem_faults: Arc<Mutex<Option<EmissionFaults>>>,
    /// The owning GPU's observability state (rank attribution + metrics).
    obs: Arc<GpuObs>,
}

impl Stream {
    pub(crate) fn new(
        cost: CostModel,
        handle: SimHandle,
        gpu_name: String,
        emission_faults: Arc<Mutex<Option<EmissionFaults>>>,
        shmem_faults: Arc<Mutex<Option<EmissionFaults>>>,
        obs: Arc<GpuObs>,
    ) -> Self {
        let tail_done = Event::new();
        tail_done.set(&handle); // idle stream: nothing to wait for
        Stream {
            inner: Arc::new(StreamInner {
                cost,
                state: Mutex::new(StreamState { busy_until: SimTime::ZERO, tail_done }),
                gpu_name,
                emission_faults,
                shmem_faults,
                obs,
            }),
        }
    }

    /// The owning device's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Launch a kernel. Charges the host the launch-enqueue cost, runs the
    /// body against a [`DeviceCtx`] to collect functional effects and timed
    /// emissions, and returns a handle whose `done` event fires when the
    /// kernel's execution window closes.
    pub fn launch(
        &self,
        ctx: &mut Ctx,
        spec: KernelSpec,
        body: impl FnOnce(&mut DeviceCtx<'_>),
    ) -> LaunchHandle {
        // Host-side enqueue cost (cudaLaunchKernel).
        ctx.advance(SimDuration::from_micros_f64(self.inner.cost.kernel_launch_host_us));
        self.enqueue_kernel(&ctx.handle(), spec, body)
    }

    /// Async [`Stream::launch`], for code run under `Ctx::block_on` (the
    /// body is held across the host-charge await, so it must be `Send`
    /// there).
    pub async fn launch_async(
        &self,
        p: &Proc,
        spec: KernelSpec,
        body: impl FnOnce(&mut DeviceCtx<'_>),
    ) -> LaunchHandle {
        p.advance(SimDuration::from_micros_f64(self.inner.cost.kernel_launch_host_us)).await;
        self.enqueue_kernel(&p.handle(), spec, body)
    }

    fn enqueue_kernel(
        &self,
        h: &SimHandle,
        spec: KernelSpec,
        body: impl FnOnce(&mut DeviceCtx<'_>),
    ) -> LaunchHandle {
        let now = h.now();
        let latency = SimDuration::from_micros_f64(self.inner.cost.kernel_launch_latency_us);
        let mut st = self.inner.state.lock();
        let start = (now + latency).max(st.busy_until);

        // Run the body "at launch": functional effects apply immediately
        // (never later than their visibility events), timed emissions are
        // scheduled below.
        let mut dctx = DeviceCtx::new(&spec, &self.inner.cost, h, start);
        body(&mut dctx);
        let (duration, emissions) = dctx.finish();

        let end = start + duration;
        st.busy_until = end;
        let done = Event::new();
        st.tail_done = done.clone();
        drop(st);

        let span =
            h.trace().record_attr("kernel", start, end, self.inner.obs.rank(), None, SpanId::NONE);
        self.inner.obs.count_kernel(emissions.len() as u64);
        for (offset, kind, cb) in emissions {
            // The window invariant is checked on the *natural* offset; an
            // injected delay may legitimately land past the window (the flag
            // write drains after the kernel retires).
            debug_assert!(
                offset <= duration,
                "kernel '{}' emission at {offset} beyond its window {duration}",
                spec.name
            );
            let schedule = match kind {
                EmissionKind::FlagWrite => &self.inner.emission_faults,
                EmissionKind::Shmem => &self.inner.shmem_faults,
            };
            let fate = match schedule.lock().as_mut() {
                Some(f) => f.classify(),
                None => EmissionFate::Normal,
            };
            match fate {
                EmissionFate::Normal => {
                    h.schedule_at(start + offset, move |h| cb(h, span));
                }
                EmissionFate::Delayed(extra_us) => h.schedule_at(
                    start + offset + SimDuration::from_micros_f64(extra_us),
                    move |h| cb(h, span),
                ),
                EmissionFate::Lost => {
                    // The flag write never becomes visible; downstream
                    // watchdogs turn the missing arrival into a typed error.
                }
            }
        }
        {
            let done = done.clone();
            h.schedule_at(end, move |h| done.set(h));
        }
        LaunchHandle { done, start, end, span }
    }

    /// Enqueue an opaque device-time operation of the given duration (e.g. a
    /// cudaMemcpyAsync whose time was computed by the fabric model). Returns
    /// its completion handle.
    pub fn enqueue_busy(&self, h: &SimHandle, label: &'static str, duration: SimDuration) -> LaunchHandle {
        let _ = label;
        let now = h.now();
        let mut st = self.inner.state.lock();
        let start = now.max(st.busy_until);
        let end = start + duration;
        st.busy_until = end;
        let done = Event::new();
        st.tail_done = done.clone();
        drop(st);
        {
            let done = done.clone();
            h.schedule_at(end, move |h| done.set(h));
        }
        LaunchHandle { done, start, end, span: SpanId::NONE }
    }

    /// `cudaStreamSynchronize`: block the calling host process until all
    /// enqueued work completes, then pay the fixed synchronization cost.
    pub fn synchronize(&self, ctx: &mut Ctx) {
        let stream = self.clone();
        let p = ctx.proc();
        ctx.block_on(async move { stream.synchronize_async(&p).await });
    }

    /// Async [`Stream::synchronize`], for code run under `Ctx::block_on`.
    pub async fn synchronize_async(&self, p: &Proc) {
        loop {
            let tail = self.inner.state.lock().tail_done.clone();
            p.wait(&tail).await;
            // New work may have been enqueued while we waited (by another
            // host thread); re-check until the tail is stable and done.
            let stable = {
                let st = self.inner.state.lock();
                st.tail_done.is_set()
            };
            if stable {
                break;
            }
        }
        let sync = p.jitter_us(
            self.inner.cost.stream_sync_us,
            self.inner.cost.stream_sync_jitter_us,
        );
        let t0 = p.now();
        p.advance(sync).await;
        p.handle().trace().record_attr(
            "stream_sync",
            t0,
            p.now(),
            self.inner.obs.rank(),
            None,
            SpanId::NONE,
        );
        self.inner.obs.count_stream_sync();
    }

    /// True when no device work is pending at the current instant.
    pub fn is_idle(&self, h: &SimHandle) -> bool {
        let st = self.inner.state.lock();
        st.busy_until <= h.now() && st.tail_done.is_set()
    }

    /// The instant the device becomes free given work enqueued so far.
    pub fn busy_until(&self) -> SimTime {
        self.inner.state.lock().busy_until
    }

    /// Name of the owning GPU (diagnostics).
    pub fn gpu_name(&self) -> &str {
        &self.inner.gpu_name
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("gpu", &self.inner.gpu_name)
            .field("busy_until", &self.inner.state.lock().busy_until)
            .finish()
    }
}
