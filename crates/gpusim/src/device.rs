//! The GPU device object: memory allocation and stream creation. Peer
//! mappings for Kernel Copy live in ucxsim (`RKey::rkey_ptr`).

use std::sync::Arc;

use parcomm_sim::SimHandle;

use crate::cost::CostModel;
use crate::faults::{EmissionFaultConfig, EmissionSchedule};
use crate::mem::{Buffer, Location, MemSpace, Unit};
use crate::obs::{GpuMetrics, GpuObs};
use crate::stream::Stream;

/// Identity of a GPU in the cluster.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct GpuId {
    /// Node (host) index.
    pub node: u16,
    /// GPU index on that node.
    pub index: u8,
}

impl GpuId {
    /// The fabric location of this GPU.
    pub fn location(self) -> Location {
        Location { node: self.node, unit: Unit::Gpu(self.index) }
    }
}

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}.{}", self.node, self.index)
    }
}

struct GpuInner {
    id: GpuId,
    cost: CostModel,
    handle: SimHandle,
    /// Armed emission fault schedule, shared with every stream of this GPU.
    /// `None` (default) keeps the fault branch dormant.
    emission_faults: Arc<EmissionSchedule>,
    /// Armed symmetric-heap signal fault schedule, independent of the
    /// notification-flag schedule above.
    shmem_faults: Arc<EmissionSchedule>,
    /// Observability state (rank attribution + metrics), shared with every
    /// stream of this GPU.
    obs: Arc<GpuObs>,
}

/// A simulated GPU (one Hopper die of a GH200 superchip).
#[derive(Clone)]
pub struct Gpu {
    inner: Arc<GpuInner>,
}

impl Gpu {
    /// Create a GPU with the given identity and cost model, counting into
    /// the `gpu.*` instruments `metrics`.
    pub fn new(id: GpuId, cost: CostModel, handle: SimHandle, metrics: &GpuMetrics) -> Self {
        Gpu {
            inner: Arc::new(GpuInner {
                id,
                cost,
                handle,
                emission_faults: Arc::default(),
                shmem_faults: Arc::default(),
                obs: Arc::new(GpuObs::new(metrics)),
            }),
        }
    }

    /// Attribute this GPU's trace spans (kernels, stream syncs, and the
    /// notifications chained to them) to an MPI rank. Applies to existing
    /// and future streams; spans recorded earlier stay unattributed.
    pub fn set_rank(&self, rank: u32) {
        self.inner.obs.set_rank(rank);
    }

    /// Arm a deterministic emission fault schedule on this GPU: every N-th
    /// kernel emission (device flag write) is delayed or lost across all of
    /// the device's streams (existing and future). See [`EmissionFaultConfig`].
    pub fn arm_emission_faults(&self, cfg: EmissionFaultConfig) {
        self.inner.emission_faults.arm(cfg);
    }

    /// Arm a deterministic fault schedule for this GPU's *symmetric-heap*
    /// signal emissions (the shmem one-sided path): every N-th shmem
    /// put/signal is delayed or lost across all streams. Independent of
    /// [`arm_emission_faults`](Self::arm_emission_faults), so chaos
    /// campaigns can target one copy mechanism without perturbing the other.
    pub fn arm_shmem_signal_faults(&self, cfg: EmissionFaultConfig) {
        self.inner.shmem_faults.arm(cfg);
    }

    /// This GPU's identity.
    pub fn id(&self) -> GpuId {
        self.inner.id
    }

    /// The device's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The simulation handle this device schedules on.
    pub fn sim(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Allocate GPU global (HBM) memory.
    pub fn alloc_global(&self, len: usize) -> Buffer {
        Buffer::alloc(
            MemSpace::Device { node: self.inner.id.node, gpu: self.inner.id.index },
            len,
        )
    }

    /// Allocate page-locked host memory accessible by this device over
    /// NVLink-C2C (`cudaMallocHost`).
    pub fn alloc_pinned_host(&self, len: usize) -> Buffer {
        Buffer::alloc(MemSpace::PinnedHost { node: self.inner.id.node }, len)
    }

    /// Create a new stream on this device.
    pub fn create_stream(&self) -> Stream {
        Stream::new(
            self.inner.cost.clone(),
            self.inner.id.to_string(),
            self.inner.emission_faults.clone(),
            self.inner.shmem_faults.clone(),
            self.inner.obs.clone(),
        )
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu").field("id", &self.inner.id).finish()
    }
}
