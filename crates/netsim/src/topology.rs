//! First-class cluster topology: the single home of rank ↔ (node, GPU,
//! slot) mapping, locality queries, route classification, and NIC-rail
//! assignment.
//!
//! Every layer that used to do ad-hoc `rank % gpus_per_node` arithmetic
//! (fabric routing, rkey/IPC eligibility, world construction, collective
//! schedule builders) asks a [`Topology`] instead. The type is validated at
//! construction — see [`TopologyError`] — so a malformed [`ClusterSpec`]
//! fails loudly with a typed error rather than silently wrapping modulo
//! zero.
//!
//! Shapes are **ragged**: every node carries its own GPU and NIC count,
//! and a `ranks_per_gpu` factor oversubscribes ranks onto GPUs (multiple
//! ranks time-sharing one device, as real launchers do with
//! `node_rank % dev_count`). Rank layout is node-contiguous via prefix
//! sums: node `v` hosts the `gpus_on(v) · ranks_per_gpu` ranks starting at
//! `node_leader(v)`; within a node, local rank `j` drives GPU
//! `j % gpus_on(v)` in slot `j / gpus_on(v)`. Uniform one-rank-per-GPU
//! specs ([`Topology::new`]) reproduce the historical closed-form layout
//! (`rank = node * gpus_per_node + local_index`) exactly — every query is
//! observationally identical on them, which the frozen digests pin.
//!
//! The tables live behind an `Arc`, so `Topology` is `Clone` (one pointer
//! copy) but no longer `Copy`.

use std::sync::Arc;

use parcomm_gpu::{GpuId, Location, Unit};

use crate::spec::ClusterSpec;

/// Most local ranks one node may host (`gpus_on(v) · ranks_per_gpu`): the
/// per-node ring arithmetic and slot indices stay in `u8`-sized headroom.
pub const MAX_LOCAL_RANKS: usize = 256;

/// A malformed cluster shape, reported at [`Topology`] construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// `nodes == 0`: no cluster.
    ZeroNodes,
    /// `gpus_per_node == 0` in a uniform spec: ranks live on GPUs, so no
    /// ranks exist.
    ZeroGpusPerNode,
    /// A ragged spec listing a node with zero GPUs: a nodeless entry must
    /// be dropped from the spec, not carried as an empty shell.
    EmptyNode {
        /// The offending node index.
        node: u16,
    },
    /// `nics == 0` somewhere: cross-node routes would have no rail.
    ZeroNics,
    /// `ranks_per_gpu == 0`: no rank could be placed anywhere.
    ZeroRanksPerGpu,
    /// A node whose `gpus · ranks_per_gpu` exceeds `MAX_LOCAL_RANKS` (256).
    OversubscriptionOverflow {
        /// The offending node index.
        node: u16,
        /// Local ranks the spec asks the node to host.
        ranks: usize,
        /// The cap (`MAX_LOCAL_RANKS`, 256).
        max: usize,
    },
    /// A ragged spec whose per-node GPU and NIC lists disagree in length:
    /// the rail tables would have no shape to align to.
    RaggedRailMismatch {
        /// Number of per-node GPU counts supplied.
        gpu_nodes: usize,
        /// Number of per-node NIC counts supplied.
        nic_nodes: usize,
    },
    /// More NICs than GPUs on one node: the `GPU i → NIC i % nics` rail
    /// assignment would leave rails permanently dark, which is always a
    /// spec typo on the GH200-style one-NIC-per-GPU designs this models.
    NicsExceedGpus {
        /// The offending node index.
        node: u16,
        /// NICs on the offending node.
        nics: u8,
        /// GPUs on the offending node.
        gpus: u8,
    },
    /// A rank index outside `0..num_ranks()`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// World size of the topology.
        size: usize,
    },
    /// A `GpuId` naming a node or on-node index the topology doesn't have.
    GpuOutOfRange {
        /// The offending identity.
        node: u16,
        /// The offending on-node index.
        index: u8,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::ZeroNodes => write!(f, "cluster spec has zero nodes"),
            TopologyError::ZeroGpusPerNode => write!(f, "cluster spec has zero GPUs per node"),
            TopologyError::EmptyNode { node } => {
                write!(f, "cluster spec has zero GPUs on node {node}")
            }
            TopologyError::ZeroNics => write!(f, "cluster spec has zero NICs per node"),
            TopologyError::ZeroRanksPerGpu => write!(f, "cluster spec has zero ranks per GPU"),
            TopologyError::OversubscriptionOverflow { node, ranks, max } => {
                write!(
                    f,
                    "oversubscription would place {ranks} ranks on node {node} (max {max})"
                )
            }
            TopologyError::RaggedRailMismatch { gpu_nodes, nic_nodes } => {
                write!(
                    f,
                    "ragged spec lists {gpu_nodes} per-node GPU counts but {nic_nodes} per-node NIC counts"
                )
            }
            TopologyError::NicsExceedGpus { node, nics, gpus } => {
                write!(f, "cluster spec has more NICs ({nics}) than GPUs ({gpus}) on node {node}")
            }
            TopologyError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for world of {size} ranks")
            }
            TopologyError::GpuOutOfRange { node, index } => {
                write!(f, "gpu{node}.{index} does not exist in this topology")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The structural class of a route between two locations. Intra- and
/// inter-node paths are different *regimes* (different substrate, different
/// eligibility rules), not just different bandwidth values.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RouteClass {
    /// Source and destination are the same GPU (local HBM copy). With rank
    /// oversubscription this is a regime ranks actually exercise: two
    /// co-resident ranks share one device, so their traffic never leaves
    /// its HBM.
    SameGpu,
    /// GPU → GPU on one node: the dedicated NVLink pair.
    NvLink,
    /// GPU ↔ CPU on one node: the NVLink-C2C hop.
    C2cHost,
    /// CPU-local traffic on one node: the host-memory pseudo-link.
    HostLocal,
    /// Different nodes: NIC uplink → InfiniBand → NIC downlink. The only
    /// class where Kernel Copy is impossible and rail striping applies.
    IbCrossNode,
}

impl RouteClass {
    /// Classify the route between two locations. Pure — needs no spec,
    /// because the class depends only on where the endpoints sit.
    pub fn classify(src: Location, dst: Location) -> RouteClass {
        if src.node != dst.node {
            return RouteClass::IbCrossNode;
        }
        match (src.unit, dst.unit) {
            (Unit::Gpu(a), Unit::Gpu(b)) if a == b => RouteClass::SameGpu,
            (Unit::Gpu(_), Unit::Gpu(_)) => RouteClass::NvLink,
            (Unit::Gpu(_), Unit::Cpu) | (Unit::Cpu, Unit::Gpu(_)) => RouteClass::C2cHost,
            (Unit::Cpu, Unit::Cpu) => RouteClass::HostLocal,
        }
    }

    /// True when the route never leaves the node.
    pub fn is_intra_node(self) -> bool {
        !matches!(self, RouteClass::IbCrossNode)
    }

    /// True when a CUDA-IPC mapping of device memory can serve this route —
    /// the Kernel Copy substrate. Exactly the intra-node classes: IPC
    /// handles never cross the InfiniBand boundary, so cross-node traffic
    /// must take the Progression Engine path.
    pub fn ipc_eligible(self) -> bool {
        self.is_intra_node()
    }
}

/// The validated shape tables behind a [`Topology`].
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    /// GPUs on each node (`len() == nodes`, every entry > 0).
    node_gpus: Vec<u8>,
    /// NICs on each node (aligned with `node_gpus`, every entry > 0).
    node_nics: Vec<u8>,
    /// Ranks sharing each GPU (≥ 1; 1 = the paper's one-rank-per-GPU).
    ranks_per_gpu: u8,
    /// Prefix sums of per-node local rank counts: node `v` hosts ranks
    /// `rank_base[v]..rank_base[v + 1]`; the last entry is the world size.
    rank_base: Vec<usize>,
}

/// Validated cluster shape with every locality query the stack needs.
/// The tables sit behind an `Arc`; clone freely (one pointer copy).
#[derive(Clone, Debug, Eq)]
pub struct Topology {
    shape: Arc<Shape>,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Topology) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape) || *self.shape == *other.shape
    }
}

impl Topology {
    /// Build a uniform one-rank-per-GPU topology, validating it. This is
    /// the historical constructor: every node carries `gpus_per_node` GPUs
    /// and `nics_per_node` NICs, and the rank layout is the closed-form
    /// `rank = node * gpus_per_node + local_index`.
    pub fn new(nodes: u16, gpus_per_node: u8, nics_per_node: u8) -> Result<Topology, TopologyError> {
        if nodes == 0 {
            return Err(TopologyError::ZeroNodes);
        }
        if gpus_per_node == 0 {
            return Err(TopologyError::ZeroGpusPerNode);
        }
        Topology::ragged(
            vec![gpus_per_node; nodes as usize],
            vec![nics_per_node; nodes as usize],
            1,
        )
    }

    /// Build a ragged, possibly oversubscribed topology: `node_gpus[v]`
    /// GPUs and `node_nics[v]` NICs on node `v`, with `ranks_per_gpu`
    /// ranks sharing each GPU. The lists must align; every node needs at
    /// least one GPU and one NIC, no node may front more NICs than GPUs,
    /// and no node may host more than `MAX_LOCAL_RANKS` (256) ranks.
    pub fn ragged(
        node_gpus: Vec<u8>,
        node_nics: Vec<u8>,
        ranks_per_gpu: u8,
    ) -> Result<Topology, TopologyError> {
        if node_gpus.is_empty() {
            return Err(TopologyError::ZeroNodes);
        }
        if node_gpus.len() != node_nics.len() {
            return Err(TopologyError::RaggedRailMismatch {
                gpu_nodes: node_gpus.len(),
                nic_nodes: node_nics.len(),
            });
        }
        assert!(node_gpus.len() <= u16::MAX as usize, "node count exceeds u16");
        if ranks_per_gpu == 0 {
            return Err(TopologyError::ZeroRanksPerGpu);
        }
        let mut rank_base = Vec::with_capacity(node_gpus.len() + 1);
        rank_base.push(0usize);
        for (v, (&g, &k)) in node_gpus.iter().zip(&node_nics).enumerate() {
            if g == 0 {
                return Err(TopologyError::EmptyNode { node: v as u16 });
            }
            if k == 0 {
                return Err(TopologyError::ZeroNics);
            }
            if k > g {
                return Err(TopologyError::NicsExceedGpus { node: v as u16, nics: k, gpus: g });
            }
            let local = g as usize * ranks_per_gpu as usize;
            if local > MAX_LOCAL_RANKS {
                return Err(TopologyError::OversubscriptionOverflow {
                    node: v as u16,
                    ranks: local,
                    max: MAX_LOCAL_RANKS,
                });
            }
            let base = *rank_base.last().expect("non-empty");
            rank_base.push(base + local);
        }
        Ok(Topology {
            shape: Arc::new(Shape { node_gpus, node_nics, ranks_per_gpu, rank_base }),
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.shape.node_gpus.len() as u16
    }

    /// GPUs on the largest node. On uniform shapes this is *the* per-node
    /// GPU count (the historical meaning); ragged callers that need a
    /// specific node use [`Topology::gpus_on`].
    pub fn gpus_per_node(&self) -> u8 {
        *self.shape.node_gpus.iter().max().expect("validated non-empty")
    }

    /// NICs on the best-railed node. On uniform shapes this is *the*
    /// per-node NIC count; ragged callers that need a specific node use
    /// [`Topology::nics_on`].
    pub fn nics_per_node(&self) -> u8 {
        *self.shape.node_nics.iter().max().expect("validated non-empty")
    }

    /// GPUs on `node`.
    pub fn gpus_on(&self, node: u16) -> u8 {
        self.check_node(node);
        self.shape.node_gpus[node as usize]
    }

    /// NICs on `node`.
    pub fn nics_on(&self, node: u16) -> u8 {
        self.check_node(node);
        self.shape.node_nics[node as usize]
    }

    /// Ranks sharing each GPU (1 = no oversubscription).
    pub fn ranks_per_gpu(&self) -> u8 {
        self.shape.ranks_per_gpu
    }

    /// Local ranks hosted by `node` (`gpus_on(node) · ranks_per_gpu`).
    pub fn local_size(&self, node: u16) -> usize {
        self.gpus_on(node) as usize * self.shape.ranks_per_gpu as usize
    }

    /// The smallest per-node local rank count — the hierarchical
    /// schedules' core ring width (ragged nodes degrade to it).
    pub fn min_local_size(&self) -> usize {
        (0..self.nodes()).map(|v| self.local_size(v)).min().expect("non-empty")
    }

    /// True when every node carries the same GPU and NIC counts (the
    /// historical uniform deployment, oversubscribed or not).
    pub fn is_uniform(&self) -> bool {
        self.shape.node_gpus.iter().all(|&g| g == self.shape.node_gpus[0])
            && self.shape.node_nics.iter().all(|&k| k == self.shape.node_nics[0])
    }

    /// World size: `Σ_v gpus_on(v) · ranks_per_gpu`.
    pub fn num_ranks(&self) -> usize {
        *self.shape.rank_base.last().expect("non-empty")
    }

    fn check_rank(&self, rank: usize) -> usize {
        assert!(
            rank < self.num_ranks(),
            "{}",
            TopologyError::RankOutOfRange { rank, size: self.num_ranks() }
        );
        rank
    }

    fn check_node(&self, node: u16) -> u16 {
        assert!(node < self.nodes(), "node {node} out of range ({} nodes)", self.nodes());
        node
    }

    /// The node rank `r` runs on (prefix-sum lookup).
    pub fn node_of(&self, r: usize) -> u16 {
        self.check_rank(r);
        (self.shape.rank_base.partition_point(|&b| b <= r) - 1) as u16
    }

    /// Rank `r`'s index among its node's local ranks
    /// (`0..local_size(node)`). Equals the GPU index when
    /// `ranks_per_gpu == 1`.
    pub fn local_rank(&self, r: usize) -> usize {
        let node = self.node_of(r);
        r - self.shape.rank_base[node as usize]
    }

    /// The GPU rank `r` drives: local rank `j` on node `v` drives GPU
    /// `j % gpus_on(v)` — co-resident oversubscribed ranks share the id.
    pub fn gpu_of(&self, r: usize) -> GpuId {
        let node = self.node_of(r);
        let local = r - self.shape.rank_base[node as usize];
        let g = self.shape.node_gpus[node as usize] as usize;
        GpuId { node, index: (local % g) as u8 }
    }

    /// Rank `r`'s oversubscription slot on its GPU
    /// (`0..ranks_per_gpu`; always 0 without oversubscription).
    pub fn slot_of(&self, r: usize) -> u8 {
        let node = self.node_of(r);
        let local = r - self.shape.rank_base[node as usize];
        let g = self.shape.node_gpus[node as usize] as usize;
        (local / g) as u8
    }

    /// The primary (slot-0) rank driving `gpu`. The exact inverse of
    /// [`Topology::gpu_of`] without oversubscription.
    pub fn rank_of(&self, gpu: GpuId) -> usize {
        assert!(
            gpu.node < self.nodes() && gpu.index < self.shape.node_gpus[gpu.node as usize],
            "{}",
            TopologyError::GpuOutOfRange { node: gpu.node, index: gpu.index }
        );
        self.shape.rank_base[gpu.node as usize] + gpu.index as usize
    }

    /// Rank `r`'s GPU index on its node.
    pub fn local_index(&self, r: usize) -> u8 {
        self.gpu_of(r).index
    }

    /// The fabric location of rank `r`'s GPU.
    pub fn location_of(&self, r: usize) -> Location {
        self.gpu_of(r).location()
    }

    /// True when two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Route class between two ranks' GPUs. Oversubscribed co-resident
    /// ranks classify as [`RouteClass::SameGpu`].
    pub fn route_class(&self, a: usize, b: usize) -> RouteClass {
        RouteClass::classify(self.location_of(a), self.location_of(b))
    }

    /// The NIC rail serving `unit` on `node` for cross-node traffic:
    /// GPU *i* uses NIC *i* mod `nics_on(node)` (rail affinity by PCIe
    /// proximity on the GH200 boards); CPU traffic takes rail 0. This is
    /// the one place the assignment arithmetic lives.
    pub fn nic_of(&self, node: u16, unit: Unit) -> u8 {
        match unit {
            Unit::Gpu(i) => i % self.nics_on(node),
            Unit::Cpu => 0,
        }
    }

    /// The NIC rail serving rank `r`'s GPU.
    pub fn nic_of_rank(&self, r: usize) -> u8 {
        let gpu = self.gpu_of(r);
        self.nic_of(gpu.node, Unit::Gpu(gpu.index))
    }

    /// The `attempt`-th fallback rail on `node` starting from `preferred`
    /// (failover cycling — kept next to [`Topology::nic_of`] so rail
    /// arithmetic has a single home).
    pub fn cycle_nic(&self, node: u16, preferred: u8, attempt: u8) -> u8 {
        let n = self.nics_on(node);
        (preferred % n).wrapping_add(attempt) % n
    }

    /// The designated leader rank (local rank 0) of `node`.
    pub fn node_leader(&self, node: u16) -> usize {
        self.check_node(node);
        self.shape.rank_base[node as usize]
    }

    /// True when rank `r` is its node's leader.
    pub fn is_node_leader(&self, r: usize) -> bool {
        self.local_rank(r) == 0
    }

    /// The contiguous rank range living on `node`.
    pub fn ranks_on_node(&self, node: u16) -> std::ops::Range<usize> {
        self.check_node(node);
        self.shape.rank_base[node as usize]..self.shape.rank_base[node as usize + 1]
    }

    /// Next rank on rank `r`'s node-local ring (wraps within the node).
    pub fn local_next(&self, r: usize) -> usize {
        let node = self.node_of(r);
        let base = self.shape.rank_base[node as usize];
        base + (r - base + 1) % self.local_size(node)
    }

    /// Previous rank on rank `r`'s node-local ring.
    pub fn local_prev(&self, r: usize) -> usize {
        let node = self.node_of(r);
        let base = self.shape.rank_base[node as usize];
        let size = self.local_size(node);
        base + (r - base + size - 1) % size
    }

    /// True when `node` hosts a rank at local index `l` — i.e. the node
    /// participates in local index `l`'s inter-node rail ring.
    pub fn owns_local_rank(&self, node: u16, l: usize) -> bool {
        l < self.local_size(node)
    }

    /// The same-local-index rank on the next node *owning that index*
    /// (wraps): rank `r`'s neighbor on its NIC-rail-aligned inter-node
    /// ring. On uniform shapes every node owns every index, reproducing
    /// the historical node `+1` hop; ragged rail rings skip nodes too
    /// small to field the index.
    pub fn rail_next(&self, r: usize) -> usize {
        let l = self.local_rank(r);
        let n = self.nodes();
        let mut v = (self.node_of(r) + 1) % n;
        while !self.owns_local_rank(v, l) {
            v = (v + 1) % n;
        }
        self.shape.rank_base[v as usize] + l
    }

    /// The same-local-index rank on the previous owning node (wraps).
    pub fn rail_prev(&self, r: usize) -> usize {
        let l = self.local_rank(r);
        let n = self.nodes();
        let mut v = (self.node_of(r) + n - 1) % n;
        while !self.owns_local_rank(v, l) {
            v = (v + n - 1) % n;
        }
        self.shape.rank_base[v as usize] + l
    }
}

impl ClusterSpec {
    /// Validate the cluster shape, returning the typed defect if any.
    pub fn validate(&self) -> Result<(), TopologyError> {
        self.topology().map(|_| ())
    }

    /// The validated [`Topology`] of this spec. Uniform specs (no ragged
    /// overrides, `ranks_per_gpu ≤ 1`) take the historical closed-form
    /// path; any ragged field routes through [`Topology::ragged`].
    pub fn topology(&self) -> Result<Topology, TopologyError> {
        if self.node_gpus.is_empty() && self.node_nics.is_empty() && self.ranks_per_gpu <= 1 {
            return Topology::new(self.nodes, self.gpus_per_node, self.nics_per_node);
        }
        if self.node_gpus.is_empty() && self.nodes == 0 {
            return Err(TopologyError::ZeroNodes);
        }
        let gpus = if self.node_gpus.is_empty() {
            vec![self.gpus_per_node; self.nodes as usize]
        } else {
            self.node_gpus.clone()
        };
        let nics = if self.node_nics.is_empty() {
            vec![self.nics_per_node; gpus.len()]
        } else {
            self.node_nics.clone()
        };
        Topology::ragged(gpus, nics, self.ranks_per_gpu.max(1))
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_uniform() {
            write!(
                f,
                "{}x{} ({} NIC/node)",
                self.nodes(),
                self.shape.node_gpus[0],
                self.shape.node_nics[0]
            )?;
        } else {
            let gpus: Vec<String> =
                self.shape.node_gpus.iter().map(|g| g.to_string()).collect();
            let nics: Vec<String> =
                self.shape.node_nics.iter().map(|k| k.to_string()).collect();
            write!(f, "{}:{}", gpus.join(","), nics.join(","))?;
        }
        if self.shape.ranks_per_gpu > 1 {
            write!(f, " @{} ranks/GPU", self.shape.ranks_per_gpu)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(n: u16, g: u8, k: u8) -> Topology {
        Topology::new(n, g, k).expect("valid topology")
    }

    fn ragged(gpus: &[u8], nics: &[u8], o: u8) -> Topology {
        Topology::ragged(gpus.to_vec(), nics.to_vec(), o).expect("valid ragged topology")
    }

    #[test]
    fn validation_rejects_degenerate_shapes() {
        assert_eq!(Topology::new(0, 4, 4), Err(TopologyError::ZeroNodes));
        assert_eq!(Topology::new(2, 0, 4), Err(TopologyError::ZeroGpusPerNode));
        assert_eq!(Topology::new(2, 4, 0), Err(TopologyError::ZeroNics));
        assert_eq!(
            Topology::new(2, 2, 4),
            Err(TopologyError::NicsExceedGpus { node: 0, nics: 4, gpus: 2 })
        );
        let mut spec = ClusterSpec::gh200(2);
        assert!(spec.validate().is_ok());
        spec.nodes = 0;
        assert_eq!(spec.validate(), Err(TopologyError::ZeroNodes));
    }

    #[test]
    fn validation_rejects_degenerate_ragged_shapes() {
        assert_eq!(Topology::ragged(vec![], vec![], 1), Err(TopologyError::ZeroNodes));
        assert_eq!(
            Topology::ragged(vec![4, 0, 2], vec![4, 1, 2], 1),
            Err(TopologyError::EmptyNode { node: 1 })
        );
        assert_eq!(
            Topology::ragged(vec![4, 2], vec![4, 0], 1),
            Err(TopologyError::ZeroNics)
        );
        assert_eq!(
            Topology::ragged(vec![4, 2], vec![4, 2], 0),
            Err(TopologyError::ZeroRanksPerGpu)
        );
        assert_eq!(
            Topology::ragged(vec![4, 2, 1], vec![4, 2], 1),
            Err(TopologyError::RaggedRailMismatch { gpu_nodes: 3, nic_nodes: 2 })
        );
        assert_eq!(
            Topology::ragged(vec![4, 2], vec![4, 3], 1),
            Err(TopologyError::NicsExceedGpus { node: 1, nics: 3, gpus: 2 })
        );
        assert_eq!(
            Topology::ragged(vec![4, 200], vec![4, 2], 2),
            Err(TopologyError::OversubscriptionOverflow {
                node: 1,
                ranks: 400,
                max: MAX_LOCAL_RANKS
            })
        );
    }

    #[test]
    fn rank_gpu_mapping_round_trips() {
        let t = topo(3, 4, 2);
        assert_eq!(t.num_ranks(), 12);
        for r in 0..t.num_ranks() {
            let gpu = t.gpu_of(r);
            assert_eq!(t.rank_of(gpu), r);
            assert_eq!(t.node_of(r), gpu.node);
            assert_eq!(t.local_index(r), gpu.index);
            assert_eq!(t.local_rank(r), gpu.index as usize);
            assert_eq!(t.slot_of(r), 0);
            assert_eq!(t.location_of(r), gpu.location());
        }
        assert_eq!(t.gpu_of(5), GpuId { node: 1, index: 1 });
        assert!(t.is_uniform());
    }

    #[test]
    fn ragged_prefix_sum_layout() {
        // Nodes of 4/2/4/1 GPUs — the canonical ragged shape.
        let t = ragged(&[4, 2, 4, 1], &[2, 1, 2, 1], 1);
        assert_eq!(t.num_ranks(), 11);
        assert_eq!(t.nodes(), 4);
        assert!(!t.is_uniform());
        assert_eq!(t.gpus_per_node(), 4); // max over nodes
        assert_eq!(t.nics_per_node(), 2);
        assert_eq!(t.min_local_size(), 1);
        assert_eq!((t.node_leader(0), t.node_leader(1), t.node_leader(2), t.node_leader(3)),
                   (0, 4, 6, 10));
        assert_eq!(t.ranks_on_node(1), 4..6);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.gpu_of(5), GpuId { node: 1, index: 1 });
        assert_eq!(t.gpu_of(10), GpuId { node: 3, index: 0 });
        // Node-local rings wrap within each node's own width.
        assert_eq!(t.local_next(5), 4);
        assert_eq!(t.local_prev(4), 5);
        assert_eq!(t.local_next(10), 10); // 1-GPU node: self-ring
        // NIC rails cycle over the node-local NIC count.
        assert_eq!(t.nic_of_rank(1), 1); // node 0: GPU 1 % 2 NICs
        assert_eq!(t.nic_of_rank(5), 0); // node 1: GPU 1 % 1 NIC
    }

    #[test]
    fn ragged_rail_rings_skip_small_nodes() {
        let t = ragged(&[4, 2, 4, 1], &[2, 1, 2, 1], 1);
        // Local index 0 exists everywhere: full node ring 0→1→2→3→0.
        assert_eq!(t.rail_next(0), 4);
        assert_eq!(t.rail_next(4), 6);
        assert_eq!(t.rail_next(6), 10);
        assert_eq!(t.rail_next(10), 0);
        assert_eq!(t.rail_prev(0), 10);
        // Local index 1 skips node 3 (1 GPU).
        assert_eq!(t.rail_next(1), 5);
        assert_eq!(t.rail_next(5), 7);
        assert_eq!(t.rail_next(7), 1);
        assert_eq!(t.rail_prev(1), 7);
        // Local index 3 exists only on nodes 0 and 2.
        assert_eq!(t.rail_next(3), 9);
        assert_eq!(t.rail_next(9), 3);
    }

    #[test]
    fn oversubscription_shares_gpus_and_classifies_same_gpu() {
        // 2 nodes × 2 GPUs, 2 ranks per GPU: local ranks 0..4, GPU j % 2.
        let t = ragged(&[2, 2], &[2, 2], 2);
        assert_eq!(t.num_ranks(), 8);
        assert_eq!(t.ranks_per_gpu(), 2);
        assert_eq!(t.local_size(0), 4);
        // Ranks 0 and 2 co-reside on node 0 GPU 0 (slots 0 and 1).
        assert_eq!(t.gpu_of(0), t.gpu_of(2));
        assert_eq!((t.slot_of(0), t.slot_of(2)), (0, 1));
        assert_eq!(t.route_class(0, 2), RouteClass::SameGpu);
        assert_eq!(t.route_class(0, 1), RouteClass::NvLink);
        assert_eq!(t.route_class(0, 4), RouteClass::IbCrossNode);
        // rank_of returns the slot-0 primary.
        assert_eq!(t.rank_of(t.gpu_of(2)), 0);
        // The local ring runs over all 4 local ranks.
        assert_eq!(t.local_next(3), 0);
        // Rail rings pair equal local ranks across nodes.
        assert_eq!(t.rail_next(2), 6);
        assert_eq!(t.rail_prev(6), 2);
    }

    #[test]
    #[should_panic(expected = "rank 12 out of range")]
    fn rank_out_of_range_panics() {
        topo(3, 4, 2).gpu_of(12);
    }

    #[test]
    fn route_classes() {
        let gpu = |node, i| Location { node, unit: Unit::Gpu(i) };
        let cpu = |node| Location { node, unit: Unit::Cpu };
        assert_eq!(RouteClass::classify(gpu(0, 1), gpu(0, 1)), RouteClass::SameGpu);
        assert_eq!(RouteClass::classify(gpu(0, 1), gpu(0, 2)), RouteClass::NvLink);
        assert_eq!(RouteClass::classify(gpu(0, 1), cpu(0)), RouteClass::C2cHost);
        assert_eq!(RouteClass::classify(cpu(0), gpu(0, 3)), RouteClass::C2cHost);
        assert_eq!(RouteClass::classify(cpu(0), cpu(0)), RouteClass::HostLocal);
        assert_eq!(RouteClass::classify(gpu(0, 1), gpu(1, 1)), RouteClass::IbCrossNode);
        assert!(RouteClass::NvLink.ipc_eligible());
        assert!(RouteClass::C2cHost.ipc_eligible());
        assert!(!RouteClass::IbCrossNode.ipc_eligible());
        assert!(!RouteClass::IbCrossNode.is_intra_node());
    }

    #[test]
    fn rails_and_rings() {
        let t = topo(4, 4, 2);
        // GPU i rides NIC i % 2.
        assert_eq!(t.nic_of(0, Unit::Gpu(0)), 0);
        assert_eq!(t.nic_of(0, Unit::Gpu(3)), 1);
        assert_eq!(t.nic_of(0, Unit::Cpu), 0);
        assert_eq!(t.nic_of_rank(7), 1);
        // Failover rail cycling stays node-local.
        assert_eq!(t.cycle_nic(0, 1, 1), 0);
        // Leaders and node rank ranges.
        assert_eq!(t.node_leader(2), 8);
        assert!(t.is_node_leader(8));
        assert!(!t.is_node_leader(9));
        assert_eq!(t.ranks_on_node(1), 4..8);
        // Node-local ring wraps within the node.
        assert_eq!(t.local_next(7), 4);
        assert_eq!(t.local_prev(4), 7);
        // Rail ring hops nodes at fixed local index.
        assert_eq!(t.rail_next(13), 1); // node 3, gpu 1 -> node 0, gpu 1
        assert_eq!(t.rail_prev(1), 13);
        assert_eq!(t.route_class(0, 1), RouteClass::NvLink);
        assert_eq!(t.route_class(0, 4), RouteClass::IbCrossNode);
        assert!(t.same_node(4, 7));
        assert!(!t.same_node(3, 4));
    }
}
