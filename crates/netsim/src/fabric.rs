//! The fabric: routed, occupancy-aware data transfers between locations.
//!
//! Each physical link is a FIFO resource with a `busy_until` horizon;
//! a transfer reserves every hop of its route — cut-through, so the hops
//! of one message overlap after a segment delay — and accumulates per-hop
//! propagation latency. Concurrent transfers over the same link queue
//! behind each other, which is what produces bandwidth contention in the
//! ring-collective experiments.
//!
//! Two functions put bytes on the wire: [`Fabric::try_transfer`] moves one
//! message over its route, and [`Fabric::try_transfer_planned`] executes a
//! [`MultiPathPlan`]. Both take a [`WireAttr`] naming what their `wire`
//! spans record, and both return a typed [`NetError`] instead of
//! panicking when an armed outage leaves no route; a caller with no
//! recovery path unwraps at its own call site.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{Location, Unit};
use parcomm_obs::{Counter, Histogram, MetricsRegistry};
use parcomm_sim::{SimDuration, SimHandle, SimTime, SpanId};

use crate::faults::{NetError, NetFaultConfig, NetFaults};
use crate::multipath::{relay_for_rail, MultiPathPlan, PlanError};
use crate::spec::{ClusterSpec, LinkSpec};
use crate::topology::{RouteClass, Topology, TopologyError};

/// Index of a physical link within the fabric.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(usize);

impl LinkId {
    /// The link's position in the fabric's link table. Each node's links
    /// sit in one block, in this order: the host-memory link; per GPU its
    /// C2C uplink, C2C downlink and NVLinks to every other GPU in index
    /// order; per NIC its IB uplink and downlink.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Kinds of physical links the GH200 topology instantiates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum LinkKey {
    /// Directed GPU→GPU NVLink on `node` from `src` to `dst`.
    NvLink { node: u16, src: u8, dst: u8 },
    /// Directed C2C hop on `node` for `gpu`; `up == true` means GPU→CPU.
    C2c { node: u16, gpu: u8, up: bool },
    /// IB uplink (`up == true`, node→switch) or downlink for `nic` on `node`.
    Ib { node: u16, nic: u8, up: bool },
    /// Host-memory pseudo-link on `node` (same-CPU copies).
    HostMem { node: u16 },
}

struct Link {
    spec: LinkSpec,
    /// The instant, in nanoseconds, until which the link is reserved. Only
    /// the simulation's baton holder reserves links, so a plain load and
    /// store suffice: no lock, no read-modify-write instruction.
    busy_until: AtomicU64,
}

impl Link {
    /// Reserve the link for `bytes` starting no earlier than `at`;
    /// returns (start, end-of-serialization).
    fn reserve(&self, at: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let busy = SimTime::from_nanos(self.busy_until.load(Ordering::Acquire));
        let start = at.max(busy);
        let end = start + SimDuration::from_micros_f64(self.spec.serialize_us(bytes));
        self.busy_until.store(end.as_nanos(), Ordering::Release);
        (start, end)
    }
}

/// Where a node's links start in the link table, and how many GPUs and
/// NICs the block covers (see [`LinkId::index`] for the block layout).
struct NodeLinks {
    base: usize,
    gpus: usize,
    nics: usize,
}

impl NodeLinks {
    /// Links in one node's block.
    fn len(&self) -> usize {
        1 + self.gpus * (self.gpus + 1) + 2 * self.nics
    }

    /// Offset of `key`'s link within the block, if the node has it.
    fn offset(&self, key: LinkKey) -> Option<usize> {
        // Each GPU owns a C2C pair plus `gpus - 1` NVLinks.
        let gpu_block = |gpu: u8| 1 + gpu as usize * (self.gpus + 1);
        match key {
            LinkKey::HostMem { .. } => Some(0),
            LinkKey::C2c { gpu, up, .. } if (gpu as usize) < self.gpus => {
                Some(gpu_block(gpu) + usize::from(!up))
            }
            LinkKey::NvLink { src, dst, .. }
                if (src as usize) < self.gpus && (dst as usize) < self.gpus && src != dst =>
            {
                // NVLinks skip the GPU itself.
                Some(gpu_block(src) + 2 + dst as usize - usize::from(dst > src))
            }
            LinkKey::Ib { nic, up, .. } if (nic as usize) < self.nics => {
                Some(1 + self.gpus * (self.gpus + 1) + 2 * nic as usize + usize::from(!up))
            }
            _ => None,
        }
    }
}

impl LinkKey {
    fn node(self) -> u16 {
        match self {
            LinkKey::NvLink { node, .. }
            | LinkKey::C2c { node, .. }
            | LinkKey::Ib { node, .. }
            | LinkKey::HostMem { node } => node,
        }
    }
}

/// Most hops a route takes: a planned cross-node stripe's NVLink relay,
/// IB uplink, IB downlink and NVLink relay.
const MAX_HOPS: usize = 4;

/// Bytes that clear a hop before a cut-through message starts on the next.
const SEGMENT_BYTES: u64 = 64 * 1024;

/// A completed routing decision: the hops a message traverses. Holds them
/// inline, so a route is a plain copyable value.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    hops: [LinkId; MAX_HOPS],
    len: u8,
    /// Total propagation latency across hops.
    pub latency: SimDuration,
}

impl Route {
    /// The links the route crosses, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.hops[..self.len as usize]
    }
}

/// An in-flight or completed transfer. The fabric moves time only and
/// queues nothing: the caller queues the arrival itself, as its landing
/// ([`SimHandle::land_at`]) when it acts at `arrival`, or as a bare
/// [`SimHandle::tick_at`] when nothing of its own lands at that instant.
/// Either way the arrival counts as one processed event and takes the
/// queue slot it took when transfers fired their own completion event.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    /// When the first hop started serializing.
    pub start: SimTime,
    /// When the last byte arrives at the destination.
    pub arrival: SimTime,
    /// The transfer's `wire` trace span ([`SpanId::NONE`] when tracing is
    /// off), for causal chaining by the transport above.
    pub span: SpanId,
}

/// What a transfer's `wire` trace span records beyond its times: the
/// caller's span as causal parent, and the destination MPI rank and
/// partition the bytes deliver into, so `obs::critical` sees the
/// cross-rank hop exactly instead of inferring it. Digest-neutral: span
/// digests hash only `(category, start, end)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WireAttr {
    /// The span that caused the transfer ([`SpanId::NONE`] when none).
    pub cause: SpanId,
    /// Rank whose memory the transfer lands in.
    pub dst_rank: Option<u32>,
    /// Transport partition the transfer serves, when meaningful.
    pub partition: Option<u32>,
}

impl WireAttr {
    /// No cause and no attribution.
    pub const NONE: WireAttr = WireAttr { cause: SpanId::NONE, dst_rank: None, partition: None };
}

/// The per-stripe outcome of a planned multi-path transfer: which byte
/// range landed when, over which rail.
#[derive(Clone, Debug)]
pub struct StripeArrival {
    /// Stripe index within the plan.
    pub index: usize,
    /// Byte offset of the stripe within the payload.
    pub offset: u64,
    /// Stripe length in bytes.
    pub len: u64,
    /// The NIC rail the stripe actually rode (after outage re-striping);
    /// `None` for intra-node stripes and single-path delegation.
    pub rail: Option<u8>,
    /// When the stripe's last byte arrives at the destination.
    pub arrival: SimTime,
    /// The stripe's `wire` trace span ([`SpanId::NONE`] when tracing is
    /// off), for per-stripe causal chaining by the transport above.
    pub span: SpanId,
}

/// An in-flight or completed multi-path transfer executed from a
/// [`MultiPathPlan`]: per-stripe arrivals for partial reassembly plus the
/// overall arrival of the slowest stripe. As with a [`Transfer`], the
/// caller queues the overall `arrival`: the first entry it queues at that
/// instant is the landing, or it queues a tick there.
#[derive(Clone, Debug)]
pub struct StripedTransfer {
    /// When the first stripe's first hop started serializing.
    pub start: SimTime,
    /// When the whole payload is reassembled (slowest stripe's arrival,
    /// plus any fault penalty).
    pub arrival: SimTime,
    /// Per-stripe arrivals, in payload order.
    pub stripes: Vec<StripeArrival>,
}

/// Metrics instruments for the fabric (`net.transfers`, `net.bytes`,
/// `net.fault_penalties`, `net.bytes_hist`, `net.rail<N>.bytes`).
struct NetInstruments {
    transfers: Counter,
    bytes: Counter,
    fault_penalties: Counter,
    bytes_hist: Histogram,
    /// Per-NIC-rail bytes for cross-node traffic, indexed by rail.
    rail_bytes: Vec<Counter>,
}

struct FabricInner {
    spec: ClusterSpec,
    topology: Topology,
    handle: SimHandle,
    links: Vec<Link>,
    /// Per node, where its block of `links` starts.
    nodes: Vec<NodeLinks>,
    /// Armed fault schedule; `None` (the default) keeps every fault branch
    /// dormant so fault-free runs draw nothing and schedule nothing extra.
    faults: Mutex<Option<NetFaults>>,
    /// Set once `faults` holds a schedule, so every transfer of a
    /// fault-free run checks one flag instead of taking the lock.
    armed: AtomicBool,
    instruments: NetInstruments,
}

/// The cluster interconnect. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Build the fabric for `spec`, scheduling completions on `handle` and
    /// counting its `net.*` metrics into `registry`. Panics on a malformed
    /// spec; use [`Fabric::try_new`] for the typed error.
    pub fn new(handle: SimHandle, spec: ClusterSpec, registry: &MetricsRegistry) -> Fabric {
        Fabric::try_new(handle, spec, registry)
            .unwrap_or_else(|e| panic!("invalid cluster spec: {e}"))
    }

    /// Fallible form of [`Fabric::new`]: validates the spec's shape into a
    /// [`Topology`] and reports the typed defect instead of panicking.
    pub fn try_new(
        handle: SimHandle,
        spec: ClusterSpec,
        registry: &MetricsRegistry,
    ) -> Result<Fabric, TopologyError> {
        let topology = spec.topology()?;
        let mut links = Vec::new();
        let mut nodes = Vec::new();
        let mut add = |ls: &LinkSpec| {
            links.push(Link { spec: ls.clone(), busy_until: AtomicU64::new(0) });
        };
        // Instantiate each node's own GPU/NIC complement (ragged shapes
        // carry per-node counts; uniform specs reproduce the historical
        // link set exactly), in the block order `NodeLinks::offset` reads.
        let mut base = 0;
        for node in 0..topology.nodes() {
            let (gpus, nics) = (topology.gpus_on(node), topology.nics_on(node));
            add(&spec.host_mem);
            for _gpu in 0..gpus {
                add(&spec.c2c); // up
                add(&spec.c2c); // down
                for _peer in 1..gpus {
                    add(&spec.nvlink);
                }
            }
            for _nic in 0..nics {
                add(&spec.ib); // up
                add(&spec.ib); // down
            }
            let block = NodeLinks { base, gpus: gpus as usize, nics: nics as usize };
            base += block.len();
            nodes.push(block);
        }
        debug_assert_eq!(base, links.len());
        let rails = topology.nics_per_node();
        let mut block = registry.block(3 + rails as usize, 1);
        let instruments = NetInstruments {
            transfers: block.counter("net.transfers"),
            bytes: block.counter("net.bytes"),
            fault_penalties: block.counter("net.fault_penalties"),
            bytes_hist: block.histogram("net.bytes_hist"),
            rail_bytes: (0..rails)
                .map(|nic| block.counter(format!("net.rail{nic}.bytes")))
                .collect(),
        };
        Ok(Fabric {
            inner: Arc::new(FabricInner {
                spec,
                topology,
                handle,
                links,
                nodes,
                faults: Mutex::new(None),
                armed: AtomicBool::new(false),
                instruments,
            }),
        })
    }

    /// Count one transfer; `rail_shares` yields cross-node `(nic, bytes)`
    /// shares (none for intra-node traffic; a rail may appear more than
    /// once).
    fn count_transfer(&self, bytes: u64, rail_shares: impl IntoIterator<Item = (u8, u64)>) {
        let i = &self.inner.instruments;
        i.transfers.inc();
        i.bytes.add(bytes);
        i.bytes_hist.record(bytes);
        for (nic, share) in rail_shares {
            if let Some(c) = i.rail_bytes.get(nic as usize) {
                c.add(share);
            }
        }
    }

    /// Arm a deterministic fault schedule on this fabric. Fault decisions
    /// draw from a dedicated RNG seeded by `cfg.seed`, so the simulation's
    /// main RNG stream is untouched. Call before traffic starts.
    pub fn arm_faults(&self, cfg: NetFaultConfig) {
        *self.inner.faults.lock() = Some(NetFaults::new(cfg));
        self.inner.armed.store(true, Ordering::Release);
    }

    /// True if a fault schedule is armed.
    pub fn faults_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Acquire)
    }

    /// The cluster specification this fabric was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// The validated topology of this fabric.
    pub fn topology(&self) -> Topology {
        self.inner.topology.clone()
    }

    /// The simulation handle the fabric schedules on.
    pub fn sim(&self) -> &SimHandle {
        &self.inner.handle
    }

    fn link(&self, key: LinkKey) -> LinkId {
        let block = self.inner.nodes.get(key.node() as usize);
        match block.and_then(|b| Some(b.base + b.offset(key)?)) {
            Some(id) => LinkId(id),
            None => panic!("no such link in topology: {key:?}"),
        }
    }

    /// The route over `hops`, with their summed propagation latency.
    fn route_over(&self, links: &[LinkId]) -> Route {
        let mut hops = [LinkId(0); MAX_HOPS];
        hops[..links.len()].copy_from_slice(links);
        let latency = links
            .iter()
            .map(|id| SimDuration::from_micros_f64(self.inner.links[id.0].spec.latency_us))
            .sum();
        Route { hops, len: links.len() as u8, latency }
    }

    /// Reserve every hop of `route` for `bytes`, no earlier than `at`.
    /// Multi-hop routes are cut-through: hop *i+1* begins once the first
    /// segment clears hop *i*. Returns when the first hop started
    /// serializing and when the last byte arrives (the last hop's end plus
    /// the route's latency).
    fn reserve(&self, route: &Route, at: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let mut cursor = at;
        let mut first_start = None;
        let mut tail = at;
        for id in route.links() {
            let link = &self.inner.links[id.0];
            let (s, e) = link.reserve(cursor, bytes);
            first_start.get_or_insert(s);
            // Next hop starts after the first segment clears this one.
            cursor = s + SimDuration::from_micros_f64(
                link.spec.serialize_us(bytes.min(SEGMENT_BYTES)),
            );
            tail = tail.max(e);
        }
        (first_start.unwrap_or(at), tail + route.latency)
    }

    fn nic_for(&self, loc: Location) -> u8 {
        self.inner.topology.nic_of(loc.node, loc.unit)
    }

    /// Pick a usable NIC on `node` for a transfer starting at `at`,
    /// preferring `preferred` and steering around armed outages. With no
    /// faults armed this is `preferred` unconditionally.
    fn pick_nic(&self, node: u16, preferred: u8, at: SimTime) -> Result<u8, NetError> {
        if !self.faults_armed() {
            return Ok(preferred);
        }
        let guard = self.inner.faults.lock();
        let Some(f) = guard.as_ref() else { return Ok(preferred) };
        for i in 0..self.inner.topology.nics_on(node) {
            let nic = self.inner.topology.cycle_nic(node, preferred, i);
            if f.nic_up(node, nic, at) {
                return Ok(nic);
            }
        }
        Err(NetError::NoNicAvailable { node, at_us: at.as_micros_f64() })
    }

    /// The NIC rails (paired by index on both nodes) usable at `at` for a
    /// striped cross-node transfer: the thinner node's NIC count bounds
    /// the pairing on ragged shapes. Errors only when no rail survives.
    fn up_rails(&self, src_node: u16, dst_node: u16, at: SimTime) -> Result<Vec<u8>, NetError> {
        let n = self.inner.topology.nics_on(src_node).min(self.inner.topology.nics_on(dst_node));
        if !self.faults_armed() {
            return Ok((0..n).collect());
        }
        let guard = self.inner.faults.lock();
        let Some(f) = guard.as_ref() else { return Ok((0..n).collect()) };
        let rails: Vec<u8> = (0..n)
            .filter(|&nic| f.nic_up(src_node, nic, at) && f.nic_up(dst_node, nic, at))
            .collect();
        if rails.is_empty() {
            let src_down = (0..n).filter(|&nic| !f.nic_up(src_node, nic, at)).count();
            let dst_down = (0..n).filter(|&nic| !f.nic_up(dst_node, nic, at)).count();
            let node = if src_down >= dst_down { src_node } else { dst_node };
            return Err(NetError::NoNicAvailable { node, at_us: at.as_micros_f64() });
        }
        Ok(rails)
    }

    /// Latency penalty for one transfer from the armed fault schedule
    /// (retransmits + spikes); zero — with no RNG draw — when unarmed.
    fn fault_penalty(&self) -> SimDuration {
        if !self.faults_armed() {
            return SimDuration::ZERO;
        }
        let penalty = {
            let mut guard = self.inner.faults.lock();
            match guard.as_mut() {
                Some(f) => SimDuration::from_micros_f64(f.draw_penalty_us()),
                None => SimDuration::ZERO,
            }
        };
        if !penalty.is_zero() {
            self.inner.instruments.fault_penalties.inc();
        }
        penalty
    }

    /// Compute the route between two locations.
    ///
    /// Intra-node GPU→GPU takes the dedicated NVLink pair; GPU↔CPU takes the
    /// C2C hop; cross-node routes go NIC uplink → NIC downlink with the
    /// GPU-direct PCIe/C2C cost folded into the IB latency.
    pub fn route(&self, src: Location, dst: Location) -> Route {
        let node = src.node;
        match RouteClass::classify(src, dst) {
            // Local copy within one unit's memory: host-mem pseudo-link for
            // CPUs; GPU-local copies are modeled by the GPU cost model and
            // take the host-mem link's latency floor here.
            RouteClass::SameGpu | RouteClass::HostLocal => {
                self.route_over(&[self.link(LinkKey::HostMem { node })])
            }
            RouteClass::NvLink => match (src.unit, dst.unit) {
                (Unit::Gpu(a), Unit::Gpu(b)) => {
                    self.route_over(&[self.link(LinkKey::NvLink { node, src: a, dst: b })])
                }
                _ => unreachable!("NvLink class implies GPU endpoints"),
            },
            RouteClass::C2cHost => match (src.unit, dst.unit) {
                (Unit::Gpu(a), Unit::Cpu) => {
                    self.route_over(&[self.link(LinkKey::C2c { node, gpu: a, up: true })])
                }
                (Unit::Cpu, Unit::Gpu(b)) => {
                    self.route_over(&[self.link(LinkKey::C2c { node, gpu: b, up: false })])
                }
                _ => unreachable!("C2cHost class implies one GPU and one CPU endpoint"),
            },
            RouteClass::IbCrossNode => {
                self.ib_route(src.node, self.nic_for(src), dst.node, self.nic_for(dst))
            }
        }
    }

    /// The cross-node route from `src_nic`'s uplink on `src_node` to
    /// `dst_nic`'s downlink on `dst_node`.
    fn ib_route(&self, src_node: u16, src_nic: u8, dst_node: u16, dst_nic: u8) -> Route {
        self.route_over(&[
            self.link(LinkKey::Ib { node: src_node, nic: src_nic, up: true }),
            self.link(LinkKey::Ib { node: dst_node, nic: dst_nic, up: false }),
        ])
    }

    /// Bottleneck bandwidth (GB/s) along the route between two locations.
    pub fn path_bandwidth_gbps(&self, src: Location, dst: Location) -> f64 {
        self.route(src, dst)
            .links()
            .iter()
            .map(|id| self.inner.links[id.0].spec.bandwidth_gbps)
            .fold(f64::INFINITY, f64::min)
    }

    /// End-to-end zero-load latency between two locations.
    pub fn path_latency(&self, src: Location, dst: Location) -> SimDuration {
        self.route(src, dst).latency
    }

    /// Issue a transfer of `bytes` from `src` to `dst`, starting no earlier
    /// than `at` (clamped to now). Reserves occupancy on every hop and
    /// returns a ticket carrying the arrival instant.
    ///
    /// Multi-hop routes are **cut-through**: hop *i+1* begins once the
    /// first segment (64 KiB) clears hop *i*, so a message's hops overlap
    /// and the end-to-end serialization is governed by the bottleneck
    /// link, as on real InfiniBand fabrics — splitting a message does not
    /// magically double multi-hop bandwidth. Cross-node messages of at
    /// least [`STRIPE_THRESHOLD`](Fabric::STRIPE_THRESHOLD) bytes stripe
    /// across every NIC rail.
    ///
    /// The fabric moves *time*, not data: the caller applies the functional
    /// copy no later than `arrival` (typically in a completion callback)
    /// and queues the arrival (see [`Transfer`]). `wire` is recorded on
    /// the transfer's `wire` span.
    ///
    /// Returns [`NetError`] when an armed fault schedule has taken down
    /// every usable NIC on a required node; a caller with no recovery path
    /// unwraps. Transient drops and latency spikes never error — they
    /// surface as a later arrival (the transport retransmits under the
    /// covers). With no faults armed this never errors.
    pub fn try_transfer(
        &self,
        at: SimTime,
        src: Location,
        dst: Location,
        bytes: u64,
        wire: WireAttr,
    ) -> Result<Transfer, NetError> {
        let now = self.inner.handle.now();
        let at = at.max(now);
        // Large cross-node messages stripe across every NIC pair of the
        // two nodes (UCX multi-rail): each rail carries an equal share and
        // the message completes when the slowest rail drains.
        if src.node != dst.node && bytes >= Self::STRIPE_THRESHOLD {
            return self.striped_transfer(at, src, dst, bytes, wire);
        }
        let (route, src_nic) = self.route_at(at, src, dst)?;
        let (start, tail) = self.reserve(&route, at, bytes);
        let arrival = tail + self.fault_penalty();
        let span = self.record_wire(start, arrival, wire);
        self.count_transfer(bytes, src_nic.map(|nic| (nic, bytes)));
        Ok(Transfer { start, arrival, span })
    }

    /// Record one `wire` span attributed per `wire`.
    fn record_wire(&self, start: SimTime, arrival: SimTime, wire: WireAttr) -> SpanId {
        self.inner.handle.trace().record_attr(
            "wire",
            start,
            arrival,
            wire.dst_rank,
            wire.partition,
            wire.cause,
        )
    }

    /// Like [`route`](Fabric::route), but steers cross-node hops around NIC
    /// outages active at `at`. Identical to `route` when no faults are
    /// armed. Also reports the chosen source NIC on cross-node routes (for
    /// per-rail accounting).
    fn route_at(
        &self,
        at: SimTime,
        src: Location,
        dst: Location,
    ) -> Result<(Route, Option<u8>), NetError> {
        if src.node == dst.node {
            return Ok((self.route(src, dst), None));
        }
        let src_nic = self.pick_nic(src.node, self.nic_for(src), at)?;
        let dst_nic = self.pick_nic(dst.node, self.nic_for(dst), at)?;
        Ok((self.ib_route(src.node, src_nic, dst.node, dst_nic), Some(src_nic)))
    }

    /// Messages at or above this size stripe across all NIC rails when
    /// crossing nodes (the UCX multi-rail threshold).
    pub const STRIPE_THRESHOLD: u64 = 1 << 20;

    /// Multi-rail cross-node transfer: split `bytes` evenly over every
    /// usable (uplink, downlink) NIC pair; each rail is cut-through
    /// internally. Under an armed NIC outage the message **re-stripes** over
    /// the surviving rails — degraded bandwidth, not failure — and only
    /// errors when no rail survives.
    fn striped_transfer(
        &self,
        at: SimTime,
        src: Location,
        dst: Location,
        bytes: u64,
        wire: WireAttr,
    ) -> Result<Transfer, NetError> {
        let rails = self.up_rails(src.node, dst.node, at)?;
        let share = bytes.div_ceil(rails.len() as u64);
        let mut first_start: Option<SimTime> = None;
        let mut arrival = at;
        for &nic in &rails {
            let route = self.ib_route(src.node, nic, dst.node, nic);
            let (s, a) = self.reserve(&route, at, share);
            first_start.get_or_insert(s);
            arrival = arrival.max(a);
        }
        let arrival = arrival + self.fault_penalty();
        let start = first_start.unwrap_or(at);
        let span = self.record_wire(start, arrival, wire);
        self.count_transfer(bytes, rails.iter().map(|&nic| (nic, share)));
        Ok(Transfer { start, arrival, span })
    }

    /// Compute a [`MultiPathPlan`] splitting `bytes` from `src` to `dst`
    /// into (up to) `stripes` stripes over the paths this fabric's
    /// topology offers. Pure planning — reserves nothing; execute with
    /// [`try_transfer_planned`](Fabric::try_transfer_planned).
    pub fn plan(
        &self,
        src: Location,
        dst: Location,
        bytes: u64,
        stripes: usize,
    ) -> Result<MultiPathPlan, PlanError> {
        MultiPathPlan::compute(&self.inner.topology, src, dst, bytes, stripes)
    }

    /// Execute a [`MultiPathPlan`]: reserve every stripe's partition →
    /// translate → assemble hops, record one `wire` span per stripe (each
    /// attributed per `wire`), and report when the slowest stripe lands.
    ///
    /// A single-path plan delegates to the ordinary transfer path
    /// ([`try_transfer`](Fabric::try_transfer)) and is therefore
    /// bit-for-bit identical to an unplanned transfer — including the
    /// implicit multi-rail striping for large cross-node messages.
    ///
    /// Under an armed NIC outage a multi-stripe cross-node plan
    /// **re-stripes at issue time**: stripes planned onto a downed rail
    /// remap deterministically onto the surviving rails (recomputing their
    /// relay hops), and the transfer only errors — with a typed
    /// [`NetError`] — when no rail survives on either node.
    pub fn try_transfer_planned(
        &self,
        at: SimTime,
        plan: &MultiPathPlan,
        wire: WireAttr,
    ) -> Result<StripedTransfer, NetError> {
        let now = self.inner.handle.now();
        let at = at.max(now);
        if plan.is_single_path() {
            let t = self.try_transfer(at, plan.src, plan.dst, plan.bytes, wire)?;
            return Ok(StripedTransfer {
                start: t.start,
                arrival: t.arrival,
                stripes: vec![StripeArrival {
                    index: 0,
                    offset: 0,
                    len: plan.bytes,
                    rail: None,
                    arrival: t.arrival,
                    span: t.span,
                }],
            });
        }
        let topo = self.inner.topology.clone();
        let cross_node = plan.src.node != plan.dst.node;
        // One survivor query for the whole plan: every stripe re-stripes
        // against the same outage snapshot, deterministically.
        let survivors = if cross_node {
            self.up_rails(plan.src.node, plan.dst.node, at)?
        } else {
            Vec::new()
        };
        let mut first_start: Option<SimTime> = None;
        let mut overall = at;
        let mut stripes = Vec::with_capacity(plan.stripes.len());
        for (index, stripe) in plan.stripes.iter().enumerate() {
            let (route, rail) = if cross_node {
                let planned = stripe.rail.expect("cross-node multi-stripe plans pin rails");
                // Remap onto a surviving rail; identity when the planned
                // rail is up (the common, fault-free case).
                let rail = if survivors.contains(&planned) {
                    planned
                } else {
                    survivors[planned as usize % survivors.len()]
                };
                // Relays follow the rail actually used, so re-striping
                // keeps the three-stage pipeline consistent.
                let src_relay = relay_for_rail(&topo, plan.src.node, plan.src.unit, rail);
                let dst_relay = relay_for_rail(&topo, plan.dst.node, plan.dst.unit, rail);
                let mut hops = [LinkId(0); MAX_HOPS];
                let mut n = 0;
                let mut hop = |id: LinkId| {
                    hops[n] = id;
                    n += 1;
                };
                if let (Unit::Gpu(g), Some(r)) = (plan.src.unit, src_relay) {
                    hop(self.link(LinkKey::NvLink { node: plan.src.node, src: g, dst: r }));
                }
                hop(self.link(LinkKey::Ib { node: plan.src.node, nic: rail, up: true }));
                hop(self.link(LinkKey::Ib { node: plan.dst.node, nic: rail, up: false }));
                if let (Unit::Gpu(g), Some(r)) = (plan.dst.unit, dst_relay) {
                    hop(self.link(LinkKey::NvLink { node: plan.dst.node, src: r, dst: g }));
                }
                (self.route_over(&hops[..n]), Some(rail))
            } else {
                // Intra-node NVLink multipath: the direct pair, or a
                // two-hop relay through a peer GPU.
                let (a, b) = match (plan.src.unit, plan.dst.unit) {
                    (Unit::Gpu(a), Unit::Gpu(b)) => (a, b),
                    _ => unreachable!("intra-node multi-stripe plans imply GPU endpoints"),
                };
                let node = plan.src.node;
                let route = match stripe.src_relay {
                    None => self.route_over(&[self.link(LinkKey::NvLink { node, src: a, dst: b })]),
                    Some(r) => self.route_over(&[
                        self.link(LinkKey::NvLink { node, src: a, dst: r }),
                        self.link(LinkKey::NvLink { node, src: r, dst: b }),
                    ]),
                };
                (route, None)
            };
            let (start, arrival) = self.reserve(&route, at, stripe.len);
            first_start.get_or_insert(start);
            overall = overall.max(arrival);
            stripes.push(StripeArrival {
                index,
                offset: stripe.offset,
                len: stripe.len,
                rail,
                arrival,
                span: self.record_wire(start, arrival, wire),
            });
        }
        let arrival = overall + self.fault_penalty();
        // Rail accounting uses the exact stripe lengths, so the per-rail
        // counters sum to the payload precisely.
        let rail_shares = stripes.iter().filter_map(|s| Some((s.rail?, s.len)));
        self.count_transfer(plan.bytes, rail_shares);
        Ok(StripedTransfer { start: first_start.unwrap_or(at), arrival, stripes })
    }

    /// Effective bandwidth between two locations for a large message,
    /// including multi-rail striping on cross-node paths. This is what
    /// bandwidth-bound collectives (e.g. the NCCL ring) sustain per hop.
    pub fn striped_bandwidth_gbps(&self, src: Location, dst: Location) -> f64 {
        let base = self.path_bandwidth_gbps(src, dst);
        if src.node != dst.node {
            let rails = self
                .inner
                .topology
                .nics_on(src.node)
                .min(self.inner.topology.nics_on(dst.node));
            base * rails as f64
        } else {
            base
        }
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.inner.spec.nodes)
            .field("links", &self.inner.links.len())
            .finish()
    }
}
