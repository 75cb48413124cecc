//! The chaos campaign engine: one executor for a fixed grid and for the
//! coverage-guided search.
//!
//! A campaign is a list of fault plans, each keyed and bound to a
//! [`Cell`] by the campaign's world axes. The executor runs the whole list
//! as one `parcomm-sweep` spec — every cell twice, against one fault-free
//! baseline per workload — and judges each cell with [`expectation_at`]:
//! recoverable plans must survive with numerics bit-identical to the
//! baseline and replay deterministically; unrecoverable ones must fail
//! with a typed error, never a hang, and still replay. A violation is
//! bisected with `parcomm-testkit`'s greedy shrinker to a minimal failing
//! [`FaultPlan`], reported as JSON so the cell replays from the artifact.
//!
//! The plan list comes from one of two [`PlanSource`]s:
//!
//! - **Grid** — `FaultPlan::chaos(seed, rate)` at every fault seed × rate ×
//!   stripe count. Every grid plan injects the same three network classes,
//!   so the grid's *coverage* (which classes, at which layers, in which
//!   combinations) saturates after its first cell.
//! - **Search** — coverage as the objective. The targets are every single
//!   [`FaultClass`] and every unordered pair of distinct classes; each
//!   round synthesizes up to eight plans toward still-uncovered targets
//!   from a per-round seeded RNG.
//!
//! Either list is generated serially before anything runs — the search's
//! covered set grows from the synthesized plans, never from run results —
//! so a report renders byte-identically at any worker count. At equal cell
//! budget the search covers strictly more distinct points than the grid
//! (asserted in `tests/recovery.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

use parcomm_core::CopyMechanism;
use parcomm_mpi::RecoverConfig;
use parcomm_net::ClusterSpec;
use parcomm_obs::json::JsonValue;
use parcomm_sim::SimRng;
use parcomm_sweep::{CellValue, JsonlSink, SweepSpec};
use parcomm_testkit::prop::{shrink_failure, Shrink, TestResult};

use crate::chaos::{Cell, Workload};
use crate::FaultPlan;

/// The injectable fault classes the search steers over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Transient per-attempt wire drop (retransmitted).
    LinkDrop,
    /// Per-transfer congestion latency spike.
    LatencySpike,
    /// One NIC dark for a window (re-stripe / retry around it).
    NicOutage,
    /// Every NIC on one node dark for a window (epoch replay territory).
    MultiNicOutage,
    /// Progression-engine stall window.
    PeStall,
    /// Progression-engine crash (lease detection + host drain).
    PeCrash,
    /// Delayed device flag-write emissions.
    FlagDelay,
    /// Lost device flag-write emissions (unrecoverable by design).
    FlagLoss,
    /// Delayed device shmem-signal emissions (symmetric-heap channels).
    ShmemSignalDelay,
    /// Lost device shmem-signal emissions (epoch replay re-issues the put
    /// host-side when the escalation ladder is armed).
    ShmemSignalLoss,
}

/// The stack layer a fault class is injected at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultLayer {
    /// `netsim` fabric / routing.
    Net,
    /// `mpisim` progression engine.
    Mpi,
    /// `gpusim` stream emission.
    Gpu,
}

/// The topology-shape axis of the coverage point space: the same fault
/// class meeting a *ragged* or *oversubscribed* world exercises rank↔GPU
/// table walks, per-node rail cycling, fold/unfold collective phases, and
/// `SameGpu` routes that no uniform world reaches. The classic uniform
/// space keeps its unprefixed point keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TopologyShape {
    /// The classic `nodes × 4 GPU × 4 NIC` GH200 testbed.
    Uniform,
    /// Per-node GPU/NIC counts vary (alternating 4/2 GPUs, 2/1 NICs),
    /// one rank per GPU.
    Ragged,
    /// The ragged shape at 2:1 ranks per GPU: co-resident ranks drive the
    /// `SameGpu` route regime and the hierarchical fold/unfold phases.
    Oversubscribed,
}

impl TopologyShape {
    /// Every shape, in canonical search order.
    pub const ALL: [TopologyShape; 3] =
        [TopologyShape::Uniform, TopologyShape::Ragged, TopologyShape::Oversubscribed];

    /// Stable short name used in coverage-point qualifiers.
    pub fn key(&self) -> &'static str {
        match self {
            TopologyShape::Uniform => "uniform",
            TopologyShape::Ragged => "ragged",
            TopologyShape::Oversubscribed => "oversub",
        }
    }

    /// The cluster spec this shape denotes on a `nodes`-node world.
    pub fn cluster(&self, nodes: u16) -> ClusterSpec {
        match self {
            TopologyShape::Uniform => ClusterSpec::gh200(nodes),
            TopologyShape::Ragged | TopologyShape::Oversubscribed => {
                let gpus: Vec<u8> =
                    (0..nodes).map(|v| if v % 2 == 0 { 4 } else { 2 }).collect();
                let nics: Vec<u8> =
                    (0..nodes).map(|v| if v % 2 == 0 { 2 } else { 1 }).collect();
                let over = if *self == TopologyShape::Oversubscribed { 2 } else { 1 };
                ClusterSpec::gh200_ragged(&gpus, &nics, over)
            }
        }
    }
}

impl FaultClass {
    /// Every class, in canonical search order.
    pub const ALL: [FaultClass; 10] = [
        FaultClass::LinkDrop,
        FaultClass::LatencySpike,
        FaultClass::NicOutage,
        FaultClass::MultiNicOutage,
        FaultClass::PeStall,
        FaultClass::PeCrash,
        FaultClass::FlagDelay,
        FaultClass::FlagLoss,
        FaultClass::ShmemSignalDelay,
        FaultClass::ShmemSignalLoss,
    ];

    /// The layer this class is injected at.
    pub fn layer(&self) -> FaultLayer {
        match self {
            FaultClass::LinkDrop
            | FaultClass::LatencySpike
            | FaultClass::NicOutage
            | FaultClass::MultiNicOutage => FaultLayer::Net,
            FaultClass::PeStall | FaultClass::PeCrash => FaultLayer::Mpi,
            FaultClass::FlagDelay
            | FaultClass::FlagLoss
            | FaultClass::ShmemSignalDelay
            | FaultClass::ShmemSignalLoss => FaultLayer::Gpu,
        }
    }

    /// True if this class only bites on channels that negotiated the
    /// symmetric-heap mechanism — and, dually, if the *flag-write* classes
    /// are the ones that need the classic device→PE notification path.
    /// The search only targets classes its copy mechanism can exercise.
    pub fn requires_mechanism(&self) -> Option<CopyMechanism> {
        match self {
            FaultClass::ShmemSignalDelay | FaultClass::ShmemSignalLoss => {
                Some(CopyMechanism::Shmem)
            }
            _ => None,
        }
    }

    /// Stable short name used in coverage-point keys and report lines.
    pub fn key(&self) -> &'static str {
        match self {
            FaultClass::LinkDrop => "link_drop",
            FaultClass::LatencySpike => "latency_spike",
            FaultClass::NicOutage => "nic_outage",
            FaultClass::MultiNicOutage => "multi_nic_outage",
            FaultClass::PeStall => "pe_stall",
            FaultClass::PeCrash => "pe_crash",
            FaultClass::FlagDelay => "flag_delay",
            FaultClass::FlagLoss => "flag_loss",
            FaultClass::ShmemSignalDelay => "shmem_delay",
            FaultClass::ShmemSignalLoss => "shmem_loss",
        }
    }

    fn layer_key(&self) -> &'static str {
        match self.layer() {
            FaultLayer::Net => "net",
            FaultLayer::Mpi => "mpi",
            FaultLayer::Gpu => "gpu",
        }
    }
}

/// Classify which fault classes a plan actually injects.
pub fn classes_of(plan: &FaultPlan) -> Vec<FaultClass> {
    let mut out = Vec::new();
    if let Some(net) = &plan.net {
        if net.drop_prob > 0.0 {
            out.push(FaultClass::LinkDrop);
        }
        if net.spike_prob > 0.0 {
            out.push(FaultClass::LatencySpike);
        }
        match net.nic_outages.len() {
            0 => {}
            1 => out.push(FaultClass::NicOutage),
            _ => out.push(FaultClass::MultiNicOutage),
        }
    }
    if plan.pe.iter().any(|(_, f)| f.stall_us > 0.0) {
        out.push(FaultClass::PeStall);
    }
    if plan.pe.iter().any(|(_, f)| f.crash_at_us.is_some()) {
        out.push(FaultClass::PeCrash);
    }
    if plan.flags.iter().any(|(_, f)| f.delay_every > 0) {
        out.push(FaultClass::FlagDelay);
    }
    if plan.flags.iter().any(|(_, f)| f.lose_every > 0) {
        out.push(FaultClass::FlagLoss);
    }
    if plan.shmem_signals.iter().any(|(_, f)| f.delay_every > 0) {
        out.push(FaultClass::ShmemSignalDelay);
    }
    if plan.shmem_signals.iter().any(|(_, f)| f.lose_every > 0) {
        out.push(FaultClass::ShmemSignalLoss);
    }
    out.sort();
    out.dedup();
    out
}

/// The coverage points a plan explores: one `class@layer` point per active
/// class plus one `a+b` point per unordered pair of distinct active
/// classes (the cross-class interaction axis the fixed grid never varies).
pub fn coverage_points(plan: &FaultPlan) -> BTreeSet<String> {
    let classes = classes_of(plan);
    let mut points = BTreeSet::new();
    for c in &classes {
        points.insert(format!("{}@{}", c.key(), c.layer_key()));
    }
    for (i, a) in classes.iter().enumerate() {
        for b in &classes[i + 1..] {
            points.insert(format!("{}+{}", a.key(), b.key()));
        }
    }
    points
}

/// What the recovery contract expects of a plan's run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Recoverable mix: the run must survive, numerics must match the
    /// fault-free baseline bit for bit, and replay must be deterministic.
    Recover,
    /// Unrecoverable mix: the run must fail with a typed error (never a
    /// hang) and still replay deterministically.
    TypedFailure,
}

/// The contract classification for a plan: on the classic axis
/// (`channels == 1`) lost flag writes are the one class recovery cannot
/// paper over — the collective engine hands all partitions to the host in
/// one aggregated flag write, and a lost aggregate leaves nothing to
/// replay. On the multiplexed axis the MoE cell runs over plain
/// partitioned channels, where the escalation ladder *can* re-drive the
/// epoch host-side, so a lost flag write recovers whenever the ladder is
/// armed. Everything else must recover when the escalation ladder is
/// armed; with recovery disabled, a PE crash is also expected to surface
/// as a typed error. Classes the campaign's copy `mechanism` cannot
/// exercise (shmem-signal faults under the classic protocols) are inert
/// and never flip the expectation.
pub fn expectation_at(
    plan: &FaultPlan,
    recover_enabled: bool,
    mechanism: CopyMechanism,
    channels: usize,
) -> Expectation {
    let classes: Vec<FaultClass> = classes_of(plan)
        .into_iter()
        .filter(|c| c.requires_mechanism().map(|m| m == mechanism).unwrap_or(true))
        .collect();
    if classes.contains(&FaultClass::FlagLoss) && (channels == 1 || !recover_enabled) {
        return Expectation::TypedFailure;
    }
    if classes.contains(&FaultClass::PeCrash) && !recover_enabled {
        return Expectation::TypedFailure;
    }
    // A lost shmem signal leaves the data written but the completion
    // never delivered; only host-side epoch replay re-issues the put.
    if classes.contains(&FaultClass::ShmemSignalLoss) && !recover_enabled {
        return Expectation::TypedFailure;
    }
    // An all-rails outage outlives the put-retry budget and leaves no rail
    // to re-stripe onto; only epoch replay can carry it.
    if classes.contains(&FaultClass::MultiNicOutage) && !recover_enabled {
        return Expectation::TypedFailure;
    }
    Expectation::Recover
}

/// The recorded outcome of one campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Cell key: `seed=…,rate=…,stripes=…,mech=…,channels=…` for a grid
    /// cell, `r<round>:<target>` for a search cell.
    pub key: String,
    /// The plan the cell ran.
    pub plan: FaultPlan,
    /// What the contract expected.
    pub expectation: Expectation,
    /// Trace digest of the first run.
    pub digest: u64,
    /// Virtual completion time (µs) of the first run.
    pub end_time_us: f64,
    /// The digest differs from the workload's fault-free single-path
    /// baseline: the fault met the traffic (or the cell is striped).
    pub perturbed: bool,
    /// Every rank completed without a typed error.
    pub survived: bool,
    /// The second run reproduced the digest bit for bit.
    pub replayed: bool,
    /// Rank-0 numerics matched the fault-free baseline bit for bit.
    pub numeric_ok: bool,
}

impl CellOutcome {
    /// True when the cell upheld the contract for its expectation class.
    pub fn ok(&self) -> bool {
        match self.expectation {
            Expectation::Recover => self.survived && self.replayed && self.numeric_ok,
            Expectation::TypedFailure => !self.survived && self.replayed,
        }
    }

    /// Why the cell failed the contract (or what it would have checked).
    fn verdict(&self) -> String {
        format!(
            "survived={} replayed={} numeric_ok={} (expected {:?})",
            self.survived, self.replayed, self.numeric_ok, self.expectation
        )
    }

    /// One deterministic report line (diffable across worker counts).
    pub fn render(&self) -> String {
        let classes: Vec<&str> = classes_of(&self.plan).iter().map(|c| c.key()).collect();
        format!(
            "{} classes=[{}] expect={:?} digest={:#018x} end_us={:.3} perturbed={} survived={} replayed={} numeric_ok={} ok={}",
            self.key,
            classes.join("+"),
            self.expectation,
            self.digest,
            self.end_time_us,
            self.perturbed,
            self.survived,
            self.replayed,
            self.numeric_ok,
            self.ok()
        )
    }
}

impl CellValue for CellOutcome {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("key".to_string(), self.key.to_json()),
            ("plan".to_string(), self.plan.to_json()),
            ("expectation".to_string(), format!("{:?}", self.expectation).to_json()),
            ("digest".to_string(), self.digest.to_json()),
            ("end_time_us".to_string(), self.end_time_us.to_json()),
            ("perturbed".to_string(), self.perturbed.to_json()),
            ("survived".to_string(), self.survived.to_json()),
            ("replayed".to_string(), self.replayed.to_json()),
            ("numeric_ok".to_string(), self.numeric_ok.to_json()),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        Some(CellOutcome {
            key: String::from_json(v.get("key")?)?,
            plan: FaultPlan::from_json(v.get("plan")?).ok()?,
            expectation: match v.get("expectation")?.as_str()? {
                "Recover" => Expectation::Recover,
                "TypedFailure" => Expectation::TypedFailure,
                _ => return None,
            },
            digest: u64::from_json(v.get("digest")?)?,
            end_time_us: f64::from_json(v.get("end_time_us")?)?,
            perturbed: bool::from_json(v.get("perturbed")?)?,
            survived: bool::from_json(v.get("survived")?)?,
            replayed: bool::from_json(v.get("replayed")?)?,
            numeric_ok: bool::from_json(v.get("numeric_ok")?)?,
        })
    }
}

/// A contract violation bisected to a minimal reproducer.
#[derive(Clone, Debug)]
pub struct MinimizedFailure {
    /// Coverage target of the original failing cell.
    pub target: String,
    /// Cluster shape the failing cell's world was built on, so the
    /// artifact replays on the same (possibly ragged / oversubscribed)
    /// topology — rendered into the artifact in `--topology` grammar.
    pub cluster: ClusterSpec,
    /// The minimal plan that still violates the contract.
    pub minimal_plan: FaultPlan,
    /// Why the minimal plan fails.
    pub reason: String,
    /// Accepted shrink steps from the original plan to the minimum.
    pub shrink_steps: u32,
}

impl MinimizedFailure {
    /// The reproducer as a JSON document (plan + context), ready to write
    /// under `results/` and replay with `--fault-plan` on the carried
    /// `--topology` shape.
    pub fn to_json_string(&self) -> String {
        use parcomm_obs::json::JsonValue;
        JsonValue::Object(vec![
            ("target".to_string(), JsonValue::String(self.target.clone())),
            ("topology".to_string(), JsonValue::String(self.cluster.render())),
            ("reason".to_string(), JsonValue::String(self.reason.clone())),
            ("shrink_steps".to_string(), JsonValue::Number(self.shrink_steps as f64)),
            ("plan".to_string(), self.minimal_plan.to_json()),
        ])
        .render()
    }
}

/// Where a campaign's fault plans come from.
#[derive(Clone, Debug)]
pub enum PlanSource {
    /// `FaultPlan::chaos(seed, rate)` at every fault seed × rate × stripe
    /// count, in that nesting order.
    Grid {
        /// Fault seeds.
        fault_seeds: Range<u64>,
        /// Chaos rates each fault seed runs at.
        rates: Vec<f64>,
        /// Cross-node stripe counts each `(seed, rate)` point runs at.
        /// Stripe count 1 is the classic single-path protocol; higher
        /// counts exercise re-striping under NIC outages.
        stripes: Vec<usize>,
    },
    /// Coverage-guided search over fault-class × layer points.
    Search {
        /// Parameterizes every synthesized plan.
        search_seed: u64,
        /// Total cell budget (each cell = two runs of the workload).
        budget: u32,
        /// Cap on shrink steps when bisecting a contract violation.
        max_shrink_steps: u32,
    },
}

/// One chaos campaign: a plan source and the world axes all its cells
/// share.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Simulation seed shared by every cell (the workload schedule).
    pub sim_seed: u64,
    /// GH200 nodes in the world.
    pub nodes: u16,
    /// Arm the recovery escalation ladder (`WorldConfig::recover`); the
    /// contract adapts (a PE crash is expected to fail typed without it).
    pub recover: bool,
    /// Copy mechanism the cells' worlds negotiate. Under `Shmem` the
    /// search additionally targets the shmem-signal fault classes; under
    /// the classic protocols those classes are inert and never scheduled.
    pub mechanism: CopyMechanism,
    /// Per-rank mux channel budget (canonical values {1, 64, 1024}). At 1
    /// cells observe the classic workloads; above 1 every cell observes
    /// the mux-admitted MoE dispatch/combine instead.
    pub channels: usize,
    /// Cluster shape of the cells' worlds. The multiplexed MoE cell
    /// (`channels > 1`) always runs the uniform testbed; the shape still
    /// bounds synthesized ranks/NICs and qualifies covered points.
    pub shape: TopologyShape,
    /// Where the fault plans come from.
    pub source: PlanSource,
}

/// One entry of a campaign's plan list.
struct Planned {
    /// Sweep key and report-line prefix.
    key: String,
    /// The coverage target a search plan was synthesized for; a grid
    /// cell's key. Names minimized-failure artifacts.
    target: String,
    plan: FaultPlan,
    stripes: usize,
}

/// Fault-free `(digest, numeric)` per workload a campaign reaches.
type Baselines = BTreeMap<Workload, (u64, Vec<f64>)>;

impl CampaignConfig {
    /// `source` on the default axes: two uniform GH200 nodes over the
    /// Progression Engine, one channel, simulation seed `0xFA017`. The
    /// search arms recovery; the grid's survivable chaos mixes run without
    /// it.
    pub fn new(source: PlanSource) -> CampaignConfig {
        CampaignConfig {
            sim_seed: 0xFA017,
            nodes: 2,
            recover: matches!(source, PlanSource::Search { .. }),
            mechanism: CopyMechanism::ProgressionEngine,
            channels: 1,
            shape: TopologyShape::Uniform,
            source,
        }
    }

    /// The CI grid: eight fault seeds (two when `quick`) at a moderate and
    /// an aggressive rate, single-path and 4-stripe. `PARCOMM_CHAOS_SEED`
    /// shifts the seed block to explore fresh schedules without editing
    /// code.
    pub fn grid(quick: bool) -> CampaignConfig {
        let base = std::env::var("PARCOMM_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED);
        CampaignConfig::new(PlanSource::Grid {
            fault_seeds: base..base + if quick { 2 } else { 8 },
            rates: vec![0.4, 0.9],
            stripes: vec![1, 4],
        })
    }

    /// The default search at `budget` cells.
    pub fn search(budget: u32) -> CampaignConfig {
        CampaignConfig::new(PlanSource::Search {
            search_seed: 0xC0FE_A6ED,
            budget,
            max_shrink_steps: 24,
        })
    }

    /// Qualify a coverage point with the campaign's axes: the mechanism
    /// always (`pe:link_drop@net`), the channel budget above one
    /// (`c64:pe:…`) and a non-uniform shape (`oversub:…`). The same class
    /// under another mechanism, multiplexed load or shape drives another
    /// data path, so each is a distinct point of the search space.
    fn qualify(&self, point: &str) -> String {
        let mut key = format!("{}:{point}", self.mechanism.short_name());
        if self.channels > 1 {
            key = format!("c{}:{key}", self.channels);
        }
        if self.shape != TopologyShape::Uniform {
            key = format!("{}:{key}", self.shape.key());
        }
        key
    }

    /// The cell `plan` runs on: the MoE above one channel, the
    /// device-initiated p2p epoch for plans carrying shmem-signal faults
    /// (the collective's trace never meets the signal schedule), else the
    /// canonical allreduce.
    pub fn cell(&self, plan: &FaultPlan, stripes: usize) -> Cell {
        let shmem_signals =
            classes_of(plan).iter().any(|c| c.requires_mechanism() == Some(CopyMechanism::Shmem));
        let (workload, cluster) = if self.channels > 1 {
            (Workload::Moe, ClusterSpec::gh200(self.nodes))
        } else if shmem_signals {
            (Workload::DeviceP2p, self.shape.cluster(self.nodes))
        } else {
            (Workload::Allreduce, self.shape.cluster(self.nodes))
        };
        Cell {
            workload,
            cluster,
            stripes,
            mechanism: self.mechanism,
            channels: self.channels,
            recover: self.recover.then(RecoverConfig::default),
        }
    }

    /// The whole plan list, generated serially.
    fn plans(&self) -> Vec<Planned> {
        match &self.source {
            PlanSource::Grid { fault_seeds, rates, stripes } => {
                let mech = self.mechanism.short_name();
                let mut out = Vec::new();
                for fault_seed in fault_seeds.clone() {
                    for &rate in rates {
                        let plan =
                            FaultPlan::chaos(fault_seed, rate).expect("grid rates are in [0, 1]");
                        for &stripes in stripes {
                            let key = format!(
                                "seed={fault_seed:#x},rate={rate},stripes={stripes},mech={mech},channels={}",
                                self.channels
                            );
                            let plan = plan.clone();
                            out.push(Planned { target: key.clone(), key, plan, stripes });
                        }
                    }
                }
                out
            }
            PlanSource::Search { search_seed, budget, .. } => {
                self.search_plans(*search_seed, *budget)
            }
        }
    }

    /// The search's plan list. Each round takes the first still-uncovered
    /// targets, up to eight; once everything is covered it keeps probing
    /// with fresh parameters until the budget runs out. Target keys are
    /// unqualified (`link_drop@net`) and `covered` holds qualified points
    /// (`pe:link_drop@net`), so a target is qualified before the lookup.
    fn search_plans(&self, search_seed: u64, budget: u32) -> Vec<Planned> {
        let all_targets = targets(self.mechanism, self.channels);
        let mut covered: BTreeSet<String> = BTreeSet::new();
        let mut out: Vec<Planned> = Vec::new();
        let mut round = 0u32;
        while out.len() < budget as usize {
            let fresh: Vec<_> = all_targets
                .iter()
                .filter(|(key, _)| !covered.contains(&self.qualify(key)))
                .collect();
            let pending: Vec<_> = if fresh.is_empty() {
                all_targets.iter().skip((round as usize * 7) % all_targets.len()).collect()
            } else {
                fresh
            };
            if pending.is_empty() {
                break;
            }
            let room = (budget as usize - out.len()).min(8);
            for (key, classes) in pending.into_iter().take(room) {
                let mut rng = SimRng::seeded(
                    search_seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ fnv(key.as_bytes()),
                );
                let plan = synthesize(classes, &mut rng, self.nodes, self.channels, self.shape);
                covered.extend(coverage_points(&plan).iter().map(|p| self.qualify(p)));
                let key_round = format!("r{round}:{key}");
                out.push(Planned { key: key_round, target: key.clone(), plan, stripes: 1 });
            }
            round += 1;
        }
        out
    }

    /// The qualified coverage points a plan list explores.
    fn covered(&self, plans: &[Planned]) -> BTreeSet<String> {
        plans.iter().flat_map(|p| coverage_points(&p.plan)).map(|p| self.qualify(&p)).collect()
    }

    /// Run `plan` twice on its cell and judge it against the workload's
    /// fault-free baseline.
    fn observe(
        &self,
        key: String,
        plan: FaultPlan,
        stripes: usize,
        baselines: &Baselines,
    ) -> CellOutcome {
        let cell = self.cell(&plan, stripes);
        let (clean_digest, clean_numeric) = &baselines[&cell.workload];
        let a = cell.run(self.sim_seed, &plan);
        let b = cell.run(self.sim_seed, &plan);
        CellOutcome {
            key,
            expectation: expectation_at(&plan, self.recover, self.mechanism, self.channels),
            digest: a.digest,
            end_time_us: a.end_time_us,
            perturbed: a.digest != *clean_digest,
            survived: a.survived(),
            replayed: a.digest == b.digest,
            numeric_ok: a.numeric == *clean_numeric,
            plan,
        }
    }

    /// Bisect a failing cell to a minimal plan that still breaks the
    /// contract. Grid cells are reported unshrunk.
    fn minimize(
        &self,
        p: &Planned,
        failed: &CellOutcome,
        baselines: &Baselines,
    ) -> MinimizedFailure {
        let max_steps = match self.source {
            PlanSource::Search { max_shrink_steps, .. } => max_shrink_steps,
            PlanSource::Grid { .. } => 0,
        };
        let eval = |plan: &FaultPlan| {
            let o = self.observe(String::new(), plan.clone(), p.stripes, baselines);
            if o.ok() {
                TestResult::Pass
            } else {
                TestResult::Fail(o.verdict())
            }
        };
        let (minimal_plan, reason, shrink_steps) =
            shrink_failure(p.plan.clone(), failed.verdict(), max_steps, &eval);
        MinimizedFailure {
            target: p.target.clone(),
            cluster: self.shape.cluster(self.nodes),
            minimal_plan,
            reason,
            shrink_steps,
        }
    }
}

/// A campaign's result: every cell outcome, the covered point set, and
/// any bisected contract violations.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Executed cells in plan-list order.
    pub outcomes: Vec<CellOutcome>,
    /// Distinct qualified coverage points explored.
    pub covered: BTreeSet<String>,
    /// Contract violations, bisected to minimal plans.
    pub failures: Vec<MinimizedFailure>,
}

impl CampaignReport {
    /// One deterministic multi-line report: cell lines then a summary.
    /// Byte-identical at any worker count (asserted in CI by diffing the
    /// serial and 4-worker renders).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "cells={} covered_points={} failures={}\n",
            self.outcomes.len(),
            self.covered.len(),
            self.failures.len()
        ));
        // The fully-qualified point set (shape/channel/mechanism prefixes
        // included), one sorted line — what the CI shape-axis grep reads.
        let covered: Vec<&str> = self.covered.iter().map(|s| s.as_str()).collect();
        out.push_str(&format!("covered=[{}]\n", covered.join(" ")));
        for f in &self.failures {
            out.push_str(&format!(
                "FAIL target={} topology={} steps={} reason={} plan={}\n",
                f.target,
                f.cluster.render(),
                f.shrink_steps,
                f.reason,
                f.minimal_plan.to_json_string()
            ));
        }
        out
    }
}

/// Run the campaign on `threads` workers.
pub fn run_campaign(cfg: &CampaignConfig, threads: usize) -> CampaignReport {
    execute(cfg, threads, None).expect("a campaign without a sink does no I/O")
}

/// [`run_campaign`] with a resumable JSON-lines sink: cells already in the
/// sink are restored instead of re-run, fresh completions are appended and
/// flushed one line at a time.
pub fn run_campaign_with_sink(
    cfg: &CampaignConfig,
    threads: usize,
    sink: &mut JsonlSink,
) -> std::io::Result<CampaignReport> {
    execute(cfg, threads, Some(sink))
}

fn execute(
    cfg: &CampaignConfig,
    threads: usize,
    sink: Option<&mut JsonlSink>,
) -> std::io::Result<CampaignReport> {
    let plans = cfg.plans();
    // One baseline per workload the list reaches, plus the fault-free
    // plan's own: shrinking a shmem-signal plan can move it onto that one.
    let none = FaultPlan::none();
    let mut baselines = Baselines::new();
    for plan in std::iter::once(&none).chain(plans.iter().map(|p| &p.plan)) {
        let cell = cfg.cell(plan, 1);
        baselines.entry(cell.workload).or_insert_with(|| {
            let clean = cell.run(cfg.sim_seed, &none);
            (clean.digest, clean.numeric)
        });
    }
    let baselines = Arc::new(baselines);
    let mut spec: SweepSpec<CellOutcome> = SweepSpec::new();
    for p in &plans {
        let (cfg, baselines) = (cfg.clone(), baselines.clone());
        let (key, plan, stripes) = (p.key.clone(), p.plan.clone(), p.stripes);
        spec.cell(p.key.clone(), move || cfg.observe(key, plan, stripes, &baselines));
    }
    let results = match sink {
        Some(sink) => spec.run_with_sink(threads, sink)?,
        None => spec.run(threads),
    };
    let outcomes = results.into_values().expect("campaign cells observe, never panic");
    let failures = plans
        .iter()
        .zip(&outcomes)
        .filter(|(_, o)| !o.ok())
        .map(|(p, o)| cfg.minimize(p, o, &baselines))
        .collect();
    Ok(CampaignReport { covered: cfg.covered(&plans), outcomes, failures })
}

/// Synthesize a plan that injects exactly `classes`, with parameters drawn
/// from `rng`. All windows are finite and placed so recoverable classes
/// stay inside the escalation ladder's reach.
///
/// Timed windows are placed against the cell workload's virtual-time
/// horizon. The classic cells (`channels == 1`) finish in about a
/// millisecond, so their windows keep the hand-tuned literals below. The
/// multiplexed MoE cell spends its first milliseconds admitting channels
/// and only drains its epochs near the end — roughly 75 µs of virtual
/// time per admitted channel (~4.8 ms at 64 channels, measured) — so at
/// `channels > 1` the stall/crash/outage windows stretch across that
/// horizon instead of expiring before the multiplexed traffic exists.
///
/// Rank and NIC draws are bounded by the campaign's *shaped* topology —
/// on a ragged world a synthesized NIC outage must name a NIC the chosen
/// node actually has, and rank-targeted faults draw over the real
/// (possibly oversubscribed) rank count. On the uniform shape every bound
/// equals the historical literal, so the draw sequence — and with it the
/// whole campaign — is unchanged.
fn synthesize(
    classes: &[FaultClass],
    rng: &mut SimRng,
    nodes: u16,
    channels: usize,
    shape: TopologyShape,
) -> FaultPlan {
    let topo = shape.cluster(nodes).topology().expect("campaign shapes validate");
    let ranks = topo.num_ranks();
    let horizon = 75.0 * channels as f64;
    // 200 ms: past the full replay budget (4 × 20 ms detection windows)
    // but cheap for wedged unrecoverable cells. Multiplexed cells scale it
    // with the horizon so a long stall still drains before the watchdog.
    let watchdog = if channels > 1 { 200_000.0_f64.max(8.0 * horizon) } else { 200_000.0 };
    let mut plan = FaultPlan::none().with_watchdog(watchdog);
    let drop = if classes.contains(&FaultClass::LinkDrop) {
        0.05 + 0.30 * rng.uniform()
    } else {
        0.0
    };
    let (spike_p, spike_us) = if classes.contains(&FaultClass::LatencySpike) {
        (0.10 + 0.40 * rng.uniform(), 10.0 + 40.0 * rng.uniform())
    } else {
        (0.0, 10.0)
    };
    if drop > 0.0 || spike_p > 0.0 {
        plan = plan.with_link_faults(drop, spike_p, spike_us);
    }
    if classes.contains(&FaultClass::NicOutage) {
        // Cross-node data puts fly between ~400 and ~800 µs fault-free;
        // open the window inside that band so the outage meets traffic.
        // Multiplexed cells put their cross-node puts near the end of the
        // horizon, so the window opens later and spans most of the run.
        let node = (rng.uniform_range(0, nodes as u64)) as u16;
        let nic = rng.uniform_range(0, topo.nics_on(node) as u64) as u8;
        let (from, until) = if channels > 1 {
            let from = (0.05 + 0.35 * rng.uniform()) * horizon;
            (from, from + (0.4 + 0.6 * rng.uniform()) * horizon)
        } else {
            let from = 300.0 + 300.0 * rng.uniform();
            (from, from + 1_000.0 + 1_000.0 * rng.uniform())
        };
        plan = plan.with_nic_outage(node, nic, from, until).expect("finite ordered window");
    }
    if classes.contains(&FaultClass::MultiNicOutage) {
        // Every rail on one node dark across the data-put window. The
        // window opens after the channel handshake settles (~400 µs on
        // two nodes) — an outage overlapping the handshake is a
        // documented survivability limit, not a recovery target — and
        // ends inside the stall-detection horizon so epoch replay lands.
        // All rails dark must still *classify* as a multi-NIC outage, so
        // the draw is over nodes with at least two rails (on the uniform
        // shape that is every node, keeping the historical draw sequence).
        let multi: Vec<u16> = (0..nodes).filter(|&v| topo.nics_on(v) >= 2).collect();
        let node = multi[rng.uniform_range(0, multi.len() as u64) as usize];
        let from = 600.0 + 200.0 * rng.uniform();
        let until = 8_000.0 + 4_000.0 * rng.uniform();
        for nic in 0..topo.nics_on(node) {
            plan = plan.with_nic_outage(node, nic, from, until).expect("finite ordered window");
        }
    }
    if classes.contains(&FaultClass::PeStall) {
        // While the engine is actively draining preadys: the first
        // ~200 µs on the classic cells. The MoE cell's preadys all land
        // near the end of the horizon, so the stall opens early but lasts
        // long enough to still be in force when the drain happens.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        let (at, stall) = if channels > 1 {
            (
                (0.05 + 0.25 * rng.uniform()) * horizon,
                (0.9 + 0.4 * rng.uniform()) * horizon,
            )
        } else {
            (20.0 + 130.0 * rng.uniform(), 200.0 + 1_800.0 * rng.uniform())
        };
        plan = plan.with_pe_stall(rank, at, stall);
    }
    if classes.contains(&FaultClass::PeCrash) {
        // Mid-epoch: after channel setup begins, before the engine has
        // drained the device preadys (the epoch completes in ~500–800 µs
        // fault-free, so a crash past ~200 µs can land after the PE's
        // work is already done and exercise nothing). A crash is
        // permanent, so on multiplexed cells any point in the first half
        // of the horizon lands before the late pready drain.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        let at = if channels > 1 {
            (0.02 + 0.4 * rng.uniform()) * horizon
        } else {
            20.0 + 140.0 * rng.uniform()
        };
        plan = plan.with_pe_crash(rank, at);
    }
    if classes.contains(&FaultClass::FlagDelay) {
        // The collective batches all partitions of a `pready_device_all`
        // into one aggregated flag-write emission, so only stride 1 is
        // guaranteed to hit it.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        let delay = 20.0 + 60.0 * rng.uniform();
        plan = plan.with_delayed_flag_writes(rank, 1, delay);
    }
    if classes.contains(&FaultClass::FlagLoss) {
        // Stride 1 for the same aggregated-emission reason as FlagDelay.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        plan = plan.with_lost_flag_writes(rank, 1);
    }
    if classes.contains(&FaultClass::ShmemSignalDelay) {
        // Stride 1 on rank 1: shmem-signal cells observe the device p2p
        // workload, where rank 1 is the sender and only the sender's
        // stream emits signals — a fault elsewhere would be inert.
        let delay = 20.0 + 60.0 * rng.uniform();
        plan = plan.with_delayed_shmem_signals(1, 1, delay);
    }
    if classes.contains(&FaultClass::ShmemSignalLoss) {
        plan = plan.with_lost_shmem_signals(1, 1);
    }
    plan
}

/// The classes `(mechanism, channels)` can actually exercise: shmem-signal
/// faults need symmetric-heap channels; the flag-write classes need the
/// classic device→PE notification path that shmem channels bypass (on a
/// mixed multi-node shmem world whether a flag fault bites depends on
/// which rank it lands on, so the search skips them rather than schedule
/// cells whose contract is rank-placement roulette — the MoE cell is
/// GPU-initiated under every mechanism, so the same two rules carry over
/// unchanged to the multiplexed axis). One rule is multiplexed-axis only:
/// the all-rails outage is skipped at `channels > 1` because its
/// synthesized window cannot avoid the much longer multi-channel
/// admission handshake, which is the documented survivability limit
/// rather than a recovery target (the `channels == 1` axis covers the
/// class).
fn mechanism_classes(mechanism: CopyMechanism, channels: usize) -> Vec<FaultClass> {
    FaultClass::ALL
        .into_iter()
        .filter(|c| match c.requires_mechanism() {
            Some(m) => m == mechanism,
            None => match c {
                FaultClass::FlagDelay | FaultClass::FlagLoss => {
                    mechanism != CopyMechanism::Shmem
                }
                FaultClass::MultiNicOutage => channels == 1,
                _ => true,
            },
        })
        .collect()
}

/// Canonical target list: every single class, then every unordered pair,
/// keyed by the coverage point the target is meant to reach — restricted
/// to the classes the campaign's copy mechanism and channel budget can
/// exercise.
fn targets(mechanism: CopyMechanism, channels: usize) -> Vec<(String, Vec<FaultClass>)> {
    let classes = mechanism_classes(mechanism, channels);
    let mut out = Vec::new();
    for &c in &classes {
        out.push((format!("{}@{}", c.key(), c.layer_key()), vec![c]));
    }
    for (i, a) in classes.iter().enumerate() {
        for b in &classes[i + 1..] {
            // One NIC down and a whole node dark are mutually exclusive
            // classifications of the same outage list — the pair is
            // unreachable by construction.
            if (*a, *b) == (FaultClass::NicOutage, FaultClass::MultiNicOutage) {
                continue;
            }
            out.push((format!("{}+{}", a.key(), b.key()), vec![*a, *b]));
        }
    }
    out
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Shrinking a [`FaultPlan`] removes or weakens one fault at a time (the
/// watchdog is kept so shrunk candidates stay bounded): drop the whole net
/// config, zero one probability, drop outages or per-rank entries. Every
/// candidate has strictly fewer active fault knobs, so the greedy descent
/// terminates.
impl Shrink for FaultPlan {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if let Some(net) = &self.net {
            let mut p = self.clone();
            p.net = None;
            out.push(p);
            if net.drop_prob > 0.0 {
                let mut p = self.clone();
                p.net.as_mut().expect("checked").drop_prob = 0.0;
                out.push(p);
            }
            if net.spike_prob > 0.0 {
                let mut p = self.clone();
                p.net.as_mut().expect("checked").spike_prob = 0.0;
                out.push(p);
            }
            if !net.nic_outages.is_empty() {
                let mut p = self.clone();
                p.net.as_mut().expect("checked").nic_outages.clear();
                out.push(p);
                if net.nic_outages.len() > 1 {
                    for i in 0..net.nic_outages.len() {
                        let mut p = self.clone();
                        p.net.as_mut().expect("checked").nic_outages.remove(i);
                        out.push(p);
                    }
                }
            }
        }
        if !self.pe.is_empty() {
            let mut p = self.clone();
            p.pe.clear();
            out.push(p);
            for i in 0..self.pe.len() {
                if self.pe[i].1.stall_us > 0.0 {
                    let mut p = self.clone();
                    p.pe[i].1.stall_us = 0.0;
                    out.push(p);
                }
                if self.pe[i].1.crash_at_us.is_some() {
                    let mut p = self.clone();
                    p.pe[i].1.crash_at_us = None;
                    out.push(p);
                }
            }
        }
        if !self.flags.is_empty() {
            let mut p = self.clone();
            p.flags.clear();
            out.push(p);
            for i in 0..self.flags.len() {
                if self.flags[i].1.delay_every > 0 {
                    let mut p = self.clone();
                    p.flags[i].1.delay_every = 0;
                    out.push(p);
                }
                if self.flags[i].1.lose_every > 0 {
                    let mut p = self.clone();
                    p.flags[i].1.lose_every = 0;
                    out.push(p);
                }
            }
        }
        if !self.shmem_signals.is_empty() {
            let mut p = self.clone();
            p.shmem_signals.clear();
            out.push(p);
            for i in 0..self.shmem_signals.len() {
                if self.shmem_signals[i].1.delay_every > 0 {
                    let mut p = self.clone();
                    p.shmem_signals[i].1.delay_every = 0;
                    out.push(p);
                }
                if self.shmem_signals[i].1.lose_every > 0 {
                    let mut p = self.clone();
                    p.shmem_signals[i].1.lose_every = 0;
                    out.push(p);
                }
            }
        }
        if !self.shmem_heap_fail.is_empty() {
            let mut p = self.clone();
            p.shmem_heap_fail.clear();
            out.push(p);
        }
        // Prune structurally-empty fault configs left by the zeroing steps.
        out.retain(|p| p != self);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_and_points_classify_plans() {
        let plan = FaultPlan::chaos(0x5EED, 0.4).expect("rate in range");
        let classes = classes_of(&plan);
        assert!(classes.contains(&FaultClass::LinkDrop));
        assert!(classes.contains(&FaultClass::LatencySpike));
        assert!(classes.contains(&FaultClass::NicOutage));
        let points = coverage_points(&plan);
        assert!(points.contains("link_drop@net"));
        assert!(points.contains("link_drop+latency_spike"));
        // 3 singles + 3 pairs.
        assert_eq!(points.len(), 6);
    }

    #[test]
    fn grid_coverage_saturates_low() {
        // Every grid cell injects the same class mix: whole-grid coverage
        // is the same handful of points regardless of seeds × rates.
        let grid = CampaignConfig::grid(false);
        let points = grid.covered(&grid.plans());
        assert!(points.len() <= 6, "grid covers {} points: {points:?}", points.len());
    }

    #[test]
    fn plan_lists_are_built_before_anything_runs() {
        // Grid keys nest seed × rate × stripes; search keys carry the round.
        let grid = CampaignConfig::grid(true);
        let keys: Vec<String> = grid.plans().into_iter().map(|p| p.key).collect();
        assert_eq!(keys.len(), 8, "2 seeds x 2 rates x 2 stripe counts");
        assert_eq!(keys[1], "seed=0x5eed,rate=0.4,stripes=4,mech=pe,channels=1");
        let search = CampaignConfig::search(20);
        let plans = search.plans();
        assert_eq!(plans.len(), 20, "the search spends exactly its budget");
        assert_eq!(plans[0].key, "r0:link_drop@net");
        assert_eq!(
            plans[8].key, "r1:link_drop+latency_spike",
            "eight targets per round; round 1 skips the singles round 0 covered"
        );
        let keys: BTreeSet<&str> = plans.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys.len(), plans.len(), "cell keys are unique");
    }

    #[test]
    fn cell_outcome_round_trips_through_json() {
        let cell = CellOutcome {
            key: "r0:pe_crash@mpi".to_string(),
            plan: FaultPlan::none().with_pe_crash(1, 80.0).with_watchdog(5e6),
            expectation: Expectation::TypedFailure,
            digest: 0xdead_beef_dead_beef,
            end_time_us: 1234.5,
            perturbed: true,
            survived: true,
            replayed: true,
            numeric_ok: false,
        };
        assert_eq!(CellOutcome::from_json(&cell.to_json()), Some(cell.clone()));
        assert!(!cell.ok(), "a typed-failure cell that survived breaks the contract");
        let line = cell.render();
        assert!(
            line.starts_with("r0:pe_crash@mpi classes=[pe_crash] expect=TypedFailure")
                && line.contains("numeric_ok=false ok=false"),
            "{line}"
        );
    }

    /// A one-cell grid on one node: cheap enough for the unit suite.
    fn tiny_grid() -> CampaignConfig {
        CampaignConfig {
            nodes: 1,
            ..CampaignConfig::new(PlanSource::Grid {
                fault_seeds: 0x5EED..0x5EEE,
                rates: vec![0.4],
                stripes: vec![1],
            })
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let cfg = tiny_grid();
        let serial = run_campaign(&cfg, 1);
        assert_eq!(serial.render(), run_campaign(&cfg, 4).render());
        assert!(serial.outcomes.iter().all(CellOutcome::ok), "{}", serial.render());
    }

    #[test]
    fn mechanism_and_channel_axes_move_the_digest() {
        // The same tiny grid over the symmetric heap (all four ranks are
        // intra-node, so every engine channel rides shmem) and on the
        // 64-channel MoE workload: the contract holds on each, and each
        // axis genuinely changes the event stream.
        let pe = run_campaign(&tiny_grid(), 2);
        let shmem =
            run_campaign(&CampaignConfig { mechanism: CopyMechanism::Shmem, ..tiny_grid() }, 2);
        let moe = run_campaign(&CampaignConfig { channels: 64, ..tiny_grid() }, 2);
        for report in [&shmem, &moe] {
            assert!(report.failures.is_empty(), "{}", report.render());
        }
        assert_ne!(shmem.outcomes[0].digest, pe.outcomes[0].digest, "mechanism axis");
        assert_ne!(moe.outcomes[0].digest, pe.outcomes[0].digest, "channels axis");
        assert!(moe.covered.iter().all(|p| p.starts_with("c64:pe:")), "{:?}", moe.covered);
    }

    #[test]
    fn synthesis_hits_requested_classes() {
        let mut rng = SimRng::seeded(7);
        for c in FaultClass::ALL {
            let plan = synthesize(&[c], &mut rng, 2, 1, TopologyShape::Uniform);
            assert_eq!(classes_of(&plan), vec![c], "single-class synthesis for {c:?}");
            plan.validate().expect("synthesized plans validate");
        }
        let plan = synthesize(
            &[FaultClass::PeCrash, FaultClass::FlagDelay],
            &mut rng,
            2,
            1,
            TopologyShape::Uniform,
        );
        assert_eq!(classes_of(&plan), vec![FaultClass::PeCrash, FaultClass::FlagDelay]);
    }

    #[test]
    fn shaped_synthesis_respects_ragged_bounds() {
        // On the ragged/oversubscribed shapes every synthesized fault must
        // name a rank and NIC the shaped world actually has, and the
        // all-rails class must keep classifying as MultiNicOutage even
        // though odd nodes carry a single rail.
        for shape in [TopologyShape::Ragged, TopologyShape::Oversubscribed] {
            let topo = shape.cluster(2).topology().expect("shape validates");
            for seed in 0..32u64 {
                let mut rng = SimRng::seeded(seed);
                let plan = synthesize(&[FaultClass::NicOutage], &mut rng, 2, 1, shape);
                let outage = &plan.net.as_ref().expect("net faults").nic_outages[0];
                assert!(outage.nic < topo.nics_on(outage.node), "NIC exists on shaped node");
                let mut rng = SimRng::seeded(seed);
                let plan = synthesize(&[FaultClass::MultiNicOutage], &mut rng, 2, 1, shape);
                assert_eq!(classes_of(&plan), vec![FaultClass::MultiNicOutage]);
                let mut rng = SimRng::seeded(seed);
                let plan = synthesize(&[FaultClass::PeCrash], &mut rng, 2, 1, shape);
                let (rank, _) = plan.pe.first().expect("crash entry");
                assert!(*rank < topo.num_ranks(), "rank exists on shaped world");
            }
        }
    }

    #[test]
    fn shape_axis_qualifies_points_and_specs() {
        let on = |shape| CampaignConfig { shape, ..CampaignConfig::search(1) };
        assert_eq!(on(TopologyShape::Uniform).qualify("link_drop@net"), "pe:link_drop@net");
        assert_eq!(on(TopologyShape::Ragged).qualify("link_drop@net"), "ragged:pe:link_drop@net");
        assert_eq!(
            on(TopologyShape::Oversubscribed).qualify("flag_loss@gpu"),
            "oversub:pe:flag_loss@gpu"
        );
        // The shaped specs validate and genuinely differ from uniform:
        // ragged alternates 4/2 GPUs with 2/1 NICs, oversubscribed doubles
        // the rank count on the same shape.
        let ragged = TopologyShape::Ragged.cluster(4);
        assert_eq!(ragged.node_gpus, vec![4, 2, 4, 2]);
        assert_eq!(ragged.node_nics, vec![2, 1, 2, 1]);
        let rt = ragged.topology().expect("ragged validates");
        let ot = TopologyShape::Oversubscribed.cluster(4).topology().expect("oversub validates");
        assert_eq!(ot.num_ranks(), 2 * rt.num_ranks());
        assert_eq!(TopologyShape::Uniform.cluster(2).render(), "2x4x4");
        assert_eq!(TopologyShape::Oversubscribed.cluster(2).render(), "4,2:2,1@2");
    }

    #[test]
    fn multiplexed_synthesis_scales_windows_to_the_moe_horizon() {
        // The 64-channel MoE cell runs ~4.8 ms of virtual time with the
        // pready drain at the end; a classic 20–150 µs stall window would
        // expire before the multiplexed traffic exists.
        let horizon = 75.0 * 64.0;
        for seed in 0..16u64 {
            let mut rng = SimRng::seeded(seed);
            let plan = synthesize(&[FaultClass::PeStall], &mut rng, 2, 64, TopologyShape::Uniform);
            let (_, f) = plan.pe.first().expect("stall entry");
            assert!(f.stall_at_us + f.stall_us >= 0.9 * horizon, "stall must reach the drain");
            let mut rng = SimRng::seeded(seed);
            let plan = synthesize(&[FaultClass::NicOutage], &mut rng, 2, 64, TopologyShape::Uniform);
            let outage = &plan.net.as_ref().expect("net faults").nic_outages[0];
            assert!(outage.until_us - outage.from_us >= 0.4 * horizon, "outage spans the run");
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller_and_valid() {
        let plan = synthesize(
            &[FaultClass::LinkDrop, FaultClass::PeCrash, FaultClass::FlagLoss],
            &mut SimRng::seeded(3),
            2,
            1,
            TopologyShape::Uniform,
        );
        let candidates = plan.shrink();
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_ne!(c, &plan, "candidates must differ from the input");
            assert!(
                coverage_points(c).len() < coverage_points(&plan).len()
                    || classes_of(c).len() < classes_of(&plan).len()
                    || c.net.is_none() && plan.net.is_some(),
                "candidate did not remove anything: {c:?}"
            );
            c.validate().expect("shrunk plans stay valid");
        }
        // A fully-shrunk plan bottoms out at watchdog-only.
        let empty = FaultPlan::none().with_watchdog(1e6);
        assert!(empty.shrink().is_empty(), "nothing left to shrink");
    }

    #[test]
    fn expectation_classifies_recoverability() {
        const PE: CopyMechanism = CopyMechanism::ProgressionEngine;
        let loss = FaultPlan::none().with_lost_flag_writes(1, 3).with_watchdog(1e6);
        assert_eq!(expectation_at(&loss, true, PE, 1), Expectation::TypedFailure);
        // On the multiplexed axis the MoE cell's plain partitioned
        // channels replay host-side, so an armed ladder recovers a lost
        // flag write; without the ladder it is still a typed failure.
        assert_eq!(expectation_at(&loss, true, PE, 64), Expectation::Recover);
        assert_eq!(expectation_at(&loss, false, PE, 64), Expectation::TypedFailure);
        let crash = FaultPlan::none().with_pe_crash(1, 300.0).with_watchdog(1e6);
        assert_eq!(expectation_at(&crash, true, PE, 1), Expectation::Recover);
        assert_eq!(expectation_at(&crash, false, PE, 1), Expectation::TypedFailure);
        let drops = FaultPlan::none().with_link_faults(0.2, 0.0, 10.0).with_watchdog(1e6);
        assert_eq!(expectation_at(&drops, true, PE, 1), Expectation::Recover);
        let mut rails = FaultPlan::none().with_watchdog(1e6);
        for nic in 0..4u8 {
            rails = rails.with_nic_outage(0, nic, 600.0, 9_000.0).expect("window");
        }
        assert_eq!(expectation_at(&rails, true, PE, 1), Expectation::Recover);
        assert_eq!(expectation_at(&rails, false, PE, 1), Expectation::TypedFailure);
    }

    #[test]
    fn mechanism_axis_shapes_targets_and_expectations() {
        // Shmem-signal faults need symmetric-heap channels: under the
        // classic protocols the classes are inert, so a loss plan is
        // expected to (trivially) recover; under Shmem a loss without the
        // escalation ladder is a typed failure.
        let loss = FaultPlan::none().with_lost_shmem_signals(0, 1).with_watchdog(1e6);
        assert_eq!(classes_of(&loss), vec![FaultClass::ShmemSignalLoss]);
        assert_eq!(
            expectation_at(&loss, false, CopyMechanism::ProgressionEngine, 1),
            Expectation::Recover,
            "inert under the classic protocol"
        );
        assert_eq!(
            expectation_at(&loss, false, CopyMechanism::Shmem, 1),
            Expectation::TypedFailure
        );
        assert_eq!(expectation_at(&loss, true, CopyMechanism::Shmem, 1), Expectation::Recover);

        // The PE target list carries the flag-write classes and no shmem
        // classes; the shmem list swaps them.
        let pe_targets = targets(CopyMechanism::ProgressionEngine, 1);
        assert!(pe_targets.iter().any(|(k, _)| k == "flag_loss@gpu"));
        assert!(!pe_targets.iter().any(|(k, _)| k.contains("shmem")));
        let shmem_targets = targets(CopyMechanism::Shmem, 1);
        assert!(shmem_targets.iter().any(|(k, _)| k == "shmem_loss@gpu"));
        assert!(shmem_targets.iter().any(|(k, _)| k == "shmem_delay+shmem_loss"));
        assert!(!shmem_targets.iter().any(|(k, _)| k.contains("flag_")));

        // Point keys are mechanism-qualified, so the axis genuinely grows
        // the point space instead of folding onto the classic points.
        let grid = CampaignConfig { mechanism: CopyMechanism::Shmem, ..CampaignConfig::grid(true) };
        assert_eq!(grid.qualify("link_drop@net"), "shmem:link_drop@net");
        assert!(grid.covered(&grid.plans()).iter().all(|p| p.starts_with("shmem:")));
    }

    #[test]
    fn channel_axis_shapes_targets_and_points() {
        // Multiplexed load is a distinct point space; the classic space
        // keeps its unprefixed keys.
        let on = |channels| CampaignConfig { channels, ..CampaignConfig::search(1) };
        assert_eq!(on(64).qualify("pe_stall@mpi"), "c64:pe:pe_stall@mpi");
        assert_eq!(on(1).qualify("pe_stall@mpi"), "pe:pe_stall@mpi");

        // The MoE cell is GPU-initiated under every mechanism, so the
        // flag classes survive onto the multiplexed axis (except under
        // shmem — same roulette rule as the classic axis). The all-rails
        // outage is classic-axis-only (admission-handshake overlap).
        let pe = targets(CopyMechanism::ProgressionEngine, 64);
        assert!(pe.iter().any(|(k, _)| k == "flag_loss@gpu"));
        assert!(!pe.iter().any(|(k, _)| k.contains("multi_nic_outage")));
        assert!(pe.iter().any(|(k, _)| k == "pe_stall@mpi"));
        assert!(pe.iter().any(|(k, _)| k == "nic_outage@net"));
        let shmem = targets(CopyMechanism::Shmem, 64);
        assert!(shmem.iter().any(|(k, _)| k == "shmem_loss@gpu"));
        assert!(!shmem.iter().any(|(k, _)| k.contains("flag_")));
    }
}
