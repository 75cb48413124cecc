//! Host-cost ledger: exact counts of the simulator's own work on the four
//! benchmark workload shapes.
//!
//! Host clocks on a shared guest swing by several percent between series,
//! so a host-cost change is judged by clock pairs and explained by counts
//! that do not swing. This binary runs in-tree copies of the benchmark's
//! `p2p_intra`, `p2p_inter`, `allreduce` and `moe` shapes (same worlds,
//! channels, sizes, epochs and copy paths; each instance verifies its
//! outputs) and pins, per instance after one warm-up instance:
//!
//! - heap allocations, counted by this binary's own global allocator (the
//!   `alloc_budget.rs` pattern);
//! - events processed and thread handoffs (`SimReport`);
//! - buffer pages the allocator supplied (`parcomm_gpu::pages_allocated`);
//! - lock acquisitions (`parcomm_sim::locks_taken`, which the root
//!   package's dev-dependency turns on with the `lock-census` feature).
//!   An uncontended lock costs this host about as much as an allocation,
//!   so the hot paths are judged by both.
//!
//! Each is a budget (≤), set at the measured value. A change that lowers a
//! count tightens its budget and quotes the delta beside its clock pairs.
//! Events and handoffs are pinned at a second seed too, where the shapes
//! draw other jitter. Run with `--nocapture` to print the ledger.
//!
//! It holds one test, so no other test's allocations, pages or locks land
//! in a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm::apps::{moe_reference, run_moe, MoeConfig};
use parcomm::coll::pallreduce_init_hierarchical;
use parcomm::gpu::pages_allocated;
use parcomm::prelude::*;
use parcomm::sim::{locks_taken, Mutex, SimReport};

/// Counts allocations (and reallocations) and forwards everything to the
/// system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The simulation seed of the budgeted instances.
const SEED: u64 = 1;

/// The second seed, at which events and handoffs are pinned too.
const SEED_2: u64 = 2;

/// What one instance cost the host.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Ledger {
    allocations: u64,
    events: u64,
    handoffs: u64,
    pages: u64,
    locks: u64,
}

/// A workload shape: its world and the rank body of one instance, which
/// counts every output it finds wrong into the shared tally.
trait Shape: Send + Sync + 'static {
    fn nodes(&self) -> u16;
    fn rank(&self, ctx: &mut Ctx, rank: &mut Rank, wrong: &Mutex<u64>);
}

/// Run one instance of `shape` under simulation seed `seed` and count what
/// it cost.
fn instance(shape: &Arc<dyn Shape>, seed: u64) -> Ledger {
    let (allocations, pages, locks) =
        (ALLOCATIONS.load(Ordering::Relaxed), pages_allocated(), locks_taken());
    let mut sim = Simulation::with_seed(seed);
    let world = MpiWorld::new(&sim, WorldConfig::gh200(shape.nodes()));
    let wrong = Arc::new(Mutex::new(0));
    let (s2, w2) = (shape.clone(), wrong.clone());
    world.run_ranks(&mut sim, move |ctx, rank| s2.rank(ctx, rank, &w2));
    let SimReport { events_processed, handoffs, .. } = sim.run().expect("instance runs");
    assert_eq!(*wrong.lock(), 0, "every output of the instance must verify");
    Ledger {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        events: events_processed,
        handoffs,
        pages: pages_allocated() - pages,
        locks: locks_taken() - locks,
    }
}

/// Epochs each p2p channel runs.
const P2P_EPOCHS: usize = 8;
/// User partitions per p2p channel.
const P2P_PARTS: usize = 8;

/// One persistent p2p channel of the `p2p_*` shapes.
#[derive(Copy, Clone)]
struct Chan {
    src: usize,
    dst: usize,
    copy: CopyMechanism,
    stripes: usize,
    part_bytes: usize,
}

/// `p2p_intra` (one node: Kernel Copy 0 → 1 and shmem 2 → 3, 8 × 64 KiB)
/// or `p2p_inter` (two nodes: the Progression Engine 3 → 7 on one rail and
/// 0 → 4 striped over two, 8 × 128 KiB). Every epoch writes a fresh
/// payload, a kernel marks the partitions ready, and the receiver checks
/// every byte.
struct P2p {
    nodes: u16,
    chans: Vec<Chan>,
    /// `payloads[channel][epoch]`, generated outside the counted instance.
    payloads: Vec<Vec<Vec<f64>>>,
}

impl P2p {
    fn new(nodes: u16, chans: Vec<Chan>) -> P2p {
        let payloads = chans
            .iter()
            .map(|c| {
                (0..P2P_EPOCHS)
                    .map(|e| {
                        let n = P2P_PARTS * c.part_bytes / 8;
                        (0..n).map(|i| ((c.src * 131 + e * 17 + i) % 1024) as f64).collect()
                    })
                    .collect()
            })
            .collect();
        P2p { nodes, chans, payloads }
    }

    fn send(&self, ctx: &mut Ctx, rank: &Rank, c: Chan, payloads: &[Vec<f64>]) {
        let bytes = P2P_PARTS * c.part_bytes;
        let buf = rank.gpu().alloc_global(bytes);
        let stream = rank.gpu().create_stream();
        let sreq = psend_init(ctx, rank, c.dst, 7, &buf, P2P_PARTS).expect("psend_init");
        sreq.set_mechanism(c.copy).expect("mechanism");
        sreq.set_stripes(c.stripes).expect("stripes");
        let config = PrequestConfig { copy: c.copy, transport_partitions: 2, ..Default::default() };
        let mut preq = None;
        for data in payloads {
            sreq.start(ctx).expect("start");
            sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            let p = preq
                .get_or_insert_with(|| prequest_create(ctx, rank, &sreq, config).expect("prequest"))
                .clone();
            buf.write_f64_slice(0, data);
            let threads = (bytes / 8) as u32;
            stream.launch(
                ctx,
                KernelSpec::vector_add(threads.div_ceil(1024), threads.min(1024)),
                move |d| p.pready_all_progressive(d),
            );
            sreq.wait(ctx).expect("send wait");
        }
    }

    fn recv(&self, ctx: &mut Ctx, rank: &Rank, c: Chan, payloads: &[Vec<f64>], wrong: &Mutex<u64>) {
        let bytes = P2P_PARTS * c.part_bytes;
        let buf = rank.gpu().alloc_global(bytes);
        let rreq = precv_init(ctx, rank, c.src, 7, &buf, P2P_PARTS).expect("precv_init");
        rreq.set_mechanism(c.copy).expect("mechanism");
        for data in payloads {
            rreq.start(ctx).expect("start");
            rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            rreq.wait(ctx).expect("recv wait");
            let on_path = (c.copy == CopyMechanism::Shmem) == rreq.shmem_active();
            if !on_path || buf.read_f64_slice(0, bytes / 8) != *data {
                *wrong.lock() += 1;
            }
        }
    }
}

impl Shape for P2p {
    fn nodes(&self) -> u16 {
        self.nodes
    }

    fn rank(&self, ctx: &mut Ctx, rank: &mut Rank, wrong: &Mutex<u64>) {
        let me = rank.rank();
        for (c, payloads) in self.chans.iter().zip(&self.payloads) {
            if c.src == me {
                self.send(ctx, rank, *c, payloads);
            } else if c.dst == me {
                self.recv(ctx, rank, *c, payloads, wrong);
            }
        }
    }
}

fn chan(src: usize, dst: usize, copy: CopyMechanism, stripes: usize, part_bytes: usize) -> Chan {
    Chan { src, dst, copy, stripes, part_bytes }
}

/// Epochs of the `allreduce` shape.
const AR_EPOCHS: usize = 6;
/// Doubles per rank buffer: one per thread of a 64-block kernel.
const AR_LEN: usize = 64 * 1024;
const AR_RANKS: usize = 8;

/// `allreduce`: the 2-node, 8-rank hierarchical `Pallreduce` of 512 KiB per
/// rank, 4 user partitions readied from a kernel, every sum checked.
struct Allreduce {
    /// `inputs[epoch][rank]`, generated outside the counted instance.
    inputs: Vec<Vec<Vec<f64>>>,
    sums: Vec<Vec<f64>>,
}

impl Allreduce {
    fn new() -> Allreduce {
        let inputs: Vec<Vec<Vec<f64>>> = (0..AR_EPOCHS)
            .map(|e| {
                (0..AR_RANKS)
                    .map(|r| (0..AR_LEN).map(|i| ((r * 7 + e * 3 + i) % 1024) as f64).collect())
                    .collect()
            })
            .collect();
        let sums = inputs
            .iter()
            .map(|per_rank| (0..AR_LEN).map(|i| per_rank.iter().map(|v| v[i]).sum()).collect())
            .collect();
        Allreduce { inputs, sums }
    }
}

impl Shape for Allreduce {
    fn nodes(&self) -> u16 {
        2
    }

    fn rank(&self, ctx: &mut Ctx, rank: &mut Rank, wrong: &Mutex<u64>) {
        let me = rank.rank();
        let buf = rank.gpu().alloc_global(AR_LEN * 8);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init_hierarchical(ctx, rank, &buf, 4, &stream, 11).expect("init");
        for (inputs, sum) in self.inputs.iter().zip(&self.sums) {
            buf.write_f64_slice(0, &inputs[me]);
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            let c2 = coll.clone();
            stream.launch(ctx, KernelSpec::vector_add(64, 1024), move |d| c2.pready_device_all(d));
            coll.wait(ctx).expect("wait");
            if buf.read_f64_slice(0, AR_LEN) != *sum {
                *wrong.lock() += 1;
            }
        }
    }
}

/// `moe`: three tenants' MoE dispatch/combine on two nodes over 672
/// mux-admitted Progression Engine channels, 3 layers, each rank's checksum
/// checked bit for bit against the serial reference.
struct Moe {
    cfg: MoeConfig,
    reference: Vec<f64>,
}

impl Moe {
    fn new() -> Moe {
        let cfg = MoeConfig {
            tenants: 3,
            // The weights the benchmark draws for its seed 1.
            tenant_weights: vec![2, 1, 3],
            tokens_per_rank: 64,
            hidden: 8,
            layers: 3,
            capacity_factor_pct: 150,
            mechanism: CopyMechanism::ProgressionEngine,
            functional: true,
            seed: SEED,
        };
        let reference = moe_reference(&cfg, 8);
        Moe { cfg, reference }
    }
}

impl Shape for Moe {
    fn nodes(&self) -> u16 {
        2
    }

    fn rank(&self, ctx: &mut Ctx, rank: &mut Rank, wrong: &Mutex<u64>) {
        let r = run_moe(ctx, rank, &self.cfg).expect("run_moe");
        // 3 tenants × 7 peers × (dispatch, combine) × (send, receive).
        let exact = r.checksum.to_bits() == self.reference[rank.rank()].to_bits();
        if !exact || r.channels != 3 * 7 * 4 {
            *wrong.lock() += 1;
        }
    }
}

/// Per-instance budgets at [`SEED`]: `(shape, allocations, events,
/// handoffs, pages, locks)`. Before pooled pages of every length, one-op flag
/// stamping, the event-free `am_send`, inline single-message AM queues,
/// arrival events only for waiting receivers, single-box kernel emissions
/// and the allocation-lean mux grant, PE sweep and MoE layer loop, the same
/// instances made 1,157 (`p2p_intra`), 1,847 (`p2p_inter`), 10,473
/// (`allreduce`) and 32,845 (`moe`) allocations; before puts, active
/// messages, device emissions, kernel completions and progression-engine
/// hooks were queued as allocation-free actions (and the MoE steps read
/// into one slice), 535, 735, 8,574 and 21,302; each with the same events,
/// handoffs and pages. Before arrival ticks were folded into their
/// landings, puts were kept by their callers, dispatch kept its guard
/// across a re-park, the collective sweep locked once per visit and the
/// page pool once per buffer operation (among smaller sites), and before
/// an idle worker thread waited for its next job without a channel, the same
/// instances took 3,738, 5,435, 174,201 and 97,091 locks, and made 392,
/// 531, 1,612 and 12,123 allocations.
const BUDGETS: [(&str, u64, u64, u64, u64, u64); 4] = [
    ("p2p_intra", 391, 353, 74, 0, 2_407),
    ("p2p_inter", 529, 457, 81, 0, 2_752),
    ("allreduce", 1_608, 25_953, 175, 0, 111_396),
    ("moe", 12_118, 13_470, 16, 0, 68_119),
];

/// Events and handoffs per instance at [`SEED_2`]: `(shape, events,
/// handoffs)`. Exact, like the budgets: a change that moves one changed
/// what the simulation does, not only what it costs.
const AT_SEED_2: [(&str, u64, u64); 4] = [
    ("p2p_intra", 357, 75),
    ("p2p_inter", 457, 81),
    ("allreduce", 25_473, 178),
    ("moe", 13_448, 16),
];

#[test]
fn benchmark_shapes_stay_within_their_host_budgets() {
    let shapes: [(&str, Arc<dyn Shape>); 4] = [
        (
            "p2p_intra",
            Arc::new(P2p::new(
                1,
                vec![
                    chan(0, 1, CopyMechanism::KernelCopy, 1, 64 << 10),
                    chan(2, 3, CopyMechanism::Shmem, 1, 64 << 10),
                ],
            )),
        ),
        (
            "p2p_inter",
            Arc::new(P2p::new(
                2,
                vec![
                    chan(3, 7, CopyMechanism::ProgressionEngine, 1, 128 << 10),
                    chan(0, 4, CopyMechanism::ProgressionEngine, 2, 128 << 10),
                ],
            )),
        ),
        ("allreduce", Arc::new(Allreduce::new())),
        ("moe", Arc::new(Moe::new())),
    ];
    let mut over = Vec::new();
    println!("shape      allocations  events  handoffs  pages    locks");
    for ((name, shape), (budget_name, allocations, events, handoffs, pages, locks)) in
        shapes.iter().zip(BUDGETS)
    {
        assert_eq!(*name, budget_name);
        // The warm-up stocks the worker pool, lazy statics and page lists.
        instance(shape, SEED);
        let got = instance(shape, SEED);
        println!(
            "{name:<10} {:>11}  {:>6}  {:>8}  {:>5}  {:>7}",
            got.allocations, got.events, got.handoffs, got.pages, got.locks
        );
        let budget = Ledger { allocations, events, handoffs, pages, locks };
        if got.allocations > allocations
            || got.events > events
            || got.handoffs > handoffs
            || got.pages > pages
            || got.locks > locks
        {
            over.push(format!("{name}: {got:?} over its budget {budget:?}"));
        }
    }
    println!("at seed {SEED_2}: shape events handoffs");
    for ((name, shape), (pinned_name, events, handoffs)) in shapes.iter().zip(AT_SEED_2) {
        assert_eq!(*name, pinned_name);
        let got = instance(shape, SEED_2);
        println!("{name:<10} {:>6}  {:>8}", got.events, got.handoffs);
        if (got.events, got.handoffs) != (events, handoffs) {
            over.push(format!(
                "{name} at seed {SEED_2}: {} events and {} handoffs, pinned {events} and {handoffs}",
                got.events, got.handoffs
            ));
        }
    }
    assert!(over.is_empty(), "host costs over budget:\n{}", over.join("\n"));
}
