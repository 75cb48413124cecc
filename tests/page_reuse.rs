//! Persistent channels reuse buffer pages: once a channel has run its first
//! epochs, every page a later epoch writes comes from the free list of
//! dropped pages, never from the allocator.
//!
//! The page counter is process-wide, so this file holds a single test and
//! runs in its own process.

use parcomm::gpu::pages_allocated;
use parcomm::prelude::*;
use parcomm_sim::Mutex;

/// Epochs before the count is taken: the first epochs stock the free list.
const WARMUP: usize = 2;
/// Epochs that must allocate no page.
const STEADY: usize = 6;
const PARTS: usize = 8;

/// `(sender, receiver, mechanism, stripes, partition bytes)`: every copy
/// path of the benchmark's p2p workloads, on ranks that share no GPU.
const CHANNELS: [(usize, usize, CopyMechanism, usize, usize); 4] = [
    (0, 1, CopyMechanism::KernelCopy, 1, 64 << 10),
    (4, 5, CopyMechanism::Shmem, 1, 64 << 10),
    (2, 6, CopyMechanism::ProgressionEngine, 1, 128 << 10),
    (3, 7, CopyMechanism::ProgressionEngine, 2, 128 << 10),
];

/// The value of element `i` in `epoch`'s payload from `sender`.
fn value(sender: usize, epoch: usize, i: usize) -> f64 {
    (sender * 1_000_000 + epoch * 10_000 + i % 9_973) as f64 + 0.5
}

fn sender(ctx: &mut Ctx, rank: &Rank, dst: usize, copy: CopyMechanism, stripes: usize, n: usize) {
    let buf = rank.gpu().alloc_global(PARTS * n);
    let stream = rank.gpu().create_stream();
    let sreq = psend_init(ctx, rank, dst, 7, &buf, PARTS).expect("psend_init");
    sreq.set_mechanism(copy).expect("mechanism");
    sreq.set_stripes(stripes).expect("stripes");
    let config = PrequestConfig { copy, transport_partitions: 2, ..PrequestConfig::default() };
    let mut preq = None;
    for epoch in 0..WARMUP + STEADY {
        epoch_boundary(ctx, rank);
        sreq.start(ctx).expect("start");
        sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
        let p = preq
            .get_or_insert_with(|| prequest_create(ctx, rank, &sreq, config).expect("prequest"))
            .clone();
        let vals: Vec<f64> = (0..PARTS * n / 8).map(|i| value(rank.rank(), epoch, i)).collect();
        buf.write_f64_slice(0, &vals);
        let threads = (PARTS * n / 8) as u32;
        stream.launch(ctx, KernelSpec::vector_add(threads.div_ceil(1024), 1024), move |d| {
            p.pready_all_progressive(d)
        });
        sreq.wait(ctx).expect("send wait");
    }
}

fn receiver(ctx: &mut Ctx, rank: &Rank, src: usize, copy: CopyMechanism, n: usize) {
    let buf = rank.gpu().alloc_global(PARTS * n);
    let rreq = precv_init(ctx, rank, src, 7, &buf, PARTS).expect("precv_init");
    rreq.set_mechanism(copy).expect("mechanism");
    for epoch in 0..WARMUP + STEADY {
        epoch_boundary(ctx, rank);
        rreq.start(ctx).expect("start");
        rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
        rreq.wait(ctx).expect("recv wait");
        let got = buf.read_f64_slice(0, PARTS * n / 8);
        assert!(
            got.iter().enumerate().all(|(i, &v)| v == value(src, epoch, i)),
            "rank {} epoch {epoch}: payload from rank {src} corrupted",
            rank.rank()
        );
    }
}

/// The page counter as rank 0 read it at the start of every epoch and
/// after the last one.
static READS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Every rank stops between two barriers while rank 0 reads the page
/// counter: each epoch starts in step on every channel, and no rank writes
/// a page of the next epoch before the count is taken.
fn epoch_boundary(ctx: &mut Ctx, rank: &Rank) {
    rank.barrier(ctx);
    if rank.rank() == 0 {
        READS.lock().push(pages_allocated());
    }
    rank.barrier(ctx);
}

#[test]
fn steady_state_epochs_allocate_no_pages() {
    let mut sim = Simulation::with_seed(0x9A6E);
    let world = MpiWorld::gh200(&sim, 2);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let me = rank.rank();
        let (src, dst, copy, stripes, n) = CHANNELS
            .into_iter()
            .find(|c| c.0 == me || c.1 == me)
            .expect("every rank is on a channel");
        if src == me {
            sender(ctx, rank, dst, copy, stripes, n);
        } else {
            receiver(ctx, rank, src, copy, n);
        }
        epoch_boundary(ctx, rank);
    });
    sim.run().expect("simulation");
    let reads = READS.lock().clone();
    assert_eq!(reads.len(), WARMUP + STEADY + 1, "one read per epoch and one at the end");
    assert!(reads[WARMUP] > 0, "the warm-up epochs write full pages");
    assert!(
        reads[WARMUP..].iter().all(|&n| n == reads[WARMUP]),
        "steady-state epochs allocated pages the free list could not supply \
         (pages allocated so far, read at the start of each epoch: {reads:?})"
    );
}
