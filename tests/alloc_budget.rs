//! Heap allocations per steady-state epoch of the partitioned
//! hierarchical allreduce.
//!
//! The collective epoch's steady state (paper Algorithm 2: `MPI_Start`,
//! `MPIX_Pbuf_prepare`, device `MPIX_Pready`, the `MPI_Wait` sweep loop)
//! should allocate almost nothing: no put completion event, no `Vec` per
//! `MPI_Pready` or per sweep step, no heap waiter list for an event with
//! one waiter, no completion event per active message, no second box per
//! kernel emission, no new hook list per progression-engine sweep. This
//! binary counts every allocation through its own global allocator and
//! pins the per-epoch count of the 2-node allreduce (epochs 2..N, so
//! channel setup and first-touch pages are excluded) at its measured
//! value.
//!
//! It holds one test, so no other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use parcomm::coll::pallreduce_init_hierarchical;
use parcomm::prelude::*;

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

const PARTITIONS: usize = 4;

/// Allocations made by one whole run of `epochs` allreduce epochs on the
/// 2-node GH200 world: 8 ranks, 4 user partitions, 64 f64 per chunk,
/// readiness marked from a kernel.
fn run(epochs: usize) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut sim = Simulation::with_seed(34);
    let world = MpiWorld::gh200(&sim, 2);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let n = PARTITIONS * rank.size() * 64;
        let buf = rank.gpu().alloc_global(n * 8);
        let stream = rank.gpu().create_stream();
        let coll =
            pallreduce_init_hierarchical(ctx, rank, &buf, PARTITIONS, &stream, 3).expect("init");
        for epoch in 0..epochs {
            buf.write_f64_slice(0, &vec![(epoch + rank.rank()) as f64; n]);
            coll.start(ctx).expect("start");
            coll.pbuf_prepare(ctx).expect("pbuf_prepare");
            let c2 = coll.clone();
            stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| c2.pready_device_all(d));
            coll.wait(ctx).expect("wait");
            let want = (rank.size() * epoch + rank.size() * (rank.size() - 1) / 2) as f64;
            assert_eq!(buf.read_f64_slice(0, n), vec![want; n], "epoch {epoch}");
        }
    });
    sim.run().expect("allreduce sim");
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations per steady-state epoch, in debug and release builds alike.
/// Before the collective epoch was made allocation-lean it cost 3,323;
/// before the event-free `am_send`, single-box kernel emissions and the
/// in-place progression-engine sweep, 1,286; before puts, active
/// messages, device emissions, kernel completions and progression-engine
/// hooks were queued as allocation-free actions, 1,251.
const EPOCH_BUDGET: u64 = 93;

#[test]
fn steady_state_allreduce_epoch_stays_within_allocation_budget() {
    const EPOCHS: usize = 6;
    // Warm the process: the simulation's worker pool and lazy statics.
    run(1);
    let first = run(1);
    let all = run(EPOCHS);
    let per_epoch = (all - first) / (EPOCHS as u64 - 1);
    assert!(
        per_epoch <= EPOCH_BUDGET,
        "{per_epoch} heap allocations per steady-state epoch (budget {EPOCH_BUDGET}; \
         a 1-epoch run made {first}, a {EPOCHS}-epoch run {all})"
    );
}
