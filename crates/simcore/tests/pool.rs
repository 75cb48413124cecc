//! The process-wide worker pool that runs thread-backed simulation
//! processes. These tests live in their own test binary so that no other
//! test shares the pool with them, and they take [`SERIAL`] so that they
//! do not share it with each other either.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread::{self, ThreadId};

use parcomm_sim::{Event, Mutex, SimBarrier, SimDuration, SimError, SimReport, Simulation};

static SERIAL: Mutex<()> = Mutex::new(());

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// The fields of a report, comparable.
fn summary(report: &SimReport) -> (u64, u64, u64, u64) {
    (report.end_time.as_nanos(), report.events_processed, report.processes, report.handoffs)
}

/// A 4-process ping-pong with jitter, recording the OS thread each
/// process ran on.
fn four_process_run(seed: u64, threads: &Arc<Mutex<Vec<ThreadId>>>) -> SimReport {
    let mut sim = Simulation::with_seed(seed);
    for i in 0..4u64 {
        let threads = threads.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            threads.lock().push(thread::current().id());
            for _ in 0..5 {
                let dt = ctx.jitter_us(1.0 + i as f64, 0.5);
                ctx.advance(dt);
            }
        });
    }
    sim.run().expect("a 4-process run completes")
}

#[test]
fn sequential_simulations_reuse_the_same_workers() {
    let _serial = SERIAL.lock();
    let threads = Arc::new(Mutex::new(Vec::new()));
    for seed in 0..10 {
        four_process_run(seed, &threads);
    }
    let threads = threads.lock();
    assert_eq!(threads.len(), 40);
    let distinct: HashSet<&ThreadId> = threads.iter().collect();
    assert!(distinct.len() <= 4, "{} distinct worker threads", distinct.len());
}

#[test]
fn failed_runs_do_not_poison_the_pool() {
    let _serial = SERIAL.lock();
    let threads = Arc::new(Mutex::new(Vec::new()));
    let clean = summary(&four_process_run(7, &threads));

    // A panic with other processes parked: they keep their workers.
    let mut sim = Simulation::with_seed(1);
    let never = Event::named("never-fires");
    for i in 0..3 {
        let never = never.clone();
        sim.spawn(format!("parked{i}"), move |ctx| {
            ctx.wait(&never);
        });
    }
    sim.spawn("faulty", |ctx| {
        ctx.advance(us(2));
        panic!("faulty step");
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, .. }) => assert_eq!(name, "faulty"),
        other => panic!("expected process panic, got {other:?}"),
    }

    // A deadlock: both processes stay parked for good.
    let mut sim = Simulation::with_seed(2);
    for i in 0..2 {
        let never = never.clone();
        sim.spawn(format!("stuck{i}"), move |ctx| {
            ctx.advance(us(1));
            ctx.wait(&never);
        });
    }
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => assert_eq!(blocked.len(), 2),
        other => panic!("expected deadlock, got {other:?}"),
    }

    assert_eq!(summary(&four_process_run(7, &threads)), clean, "the clean run after failures");
}

#[test]
fn concurrent_simulations_match_serial_ones() {
    let _serial = SERIAL.lock();
    let threads = Arc::new(Mutex::new(Vec::new()));
    let seeds: [u64; 2] = [21, 22];
    let serial: Vec<_> = seeds.iter().map(|&s| summary(&four_process_run(s, &threads))).collect();
    let concurrent: Vec<Vec<_>> = thread::scope(|scope| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let threads = threads.clone();
                scope.spawn(move || {
                    (0..5).map(|_| summary(&four_process_run(seed, &threads))).collect()
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().expect("runner thread")).collect()
    });
    for (i, runs) in concurrent.iter().enumerate() {
        for run in runs {
            assert_eq!(*run, serial[i], "seed {}", seeds[i]);
        }
    }
}

/// The distinct OS threads `threads` has recorded.
fn distinct(threads: &Mutex<Vec<ThreadId>>) -> usize {
    threads.lock().iter().collect::<HashSet<_>>().len()
}

#[test]
fn a_simulation_dropped_before_it_runs_is_freed() {
    let _serial = SERIAL.lock();
    let threads = Arc::new(Mutex::new(Vec::new()));
    four_process_run(3, &threads);

    // Each body holds a handle onto its own simulation.
    let mut sim = Simulation::with_seed(4);
    let handle = sim.handle();
    let weak = handle.downgrade();
    sim.spawn("never-runs", move |ctx| {
        let _handle = handle;
        ctx.advance(us(1));
    });
    sim.spawn_future("never-polled", |proc| async move { proc.advance(us(1)).await });
    drop(sim);
    assert!(!weak.is_live(), "an unstarted process keeps its simulation alive");

    four_process_run(3, &threads);
    assert!(distinct(&threads) <= 4, "{} distinct worker threads", distinct(&threads));
}

#[test]
fn a_run_that_fails_before_a_process_starts_frees_it() {
    let _serial = SERIAL.lock();
    let threads = Arc::new(Mutex::new(Vec::new()));
    four_process_run(5, &threads);

    let mut sim = Simulation::with_seed(6);
    let handle = sim.handle();
    let weak = handle.downgrade();
    sim.spawn("faulty", |_| panic!("fails on its first resume"));
    sim.spawn("later", move |ctx| {
        let _handle = handle;
        ctx.advance(us(1));
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, .. }) => assert_eq!(name, "faulty"),
        other => panic!("expected process panic, got {other:?}"),
    }
    assert!(!weak.is_live(), "a failed run keeps its simulation alive");

    four_process_run(5, &threads);
    assert!(distinct(&threads) <= 4, "{} distinct worker threads", distinct(&threads));
}

/// Records the OS thread that drops it: a process body holding one is
/// dropped on a pooled worker if it was handed to one, and otherwise with
/// its simulation, on the thread that drops that.
struct DropThread(Arc<Mutex<Vec<ThreadId>>>);

impl Drop for DropThread {
    fn drop(&mut self) {
        self.0.lock().push(thread::current().id());
    }
}

#[test]
fn an_init_future_that_panics_takes_no_worker() {
    let _serial = SERIAL.lock();
    let threads = Arc::new(Mutex::new(Vec::new()));
    four_process_run(8, &threads);

    let mut sim = Simulation::with_seed(9);
    let handle = sim.handle();
    let weak = handle.downgrade();
    let dropped = Arc::new(Mutex::new(Vec::new()));
    let guard = DropThread(dropped.clone());
    let ran = Arc::new(Mutex::new(false));
    let ran2 = ran.clone();
    sim.spawn_init(
        "faulty-init",
        |proc| async move {
            proc.advance(us(1)).await;
            panic!("fails inside its init future");
        },
        move |_, ()| {
            let (_handle, _guard) = (handle, guard);
            *ran2.lock() = true;
        },
    );
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "faulty-init");
            assert!(message.contains("fails inside its init future"), "{message}");
        }
        other => panic!("expected process panic, got {other:?}"),
    }
    assert!(!*ran.lock(), "the body of a process whose init future panicked ran");
    assert_eq!(*dropped.lock(), [thread::current().id()], "the unrun body went to a worker");
    assert!(!weak.is_live(), "a failed run keeps its simulation alive");

    four_process_run(8, &threads);
    assert!(distinct(&threads) <= 4, "{} distinct worker threads", distinct(&threads));
}

#[test]
fn processes_parked_in_their_init_futures_deadlock_without_workers() {
    let _serial = SERIAL.lock();
    let threads = Arc::new(Mutex::new(Vec::new()));
    four_process_run(10, &threads);

    // A barrier one arrival short: both processes stay inside their init
    // futures for good.
    let mut sim = Simulation::with_seed(11);
    let weak = sim.handle().downgrade();
    let barrier = SimBarrier::new(3);
    let dropped = Arc::new(Mutex::new(Vec::new()));
    for i in 0..2 {
        let (barrier, handle) = (barrier.clone(), sim.handle());
        let guard = DropThread(dropped.clone());
        sim.spawn_init(
            format!("init{i}"),
            move |proc| async move { barrier.wait_async(&proc).await },
            move |ctx, ()| {
                let (_handle, _guard) = (handle, guard);
                ctx.advance(us(1));
            },
        );
    }
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            let names: Vec<&str> = blocked.iter().map(|b| b.process.as_str()).collect();
            assert_eq!(names, ["init0", "init1"]);
            for b in &blocked {
                assert_eq!(b.waiting_on.as_deref(), Some("event 'barrier'"));
            }
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    let here = thread::current().id();
    assert_eq!(*dropped.lock(), [here, here], "an unstarted body went to a worker");
    assert!(!weak.is_live(), "a deadlocked run keeps its simulation alive");

    four_process_run(10, &threads);
    assert!(distinct(&threads) <= 4, "{} distinct worker threads", distinct(&threads));
}
