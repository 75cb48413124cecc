//! Integration tests for the discrete-event scheduler: ordering, blocking,
//! shutdown, deadlock detection, and determinism.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_sim::{
    Action, CountEvent, Event, Proc, SimBarrier, SimConfig, SimDuration, SimError, SimHandle,
    SimTime, Simulation, SpanId,
};

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

#[test]
fn empty_simulation_completes() {
    let sim = Simulation::new(SimConfig::default());
    let report = sim.run().unwrap();
    assert_eq!(report.end_time, SimTime::ZERO);
    assert_eq!(report.processes, 0);
}

#[test]
fn single_process_advances_clock() {
    let mut sim = Simulation::with_seed(1);
    let end = Arc::new(Mutex::new(SimTime::ZERO));
    let end2 = end.clone();
    sim.spawn("p", move |ctx| {
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.advance(us(10));
        ctx.advance(us(5));
        *end2.lock() = ctx.now();
    });
    let report = sim.run().unwrap();
    assert_eq!(*end.lock(), SimTime::from_nanos(15_000));
    assert_eq!(report.end_time, SimTime::from_nanos(15_000));
}

#[test]
fn processes_interleave_in_time_order() {
    let mut sim = Simulation::with_seed(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    for (name, delay) in [("a", 30u64), ("b", 10), ("c", 20)] {
        let log = log.clone();
        sim.spawn(name, move |ctx| {
            ctx.advance(us(delay));
            log.lock().push((name, ctx.now().as_micros_f64()));
        });
    }
    sim.run().unwrap();
    let log = log.lock();
    assert_eq!(
        *log,
        vec![("b", 10.0), ("c", 20.0), ("a", 30.0)],
        "wakeups must be in virtual-time order"
    );
}

#[test]
fn same_instant_is_fifo() {
    let mut sim = Simulation::with_seed(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    for name in ["first", "second", "third"] {
        let log = log.clone();
        sim.spawn(name, move |ctx| {
            ctx.advance(us(5));
            log.lock().push(name);
        });
    }
    sim.run().unwrap();
    assert_eq!(*log.lock(), vec!["first", "second", "third"]);
}

/// Logs the token of every occurrence it runs.
struct Logger(Mutex<Vec<String>>);

impl Action for Logger {
    fn run(self: Arc<Self>, _h: &SimHandle, token: u64, _span: SpanId) {
        self.0.lock().push(format!("action {token}"));
    }
}

#[test]
fn actions_and_callbacks_interleave_in_queue_order() {
    // Queued at one instant in the order callback, action 7, callback,
    // action 3, then action 9 one tick earlier: each entry runs at its
    // `(at, seq)` place whichever form it takes, and counts as one event.
    let mut sim = Simulation::with_seed(1);
    let logger = Arc::new(Logger(Mutex::new(Vec::new())));
    let l2 = logger.clone();
    sim.spawn("scheduler", move |ctx| {
        let h = ctx.handle();
        let at = ctx.now() + us(5);
        let push = |l: &Arc<Logger>, what: &'static str| {
            let l = l.clone();
            move |_: &SimHandle| l.0.lock().push(what.to_string())
        };
        h.schedule_at(at, push(&l2, "callback a"));
        h.schedule_action_at(at, l2.clone(), 7);
        h.schedule_at(at, push(&l2, "callback b"));
        h.schedule_action_at(at, l2.clone(), 3);
        h.schedule_action_at(ctx.now() + us(4), l2.clone(), 9);
    });
    let report = sim.run().unwrap();
    assert_eq!(
        *logger.0.lock(),
        vec!["action 9", "callback a", "action 7", "callback b", "action 3"]
    );
    // The process's one resume plus the five queued entries.
    assert_eq!(report.events_processed, 6);
    assert_eq!(Arc::strong_count(&logger), 1, "a run action drops its handle");
}

#[test]
fn event_wait_and_set() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let ev2 = ev.clone();
    let waited_until = Arc::new(Mutex::new(0.0));
    let w2 = waited_until.clone();
    sim.spawn("waiter", move |ctx| {
        assert!(ctx.wait(&ev2));
        *w2.lock() = ctx.now().as_micros_f64();
    });
    let ev3 = ev.clone();
    sim.spawn("setter", move |ctx| {
        ctx.advance(us(42));
        ev3.set(&ctx.handle());
    });
    sim.run().unwrap();
    assert_eq!(*waited_until.lock(), 42.0);
    assert_eq!(ev.set_at(), Some(SimTime::from_nanos(42_000)));
}

#[test]
fn wait_on_already_set_event_returns_immediately() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let ev2 = ev.clone();
    sim.spawn("p", move |ctx| {
        ev2.set(&ctx.handle());
        let t0 = ctx.now();
        assert!(ctx.wait(&ev2));
        assert_eq!(ctx.now(), t0);
    });
    sim.run().unwrap();
}

#[test]
fn event_set_is_idempotent() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let ev2 = ev.clone();
    sim.spawn("p", move |ctx| {
        ev2.set(&ctx.handle());
        ctx.advance(us(5));
        ev2.set(&ctx.handle()); // second set must not move set_at
        assert_eq!(ev2.set_at(), Some(SimTime::ZERO));
    });
    sim.run().unwrap();
}

#[test]
fn wait_timeout_expires() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let ev2 = ev.clone();
    sim.spawn("p", move |ctx| {
        let fired = ctx.wait_timeout(&ev2, us(10));
        assert!(!fired, "event never set; timeout must report false");
        assert_eq!(ctx.now().as_micros_f64(), 10.0);
    });
    sim.run().unwrap();
}

#[test]
fn wait_timeout_event_wins() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let ev2 = ev.clone();
    sim.spawn("waiter", move |ctx| {
        let fired = ctx.wait_timeout(&ev2, us(100));
        assert!(fired);
        assert_eq!(ctx.now().as_micros_f64(), 7.0);
        // The stale timeout wake at t=100 must not disturb later sleeps.
        ctx.advance(us(1));
        assert_eq!(ctx.now().as_micros_f64(), 8.0);
    });
    let ev3 = ev.clone();
    sim.spawn("setter", move |ctx| {
        ctx.advance(us(7));
        ev3.set(&ctx.handle());
    });
    sim.run().unwrap();
}

#[test]
fn scheduled_callbacks_run_at_their_time() {
    let mut sim = Simulation::with_seed(1);
    let hits = Arc::new(Mutex::new(Vec::new()));
    let hits2 = hits.clone();
    sim.spawn("p", move |ctx| {
        let h = ctx.handle();
        for (i, d) in [30u64, 10, 20].into_iter().enumerate() {
            let hits3 = hits2.clone();
            h.schedule_in(us(d), move |h| {
                hits3.lock().push((i, h.now().as_micros_f64()));
            });
        }
        ctx.advance(us(100));
    });
    sim.run().unwrap();
    assert_eq!(*hits.lock(), vec![(1, 10.0), (2, 20.0), (0, 30.0)]);
}

#[test]
fn callbacks_can_chain_and_set_events() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let ev2 = ev.clone();
    sim.spawn("p", move |ctx| {
        let h = ctx.handle();
        let ev3 = ev2.clone();
        h.schedule_in(us(5), move |h| {
            let ev4 = ev3.clone();
            h.schedule_in(us(5), move |h| ev4.set(h));
        });
        assert!(ctx.wait(&ev2));
        assert_eq!(ctx.now().as_micros_f64(), 10.0);
    });
    sim.run().unwrap();
}

#[test]
fn dynamic_spawn_and_join() {
    let mut sim = Simulation::with_seed(1);
    let total = Arc::new(AtomicU64::new(0));
    let total2 = total.clone();
    sim.spawn("parent", move |ctx| {
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let total3 = total2.clone();
            handles.push(ctx.spawn(format!("child{i}"), move |ctx| {
                ctx.advance(us(i + 1));
                total3.fetch_add(i + 1, Ordering::Relaxed);
            }));
        }
        for h in &handles {
            ctx.join(h);
        }
        assert_eq!(total2.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
        assert_eq!(ctx.now().as_micros_f64(), 4.0);
    });
    sim.run().unwrap();
    assert_eq!(total.load(Ordering::Relaxed), 10);
}

#[test]
fn deadlock_is_detected_with_names() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::named("never-fires");
    sim.spawn("stuck-proc", move |ctx| {
        ctx.wait(&ev); // never set
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].process, "stuck-proc");
            // Wait-for diagnosis: the error alone says what it was stuck on.
            assert_eq!(blocked[0].waiting_on.as_deref(), Some("event 'never-fires'"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn deadlock_reports_unnamed_and_count_waits() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let counter = parcomm_sim::CountEvent::named("arrivals");
    sim.spawn("event-waiter", move |ctx| {
        ctx.wait(&ev);
    });
    sim.spawn("count-waiter", move |ctx| {
        ctx.wait_count(&counter, 8);
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            // Sorted by process name for deterministic diagnostics.
            assert_eq!(blocked.len(), 2);
            assert_eq!(blocked[0].process, "count-waiter");
            assert_eq!(blocked[0].waiting_on.as_deref(), Some("count 'arrivals' (0/8)"));
            assert_eq!(blocked[1].process, "event-waiter");
            assert_eq!(blocked[1].waiting_on.as_deref(), Some("event <unnamed>"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn wait_count_timeout_meets_threshold_or_expires() {
    let mut sim = Simulation::with_seed(1);
    let fast = parcomm_sim::CountEvent::new();
    let slow = parcomm_sim::CountEvent::new();
    let fast2 = fast.clone();
    sim.spawn("producer", move |ctx| {
        ctx.advance(us(3));
        fast2.add(&ctx.handle(), 2);
    });
    sim.spawn("consumer", move |ctx| {
        // Met before the deadline.
        assert!(ctx.wait_count_timeout(&fast, 2, us(10)));
        assert_eq!(ctx.now().as_micros_f64(), 3.0);
        // Never met: expires at the deadline instead of hanging.
        assert!(!ctx.wait_count_timeout(&slow, 1, us(5)));
        assert_eq!(ctx.now().as_micros_f64(), 8.0);
    });
    sim.run().unwrap();
}

#[test]
fn process_panic_is_reported() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn("boom", |_ctx| panic!("kaboom: {}", 42));
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "boom");
            assert!(message.contains("kaboom: 42"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn daemons_are_released_at_shutdown() {
    let mut sim = Simulation::with_seed(1);
    let polls = Arc::new(AtomicU64::new(0));
    let polls2 = polls.clone();
    sim.spawn_daemon("poller", move |ctx| {
        while !ctx.is_shutdown() {
            polls2.fetch_add(1, Ordering::Relaxed);
            ctx.advance(us(1));
        }
    });
    sim.spawn("worker", move |ctx| {
        ctx.advance(us(10));
    });
    let report = sim.run().unwrap();
    // The poller ran ~10-11 times then observed shutdown.
    let n = polls.load(Ordering::Relaxed);
    assert!((10..=12).contains(&n), "poller polled {n} times");
    assert!(report.end_time >= SimTime::from_nanos(10_000));
}

#[test]
fn daemon_blocked_on_event_is_released() {
    let mut sim = Simulation::with_seed(1);
    let never = Event::new();
    sim.spawn_daemon("waiter", move |ctx| {
        let fired = ctx.wait(&never);
        assert!(!fired, "released by shutdown, not by event");
    });
    sim.spawn("worker", move |ctx| ctx.advance(us(1)));
    sim.run().unwrap();
}

#[test]
fn count_event_thresholds() {
    let mut sim = Simulation::with_seed(1);
    let counter = CountEvent::new();
    let c2 = counter.clone();
    sim.spawn("waiter", move |ctx| {
        ctx.wait_count(&c2, 3);
        assert_eq!(ctx.now().as_micros_f64(), 30.0);
        assert_eq!(c2.count(), 3);
    });
    let c3 = counter.clone();
    sim.spawn("adder", move |ctx| {
        for _ in 0..3 {
            ctx.advance(us(10));
            c3.add(&ctx.handle(), 1);
        }
    });
    sim.run().unwrap();
}

#[test]
fn barrier_synchronizes_all_parties() {
    let mut sim = Simulation::with_seed(1);
    let barrier = SimBarrier::new(3);
    let release_times = Arc::new(Mutex::new(Vec::new()));
    for (i, d) in [5u64, 15, 25].into_iter().enumerate() {
        let b = barrier.clone();
        let rt = release_times.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.advance(us(d));
            b.wait(ctx);
            rt.lock().push(ctx.now().as_micros_f64());
        });
    }
    sim.run().unwrap();
    assert_eq!(*release_times.lock(), vec![25.0, 25.0, 25.0]);
}

#[test]
fn barrier_is_reusable() {
    let mut sim = Simulation::with_seed(1);
    let barrier = SimBarrier::new(2);
    let log = Arc::new(Mutex::new(Vec::new()));
    for (i, d) in [3u64, 7].into_iter().enumerate() {
        let b = barrier.clone();
        let log2 = log.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            for round in 0..3 {
                ctx.advance(us(d));
                b.wait(ctx);
                log2.lock().push((round, i, ctx.now().as_micros_f64()));
            }
        });
    }
    sim.run().unwrap();
    let log = log.lock();
    // Each round releases both at the slower party's arrival time.
    for round in 0..3u64 {
        let times: Vec<f64> =
            log.iter().filter(|(r, _, _)| *r == round).map(|(_, _, t)| *t).collect();
        assert_eq!(times.len(), 2);
        assert_eq!(times[0], times[1], "round {round}");
    }
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run_once(seed: u64) -> Vec<(u64, u64)> {
        let mut sim = Simulation::with_seed(seed);
        let trace = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4u64 {
            let trace2 = trace.clone();
            sim.spawn(format!("p{i}"), move |ctx| {
                for _ in 0..5 {
                    let jitter = ctx.jitter_us(10.0, 2.0);
                    ctx.advance(jitter);
                    trace2.lock().push((i, ctx.now().as_nanos()));
                }
            });
        }
        sim.run().unwrap();
        let t = trace.lock().clone();
        t
    }
    assert_eq!(run_once(99), run_once(99));
    assert_ne!(run_once(99), run_once(100));
}

#[test]
fn report_counts_events() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn("p", move |ctx| {
        for _ in 0..10 {
            ctx.advance(us(1));
        }
    });
    let report = sim.run().unwrap();
    // 1 initial resume + 10 advances.
    assert!(report.events_processed >= 11);
    assert_eq!(report.processes, 1);
}

#[test]
fn many_processes_scale() {
    let mut sim = Simulation::with_seed(1);
    let sum = Arc::new(AtomicU64::new(0));
    for i in 0..64u64 {
        let sum2 = sum.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.advance(us(i % 7));
            sum2.fetch_add(1, Ordering::Relaxed);
        });
    }
    sim.run().unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), 64);
}

#[test]
fn lone_process_costs_only_its_start_handoff() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn("solo", |ctx| {
        for _ in 0..1_000 {
            ctx.advance(us(1));
        }
    });
    let report = sim.run().unwrap();
    // 1 initial resume + 1,000 advances, as before the baton scheduler.
    assert_eq!(report.events_processed, 1_001);
    // Each advance pops the process's own resume: it keeps the baton.
    assert_eq!(report.handoffs, 1);
}

#[test]
fn strict_alternation_costs_one_handoff_per_resume() {
    let mut sim = Simulation::with_seed(1);
    for name in ["ping", "pong"] {
        sim.spawn(name, |ctx| {
            for _ in 0..500 {
                ctx.advance(us(1));
            }
        });
    }
    let report = sim.run().unwrap();
    // 2 initial resumes + 2 × 500 advances, as before the baton scheduler.
    assert_eq!(report.events_processed, 1_002);
    // Every queue item resumes the other process: one handoff each.
    assert_eq!(report.handoffs, report.events_processed);
}

#[test]
fn daemons_see_shutdown_in_pid_order() {
    fn run_once() -> Vec<&'static str> {
        let mut sim = Simulation::with_seed(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let never = Event::new();
        // Spawn order (pid order) differs from name order on purpose.
        for name in ["charlie", "alpha", "bravo"] {
            let (log, never) = (log.clone(), never.clone());
            sim.spawn_daemon(name, move |ctx| {
                assert!(!ctx.wait(&never), "released by shutdown, not by event");
                log.lock().push(name);
            });
        }
        sim.spawn("worker", |ctx| ctx.advance(us(1)));
        sim.run().unwrap();
        let log = log.lock().clone();
        log
    }
    let first = run_once();
    assert_eq!(first, vec!["charlie", "alpha", "bravo"]);
    assert_eq!(first, run_once());
}

#[test]
#[should_panic(expected = "callback exploded: 7")]
fn callback_panic_is_reraised_by_run() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn("scheduler-of-doom", |ctx| {
        ctx.handle().schedule_in(us(1), |_| panic!("callback exploded: {}", 7));
        ctx.advance(us(5));
    });
    let _ = sim.run();
}

#[test]
fn process_panic_while_others_are_parked_names_that_process() {
    let mut sim = Simulation::with_seed(1);
    let never = Event::named("never-fires");
    for i in 0..3 {
        let never = never.clone();
        sim.spawn(format!("parked{i}"), move |ctx| {
            ctx.wait(&never);
        });
    }
    sim.spawn_daemon("poller", |ctx| {
        while !ctx.is_shutdown() {
            ctx.advance(us(1));
        }
    });
    sim.spawn("faulty", |ctx| {
        ctx.advance(us(3));
        panic!("faulty step {}", 2);
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "faulty");
            assert!(message.contains("faulty step 2"), "message: {message}");
        }
        other => panic!("expected process panic, got {other:?}"),
    }
}

/// `(category, start ns, end ns, rank, partition)` of a recorded span.
type SpanRow = (&'static str, u64, u64, Option<u32>, Option<u32>);

/// What one run of a [`two_process_program`] variant leaves behind.
#[derive(Debug, PartialEq)]
struct ProgramRun {
    end_time: SimTime,
    events_processed: u64,
    spans: Vec<SpanRow>,
}

const ROUNDS: u64 = 20;

/// A producer/consumer program exercising every `Proc` wait: the producer
/// bumps a counter after jittered work and fires one event every five
/// rounds; the consumer waits on counter thresholds (one of them timed,
/// so some backstops fire and some are cancelled) and on the events. With
/// `async_rounds`, both processes run each round as one `block_on` future
/// instead of blocking `Ctx` calls. Returns the run and its handoffs.
fn two_process_program(async_rounds: bool) -> (ProgramRun, u64) {
    let mut sim = Simulation::with_seed(7);
    sim.trace().enable();
    let counter = CountEvent::named("produced");
    let marks: Vec<Event> = (0..ROUNDS / 5).map(|_| Event::new()).collect();

    let (c, m) = (counter.clone(), marks.clone());
    sim.spawn("producer", move |ctx| {
        for round in 0..ROUNDS {
            let (c, m) = (c.clone(), m.clone());
            if async_rounds {
                let p = ctx.proc();
                ctx.block_on(async move {
                    let t0 = p.now();
                    for _ in 0..5 {
                        let d = p.jitter_us(2.0, 0.5);
                        p.advance(d).await;
                        c.add(&p.handle(), 1);
                    }
                    p.handle().trace().record_attr(
                        "produce",
                        t0,
                        p.now(),
                        None,
                        Some(round as u32),
                        SpanId::NONE,
                    );
                    if round % 5 == 4 {
                        m[(round / 5) as usize].set(&p.handle());
                    }
                });
            } else {
                let t0 = ctx.now();
                for _ in 0..5 {
                    let d = ctx.jitter_us(2.0, 0.5);
                    ctx.advance(d);
                    c.add(&ctx.handle(), 1);
                }
                ctx.handle().trace().record_attr(
                    "produce",
                    t0,
                    ctx.now(),
                    None,
                    Some(round as u32),
                    SpanId::NONE,
                );
                if round % 5 == 4 {
                    m[(round / 5) as usize].set(&ctx.handle());
                }
            }
        }
    });
    sim.spawn("consumer", move |ctx| {
        for round in 0..ROUNDS {
            let (c, m) = (counter.clone(), marks.clone());
            if async_rounds {
                let p = ctx.proc();
                ctx.block_on(async move {
                    let t0 = p.now();
                    p.wait_count(&c, 5 * round + 3).await;
                    let met = p.wait_count_timeout(&c, 5 * round + 5, us(3)).await;
                    let d = p.jitter_us(1.0, 0.3);
                    p.advance(d).await;
                    if round % 5 == 4 {
                        assert!(p.wait(&m[(round / 5) as usize]).await);
                    }
                    p.handle().trace().record_attr(
                        "consume",
                        t0,
                        p.now(),
                        Some(met as u32),
                        Some(round as u32),
                        SpanId::NONE,
                    );
                });
            } else {
                let t0 = ctx.now();
                ctx.wait_count(&c, 5 * round + 3);
                let met = ctx.wait_count_timeout(&c, 5 * round + 5, us(3));
                let d = ctx.jitter_us(1.0, 0.3);
                ctx.advance(d);
                if round % 5 == 4 {
                    assert!(ctx.wait(&m[(round / 5) as usize]));
                }
                ctx.handle().trace().record_attr(
                    "consume",
                    t0,
                    ctx.now(),
                    Some(met as u32),
                    Some(round as u32),
                    SpanId::NONE,
                );
            }
        }
    });
    run_program(sim)
}

/// Run `sim` to the end; return what it leaves behind and its handoffs.
fn run_program(sim: Simulation) -> (ProgramRun, u64) {
    let trace = sim.trace();
    let report = sim.run().unwrap();
    let spans = trace
        .spans()
        .iter()
        .map(|s| (s.category, s.start.as_nanos(), s.end.as_nanos(), s.rank, s.partition))
        .collect();
    let run =
        ProgramRun { end_time: report.end_time, events_processed: report.events_processed, spans };
    (run, report.handoffs)
}

#[test]
fn block_on_reproduces_the_blocking_program() {
    let (blocking, blocking_handoffs) = two_process_program(false);
    let (polled, polled_handoffs) = two_process_program(true);
    assert_eq!(polled, blocking, "same end time, event count and span stream");
    // Both outcomes of the timed wait occur, so backstops both fire and
    // get cancelled.
    let met: Vec<u32> =
        blocking.spans.iter().filter(|s| s.0 == "consume").filter_map(|s| s.3).collect();
    assert!(met.contains(&0) && met.contains(&1), "timed-wait outcomes: {met:?}");
    // At most one handoff per `block_on` completion (2 × ROUNDS), plus the
    // two process starts; the blocking program pays one per cross resume.
    assert!(polled_handoffs <= 2 * ROUNDS + 2, "{polled_handoffs} handoffs");
    assert!(blocking_handoffs > 2 * polled_handoffs, "{blocking_handoffs} vs {polled_handoffs}");
}

const PARTIES: u64 = 4;

/// `PARTIES` processes meet at one barrier three times, each after jittered
/// work, and record a span per meeting. With `async_wait`, each process
/// runs its three rounds as one `block_on` future over
/// `SimBarrier::wait_async` instead of blocking `Ctx` calls.
fn barrier_program(async_wait: bool) -> (ProgramRun, u64) {
    let mut sim = Simulation::with_seed(11);
    sim.trace().enable();
    let barrier = SimBarrier::new(PARTIES as usize);
    for i in 0..PARTIES {
        let b = barrier.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            if async_wait {
                let p = ctx.proc();
                ctx.block_on(async move {
                    for round in 0..3 {
                        let t0 = p.now();
                        let d = p.jitter_us(2.0 + i as f64, 0.5);
                        p.advance(d).await;
                        b.wait_async(&p).await;
                        p.handle().trace().record_attr(
                            "meet",
                            t0,
                            p.now(),
                            Some(i as u32),
                            Some(round),
                            SpanId::NONE,
                        );
                    }
                });
            } else {
                for round in 0..3 {
                    let t0 = ctx.now();
                    let d = ctx.jitter_us(2.0 + i as f64, 0.5);
                    ctx.advance(d);
                    b.wait(ctx);
                    ctx.handle().trace().record_attr(
                        "meet",
                        t0,
                        ctx.now(),
                        Some(i as u32),
                        Some(round),
                        SpanId::NONE,
                    );
                }
            }
        });
    }
    run_program(sim)
}

#[test]
fn barrier_wait_async_reproduces_the_blocking_barrier() {
    let (blocking, blocking_handoffs) = barrier_program(false);
    let (polled, polled_handoffs) = barrier_program(true);
    assert_eq!(polled, blocking, "same end time, event count and span stream");
    assert_eq!(blocking.spans.len(), 3 * PARTIES as usize);
    // Each round ends for every party at the last arrival.
    for round in 0..3 {
        let ends: Vec<u64> =
            blocking.spans.iter().filter(|s| s.4 == Some(round)).map(|s| s.2).collect();
        assert!(ends.windows(2).all(|w| w[0] == w[1]), "round {round}: {ends:?}");
    }
    // At most one start and one `block_on` completion per process.
    assert!(polled_handoffs <= 2 * PARTIES, "{polled_handoffs} handoffs");
    assert!(polled_handoffs < blocking_handoffs, "{polled_handoffs} vs {blocking_handoffs}");
}

#[test]
fn block_on_costs_one_handoff_per_completion() {
    let mut sim = Simulation::with_seed(1);
    for name in ["ping", "pong"] {
        sim.spawn(name, |ctx| {
            for _ in 0..50 {
                let p = ctx.proc();
                ctx.block_on(async move {
                    for _ in 0..10 {
                        p.advance(us(1)).await;
                    }
                });
            }
        });
    }
    let report = sim.run().unwrap();
    // The blocking form of this program (`strict_alternation_costs_one_
    // handoff_per_resume`) makes the same 1,002 queue items, each a handoff.
    assert_eq!(report.events_processed, 1_002);
    assert!(report.handoffs <= 100 + 2, "{} handoffs", report.handoffs);
}

#[test]
fn panic_in_a_polled_future_names_the_process() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn("ticker", |ctx| {
        for _ in 0..10 {
            ctx.advance(us(1));
        }
    });
    sim.spawn("faulty", |ctx| {
        let p = ctx.proc();
        ctx.block_on(async move {
            p.advance(us(3)).await;
            panic!("future step {}", 2);
        });
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "faulty");
            assert!(message.contains("future step 2"), "message: {message}");
        }
        other => panic!("expected process panic, got {other:?}"),
    }
}

#[test]
fn foreign_pending_future_is_a_process_panic() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn("stuck", |ctx| ctx.block_on(std::future::pending::<()>()));
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "stuck");
            assert!(message.contains("without awaiting a Proc method"), "message: {message}");
        }
        other => panic!("expected process panic, got {other:?}"),
    }
}

#[test]
fn deadlock_inside_block_on_reports_the_blocking_wait_target() {
    fn blocked(async_wait: bool) -> Vec<parcomm_sim::BlockedProcess> {
        let mut sim = Simulation::with_seed(1);
        let never = Event::named("never-fires");
        let count = CountEvent::named("stalled");
        sim.spawn("on-event", move |ctx| {
            if async_wait {
                let p = ctx.proc();
                ctx.block_on(async move { p.wait(&never).await });
            } else {
                ctx.wait(&never);
            }
        });
        sim.spawn("on-count", move |ctx| {
            count.add(&ctx.handle(), 1);
            if async_wait {
                let p = ctx.proc();
                ctx.block_on(async move { p.wait_count(&count, 3).await });
            } else {
                ctx.wait_count(&count, 3);
            }
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => blocked,
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
    let polled = blocked(true);
    assert_eq!(polled, blocked(false));
    let waits: Vec<Option<String>> = polled.into_iter().map(|b| b.waiting_on).collect();
    assert_eq!(
        waits,
        vec![Some("count 'stalled' (1/3)".to_string()), Some("event 'never-fires'".to_string())]
    );
}

#[test]
fn daemon_parked_in_block_on_is_released_at_shutdown() {
    let mut sim = Simulation::with_seed(1);
    let released = Arc::new(Mutex::new(None));
    let r2 = released.clone();
    sim.spawn_daemon("watcher", move |ctx| {
        let p = ctx.proc();
        let never = Event::new();
        let set = ctx.block_on(async move { p.wait(&never).await });
        *r2.lock() = Some((set, ctx.is_shutdown()));
    });
    sim.spawn("worker", |ctx| ctx.advance(us(1)));
    sim.run().unwrap();
    assert_eq!(*released.lock(), Some((false, true)), "released by shutdown, wait returns false");
}

/// One timed wait on an event that a second process sets `fire_at` µs in;
/// the waiter gives up after `timeout` µs. With `async_wait` the wait is
/// `Proc::wait_timeout` under `block_on`, else `Ctx::wait_timeout`.
/// Returns the wait's result and the run.
fn timed_event_wait(async_wait: bool, fire_at: u64, timeout: u64) -> (bool, ProgramRun) {
    let mut sim = Simulation::with_seed(3);
    let trace = sim.trace();
    trace.enable();
    let ev = Event::named("fired");
    let result = Arc::new(Mutex::new(None));
    let e2 = ev.clone();
    sim.spawn("setter", move |ctx| {
        ctx.advance(us(fire_at));
        e2.set(&ctx.handle());
    });
    let r2 = result.clone();
    sim.spawn("waiter", move |ctx| {
        let t0 = ctx.now();
        let set = if async_wait {
            let p = ctx.proc();
            ctx.block_on(async move { p.wait_timeout(&ev, us(timeout)).await })
        } else {
            ctx.wait_timeout(&ev, us(timeout))
        };
        ctx.handle().trace().record_attr("wait", t0, ctx.now(), Some(set as u32), None, SpanId::NONE);
        *r2.lock() = Some(set);
    });
    let report = sim.run().unwrap();
    let spans = trace
        .spans()
        .iter()
        .map(|s| (s.category, s.start.as_nanos(), s.end.as_nanos(), s.rank, s.partition))
        .collect();
    let set = result.lock().expect("waiter finished");
    (set, ProgramRun { end_time: report.end_time, events_processed: report.events_processed, spans })
}

#[test]
fn proc_wait_timeout_matches_ctx_wait_timeout() {
    // (fire_at, timeout, expected result): the event wins, the deadline
    // wins, and the event is set exactly at the deadline (counts as set).
    for (fire_at, timeout, want) in [(3, 10, true), (10, 3, false), (5, 5, true)] {
        let blocking = timed_event_wait(false, fire_at, timeout);
        let polled = timed_event_wait(true, fire_at, timeout);
        assert_eq!(polled, blocking, "fire_at {fire_at} timeout {timeout}");
        assert_eq!(polled.0, want, "fire_at {fire_at} timeout {timeout}");
    }
    // The event won, so the backstop at 10 µs was cancelled and never
    // stretches the run past the event.
    let (_, run) = timed_event_wait(true, 3, 10);
    assert_eq!(run.end_time, SimTime::ZERO + us(3));
}

#[test]
fn daemon_whose_body_is_one_future_exits_at_shutdown() {
    let mut sim = Simulation::with_seed(1);
    let work = Event::named("work");
    let served = Arc::new(Mutex::new(None));
    let (w2, s2) = (work.clone(), served.clone());
    sim.spawn_daemon("engine", move |ctx| {
        let p = ctx.proc();
        let n = ctx.block_on(async move {
            let mut n = 0u32;
            while !p.is_shutdown() {
                if !p.wait(&w2).await {
                    break; // released by shutdown
                }
                w2.reset();
                n += 1;
                p.advance(us(1)).await;
            }
            n
        });
        *s2.lock() = Some((n, ctx.is_shutdown()));
    });
    sim.spawn("client", move |ctx| {
        for _ in 0..3 {
            work.set(&ctx.handle());
            ctx.advance(us(5));
        }
    });
    let report = sim.run().unwrap();
    assert_eq!(*served.lock(), Some((3, true)), "served every request, then saw shutdown");
    // The engine's thread runs only at its start and once at the end; the
    // client's thread wakes once per advance.
    assert!(report.handoffs <= 2 + 3 + 1, "{} handoffs", report.handoffs);
}

/// Spawn a root process whose body is the future `body` returns: with
/// `thread_free`, as a thread-free process; otherwise as a thread-backed
/// process whose whole body is one `block_on`.
fn spawn_root<Fut>(
    sim: &mut Simulation,
    thread_free: bool,
    name: &str,
    body: impl FnOnce(Proc) -> Fut + Send + 'static,
) where
    Fut: Future<Output = ()> + Send + 'static,
{
    if thread_free {
        sim.spawn_future(name, body);
    } else {
        sim.spawn(name, move |ctx| {
            let p = ctx.proc();
            ctx.block_on(body(p));
        });
    }
}

/// What one run of [`future_program`] leaves behind: the run, every RNG
/// draw in draw order, and the thread handoffs.
type FutureProgramRun = (ProgramRun, Vec<u64>, u64);

/// Processes [`future_program`] converts to thread-free processes.
const CONVERTED: u64 = 4;

/// A program of five processes: a blocking `driver` and four whose bodies
/// are futures — a `producer` and a `consumer` at the root, and a `helper`
/// and an `engine` daemon that the driver spawns before it returns. The
/// engine serves the consumer's requests like a progression engine, polling
/// until shutdown. With `thread_free`, the four are thread-free processes
/// (`spawn_future` and friends); otherwise each is a thread-backed
/// process whose body is one `block_on`.
fn future_program(thread_free: bool) -> FutureProgramRun {
    let mut sim = Simulation::with_seed(11);
    let trace = sim.trace();
    trace.enable();
    let counter = CountEvent::named("produced");
    let request = Event::named("request");
    let draws = Arc::new(Mutex::new(Vec::new()));

    let (c, d) = (counter.clone(), draws.clone());
    spawn_root(&mut sim, thread_free, "producer", move |p| async move {
        for round in 0..ROUNDS {
            let t0 = p.now();
            let dt = p.jitter_us(2.0, 0.5);
            d.lock().push(dt.as_nanos());
            p.advance(dt).await;
            c.add(&p.handle(), 1);
            p.handle().trace().record_attr(
                "produce",
                t0,
                p.now(),
                None,
                Some(round as u32),
                SpanId::NONE,
            );
        }
    });
    let (r, d) = (request.clone(), draws.clone());
    spawn_root(&mut sim, thread_free, "consumer", move |p| async move {
        for round in 0..ROUNDS {
            let t0 = p.now();
            let met = p.wait_count_timeout(&counter, round + 1, us(2)).await;
            if round % 4 == 0 {
                r.set(&p.handle());
            }
            let dt = p.jitter_us(1.0, 0.3);
            d.lock().push(dt.as_nanos());
            p.advance(dt).await;
            p.handle().trace().record_attr(
                "consume",
                t0,
                p.now(),
                Some(met as u32),
                Some(round as u32),
                SpanId::NONE,
            );
        }
    });
    let d = draws.clone();
    sim.spawn("driver", move |ctx| {
        let d2 = d.clone();
        // Idle until the first request, then poll on a 1 µs grid: a tick is
        // queued when the last regular process finishes, so the run's end
        // time shows when shutdown began.
        let engine = move |p: Proc| async move {
            assert!(p.wait(&request).await, "the consumer sends requests");
            while !p.is_shutdown() {
                if request.is_set() {
                    request.reset();
                    let phase = p.with_rng(|rng| rng.uniform());
                    d2.lock().push(phase.to_bits());
                    let t0 = p.now();
                    p.advance(SimDuration::from_micros_f64(3.0 * phase)).await;
                    p.handle().trace().record_attr("serve", t0, p.now(), None, None, SpanId::NONE);
                }
                p.advance(us(1)).await;
            }
        };
        let helper = move |p: Proc| async move {
            let t0 = p.now();
            let dt = p.jitter_us(4.0, 1.0);
            d.lock().push(dt.as_nanos());
            p.advance(dt).await;
            p.handle().trace().record_attr("help", t0, p.now(), None, None, SpanId::NONE);
        };
        ctx.advance(us(1));
        if thread_free {
            ctx.spawn_future("helper", helper);
            ctx.spawn_daemon_future("engine", engine);
        } else {
            ctx.spawn("helper", move |ctx| {
                let p = ctx.proc();
                ctx.block_on(helper(p));
            });
            ctx.spawn_daemon("engine", move |ctx| {
                let p = ctx.proc();
                ctx.block_on(engine(p));
            });
        }
    });
    let report = sim.run().unwrap();
    let spans = trace
        .spans()
        .iter()
        .map(|s| (s.category, s.start.as_nanos(), s.end.as_nanos(), s.rank, s.partition))
        .collect();
    let run =
        ProgramRun { end_time: report.end_time, events_processed: report.events_processed, spans };
    let draws = draws.lock().clone();
    (run, draws, report.handoffs)
}

#[test]
fn spawn_future_reproduces_spawn_and_block_on() {
    let (blocking, blocking_draws, blocking_handoffs) = future_program(false);
    let (thread_free, thread_free_draws, thread_free_handoffs) = future_program(true);
    assert_eq!(thread_free, blocking, "same end time, event count and span stream");
    assert_eq!(thread_free_draws, blocking_draws, "same RNG draws in the same order");
    let served = blocking.spans.iter().filter(|s| s.0 == "serve").count();
    assert!(served > 1, "the engine served {served} requests");
    let met: Vec<u32> =
        blocking.spans.iter().filter(|s| s.0 == "consume").filter_map(|s| s.3).collect();
    assert!(met.contains(&0) && met.contains(&1), "timed-wait outcomes: {met:?}");
    // Each converted process saves its start and its final baton pass; the
    // one handoff left starts the driver.
    assert_eq!(thread_free_handoffs, blocking_handoffs - 2 * CONVERTED);
    assert_eq!(thread_free_handoffs, 1);
}

#[test]
fn thread_free_daemon_exits_at_shutdown_and_children_fire_done() {
    let mut sim = Simulation::with_seed(1);
    let log = Arc::new(Mutex::new(Vec::new()));
    let l2 = log.clone();
    sim.spawn("parent", move |ctx| {
        let never = Event::named("never-fires");
        let l3 = l2.clone();
        let daemon = ctx.spawn_daemon_future("watcher", move |p| async move {
            let set = p.wait(&never).await;
            l3.lock().push(format!("watcher set={set} shutdown={}", p.is_shutdown()));
        });
        let l3 = l2.clone();
        let child = ctx.spawn_future("child", move |p| async move {
            p.advance(us(4)).await;
            l3.lock().push(format!("child done at {}", p.now().as_micros_f64()));
        });
        ctx.join(&child);
        l2.lock().push(format!("joined at {}", ctx.now().as_micros_f64()));
        assert!(!daemon.done.is_set(), "a daemon runs until shutdown");
    });
    let report = sim.run().unwrap();
    assert_eq!(
        *log.lock(),
        vec!["child done at 4", "joined at 4", "watcher set=false shutdown=true"],
        "the daemon is released by shutdown, after the last regular process"
    );
    assert_eq!(report.processes, 3);
    // Only the parent has a thread; it starts once and keeps the baton.
    assert_eq!(report.handoffs, 1);
}

#[test]
fn panicking_thread_free_process_names_itself() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn("ticker", |ctx| {
        for _ in 0..10 {
            ctx.advance(us(1));
        }
    });
    sim.spawn_future("faulty", |p| async move {
        p.advance(us(3)).await;
        panic!("thread-free step {}", 2);
    });
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "faulty");
            assert!(message.contains("thread-free step 2"), "message: {message}");
        }
        other => panic!("expected process panic, got {other:?}"),
    }
}

#[test]
fn thread_free_foreign_pending_is_a_process_panic() {
    let mut sim = Simulation::with_seed(1);
    sim.spawn_future("stuck", |_| std::future::pending::<()>());
    match sim.run() {
        Err(SimError::ProcessPanic { name, message }) => {
            assert_eq!(name, "stuck");
            assert!(message.contains("without awaiting a Proc method"), "message: {message}");
        }
        other => panic!("expected process panic, got {other:?}"),
    }
}

#[test]
fn deadlock_report_names_a_parked_thread_free_process() {
    let mut sim = Simulation::with_seed(1);
    let never = Event::named("never-fires");
    let count = CountEvent::named("stalled");
    sim.spawn_future("future-on-event", move |p| async move {
        p.wait(&never).await;
    });
    sim.spawn("thread-on-count", move |ctx| {
        count.add(&ctx.handle(), 1);
        ctx.wait_count(&count, 3);
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => assert_eq!(
            blocked,
            vec![
                parcomm_sim::BlockedProcess {
                    process: "future-on-event".into(),
                    waiting_on: Some("event 'never-fires'".into()),
                },
                parcomm_sim::BlockedProcess {
                    process: "thread-on-count".into(),
                    waiting_on: Some("count 'stalled' (1/3)".into()),
                },
            ]
        ),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn numbered_event_label_is_formatted_when_read() {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::numbered("am_send tag", 42);
    assert_eq!(ev.label().as_deref(), Some("am_send tag 42"));
    sim.spawn("stuck-proc", move |ctx| {
        ctx.wait(&ev);
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            assert_eq!(blocked[0].waiting_on.as_deref(), Some("event 'am_send tag 42'"));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// Run one process that fires `ev` at 7 µs through `fire`, and a second
/// process, spawned first, already parked on `ev` when `fire` runs.
fn fire_event_at_7us(fire: fn(&parcomm_sim::SimHandle, SimTime, Event)) -> (SimTime, u64) {
    let mut sim = Simulation::with_seed(1);
    let ev = Event::new();
    let woke = Arc::new(Mutex::new(None));
    let (ev2, woke2) = (ev.clone(), woke.clone());
    sim.spawn("waiter", move |ctx| {
        assert!(ctx.wait(&ev2));
        *woke2.lock() = Some(ctx.now());
    });
    sim.spawn("firer", move |ctx| {
        fire(&ctx.handle(), SimTime::from_nanos(7_000), ev);
    });
    let report = sim.run().unwrap();
    let woke = woke.lock().expect("the waiter woke");
    (woke, report.events_processed)
}

#[test]
fn set_at_fires_at_its_instant_as_one_event() {
    let (woke, events) = fire_event_at_7us(|h, at, ev| h.set_at(at, ev));
    assert_eq!(woke, SimTime::from_nanos(7_000));
    // Two starts, the set entry, and the waiter's wake.
    assert_eq!(events, 4);
    // The same as the boxed callback it replaces.
    let boxed = fire_event_at_7us(|h, at, ev| h.schedule_at(at, move |h| ev.set(h)));
    assert_eq!((woke, events), boxed);
}

#[test]
fn tick_counts_as_one_event_and_runs_nothing() {
    let run = |tick: bool| {
        let mut sim = Simulation::with_seed(1);
        sim.spawn("p", move |ctx| {
            let h = ctx.handle();
            if tick {
                h.tick_at(SimTime::from_nanos(5_000));
            } else {
                h.schedule_at(SimTime::from_nanos(5_000), |_| {});
            }
            ctx.advance(us(10));
        });
        let r = sim.run().unwrap();
        (r.end_time, r.events_processed, r.handoffs)
    };
    assert_eq!(run(true), (SimTime::from_nanos(10_000), 3, 1));
    assert_eq!(run(true), run(false));
}

/// Whether a callback queued at t = 0 sees the run shutting down, with a
/// tick queued at the same instant before (`tick_first`) or after it, and
/// only a daemon left to run.
fn callback_sees_shutdown(tick_first: bool) -> bool {
    let mut sim = Simulation::with_seed(1);
    let h = sim.handle();
    let seen = Arc::new(Mutex::new(None));
    let seen2 = seen.clone();
    if tick_first {
        h.tick_at(SimTime::ZERO);
    }
    h.schedule_at(SimTime::ZERO, move |h| *seen2.lock() = Some(h.is_shutdown()));
    if !tick_first {
        h.tick_at(SimTime::ZERO);
    }
    sim.spawn_daemon("poller", |ctx| {
        while !ctx.is_shutdown() {
            ctx.advance(us(1));
        }
    });
    sim.run().unwrap();
    let seen = seen.lock().expect("the callback ran");
    seen
}

#[test]
fn tick_keeps_its_push_order_slot() {
    // A tick popped first runs the shutdown check before the callback.
    assert!(callback_sees_shutdown(true));
    assert!(!callback_sees_shutdown(false));
}

/// A daemon-only run whose first queue entry is pushed by `entry`: the
/// daemon's log of `(now, is_shutdown)` per wake, and the run's report.
fn daemon_tail(entry: fn(&parcomm_sim::SimHandle)) -> (Vec<(SimTime, bool)>, SimTime, u64, u64) {
    let mut sim = Simulation::with_seed(1);
    entry(&sim.handle());
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = log.clone();
    sim.spawn_daemon("poller", move |ctx| loop {
        log2.lock().push((ctx.now(), ctx.is_shutdown()));
        if ctx.is_shutdown() {
            break;
        }
        ctx.advance(us(1));
    });
    let r = sim.run().unwrap();
    let log = log.lock().clone();
    (log, r.end_time, r.events_processed, r.handoffs)
}

#[test]
fn tick_ends_a_daemon_only_tail_like_a_callback() {
    let ticked = daemon_tail(|h| {
        h.tick_at(SimTime::ZERO);
        h.tick_at(SimTime::from_nanos(3_000));
    });
    let called = daemon_tail(|h| {
        h.schedule_at(SimTime::ZERO, |_| {});
        h.schedule_at(SimTime::from_nanos(3_000), |_| {});
    });
    assert_eq!(ticked, called);
    // The tick at t = 0 begins shutdown before the daemon's first wake;
    // the one at 3 µs still runs, and ends the run.
    assert_eq!(ticked.0, vec![(SimTime::ZERO, true)]);
    assert_eq!(ticked.1, SimTime::from_nanos(3_000));
    // Without an entry the daemon's first wake does not see shutdown.
    assert_eq!(daemon_tail(|_| {}).0[0], (SimTime::ZERO, false));
}
