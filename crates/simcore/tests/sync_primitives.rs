//! Tests for the virtual-time synchronization primitives: event reuse,
//! bulk count events and scheduling edge cases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_sim::{Event, SimConfig, SimDuration, SimTime, Simulation};

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

#[test]
fn event_reset_allows_reuse() {
    let mut sim = Simulation::new(SimConfig::default());
    let ev = Event::new();
    let ev2 = ev.clone();
    sim.spawn("p", move |ctx| {
        ev2.set(&ctx.handle());
        assert!(ev2.is_set());
        ev2.reset();
        assert!(!ev2.is_set());
        assert_eq!(ev2.set_at(), None);
        ctx.advance(us(3));
        ev2.set(&ctx.handle());
        assert_eq!(ev2.set_at(), Some(SimTime::from_nanos(3_000)));
    });
    sim.run().unwrap();
}

#[test]
fn callbacks_scheduled_from_callbacks_preserve_order() {
    let mut sim = Simulation::new(SimConfig::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = log.clone();
    sim.spawn("p", move |ctx| {
        let h = ctx.handle();
        let log3 = log2.clone();
        h.schedule_in(us(5), move |h| {
            log3.lock().push(("outer", h.now().as_micros_f64()));
            let log4 = log3.clone();
            h.schedule_in(us(0), move |h| {
                log4.lock().push(("inner-now", h.now().as_micros_f64()));
            });
            let log5 = log3.clone();
            h.schedule_in(us(2), move |h| {
                log5.lock().push(("inner-later", h.now().as_micros_f64()));
            });
        });
        ctx.advance(us(20));
    });
    sim.run().unwrap();
    assert_eq!(
        *log.lock(),
        vec![("outer", 5.0), ("inner-now", 5.0), ("inner-later", 7.0)]
    );
}

#[test]
#[should_panic(expected = "in the past")]
fn schedule_at_rejects_past_instants() {
    let mut sim = Simulation::new(SimConfig::default());
    sim.spawn("p", |ctx| {
        ctx.advance(us(10));
        let h = ctx.handle();
        h.schedule_at(SimTime::from_nanos(1), |_| {});
    });
    let err = sim.run().unwrap_err();
    panic!("{err}");
}

#[test]
fn count_event_bulk_add_wakes_multiple_thresholds() {
    let mut sim = Simulation::new(SimConfig::default());
    let counter = parcomm_sim::CountEvent::new();
    let woken = Arc::new(Mutex::new(Vec::new()));
    for threshold in [2u64, 5, 9] {
        let c = counter.clone();
        let woken = woken.clone();
        sim.spawn(format!("t{threshold}"), move |ctx| {
            ctx.wait_count(&c, threshold);
            woken.lock().push((threshold, ctx.now().as_micros_f64()));
        });
    }
    let c2 = counter.clone();
    sim.spawn("adder", move |ctx| {
        ctx.advance(us(1));
        c2.add(&ctx.handle(), 6); // wakes thresholds 2 and 5 at once
        ctx.advance(us(1));
        c2.add(&ctx.handle(), 3); // wakes threshold 9
    });
    sim.run().unwrap();
    let w = woken.lock();
    assert_eq!(w.len(), 3);
    assert!(w.iter().any(|&(t, at)| t == 2 && at == 1.0));
    assert!(w.iter().any(|&(t, at)| t == 5 && at == 1.0));
    assert!(w.iter().any(|&(t, at)| t == 9 && at == 2.0));
}

#[test]
fn nested_spawn_hierarchy_completes() {
    let mut sim = Simulation::new(SimConfig::default());
    let total = Arc::new(AtomicU64::new(0));
    let t2 = total.clone();
    sim.spawn("root", move |ctx| {
        let t3 = t2.clone();
        let child = ctx.spawn("child", move |ctx| {
            let t4 = t3.clone();
            let grandchild = ctx.spawn("grandchild", move |ctx| {
                ctx.advance(us(1));
                t4.fetch_add(1, Ordering::Relaxed);
            });
            ctx.join(&grandchild);
            t3.fetch_add(1, Ordering::Relaxed);
        });
        ctx.join(&child);
        t2.fetch_add(1, Ordering::Relaxed);
    });
    sim.run().unwrap();
    assert_eq!(total.load(Ordering::Relaxed), 3);
}

/// Spawn `n` processes that park on `wait` in order (process `i` parks at
/// `i` µs) and log their index when they resume.
fn spawn_waiters(
    sim: &mut Simulation,
    n: usize,
    log: &Arc<Mutex<Vec<usize>>>,
    wait: impl Fn(&mut parcomm_sim::Ctx) + Clone + Send + 'static,
) {
    for i in 0..n {
        let (log, wait) = (log.clone(), wait.clone());
        sim.spawn(format!("w{i}"), move |ctx| {
            ctx.advance(us(i as u64));
            wait(ctx);
            log.lock().push(i);
        });
    }
}

#[test]
fn event_wakes_one_two_or_three_waiters_in_registration_order() {
    for n in 1..=3 {
        let mut sim = Simulation::new(SimConfig::default());
        let ev = Event::named("go");
        let log = Arc::new(Mutex::new(Vec::new()));
        let e = ev.clone();
        spawn_waiters(&mut sim, n, &log, move |ctx| {
            ctx.wait(&e);
        });
        let e = ev.clone();
        sim.spawn("setter", move |ctx| {
            ctx.advance(us(10));
            // The first waiter is held inline; the count includes it.
            assert!(format!("{e:?}").contains(&format!("waiters: {n}")), "{e:?}");
            e.set(&ctx.handle());
            assert!(format!("{e:?}").contains("waiters: 0"), "{e:?}");
        });
        sim.run().unwrap();
        assert_eq!(*log.lock(), (0..n).collect::<Vec<_>>(), "{n} waiters");
    }
}

#[test]
fn count_event_wakes_one_two_or_three_waiters_in_registration_order() {
    for n in 1..=3 {
        let mut sim = Simulation::new(SimConfig::default());
        let counter = parcomm_sim::CountEvent::named("arrivals");
        let log = Arc::new(Mutex::new(Vec::new()));
        let c = counter.clone();
        spawn_waiters(&mut sim, n, &log, move |ctx| ctx.wait_count(&c, 1));
        let c = counter.clone();
        sim.spawn("adder", move |ctx| {
            ctx.advance(us(10));
            assert!(format!("{c:?}").contains(&format!("waiters: {n}")), "{c:?}");
            c.add(&ctx.handle(), 1);
            assert!(format!("{c:?}").contains("waiters: 0"), "{c:?}");
        });
        sim.run().unwrap();
        assert_eq!(*log.lock(), (0..n).collect::<Vec<_>>(), "{n} waiters");
    }
}

/// A partial wake keeps the survivors in order whether the inline waiter
/// or a later one is woken, and a waiter registered afterwards wakes last.
#[test]
fn count_event_partial_wakes_keep_registration_order() {
    for (thresholds, first_wake, second_wake) in [
        ([1u64, 2, 2], vec![0], vec![1, 2, 3]),
        ([2, 1, 2], vec![1], vec![0, 2, 3]),
    ] {
        let mut sim = Simulation::new(SimConfig::default());
        let counter = parcomm_sim::CountEvent::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, t) in thresholds.into_iter().chain([2]).enumerate() {
            let (c, log) = (counter.clone(), log.clone());
            sim.spawn(format!("w{i}"), move |ctx| {
                // Waiter 3 registers after the first add.
                ctx.advance(us(if i == 3 { 15 } else { i as u64 }));
                ctx.wait_count(&c, t);
                log.lock().push(i);
            });
        }
        let (c, l, want_first) = (counter.clone(), log.clone(), first_wake.clone());
        sim.spawn("adder", move |ctx| {
            ctx.advance(us(10));
            c.add(&ctx.handle(), 1);
            ctx.advance(us(10));
            assert_eq!(*l.lock(), want_first);
            c.add(&ctx.handle(), 1);
        });
        sim.run().unwrap();
        let want: Vec<usize> = first_wake.iter().chain(&second_wake).copied().collect();
        assert_eq!(*log.lock(), want, "thresholds {thresholds:?}");
    }
}

/// After `set` hands its waiters over and `reset` clears the event, the
/// next round's first waiter takes the inline slot again and wakes first.
#[test]
fn reset_event_takes_a_new_round_of_waiters_in_order() {
    let mut sim = Simulation::new(SimConfig::default());
    let ev = Event::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4usize {
        let (e, log) = (ev.clone(), log.clone());
        sim.spawn(format!("w{i}"), move |ctx| {
            // Two rounds: waiters 0 and 1, then (after the reset) 2 and 3.
            ctx.advance(us(i as u64 + if i >= 2 { 20 } else { 0 }));
            ctx.wait(&e);
            log.lock().push(i);
        });
    }
    let e = ev.clone();
    sim.spawn("setter", move |ctx| {
        ctx.advance(us(10));
        e.set(&ctx.handle());
        assert!(format!("{e:?}").contains("waiters: 0"), "{e:?}");
        // Let the woken waiters resume before the event is reused.
        ctx.advance(us(1));
        e.reset();
        ctx.advance(us(19));
        assert!(format!("{e:?}").contains("waiters: 2"), "{e:?}");
        e.set(&ctx.handle());
    });
    sim.run().unwrap();
    assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
}

/// A process parked as an event's only (inline) waiter still shows in the
/// deadlock report, with what it waits on.
#[test]
fn deadlock_report_names_an_inline_waiter() {
    for waiters in 1..=2 {
        let mut sim = Simulation::new(SimConfig::default());
        let ev = Event::named("never");
        for i in 0..waiters {
            let e = ev.clone();
            sim.spawn(format!("stuck{i}"), move |ctx| {
                ctx.wait(&e);
            });
        }
        let err = sim.run().expect_err("nobody sets the event");
        let parcomm_sim::SimError::Deadlock { blocked } = err else {
            panic!("want a deadlock, got {err:?}")
        };
        let names: Vec<_> = blocked.iter().map(|b| b.process.as_str()).collect();
        assert_eq!(names.len(), waiters, "{blocked:?}");
        assert!(names.contains(&"stuck0"), "{blocked:?}");
        assert!(blocked.iter().all(|b| b.waiting_on.as_deref() == Some("event 'never'")));
    }
}
