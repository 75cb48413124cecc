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
