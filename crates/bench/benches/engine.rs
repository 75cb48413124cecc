//! Wall-clock benchmarks of the simulation engine itself: how fast the
//! discrete-event kernel executes process switches, timed callbacks, and
//! event fan-outs (host performance of the simulator, not virtual time).
//!
//! Plain harness binary (`harness = false`) on the `parcomm-testkit` timer;
//! run with `cargo bench -p parcomm-bench --bench engine` (pass
//! `-- --quick` for a reduced smoke run).

use std::hint::black_box;

use parcomm_sim::{Event, SimConfig, SimDuration, Simulation};
use parcomm_testkit::timer::{bench, BenchConfig};

fn bench_process_switching(cfg: &BenchConfig) {
    for procs in [2usize, 8, 32] {
        bench(cfg, &format!("engine/process_switch/{procs}"), || {
            let mut sim = Simulation::new(SimConfig::default());
            for i in 0..procs {
                sim.spawn(format!("p{i}"), move |ctx| {
                    for _ in 0..100 {
                        ctx.advance(SimDuration::from_nanos(10 + i as u64));
                    }
                });
            }
            black_box(sim.run().expect("bench sim"));
        });
    }
}

fn bench_callback_scheduling(cfg: &BenchConfig) {
    bench(cfg, "engine/callbacks_10k", || {
        let mut sim = Simulation::new(SimConfig::default());
        sim.spawn("scheduler", |ctx| {
            let h = ctx.handle();
            let done = Event::new();
            let done2 = done.clone();
            for i in 0..10_000u64 {
                let done3 = done2.clone();
                h.schedule_in(SimDuration::from_nanos(i), move |h| {
                    if i == 9_999 {
                        done3.set(h);
                    }
                });
            }
            ctx.wait(&done);
        });
        black_box(sim.run().expect("bench sim"));
    });
}

fn bench_event_fanout(cfg: &BenchConfig) {
    bench(cfg, "engine/event_fanout_64_waiters", || {
        let mut sim = Simulation::new(SimConfig::default());
        let ev = Event::new();
        for i in 0..64 {
            let ev2 = ev.clone();
            sim.spawn(format!("w{i}"), move |ctx| {
                ctx.wait(&ev2);
            });
        }
        let ev3 = ev.clone();
        sim.spawn("setter", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ev3.set(&ctx.handle());
        });
        black_box(sim.run().expect("bench sim"));
    });
}

fn main() {
    let cfg = if parcomm_bench::report::quick_mode() {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    bench_process_switching(&cfg);
    bench_callback_scheduling(&cfg);
    bench_event_fanout(&cfg);
}
