//! Observability-subsystem integration tests (`parcomm-obs`): tracing must
//! never perturb a run, the Chrome export must be valid and well-formed,
//! and every causal edge must point backward in virtual time.

use std::sync::Arc;

use parcomm::coll::pallreduce_init;
use parcomm::obs::{chrome_trace_json, is_causal_category, json};
use parcomm::prelude::*;
use parcomm::sim::{Mutex, TraceSpan};
use parcomm_testkit::digest::Digest;

/// Recording level for a run of the shared workload.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Level {
    Off,
    Spans,
    Causal,
}

/// The program [`p2p_run`] runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Program {
    /// Host pready over the default mechanism.
    Default,
    /// Host pready over the symmetric-heap mechanism (`shmem_put`,
    /// `shmem_signal` spans).
    Shmem,
    /// [`Program::Default`] with one spurious epoch replay between the
    /// last pready and the wait (`recover_replay` spans).
    Replay,
}

/// Run one partitioned p2p epoch (4 ranks, 8 partitions, 2 transports) of
/// `program` at the given trace level; return the report digest and the
/// span stream.
fn p2p_run(seed: u64, level: Level, program: Program) -> (u64, Vec<TraceSpan>) {
    let mut sim = Simulation::with_seed(seed);
    let trace = sim.trace();
    match level {
        Level::Off => {}
        Level::Spans => trace.enable(),
        Level::Causal => trace.enable_causal(),
    }
    let mut config = WorldConfig::gh200(1);
    if program == Program::Shmem {
        config.mechanism = CopyMechanism::Shmem;
    }
    let world = MpiWorld::new(&sim, config);
    world.run_ranks(&mut sim, move |ctx, rank| {
        let parts = 8usize;
        let buf = rank.gpu().alloc_global(parts * 1024);
        match rank.rank() {
            0 => {
                let sreq = psend_init(ctx, rank, 1, 7, &buf, parts).expect("init");
                sreq.set_transport_partitions(2).expect("set_transport_partitions");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                if program == Program::Replay {
                    sreq.recover_epoch(ctx);
                }
                sreq.wait(ctx).expect("wait");
            }
            1 => {
                let rreq = precv_init(ctx, rank, 0, 7, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    let report = sim.run().expect("sim run");
    let mut d = Digest::new();
    d.write_u64(report.end_time.as_nanos());
    d.write_u64(report.events_processed);
    d.write_u64(report.processes);
    (d.finish(), trace.spans())
}

/// Digest of a span stream restricted to the frozen level-1 categories
/// (hashing only `(category, start, end)`, like the testkit trace digest).
fn base_stream_digest(spans: &[TraceSpan]) -> u64 {
    let base: Vec<&TraceSpan> =
        spans.iter().filter(|s| !is_causal_category(s.category)).collect();
    let mut d = Digest::new();
    d.write_usize(base.len());
    for s in &base {
        d.write_str(s.category);
        d.write_u64(s.start.as_nanos());
        d.write_u64(s.end.as_nanos());
    }
    d.finish()
}

/// The zero-perturbation contract: running the same `(program, seed)` at
/// trace level 0 (off), 1 (spans), and 2 (spans + causal handoffs) yields
/// identical end times and event counts, and level 2's base span stream is
/// byte-identical to level 1's — the causal spans are purely additive.
/// The shmem and replay programs check that their causal-only categories
/// are filtered out of the base view.
#[test]
fn tracing_levels_do_not_perturb_the_run() {
    let programs: [(Program, &[&str]); 3] = [
        (Program::Default, &["put"]),
        (Program::Shmem, &["shmem_put", "shmem_signal"]),
        (Program::Replay, &["recover_replay"]),
    ];
    for (program, markers) in programs {
        for seed in [3, 0xA11CE, 0xFEED] {
            let (off_digest, off_spans) = p2p_run(seed, Level::Off, program);
            let (l1_digest, l1_spans) = p2p_run(seed, Level::Spans, program);
            let (l2_digest, l2_spans) = p2p_run(seed, Level::Causal, program);

            let at = format!("{program:?} seed {seed}");
            assert_eq!(off_digest, l1_digest, "{at}: level 1 changed the run");
            assert_eq!(off_digest, l2_digest, "{at}: level 2 changed the run");
            assert!(off_spans.is_empty(), "level 0 must record nothing");

            assert_eq!(
                base_stream_digest(&l1_spans),
                base_stream_digest(&l2_spans),
                "{at}: causal level altered the frozen base span stream"
            );
            assert!(l1_spans.iter().all(|s| !is_causal_category(s.category)));
            for marker in markers {
                assert!(
                    l2_spans.iter().any(|s| s.category == *marker),
                    "{at}: causal level recorded no {marker} span (vacuous)"
                );
            }
        }
    }
}

/// Export a tiny 2-rank partitioned exchange and validate the Chrome
/// `trace_event` document end-to-end with the first-party JSON parser.
#[test]
fn chrome_export_of_two_rank_run_is_valid() {
    let mut sim = Simulation::with_seed(11);
    let trace = sim.trace();
    trace.enable_causal();
    let mut config = WorldConfig::gh200(1);
    config.cluster.gpus_per_node = 2;
    config.cluster.nics_per_node = 2;
    let world = MpiWorld::new(&sim, config);
    assert_eq!(world.size(), 2);
    world.run_ranks(&mut sim, |ctx, rank| {
        // Bidirectional exchange so both ranks record attributed spans.
        // Prepare order is complementary (0: send→recv, 1: recv→send)
        // because each first prepare blocks on the peer's counterpart.
        let me = rank.rank();
        let peer = 1 - me;
        let (stag, rtag) = if me == 0 { (9, 10) } else { (10, 9) };
        let sbuf = rank.gpu().alloc_global(4 * 4096);
        let rbuf = rank.gpu().alloc_global(4 * 4096);
        let sreq = psend_init(ctx, rank, peer, stag, &sbuf, 4).expect("sinit");
        let rreq = precv_init(ctx, rank, peer, rtag, &rbuf, 4).expect("rinit");
        sreq.start(ctx).expect("sstart");
        rreq.start(ctx).expect("rstart");
        if me == 0 {
            sreq.pbuf_prepare(ctx).expect("sprepare");
            rreq.pbuf_prepare(ctx).expect("rprepare");
        } else {
            rreq.pbuf_prepare(ctx).expect("rprepare");
            sreq.pbuf_prepare(ctx).expect("sprepare");
        }
        for u in 0..4 {
            sreq.pready(ctx, u).expect("pready");
        }
        sreq.wait(ctx).expect("swait");
        rreq.wait(ctx).expect("rwait");
    });
    sim.run().expect("sim run");
    let spans = trace.spans();
    let doc = chrome_trace_json(&spans);

    let v = json::parse(&doc).expect("export must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");

    let ph = |e: &json::JsonValue| e.get("ph").and_then(|p| p.as_str()).map(str::to_owned);
    let durations = events.iter().filter(|e| ph(e).as_deref() == Some("X")).count();
    assert_eq!(durations, spans.len(), "one X event per span");

    // Flow events come in balanced s/f pairs, one per causal edge.
    let edges = spans.iter().filter(|s| !s.caused_by.is_none()).count();
    let starts = events.iter().filter(|e| ph(e).as_deref() == Some("s")).count();
    let finishes = events.iter().filter(|e| ph(e).as_deref() == Some("f")).count();
    assert!(edges > 0, "2-rank run must record causal edges");
    assert_eq!(starts, edges);
    assert_eq!(finishes, edges);

    // Both ranks got named process tracks.
    let names: Vec<String> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("process_name")
        })
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                .map(str::to_owned)
        })
        .collect();
    assert!(names.contains(&"rank 0".to_string()), "process names: {names:?}");
    assert!(names.contains(&"rank 1".to_string()), "process names: {names:?}");

    // Every X event carries non-negative microsecond timestamps.
    for e in events.iter().filter(|e| ph(e).as_deref() == Some("X")) {
        let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
        let dur = e.get("dur").and_then(|d| d.as_f64()).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0);
    }
}

/// A 4-stripe cross-node put records one `wire` span per stripe and one
/// `put_complete` span per stripe *caused by* that stripe's wire span,
/// and the whole causal graph still round-trips through the Chrome
/// exporter: one X event per span and balanced s/f flow pairs per edge.
#[test]
fn striped_chrome_export_round_trips_with_per_stripe_edges() {
    let mut sim = Simulation::with_seed(0x57A9);
    let trace = sim.trace();
    trace.enable_causal();
    let world = MpiWorld::gh200(&sim, 2);
    world.run_ranks(&mut sim, |ctx, rank| {
        let parts = 4usize;
        let buf = rank.gpu().alloc_global(parts * 4096);
        match rank.rank() {
            3 => {
                let sreq = psend_init(ctx, rank, 4, 17, &buf, parts).expect("init");
                sreq.set_transport_partitions(parts).expect("transports");
                sreq.set_stripes(4).expect("stripes");
                sreq.start(ctx).expect("start");
                sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                for u in 0..parts {
                    sreq.pready(ctx, u).expect("pready");
                }
                sreq.wait(ctx).expect("wait");
            }
            4 => {
                let rreq = precv_init(ctx, rank, 3, 17, &buf, parts).expect("init");
                rreq.start(ctx).expect("start");
                rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
                rreq.wait(ctx).expect("wait");
            }
            _ => {}
        }
    });
    sim.run().expect("striped p2p sim");
    let spans = trace.spans();

    // Four 4-stripe data puts: at least 16 wire spans, and every
    // per-stripe completion edge points at a wire span.
    let wires = spans.iter().filter(|s| s.category == "wire").count();
    assert!(wires >= 16, "4 puts x 4 stripes must record >= 16 wire spans, got {wires}");
    let mut stripe_edges = 0usize;
    for s in spans.iter().filter(|s| s.category == "put_complete") {
        let c = s.caused_by.index().expect("every put_complete has a cause");
        assert_eq!(
            spans[c].category, "wire",
            "put_complete must be caused by its stripe's wire span"
        );
        assert!(spans[c].start <= s.start, "stripe edge goes forward in time");
        stripe_edges += 1;
    }
    assert!(
        stripe_edges >= 16,
        "4 puts x 4 stripes must record >= 16 per-stripe completions, got {stripe_edges}"
    );

    let doc = chrome_trace_json(&spans);
    let v = json::parse(&doc).expect("export must be valid JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    let ph = |e: &json::JsonValue| e.get("ph").and_then(|p| p.as_str()).map(str::to_owned);
    let durations = events.iter().filter(|e| ph(e).as_deref() == Some("X")).count();
    assert_eq!(durations, spans.len(), "one X event per span");
    let edges = spans.iter().filter(|s| !s.caused_by.is_none()).count();
    let starts = events.iter().filter(|e| ph(e).as_deref() == Some("s")).count();
    let finishes = events.iter().filter(|e| ph(e).as_deref() == Some("f")).count();
    assert_eq!(starts, edges, "one flow start per causal edge");
    assert_eq!(finishes, edges, "one flow finish per causal edge");
}

/// Completion accounting: over one striped epoch, the `net.rail<N>.bytes`
/// occupancy counters sum to exactly the payload plus the per-partition
/// completion flags — stripes never double-count or drop bytes, even when
/// the partition length does not divide by the stripe count. The epoch is
/// isolated from handshake traffic by snapshotting the counters between
/// two barriers after `pbuf_prepare` settles.
#[test]
fn striped_rail_byte_counters_sum_to_payload() {
    // 3 partitions x 98317 B: not divisible by 4 stripes, well under the
    // fabric's 1 MiB implicit-striping threshold per put.
    let parts = 3usize;
    let part_bytes = 98_317usize;
    let mut sim = Simulation::with_seed(0x4A11);
    let world = MpiWorld::gh200(&sim, 2);
    let registry = world.enable_metrics();
    let nics = world.topology().nics_per_node() as usize;
    let mid = Arc::new(Mutex::new(Vec::new()));
    let (m2, r2) = (mid.clone(), registry.clone());
    world.run_ranks(&mut sim, move |ctx, rank| {
        let buf = rank.gpu().alloc_global(parts * part_bytes);
        let sreq = (rank.rank() == 3).then(|| {
            let sreq = psend_init(ctx, rank, 4, 19, &buf, parts).expect("init");
            sreq.set_transport_partitions(parts).expect("transports");
            sreq.set_stripes(4).expect("stripes");
            sreq.start(ctx).expect("start");
            sreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            sreq
        });
        let rreq = (rank.rank() == 4).then(|| {
            let rreq = precv_init(ctx, rank, 3, 19, &buf, parts).expect("init");
            rreq.start(ctx).expect("start");
            rreq.pbuf_prepare(ctx).expect("pbuf_prepare");
            rreq
        });
        // Handshake traffic is fully on the wire before the first barrier;
        // rank 0 snapshots the counters before anyone can issue a put.
        rank.barrier(ctx);
        if rank.rank() == 0 {
            let snap = r2.snapshot();
            *m2.lock() = (0..nics)
                .map(|r| snap.counter(&format!("net.rail{r}.bytes")).unwrap_or(0))
                .collect();
        }
        rank.barrier(ctx);
        if let Some(sreq) = sreq {
            for u in 0..parts {
                sreq.pready(ctx, u).expect("pready");
            }
            sreq.wait(ctx).expect("wait");
        }
        if let Some(rreq) = rreq {
            rreq.wait(ctx).expect("wait");
        }
    });
    sim.run().expect("rail accounting sim");
    let before = mid.lock().clone();
    assert_eq!(before.len(), nics, "mid-run snapshot must have been taken");
    let after = registry.snapshot();
    let deltas: Vec<u64> = (0..nics)
        .map(|r| after.counter(&format!("net.rail{r}.bytes")).unwrap_or(0) - before[r])
        .collect();
    let total: u64 = deltas.iter().sum();
    // Exactly the payload plus one 8-byte completion flag per partition.
    let expected = (parts * part_bytes + parts * 8) as u64;
    assert_eq!(
        total, expected,
        "rail byte counters must sum to payload + flags (deltas {deltas:?})"
    );
    assert!(
        deltas.iter().all(|&d| d > 0),
        "4 stripes must touch every rail: {deltas:?}"
    );
    let max = *deltas.iter().max().expect("nonempty");
    assert!(
        max * 2 < total,
        "no rail may carry half the striped payload: {deltas:?}"
    );
}

/// Property: causality is consistent with virtual time. Over several seeds
/// and the full causal-level partitioned allreduce, every recorded edge
/// points to an earlier-recorded span that started no later than its
/// effect.
#[test]
fn causal_edges_point_backward_in_virtual_time() {
    for seed in [1u64, 7, 42, 0xBEEF] {
        let mut sim = Simulation::with_seed(seed);
        let trace = sim.trace();
        trace.enable_causal();
        let world = MpiWorld::gh200(&sim, 1);
        let errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let e2 = errors.clone();
        world.run_ranks(&mut sim, move |ctx, rank| {
            let partitions = 4usize;
            let n = partitions * rank.size() * 64;
            let buf = rank.gpu().alloc_global(n * 8);
            let stream = rank.gpu().create_stream();
            let mut run = || -> Result<(), MpiError> {
                let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 90)?;
                coll.start(ctx)?;
                coll.pbuf_prepare(ctx)?;
                let c2 = coll.clone();
                stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| {
                    c2.pready_device_all(d)
                });
                coll.wait(ctx)
            };
            if let Err(e) = run() {
                e2.lock().push(format!("rank {}: {e}", rank.rank()));
            }
        });
        sim.run().expect("sim run");
        assert!(errors.lock().is_empty(), "seed {seed}: {:?}", errors.lock());

        let spans = trace.spans();
        let mut edges = 0usize;
        for (i, s) in spans.iter().enumerate() {
            let Some(c) = s.caused_by.index() else { continue };
            edges += 1;
            assert!(
                c < i,
                "seed {seed}: span {i} ({}) caused by later/own span {c}",
                s.category
            );
            let cause = &spans[c];
            assert!(
                cause.start <= s.start,
                "seed {seed}: edge {} -> {} goes forward in time ({} > {})",
                cause.category,
                s.category,
                cause.start,
                s.start
            );
        }
        assert!(edges >= 16, "seed {seed}: only {edges} causal edges (vacuous)");
    }
}

/// Every layer counts from world construction on, so a registry fetched
/// only after the run already holds the run: its kernels, wire transfers,
/// UCX puts and progression-engine sweeps.
#[test]
fn registry_fetched_after_the_run_holds_its_counts() {
    let mut sim = Simulation::with_seed(0x0B5);
    let world = MpiWorld::gh200(&sim, 1);
    world.run_ranks(&mut sim, |ctx, rank| {
        let partitions = 4usize;
        let buf = rank.gpu().alloc_global(partitions * rank.size() * 64 * 8);
        let stream = rank.gpu().create_stream();
        let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 91).expect("init");
        coll.start(ctx).expect("start");
        coll.pbuf_prepare(ctx).expect("pbuf_prepare");
        let c2 = coll.clone();
        stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| c2.pready_device_all(d));
        coll.wait(ctx).expect("wait");
    });
    sim.run().expect("sim run");
    let snap = world.enable_metrics().snapshot();
    for name in ["gpu.kernels", "net.transfers", "ucx.puts", "mpi.pe.polls"] {
        let n = snap.counter(name).unwrap_or(0);
        assert!(n > 0, "{name} = {n} after the run:\n{}", snap.to_json());
    }
}
