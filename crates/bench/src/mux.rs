//! Multi-tenant mux bench: goodput and tail latency as a function of live
//! channel count, copy mechanism, and tenant weight.
//!
//! Every rank of a 4-GPU GH200 node submits `channels` partitioned
//! channels (half sends, half receives, paired ring-wise across ranks) to
//! a [`parcomm_mux::MuxService`] and drains them through batched admission
//! ticks, so a 4096-channel cell coalesces sixteen `tick_batch`-sized
//! `MPIX_Pbuf_prepare` rounds instead of 4096 individual first-call
//! handshakes. Steady-state epochs then apportion drain slots across the
//! eight tenants by smooth weighted round-robin — tenant 0 carries weight
//! 8 against seven weight-1 tenants, so its goodput must come out 8× the
//! others (the fairness verdict the CI `mux` job greps).
//!
//! The grant schedule is a pure function of (weights, channel grid), so
//! every rank computes the identical sequence and the all-to-all pairs up
//! without negotiation; within a sub-round every receive epoch is begun
//! (non-blocking RTR) before any send blocks, the same reply-before-block
//! order the mux tick uses. Each cell is a deterministic simulation
//! digested end to end; output is byte-identical at any `--threads` count.

use parcomm_core::{prequest_create_async, CopyMechanism, DevicePrequest, PrequestConfig};
use parcomm_gpu::{AggLevel, KernelSpec};
use parcomm_mpi::{Rank, WorldConfig};
use parcomm_mux::{
    ChannelSpec, Direction, MuxChannelId, MuxConfig, MuxService, TenantReport, WeightedFair,
};
use parcomm_sim::Proc;
use parcomm_sweep::SweepSpec;
use parcomm_testkit::digest;

use crate::report::Experiment;
use crate::world::World;

/// Sim seed for every mux cell.
pub const MUX_SEED: u64 = 0x00B0_55ED;

/// One cell of the sweep grid.
#[derive(Clone, Debug)]
struct MuxCellCfg {
    /// Live channels per rank (half sends, half receives). Must be even.
    channels: usize,
    /// Tenants sharing the mux; tenant 0 gets weight 8, the rest 1.
    tenants: usize,
    /// Copy mechanism for the world's channels (kc adds a device-driven
    /// `pready_all` sweep per sub-round).
    mechanism: CopyMechanism,
    /// Steady-state drain rounds after admission (each grants
    /// `channels/2` weighted-fair epoch slots).
    rounds: usize,
}

impl MuxCellCfg {
    /// The 8:1 weight vector the fairness verdict is stated against.
    fn weights(&self) -> Vec<u64> {
        (0..self.tenants).map(|t| if t == 0 { 8 } else { 1 }).collect()
    }
}

/// What one cell run produces: rank 0's per-tenant reports, the end-to-end
/// run digest, and the virtual time spent in the drain loop.
struct MuxCellStats {
    /// Rank 0's per-tenant goodput/epoch/latency totals.
    reports: Vec<TenantReport>,
    /// Digest over the full event trace plus per-tenant goodput.
    digest: u64,
    /// Virtual µs from the post-admission barrier to the last drain.
    elapsed_us: f64,
}

/// Drain rounds for a channel count: smaller grids run more rounds so
/// every tenant accumulates enough epochs for a stable p99; the 4096-point
/// runs one round (2048 weighted grants) to bound wall-clock. The scaling
/// is logged as an experiment note — never a silent cap.
fn rounds_for(channels: usize, quick: bool) -> usize {
    let r = (4096 / channels.max(1)).clamp(1, 6);
    if quick {
        r.min(2)
    } else {
        r
    }
}

/// Channel counts from `--channels 16,256,...`; the default grid is 16,
/// 256, 1024 and 4096, and `quick` keeps the two small points. `Err` names
/// a list with an odd or unparseable count.
pub fn channels_arg(quick: bool) -> Result<Vec<usize>, String> {
    let even = |&c: &usize| c >= 2 && c % 2 == 0;
    let list = crate::list_arg("--channels", "even counts >= 2", even)?;
    Ok(list.unwrap_or_else(|| if quick { vec![16, 256] } else { vec![16, 256, 1024, 4096] }))
}

/// Tenant count from `--tenants N` (default 8); `Err` names a count that
/// does not parse or is 0.
pub fn tenants_arg() -> Result<usize, String> {
    let Some(s) = crate::arg_value("--tenants") else {
        return Ok(8);
    };
    s.trim()
        .parse()
        .ok()
        .filter(|&t: &usize| t >= 1)
        .ok_or_else(|| format!("--tenants {s}: expected a count >= 1"))
}

const PARTITIONS: usize = 4;
const PARTITION_BYTES: usize = 256;

/// Run one mux cell.
fn mux_cell(cfg: &MuxCellCfg) -> MuxCellStats {
    assert!(cfg.channels >= 2 && cfg.channels.is_multiple_of(2), "channels must be even");
    let world = World::new(MUX_SEED, WorldConfig {
        mechanism: cfg.mechanism,
        shmem_heap_bytes: 32 << 20,
        ..WorldConfig::gh200(1)
    });
    let trace = world.sim.trace();
    trace.enable();
    let cell = cfg.clone();
    let run = world.try_run(move |ctx, rank| {
        let (p, rank, cell) = (ctx.proc(), rank.clone(), cell.clone());
        ctx.block_on(async move { mux_rank(&p, &rank, &cell).await })
    });
    let (mut reported, report) = run.expect("mux cell sim");
    let (reports, elapsed_us) = reported.pop().expect("rank 0 reports");
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    for r in &reports {
        d.write_u64(r.goodput_bytes);
        d.write_u64(r.epochs);
    }
    MuxCellStats { reports, digest: d.finish(), elapsed_us }
}

/// One rank's body of a mux cell, run as one future: admission, then the
/// weighted-fair drain rounds. Rank 0 returns its per-tenant reports and
/// the virtual µs from the post-admission barrier to the last drain.
async fn mux_rank(p: &Proc, rank: &Rank, cell: &MuxCellCfg) -> Option<(Vec<TenantReport>, f64)> {
    let size = rank.size();
    let me = rank.rank();
    let gpu = rank.gpu();
    let device_driven = cell.mechanism == CopyMechanism::KernelCopy;
    let stream = device_driven.then(|| gpu.create_stream());
    let pairs = cell.channels / 2;
    let weights = cell.weights();

    // ---- Admission: `pairs` ring-paired channel pairs per rank.
    // Pair i: this rank sends to (me + o) and receives the mirrored
    // channel from (me - o), both under tag 0x7000 + i — the same
    // global grid on every rank, so ticks pair up by construction.
    let mut mux = MuxService::new(rank.world(), MuxConfig {
        tenant_weights: weights.clone(),
        tick_batch: 256,
        max_in_flight: cell.channels + 8,
    });
    let tenant_of = |pair: usize| pair % cell.tenants;
    for i in 0..pairs {
        let o = 1 + (i % (size - 1));
        let spec = |peer: usize, direction: Direction| ChannelSpec {
            tenant: tenant_of(i),
            peer,
            tag: 0x7000 + i as u64,
            partitions: PARTITIONS,
            partition_bytes: PARTITION_BYTES,
            direction,
        };
        let buf = || gpu.alloc_global(PARTITIONS * PARTITION_BYTES);
        mux.submit(spec((me + o) % size, Direction::Send), buf()).expect("submit send");
        mux.submit(spec((me + size - o) % size, Direction::Recv), buf()).expect("submit recv");
    }
    let mut admitted: Vec<MuxChannelId> = Vec::new();
    while mux.pending() > 0 {
        admitted.extend(mux.tick_async(p, rank).await.expect("mux tick"));
    }
    assert_eq!(admitted.len(), cell.channels, "every submission admitted");

    // Per-pair channel ids (admitted order is deterministic but
    // tenant-sorted, so recover by tag + direction).
    let mut send_of = vec![None; pairs];
    let mut recv_of = vec![None; pairs];
    for &id in &admitted {
        let s = &mux.channel(id).expect("live").spec;
        let pair = (s.tag - 0x7000) as usize;
        match s.direction {
            Direction::Send => send_of[pair] = Some(id),
            Direction::Recv => recv_of[pair] = Some(id),
        }
    }
    let send_of: Vec<MuxChannelId> = send_of.into_iter().map(|s| s.expect("send")).collect();
    let recv_of: Vec<MuxChannelId> = recv_of.into_iter().map(|r| r.expect("recv")).collect();
    // Device-driven cells: one Kernel Copy prequest per send channel.
    let mut preq_of: Vec<DevicePrequest> = Vec::new();
    for &sid in send_of.iter().filter(|_| device_driven) {
        let sreq = mux.channel(sid).and_then(|c| c.chan.send().cloned()).expect("send channel");
        let want = PrequestConfig {
            copy: CopyMechanism::KernelCopy,
            agg: AggLevel::Block,
            transport_partitions: 1,
            multi_block_counters: true,
        };
        // One node: every Kernel Copy channel maps its peer.
        let preq = prequest_create_async(p, rank, &sreq, want).await;
        preq_of.push(preq.expect("Kernel Copy prequest"));
    }

    // ---- Drain rounds: every round grants `pairs` epoch slots by
    // smooth weighted round-robin over tenants (cursor rotating each
    // tenant's own pairs), so grant counts track the 8:1 weights. The
    // schedule is a pure function of (weights, grid) — identical on
    // every rank. A pair granted k times runs k epochs, one per
    // sub-round; sub-round ordering keeps receives ahead of sends.
    let pairs_of_tenant: Vec<Vec<usize>> = (0..cell.tenants)
        .map(|t| (0..pairs).filter(|&i| tenant_of(i) == t).collect())
        .collect();
    let eligible: Vec<bool> = pairs_of_tenant.iter().map(|p| !p.is_empty()).collect();
    let mut wf = WeightedFair::new(&weights);
    let mut cursor = vec![0usize; cell.tenants];
    rank.barrier_async(p).await;
    let t0 = p.now();
    for _round in 0..cell.rounds {
        let mut grants = vec![0u32; pairs];
        for _slot in 0..pairs {
            let t = wf.pick(&eligible).expect("some tenant has pairs");
            let list = &pairs_of_tenant[t];
            grants[list[cursor[t] % list.len()]] += 1;
            cursor[t] += 1;
        }
        let max_mult = grants.iter().copied().max().unwrap_or(0);
        for sub in 0..max_mult {
            let active: Vec<usize> = (0..pairs).filter(|&i| grants[i] > sub).collect();
            // Receives first: non-blocking RTR for every active pair.
            let mut recv_waits = Vec::with_capacity(active.len());
            for &i in &active {
                let chan = mux.begin_epoch_async(p, recv_of[i]).await.expect("recv epoch");
                recv_waits.push(chan.recv().expect("recv channel").clone());
            }
            match &stream {
                Some(stream) => {
                    // One kernel sweeps MPIX_Pready over every active
                    // channel's device prequest.
                    let mut waits = Vec::with_capacity(active.len());
                    let mut preqs = Vec::with_capacity(active.len());
                    for &i in &active {
                        let chan =
                            mux.begin_epoch_async(p, send_of[i]).await.expect("send epoch");
                        waits.push((send_of[i], chan.send().expect("send").clone()));
                        preqs.push(preq_of[i].clone());
                    }
                    let t0 = p.now().as_micros_f64();
                    let spec = KernelSpec::new("mux-pready", preqs.len().max(1) as u32, 256);
                    let _ = stream
                        .launch_async(p, spec, move |d| {
                            for preq in &preqs {
                                preq.pready_all(d);
                            }
                        })
                        .await;
                    for (sid, s) in waits {
                        s.wait_async(p).await.expect("send wait");
                        let dt = p.now().as_micros_f64() - t0;
                        let (tenant, bytes) = {
                            let ch = mux.channel(sid).expect("live");
                            (ch.spec.tenant, ch.spec.bytes())
                        };
                        mux.record_epoch(tenant, bytes, dt);
                    }
                }
                None => {
                    for &i in &active {
                        mux.run_host_send_epoch_async(p, send_of[i]).await.expect("send epoch");
                    }
                }
            }
            for r in recv_waits {
                r.wait_async(p).await.expect("recv wait");
            }
        }
    }
    (me == 0).then(|| (mux.tenant_stats(), p.now().since(t0).as_micros_f64()))
}

/// Numeric mechanism code for the result rows (pe=0, kc=1, shmem=2).
fn mech_code(m: CopyMechanism) -> f64 {
    match m {
        CopyMechanism::ProgressionEngine => 0.0,
        CopyMechanism::KernelCopy => 1.0,
        CopyMechanism::Shmem => 2.0,
    }
}

/// Run the mux sweep over a channel grid and tenant count.
pub fn run(channels: &[usize], tenants: usize, quick: bool) -> Experiment {
    let mechanisms = [
        CopyMechanism::ProgressionEngine,
        CopyMechanism::KernelCopy,
        CopyMechanism::Shmem,
    ];
    let mut exp = Experiment::new(
        "mux",
        "Multi-tenant mux: per-tenant goodput and tail latency vs channel count \
         (4 GH200 ranks, tenant 0 at weight 8 vs weight-1 peers)",
        &[
            "channels", "mech", "tenant", "weight", "epochs", "goodput_mb", "p50_us",
            "p99_us",
        ],
    );
    let mut spec = SweepSpec::new();
    for &c in channels {
        for m in mechanisms {
            let rounds = rounds_for(c, quick);
            spec.cell(format!("channels={c},mech={}", m.short_name()), move || {
                let cfg = MuxCellCfg { channels: c, tenants, mechanism: m, rounds };
                let stats = mux_cell(&cfg);
                let mut rows = Vec::new();
                for r in &stats.reports {
                    rows.push(vec![
                        c as f64,
                        mech_code(m),
                        r.tenant as f64,
                        r.weight as f64,
                        r.epochs as f64,
                        r.goodput_bytes as f64 / (1024.0 * 1024.0),
                        r.latency_quantile_us(0.50),
                        r.latency_quantile_us(0.99),
                    ]);
                }
                let mut notes = vec![format!(
                    "channels={c},mech={}: {} rounds, digest 0x{:016x}, virtual {:.1} us",
                    m.short_name(),
                    rounds,
                    stats.digest,
                    stats.elapsed_us
                )];
                notes.push(fairness_note(c, m, &stats.reports, tenants));
                (rows, notes)
            });
        }
    }
    for (rows, notes) in crate::report::run_sweep(spec, "mux sweep") {
        for row in rows {
            exp.push_row(row);
        }
        for n in notes {
            exp.note(n);
        }
    }
    exp.note(format!(
        "mechanism codes: pe=0 kc=1 shmem=2; rounds scale as min(6, 4096/channels) \
         (quick caps at 2) so large grids bound wall-clock — scaling is explicit, \
         not a silent cap; tenants={tenants}"
    ));
    exp
}

/// The grep-able fairness verdict: tenant 0 (weight 8) against the mean
/// weight-1 tenant, PASS when the goodput ratio lands within 20% of 8.
fn fairness_note(
    channels: usize,
    m: CopyMechanism,
    reports: &[TenantReport],
    tenants: usize,
) -> String {
    if tenants < 2 {
        return format!(
            "mux weighted fairness verdict: SKIP (channels={channels},mech={}, \
             single tenant)",
            m.short_name()
        );
    }
    let g0 = reports[0].goodput_bytes as f64;
    let rest: f64 = reports[1..].iter().map(|r| r.goodput_bytes as f64).sum::<f64>()
        / (tenants - 1) as f64;
    let want = reports[0].weight as f64 / reports[1].weight as f64;
    let ratio = if rest > 0.0 { g0 / rest } else { f64::INFINITY };
    let verdict = if (ratio - want).abs() / want <= 0.20 { "PASS" } else { "FAIL" };
    format!(
        "mux weighted fairness verdict: {verdict} (channels={channels},mech={}, \
         tenant0/mean-rest goodput ratio {ratio:.2} vs weight ratio {want:.1})",
        m.short_name()
    )
}
