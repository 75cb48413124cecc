//! The async mux entry points reproduce the blocking ones: the same
//! mirrored submission set, admitted and driven through two epochs once
//! with `tick` / `begin_epoch` and once with `tick_async` /
//! `begin_epoch_async` inside one `Ctx::block_on`, gives the same admitted
//! ids, stripes, table probes and event count.

use std::sync::Arc;

use parcomm_core::{MpiError, PrecvRequest, PsendRequest};
use parcomm_gpu::Buffer;
use parcomm_mpi::{MpiWorld, Rank, WorldConfig};
use parcomm_mux::{ChannelSpec, Direction, MuxChannel, MuxChannelId, MuxConfig, MuxService};
use parcomm_sim::{Ctx, Mutex, Proc, Simulation};

const PARTS: usize = 2;

/// What one rank's run leaves behind: admitted ids in admission order,
/// each channel's stripes, and the table's probe count.
type RankRun = (Vec<MuxChannelId>, Vec<usize>, u64);

/// A service with every channel of this rank's mirrored set submitted:
/// per tenant and peer, one send and one receive. `tick_batch: 8` spreads
/// the 28 channels of a 2-node world over four ticks, and cross-node sends
/// get rail stripes.
fn submitted(rank: &Rank) -> MuxService {
    let mut mux = MuxService::new(
        rank.world(),
        MuxConfig { tenant_weights: vec![3, 1], tick_batch: 8, ..MuxConfig::default() },
    );
    let me = rank.rank();
    for tenant in 0..2usize {
        for peer in (0..rank.size()).filter(|&p| p != me) {
            for direction in [Direction::Send, Direction::Recv] {
                let spec = ChannelSpec {
                    tenant,
                    peer,
                    tag: 0xB00 + tenant as u64,
                    partitions: PARTS,
                    partition_bytes: 4096,
                    direction,
                };
                let buf: Buffer = rank.gpu().alloc_global(PARTS * 4096);
                mux.submit(spec, buf).expect("submit");
            }
        }
    }
    mux
}

/// Split an epoch's begun channels into sends and receives.
fn split(chans: Vec<MuxChannel>) -> (Vec<PsendRequest>, Vec<PrecvRequest>) {
    let sends = chans.iter().filter_map(|c| c.send().cloned()).collect();
    let recvs = chans.iter().filter_map(|c| c.recv().cloned()).collect();
    (sends, recvs)
}

/// Receives first in each epoch, so every send's steady prepare finds its
/// ready-to-receive signal on the way.
fn by_direction(mux: &MuxService, ids: &[MuxChannelId]) -> Vec<MuxChannelId> {
    let dir = |id: &MuxChannelId| mux.channel(*id).expect("live").spec.direction;
    let mut order: Vec<MuxChannelId> =
        ids.iter().copied().filter(|id| dir(id) == Direction::Recv).collect();
    order.extend(ids.iter().copied().filter(|id| dir(id) == Direction::Send));
    order
}

fn run_blocking(ctx: &mut Ctx, rank: &Rank) -> Result<RankRun, MpiError> {
    let mut mux = submitted(rank);
    let mut ids = Vec::new();
    while mux.pending() > 0 {
        ids.extend(mux.tick(ctx, rank)?);
    }
    for _epoch in 0..2 {
        let mut chans = Vec::new();
        for id in by_direction(&mux, &ids) {
            chans.push(mux.begin_epoch(ctx, id)?);
        }
        let (sends, recvs) = split(chans);
        for s in &sends {
            s.pready_range(ctx, 0..PARTS)?;
        }
        for s in &sends {
            s.wait(ctx)?;
        }
        for r in &recvs {
            r.wait(ctx)?;
        }
    }
    let stripes = ids.iter().map(|&id| mux.channel(id).expect("live").stripes).collect();
    Ok((ids, stripes, mux.table_probe_ops()))
}

async fn run_async(p: &Proc, rank: &Rank) -> Result<RankRun, MpiError> {
    let mut mux = submitted(rank);
    let mut ids = Vec::new();
    while mux.pending() > 0 {
        ids.extend(mux.tick_async(p, rank).await?);
    }
    for _epoch in 0..2 {
        let mut chans = Vec::new();
        for id in by_direction(&mux, &ids) {
            chans.push(mux.begin_epoch_async(p, id).await?);
        }
        let (sends, recvs) = split(chans);
        for s in &sends {
            s.pready_range_async(p, 0..PARTS).await?;
        }
        for s in &sends {
            s.wait_async(p).await?;
        }
        for r in &recvs {
            r.wait_async(p).await?;
        }
    }
    let stripes = ids.iter().map(|&id| mux.channel(id).expect("live").stripes).collect();
    Ok((ids, stripes, mux.table_probe_ops()))
}

/// Every rank's run and the simulation's event count.
fn run(async_mux: bool) -> (Vec<Option<RankRun>>, u64) {
    let mut sim = Simulation::with_seed(0xA5C);
    let world = MpiWorld::new(&sim, WorldConfig::gh200(2));
    let runs = Arc::new(Mutex::new(vec![None; world.size()]));
    let r2 = runs.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let out = if async_mux {
            let (p, rank) = (ctx.proc(), rank.clone());
            ctx.block_on(async move { run_async(&p, &rank).await })
        } else {
            run_blocking(ctx, rank)
        };
        r2.lock()[rank.rank()] = Some(out.expect("mux run"));
    });
    let report = sim.run().expect("mux run completes");
    let runs = runs.lock().clone();
    (runs, report.events_processed)
}

#[test]
fn async_tick_and_epochs_reproduce_the_blocking_ones() {
    let (blocking, blocking_events) = run(false);
    let (polled, polled_events) = run(true);
    assert_eq!(polled, blocking, "admitted ids, stripes and table probes");
    assert_eq!(polled_events, blocking_events, "event count");
    let (ids, stripes, _) = blocking[0].clone().expect("rank 0 ran");
    assert_eq!(ids.len(), 28, "every submitted channel admitted");
    assert!(stripes.iter().any(|&s| s > 1), "cross-node sends are striped: {stripes:?}");
}
