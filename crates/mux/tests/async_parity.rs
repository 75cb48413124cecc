//! Frozen anchor for the mux's admission and epoch path: a mirrored
//! submission set, admitted with `tick_async` and driven through two
//! epochs with `begin_epoch_async`, every rank's body one future. The
//! event count and a digest of every rank's admitted ids, stripes and
//! table probes were recorded when the service still had its blocking
//! `&mut Ctx` forms beside the async ones, and the two gave equal
//! results; any change to what the mux queues moves them.

use std::sync::Arc;

use parcomm_core::{MpiError, PrecvRequest, PsendRequest};
use parcomm_gpu::Buffer;
use parcomm_mpi::{MpiWorld, Rank, WorldConfig};
use parcomm_mux::{ChannelSpec, Direction, MuxChannel, MuxChannelId, MuxConfig, MuxService};
use parcomm_sim::{Mutex, Proc, Simulation};
use parcomm_testkit::digest::Digest;

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

/// Simulation events of [`run`].
const EVENTS: u64 = 2_847;
/// [`runs_digest`] of [`run`].
const RUNS_DIGEST: u64 = 0xff378ab14823b82d;

/// Every rank's run, in rank order, and the simulation's event count.
fn run() -> (Vec<RankRun>, u64) {
    let mut sim = Simulation::with_seed(0xA5C);
    let world = MpiWorld::new(&sim, WorldConfig::gh200(2));
    let runs = Arc::new(Mutex::new(vec![None; world.size()]));
    let r2 = runs.clone();
    world.run_ranks(&mut sim, move |ctx, rank| {
        let (p, me, rank) = (ctx.proc(), rank.rank(), rank.clone());
        let out = ctx.block_on(async move { run_async(&p, &rank).await });
        r2.lock()[me] = Some(out.expect("mux run"));
    });
    let report = sim.run().expect("mux run completes");
    let runs = runs.lock().iter().map(|r| r.clone().expect("every rank ran")).collect();
    (runs, report.events_processed)
}

/// Digest of every rank's admitted ids (in admission order), stripes and
/// table probes.
fn runs_digest(runs: &[RankRun]) -> u64 {
    let mut d = Digest::new();
    for (ids, stripes, probes) in runs {
        for id in ids {
            d.write_str(&id.to_string());
        }
        for &s in stripes {
            d.write_usize(s);
        }
        d.write_u64(*probes);
    }
    d.finish()
}

#[test]
fn mux_admission_and_epochs_match_the_frozen_anchor() {
    let (runs, events) = run();
    let (ids, stripes, _) = &runs[0];
    assert_eq!(ids.len(), 28, "every submitted channel admitted");
    assert!(stripes.iter().any(|&s| s > 1), "cross-node sends are striped: {stripes:?}");
    assert_eq!(events, EVENTS, "event count");
    assert_eq!(runs_digest(&runs), RUNS_DIGEST, "admitted ids, stripes and table probes");
}
