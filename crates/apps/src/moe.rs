//! Mixture-of-Experts dispatch/combine all-to-all over mux-admitted
//! partitioned channels.
//!
//! Every rank hosts one expert; every rank owns `tokens_per_rank` tokens
//! per tenant. A layer is the classic MoE exchange pair:
//!
//! - **dispatch**: each token is routed (deterministic hash router) to an
//!   expert rank and shipped there over the tenant's persistent
//!   partitioned channel for that peer — one user partition per token
//!   slot, so arrival granularity is per-token;
//! - **expert compute**: the expert transforms every token it received
//!   (`y = 2x + bias(expert)`);
//! - **combine**: results ship back over the reverse channels and land in
//!   the token's home slot.
//!
//! Channels are *not* opened by hand: every (tenant, peer, kind,
//! direction) channel is submitted to a [`parcomm_mux::MuxService`] and
//! admitted in batched ticks, so a cell with many tenants exercises
//! admission batching, the weighted-fair admission interleave, and the
//! indexed channel table on its completion path. Capacity is bounded the
//! way real MoE routers bound it: each channel carries at most
//! `capacity_factor × tokens_per_rank / size` token slots and overflow
//! tokens are *dropped* (they keep their residual value), with the drop
//! count reported.
//!
//! Every phase is **GPU-initiated**: one kernel per phase marks every
//! send channel ready in-kernel (`MPIX_Pready_all`), whatever the copy
//! mechanism — flag writes drained by the Progression Engine, rkey-mapped
//! kernel copies, or symmetric-heap puts and signals. The host never
//! calls `MPI_Pready`, matching the dispatch/combine shape of a real
//! GPU-resident MoE layer.
//!
//! With `functional = true` the router, expert arithmetic, and combine
//! unpacking really run, and [`moe_reference`] computes the identical
//! result serially for bit-for-bit comparison.

use parcomm_core::{prequest_create_async, CopyMechanism, DevicePrequest, PrequestConfig};
use parcomm_gpu::{AggLevel, Buffer, KernelSpec, Stream};
use parcomm_mpi::{MpiError, Rank};
use parcomm_mux::{ChannelSpec, Direction, MuxChannelId, MuxConfig, MuxService};
use parcomm_sim::{Ctx, FxHashMap, Proc, SimDuration};

/// MoE cell configuration. All ranks must use identical values.
#[derive(Clone, Debug)]
pub struct MoeConfig {
    /// Independent model replicas (tenants) sharing the world; each runs
    /// its own dispatch/combine exchange every layer.
    pub tenants: usize,
    /// Weight per tenant (admission + drain fairness). Length must equal
    /// `tenants`.
    pub tenant_weights: Vec<u64>,
    /// Tokens homed on each rank, per tenant.
    pub tokens_per_rank: usize,
    /// Hidden dimension: each token is `hidden` f64 values.
    pub hidden: usize,
    /// MoE layers to run (one dispatch + one combine each).
    pub layers: usize,
    /// Router capacity factor ×100 (e.g. 200 = 2.0): per-channel slot
    /// budget is `cf · tokens_per_rank / (100 · size)`, minimum 1.
    pub capacity_factor_pct: usize,
    /// Copy mechanism for the expert-bound traffic. Sends are always
    /// driven from a device kernel (`MPIX_Pready` in-kernel):
    /// `ProgressionEngine` writes device flags the engine drains,
    /// `KernelCopy` issues rkey-mapped stores, `Shmem` issues
    /// symmetric-heap puts and signals — each with the usual fall back to
    /// the Progression Engine on ineligible routes.
    pub mechanism: CopyMechanism,
    /// Run the router/expert arithmetic (tests) or cost-only (sweeps).
    pub functional: bool,
    /// Routing seed.
    pub seed: u64,
}

impl MoeConfig {
    /// A small functional configuration for tests.
    pub fn functional_test(mechanism: CopyMechanism) -> Self {
        MoeConfig {
            tenants: 2,
            tenant_weights: vec![3, 1],
            tokens_per_rank: 8,
            hidden: 4,
            layers: 2,
            capacity_factor_pct: 200,
            mechanism,
            functional: true,
            seed: 0x0E0E,
        }
    }

    /// Per-channel token-slot capacity for a world of `size` ranks.
    pub fn capacity(&self, size: usize) -> usize {
        (self.capacity_factor_pct * self.tokens_per_rank / (100 * size)).max(1)
    }
}

/// Result of a cell run on one rank.
#[derive(Clone, Debug)]
pub struct MoeResult {
    /// Virtual time spent in the layer loop (admission excluded).
    pub elapsed: SimDuration,
    /// Tokens routed to a remote expert across all layers and tenants.
    pub tokens_routed: u64,
    /// Tokens dropped at capacity across all layers and tenants.
    pub tokens_dropped: u64,
    /// Sum of final token values homed on this rank (functional runs
    /// only; 0.0 otherwise).
    pub checksum: f64,
    /// Channels this rank admitted through the mux.
    pub channels: usize,
}

/// Deterministic token router (FNV-style mix): the expert rank for token
/// `i` of `tenant` homed on `rank`.
pub fn route(seed: u64, tenant: usize, rank: usize, token: usize, size: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for v in [tenant as u64, rank as u64, token as u64] {
        h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    (h % size as u64) as usize
}

/// The expert transform applied by `expert` (= rank) to token value `x`.
fn expert_transform(expert: usize, x: f64) -> f64 {
    2.0 * x + (expert + 1) as f64
}

/// Initial value of token `i` of `tenant` homed on `rank` — strictly
/// positive so 0.0 can mark padding slots.
fn token_init(tenant: usize, rank: usize, i: usize) -> f64 {
    1.0 + (tenant * 131 + rank * 17 + i) as f64 * 0.25
}

/// Dispatch/combine channel kinds (tag space).
const KIND_DISPATCH: u64 = 0;
const KIND_COMBINE: u64 = 1;

fn tag_of(tenant: usize, kind: u64) -> u64 {
    0x4000 + tenant as u64 * 2 + kind
}

/// Per-(tenant, peer) channel bundle on this rank.
struct PeerChannels {
    peer: usize,
    dispatch_send: MuxChannelId,
    dispatch_recv: MuxChannelId,
    combine_send: MuxChannelId,
    combine_recv: MuxChannelId,
    dispatch_buf_send: Buffer,
    dispatch_buf_recv: Buffer,
    combine_buf_send: Buffer,
    combine_buf_recv: Buffer,
    /// Device prequests of the two send channels.
    dispatch_preq: Option<DevicePrequest>,
    combine_preq: Option<DevicePrequest>,
}

/// Run the MoE cell on this rank. All ranks must call it with identical
/// configuration; the mux admission contract (paired ticks) is satisfied
/// by construction because every rank submits the mirrored channel set.
///
/// The whole cell runs as one future: the rank's thread wakes once, when
/// it completes, not once per admission, barrier, phase or expert charge.
pub fn run_moe(ctx: &mut Ctx, rank: &Rank, cfg: &MoeConfig) -> Result<MoeResult, MpiError> {
    let (p, rank, cfg) = (ctx.proc(), rank.clone(), cfg.clone());
    ctx.block_on(async move { run_moe_async(&p, &rank, &cfg).await })
}

/// The body of [`run_moe`].
async fn run_moe_async(p: &Proc, rank: &Rank, cfg: &MoeConfig) -> Result<MoeResult, MpiError> {
    assert_eq!(cfg.tenant_weights.len(), cfg.tenants, "one weight per tenant");
    let size = rank.size();
    let me = rank.rank();
    let cap = cfg.capacity(size);
    let slot_bytes = cfg.hidden * 8;
    let gpu = rank.gpu();
    // Every mechanism marks readiness from a kernel: the stream is what
    // emits flag writes (PE), kernel copies (KC), or symmetric puts +
    // signals (shmem), so device-level fault schedules meet MoE traffic.
    let stream = gpu.create_stream();

    // ---- Admission: submit every channel, drain ticks until admitted.
    let mut mux = MuxService::new(rank.world(), MuxConfig {
        tenant_weights: cfg.tenant_weights.clone(),
        tick_batch: 256,
        max_in_flight: usize::MAX / 2,
    });
    // Peers in deterministic order; per peer, the four channels of each
    // tenant. Buffer slots are one user partition per token slot.
    let mut bundles: Vec<Vec<PeerChannels>> = Vec::with_capacity(cfg.tenants);
    let mut submitted: Vec<Vec<(usize, [Buffer; 4])>> = Vec::with_capacity(cfg.tenants);
    for t in 0..cfg.tenants {
        let mut per_peer = Vec::new();
        for peer in (0..size).filter(|&p| p != me) {
            let bufs = [
                gpu.alloc_global(cap * slot_bytes),
                gpu.alloc_global(cap * slot_bytes),
                gpu.alloc_global(cap * slot_bytes),
                gpu.alloc_global(cap * slot_bytes),
            ];
            let specs = [
                (tag_of(t, KIND_DISPATCH), Direction::Send),
                (tag_of(t, KIND_DISPATCH), Direction::Recv),
                (tag_of(t, KIND_COMBINE), Direction::Send),
                (tag_of(t, KIND_COMBINE), Direction::Recv),
            ];
            for (i, (tag, direction)) in specs.into_iter().enumerate() {
                mux.submit(
                    ChannelSpec {
                        tenant: t,
                        peer,
                        tag,
                        partitions: cap,
                        partition_bytes: slot_bytes,
                        direction,
                    },
                    bufs[i].clone(),
                )
                .expect("moe submission within caps");
            }
            per_peer.push((peer, bufs));
        }
        submitted.push(per_peer);
    }
    let mut admitted: Vec<MuxChannelId> = Vec::new();
    while mux.pending() > 0 {
        admitted.extend(mux.tick_async(p, rank).await?);
    }
    let channels = admitted.len();

    // Recover the per-(tenant, peer) bundle from the admitted table,
    // indexed once by (tenant, peer, tag, direction).
    let index: FxHashMap<(usize, usize, u64, Direction), MuxChannelId> = admitted
        .iter()
        .map(|&id| {
            let spec = &mux.channel(id).expect("admitted id is live").spec;
            ((spec.tenant, spec.peer, spec.tag, spec.direction), id)
        })
        .collect();
    for (t, per_peer) in submitted.into_iter().enumerate() {
        let mut row = Vec::with_capacity(per_peer.len());
        for (peer, bufs) in per_peer {
            let find = |tag: u64, dir: Direction| -> MuxChannelId {
                *index.get(&(t, peer, tag, dir)).expect("every submitted channel was admitted")
            };
            row.push(PeerChannels {
                peer,
                dispatch_send: find(tag_of(t, KIND_DISPATCH), Direction::Send),
                dispatch_recv: find(tag_of(t, KIND_DISPATCH), Direction::Recv),
                combine_send: find(tag_of(t, KIND_COMBINE), Direction::Send),
                combine_recv: find(tag_of(t, KIND_COMBINE), Direction::Recv),
                dispatch_buf_send: bufs[0].clone(),
                dispatch_buf_recv: bufs[1].clone(),
                combine_buf_send: bufs[2].clone(),
                combine_buf_recv: bufs[3].clone(),
                dispatch_preq: None,
                combine_preq: None,
            });
        }
        bundles.push(row);
    }

    // One device prequest per send channel: dispatch, then combine, per
    // (tenant, peer).
    let want = PrequestConfig {
        copy: cfg.mechanism,
        agg: AggLevel::Block,
        transport_partitions: 1,
        multi_block_counters: true,
    };
    for pc in bundles.iter_mut().flatten() {
        for (id, slot) in
            [(pc.dispatch_send, &mut pc.dispatch_preq), (pc.combine_send, &mut pc.combine_preq)]
        {
            let sreq = mux.channel(id).and_then(|c| c.chan.send().cloned()).expect("send channel");
            *slot = Some(match prequest_create_async(p, rank, &sreq, want).await {
                Ok(preq) => preq,
                // Ineligible route (kernel copy across nodes, shmem on a
                // classic-negotiated channel): progression-engine
                // fallback, same as the Jacobi app.
                Err(_) => prequest_create_async(p, rank, &sreq, PrequestConfig {
                    copy: CopyMechanism::ProgressionEngine,
                    ..want
                })
                .await
                .expect("PE prequest always available"),
            });
        }
    }

    // ---- Token state (functional runs): per tenant, this rank's tokens.
    let mut tokens: Vec<Vec<f64>> = (0..cfg.tenants)
        .map(|t| (0..cfg.tokens_per_rank).map(|i| token_init(t, me, i)).collect())
        .collect();
    // Routing lists are layer-invariant: token -> expert rank.
    let routes: Vec<Vec<usize>> = (0..cfg.tenants)
        .map(|t| {
            (0..cfg.tokens_per_rank).map(|i| route(cfg.seed, t, me, i, size)).collect()
        })
        .collect();
    // Per (tenant, peer-index): the token ids occupying each slot, and the
    // per-tenant overflow (dropped) token ids — both layer-invariant.
    let mut slot_tokens: Vec<Vec<Vec<usize>>> = Vec::with_capacity(cfg.tenants);
    let mut dropped_ids: Vec<Vec<usize>> = Vec::with_capacity(cfg.tenants);
    for t in 0..cfg.tenants {
        let mut per_peer: Vec<Vec<usize>> = vec![Vec::new(); bundles[t].len()];
        let mut dropped = Vec::new();
        for (i, &dest) in routes[t].iter().enumerate() {
            if dest == me {
                continue; // local expert, no wire traffic
            }
            let pi = bundles[t].iter().position(|pc| pc.peer == dest).expect("peer bundle");
            if per_peer[pi].len() < cap {
                per_peer[pi].push(i);
            } else {
                dropped.push(i);
            }
        }
        slot_tokens.push(per_peer);
        dropped_ids.push(dropped);
    }
    let tokens_routed: u64 = slot_tokens
        .iter()
        .map(|pp| pp.iter().map(|s| s.len() as u64).sum::<u64>())
        .sum::<u64>()
        * cfg.layers as u64;
    let tokens_dropped: u64 =
        dropped_ids.iter().map(|d| d.len() as u64).sum::<u64>() * cfg.layers as u64;

    rank.barrier_async(p).await;
    let t0 = p.now();

    // One send staging area, refilled for every channel, and one receive
    // area every channel's inbound slots are read into.
    let mut payload = vec![0.0f64; cap * cfg.hidden];
    let mut inbound = vec![0.0f64; cap * cfg.hidden];
    for _layer in 0..cfg.layers {
        // Dispatch fill: routed token values into their slots, 0 padding.
        if cfg.functional {
            for t in 0..cfg.tenants {
                for (pi, pc) in bundles[t].iter().enumerate() {
                    payload.fill(0.0);
                    for (s, &tok) in slot_tokens[t][pi].iter().enumerate() {
                        for h in 0..cfg.hidden {
                            payload[s * cfg.hidden + h] = tokens[t][tok];
                        }
                    }
                    pc.dispatch_buf_send.write_f64_slice(0, &payload);
                }
            }
        }
        phase_epoch(p, &mut mux, &bundles, Phase::Dispatch, &stream).await?;

        // Expert compute: transform every received token (and this rank's
        // locally-routed tokens), filling the combine send buffers.
        if cfg.functional {
            for t in 0..cfg.tenants {
                for pc in &bundles[t] {
                    pc.dispatch_buf_recv.read_f64_into(0, &mut inbound);
                    payload.fill(0.0);
                    for s in 0..cap {
                        let x = inbound[s * cfg.hidden];
                        if x != 0.0 {
                            let y = expert_transform(me, x);
                            for h in 0..cfg.hidden {
                                payload[s * cfg.hidden + h] = y;
                            }
                        }
                    }
                    pc.combine_buf_send.write_f64_slice(0, &payload);
                }
                for (i, &dest) in routes[t].iter().enumerate() {
                    if dest == me {
                        tokens[t][i] = expert_transform(me, tokens[t][i]);
                    }
                }
            }
        }
        // The expert FFN cost (two GEMMs over the received tokens) — a
        // fixed kernel charge plus a bandwidth term, as in the Jacobi app.
        let expert_tokens = (cfg.tenants * (size - 1) * cap).max(1);
        p.advance(SimDuration::from_micros_f64(
            gpu.cost().kernel_fixed_us
                + (expert_tokens * cfg.hidden * 8) as f64 * 4.0 / (800.0 * 1e3),
        ))
        .await;

        phase_epoch(p, &mut mux, &bundles, Phase::Combine, &stream).await?;

        // Combine unpack: results land back in their home token slots.
        // Dropped tokens keep their residual value. Must complete before
        // the next layer's pbuf_prepare re-arms the channels (the
        // buffer-reuse hazard MPIX_Pbuf_prepare exists to prevent).
        if cfg.functional {
            for t in 0..cfg.tenants {
                for (pi, pc) in bundles[t].iter().enumerate() {
                    pc.combine_buf_recv.read_f64_into(0, &mut inbound);
                    for (s, &tok) in slot_tokens[t][pi].iter().enumerate() {
                        tokens[t][tok] = inbound[s * cfg.hidden];
                    }
                }
            }
        }
    }

    let elapsed = p.now().since(t0);
    let checksum = if cfg.functional {
        tokens.iter().map(|ts| ts.iter().sum::<f64>()).sum()
    } else {
        0.0
    };
    Ok(MoeResult { elapsed, tokens_routed, tokens_dropped, checksum, channels })
}

enum Phase {
    Dispatch,
    Combine,
}

/// One all-to-all epoch over the phase's channels: begin every receive
/// (non-blocking RTR), then one kernel marks every send channel ready
/// from the GPU, then wait sends, then wait receives. Receives are begun
/// first so no rank's send can stall on a peer that is itself stalled
/// sending — the same reply-before-block order the mux tick uses.
async fn phase_epoch(
    p: &Proc,
    mux: &mut MuxService,
    bundles: &[Vec<PeerChannels>],
    phase: Phase,
    stream: &Stream,
) -> Result<(), MpiError> {
    let chans: Vec<(MuxChannelId, MuxChannelId, DevicePrequest)> = bundles
        .iter()
        .flatten()
        .map(|pc| {
            let (rid, sid, preq) = match phase {
                Phase::Dispatch => (pc.dispatch_recv, pc.dispatch_send, &pc.dispatch_preq),
                Phase::Combine => (pc.combine_recv, pc.combine_send, &pc.combine_preq),
            };
            (rid, sid, preq.clone().expect("device prequest"))
        })
        .collect();
    let mut recvs = Vec::with_capacity(chans.len());
    for (rid, _, _) in &chans {
        let chan = mux.begin_epoch_async(p, *rid).await?;
        recvs.push(chan.recv().expect("recv channel").clone());
    }
    let mut preqs = Vec::with_capacity(chans.len());
    let mut waits = Vec::with_capacity(chans.len());
    for (_, sid, preq) in chans {
        let chan = mux.begin_epoch_async(p, sid).await?;
        waits.push((sid, chan.send().expect("send channel").clone()));
        preqs.push(preq);
    }
    let t0 = p.now().as_micros_f64();
    let spec = KernelSpec::new("moe-pready", preqs.len().max(1) as u32, 256);
    let _ = stream
        .launch_async(p, spec, move |d| {
            for preq in &preqs {
                preq.pready_all(d);
            }
        })
        .await;
    for (sid, s) in waits {
        s.wait_async(p).await?;
        let dt = p.now().as_micros_f64() - t0;
        let (tenant, bytes) = {
            let ch = mux.channel(sid).expect("live channel");
            (ch.spec.tenant, ch.spec.bytes())
        };
        mux.record_epoch(tenant, bytes, dt);
    }
    for r in recvs {
        r.wait_async(p).await?;
    }
    Ok(())
}

/// Serial reference: the per-rank checksums `run_moe` would produce on a
/// functional run over `size` ranks, in rank order.
pub fn moe_reference(cfg: &MoeConfig, size: usize) -> Vec<f64> {
    let cap = cfg.capacity(size);
    let mut final_tokens: Vec<Vec<Vec<f64>>> = (0..size)
        .map(|r| {
            (0..cfg.tenants)
                .map(|t| (0..cfg.tokens_per_rank).map(|i| token_init(t, r, i)).collect())
                .collect()
        })
        .collect();
    for _layer in 0..cfg.layers {
        for (r, rank_tokens) in final_tokens.iter_mut().enumerate() {
            for (t, toks) in rank_tokens.iter_mut().enumerate() {
                // Per-destination slot budget, in token order — identical
                // to the distributed router's capacity accounting.
                let mut used = vec![0usize; size];
                for (i, tok) in toks.iter_mut().enumerate() {
                    let dest = route(cfg.seed, t, r, i, size);
                    if dest == r {
                        *tok = expert_transform(dest, *tok);
                    } else if used[dest] < cap {
                        used[dest] += 1;
                        *tok = expert_transform(dest, *tok);
                    }
                    // else: dropped, keeps its residual value
                }
            }
        }
    }
    (0..size)
        .map(|r| final_tokens[r].iter().map(|ts| ts.iter().sum::<f64>()).sum())
        .collect()
}
