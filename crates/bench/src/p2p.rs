//! The shared point-to-point measurement harness. `Pair` runs one
//! partitioned channel between a sender and a receiver rank and times it
//! on the sender, the way the paper measures every point-to-point result
//! (§VI). It serves Fig. 3, the pbench latency, partition-overhead and
//! overlap suites, the mechanism head-to-head and its rkey check, the
//! poll-interval and counter ablations, and the striping cells.
//! [`measure`] adds the traditional kernel + `MPI_Send` baseline and
//! serves Figs. 4/5 and the transport-partition ablation. Table I times
//! `MPI_Psend_init` itself, so it keeps its own channel setup.

use parcomm_core::{
    precv_init, prequest_create, psend_init, CopyMechanism, DevicePrequest, PrecvRequest,
    PrequestConfig, PsendRequest,
};
use parcomm_gpu::{AggLevel, Buffer, KernelSpec};
use parcomm_mpi::{Rank, WorldConfig};
use parcomm_sim::{Ctx, SimReport};

use crate::world::World;

/// A P2P experiment variant.
#[derive(Copy, Clone, Debug)]
pub enum P2pMode {
    /// Kernel → `cudaStreamSynchronize` → `MPI_Send` (Listing 1).
    Traditional,
    /// GPU-initiated partitioned with the given copy mechanism and
    /// transport partition count.
    Partitioned {
        /// Copy mechanism.
        copy: CopyMechanism,
        /// Notification aggregation level.
        agg: AggLevel,
        /// Transport partitions.
        transports: usize,
    },
}

/// Parameters of one measurement.
#[derive(Copy, Clone, Debug)]
pub struct P2pParams {
    /// Cluster nodes (1 = intra-node pair, 2 = inter-node pair).
    pub nodes: u16,
    /// Sender rank.
    pub sender: usize,
    /// Receiver rank.
    pub receiver: usize,
    /// Kernel grid (blocks of 1024 threads; each thread contributes 8 B).
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Measured iterations (averaged).
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl P2pParams {
    /// Bytes moved per iteration.
    pub fn bytes(&self) -> usize {
        self.grid as usize * self.block as usize * 8
    }
}

/// A GH200 world of `nodes` nodes for measuring `mechanism`. The symmetric
/// heap needs the world default set to Shmem, so the channel negotiates
/// symmetric offsets at `pbuf_prepare`; every other mechanism keeps the
/// default negotiation path.
pub(crate) fn world_config(nodes: u16, mechanism: CopyMechanism) -> WorldConfig {
    let mut config = WorldConfig::gh200(nodes);
    if mechanism == CopyMechanism::Shmem {
        config.mechanism = CopyMechanism::Shmem;
    }
    config
}

/// One partitioned channel between two ranks of a fresh world. Each rank
/// of the pair allocates a `bytes` buffer and opens its end; with
/// `align` set, every rank passes one barrier before the first
/// measured epoch.
#[derive(Clone, Debug)]
pub(crate) struct Pair {
    /// The world the pair runs in.
    pub(crate) config: WorldConfig,
    /// Simulation seed.
    pub(crate) seed: u64,
    /// Sender rank.
    pub(crate) sender: usize,
    /// Receiver rank.
    pub(crate) receiver: usize,
    /// Message tag.
    pub(crate) tag: u64,
    /// User partitions.
    pub(crate) partitions: usize,
    /// Buffer bytes on each end.
    pub(crate) bytes: usize,
    /// Transport partitions set on the send end before its first epoch
    /// (host-driven channels); `None` keeps the channel default.
    pub(crate) transports: Option<usize>,
    /// Device-initiated channels: the `MPIX_Prequest_create` config, applied
    /// after the first `MPIX_Pbuf_prepare`.
    pub(crate) device: Option<PrequestConfig>,
    /// Epochs run by both ends.
    pub(crate) epochs: usize,
    /// Barrier on every rank once the channel is open, so the first
    /// measured epoch starts aligned.
    pub(crate) align: bool,
}

impl Pair {
    /// A one-epoch, host-driven, unaligned pair.
    pub(crate) fn new(
        config: WorldConfig,
        seed: u64,
        (sender, receiver): (usize, usize),
        tag: u64,
        partitions: usize,
        bytes: usize,
    ) -> Pair {
        Pair {
            config,
            seed,
            sender,
            receiver,
            tag,
            partitions,
            bytes,
            transports: None,
            device: None,
            epochs: 1,
            align: false,
        }
    }

    /// Open the channel, run the receiver's epochs, and return what the
    /// sender's `body` measures. The channel opens on both ends with
    /// `MPI_Start` + `MPIX_Pbuf_prepare`; a device pair then creates its
    /// prequest. Between the receiver's epochs the epoch re-opens.
    pub(crate) fn measure<F>(&self, body: F) -> f64
    where
        F: Fn(&mut Ctx, &Rank, &Sender) -> f64 + Send + Sync + 'static,
    {
        self.measure_in(self.world(), body)
    }

    /// A fresh world of this pair's config and seed.
    pub(crate) fn world(&self) -> World {
        World::new(self.seed, self.config.clone())
    }

    /// [`Pair::measure`] on a [`Pair::world`] the caller has set up further,
    /// for example to read its metrics after the run.
    pub(crate) fn measure_in<F>(&self, world: World, body: F) -> f64
    where
        F: Fn(&mut Ctx, &Rank, &Sender) -> f64 + Send + Sync + 'static,
    {
        let (s, r) = (self.clone(), self.clone());
        let send = move |ctx: &mut Ctx, rank: &Rank, req: PsendRequest, _: &Buffer| {
            if let Some(t) = s.transports {
                req.set_transport_partitions(t).expect("set_transport_partitions");
            }
            req.start(ctx).expect("start");
            req.pbuf_prepare(ctx).expect("pbuf_prepare");
            let device = s.device.map(|want| {
                // A route that forbids symmetric access demotes a shmem
                // channel to the Progression Engine at negotiation; measure
                // that fallback.
                let copy = match want.copy {
                    CopyMechanism::Shmem if !req.shmem_active() => {
                        CopyMechanism::ProgressionEngine
                    }
                    copy => copy,
                };
                prequest_create(ctx, rank, &req, PrequestConfig { copy, ..want })
                    .expect("prequest_create")
            });
            if s.align {
                rank.barrier(ctx);
            }
            body(ctx, rank, &Sender { req, device, partitions: s.partitions, epochs: s.epochs })
        };
        let recv = move |ctx: &mut Ctx, rank: &Rank, req: PrecvRequest, _: &Buffer| {
            req.start(ctx).expect("start");
            req.pbuf_prepare(ctx).expect("pbuf_prepare");
            if r.align {
                rank.barrier(ctx);
            }
            for it in 0..r.epochs {
                req.wait(ctx).expect("wait");
                if it + 1 < r.epochs {
                    req.start(ctx).expect("start");
                    req.pbuf_prepare(ctx).expect("pbuf_prepare");
                }
            }
        };
        self.run_in(world, send, recv).0
    }

    /// The pair with bodies of the caller's own on both ends: each end gets
    /// its freshly initialised request and its buffer; everything after
    /// `MPI_Psend_init`/`MPI_Precv_init` is up to the bodies, including the
    /// barrier when [`Pair::align`] is set. Returns the sender's result and
    /// the simulation report.
    pub(crate) fn run_in<T, S, R>(&self, world: World, send: S, recv: R) -> (T, SimReport)
    where
        T: Send + 'static,
        S: Fn(&mut Ctx, &Rank, PsendRequest, &Buffer) -> T + Send + Sync + 'static,
        R: Fn(&mut Ctx, &Rank, PrecvRequest, &Buffer) + Send + Sync + 'static,
    {
        let p = self.clone();
        let (mut sent, report) = world
            .try_run(move |ctx, rank| {
                let me = rank.rank();
                if me != p.sender && me != p.receiver {
                    if p.align {
                        rank.barrier(ctx);
                    }
                    return None;
                }
                let buf = rank.gpu().alloc_global(p.bytes);
                if me == p.sender {
                    let req = psend_init(ctx, rank, p.receiver, p.tag, &buf, p.partitions)
                        .expect("psend_init");
                    Some(send(ctx, rank, req, &buf))
                } else {
                    let req = precv_init(ctx, rank, p.sender, p.tag, &buf, p.partitions)
                        .expect("precv_init");
                    recv(ctx, rank, req, &buf);
                    None
                }
            })
            .unwrap_or_else(|e| panic!("partitioned pair: {e:?}"));
        (sent.pop().expect("the sender reports"), report)
    }
}

/// The send end of an open [`Pair`], handed to the sender's body.
pub(crate) struct Sender {
    req: PsendRequest,
    device: Option<DevicePrequest>,
    partitions: usize,
    epochs: usize,
}

impl Sender {
    /// Mean µs per epoch of `kick` followed by `MPI_Wait`, over the pair's
    /// epochs. Per the paper, the measured region is "the time to execute
    /// the equivalent of Kernel_B and MPI_Wait": the epoch re-open
    /// (`MPI_Start` + `MPIX_Pbuf_prepare`) between epochs falls outside the
    /// timer.
    fn timed(&self, ctx: &mut Ctx, mut kick: impl FnMut(&mut Ctx)) -> f64 {
        let mut total = 0.0;
        for it in 0..self.epochs {
            let t0 = ctx.now();
            kick(ctx);
            self.req.wait(ctx).expect("wait");
            total += ctx.now().since(t0).as_micros_f64();
            if it + 1 < self.epochs {
                self.req.start(ctx).expect("start");
                self.req.pbuf_prepare(ctx).expect("pbuf_prepare");
            }
        }
        total / self.epochs as f64
    }

    /// [`Sender::timed`] epochs in which the host marks every partition
    /// ready with `MPI_Pready`.
    pub(crate) fn host_epochs(&self, ctx: &mut Ctx) -> f64 {
        self.timed(ctx, |ctx| {
            for u in 0..self.partitions {
                self.req.pready(ctx, u).expect("pready");
            }
        })
    }

    /// [`Sender::timed`] epochs that each launch `kernel`, whose threads
    /// mark the partitions ready: all at kernel end, or each as it
    /// completes when `progressive` (Listing 2, transfers overlapping the
    /// kernel).
    pub(crate) fn kernel_epochs(
        &self,
        ctx: &mut Ctx,
        rank: &Rank,
        kernel: &KernelSpec,
        progressive: bool,
    ) -> f64 {
        let preq = self.prequest();
        let stream = rank.gpu().create_stream();
        self.timed(ctx, |ctx| {
            let p = preq.clone();
            stream.launch(ctx, kernel.clone(), move |d| {
                if progressive {
                    p.pready_all_progressive(d);
                } else {
                    p.pready_all(d);
                }
            });
        })
    }

    fn prequest(&self) -> DevicePrequest {
        self.device.clone().expect("a device pair has a prequest")
    }
}

/// Kernel execution-time extension caused by the device `MPIX_Pready`, on
/// an intra-node pair with one user partition per thread of `kernel` and
/// one Progression-Engine transport partition: `kernel` runs once without
/// the call and once with it, then the epoch completes with `MPI_Wait`.
pub(crate) fn pready_extension_us(
    seed: u64,
    tag: u64,
    kernel: KernelSpec,
    agg: AggLevel,
    multi_block_counters: bool,
) -> f64 {
    let parts = kernel.threads() as usize;
    let pair = Pair {
        device: Some(PrequestConfig {
            copy: CopyMechanism::ProgressionEngine,
            agg,
            transport_partitions: 1,
            multi_block_counters,
        }),
        ..Pair::new(WorldConfig::gh200(1), seed, (0, 1), tag, parts, parts * 8)
    };
    pair.measure(move |ctx, rank, tx| {
        let preq = tx.prequest();
        let stream = rank.gpu().create_stream();
        let plain = stream.launch(ctx, kernel.clone(), |_| {});
        plain.wait(ctx);
        let with = stream.launch(ctx, kernel.clone(), move |d| preq.pready_all(d));
        with.wait(ctx);
        tx.req.wait(ctx).expect("wait");
        with.duration().as_micros_f64() - plain.duration().as_micros_f64()
    })
}

/// Run the measurement; returns mean sender-side elapsed µs per iteration
/// (compute + communication, per the paper's Goodput definition).
pub fn measure(params: P2pParams, mode: P2pMode) -> f64 {
    let bytes = params.bytes().max(8);
    let kernel = KernelSpec::vector_add(params.grid, params.block);
    let (sender, receiver, iters) = (params.sender, params.receiver, params.iters);
    let P2pMode::Partitioned { copy, agg, transports } = mode else {
        let world = World::gh200(params.seed, params.nodes);
        return world.run("p2p measurement", move |ctx, rank| {
            let me = rank.rank();
            if me == sender {
                let buf = rank.gpu().alloc_global(bytes);
                let stream = rank.gpu().create_stream();
                rank.barrier(ctx);
                let t0 = ctx.now();
                for _ in 0..iters {
                    stream.launch(ctx, kernel.clone(), |_| {});
                    stream.synchronize(ctx);
                    rank.send(ctx, receiver, 7, &buf, 0, bytes);
                }
                return Some(ctx.now().since(t0).as_micros_f64() / iters as f64);
            }
            if me == receiver {
                let buf = rank.gpu().alloc_global(bytes);
                rank.barrier(ctx);
                for _ in 0..iters {
                    rank.recv(ctx, sender, 7, &buf, 0, bytes);
                }
            } else {
                rank.barrier(ctx);
            }
            None
        });
    };
    // Threads map 1:1 to user partitions (each thread contributes 8 B).
    // Beyond 64K threads the per-partition bookkeeping itself would
    // dominate simulation memory, so user partitions drop to block
    // granularity — the paper's own recommendation ("MPI should aggregate
    // to the block level internally") applied at the source.
    let threads = (params.grid as usize * params.block as usize).max(1);
    let parts = if threads <= 65_536 { threads } else { params.grid as usize };
    let pair = Pair {
        device: Some(PrequestConfig {
            copy,
            agg,
            transport_partitions: transports.min(parts),
            multi_block_counters: true,
        }),
        epochs: iters,
        align: true,
        ..Pair::new(
            world_config(params.nodes, copy),
            params.seed,
            (sender, receiver),
            7,
            parts,
            bytes,
        )
    };
    pair.measure(move |ctx, rank, tx| tx.kernel_epochs(ctx, rank, &kernel, true))
}

/// Goodput in GB/s for `bytes` processed in `elapsed_us`.
pub fn goodput_gbps(bytes: usize, elapsed_us: f64) -> f64 {
    bytes as f64 / (elapsed_us * 1e3)
}
