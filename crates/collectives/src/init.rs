//! The `MPIX_P<collective>_init` functions.
//!
//! The MPI Forum proposals list 21+ collectives that libraries would have
//! to implement; the paper's answer is the generic schedule (§IV-B1). Each
//! init function here only chooses this rank's [`Schedule`]; all of them
//! return the same [`PcollRequest`], progressed by the same Algorithm 2
//! executor with the same `init → start → pbuf_prepare → pready → wait`
//! control flow and device bindings. The allreduce uses the ring
//! reduce-scatter-allgather algorithm, as in the paper's evaluation (§VI-B:
//! "the Ring algorithm is used in all cases, as this algorithm is important
//! in Machine Learning contexts"); allgather and reduce-scatter reuse its
//! halves, gather and scatter use chain schedules toward/from a root.

use parcomm_gpu::{Buffer, Stream};
use parcomm_mpi::{MpiError, Rank};
use parcomm_sim::Ctx;

use crate::engine::PcollRequest;
use crate::schedule::Schedule;

/// Charge the extra `MPIX_P<collective>_init` cost on top of the
/// constituent point-to-point inits (Table I), then build the request.
fn init(
    ctx: &mut Ctx,
    rank: &Rank,
    schedule: Schedule,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let o = parcomm_core::ApiOverheads::default().pcoll_init_extra;
    ctx.advance(ctx.jitter_us(o.mean_us, o.sd_us));
    PcollRequest::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Pallreduce_init`: a persistent partitioned allreduce on the ring
/// schedule.
///
/// Sum-reduces `user_partitions × chunks` f64 elements in place across all
/// ranks of the world, pipelined per user partition. `buffer`'s byte
/// length must divide into `user_partitions × world_size` equal chunks.
/// The reduction kernels run on `stream`.
pub fn pallreduce_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::ring_allreduce(rank.rank(), rank.size());
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Pallreduce_init` with the node-aware hierarchical ring schedule
/// ([`Schedule::hierarchical_ring_allreduce`]): intra-node NVLink
/// reduce-scatter → inter-node rail-ring allreduce → intra-node allgather.
/// Identical surface and chunking contract to [`pallreduce_init`] (the
/// buffer divides into `user_partitions × world_size` chunks); on one node
/// the schedule — and therefore the run — is identical to the flat ring.
pub fn pallreduce_init_hierarchical(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::hierarchical_ring_allreduce(rank.rank(), &rank.topology());
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Pbcast_init`: a persistent partitioned broadcast from `root`, on
/// a binomial tree of NOP steps — the schedule's algorithm independence (a
/// bcast has no reduction, hence no in-collective stream synchronization).
/// On the root, `pready` marks a partition's payload complete; on other
/// ranks it activates the partition's forwarding schedule.
pub fn pbcast_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    root: usize,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::tree_bcast(rank.rank(), rank.size(), root);
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Pallgather_init`: partitioned ring allgather. Rank `r`
/// contributes chunk `r` of each user partition region; after the
/// collective every rank holds all `P` chunks.
pub fn pallgather_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::ring_allgather(rank.rank(), rank.size());
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Preduce_scatter_init`: partitioned ring reduce-scatter, the
/// reduce-scatter half of Algorithm 1. After completion rank `r` owns the
/// fully reduced chunk `(r + 1) mod P` of each user partition region
/// (other chunks hold intermediate partial sums, as with in-place ring
/// implementations).
pub fn preduce_scatter_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::ring_reduce_scatter(rank.rank(), rank.size());
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Pgather_init`: partitioned chain gather. After the collective
/// `root` holds chunk `r` from every rank `r`; non-root buffers are
/// forwarding scratch.
pub fn pgather_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    root: usize,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::chain_gather(rank.rank(), rank.size(), root);
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Palltoall_init`: partitioned pairwise alltoall. Chunk `d` of
/// each partition region is delivered to rank `d`; afterwards chunk `s`
/// holds rank `s`'s contribution for this rank.
pub fn palltoall_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::pairwise_alltoall(rank.rank(), rank.size());
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}

/// `MPIX_Pscatter_init`: partitioned chain scatter. `root`'s chunk `r`
/// reaches rank `r`.
pub fn pscatter_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    root: usize,
    tag: u64,
) -> Result<PcollRequest, MpiError> {
    let schedule = Schedule::chain_scatter(rank.rank(), rank.size(), root);
    init(ctx, rank, schedule, buffer, user_partitions, stream, tag)
}
