//! The generic partitioned-collective schedule (paper §IV-B1).
//!
//! A collective is compiled at init time into a series of steps
//! `S_i = (I, R, ⊕, O, A)`:
//!
//! - `I` — incoming neighbor ranks for the step,
//! - `R` — the `MPI_Pready` chunk offset (which chunk of the buffer this
//!   rank forwards during the step),
//! - `⊕` — the reduction operation to apply to arriving data (or NOP),
//! - `O` — outgoing neighbor ranks,
//! - `A` — the `MPI_Parrived` chunk offset (which chunk arrives).
//!
//! One schedule is built per rank; every partition executes the schedule
//! independently, carrying its own per-partition state (paper: "while a
//! single schedule is created, each partition independently executes that
//! schedule"). The builders below generate ring reduce-scatter-allgather
//! (Algorithm 1), binomial-tree broadcast, and ring reduce-scatter — all on
//! the same executor.

use parcomm_net::Topology;

/// The reduction op for a step.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StepOp {
    /// No computation this step (pure forwarding, e.g. allgather phase or
    /// any broadcast step).
    Nop,
    /// Sum-reduce arriving data into the local buffer (`MPI_SUM`; the only
    /// `MPI_Op` the evaluation uses, as in the paper's DL workloads).
    Sum,
}

/// One schedule step `S_i = (I, R, ⊕, O, A)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Incoming neighbors (ranks this step receives from).
    pub incoming: Vec<usize>,
    /// `MPI_Pready` offset: the chunk index this rank sends this step.
    pub ready_offset: usize,
    /// The operation applied to arriving data.
    pub op: StepOp,
    /// Outgoing neighbors (ranks this step sends to).
    pub outgoing: Vec<usize>,
    /// `MPI_Parrived` offset: the chunk index that arrives this step.
    pub arrived_offset: usize,
    /// Stage-and-send at partition activation instead of step entry. Valid
    /// only when the outgoing chunk carries *epoch-original* data (no
    /// dependency on earlier arrivals): pipelining algorithms (rings,
    /// trees) forward received data and must stage on entry, while
    /// alltoall-style direct exchanges send original chunks that in-place
    /// arrivals would otherwise clobber.
    pub early_stage: bool,
}

/// A full schedule for one rank.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The steps, executed in order (independently per partition).
    pub steps: Vec<Step>,
    /// Number of buffer chunks the offsets index into (== communicator
    /// size for the ring algorithms).
    pub chunks: usize,
}

impl Schedule {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the schedule has no steps (single-rank collectives).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Algorithm 1: ring-based reduce-scatter-allgather allreduce schedule
    /// for `rank` of `p` ranks. `2(P-1)` steps: the first `P-1` carry the
    /// reduction op (reduce-scatter), the rest are NOPs (allgather).
    pub fn ring_allreduce(rank: usize, p: usize) -> Schedule {
        assert!(p >= 1 && rank < p);
        let mut steps = Vec::new();
        if p > 1 {
            for i in 0..2 * (p - 1) {
                let incoming = vec![(rank + p - 1) % p];
                let outgoing = vec![(rank + 1) % p];
                let ready_offset = (rank + 2 * p - i) % p;
                let arrived_offset = (rank + 2 * p - i - 1) % p;
                let op = if i < p - 1 { StepOp::Sum } else { StepOp::Nop };
                steps.push(Step { incoming, ready_offset, op, outgoing, arrived_offset, early_stage: false });
            }
        }
        Schedule { steps, chunks: p }
    }

    /// Node-aware hierarchical ring allreduce for `rank` in `topo`'s world:
    /// intra-node ring reduce-scatter over NVLink → inter-node ring
    /// allreduce over the NIC-rail-aligned rings → intra-node ring
    /// allgather. Same algebra, same executor as the flat ring — only the
    /// step list differs.
    ///
    /// The core ring width is `S = min_local_size()` — on uniform shapes
    /// the full per-node rank count `G·o`, on ragged shapes the smallest
    /// node's. The buffer is cut into `chunks = N·S` pieces indexed
    /// `c = shard·N + sub_chunk`: shard `s ∈ [0, S)` is the slice the
    /// node-local ring scatters to core local rank `(s − 1) mod S`, and
    /// its `N` sub-chunks are what the inter-node ring pipelines. Core
    /// local rank `l` ends phase A owning shard `(l + 1) mod S`
    /// node-reduced; phase B allreduces that shard across nodes on the
    /// ring of same-local-index ranks — `S` concurrent rings spread over
    /// the NIC rails, so only `2(N−1)` (vs the flat ring's `2(N·S−1)`)
    /// steps cross the IB boundary; phase C allgathers shards back over
    /// NVLink.
    ///
    /// **Ragged degradation.** Nodes wider than `S` carry *surplus* local
    /// ranks (`l ≥ S`). Each folds onto core partner `l mod S` on its own
    /// node: a pre-phase streams every chunk of the surplus rank into the
    /// partner's buffer (summed), and a mirrored post-phase streams the
    /// finished results back. Inter-node rail rings therefore run only
    /// over local indices every node owns, and surplus ranks never cross
    /// the IB boundary. Uniform shapes have no surplus, so their step
    /// lists are bit-identical to the pre-ragged builder — the frozen
    /// digests pin this.
    ///
    /// Degenerates to exactly [`Schedule::ring_allreduce`] at `N == 1`,
    /// and to a flat inter-node ring at `S == 1` on uniform 1-GPU nodes.
    pub fn hierarchical_ring_allreduce(rank: usize, topo: &Topology) -> Schedule {
        let p = topo.num_ranks();
        assert!(rank < p);
        let n = topo.nodes() as usize;
        let s_core = topo.min_local_size();
        let chunks = s_core * n;
        let l = topo.local_rank(rank);
        let node = topo.node_of(rank);
        let base = topo.node_leader(node);
        let node = node as usize;
        let my_width = topo.local_size(node as u16);
        // True when any node carries surplus ranks (p == chunks iff the
        // shape is uniform in local width).
        let folded = p > chunks;
        let mut steps = Vec::new();
        if p > 1 {
            let idle = |steps: &mut Vec<Step>, count: usize| {
                for _ in 0..count {
                    steps.push(Step {
                        incoming: Vec::new(),
                        ready_offset: 0,
                        op: StepOp::Nop,
                        outgoing: Vec::new(),
                        arrived_offset: 0,
                        early_stage: false,
                    });
                }
            };
            // Surplus ranks folding onto this rank (core side), ascending.
            let my_surplus: Vec<usize> = if l < s_core {
                (s_core..my_width).filter(|j| j % s_core == l).map(|j| base + j).collect()
            } else {
                Vec::new()
            };
            // Fold pre-phase — surplus ranks stream every chunk into their
            // core partner, summed, before the core phases read it.
            if folded {
                for c in 0..chunks {
                    if l >= s_core {
                        steps.push(Step {
                            incoming: Vec::new(),
                            ready_offset: c,
                            op: StepOp::Sum,
                            outgoing: vec![base + l % s_core],
                            arrived_offset: c,
                            early_stage: false,
                        });
                    } else if !my_surplus.is_empty() {
                        steps.push(Step {
                            incoming: my_surplus.clone(),
                            ready_offset: c,
                            op: StepOp::Sum,
                            outgoing: Vec::new(),
                            arrived_offset: c,
                            early_stage: false,
                        });
                    } else {
                        idle(&mut steps, 1);
                    }
                }
            }
            if l < s_core {
                // Core ring neighbors: over the first S local ranks of the
                // node (the full node width on uniform shapes, where this
                // is the whole node-local ring).
                let core_prev = base + (l + s_core - 1) % s_core;
                let core_next = base + (l + 1) % s_core;
                // Phase A — intra-node ring reduce-scatter over shards,
                // each round expanded to the shard's N sub-chunks so phase
                // B can pipeline them without re-chunking.
                for i in 0..s_core.saturating_sub(1) {
                    let send_shard = (l + 2 * s_core - i) % s_core;
                    let recv_shard = (l + 2 * s_core - i - 1) % s_core;
                    for m in 0..n {
                        steps.push(Step {
                            incoming: vec![core_prev],
                            ready_offset: send_shard * n + m,
                            op: StepOp::Sum,
                            outgoing: vec![core_next],
                            arrived_offset: recv_shard * n + m,
                            early_stage: false,
                        });
                    }
                }
                // Phase B — inter-node ring allreduce of the owned shard
                // over the rail ring (same local index on every node; all
                // nodes own indices below S).
                let shard = (l + 1) % s_core;
                let rail_prev = topo.rail_prev(rank);
                let rail_next = topo.rail_next(rank);
                for i in 0..2 * n.saturating_sub(1) {
                    let send_m = (node + 2 * n - i) % n;
                    let recv_m = (node + 2 * n - i - 1) % n;
                    let op = if i < n - 1 { StepOp::Sum } else { StepOp::Nop };
                    steps.push(Step {
                        incoming: vec![rail_prev],
                        ready_offset: shard * n + send_m,
                        op,
                        outgoing: vec![rail_next],
                        arrived_offset: shard * n + recv_m,
                        early_stage: false,
                    });
                }
                // Phase C — intra-node ring allgather of the now globally
                // reduced shards (the flat ring's NOP half, shard-expanded).
                for i in s_core.saturating_sub(1)..2 * s_core.saturating_sub(1) {
                    let send_shard = (l + 2 * s_core - i) % s_core;
                    let recv_shard = (l + 2 * s_core - i - 1) % s_core;
                    for m in 0..n {
                        steps.push(Step {
                            incoming: vec![core_prev],
                            ready_offset: send_shard * n + m,
                            op: StepOp::Nop,
                            outgoing: vec![core_next],
                            arrived_offset: recv_shard * n + m,
                            early_stage: false,
                        });
                    }
                }
            } else {
                // Surplus ranks idle through the core phases.
                idle(
                    &mut steps,
                    2 * s_core.saturating_sub(1) * n + 2 * n.saturating_sub(1),
                );
            }
            // Unfold post-phase — core partners stream the finished chunks
            // back to their surplus ranks.
            if folded {
                for c in 0..chunks {
                    if l >= s_core {
                        steps.push(Step {
                            incoming: vec![base + l % s_core],
                            ready_offset: c,
                            op: StepOp::Nop,
                            outgoing: Vec::new(),
                            arrived_offset: c,
                            early_stage: false,
                        });
                    } else if !my_surplus.is_empty() {
                        steps.push(Step {
                            incoming: Vec::new(),
                            ready_offset: c,
                            op: StepOp::Nop,
                            outgoing: my_surplus.clone(),
                            arrived_offset: c,
                            early_stage: false,
                        });
                    } else {
                        idle(&mut steps, 1);
                    }
                }
            }
        }
        Schedule { steps, chunks }
    }

    /// Binomial-tree broadcast schedule rooted at `root`: all NOP steps.
    /// Step `i` has rank pairs at distance `2^(ceil(log2 p) - 1 - i)`.
    /// Every rank gets the same number of steps (idle steps have empty
    /// neighbor sets) so partitions progress uniformly.
    pub fn tree_bcast(rank: usize, p: usize, root: usize) -> Schedule {
        assert!(p >= 1 && rank < p && root < p);
        // Work in the rotated space where the root is rank 0.
        let vrank = (rank + p - root) % p;
        let rounds = (p as u64).next_power_of_two().trailing_zeros() as usize;
        let mut steps = Vec::new();
        for i in 0..rounds {
            // Round i doubles the informed set: ranks 0..2^i send to
            // ranks 2^i..2^(i+1) (virtual-rank space).
            let dist = 1usize << i;
            let mut incoming = Vec::new();
            let mut outgoing = Vec::new();
            if vrank < dist {
                // A sender this round, if the partner exists.
                let partner = vrank + dist;
                if partner < p {
                    outgoing.push((partner + root) % p);
                }
            } else if vrank < 2 * dist {
                let partner = vrank - dist;
                incoming.push((partner + root) % p);
            }
            steps.push(Step {
                incoming,
                ready_offset: 0,
                op: StepOp::Nop,
                outgoing,
                arrived_offset: 0,
                early_stage: false,
            });
        }
        Schedule { steps, chunks: 1 }
    }

    /// Ring reduce-scatter schedule: the first half of Algorithm 1. After
    /// completion, rank `r` owns the fully reduced chunk `(r + 1) mod p`.
    pub fn ring_reduce_scatter(rank: usize, p: usize) -> Schedule {
        let full = Schedule::ring_allreduce(rank, p);
        let keep = p.saturating_sub(1);
        Schedule { steps: full.steps.into_iter().take(keep).collect(), chunks: p }
    }

    /// Ring allgather schedule: the second half of Algorithm 1 on its own.
    /// Rank `r` starts owning chunk `r`; after `P−1` NOP steps every rank
    /// holds every chunk.
    pub fn ring_allgather(rank: usize, p: usize) -> Schedule {
        assert!(p >= 1 && rank < p);
        let mut steps = Vec::new();
        if p > 1 {
            for i in 0..p - 1 {
                steps.push(Step {
                    incoming: vec![(rank + p - 1) % p],
                    ready_offset: (rank + p - i) % p,
                    op: StepOp::Nop,
                    outgoing: vec![(rank + 1) % p],
                    arrived_offset: (rank + 2 * p - i - 1) % p,
                    early_stage: false,
                });
            }
        }
        Schedule { steps, chunks: p }
    }

    /// Chain gather toward `root`: every rank forwards chunks one hop
    /// closer to the root along the ring (rank `r` sends to `r − 1`);
    /// after `P−1` steps the root holds every rank's chunk. Only the
    /// root's buffer is meaningful afterwards, matching `MPI_Gather`
    /// semantics with in-place chunked buffers.
    pub fn chain_gather(rank: usize, p: usize, root: usize) -> Schedule {
        assert!(p >= 1 && rank < p && root < p);
        let mut steps = Vec::new();
        if p > 1 {
            // Distance from the root along the chain (root = 0).
            let d = (rank + p - root) % p;
            let left = (rank + p - 1) % p;
            let right = (rank + 1) % p;
            for i in 0..p - 1 {
                // Rank at distance d forwards its own chunk (step 0) and
                // the P−1−d chunks arriving from its right neighbor.
                let sends = d != 0 && i < p - d;
                let receives = (d != 0 && i < p - 1 - d) || (d == 0 && i < p - 1);
                steps.push(Step {
                    incoming: if receives { vec![right] } else { Vec::new() },
                    ready_offset: (rank + i) % p,
                    op: StepOp::Nop,
                    outgoing: if sends { vec![left] } else { Vec::new() },
                    arrived_offset: (rank + 1 + i) % p,
                    early_stage: false,
                });
            }
        }
        Schedule { steps, chunks: p }
    }

    /// Pairwise-exchange alltoall: at step `i` (1-based), rank `r` sends
    /// its chunk for rank `(r + i) mod p` directly to that rank and
    /// receives its own chunk from `(r − i) mod p` — every step uses a
    /// *different* neighbor pair, exercising the schedule's generality.
    /// After `p − 1` steps, chunk `s` of the buffer holds what rank `s`
    /// sent to this rank (chunk `r` is the local contribution, untouched).
    pub fn pairwise_alltoall(rank: usize, p: usize) -> Schedule {
        assert!(p >= 1 && rank < p);
        let mut steps = Vec::new();
        if p > 1 {
            for i in 1..p {
                let to = (rank + i) % p;
                let from = (rank + p - i) % p;
                steps.push(Step {
                    incoming: vec![from],
                    ready_offset: to,
                    op: StepOp::Nop,
                    outgoing: vec![to],
                    arrived_offset: from,
                    // Direct exchange of original chunks: stage at
                    // activation, before in-place arrivals clobber them.
                    early_stage: true,
                });
            }
        }
        Schedule { steps, chunks: p }
    }

    /// Chain scatter from `root`: the mirror of [`Schedule::chain_gather`] — the
    /// root emits the chunk for the most distant rank first; every rank
    /// keeps its own chunk and forwards the rest one hop onward.
    pub fn chain_scatter(rank: usize, p: usize, root: usize) -> Schedule {
        assert!(p >= 1 && rank < p && root < p);
        let mut steps: Vec<Step> = Vec::new();
        if p > 1 {
            let d = (rank + p - root) % p;
            let left = (rank + p - 1) % p;
            let right = (rank + 1) % p;
            for i in 0..p - 1 {
                steps.push(Step {
                    incoming: Vec::new(),
                    ready_offset: 0,
                    op: StepOp::Nop,
                    outgoing: Vec::new(),
                    arrived_offset: 0,
                    early_stage: false,
                });
                let _ = i;
            }
            if d == 0 {
                // Root sends the chunk for distance t = P−1−i at step i.
                for (i, step) in steps.iter_mut().enumerate() {
                    let t = p - 1 - i;
                    step.outgoing = vec![right];
                    step.ready_offset = (root + t) % p;
                }
            } else {
                // Chunk for distance t (t ≥ d) arrives at this rank at
                // step P−1−t+d−1, and is forwarded one step later when
                // t > d.
                for t in (d..p).rev() {
                    let s_a = p + d - t - 2;
                    steps[s_a].incoming = vec![left];
                    steps[s_a].arrived_offset = (root + t) % p;
                    if t > d {
                        let s_f = s_a + 1;
                        steps[s_f].outgoing = vec![right];
                        steps[s_f].ready_offset = (root + t) % p;
                    }
                }
            }
        }
        Schedule { steps, chunks: p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm_gpu::Unit;

    #[test]
    fn ring_allreduce_step_count_and_ops() {
        for p in [2usize, 4, 8] {
            for r in 0..p {
                let s = Schedule::ring_allreduce(r, p);
                assert_eq!(s.len(), 2 * (p - 1));
                for (i, step) in s.steps.iter().enumerate() {
                    assert_eq!(step.op == StepOp::Sum, i < p - 1, "p={p} r={r} i={i}");
                    assert_eq!(step.incoming, vec![(r + p - 1) % p]);
                    assert_eq!(step.outgoing, vec![(r + 1) % p]);
                }
            }
        }
    }

    #[test]
    fn ring_offsets_chain_between_neighbors() {
        // What rank r sends at step i (ready_offset) must be what rank r+1
        // sees arrive at step i (arrived_offset).
        let p = 8;
        for i in 0..2 * (p - 1) {
            for r in 0..p {
                let s_r = Schedule::ring_allreduce(r, p);
                let s_next = Schedule::ring_allreduce((r + 1) % p, p);
                assert_eq!(
                    s_r.steps[i].ready_offset, s_next.steps[i].arrived_offset,
                    "p={p} r={r} i={i}"
                );
            }
        }
    }

    #[test]
    fn ring_reduce_scatter_accumulates_every_chunk_once_per_step() {
        // In each reduce-scatter step, the arriving chunk indices across
        // ranks form a permutation (each chunk is being reduced somewhere).
        let p = 4;
        for i in 0..p - 1 {
            let mut seen: Vec<usize> =
                (0..p).map(|r| Schedule::ring_allreduce(r, p).steps[i].arrived_offset).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..p).collect::<Vec<_>>(), "step {i}");
        }
    }

    #[test]
    fn single_rank_schedules_are_empty() {
        assert!(Schedule::ring_allreduce(0, 1).is_empty());
        assert_eq!(Schedule::tree_bcast(0, 1, 0).len(), 0);
    }

    #[test]
    fn tree_bcast_reaches_everyone_exactly_once() {
        for p in [2usize, 3, 4, 7, 8] {
            for root in [0usize, p / 2] {
                let schedules: Vec<Schedule> =
                    (0..p).map(|r| Schedule::tree_bcast(r, p, root)).collect();
                let mut have: Vec<bool> = (0..p).map(|r| r == root).collect();
                let rounds = schedules[0].len();
                for i in 0..rounds {
                    let mut new_have = have.clone();
                    for r in 0..p {
                        for &dst in &schedules[r].steps[i].outgoing {
                            assert!(have[r], "p={p} root={root}: rank {r} sends before it has data");
                            assert!(!have[dst] || dst == root, "duplicate delivery to {dst}");
                            new_have[dst] = true;
                        }
                        for &src in &schedules[r].steps[i].incoming {
                            // Symmetry: src must list us as outgoing.
                            assert!(schedules[src].steps[i].outgoing.contains(&r));
                        }
                    }
                    have = new_have;
                }
                assert!(have.iter().all(|&b| b), "p={p} root={root}: all ranks reached");
            }
        }
    }

    fn topo(n: u16, g: u8) -> Topology {
        Topology::new(n, g, g.min(4)).expect("valid topology")
    }

    /// Interpret a set of per-rank schedules synchronously on integer chunk
    /// values and check every rank ends with the full sum of every chunk.
    fn simulate_allreduce(schedules: &[Schedule]) {
        let p = schedules.len();
        let chunks = schedules[0].chunks;
        assert!(schedules.iter().all(|s| s.chunks == chunks), "chunks must agree across ranks");
        let steps = schedules[0].len();
        assert!(schedules.iter().all(|s| s.len() == steps), "step counts must agree");
        // vals[r][c] starts as a distinct power-of-primes-free token; use
        // (r+1)*(c+1) so sums are distinguishable from overwrites.
        let mut vals: Vec<Vec<u64>> =
            (0..p).map(|r| (0..chunks).map(|c| ((r + 1) * (c + 1)) as u64).collect()).collect();
        for i in 0..steps {
            // Stage every rank's outgoing chunk before applying arrivals
            // (the engine stages at step entry, then the put lands).
            let staged: Vec<u64> = (0..p).map(|r| vals[r][schedules[r].steps[i].ready_offset]).collect();
            for r in 0..p {
                let step = &schedules[r].steps[i];
                for &src in &step.incoming {
                    // The sender must list us as its outgoing neighbor with
                    // a matching chunk offset (channel slot alignment).
                    let s_step = &schedules[src].steps[i];
                    assert!(s_step.outgoing.contains(&r), "step {i}: {src} must send to {r}");
                    assert_eq!(s_step.ready_offset, step.arrived_offset, "step {i} rank {r}");
                    match step.op {
                        StepOp::Sum => vals[r][step.arrived_offset] += staged[src],
                        StepOp::Nop => vals[r][step.arrived_offset] = staged[src],
                    }
                }
            }
        }
        for (r, v) in vals.iter().enumerate() {
            assert_eq!(v.len(), chunks);
            for (c, &got) in v.iter().enumerate() {
                let want: u64 = (0..p).map(|rr| ((rr + 1) * (c + 1)) as u64).sum();
                assert_eq!(got, want, "rank {r} chunk {c}");
            }
        }
    }

    #[test]
    fn flat_ring_allreduce_simulates_correctly() {
        for p in [2usize, 3, 4, 8] {
            let s: Vec<Schedule> = (0..p).map(|r| Schedule::ring_allreduce(r, p)).collect();
            simulate_allreduce(&s);
        }
    }

    #[test]
    fn hierarchical_ring_allreduce_simulates_correctly() {
        for (n, g) in [(1u16, 4u8), (2, 4), (2, 2), (4, 2), (4, 4), (3, 3), (2, 1), (8, 4), (16, 4)] {
            let t = topo(n, g);
            let s: Vec<Schedule> =
                (0..t.num_ranks()).map(|r| Schedule::hierarchical_ring_allreduce(r, &t)).collect();
            simulate_allreduce(&s);
        }
    }

    fn hierarchical_schedules(t: &Topology) -> Vec<Schedule> {
        (0..t.num_ranks()).map(|r| Schedule::hierarchical_ring_allreduce(r, t)).collect()
    }

    #[test]
    fn ragged_hierarchical_simulates_correctly() {
        for (gpus, nics, o) in [
            (vec![4u8, 2, 4, 1], vec![2u8, 1, 2, 1], 1u8),
            (vec![4, 2, 4, 1], vec![2, 1, 2, 1], 2),
            (vec![2, 1], vec![1, 1], 1),
            (vec![3, 3, 1], vec![2, 1, 1], 2),
            (vec![1, 4], vec![1, 2], 3),
            (vec![5], vec![2], 2),
        ] {
            let t = Topology::ragged(gpus.clone(), nics.clone(), o).expect("valid ragged");
            simulate_allreduce(&hierarchical_schedules(&t));
        }
    }

    #[test]
    fn ragged_surplus_ranks_never_cross_nodes() {
        let t = Topology::ragged(vec![4, 2, 4, 1], vec![2, 1, 2, 1], 2).expect("ragged");
        let s_core = t.min_local_size();
        for r in 0..t.num_ranks() {
            if t.local_rank(r) < s_core {
                continue;
            }
            let sched = Schedule::hierarchical_ring_allreduce(r, &t);
            for (i, step) in sched.steps.iter().enumerate() {
                for &peer in step.outgoing.iter().chain(&step.incoming) {
                    assert!(
                        t.same_node(r, peer),
                        "surplus rank {r} touches off-node peer {peer} at step {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_oversubscription_matches_equal_width_uniform_shape() {
        // 2 nodes × 2 GPUs × 2 ranks/GPU has the same rank layout and
        // local widths as 2 nodes × 4 GPUs — the step lists must agree
        // exactly (oversubscription is invisible to the schedule algebra
        // when it stays uniform).
        let over = Topology::ragged(vec![2, 2], vec![2, 2], 2).expect("oversubscribed");
        let wide = Topology::new(2, 4, 2).expect("uniform");
        assert_eq!(over.num_ranks(), wide.num_ranks());
        for r in 0..over.num_ranks() {
            let a = Schedule::hierarchical_ring_allreduce(r, &over);
            let b = Schedule::hierarchical_ring_allreduce(r, &wide);
            assert_eq!(a.chunks, b.chunks, "rank {r}");
            assert_eq!(a.steps, b.steps, "rank {r}");
        }
    }

    /// Final per-chunk values of a schedule set under the synchronous
    /// interpreter (the flat ring's output is the reference semantics).
    fn interpret(schedules: &[Schedule]) -> Vec<Vec<u64>> {
        let p = schedules.len();
        let chunks = schedules[0].chunks;
        let mut vals: Vec<Vec<u64>> =
            (0..p).map(|r| (0..chunks).map(|c| ((r + 1) * (c + 1)) as u64).collect()).collect();
        let steps = schedules[0].len();
        for i in 0..steps {
            let staged: Vec<u64> =
                (0..p).map(|r| vals[r][schedules[r].steps[i].ready_offset]).collect();
            for r in 0..p {
                let step = &schedules[r].steps[i];
                for &src in &step.incoming {
                    match step.op {
                        StepOp::Sum => vals[r][step.arrived_offset] += staged[src],
                        StepOp::Nop => vals[r][step.arrived_offset] = staged[src],
                    }
                }
            }
        }
        vals
    }

    /// Seeded property test with shrinking: over random ragged and
    /// oversubscribed specs, the hierarchical schedule's interpreted
    /// output is bit-identical to the flat-ring reference run with the
    /// same chunk count. On failure the spec is greedily shrunk (drop a
    /// node, thin a node, drop oversubscription) to a minimal
    /// counterexample before panicking.
    #[test]
    fn ragged_hierarchical_matches_flat_ring_reference_seeded() {
        let mut state = 0x5EED_7A66u64;
        let mut next = move |bound: u64| {
            // SplitMix64 — deterministic across platforms.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let check = |gpus: &[u8], nics: &[u8], o: u8| -> bool {
            let t = match Topology::ragged(gpus.to_vec(), nics.to_vec(), o) {
                Ok(t) => t,
                Err(_) => return true, // degenerate shrink candidate: skip
            };
            if t.num_ranks() < 2 {
                return true;
            }
            let p = t.num_ranks();
            let hier = interpret(&hierarchical_schedules(&t));
            let chunks = hier[0].len();
            let flat: Vec<Schedule> = (0..p).map(|r| Schedule::ring_allreduce(r, p)).collect();
            let reference = interpret(&flat);
            // Same world size, same `(r+1)(c+1)` tokens: the flat ring's
            // chunk `c` result is the reference full sum, and every
            // hierarchical rank must match it bit for bit on the chunks
            // the hierarchical schedule defines (u64 tokens — exact
            // equality, not epsilon).
            hier.iter().all(|v| v[..] == reference[0][..chunks])
        };
        for case in 0..40 {
            let nodes = 1 + next(4) as usize;
            let gpus: Vec<u8> = (0..nodes).map(|_| 1 + next(4) as u8).collect();
            let nics: Vec<u8> = gpus.iter().map(|&g| 1 + next(g as u64) as u8).collect();
            let o = 1 + next(3) as u8;
            if check(&gpus, &nics, o) {
                continue;
            }
            // Shrink: drop nodes, then thin GPU counts, then drop
            // oversubscription — keep any mutation that still fails.
            let (mut gpus, mut nics, mut o) = (gpus, nics, o);
            let mut shrunk = true;
            while shrunk {
                shrunk = false;
                for i in 0..gpus.len() {
                    if gpus.len() > 1 {
                        let (mut g2, mut n2) = (gpus.clone(), nics.clone());
                        g2.remove(i);
                        n2.remove(i);
                        if !check(&g2, &n2, o) {
                            gpus = g2;
                            nics = n2;
                            shrunk = true;
                            break;
                        }
                    }
                }
                for i in 0..gpus.len() {
                    if gpus[i] > 1 {
                        let mut g2 = gpus.clone();
                        g2[i] -= 1;
                        let mut n2 = nics.clone();
                        n2[i] = n2[i].min(g2[i]);
                        if !check(&g2, &n2, o) {
                            gpus = g2;
                            nics = n2;
                            shrunk = true;
                        }
                    }
                }
                if o > 1 && !check(&gpus, &nics, o - 1) {
                    o -= 1;
                    shrunk = true;
                }
            }
            panic!(
                "case {case}: hierarchical != flat-ring reference; \
                 minimal counterexample gpus={gpus:?} nics={nics:?} ranks_per_gpu={o}"
            );
        }
    }

    #[test]
    fn hierarchical_degenerates_to_flat_ring_on_one_node() {
        let t = topo(1, 4);
        for r in 0..4 {
            let h = Schedule::hierarchical_ring_allreduce(r, &t);
            let f = Schedule::ring_allreduce(r, 4);
            assert_eq!(h.chunks, f.chunks);
            assert_eq!(h.len(), f.len());
            for (hs, fs) in h.steps.iter().zip(&f.steps) {
                assert_eq!(hs.incoming, fs.incoming);
                assert_eq!(hs.outgoing, fs.outgoing);
                assert_eq!(hs.ready_offset, fs.ready_offset);
                assert_eq!(hs.arrived_offset, fs.arrived_offset);
                assert_eq!(hs.op, fs.op);
            }
        }
        // Single-rank worlds have empty schedules, as with the flat ring.
        assert!(Schedule::hierarchical_ring_allreduce(0, &topo(1, 1)).is_empty());
    }

    #[test]
    fn hierarchical_crosses_nodes_only_in_phase_b() {
        let t = topo(4, 4);
        let per_rank_cross: Vec<usize> = (0..t.num_ranks())
            .map(|r| {
                Schedule::hierarchical_ring_allreduce(r, &t)
                    .steps
                    .iter()
                    .filter(|s| s.outgoing.iter().any(|&d| !t.same_node(r, d)))
                    .count()
            })
            .collect();
        // Every rank crosses the IB boundary exactly 2(N−1) times…
        assert!(per_rank_cross.iter().all(|&c| c == 2 * (4 - 1)));
        // …while the flat ring's node-crossing pairs cross 2(NG−1) times.
        let flat_cross: usize = {
            let p = t.num_ranks();
            let s = Schedule::ring_allreduce(3, p); // rank 3 → rank 4 crosses
            s.steps.iter().filter(|st| st.outgoing.iter().any(|&d| !t.same_node(3, d))).count()
        };
        assert_eq!(flat_cross, 2 * (16 - 1));
    }

    #[test]
    fn hierarchical_phase_b_spreads_over_all_rails() {
        // The G inter-node rings run at fixed local index, so with G == K
        // NICs every rail carries exactly one ring.
        let t = Topology::new(4, 4, 4).expect("topo");
        let rails: Vec<u8> = (0..4).map(|l| t.nic_of(0, Unit::Gpu(l))).collect();
        let mut sorted = rails.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reduce_scatter_is_allreduce_prefix() {
        let full = Schedule::ring_allreduce(2, 4);
        let rs = Schedule::ring_reduce_scatter(2, 4);
        assert_eq!(rs.len(), 3);
        for i in 0..3 {
            assert_eq!(rs.steps[i].ready_offset, full.steps[i].ready_offset);
        }
    }
}
