//! # parcomm-nccl — the NCCL baseline
//!
//! A model of `ncclAllReduce` as the paper's state-of-the-art comparator
//! (Figs. 6/7/10/11): a **fused device-side ring** — one kernel per rank
//! that moves chunks over NVLink/IB and reduces them *inside the kernel*,
//! with no per-step host round-trips, kernel launches, or
//! `cudaStreamSynchronize` calls. That structural property is exactly why
//! NCCL retains an edge over the partitioned collective in the paper
//! (§VI-B), and it survives simulation.
//!
//! The model is functional + timed like everything else: the sum really
//! happens; the completion time follows the bandwidth-optimal ring formula
//! `2(P−1)/P · bytes / bw + 2(P−1) · hop latency` on the bottleneck link of
//! the rank ring, discounted by an efficiency factor.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;

use parcomm_sim::Mutex;

use parcomm_gpu::{Buffer, Location, Stream};
use parcomm_net::Fabric;
use parcomm_sim::{Ctx, Event, SimDuration, SimTime};

/// Tunables of the NCCL model.
#[derive(Clone, Debug)]
pub struct NcclConfig {
    /// Fixed cost of the fused collective kernel (bootstrap + fence).
    pub fixed_us: f64,
    /// Host-side launch cost of `ncclAllReduce` (one kernel enqueue).
    pub launch_us: f64,
    /// Fraction of link bandwidth the fused ring sustains.
    pub efficiency: f64,
}

impl Default for NcclConfig {
    fn default() -> Self {
        NcclConfig { fixed_us: 6.0, launch_us: 1.3, efficiency: 0.95 }
    }
}

struct OpState {
    /// (rank, buffer, byte offset, elems, ready-on-device time).
    participants: Vec<(usize, Buffer, usize, usize, SimTime)>,
    done: Event,
}

struct CommInner {
    fabric: Fabric,
    config: NcclConfig,
    /// GPU location of each rank in ring order.
    ring: Vec<Location>,
    ops: Mutex<HashMap<u64, OpState>>,
    /// Per-rank local sequence numbers (all ranks must call collectives in
    /// the same order — the standard NCCL contract).
    seqs: Mutex<Vec<u64>>,
}

/// An NCCL communicator over all ranks of the world.
#[derive(Clone)]
pub struct NcclComm {
    inner: Arc<CommInner>,
}

impl NcclComm {
    /// Build a communicator for GPUs at `ring` locations (rank order).
    pub fn new(fabric: Fabric, ring: Vec<Location>, config: NcclConfig) -> NcclComm {
        assert!(!ring.is_empty());
        let n = ring.len();
        NcclComm {
            inner: Arc::new(CommInner {
                fabric,
                config,
                ring,
                ops: Mutex::new(HashMap::new()),
                seqs: Mutex::new(vec![0; n]),
            }),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.inner.ring.len()
    }

    /// Bottleneck bandwidth (GB/s) and worst hop latency (µs) of the ring.
    fn ring_limits(&self) -> (f64, f64) {
        let ring = &self.inner.ring;
        let p = ring.len();
        let mut bw = f64::INFINITY;
        let mut lat: f64 = 0.0;
        for i in 0..p {
            let next = (i + 1) % p;
            // Large-message rings stripe node-crossing hops across every
            // NIC rail, exactly as NCCL's multi-channel transport does.
            bw = bw.min(self.inner.fabric.striped_bandwidth_gbps(ring[i], ring[next]));
            lat = lat.max(self.inner.fabric.path_latency(ring[i], ring[next]).as_micros_f64());
        }
        (bw, lat)
    }

    /// Duration of the fused ring allreduce for `bytes` per rank.
    pub fn allreduce_duration(&self, bytes: u64) -> SimDuration {
        let p = self.nranks() as f64;
        if p == 1.0 {
            return SimDuration::from_micros_f64(self.inner.config.fixed_us);
        }
        let (bw, lat) = self.ring_limits();
        let eff = self.inner.config.efficiency;
        let transfer_us = 2.0 * (p - 1.0) / p * bytes as f64 / (bw * eff * 1e3);
        let latency_us = 2.0 * (p - 1.0) * lat;
        SimDuration::from_micros_f64(self.inner.config.fixed_us + transfer_us + latency_us)
    }

    /// `ncclAllReduce(sum, f64)` in place on `n` elements at `byte_off` of
    /// `buf`, ordered after the work already enqueued on `stream`.
    ///
    /// Returns the completion event; the caller waits on it where it would
    /// call `cudaStreamSynchronize` after an NCCL launch. The returned
    /// event fires for all ranks at the same instant (the fused ring
    /// completes collectively).
    pub fn all_reduce_f64(
        &self,
        ctx: &mut Ctx,
        rank: usize,
        buf: &Buffer,
        byte_off: usize,
        n: usize,
        stream: &Stream,
    ) -> Event {
        assert!(rank < self.nranks());
        // Host enqueue cost (one fused kernel launch).
        ctx.advance(SimDuration::from_micros_f64(self.inner.config.launch_us));
        let seq = {
            let mut seqs = self.inner.seqs.lock();
            let s = seqs[rank];
            seqs[rank] += 1;
            s
        };
        // This rank's contribution is ready when its stream drains.
        let ready = stream.busy_until().max(ctx.now());
        let p = self.nranks();
        let (complete, done) = {
            let mut ops = self.inner.ops.lock();
            let op = ops.entry(seq).or_insert_with(|| OpState {
                participants: Vec::with_capacity(p),
                done: Event::new(),
            });
            op.participants.push((rank, buf.clone(), byte_off, n, ready));
            let done = op.done.clone();
            if op.participants.len() == p {
                (Some(ops.remove(&seq).expect("just inserted")), done)
            } else {
                (None, done)
            }
        };
        if let Some(op) = complete {
            self.finish(ctx, op, n);
        }
        done
    }

    /// Last participant arrived: compute the sum functionally and schedule
    /// completion at `max(ready) + ring duration`.
    fn finish(&self, ctx: &mut Ctx, op: OpState, n: usize) {
        let start = op
            .participants
            .iter()
            .map(|(_, _, _, _, t)| *t)
            .max()
            .expect("non-empty participants");
        for (_, _, _, n_i, _) in &op.participants {
            assert_eq!(*n_i, n, "ncclAllReduce: element counts differ across ranks");
        }
        // Functional: elementwise sum of all contributions, written back to
        // every rank (never visible before `done` fires).
        let mut acc = vec![0.0f64; n];
        for (_, buf, off, _, _) in &op.participants {
            for (a, v) in acc.iter_mut().zip(buf.read_f64_slice(*off, n)) {
                *a += v;
            }
        }
        for (_, buf, off, _, _) in &op.participants {
            buf.write_f64_slice(*off, &acc);
        }
        let dur = self.allreduce_duration((n * 8) as u64);
        ctx.handle().set_at(start + dur, op.done);
    }
}

impl std::fmt::Debug for NcclComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NcclComm").field("nranks", &self.nranks()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm_net::ClusterSpec;
    use parcomm_obs::MetricsRegistry;
    use parcomm_sim::{SimConfig, Simulation};

    #[test]
    fn duration_scales_with_bytes_and_ranks() {
        let sim = Simulation::new(SimConfig::default());
        let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(1), &MetricsRegistry::new());
        let topo = fabric.topology();
        let ring: Vec<Location> = (0..topo.num_ranks()).map(|r| topo.location_of(r)).collect();
        let comm = NcclComm::new(fabric, ring, NcclConfig::default());
        let small = comm.allreduce_duration(1 << 10);
        let large = comm.allreduce_duration(1 << 26);
        assert!(large > small * 10);
        // 64 MB on 4 GPUs over 150 GB/s at 0.95 efficiency:
        // 2·3/4·64MB/142.5GB/s ≈ 706 µs.
        let us = large.as_micros_f64();
        assert!((650.0..800.0).contains(&us), "64MB allreduce = {us} µs");
    }

    #[test]
    fn inter_node_ring_is_ib_bound() {
        let sim = Simulation::new(SimConfig::default());
        let fabric = Fabric::new(sim.handle(), ClusterSpec::gh200(2), &MetricsRegistry::new());
        let topo = fabric.topology();
        let ring: Vec<Location> = (0..topo.num_ranks()).map(|r| topo.location_of(r)).collect();
        let comm = NcclComm::new(fabric, ring, NcclConfig::default());
        let (bw, _) = comm.ring_limits();
        // The two node-crossing hops stripe over 4 NIC rails: 200 GB/s,
        // still the ring bottleneck next to 150 GB/s NVLink... NVLink now
        // binds the ring.
        assert_eq!(bw, 150.0, "NVLink hops bound the striped inter-node ring");
    }
}
