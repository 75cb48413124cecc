//! Traditional (host-driven) collectives: the `MPI_Allreduce` baseline.
//!
//! This is the model the paper compares against in Figs. 6/7/10/11: a ring
//! reduce-scatter + allgather where every reduce-scatter step launches a GPU
//! reduction kernel and pays a full `cudaStreamSynchronize` before the next
//! communication step — the synchronization cost the partitioned collective
//! eliminates from application code.

use parcomm_gpu::{Buffer, KernelSpec, MemSpace, Stream};
use parcomm_sim::{Ctx, SimDuration};

use crate::world::Rank;

/// Tag used by the traditional allreduce ring (FIFO matching keeps
/// iterations ordered per rank pair).
const ALLREDUCE_TAG: u64 = 0xA11D;

/// Element range `[start, start+len)` of chunk `i` when `n` elements are
/// split into `parts` contiguous chunks as evenly as possible.
pub fn chunk_range(n: usize, parts: usize, i: usize) -> (usize, usize) {
    assert!(i < parts);
    let base = n / parts;
    let rem = n % parts;
    let len = base + usize::from(i < rem);
    let start = i * base + i.min(rem);
    (start, len)
}

impl Rank {
    /// In-place sum-allreduce over `n` `f64` elements of a device buffer,
    /// using the host-driven ring reduce-scatter/allgather algorithm.
    ///
    /// Each of the `P-1` reduce-scatter steps does: neighbor `sendrecv`,
    /// then a device reduction kernel followed by `cudaStreamSynchronize`
    /// (numerical correctness requires the reduction to finish before the
    /// chunk is forwarded). The `P-1` allgather steps are pure `sendrecv`.
    pub fn allreduce_ring_f64(
        &self,
        ctx: &mut Ctx,
        buf: &Buffer,
        byte_off: usize,
        n: usize,
        stream: &Stream,
    ) {
        let p = self.size();
        if p == 1 || n == 0 {
            return;
        }
        let (_, max_chunk) = chunk_range(n, p, 0);
        let scratch = self.gpu().alloc_global(max_chunk * 8);
        self.ring_allreduce_walk(ctx, buf, byte_off, n, &scratch, |ctx, dst_off, len| {
            // Device reduction of the received chunk, then the mandatory
            // stream synchronize before the next ring step.
            let buf2 = buf.clone();
            let scratch2 = scratch.clone();
            let spec = KernelSpec::new("allreduce_reduce", (len as u32).div_ceil(1024).max(1), 1024)
                .with_memory_traffic(16, 8)
                .with_flops(1.0);
            stream.launch(ctx, spec, move |_d| {
                buf2.accumulate_f64(dst_off, &scratch2, 0, len);
            });
            stream.synchronize(ctx);
        });
    }

    /// The production `MPI_Allreduce` baseline the paper measures against
    /// (Open MPI v5.0.1rc1 on device buffers): the reduction `MPI_Op` runs
    /// on the *CPU*, so the library stages the payload device→host, runs a
    /// host ring reduce-scatter/allgather with CPU reductions, and copies
    /// the result back — each staging copy paying a stream synchronize
    /// and moving over the cluster's NVLink-C2C link. This host-staged
    /// path is what makes the traditional collective "multiple orders of
    /// magnitude" slower than the partitioned one in the paper's Figs. 6/7
    /// (see EXPERIMENTS.md).
    pub fn allreduce_hoststaged_f64(
        &self,
        ctx: &mut Ctx,
        buf: &Buffer,
        byte_off: usize,
        n: usize,
        stream: &Stream,
    ) {
        let p = self.size();
        if p == 1 || n == 0 {
            return;
        }
        let node = self.gpu().id().node;
        let host = Buffer::alloc(MemSpace::Host { node }, n * 8);
        let c2c_gbps = self.world().config().cluster.c2c.bandwidth_gbps;
        // CPU-side single-threaded reduce throughput (sum of two streams).
        let cpu_reduce_gbps = 8.0;

        // Stage the whole device buffer to the host.
        let d2h = SimDuration::from_micros_f64(n as f64 * 8.0 / (c2c_gbps * 1e3));
        let op = stream.enqueue_busy(&ctx.handle(), "d2h", d2h);
        ctx.wait(&op.done);
        stream.synchronize(ctx);
        host.copy_from_buffer(0, buf, byte_off, n * 8);

        // Host ring reduce-scatter + allgather with CPU reductions.
        let (_, max_chunk) = chunk_range(n, p, 0);
        let scratch = Buffer::alloc(MemSpace::Host { node }, max_chunk * 8);
        self.ring_allreduce_walk(ctx, &host, 0, n, &scratch, |ctx, dst_off, len| {
            host.accumulate_f64(dst_off, &scratch, 0, len);
            ctx.advance(SimDuration::from_micros_f64(len as f64 * 8.0 / (cpu_reduce_gbps * 1e3)));
        });

        // Unstage back to the device.
        buf.copy_from_buffer(byte_off, &host, 0, n * 8);
        let h2d = SimDuration::from_micros_f64(n as f64 * 8.0 / (c2c_gbps * 1e3));
        let op = stream.enqueue_busy(&ctx.handle(), "h2d", h2d);
        ctx.wait(&op.done);
        stream.synchronize(ctx);
    }

    /// The ring both allreduces walk over `n` `f64` elements of `data` from
    /// byte `off`, with `P > 1` ranks. Each of the `P-1` reduce-scatter
    /// steps `sendrecv`s a chunk to the right neighbour, receives the left
    /// neighbour's into `scratch`, and calls `reduce(ctx, dst, len)` to add
    /// those `len` elements into `data` at byte `dst`; after step s, chunk
    /// (r - s - 1) mod P holds the partial sum of s+2 ranks. The `P-1`
    /// allgather steps then circulate the reduced chunks in place.
    fn ring_allreduce_walk(
        &self,
        ctx: &mut Ctx,
        data: &Buffer,
        off: usize,
        n: usize,
        scratch: &Buffer,
        mut reduce: impl FnMut(&mut Ctx, usize, usize),
    ) {
        let p = self.size();
        let r = self.rank();
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        for s in 0..p - 1 {
            let (s_start, s_len) = chunk_range(n, p, (r + p - s) % p);
            let (r_start, r_len) = chunk_range(n, p, (r + 2 * p - s - 1) % p);
            self.sendrecv(
                ctx, right, ALLREDUCE_TAG, data, off + s_start * 8, s_len * 8,
                left, ALLREDUCE_TAG, scratch, 0, r_len * 8,
            );
            reduce(ctx, off + r_start * 8, r_len);
        }
        for s in 0..p - 1 {
            let (s_start, s_len) = chunk_range(n, p, (r + p + 1 - s) % p);
            let (r_start, r_len) = chunk_range(n, p, (r + p - s) % p);
            self.sendrecv(
                ctx, right, ALLREDUCE_TAG, data, off + s_start * 8, s_len * 8,
                left, ALLREDUCE_TAG, data, off + r_start * 8, r_len * 8,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::chunk_range;

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 16, 33] {
            for p in [1usize, 2, 3, 4, 8] {
                let mut total = 0;
                let mut next = 0;
                for i in 0..p {
                    let (start, len) = chunk_range(n, p, i);
                    assert_eq!(start, next, "n={n} p={p} i={i}");
                    next = start + len;
                    total += len;
                }
                assert_eq!(total, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let lens: Vec<usize> = (0..4).map(|i| chunk_range(10, 4, i).1).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }
}
