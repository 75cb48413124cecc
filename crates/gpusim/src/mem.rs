//! Simulated memory: host, pinned-host, and GPU global buffers.
//!
//! A [`Buffer`] is the functional backing store for every payload in the
//! simulation — send/receive buffers, partition flags, collective scratch.
//! Data really moves: an RMA put copies bytes from the source buffer into the
//! destination buffer, so numerical results (allreduce sums, Jacobi residuals)
//! are exact and testable.
//!
//! Offsets in this API are **byte offsets**, mirroring RMA semantics; typed
//! helpers (`*_f64`, `*_f32`) do the element math. All accessors are
//! bounds-checked and panic on out-of-range access — in a communication
//! runtime an out-of-range RMA is a correctness bug we want loud.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parcomm_sim::Mutex;

/// Globally unique buffer identity (used by registration / rkeys).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BufferId(pub u64);

/// Where a node-local hardware unit lives in the cluster.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Location {
    /// Node (host) index within the cluster.
    pub node: u16,
    /// The unit on that node.
    pub unit: Unit,
}

/// A hardware unit on a node.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Unit {
    /// The host CPU (Grace).
    Cpu,
    /// GPU with the given on-node index (Hopper).
    Gpu(u8),
}

/// The memory space a buffer lives in; determines transfer routing and
/// access costs.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemSpace {
    /// Pageable host DRAM.
    Host {
        /// Owning node.
        node: u16,
    },
    /// Page-locked host DRAM, accessible by devices over NVLink-C2C. Used
    /// for the progression-engine notification flags.
    PinnedHost {
        /// Owning node.
        node: u16,
    },
    /// GPU global memory (HBM3).
    Device {
        /// Owning node.
        node: u16,
        /// Owning GPU index on that node.
        gpu: u8,
    },
}

impl MemSpace {
    /// The location whose memory controller owns this space.
    pub fn location(self) -> Location {
        match self {
            MemSpace::Host { node } | MemSpace::PinnedHost { node } => {
                Location { node, unit: Unit::Cpu }
            }
            MemSpace::Device { node, gpu } => Location { node, unit: Unit::Gpu(gpu) },
        }
    }

    /// The owning node.
    pub fn node(self) -> u16 {
        match self {
            MemSpace::Host { node } | MemSpace::PinnedHost { node } => node,
            MemSpace::Device { node, .. } => node,
        }
    }

    /// True for device (HBM) memory.
    pub fn is_device(self) -> bool {
        matches!(self, MemSpace::Device { .. })
    }

    /// True for page-locked host memory.
    pub fn is_pinned_host(self) -> bool {
        matches!(self, MemSpace::PinnedHost { .. })
    }
}

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

struct BufInner {
    id: BufferId,
    space: MemSpace,
    bytes: Mutex<Vec<u8>>,
}

/// A reference-counted simulated memory buffer. Cheap to clone.
#[derive(Clone)]
pub struct Buffer {
    inner: Arc<BufInner>,
}

impl Buffer {
    /// Allocate a zero-initialized buffer of `len` bytes in `space`.
    pub fn alloc(space: MemSpace, len: usize) -> Buffer {
        Buffer {
            inner: Arc::new(BufInner {
                id: BufferId(NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed)),
                space,
                bytes: Mutex::new(vec![0u8; len]),
            }),
        }
    }

    /// This buffer's globally unique id.
    pub fn id(&self) -> BufferId {
        self.inner.id
    }

    /// The memory space this buffer lives in.
    pub fn space(&self) -> MemSpace {
        self.inner.space
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.bytes.lock().len()
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `self` and `other` share the same allocation.
    pub fn same_allocation(&self, other: &Buffer) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// A handle that does not keep the allocation alive: once every
    /// [`Buffer`] clone is gone, [`WeakBuffer::is_live`] turns false.
    pub fn downgrade(&self) -> WeakBuffer {
        WeakBuffer { inner: Arc::downgrade(&self.inner) }
    }

    // ---- raw byte access -------------------------------------------------

    /// Copy `src` into the buffer at `offset`.
    pub fn write_bytes(&self, offset: usize, src: &[u8]) {
        let mut b = self.inner.bytes.lock();
        b[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Read `len` bytes starting at `offset`.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        let b = self.inner.bytes.lock();
        b[offset..offset + len].to_vec()
    }

    /// Zero-fill the whole buffer.
    pub fn zero(&self) {
        self.inner.bytes.lock().fill(0);
    }

    /// Functional copy between buffers (the data plane of an RMA put or a
    /// DMA memcpy). Overlapping ranges of one allocation copy as `memmove`.
    pub fn copy_from_buffer(&self, dst_offset: usize, src: &Buffer, src_offset: usize, len: usize) {
        if self.same_allocation(src) {
            self.inner.bytes.lock().copy_within(src_offset..src_offset + len, dst_offset);
            return;
        }
        let src_guard = src.inner.bytes.lock();
        let mut dst_guard = self.inner.bytes.lock();
        dst_guard[dst_offset..dst_offset + len]
            .copy_from_slice(&src_guard[src_offset..src_offset + len]);
    }

    // ---- f64 views -------------------------------------------------------

    /// Write a slice of `f64` at a byte offset.
    pub fn write_f64_slice(&self, byte_offset: usize, src: &[f64]) {
        let mut b = self.inner.bytes.lock();
        let dst = &mut b[byte_offset..byte_offset + src.len() * 8];
        for (chunk, v) in dst.chunks_exact_mut(8).zip(src) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read `n` `f64` values from a byte offset.
    pub fn read_f64_slice(&self, byte_offset: usize, n: usize) -> Vec<f64> {
        let b = self.inner.bytes.lock();
        b[byte_offset..byte_offset + n * 8]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Read a single `f64`.
    pub fn read_f64(&self, byte_offset: usize) -> f64 {
        let b = self.inner.bytes.lock();
        f64::from_le_bytes(b[byte_offset..byte_offset + 8].try_into().expect("8 bytes"))
    }

    /// Write a single `f64`.
    pub fn write_f64(&self, byte_offset: usize, v: f64) {
        self.write_bytes(byte_offset, &v.to_le_bytes());
    }

    /// `self[dst..] += other[src..]` over `n` `f64` elements — the reduction
    /// data plane for allreduce. One pass over both buffers; ranges of one
    /// allocation add a snapshot of the source, as if read before any write.
    pub fn accumulate_f64(&self, dst_offset: usize, other: &Buffer, src_offset: usize, n: usize) {
        let len = n * 8;
        if self.same_allocation(other) {
            let mut b = self.inner.bytes.lock();
            let src = b[src_offset..src_offset + len].to_vec();
            add_f64(&mut b[dst_offset..dst_offset + len], &src);
            return;
        }
        let src = other.inner.bytes.lock();
        let mut dst = self.inner.bytes.lock();
        add_f64(&mut dst[dst_offset..dst_offset + len], &src[src_offset..src_offset + len]);
    }

    /// Sum of `n` `f64` elements.
    pub fn reduce_sum_f64(&self, byte_offset: usize, n: usize) -> f64 {
        let b = self.inner.bytes.lock();
        b[byte_offset..byte_offset + n * 8]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .sum()
    }

    // ---- u64 flag words (partition status) --------------------------------

    /// Read flag word `index` (8-byte stride).
    pub fn read_flag(&self, index: usize) -> u64 {
        let b = self.inner.bytes.lock();
        u64::from_le_bytes(b[index * 8..index * 8 + 8].try_into().expect("8 bytes"))
    }

    /// Write flag word `index`.
    pub fn write_flag(&self, index: usize, v: u64) {
        self.write_bytes(index * 8, &v.to_le_bytes());
    }
}

/// `dst += src`, both little-endian `f64` byte slices of equal length.
fn add_f64(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
        let v = f64::from_le_bytes(d.try_into().expect("8-byte chunk"))
            + f64::from_le_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// A non-owning handle onto a [`Buffer`]'s allocation (see
/// [`Buffer::downgrade`]).
#[derive(Clone)]
pub struct WeakBuffer {
    inner: Weak<BufInner>,
}

impl WeakBuffer {
    /// True while some [`Buffer`] still holds the allocation.
    pub fn is_live(&self) -> bool {
        self.inner.strong_count() > 0
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buffer")
            .field("id", &self.inner.id)
            .field("space", &self.inner.space)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_buf(len: usize) -> Buffer {
        Buffer::alloc(MemSpace::Host { node: 0 }, len)
    }

    #[test]
    fn alloc_is_zeroed_and_ids_unique() {
        let a = host_buf(16);
        let b = host_buf(16);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.read_bytes(0, 16), vec![0u8; 16]);
    }

    #[test]
    fn f64_roundtrip() {
        let b = host_buf(64);
        let data = [1.5, -2.25, 3.75, 0.0];
        b.write_f64_slice(8, &data);
        assert_eq!(b.read_f64_slice(8, 4), data);
        assert_eq!(b.read_f64(8), 1.5);
    }

    #[test]
    fn copy_between_buffers() {
        let src = host_buf(32);
        let dst = host_buf(32);
        src.write_f64_slice(0, &[7.0, 8.0]);
        dst.copy_from_buffer(16, &src, 0, 16);
        assert_eq!(dst.read_f64_slice(16, 2), vec![7.0, 8.0]);
    }

    #[test]
    fn copy_within_same_allocation() {
        let b = host_buf(32);
        b.write_f64_slice(0, &[1.0, 2.0]);
        let alias = b.clone();
        alias.copy_from_buffer(16, &b, 0, 16);
        assert_eq!(b.read_f64_slice(16, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn accumulate_adds() {
        let a = host_buf(24);
        let b = host_buf(24);
        a.write_f64_slice(0, &[1.0, 2.0, 3.0]);
        b.write_f64_slice(0, &[10.0, 20.0, 30.0]);
        a.accumulate_f64(0, &b, 0, 3);
        assert_eq!(a.read_f64_slice(0, 3), vec![11.0, 22.0, 33.0]);
        assert_eq!(a.reduce_sum_f64(0, 3), 66.0);
    }

    #[test]
    fn copy_within_overlapping_ranges_moves() {
        let b = host_buf(40);
        b.write_f64_slice(0, &[1.0, 2.0, 3.0, 4.0]);
        b.copy_from_buffer(8, &b.clone(), 0, 24);
        assert_eq!(b.read_f64_slice(0, 5), vec![1.0, 1.0, 2.0, 3.0, 0.0]);
        b.copy_from_buffer(0, &b.clone(), 16, 24);
        assert_eq!(b.read_f64_slice(0, 5), vec![2.0, 3.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn aliased_overlapping_accumulate_adds_a_snapshot() {
        let vals = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let b = host_buf(48);
        b.write_f64_slice(0, &vals);
        // dst = elements 2..6, src = elements 0..4: overlapping ranges of
        // one allocation, through an aliasing handle.
        b.clone().accumulate_f64(16, &b, 0, 4);
        // The two-pass result by hand: read the source first, then add.
        let mut want = vals.to_vec();
        for i in 0..4 {
            want[2 + i] = vals[2 + i] + vals[i];
        }
        assert_eq!(b.read_f64_slice(0, 6), want);
        assert_eq!(want, vec![1.0, 2.0, 5.0, 10.0, 20.0, 40.0]);
    }

    #[test]
    fn downgrade_tracks_the_last_clone() {
        let a = host_buf(8);
        let weak = a.downgrade();
        let alias = a.clone();
        drop(a);
        assert!(weak.is_live(), "a clone still holds the allocation");
        drop(alias);
        assert!(!weak.is_live());
    }

    #[test]
    fn flags() {
        let b = host_buf(32);
        b.write_flag(2, 0xDEAD);
        assert_eq!(b.read_flag(2), 0xDEAD);
        assert_eq!(b.read_flag(0), 0);
        b.zero();
        assert_eq!(b.read_flag(2), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        host_buf(8).write_bytes(4, &[0u8; 8]);
    }

    #[test]
    fn memspace_properties() {
        let d = MemSpace::Device { node: 1, gpu: 2 };
        assert!(d.is_device());
        assert_eq!(d.location(), Location { node: 1, unit: Unit::Gpu(2) });
        let p = MemSpace::PinnedHost { node: 3 };
        assert!(p.is_pinned_host());
        assert_eq!(p.location().unit, Unit::Cpu);
        assert_eq!(p.node(), 3);
    }
}
