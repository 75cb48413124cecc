//! The symmetric memory heap.
//!
//! One [`SymmetricHeap`] is registered per world at construction: every rank
//! owns a fixed-size segment at a deterministic base offset
//! (`rank * bytes_per_rank`), mirroring how NVSHMEM carves one symmetric
//! heap out of every PE's device memory during `nvshmem_init`. Because the
//! whole heap is registered up front, a channel that lives inside it needs
//! **no rkey exchange, ever**: the initiator translates
//! `(rank, symmetric offset)` to the target buffer locally.
//!
//! The simulation models binds (a buffer adopted into a rank's segment) as
//! bump allocations with an alignment contract; translation resolves a
//! peer's binding through the shared registry — the in-simulation stand-in
//! for symmetric addressing. Exhaustion, misalignment, unregistered access,
//! and fault-injected registration failure all surface as typed
//! [`ShmemError`]s.

use std::collections::BTreeMap;
use std::sync::Arc;

use parcomm_gpu::Buffer;
use parcomm_obs::MetricsRegistry;
use parcomm_sim::Mutex;

use crate::error::ShmemError;
use crate::obs::ShmemInstruments;

/// Alignment contract of the symmetric heap: every bind starts on (and
/// every flag/signal word lands on) an 8-byte boundary.
pub const SHMEM_ALIGN: u64 = 8;

struct Segment {
    /// `false` when the rank's registration failed (fault hook): every
    /// symmetric operation involving the rank is refused.
    registered: bool,
    /// Bump cursor of the next free byte within the segment.
    cursor: u64,
    /// Bound buffers keyed by their symmetric offset.
    bindings: BTreeMap<u64, Buffer>,
}

struct HeapInner {
    bytes_per_rank: u64,
    segments: Mutex<Vec<Segment>>,
    instruments: ShmemInstruments,
}

/// The world's symmetric heap. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct SymmetricHeap {
    inner: Arc<HeapInner>,
}

impl SymmetricHeap {
    /// Register the heap for `ranks` ranks, `bytes_per_rank` each. This is
    /// the once-per-world registration: base offsets are deterministic and
    /// no later rkey exchange is needed. Ranks listed in `failed_ranks`
    /// model a fault-injected registration failure — their segments exist
    /// but refuse every symmetric operation. The `shmem.*` metrics count
    /// into `registry`.
    pub fn new(
        ranks: usize,
        bytes_per_rank: u64,
        failed_ranks: &[usize],
        registry: &MetricsRegistry,
    ) -> Self {
        let segments = (0..ranks)
            .map(|r| Segment {
                registered: !failed_ranks.contains(&r),
                cursor: 0,
                bindings: BTreeMap::new(),
            })
            .collect();
        SymmetricHeap {
            inner: Arc::new(HeapInner {
                bytes_per_rank,
                segments: Mutex::new(segments),
                instruments: ShmemInstruments::new(registry),
            }),
        }
    }

    /// The heap's `shmem.*` metrics instruments.
    pub fn instruments(&self) -> &ShmemInstruments {
        &self.inner.instruments
    }

    /// Number of ranks the heap was registered for.
    pub fn ranks(&self) -> usize {
        self.inner.segments.lock().len()
    }

    /// Segment capacity per rank, in bytes.
    pub fn bytes_per_rank(&self) -> u64 {
        self.inner.bytes_per_rank
    }

    /// Deterministic base offset of `rank`'s segment in the global
    /// symmetric address space.
    pub fn base_offset(&self, rank: usize) -> u64 {
        rank as u64 * self.inner.bytes_per_rank
    }

    /// Whether `rank`'s segment registered successfully at construction.
    pub fn is_registered(&self, rank: usize) -> bool {
        self.inner.segments.lock().get(rank).is_some_and(|s| s.registered)
    }

    /// Bytes remaining in `rank`'s segment.
    pub fn remaining(&self, rank: usize) -> u64 {
        let segs = self.inner.segments.lock();
        segs.get(rank)
            .map(|s| self.inner.bytes_per_rank - s.cursor)
            .unwrap_or(0)
    }

    /// Bytes already bound (bump-allocated, padding included) in `rank`'s
    /// segment — the admission-quota accounting view: a multiplexer
    /// apportioning the heap across tenants checks a tenant's projected
    /// binding against its share before admitting the channel.
    pub fn used(&self, rank: usize) -> u64 {
        let segs = self.inner.segments.lock();
        segs.get(rank).map(|s| s.cursor).unwrap_or(0)
    }

    /// Adopt `buffer` into `rank`'s segment: bump-allocate an aligned
    /// symmetric offset and record the binding. The returned offset is what
    /// peers use to address the buffer — no rkey travels.
    pub fn bind(&self, rank: usize, buffer: &Buffer) -> Result<u64, ShmemError> {
        let mut segs = self.inner.segments.lock();
        let seg = segs
            .get_mut(rank)
            .ok_or(ShmemError::UnregisteredAccess { rank, offset: 0 })?;
        if !seg.registered {
            return Err(ShmemError::RegistrationFailed { rank });
        }
        let offset = seg.cursor.next_multiple_of(SHMEM_ALIGN);
        let requested = offset - seg.cursor + buffer.len() as u64;
        let remaining = self.inner.bytes_per_rank - seg.cursor;
        if requested > remaining {
            return Err(ShmemError::HeapExhausted { requested, remaining });
        }
        seg.cursor = offset + buffer.len() as u64;
        seg.bindings.insert(offset, buffer.clone());
        self.inner.instruments.binds.inc();
        Ok(offset)
    }

    /// Translate a symmetric `(rank, offset)` locally to the bound buffer —
    /// the device-side address translation that replaces the rkey lookup.
    /// `len` bytes starting at `offset` must fall inside one binding.
    pub fn translate(&self, rank: usize, offset: u64, len: u64) -> Result<Buffer, ShmemError> {
        if !offset.is_multiple_of(SHMEM_ALIGN) {
            return Err(ShmemError::Misaligned { offset, align: SHMEM_ALIGN });
        }
        let segs = self.inner.segments.lock();
        let seg = segs
            .get(rank)
            .ok_or(ShmemError::UnregisteredAccess { rank, offset })?;
        if !seg.registered {
            return Err(ShmemError::RegistrationFailed { rank });
        }
        let (&base, buffer) = seg
            .bindings
            .range(..=offset)
            .next_back()
            .ok_or(ShmemError::UnregisteredAccess { rank, offset })?;
        if offset + len > base + buffer.len() as u64 {
            return Err(ShmemError::UnregisteredAccess { rank, offset });
        }
        Ok(buffer.clone())
    }
}

impl std::fmt::Debug for SymmetricHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymmetricHeap")
            .field("ranks", &self.ranks())
            .field("bytes_per_rank", &self.inner.bytes_per_rank)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm_gpu::MemSpace;

    fn host_buf(len: usize) -> Buffer {
        Buffer::alloc(MemSpace::Host { node: 0 }, len)
    }

    #[test]
    fn base_offsets_are_deterministic() {
        let h = SymmetricHeap::new(8, 1 << 20, &[], &MetricsRegistry::new());
        for r in 0..8 {
            assert_eq!(h.base_offset(r), r as u64 * (1 << 20));
        }
    }

    #[test]
    fn bind_and_translate_round_trip() {
        let h = SymmetricHeap::new(2, 4096, &[], &MetricsRegistry::new());
        let b = host_buf(128);
        let off = h.bind(1, &b).expect("bind");
        assert_eq!(off, 0);
        let got = h.translate(1, off, 128).expect("translate");
        assert!(got.same_allocation(&b));
        // A second bind lands after the first, aligned.
        let b2 = host_buf(24);
        let off2 = h.bind(1, &b2).expect("bind 2");
        assert_eq!(off2, 128);
        // Interior offsets of a binding resolve too.
        let got2 = h.translate(1, off2 + 8, 16).expect("interior");
        assert!(got2.same_allocation(&b2));
    }

    #[test]
    fn exhaustion_is_typed() {
        let h = SymmetricHeap::new(1, 100, &[], &MetricsRegistry::new());
        let err = h.bind(0, &host_buf(128)).unwrap_err();
        assert_eq!(err, ShmemError::HeapExhausted { requested: 128, remaining: 100 });
    }

    #[test]
    fn misalignment_is_typed() {
        let h = SymmetricHeap::new(1, 4096, &[], &MetricsRegistry::new());
        h.bind(0, &host_buf(64)).expect("bind");
        let err = h.translate(0, 3, 8).unwrap_err();
        assert_eq!(err, ShmemError::Misaligned { offset: 3, align: SHMEM_ALIGN });
    }

    #[test]
    fn unregistered_access_is_typed() {
        let h = SymmetricHeap::new(2, 4096, &[], &MetricsRegistry::new());
        // No binding covers the offset.
        let err = h.translate(0, 8, 8).unwrap_err();
        assert_eq!(err, ShmemError::UnregisteredAccess { rank: 0, offset: 8 });
        // Reading past the end of a binding is unregistered too.
        h.bind(0, &host_buf(64)).expect("bind");
        let err = h.translate(0, 0, 72).unwrap_err();
        assert_eq!(err, ShmemError::UnregisteredAccess { rank: 0, offset: 0 });
        // Unknown rank.
        let err = h.translate(9, 0, 8).unwrap_err();
        assert_eq!(err, ShmemError::UnregisteredAccess { rank: 9, offset: 0 });
    }

    #[test]
    fn registration_failure_refuses_every_operation() {
        let h = SymmetricHeap::new(2, 4096, &[1], &MetricsRegistry::new());
        assert!(h.is_registered(0));
        assert!(!h.is_registered(1));
        assert_eq!(
            h.bind(1, &host_buf(8)).unwrap_err(),
            ShmemError::RegistrationFailed { rank: 1 }
        );
        assert_eq!(
            h.translate(1, 0, 8).unwrap_err(),
            ShmemError::RegistrationFailed { rank: 1 }
        );
    }
}
