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
//! runtime an out-of-range RMA is a correctness bug we want loud. The
//! partition-flag helpers index 8-byte words instead, and
//! [`Buffer::fill_flags`] stamps a whole range of flags in one operation.
//!
//! Bytes live in reference-counted copy-on-write pages of 16 KiB (a
//! buffer's last page may be shorter). A page that no buffer holds any
//! more, of whatever length, goes onto a process-wide free list with its
//! `Arc`, and a fresh page of that length is taken from the list before
//! the allocator is asked for one, so a persistent channel's steady-state
//! epochs allocate no page. See DESIGN.md, "Buffer storage".

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, Weak};

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

/// Page size of a buffer's copy-on-write storage. The collective chunks
/// (16 KiB) and p2p partitions (64 and 128 KiB) are multiples of it, so
/// their staging and delivery copies move whole pages.
const PAGE: usize = 16 * 1024;

/// What a never-written page reads as.
static ZEROS: [u8; PAGE] = [0; PAGE];

/// Pages that no buffer holds any more, by length: the bytes together with
/// the `Arc` around them, reused before the allocator is asked for a new
/// page. Pages are always taken from here first, so a length's list never
/// holds more than the process's peak of live pages of that length.
static FREE_PAGES: Mutex<FreeLists> = Mutex::new(BTreeMap::new());

/// Free pages by length.
type FreeLists = BTreeMap<usize, Vec<Arc<PageBytes>>>;

/// [`FREE_PAGES`] as one buffer operation sees it: locked at the
/// operation's first page fetch or release and held until the operation
/// ends, so one operation takes the pool's lock at most once, however
/// many pages it touches. Every store lock an operation takes is taken
/// before this one.
#[derive(Default)]
struct Pool(Option<MutexGuard<'static, FreeLists>>);

impl Pool {
    fn lists(&mut self) -> &mut FreeLists {
        self.0.get_or_insert_with(|| FREE_PAGES.lock())
    }
}

/// Pages the allocator had to supply because [`FREE_PAGES`] had none of
/// the length asked for.
static PAGES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Pages of any length obtained from the allocator so far, process-wide: a
/// page taken from the free list of dropped pages does not count. Test
/// support for the steady-state contract that a persistent channel's epochs
/// reuse pages rather than allocate them.
#[doc(hidden)]
pub fn pages_allocated() -> u64 {
    PAGES_ALLOCATED.load(Ordering::Relaxed)
}

/// The bytes of one written page.
struct PageBytes(Vec<u8>);

impl std::ops::Deref for PageBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// One page of a buffer: `None` until first written (it reads as zeros),
/// then bytes that other buffers may share and that are copied before a
/// write (copy-on-write). Every page is [`PAGE`] bytes except a shorter
/// last one, so a buffer of at most one page is one exact-size page.
type Page = Option<Arc<PageBytes>>;

/// A new page of `len` bytes, every one of which `fill` must set: a
/// recycled page still holds the bytes of its last use. The one place
/// page bytes are allocated.
fn fresh_page(pool: &mut Pool, len: usize, fill: impl FnOnce(&mut [u8])) -> Arc<PageBytes> {
    let recycled = pool.lists().get_mut(&len).and_then(Vec::pop);
    let mut page = recycled.unwrap_or_else(|| {
        PAGES_ALLOCATED.fetch_add(1, Ordering::Relaxed);
        let bytes = vec![0; len];
        Arc::new(PageBytes(bytes))
    });
    fill(&mut Arc::get_mut(&mut page).expect("a free page has no other holder").0);
    page
}

/// Let go of `pages`: each one that no other buffer holds goes back to
/// [`FREE_PAGES`], `Arc` and all; a shared one just loses this holder.
fn release(pool: &mut Pool, pages: impl IntoIterator<Item = Page>) {
    for mut page in pages.into_iter().flatten() {
        if Arc::get_mut(&mut page).is_some() {
            pool.lists().entry(page.len()).or_default().push(page);
        }
    }
}

/// The pieces of the byte range `off..off + n` that cross no page
/// boundary, in order: `(page, offset in page, offset in range, length)`.
fn spans(off: usize, n: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < n).then(|| {
            let (i, o) = ((off + done) / PAGE, (off + done) % PAGE);
            let take = (n - done).min(PAGE - o);
            done += take;
            (i, o, done - take, take)
        })
    })
}

/// A buffer's bytes as pages. All offsets are byte offsets into the buffer.
/// Every page it lets go of, dropped or replaced, goes through [`release`].
struct Store {
    len: usize,
    pages: Vec<Page>,
}

impl Drop for Store {
    fn drop(&mut self) {
        release(&mut Pool::default(), self.pages.drain(..));
    }
}

impl Store {
    fn new(len: usize) -> Store {
        Store { len, pages: vec![None; len.div_ceil(PAGE)] }
    }

    /// Panics unless `off..off + n` lies inside the buffer.
    fn check(&self, off: usize, n: usize) {
        let end = off.checked_add(n).expect("buffer range overflows usize");
        assert!(end <= self.len, "range {off}..{end} out of bounds for a {}-byte buffer", self.len);
    }

    fn page_len(&self, i: usize) -> usize {
        (self.len - i * PAGE).min(PAGE)
    }

    fn page(&self, i: usize) -> &[u8] {
        match &self.pages[i] {
            Some(p) => p,
            None => &ZEROS[..self.page_len(i)],
        }
    }

    /// Make `page` page `i`, releasing the one it replaces.
    fn replace(&mut self, pool: &mut Pool, i: usize, page: Page) {
        release(pool, [std::mem::replace(&mut self.pages[i], page)]);
    }

    /// Page `i` when this buffer alone holds it, writable in place.
    fn owned_page(&mut self, i: usize) -> Option<&mut [u8]> {
        self.pages[i].as_mut().and_then(Arc::get_mut).map(|p| p.0.as_mut_slice())
    }

    /// Page `i` made writable: a never-written page becomes a fresh page of
    /// zeros and a shared one a fresh copy.
    fn page_mut(&mut self, pool: &mut Pool, i: usize) -> &mut [u8] {
        if self.owned_page(i).is_none() {
            let copy = fresh_page(pool, self.page_len(i), |p| match &self.pages[i] {
                Some(old) => p.copy_from_slice(old),
                None => p.fill(0),
            });
            self.replace(pool, i, Some(copy));
        }
        self.owned_page(i).expect("a page just made unshared")
    }

    /// Set every byte of page `i` with `fill`: in place when this buffer
    /// alone holds the page, otherwise in a fresh page that replaces it, so
    /// the bytes being replaced are never zeroed or copied first.
    fn overwrite_page(&mut self, pool: &mut Pool, i: usize, fill: impl FnOnce(&mut [u8])) {
        match self.owned_page(i) {
            Some(page) => fill(page),
            None => {
                let page = fresh_page(pool, self.page_len(i), fill);
                self.replace(pool, i, Some(page));
            }
        }
    }

    /// Set bytes `off..off + n` one page at a time: `set(at, bytes)` must set
    /// every byte of `bytes`, the piece of the range that starts `at` bytes
    /// into it. A piece covering a whole page never copies the bytes it
    /// replaces (see [`Store::overwrite_page`]).
    fn set_bytes(
        &mut self,
        pool: &mut Pool,
        off: usize,
        n: usize,
        mut set: impl FnMut(usize, &mut [u8]),
    ) {
        self.check(off, n);
        for (i, o, at, take) in spans(off, n) {
            if o == 0 && take == self.page_len(i) {
                self.overwrite_page(pool, i, |p| set(at, p));
            } else {
                set(at, &mut self.page_mut(pool, i)[o..o + take]);
            }
        }
    }

    /// Bytes `off..off + n`: borrowed when they sit in one page, gathered
    /// otherwise.
    fn slice(&self, off: usize, n: usize) -> Cow<'_, [u8]> {
        self.check(off, n);
        let o = off % PAGE;
        if o + n <= PAGE {
            return Cow::Borrowed(if n == 0 { &[] } else { &self.page(off / PAGE)[o..o + n] });
        }
        let mut out = Vec::with_capacity(n);
        for (i, o, _, take) in spans(off, n) {
            out.extend_from_slice(&self.page(i)[o..o + take]);
        }
        Cow::Owned(out)
    }

    /// The `f64`s at `off..off + n`.
    fn f64s(&self, off: usize, n: usize) -> Vec<f64> {
        if !off.is_multiple_of(8) {
            return self.slice(off, n).chunks_exact(8).map(f64_le).collect();
        }
        // Aligned: no element straddles a page boundary.
        self.check(off, n);
        let mut out = Vec::with_capacity(n / 8);
        for (i, o, _, take) in spans(off, n) {
            out.extend(self.page(i)[o..o + take].chunks_exact(8).map(f64_le));
        }
        out
    }

    /// Fill `out` with the `f64`s at `off..off + 8 * out.len()`.
    fn f64s_into(&self, off: usize, out: &mut [f64]) {
        let n = out.len() * 8;
        if !off.is_multiple_of(8) {
            for (c, d) in self.slice(off, n).chunks_exact(8).zip(out.iter_mut()) {
                *d = f64_le(c);
            }
            return;
        }
        self.check(off, n);
        let mut out = out.iter_mut();
        for (i, o, _, take) in spans(off, n) {
            // The page's elements first, so the zip stops without taking
            // an `out` slot past them.
            for (c, d) in self.page(i)[o..o + take].chunks_exact(8).zip(out.by_ref()) {
                *d = f64_le(c);
            }
        }
    }

    /// Write `n` bytes at `o` in page `i`: `src`, or zeros for `None`. A
    /// write covering the whole page never copies the bytes it replaces
    /// (see [`Store::overwrite_page`]); whole-page zeros drop the page.
    fn write_in_page(&mut self, pool: &mut Pool, i: usize, o: usize, src: Option<&[u8]>, n: usize) {
        if o == 0 && n == self.page_len(i) {
            match src {
                Some(src) => self.overwrite_page(pool, i, |p| p.copy_from_slice(src)),
                None => self.replace(pool, i, None),
            }
            return;
        }
        match src {
            Some(src) => self.page_mut(pool, i)[o..o + n].copy_from_slice(src),
            None if self.pages[i].is_some() => self.page_mut(pool, i)[o..o + n].fill(0),
            None => {}
        }
    }

    fn write(&mut self, pool: &mut Pool, off: usize, src: &[u8]) {
        self.set_bytes(pool, off, src.len(), |at, d| d.copy_from_slice(&src[at..at + d.len()]));
    }

    /// Write `src` as little-endian `f64`s at `off`.
    fn write_f64s(&mut self, pool: &mut Pool, off: usize, src: &[f64]) {
        let n = src.len() * 8;
        if !off.is_multiple_of(8) {
            let mut bytes = Vec::with_capacity(n);
            for v in src {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            return self.write(pool, off, &bytes);
        }
        // Aligned: no element straddles a page boundary.
        self.set_bytes(pool, off, n, |at, d| {
            for (d, v) in d.chunks_exact_mut(8).zip(&src[at / 8..]) {
                d.copy_from_slice(&v.to_le_bytes());
            }
        });
    }

    /// Write `v` as a little-endian `u64` to each of the `n / 8` words at
    /// `off`, a multiple of 8: one pass, and no page copied or allocated
    /// when this buffer alone holds the pages or the whole of each is set.
    fn fill_u64(&mut self, pool: &mut Pool, off: usize, n: usize, v: u64) {
        let word = v.to_le_bytes();
        let fill = |_, d: &mut [u8]| d.chunks_exact_mut(8).for_each(|w| w.copy_from_slice(&word));
        self.set_bytes(pool, off, n, fill);
    }

    /// Copy `n` bytes of `src` at `src_off` to `off`. A page that both
    /// ranges cover whole, at the same offset into each, is shared rather
    /// than copied.
    fn copy_from(&mut self, pool: &mut Pool, off: usize, src: &Store, src_off: usize, n: usize) {
        self.check(off, n);
        src.check(src_off, n);
        let mut done = 0;
        while done < n {
            let (si, so) = ((src_off + done) / PAGE, (src_off + done) % PAGE);
            let (di, o) = ((off + done) / PAGE, (off + done) % PAGE);
            let take = (n - done).min(PAGE - so).min(PAGE - o);
            if so == 0 && o == 0 && take == src.page_len(si) && take == self.page_len(di) {
                self.replace(pool, di, src.pages[si].clone());
            } else {
                let bytes = src.pages[si].as_ref().map(|p| &p[so..so + take]);
                self.write_in_page(pool, di, o, bytes, take);
            }
            done += take;
        }
    }

    /// `self[off..] += src[src_off..]` over `n` bytes of `f64`s.
    fn accumulate_f64(
        &mut self,
        pool: &mut Pool,
        off: usize,
        src: &Store,
        src_off: usize,
        n: usize,
    ) {
        self.check(off, n);
        let src = src.slice(src_off, n);
        if !off.is_multiple_of(8) {
            // Elements straddle page boundaries: add in a gathered copy.
            let mut sum = self.slice(off, n).into_owned();
            add_f64(&mut sum, &src);
            return self.write(pool, off, &sum);
        }
        for (i, o, at, take) in spans(off, n) {
            let src = &src[at..at + take];
            if o == 0 && take == self.page_len(i) && self.owned_page(i).is_none() {
                // A shared or never-written whole page: write the sums into
                // a fresh page in one pass instead of copying, then adding.
                let old = self.page(i);
                let sum = fresh_page(pool, take, |p| sum_f64(p, old, src));
                self.replace(pool, i, Some(sum));
            } else {
                add_f64(&mut self.page_mut(pool, i)[o..o + take], src);
            }
        }
    }

    /// The same bytes in pages shared with `self`: the source of a copy
    /// within one allocation, read as it was before any write.
    fn snapshot(&self) -> Store {
        Store { len: self.len, pages: self.pages.clone() }
    }
}

struct BufInner {
    id: BufferId,
    space: MemSpace,
    len: usize,
    store: Mutex<Store>,
}

/// A reference-counted simulated memory buffer. Cheap to clone.
///
/// The bytes live in copy-on-write pages, so a copy of whole pages between
/// buffers shares them rather than moving bytes; what any read returns is
/// exactly what a flat byte array would return.
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
                len,
                store: Mutex::new(Store::new(len)),
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
        self.inner.len
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
        self.inner.store.lock().write(&mut Pool::default(), offset, src);
    }

    /// Read `len` bytes starting at `offset`.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        self.inner.store.lock().slice(offset, len).into_owned()
    }

    /// Zero-fill the whole buffer.
    pub fn zero(&self) {
        let mut store = self.inner.store.lock();
        release(&mut Pool::default(), store.pages.iter_mut().map(Option::take));
    }

    /// Functional copy between buffers (the data plane of an RMA put or a
    /// DMA memcpy). Overlapping ranges of one allocation copy as `memmove`.
    pub fn copy_from_buffer(&self, dst_offset: usize, src: &Buffer, src_offset: usize, len: usize) {
        if self.same_allocation(src) {
            let mut store = self.inner.store.lock();
            let mut snapshot = store.snapshot();
            let mut pool = Pool::default();
            store.copy_from(&mut pool, dst_offset, &snapshot, src_offset, len);
            release(&mut pool, snapshot.pages.drain(..));
            return;
        }
        let src_guard = src.inner.store.lock();
        let mut store = self.inner.store.lock();
        store.copy_from(&mut Pool::default(), dst_offset, &src_guard, src_offset, len);
    }

    // ---- f64 views -------------------------------------------------------

    /// Write a slice of `f64` at a byte offset.
    pub fn write_f64_slice(&self, byte_offset: usize, src: &[f64]) {
        self.inner.store.lock().write_f64s(&mut Pool::default(), byte_offset, src);
    }

    /// Read `n` `f64` values from a byte offset.
    pub fn read_f64_slice(&self, byte_offset: usize, n: usize) -> Vec<f64> {
        self.inner.store.lock().f64s(byte_offset, n * 8)
    }

    /// Read `out.len()` `f64` values from a byte offset into `out`: the
    /// allocation-free form of [`Buffer::read_f64_slice`].
    pub fn read_f64_into(&self, byte_offset: usize, out: &mut [f64]) {
        self.inner.store.lock().f64s_into(byte_offset, out);
    }

    /// Read a single `f64`.
    pub fn read_f64(&self, byte_offset: usize) -> f64 {
        f64_le(&self.inner.store.lock().slice(byte_offset, 8))
    }

    /// Write a single `f64`.
    pub fn write_f64(&self, byte_offset: usize, v: f64) {
        self.write_bytes(byte_offset, &v.to_le_bytes());
    }

    /// `self[dst..] += other[src..]` over `n` `f64` elements — the reduction
    /// data plane for allreduce. One pass over both buffers; ranges of one
    /// allocation add a snapshot of the source, as if read before any write.
    pub fn accumulate_f64(&self, dst_offset: usize, other: &Buffer, src_offset: usize, n: usize) {
        if self.same_allocation(other) {
            let mut store = self.inner.store.lock();
            let mut snapshot = store.snapshot();
            let mut pool = Pool::default();
            store.accumulate_f64(&mut pool, dst_offset, &snapshot, src_offset, n * 8);
            release(&mut pool, snapshot.pages.drain(..));
            return;
        }
        let src = other.inner.store.lock();
        let mut store = self.inner.store.lock();
        store.accumulate_f64(&mut Pool::default(), dst_offset, &src, src_offset, n * 8);
    }

    /// Sum of `n` `f64` elements.
    pub fn reduce_sum_f64(&self, byte_offset: usize, n: usize) -> f64 {
        let store = self.inner.store.lock();
        store.slice(byte_offset, n * 8).chunks_exact(8).map(f64_le).sum()
    }

    // ---- u64 flag words (partition status) --------------------------------

    /// Read flag word `index` (8-byte stride).
    pub fn read_flag(&self, index: usize) -> u64 {
        let store = self.inner.store.lock();
        u64::from_le_bytes(store.slice(index * 8, 8)[..].try_into().expect("8 bytes"))
    }

    /// Write flag word `index`.
    pub fn write_flag(&self, index: usize, v: u64) {
        self.write_bytes(index * 8, &v.to_le_bytes());
    }

    /// Write `v` to every flag word in `words`: the bytes of a
    /// [`Buffer::write_flag`] per word, in one operation under one lock.
    /// Stamping every flag of a buffer that no other buffer shares allocates
    /// nothing.
    pub fn fill_flags(&self, words: Range<usize>, v: u64) {
        let n = words.end.checked_sub(words.start).expect("flag range runs backwards");
        self.inner.store.lock().fill_u64(&mut Pool::default(), words.start * 8, n * 8, v);
    }
}

/// A little-endian `f64` from an 8-byte slice.
fn f64_le(b: &[u8]) -> f64 {
    f64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// `dst += src`, both little-endian `f64` byte slices of equal length.
fn add_f64(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
        let v = f64_le(d) + f64_le(s);
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// `dst = a + b`, all little-endian `f64` byte slices of equal length.
fn sum_f64(dst: &mut [u8], a: &[u8], b: &[u8]) {
    for ((d, a), b) in dst.chunks_exact_mut(8).zip(a.chunks_exact(8)).zip(b.chunks_exact(8)) {
        d.copy_from_slice(&(f64_le(a) + f64_le(b)).to_le_bytes());
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

    /// A pattern of `n` bytes that is nonzero in every page.
    fn pattern(n: usize, salt: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 7 + salt) % 251 + 1) as u8).collect()
    }

    /// True when page `i` of `a` and page `j` of `b` are one shared page.
    fn shares_page(a: &Buffer, i: usize, b: &Buffer, j: usize) -> bool {
        let (a, b) = (a.inner.store.lock(), b.inner.store.lock());
        matches!((&a.pages[i], &b.pages[j]), (Some(x), Some(y)) if Arc::ptr_eq(x, y))
    }

    #[test]
    fn whole_page_copy_shares_and_a_write_unshares() {
        let src = host_buf(2 * PAGE);
        let dst = host_buf(3 * PAGE + 100);
        let bytes = pattern(2 * PAGE, 0);
        src.write_bytes(0, &bytes);
        dst.copy_from_buffer(PAGE, &src, 0, 2 * PAGE);
        assert!(shares_page(&dst, 1, &src, 0) && shares_page(&dst, 2, &src, 1));
        // A write to the source copies its page first: the destination
        // keeps the bytes of the copy.
        src.write_bytes(PAGE + 5, &[0xFF; 3]);
        assert!(!shares_page(&dst, 2, &src, 1));
        assert_eq!(dst.read_bytes(PAGE, 2 * PAGE), bytes);
        // And the other way round.
        dst.write_bytes(PAGE + 1, &[0xEE]);
        assert_eq!(src.read_bytes(0, PAGE), bytes[..PAGE]);
        // Misaligned ranges copy bytes; a short tail page is never shared
        // with a full one.
        dst.copy_from_buffer(8, &src, 0, PAGE);
        dst.copy_from_buffer(3 * PAGE, &src, 0, 100);
        assert!(!shares_page(&dst, 0, &src, 0) && !shares_page(&dst, 3, &src, 0));
        assert_eq!(dst.read_bytes(3 * PAGE, 100), bytes[..100]);
    }

    #[test]
    fn aliased_overlapping_copy_after_a_share_moves() {
        let other = host_buf(3 * PAGE);
        let b = host_buf(3 * PAGE);
        let bytes = pattern(3 * PAGE, 3);
        other.write_bytes(0, &bytes);
        b.copy_from_buffer(0, &other, 0, 3 * PAGE);
        // Every page of `b` is shared with `other`; move forward by a page
        // and 8 bytes through an aliasing handle.
        b.clone().copy_from_buffer(PAGE + 8, &b, 0, 2 * PAGE - 8);
        let mut want = bytes.clone();
        want.copy_within(0..2 * PAGE - 8, PAGE + 8);
        assert_eq!(b.read_bytes(0, 3 * PAGE), want);
        // A page-aligned backward move shares pages within one buffer.
        b.copy_from_buffer(0, &b.clone(), PAGE, 2 * PAGE);
        want.copy_within(PAGE..3 * PAGE, 0);
        assert_eq!(b.read_bytes(0, 3 * PAGE), want);
        let pages = &b.inner.store.lock().pages;
        assert!(matches!((&pages[1], &pages[2]), (Some(x), Some(y)) if Arc::ptr_eq(x, y)));
        assert_eq!(other.read_bytes(0, 3 * PAGE), bytes, "the source of the share is untouched");
    }

    /// A value in `0..=max` drawn from `x`, biased to page boundaries and
    /// the bytes around them.
    fn pick(x: u64, max: usize) -> usize {
        let k = (x >> 2) as usize;
        let v = match x % 4 {
            0 => k % (max / PAGE + 1) * PAGE,
            1 => (k % (max / PAGE + 2) * PAGE + k % 17).saturating_sub(8),
            _ => k % (max + 1),
        };
        v.min(max)
    }

    /// One encoded `Buffer` operation: kind and buffers, then three
    /// operands that [`pick`] turns into offsets, lengths and values.
    type Op = (u64, u64, u64, u64);

    /// Apply one encoded operation to three buffers and to their flat
    /// `Vec<u8>` models; `Err` when a read disagrees.
    fn apply(
        bufs: &mut [Buffer],
        model: &mut [Vec<u8>],
        (a, b, c, d): Op,
    ) -> Result<(), String> {
        let (x, y) = ((a / 10 % 3) as usize, (a / 30 % 3) as usize);
        let (len, other_len) = (model[x].len(), model[y].len());
        let value = |i: usize| (d.wrapping_mul(i as u64 + 1) >> 40) as f64 * 0.25 - 1000.0;
        let f64s = |m: &[u8]| m.chunks_exact(8).map(f64_le).collect::<Vec<_>>();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        match a % 10 {
            0 => {
                let off = pick(b, len);
                let n = pick(c, len - off);
                let src: Vec<u8> =
                    (0..n).map(|i| (d.wrapping_mul(i as u64 + 1) >> 24) as u8).collect();
                bufs[x].write_bytes(off, &src);
                model[x][off..off + n].copy_from_slice(&src);
            }
            1 => {
                let off = pick(b, len);
                let n = pick(c, len - off);
                if bufs[x].read_bytes(off, n) != model[x][off..off + n] {
                    return Err(format!("read_bytes({off}, {n}) of buffer {x}"));
                }
            }
            2 => {
                let off = pick(b, len);
                let vals: Vec<f64> = (0..pick(c, len - off) / 8).map(value).collect();
                bufs[x].write_f64_slice(off, &vals);
                for (i, v) in vals.iter().enumerate() {
                    model[x][off + 8 * i..off + 8 * i + 8].copy_from_slice(&v.to_le_bytes());
                }
            }
            3 => {
                let off = pick(b, len);
                let n = pick(c, len - off) / 8;
                let got = bits(bufs[x].read_f64_slice(off, n));
                if got != bits(f64s(&model[x][off..off + 8 * n])) {
                    return Err(format!("read_f64_slice({off}, {n}) of buffer {x}"));
                }
                let mut into = vec![f64::NAN; n];
                bufs[x].read_f64_into(off, &mut into);
                if bits(into) != got {
                    return Err(format!("read_f64_into({off}, {n}) of buffer {x}"));
                }
                let sum = bufs[x].reduce_sum_f64(off, n).to_bits();
                if sum != f64s(&model[x][off..off + 8 * n]).into_iter().sum::<f64>().to_bits() {
                    return Err(format!("reduce_sum_f64({off}, {n}) of buffer {x}"));
                }
            }
            4 => {
                let n = pick(c, len.min(other_len));
                let (off, src_off) = (pick(b, len - n), pick(d, other_len - n));
                // An aliasing handle when both sides are one buffer.
                bufs[x].copy_from_buffer(off, &bufs[y].clone(), src_off, n);
                let src = model[y][src_off..src_off + n].to_vec();
                model[x][off..off + n].copy_from_slice(&src);
            }
            5 => {
                let n = pick(c, len.min(other_len)) / 8;
                let (off, src_off) = (pick(b, len - 8 * n), pick(d, other_len - 8 * n));
                bufs[x].accumulate_f64(off, &bufs[y].clone(), src_off, n);
                let src = model[y][src_off..src_off + 8 * n].to_vec();
                add_f64(&mut model[x][off..off + 8 * n], &src);
            }
            6 => {
                bufs[x].zero();
                model[x].fill(0);
            }
            7 if len >= 8 => {
                let i = b as usize % (len / 8);
                bufs[x].write_flag(i, d);
                model[x][8 * i..8 * i + 8].copy_from_slice(&d.to_le_bytes());
                let words = pick(b >> 32, len / 8 - i);
                bufs[x].fill_flags(i..i + words, !d);
                for w in model[x][8 * i..8 * (i + words)].chunks_exact_mut(8) {
                    w.copy_from_slice(&(!d).to_le_bytes());
                }
                let off = pick(c, len - 8);
                bufs[x].write_f64(off, value(0));
                model[x][off..off + 8].copy_from_slice(&value(0).to_le_bytes());
            }
            8 if len >= 8 => {
                let i = b as usize % (len / 8);
                let want =
                    u64::from_le_bytes(model[x][8 * i..8 * i + 8].try_into().expect("8 bytes"));
                if bufs[x].read_flag(i) != want {
                    return Err(format!("read_flag({i}) of buffer {x}"));
                }
                let off = pick(c, len - 8);
                if bufs[x].read_f64(off).to_bits() != f64_le(&model[x][off..off + 8]).to_bits() {
                    return Err(format!("read_f64({off}) of buffer {x}"));
                }
            }
            9 => {
                // Drop the buffer and allocate a new one: its pages go to
                // the free list, and the new buffer must still read as zeros
                // wherever it is not written.
                bufs[x] = host_buf(len);
                model[x].fill(0);
            }
            _ => {}
        }
        Ok(())
    }

    /// Put more pages of non-zero bytes on the free list than the three
    /// buffers of a case can hold, full pages and short last pages of each
    /// length in `lens`, so every page a case writes is a recycled one
    /// whose stale bytes must never show.
    fn fill_free_list(lens: &[usize]) {
        let junk = host_buf(16 * PAGE);
        junk.write_bytes(0, &pattern(16 * PAGE, 5));
        for short in lens.iter().map(|n| n % PAGE).filter(|&n| n > 0) {
            for salt in 0..8 {
                host_buf(short).write_bytes(0, &pattern(short, salt));
            }
        }
    }

    #[test]
    fn dropped_pages_of_every_length_are_reused() {
        // A length no other test allocates, so only this test touches its
        // free list.
        const SHORT: usize = 4_104;
        let page = |b: &Buffer| b.inner.store.lock().pages[0].as_ref().map(Arc::as_ptr);
        let first = host_buf(SHORT);
        first.write_bytes(0, &pattern(SHORT, 1));
        let recycled = page(&first);
        drop(first);
        for salt in 0..8 {
            let b = host_buf(SHORT);
            assert_eq!(b.read_bytes(0, SHORT), vec![0; SHORT]);
            b.write_flag(7, 1);
            assert_eq!(page(&b), recycled, "the dropped page, Arc and all, is taken again");
            assert_eq!(b.read_bytes(0, 56), vec![0; 56], "a recycled page shows no stale bytes");
            b.write_bytes(0, &pattern(SHORT, salt));
        }
    }

    #[test]
    fn pages_behave_like_a_flat_byte_array() {
        parcomm_testkit::prop::check(
            &parcomm_testkit::prop::PropConfig::with_cases(96),
            "pages_behave_like_a_flat_byte_array",
            |rng| {
                let sizes: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
                let ops = (0..rng.uniform_range(1, 48))
                    .map(|_| (rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()))
                    .collect::<Vec<_>>();
                (sizes, ops)
            },
            |(sizes, ops): &(Vec<u64>, Vec<Op>)| -> Result<(), String> {
                let lens: Vec<usize> = (0..3)
                    .map(|i| pick(sizes.get(i).copied().unwrap_or(0), 4 * PAGE + 40))
                    .collect();
                fill_free_list(&lens);
                let mut bufs: Vec<Buffer> = lens.iter().map(|&n| host_buf(n)).collect();
                let mut model: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0; n]).collect();
                for (k, &op) in ops.iter().enumerate() {
                    apply(&mut bufs, &mut model, op).map_err(|e| format!("op {k} {op:?}: {e}"))?;
                }
                for (x, buf) in bufs.iter().enumerate() {
                    if buf.len() != lens[x] || buf.read_bytes(0, lens[x]) != model[x] {
                        return Err(format!(
                            "buffer {x} (len {}) diverged from its model",
                            lens[x]
                        ));
                    }
                }
                Ok(())
            },
        );
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
