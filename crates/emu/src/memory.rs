//! The emulated flat memory: permissioned regions over page-granular
//! copy-on-write storage.
//!
//! Each region is a two-level structure: a page table of fixed-size
//! [`PAGE_SIZE`]-byte pages, each either the shared all-zero page (the
//! fast path that makes the untouched 1 MiB stack cost nothing) or an
//! [`Arc`]-shared data page. Cloning a `Memory` (and therefore
//! snapshotting a machine) is O(pages) reference-count bumps; a write
//! after a clone copies only the touched 4 KiB page via
//! [`Arc::make_mut`], not the whole region. Both the first-write cost
//! after a snapshot restore and the retained footprint of a checkpoint
//! are therefore proportional to the bytes actually dirtied — the
//! property the `rr-engine` checkpointed replay engine's byte-budget
//! retention ([`ReplayConfig::max_retained_bytes`] there) is built on.
//!
//! ## Contiguous reads over paged storage
//!
//! The read API still hands out contiguous `&[u8]` slices
//! ([`Memory::slice`], [`Memory::fetch`], [`Memory::peek`]) even though
//! storage is paged: every page buffer carries a [`STRADDLE_TAIL`]-byte
//! *mirror* of the following page's first bytes, so any access of up to
//! [`STRADDLE_TAIL`] bytes — larger than the biggest architectural
//! access, a [`MAX_INSTR_LEN`]-byte instruction fetch — is contiguous
//! inside a single page buffer no matter where it falls. Writes keep the
//! mirrors coherent (a write into the first bytes of a page also updates
//! the tail of its predecessor). Reads longer than the tail succeed only
//! when they do not cross a page-buffer boundary; no emulator or
//! campaign path issues one (use [`Memory::read_bytes`] for an owned
//! gather of arbitrary length).
//!
//! ## Dirty accounting
//!
//! [`Memory::stats`] reports residency (materialized vs zero pages) and
//! [`Memory::delta`] compares two memories of the same layout by page
//! *identity*, counting pages whose backing is no longer shared. The
//! delta also reports what region-granular COW (the previous design)
//! would have retained for the same divergence, which is how the
//! snapshot-footprint benchmark gates the ≥10× improvement.

use rr_isa::{MAX_INSTR_LEN, STACK_SIZE, STACK_TOP};
use rr_obj::{Executable, SegmentPerms};
use std::sync::Arc;

/// Bytes per copy-on-write page.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of the following page mirrored at the end of each page buffer;
/// the maximum length guaranteed to be readable as one contiguous slice
/// from any mapped, permitted address.
pub const STRADDLE_TAIL: usize = 64;

/// Stored bytes per page: the page itself plus the straddle mirror.
const PAGE_STORE: usize = PAGE_SIZE + STRADDLE_TAIL;

/// Backing store for every [`Page::Zero`] read.
static ZERO_STORE: [u8; PAGE_STORE] = [0; PAGE_STORE];

const _: () = assert!(MAX_INSTR_LEN <= STRADDLE_TAIL, "fetch must fit the straddle window");

/// The kind of memory access that failed (or is being checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Execute => "execute",
        })
    }
}

/// One fixed-size unit of copy-on-write storage.
#[derive(Clone)]
enum Page {
    /// Entirely zero (including the mirror tail); reads are served from
    /// one shared static buffer and no allocation exists.
    Zero,
    /// Materialized contents, shared between clones until written.
    Data(Arc<[u8; PAGE_STORE]>),
}

impl Page {
    fn as_slice(&self) -> &[u8; PAGE_STORE] {
        match self {
            Page::Zero => &ZERO_STORE,
            Page::Data(bytes) => bytes,
        }
    }

    /// Whether two pages share the same backing (zero pages all do).
    fn same_backing(&self, other: &Page) -> bool {
        match (self, other) {
            (Page::Zero, Page::Zero) => true,
            (Page::Data(a), Page::Data(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Page::Zero => f.write_str("Zero"),
            Page::Data(_) => f.write_str("Data(..)"),
        }
    }
}

#[derive(Debug, Clone)]
struct Region {
    start: u64,
    /// Mapped length in bytes (the page table may cover slightly more).
    len: usize,
    perms: SegmentPerms,
    pages: Vec<Page>,
}

impl Region {
    /// Builds a region from initial contents zero-extended to `mem_size`.
    fn new(start: u64, perms: SegmentPerms, data: &[u8], mem_size: usize) -> Region {
        let pages = (0..mem_size.div_ceil(PAGE_SIZE))
            .map(|p| {
                let base = p * PAGE_SIZE;
                if base >= data.len() {
                    return Page::Zero;
                }
                // The buffer takes PAGE_STORE bytes starting at the page
                // base, which seeds the mirror tail from the next page's
                // data in the same copy.
                let mut buf = [0u8; PAGE_STORE];
                let end = data.len().min(base + PAGE_STORE);
                buf[..end - base].copy_from_slice(&data[base..end]);
                if buf.iter().all(|&b| b == 0) {
                    Page::Zero
                } else {
                    Page::Data(Arc::new(buf))
                }
            })
            .collect();
        Region { start, len: mem_size, perms, pages }
    }

    fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Contiguous view of `len` bytes at region offset `offset`, if the
    /// range is mapped and fits one page buffer (always true for
    /// `len <= STRADDLE_TAIL`).
    fn read(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        if len == 0 {
            return Some(&[]);
        }
        let page = offset / PAGE_SIZE;
        let in_page = offset % PAGE_SIZE;
        self.pages[page].as_slice().get(in_page..in_page + len)
    }

    /// Mutable access to page `p`, materializing zero pages and copying
    /// shared ones (the page-granular copy-on-write step).
    fn page_mut(&mut self, p: usize) -> &mut [u8; PAGE_STORE] {
        let page = &mut self.pages[p];
        if let Page::Zero = page {
            *page = Page::Data(Arc::new([0u8; PAGE_STORE]));
        }
        match page {
            Page::Data(bytes) => Arc::make_mut(bytes),
            Page::Zero => unreachable!("zero page was just materialized"),
        }
    }

    /// Writes `data` at region offset `offset`, keeping the mirror tails
    /// of preceding pages coherent. Returns `false` when the range is not
    /// fully mapped. Zero writes to zero pages are absorbed without
    /// materializing, so zero-filling untouched memory stays free.
    fn write(&mut self, offset: usize, data: &[u8]) -> bool {
        let Some(end) = offset.checked_add(data.len()) else { return false };
        if end > self.len {
            return false;
        }
        if data.is_empty() {
            return true;
        }
        let first = offset / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        for p in first..=last {
            let base = p * PAGE_SIZE;
            let lo = offset.max(base);
            let hi = end.min(base + PAGE_SIZE);
            let chunk = &data[lo - offset..hi - offset];
            if matches!(self.pages[p], Page::Zero) && chunk.iter().all(|&b| b == 0) {
                continue;
            }
            self.page_mut(p)[lo - base..hi - base].copy_from_slice(chunk);
        }
        // A page buffer mirrors the first STRADDLE_TAIL bytes of its
        // successor; refresh the mirrors the write touched.
        for p in first.max(1)..=last {
            let base = p * PAGE_SIZE;
            let lo = offset.max(base);
            let hi = end.min(base + STRADDLE_TAIL);
            if lo < hi {
                let chunk = &data[lo - offset..hi - offset];
                if matches!(self.pages[p - 1], Page::Zero) && chunk.iter().all(|&b| b == 0) {
                    continue;
                }
                self.page_mut(p - 1)[PAGE_SIZE + lo - base..PAGE_SIZE + hi - base]
                    .copy_from_slice(chunk);
            }
        }
        true
    }
}

/// The emulated address space: a small set of non-overlapping permissioned
/// regions (program segments plus the stack).
#[derive(Debug, Clone)]
pub struct Memory {
    regions: Vec<Region>,
    /// Byte ranges of *executable* memory overwritten since load: pokes
    /// from fault injection, plus checked writes in the (unusual) case
    /// of a region mapped write+exec. Cloned with the memory, so
    /// snapshot/restore rewinds it together with the bytes — the
    /// block-cached execution fast path consults this to keep modified
    /// code out of the shared block cache.
    exec_dirty: Vec<std::ops::Range<u64>>,
}

/// Result of a memory access: the value, or the failed access description.
pub type MemResult<T> = Result<T, (u64, AccessKind)>;

/// Residency of one [`Memory`]: how much of the mapped address space is
/// materialized versus on the shared zero-page fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Total mapped bytes across all regions.
    pub mapped_bytes: u64,
    /// Total pages across all regions.
    pub total_pages: u64,
    /// Pages on the shared zero fast path (no allocation).
    pub zero_pages: u64,
    /// Materialized pages (each holds a private or shared allocation).
    pub resident_pages: u64,
    /// `resident_pages × PAGE_SIZE`.
    pub resident_bytes: u64,
}

/// Divergence between two memories of identical layout, measured by page
/// *identity*: a page counts as dirty when its backing is no longer the
/// same allocation (or both the shared zero page).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryDelta {
    /// Pages whose backing differs.
    pub pages: u64,
    /// `pages × PAGE_SIZE` — what page-granular COW retains privately.
    pub bytes: u64,
    /// Regions with at least one differing page.
    pub regions: u64,
    /// Total mapped length of those regions — what region-granular COW
    /// (one allocation per region) would retain for the same divergence.
    pub region_bytes: u64,
}

impl MemoryDelta {
    /// No page diverged.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }
}

impl Memory {
    /// Builds the address space for `exe`: every segment, zero-extended to
    /// its `mem_size`, plus a zeroed read-write stack of [`STACK_SIZE`]
    /// bytes ending at [`STACK_TOP`]. The stack (and every zero tail)
    /// starts on the shared zero page, costing no allocation until
    /// written.
    pub fn for_executable(exe: &Executable) -> Memory {
        let mut regions: Vec<Region> = exe
            .segments
            .iter()
            .map(|seg| Region::new(seg.addr, seg.perms, &seg.data, seg.mem_size as usize))
            .collect();
        regions.push(Region::new(
            STACK_TOP - STACK_SIZE,
            SegmentPerms::RW,
            &[],
            STACK_SIZE as usize,
        ));
        regions.sort_by_key(|r| r.start);
        Memory { regions, exec_dirty: Vec::new() }
    }

    fn region(&self, addr: u64) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    fn region_mut(&mut self, addr: u64) -> Option<&mut Region> {
        self.regions.iter_mut().find(|r| r.contains(addr))
    }

    /// Checked slice access: `len` bytes at `addr`, all within one region
    /// that satisfies `access` permissions. Lengths up to
    /// [`STRADDLE_TAIL`] are always contiguously servable; longer
    /// requests fail if they cross a page buffer.
    pub fn slice(&self, addr: u64, len: usize, access: AccessKind) -> MemResult<&[u8]> {
        let region = self.region(addr).ok_or((addr, access))?;
        let allowed = match access {
            AccessKind::Read => region.perms.read,
            AccessKind::Write => region.perms.write,
            AccessKind::Execute => region.perms.exec,
        };
        if !allowed {
            return Err((addr, access));
        }
        let offset = (addr - region.start) as usize;
        region.read(offset, len).ok_or((addr, access))
    }

    /// Reads an unsigned 64-bit little-endian word.
    pub fn read_u64(&self, addr: u64) -> MemResult<u64> {
        let bytes = self.slice(addr, 8, AccessKind::Read)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("length checked")))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> MemResult<u8> {
        Ok(self.slice(addr, 1, AccessKind::Read)?[0])
    }

    /// Writes a 64-bit little-endian word (permission-checked).
    pub fn write_u64(&mut self, addr: u64, value: u64) -> MemResult<()> {
        self.write_checked(addr, &value.to_le_bytes())
    }

    /// Writes one byte (permission-checked).
    pub fn write_u8(&mut self, addr: u64, value: u8) -> MemResult<()> {
        self.write_checked(addr, &[value])
    }

    fn write_checked(&mut self, addr: u64, data: &[u8]) -> MemResult<()> {
        let region = self.region_mut(addr).ok_or((addr, AccessKind::Write))?;
        if !region.perms.write {
            return Err((addr, AccessKind::Write));
        }
        let offset = (addr - region.start) as usize;
        let exec = region.perms.exec;
        if region.write(offset, data) {
            if exec && !data.is_empty() {
                self.exec_dirty.push(addr..addr + data.len() as u64);
            }
            Ok(())
        } else {
            Err((addr, AccessKind::Write))
        }
    }

    /// Fetches up to `max_len` executable bytes starting at `addr` (fewer if
    /// the region ends sooner). Errors if `addr` is not executable.
    pub fn fetch(&self, addr: u64, max_len: usize) -> MemResult<&[u8]> {
        let region = self.region(addr).ok_or((addr, AccessKind::Execute))?;
        if !region.perms.exec {
            return Err((addr, AccessKind::Execute));
        }
        let offset = (addr - region.start) as usize;
        let len = max_len.min(region.len - offset);
        region.read(offset, len).ok_or((addr, AccessKind::Execute))
    }

    /// Writes bytes ignoring permissions — the *physical* access a fault
    /// injector has (a laser does not consult the MMU).
    ///
    /// Returns `false` if the range is not fully inside one mapped region.
    pub fn poke(&mut self, addr: u64, data: &[u8]) -> bool {
        let Some(region) = self.region_mut(addr) else { return false };
        let offset = (addr - region.start) as usize;
        let exec = region.perms.exec;
        if !region.write(offset, data) {
            return false;
        }
        if exec && !data.is_empty() {
            self.exec_dirty.push(addr..addr + data.len() as u64);
        }
        true
    }

    /// Whether any executable byte in `start..end` has been overwritten
    /// since this memory was built (or, for a restored machine, since the
    /// snapshot it came from was captured — the dirty list rewinds with
    /// the bytes). The block-cached execution path uses this to keep code
    /// a fault injection has modified out of the shared block cache; such
    /// code runs from blocks each run decodes from the current bytes.
    pub fn exec_dirty_intersects(&self, start: u64, end: u64) -> bool {
        !self.exec_dirty.is_empty()
            && self.exec_dirty.iter().any(|r| r.start < end && start < r.end)
    }

    /// Monotonic count of executable-range overwrites — a cheap "did code
    /// change since I last looked" check for callers holding decoded
    /// instructions (grows on every exec-range [`Memory::poke`]/write,
    /// rewinds on restore).
    pub fn exec_dirty_epoch(&self) -> usize {
        self.exec_dirty.len()
    }

    /// Whether every writable region is also readable. This is the
    /// precondition for the uop optimizer's store-to-load forwarding: a
    /// load may only be replaced by the value a preceding store wrote if
    /// reading the stored-to address back would itself have been a
    /// permitted access.
    pub fn writable_implies_readable(&self) -> bool {
        self.regions.iter().all(|r| !r.perms.write || r.perms.read)
    }

    /// Reads bytes ignoring permissions (inspection/forensics counterpart
    /// of [`Memory::poke`]). Same contiguity contract as [`Memory::slice`].
    pub fn peek(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let region = self.region(addr)?;
        region.read((addr - region.start) as usize, len)
    }

    /// Owned read of arbitrary length ignoring permissions, gathering
    /// across pages — for inspection paths that need more than the
    /// [`STRADDLE_TAIL`] zero-copy window.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Option<Vec<u8>> {
        let region = self.region(addr)?;
        let offset = (addr - region.start) as usize;
        if offset.checked_add(len)? > region.len {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        let mut at = offset;
        while at < offset + len {
            let chunk = (offset + len - at).min(PAGE_SIZE - at % PAGE_SIZE);
            out.extend_from_slice(region.read(at, chunk)?);
            at += chunk;
        }
        Some(out)
    }

    /// Residency of this memory (see [`MemoryStats`]).
    pub fn stats(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for region in &self.regions {
            stats.mapped_bytes += region.len as u64;
            stats.total_pages += region.pages.len() as u64;
            for page in &region.pages {
                match page {
                    Page::Zero => stats.zero_pages += 1,
                    Page::Data(_) => stats.resident_pages += 1,
                }
            }
        }
        stats.resident_bytes = stats.resident_pages * PAGE_SIZE as u64;
        stats
    }

    /// What page-granular COW would retain for this memory against
    /// `baseline` under a **hypothetical** page size, in bytes: exact
    /// byte-level diffing resampled onto a `page_size`-aligned grid.
    ///
    /// [`PAGE_SIZE`] is a compile-time constant, so alternative
    /// granularities can't be measured by recompiling per point; this
    /// analytic sweep answers "what would 1 KiB / 16 KiB pages have
    /// retained?" for the same recording instead. Pages with identical
    /// backing are skipped wholesale, so the scan only touches pages the
    /// real COW copied. Byte-identical rewrites (a page copied for a
    /// write that stored the same value) count as clean here but dirty
    /// in [`Memory::delta`]'s identity accounting, so the result at
    /// `PAGE_SIZE` is a lower bound on [`MemoryDelta::bytes`].
    pub fn retained_bytes_at(&self, baseline: &Memory, page_size: usize) -> u64 {
        assert!(page_size > 0, "page size must be positive");
        assert_eq!(self.regions.len(), baseline.regions.len(), "memory layouts differ");
        fn visible(page: &Page) -> &[u8] {
            const ZERO: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];
            match page {
                Page::Zero => &ZERO[..],
                Page::Data(buf) => &buf[..PAGE_SIZE],
            }
        }
        let mut chunks = std::collections::BTreeSet::new();
        for (a, b) in self.regions.iter().zip(&baseline.regions) {
            assert_eq!((a.start, a.len), (b.start, b.len), "memory layouts differ");
            for (p, (pa, pb)) in a.pages.iter().zip(&b.pages).enumerate() {
                if pa.same_backing(pb) {
                    continue;
                }
                let page_base = p * PAGE_SIZE;
                let mapped = a.len.saturating_sub(page_base).min(PAGE_SIZE);
                let (da, db) = (visible(pa), visible(pb));
                let mut i = 0;
                while i < mapped {
                    if da[i] == db[i] {
                        i += 1;
                        continue;
                    }
                    let addr = a.start + (page_base + i) as u64;
                    let chunk = addr / page_size as u64;
                    chunks.insert(chunk);
                    // The whole chunk is retained either way; skip to
                    // its end.
                    let chunk_end = (chunk + 1) * page_size as u64;
                    i = ((chunk_end - a.start) as usize - page_base).clamp(i + 1, mapped);
                }
            }
        }
        chunks.len() as u64 * page_size as u64
    }

    /// Page-identity divergence from `baseline` (see [`MemoryDelta`]).
    /// Both memories must come from the same executable.
    pub fn delta(&self, baseline: &Memory) -> MemoryDelta {
        assert_eq!(self.regions.len(), baseline.regions.len(), "memory layouts differ");
        let mut delta = MemoryDelta::default();
        for (a, b) in self.regions.iter().zip(&baseline.regions) {
            assert_eq!((a.start, a.len), (b.start, b.len), "memory layouts differ");
            let dirty =
                a.pages.iter().zip(&b.pages).filter(|(pa, pb)| !pa.same_backing(pb)).count() as u64;
            if dirty > 0 {
                delta.pages += dirty;
                delta.regions += 1;
                delta.region_bytes += a.len as u64;
            }
        }
        delta.bytes = delta.pages * PAGE_SIZE as u64;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_obj::{SectionKind, Segment};

    fn demo_memory() -> Memory {
        let exe = Executable {
            segments: vec![
                Segment {
                    addr: 0x1000,
                    data: vec![0x01, 0x02],
                    mem_size: 2,
                    perms: SegmentPerms::RX,
                    section: SectionKind::Text,
                },
                Segment {
                    addr: 0x2000,
                    data: vec![0xAA; 4],
                    mem_size: 16,
                    perms: SegmentPerms::RW,
                    section: SectionKind::Data,
                },
            ],
            entry: 0x1000,
            symbols: vec![],
        };
        Memory::for_executable(&exe)
    }

    /// A RW region spanning several pages, for boundary tests.
    fn paged_memory() -> Memory {
        let mut data = vec![0u8; 2 * PAGE_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let exe = Executable {
            segments: vec![Segment {
                addr: 0x10000,
                data,
                mem_size: (3 * PAGE_SIZE + 100) as u64,
                perms: SegmentPerms::RW,
                section: SectionKind::Data,
            }],
            entry: 0x10000,
            symbols: vec![],
        };
        Memory::for_executable(&exe)
    }

    #[test]
    fn zero_extension_of_segments() {
        let mem = demo_memory();
        assert_eq!(mem.read_u8(0x2003).unwrap(), 0xAA);
        assert_eq!(mem.read_u8(0x2004).unwrap(), 0); // zero tail
        assert_eq!(mem.read_u8(0x200F).unwrap(), 0);
        assert!(mem.read_u8(0x2010).is_err());
    }

    #[test]
    fn permissions_enforced() {
        let mut mem = demo_memory();
        // Writing code faults (W^X).
        assert_eq!(mem.write_u8(0x1000, 0), Err((0x1000, AccessKind::Write)));
        // Executing data faults.
        assert_eq!(mem.fetch(0x2000, 4).unwrap_err(), (0x2000, AccessKind::Execute));
        // Reading code is allowed.
        assert_eq!(mem.read_u8(0x1000).unwrap(), 0x01);
        // Writing data is allowed.
        mem.write_u64(0x2000, 7).unwrap();
        assert_eq!(mem.read_u64(0x2000).unwrap(), 7);
    }

    #[test]
    fn word_access_must_fit_one_region() {
        let mem = demo_memory();
        // 8-byte read straddling the end of the data region fails.
        assert!(mem.read_u64(0x2008).is_ok());
        assert!(mem.read_u64(0x2009).is_err());
    }

    #[test]
    fn stack_is_mapped_rw() {
        let mut mem = demo_memory();
        let sp = STACK_TOP - 8;
        mem.write_u64(sp, 0xFEED).unwrap();
        assert_eq!(mem.read_u64(sp).unwrap(), 0xFEED);
        // Just below the stack is unmapped (stack overflow detection).
        assert!(mem.write_u64(STACK_TOP - STACK_SIZE - 8, 1).is_err());
    }

    #[test]
    fn fetch_truncates_at_region_end() {
        let mem = demo_memory();
        assert_eq!(mem.fetch(0x1001, 10).unwrap(), &[0x02]);
        assert!(mem.fetch(0x0, 1).is_err());
    }

    #[test]
    fn untouched_stack_stays_on_the_zero_page() {
        let mem = demo_memory();
        let stats = mem.stats();
        let stack_pages = (STACK_SIZE as usize / PAGE_SIZE) as u64;
        assert!(stats.zero_pages >= stack_pages, "{stats:?}");
        // The demo segments fit two materialized pages at most.
        assert!(stats.resident_pages <= 2, "{stats:?}");
        assert_eq!(stats.resident_bytes, stats.resident_pages * PAGE_SIZE as u64);
        assert_eq!(stats.total_pages, stats.zero_pages + stats.resident_pages);
    }

    #[test]
    fn clones_share_until_written() {
        let mut mem = demo_memory();
        let snapshot = mem.clone();
        // All pages are shared right after the clone.
        assert!(mem.delta(&snapshot).is_empty());
        // Writing the data region unshares exactly one 4 KiB page of it.
        mem.write_u64(0x2000, 0xDEAD_BEEF).unwrap();
        let delta = mem.delta(&snapshot);
        assert_eq!(delta.pages, 1);
        assert_eq!(delta.bytes, PAGE_SIZE as u64);
        assert_eq!(delta.regions, 1);
        assert_eq!(delta.region_bytes, 16, "region-COW would retain the whole region");
        // The snapshot still sees the pre-write value.
        assert_eq!(snapshot.read_u64(0x2000).unwrap(), 0xAAAA_AAAA);
        assert_eq!(mem.read_u64(0x2000).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn stack_write_dirties_one_page_not_the_region() {
        let mut mem = demo_memory();
        let snapshot = mem.clone();
        mem.write_u64(STACK_TOP - 8, 0xFEED).unwrap();
        let delta = mem.delta(&snapshot);
        assert_eq!(delta.pages, 1, "one page of the 1 MiB stack");
        assert_eq!(delta.region_bytes, STACK_SIZE, "region-COW would retain the whole stack");
        assert!(delta.bytes * 10 <= delta.region_bytes);
    }

    #[test]
    fn poke_also_unshares() {
        let mut mem = demo_memory();
        let snapshot = mem.clone();
        assert!(mem.poke(0x1000, &[0x55]));
        assert_eq!(snapshot.peek(0x1000, 1).unwrap(), &[0x01]);
        assert_eq!(mem.peek(0x1000, 1).unwrap(), &[0x55]);
        assert_eq!(mem.delta(&snapshot).pages, 1);
    }

    #[test]
    fn poke_ignores_permissions() {
        let mut mem = demo_memory();
        assert!(mem.poke(0x1000, &[0xFF]));
        assert_eq!(mem.peek(0x1000, 1).unwrap(), &[0xFF]);
        // Out-of-bounds poke reports failure.
        assert!(!mem.poke(0x1001, &[0, 0]));
        assert!(!mem.poke(0x9999_0000, &[1]));
    }

    #[test]
    fn exec_dirty_tracks_code_overwrites_and_rewinds_with_clones() {
        let mut mem = demo_memory();
        assert!(!mem.exec_dirty_intersects(0x1000, 0x1002));
        assert_eq!(mem.exec_dirty_epoch(), 0);
        let clean = mem.clone();
        // Data writes don't touch the exec-dirty list.
        mem.write_u64(0x2000, 7).unwrap();
        assert_eq!(mem.exec_dirty_epoch(), 0);
        // A poke into the text region records the range.
        assert!(mem.poke(0x1001, &[0x55]));
        assert_eq!(mem.exec_dirty_epoch(), 1);
        assert!(mem.exec_dirty_intersects(0x1000, 0x1002));
        assert!(mem.exec_dirty_intersects(0x1001, 0x1002));
        assert!(!mem.exec_dirty_intersects(0x1002, 0x1010));
        // Pokes into data regions don't.
        assert!(mem.poke(0x2000, &[0xFF]));
        assert_eq!(mem.exec_dirty_epoch(), 1);
        // The clone taken before the poke is still clean — restoring a
        // snapshot rewinds the dirty list together with the bytes.
        assert!(!clean.exec_dirty_intersects(0x1000, 0x1002));
        // Failed pokes record nothing.
        assert!(!mem.poke(0x9999_0000, &[1]));
        assert_eq!(mem.exec_dirty_epoch(), 1);
    }

    #[test]
    fn retained_bytes_resample_to_hypothetical_page_sizes() {
        let mut mem = paged_memory();
        let baseline = mem.clone();
        let base = 0x10000u64;
        // Two dirty bytes in the same 4 KiB page but different 1 KiB
        // subpages, plus one in the next 4 KiB page.
        mem.write_u8(base + 5, 0x99).unwrap();
        mem.write_u8(base + 2000, 0x99).unwrap();
        mem.write_u8(base + PAGE_SIZE as u64 + 1, 0x99).unwrap();
        assert_eq!(mem.retained_bytes_at(&baseline, 1024), 3 * 1024);
        assert_eq!(mem.retained_bytes_at(&baseline, PAGE_SIZE), 2 * PAGE_SIZE as u64);
        // Both dirty 4 KiB pages share one 8 KiB superpage (region base
        // is aligned).
        assert_eq!(mem.retained_bytes_at(&baseline, 2 * PAGE_SIZE), 2 * PAGE_SIZE as u64);
        // Coverage is monotone in the page size on the aligned grid.
        let sweep: Vec<u64> = [1024usize, 2048, 4096, 8192, 16384]
            .iter()
            .map(|&p| mem.retained_bytes_at(&baseline, p))
            .collect();
        assert!(sweep.windows(2).all(|w| w[0] <= w[1]), "{sweep:?}");
        // A byte-identical rewrite copies the page (delta counts it) but
        // retains nothing by byte diffing.
        let mut same = baseline.clone();
        let original = same.read_u8(base + 5).unwrap();
        same.write_u8(base + 5, original).unwrap();
        assert!(same.delta(&baseline).bytes > 0);
        assert_eq!(same.retained_bytes_at(&baseline, PAGE_SIZE), 0);
    }

    #[test]
    fn reads_straddling_a_page_boundary_are_contiguous() {
        let mem = paged_memory();
        let base = 0x10000u64;
        for back in 1..8u64 {
            let addr = base + PAGE_SIZE as u64 - back;
            let word = mem.read_u64(addr).unwrap();
            let mut expected = [0u8; 8];
            for (i, b) in expected.iter_mut().enumerate() {
                let off = (PAGE_SIZE as u64 - back) as usize + i;
                *b = if off < 2 * PAGE_SIZE { (off % 251) as u8 } else { 0 };
            }
            assert_eq!(word, u64::from_le_bytes(expected), "straddle at -{back}");
        }
        // The full straddle window is readable from the last byte of a page.
        assert!(mem.peek(base + PAGE_SIZE as u64 - 1, STRADDLE_TAIL).is_some());
    }

    #[test]
    fn writes_straddling_a_page_boundary_stay_coherent() {
        let mut mem = paged_memory();
        let base = 0x10000u64;
        // Write across the page-1/page-2 boundary, then read it back both
        // through the straddling view and byte-by-byte.
        let addr = base + 2 * PAGE_SIZE as u64 - 3;
        mem.write_u64(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap(), 0x1122_3344_5566_7788);
        for (i, expected) in 0x1122_3344_5566_7788u64.to_le_bytes().iter().enumerate() {
            assert_eq!(mem.read_u8(addr + i as u64).unwrap(), *expected, "byte {i}");
        }
        // The mirror means a later single-byte write at a page start is
        // visible through reads from the previous page's window.
        mem.write_u8(base + 2 * PAGE_SIZE as u64, 0x99).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap() >> 24 & 0xFF, 0x99);
    }

    #[test]
    fn pokes_straddling_pages_match_writes() {
        let mut mem = paged_memory();
        let base = 0x10000u64;
        let addr = base + PAGE_SIZE as u64 - 2;
        assert!(mem.poke(addr, &[1, 2, 3, 4, 5]));
        assert_eq!(mem.peek(addr, 5).unwrap(), &[1, 2, 3, 4, 5]);
        // A poke crossing the region end fails without partial effects on
        // the out-of-range side.
        let end = base + (3 * PAGE_SIZE + 100) as u64;
        assert!(!mem.poke(end - 2, &[9, 9, 9]));
    }

    #[test]
    fn zero_writes_do_not_materialize_zero_pages() {
        let mut mem = paged_memory();
        let before = mem.stats();
        // Page 2 (mem_size tail) is a zero page; writing zeros keeps it so.
        mem.write_u64(0x10000 + 2 * PAGE_SIZE as u64 + 512, 0).unwrap();
        assert_eq!(mem.stats(), before);
        // Writing a nonzero value materializes exactly one page.
        mem.write_u64(0x10000 + 2 * PAGE_SIZE as u64 + 512, 7).unwrap();
        assert_eq!(mem.stats().resident_pages, before.resident_pages + 1);
    }

    #[test]
    fn read_bytes_gathers_across_pages() {
        let mem = paged_memory();
        let base = 0x10000u64;
        let all = mem.read_bytes(base, 2 * PAGE_SIZE + 32).unwrap();
        assert_eq!(all.len(), 2 * PAGE_SIZE + 32);
        for (i, b) in all.iter().enumerate() {
            let expected = if i < 2 * PAGE_SIZE { (i % 251) as u8 } else { 0 };
            assert_eq!(*b, expected, "byte {i}");
        }
        // Out-of-range gathers fail like peeks.
        assert!(mem.read_bytes(base, 4 * PAGE_SIZE).is_none());
        assert!(mem.read_bytes(0x9999_0000, 1).is_none());
    }
}
