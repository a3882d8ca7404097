//! Set-associative write-back caches and the two-level memory system.
//!
//! The L1 data cache's data array is one of the paper's three fault-injection
//! targets, so the L1D stores *actual data bytes*: a bit flipped in a line
//! propagates to loads, writebacks and refills exactly as it would in
//! hardware.  The L2 (1 MB, 16-way in the baseline configuration) is not a
//! fault target, and no latency depends on its data or its dirty bit, so it
//! keeps tags, valid bits and LRU stamps only: a dirty L1D victim goes
//! straight to memory, refills read memory, and the L2 decides only whether
//! a refill pays the memory latency.
//!
//! Tags and L1D bytes sit on copy-on-write pages of one set each, and a
//! valid-line bitset lets snapshot, restore and compare walk only the
//! valid lines, so every cost scales with the lines in use.

use crate::bits::{ones, set_bit};
use crate::config::CacheConfig;
use crate::cow::CowTable;
use crate::memory::{MemError, Memory, MemoryDelta};
use crate::probe::{Probe, ReadInfo, Structure, WRITEBACK_RIP};
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::MemSize;

/// The tag half of one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tag {
    valid: bool,
    dirty: bool,
    tag: u64,
    last_use: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement, storing line data ([`Cache::new`]) or tags only
/// ([`Cache::tags_only`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tags in `set * ways + way` order, on copy-on-write pages of one set
    /// each — a fork shares every set the faulty suffix never writes.
    tags: CowTable<Tag>,
    /// Line bytes, way after way, on one page per set of `ways ×
    /// line_bytes` rounded up to a power of two; empty in a tags-only cache.
    data: CowTable<u8>,
    /// Bytes stored per line: `line_bytes`, or 0 in a tags-only cache.
    line_len: usize,
    /// Bit `set * ways + way` is the line's `valid` flag.
    valid: Vec<u64>,
    use_counter: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry that
    /// stores line data.
    pub fn new(cfg: CacheConfig) -> Self {
        let mut cache = Self::tags_only(cfg);
        cache.line_len = cfg.line_bytes as usize;
        // A power-of-two page per set, so no line straddles a page.
        let page_bytes = (cfg.ways * cache.line_len).next_power_of_two();
        cache.data = CowTable::new(cfg.sets() * page_bytes, 0, page_bytes);
        cache
    }

    /// Creates an empty cache that keeps tags, valid bits and LRU stamps
    /// but no line data.
    pub fn tags_only(cfg: CacheConfig) -> Self {
        let lines = cfg.sets() * cfg.ways;
        Cache {
            tags: CowTable::new(lines, Tag::default(), cfg.ways),
            data: CowTable::new(0, 0, 1),
            line_len: 0,
            valid: vec![0; lines.div_ceil(64)],
            cfg,
            use_counter: 0,
        }
    }

    /// Flattened line index of `(set, way)`.
    #[inline]
    fn line_index(&self, set: usize, way: usize) -> usize {
        set * self.cfg.ways + way
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) % self.cfg.sets() as u64) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes / self.cfg.sets() as u64
    }

    /// Looks up `addr`; returns `(set, way)` on a hit.
    pub fn lookup(&self, addr: u64) -> Option<(usize, usize)> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        (0..self.cfg.ways)
            .find(|&way| {
                let t = self.tags.get(self.line_index(set, way));
                t.valid && t.tag == tag
            })
            .map(|way| (set, way))
    }

    /// Stamps the line at `(set, way)` most recently used.
    fn touch(&mut self, set: usize, way: usize) -> &mut Tag {
        self.use_counter += 1;
        let idx = self.line_index(set, way);
        let t = self.tags.get_mut(idx);
        t.last_use = self.use_counter;
        t
    }

    /// Picks the LRU victim way within `set` (invalid ways first).
    pub fn victim_way(&self, set: usize) -> usize {
        for way in 0..self.cfg.ways {
            if !self.tags.get(self.line_index(set, way)).valid {
                return way;
            }
        }
        (0..self.cfg.ways)
            .min_by_key(|&w| self.tags.get(self.line_index(set, w)).last_use)
            .expect("cache has at least one way")
    }

    /// Reads bytes `[offset, offset+len)` of the line at `(set, way)`.
    pub fn read_bytes(&mut self, set: usize, way: usize, offset: usize, len: usize) -> u64 {
        self.touch(set, way);
        let line = &self.line_data(set, way)[offset..offset + len];
        line.iter()
            .enumerate()
            .fold(0, |v, (i, &b)| v | (b as u64) << (8 * i))
    }

    /// Writes the low `len` bytes of `value` at `offset` of the line at
    /// `(set, way)` and marks it dirty.
    pub fn write_bytes(&mut self, set: usize, way: usize, offset: usize, len: usize, value: u64) {
        self.touch(set, way).dirty = true;
        let line = &mut self.line_mut(set, way)[offset..offset + len];
        for (i, b) in line.iter_mut().enumerate() {
            *b = (value >> (8 * i)) as u8;
        }
    }

    /// Installs the tag of `addr` as a clean, most recently used line, or
    /// only touches it if it is already resident.  Returns where it sits
    /// and, if a valid line had to be displaced, `(dirty, victim_line_addr)`;
    /// the displaced bytes stay in place until the caller refills them.
    fn install(&mut self, addr: u64) -> (usize, usize, Option<(bool, u64)>) {
        if let Some((set, way)) = self.lookup(addr) {
            self.touch(set, way);
            return (set, way, None);
        }
        let set = self.set_index(addr);
        let way = self.victim_way(set);
        let idx = self.line_index(set, way);
        let old = *self.tags.get(idx);
        let victim_addr = (old.tag * self.cfg.sets() as u64 + set as u64) * self.cfg.line_bytes;
        let evicted = old.valid.then_some((old.dirty, victim_addr));
        self.use_counter += 1;
        *self.tags.get_mut(idx) = Tag {
            valid: true,
            dirty: false,
            tag: self.tag(addr),
            last_use: self.use_counter,
        };
        set_bit(&mut self.valid, idx);
        (set, way, evicted)
    }

    /// The bytes of the line at `(set, way)`.  Panics in a tags-only cache.
    pub fn line_data(&self, set: usize, way: usize) -> &[u8] {
        &self.data.page(set)[way * self.line_len..][..self.line_len]
    }

    /// Mutable bytes of the line at `(set, way)`, un-sharing its set.
    fn line_mut(&mut self, set: usize, way: usize) -> &mut [u8] {
        let len = self.line_len;
        &mut self.data.page_mut(set)[way * len..][..len]
    }

    /// Whether the line at `(set, way)` is dirty.
    pub fn is_dirty(&self, set: usize, way: usize) -> bool {
        self.tags.get(self.line_index(set, way)).dirty
    }

    /// Flips a single stored bit — the L1D fault-injection hook.  The flip
    /// happens regardless of the line's valid bit (the SRAM cell exists
    /// either way); a flip in an invalid line is overwritten by the next
    /// refill before any read.
    pub fn flip_bit(&mut self, set: usize, way: usize, byte: usize, bit: u8) {
        self.line_mut(set, way)[byte] ^= 1 << bit;
    }

    /// Flattened 8-byte-word entry index of `(set, way, word_in_line)` used
    /// by probes and fault specifications.
    pub fn word_entry(&self, set: usize, way: usize, word_in_line: usize) -> usize {
        (set * self.cfg.ways + way) * self.cfg.words_per_line() + word_in_line
    }

    /// Inverse of [`Cache::word_entry`].
    pub fn entry_location(&self, entry: usize) -> (usize, usize, usize) {
        let wpl = self.cfg.words_per_line();
        let line = entry / wpl;
        let word = entry % wpl;
        let set = line / self.cfg.ways;
        let way = line % self.cfg.ways;
        (set, way, word)
    }

    /// Captures the live contents of the cache: the valid lines only, in
    /// (set, way) order, so the snapshot's footprint and cost are
    /// proportional to the data actually cached, not to the capacity.
    pub fn snapshot(&self) -> CacheSnapshot {
        let n: usize = self.valid.iter().map(|w| w.count_ones() as usize).sum();
        let (mut lines, mut bytes) = (Vec::with_capacity(n), Vec::with_capacity(n * self.line_len));
        for idx in ones(&self.valid) {
            let (set, way) = (idx / self.cfg.ways, idx % self.cfg.ways);
            let t = self.tags.get(idx);
            lines.push(LineSnapshot {
                set: set as u32,
                way: way as u32,
                tag: t.tag,
                dirty: t.dirty,
                last_use: t.last_use,
            });
            if self.line_len > 0 {
                bytes.extend_from_slice(self.line_data(set, way));
            }
        }
        CacheSnapshot {
            use_counter: self.use_counter,
            lines,
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Restores the cache to a snapshot of a cache of the same geometry,
    /// in place.
    pub fn restore_snapshot(&mut self, snap: &CacheSnapshot) {
        for idx in ones(&self.valid) {
            self.tags.get_mut(idx).valid = false;
        }
        self.valid.fill(0);
        let len = self.line_len;
        for (i, s) in snap.lines.iter().enumerate() {
            let (set, way) = (s.set as usize, s.way as usize);
            let idx = self.line_index(set, way);
            *self.tags.get_mut(idx) = Tag {
                valid: true,
                dirty: s.dirty,
                tag: s.tag,
                last_use: s.last_use,
            };
            set_bit(&mut self.valid, idx);
            if len > 0 {
                self.line_mut(set, way)
                    .copy_from_slice(&snap.bytes[i * len..][..len]);
            }
        }
        self.use_counter = snap.use_counter;
    }

    /// Forks from `src` by sharing its page handles — one set per page, no
    /// line data copied — so `self` becomes bit-identical to `src` at
    /// O(pages) cost.  Freezes `src`'s owned pages first, so both sides
    /// un-share a page on their next write to it.
    pub fn fork_from(&mut self, src: &mut Self) {
        debug_assert_eq!(self.cfg, src.cfg);
        src.tags.freeze();
        src.data.freeze();
        self.tags.share_from(&src.tags);
        self.data.share_from(&src.data);
        self.valid.copy_from_slice(&src.valid);
        self.use_counter = src.use_counter;
    }

    /// Un-share counter of the tag and byte pages, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.tags.take_cow_breaks() + self.data.take_cow_breaks()
    }

    /// Whether the cache's live contents are bit-identical to the snapshot.
    pub fn matches_snapshot(&self, snap: &CacheSnapshot) -> bool {
        if self.use_counter != snap.use_counter {
            return false;
        }
        let len = self.line_len;
        let mut valid = ones(&self.valid);
        for (i, s) in snap.lines.iter().enumerate() {
            let Some(idx) = valid.next() else {
                return false;
            };
            let (set, way) = (idx / self.cfg.ways, idx % self.cfg.ways);
            let t = self.tags.get(idx);
            if (s.set as usize, s.way as usize) != (set, way)
                || (s.tag, s.dirty, s.last_use) != (t.tag, t.dirty, t.last_use)
                || (len > 0 && snap.bytes[i * len..][..len] != *self.line_data(set, way))
            {
                return false;
            }
        }
        valid.next().is_none()
    }
}

/// The tag record of one valid line captured by [`Cache::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct LineSnapshot {
    set: u32,
    way: u32,
    tag: u64,
    dirty: bool,
    last_use: u64,
}

impl BinCode for LineSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.set.encode(out);
        self.way.encode(out);
        self.tag.encode(out);
        self.dirty.encode(out);
        self.last_use.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(LineSnapshot {
            set: BinCode::decode(r)?,
            way: BinCode::decode(r)?,
            tag: BinCode::decode(r)?,
            dirty: BinCode::decode(r)?,
            last_use: BinCode::decode(r)?,
        })
    }
}

/// The live contents of one cache, valid lines only (see
/// [`Cache::snapshot`]): their tag records, and the line bytes of a cache
/// that stores data, in record order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    use_counter: u64,
    lines: Vec<LineSnapshot>,
    bytes: Box<[u8]>,
}

impl BinCode for CacheSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.use_counter.encode(out);
        self.lines.encode(out);
        self.bytes.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let use_counter = u64::decode(r)?;
        let lines = Vec::<LineSnapshot>::decode(r)?;
        // `Cache::snapshot` emits lines strictly (set, way)-ascending and
        // `Cache::matches_snapshot`'s merge walk silently depends on it, so a
        // corrupt `.golden` payload must fail decode rather than produce a
        // snapshot no state can ever match (the same posture as
        // `MemoryDelta`'s ascending-index validation).
        let ascending = lines
            .windows(2)
            .all(|w| (w[0].set, w[0].way) < (w[1].set, w[1].way));
        if !ascending {
            return Err(DecodeError::Invalid("cache snapshot lines not ascending"));
        }
        let bytes = BinCode::decode(r)?;
        Ok(CacheSnapshot {
            use_counter,
            lines,
            bytes,
        })
    }
}

impl CacheSnapshot {
    /// Number of valid lines captured.
    pub fn lines(&self) -> usize {
        self.lines.len()
    }

    /// Approximate heap footprint of the snapshot in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<LineSnapshot>() + self.bytes.len()
    }

    /// Whether the snapshot restores without a panic into a cache of
    /// geometry `cfg` that stores `line_len` bytes per line: every line
    /// inside the geometry, and `line_len` bytes per line.  Decoding cannot
    /// check this, since the wire does not carry the geometry.
    pub(crate) fn fits(&self, cfg: &CacheConfig, line_len: usize) -> bool {
        self.bytes.len() == self.lines.len() * line_len
            && (self.lines.iter())
                .all(|l| (l.set as usize) < cfg.sets() && (l.way as usize) < cfg.ways)
    }
}

/// The full memory-hierarchy state captured by [`MemSystem::snapshot`]:
/// sparse cache images plus a chunk-level [`MemoryDelta`] of the backing
/// memory against the pristine program image (see
/// [`Memory::delta_snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSystemSnapshot {
    pub(crate) l1d: CacheSnapshot,
    pub(crate) l2: CacheSnapshot,
    mem: MemoryDelta,
}

impl MemSystemSnapshot {
    /// Approximate heap footprint of the snapshot in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.l1d.footprint_bytes() + self.l2.footprint_bytes() + self.mem.footprint_bytes()
    }

    /// Bytes the memory delta occupies (the memory part of
    /// [`Self::footprint_bytes`]).
    pub fn memory_delta_bytes(&self) -> usize {
        self.mem.footprint_bytes()
    }

    /// Bytes a dense memory image of the same snapshot would occupy.
    pub fn memory_dense_bytes(&self) -> usize {
        self.mem.dense_len()
    }
}

impl BinCode for MemSystemSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.l1d.encode(out);
        self.l2.encode(out);
        self.mem.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(MemSystemSnapshot {
            l1d: BinCode::decode(r)?,
            l2: BinCode::decode(r)?,
            mem: BinCode::decode(r)?,
        })
    }
}

/// The two-level data memory system: L1D + tags-only L2 backed by flat
/// [`Memory`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemSystem {
    /// L1 data cache (fault-injection target).
    pub l1d: Cache,
    /// Unified L2, tags only: it holds no data, so memory always holds
    /// every line the L1D does not.
    pub l2: Cache,
    /// Backing memory.
    pub mem: Memory,
    mem_latency: u64,
}

impl MemSystem {
    /// Creates the memory system with empty caches.
    pub fn new(l1d: CacheConfig, l2: CacheConfig, mem: Memory, mem_latency: u64) -> Self {
        MemSystem {
            l1d: Cache::new(l1d),
            l2: Cache::tags_only(l2),
            mem,
            mem_latency,
        }
    }

    /// Architectural load by micro-op `seq` at `cycle`: reads `size` bytes
    /// at `addr` through the cache hierarchy and returns the zero-extended
    /// value and the latency.  The access's L1D events go to `probe` as
    /// they happen (see [`Probe`]): a refill's writeback reads, its
    /// invalidations and its writes, then the load's word reads; a
    /// line-crossing load reports its low line, then its high line.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] for unmapped addresses; the cache
    /// state is left unchanged and nothing is reported in that case.
    pub fn load(
        &mut self,
        addr: u64,
        size: MemSize,
        cycle: u64,
        seq: u64,
        probe: &mut dyn Probe,
    ) -> Result<(u64, u64), MemError> {
        self.mem.check_range(addr, size.bytes(), false)?;
        Ok(self.access(addr, size, Access::Load { seq }, cycle, probe))
    }

    /// Architectural store at `cycle`: writes the low `size` bytes of
    /// `value` at `addr` and returns the latency, reporting its L1D events
    /// to `probe` as [`Self::load`] does, with the writes of the words it
    /// covers whole in place of word reads.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped addresses or stores into the code
    /// region.
    pub fn store(
        &mut self,
        addr: u64,
        value: u64,
        size: MemSize,
        cycle: u64,
        probe: &mut dyn Probe,
    ) -> Result<u64, MemError> {
        self.mem.check_range(addr, size.bytes(), true)?;
        let (_, latency) = self.access(addr, size, Access::Store(value), cycle, probe);
        Ok(latency)
    }

    /// An access checked to be in bounds: `(value, latency)`.
    fn access(
        &mut self,
        addr: u64,
        size: MemSize,
        access: Access,
        cycle: u64,
        probe: &mut dyn Probe,
    ) -> (u64, u64) {
        let line_bytes = self.l1d.config().line_bytes;
        let first_line = addr / line_bytes;
        let last_line = (addr + size.bytes() - 1) / line_bytes;
        if first_line == last_line {
            return self.access_within_line(addr, size.bytes() as usize, access, cycle, probe);
        }
        // Line-crossing access (possible when a fault corrupts an address):
        // split at the line boundary.
        let lo_bytes = (line_bytes - addr % line_bytes) as usize;
        let hi_bytes = size.bytes() as usize - lo_bytes;
        let (lo, hi) = match access {
            Access::Store(v) => (
                Access::Store(v & low_mask(lo_bytes)),
                Access::Store(v >> (8 * lo_bytes as u32)),
            ),
            load => (load, load),
        };
        let (lo_val, lo_lat) = self.access_within_line(addr, lo_bytes, lo, cycle, probe);
        let hi_addr = addr + lo_bytes as u64;
        let (hi_val, hi_lat) = self.access_within_line(hi_addr, hi_bytes, hi, cycle, probe);
        let value = lo_val | hi_val.wrapping_shl(8 * lo_bytes as u32);
        (value, lo_lat.max(hi_lat))
    }

    /// Access fully contained in one L1D line: `(value, latency)`.
    fn access_within_line(
        &mut self,
        addr: u64,
        len: usize,
        access: Access,
        cycle: u64,
        probe: &mut dyn Probe,
    ) -> (u64, u64) {
        let hit_latency = self.l1d.config().hit_latency;
        let ((set, way), latency) = match self.l1d.lookup(addr) {
            Some(sw) => (sw, hit_latency),
            None => {
                let (sw, lat) = self.refill_l1d(addr, cycle, probe);
                (sw, hit_latency + lat)
            }
        };
        let offset = (addr % self.l1d.config().line_bytes) as usize;
        let words = offset / 8..=(offset + len - 1) / 8;
        let value = match access {
            Access::Store(v) => {
                self.l1d.write_bytes(set, way, offset, len, v);
                for w in words {
                    // Only fully covered words are reported as overwritten:
                    // a partially covered word keeps the rest of its old
                    // bytes, so its vulnerable interval stays open.
                    if offset <= w * 8 && offset + len >= w * 8 + 8 {
                        probe.write(Structure::L1DCache, self.l1d.word_entry(set, way, w), cycle);
                    }
                }
                v & low_mask(len)
            }
            Access::Load { seq } => {
                let v = self.l1d.read_bytes(set, way, offset, len);
                for w in words {
                    let entry = self.l1d.word_entry(set, way, w);
                    probe.physical_read(Structure::L1DCache, entry, cycle, seq);
                }
                v
            }
        };
        (value, latency)
    }

    /// Brings the line containing `addr` into the L1D, writing a dirty
    /// victim back to memory and filling the line from memory, both in
    /// place, and reports the victim's writeback reads and invalidations,
    /// then the refill's writes.  Returns the (set, way) it landed in and
    /// the extra latency, which the L2's tags decide.
    fn refill_l1d(
        &mut self,
        addr: u64,
        cycle: u64,
        probe: &mut dyn Probe,
    ) -> ((usize, usize), u64) {
        let line_bytes = self.l1d.config().line_bytes;
        let line_addr = addr - addr % line_bytes;
        let l2_miss = self.l2.lookup(line_addr).is_none();
        self.l2.install(line_addr);
        let lat = self.l2.config().hit_latency + if l2_miss { self.mem_latency } else { 0 };
        let (set, way, evicted) = self.l1d.install(line_addr);
        let words = self.l1d.config().words_per_line();
        let entries = self.l1d.word_entry(set, way, 0)..self.l1d.word_entry(set, way, words);
        if let Some((dirty, victim_addr)) = evicted {
            if dirty {
                for entry in entries.clone() {
                    let read = ReadInfo {
                        entry,
                        cycle,
                        rip: WRITEBACK_RIP,
                        upc: 0,
                    };
                    probe.committed_read(Structure::L1DCache, &read);
                }
                self.mem
                    .write_line(victim_addr, self.l1d.line_data(set, way));
                self.l2.install(victim_addr);
            }
            for entry in entries.clone() {
                probe.invalidate(Structure::L1DCache, entry, cycle);
            }
        }
        self.mem.read_line(line_addr, self.l1d.line_mut(set, way));
        for entry in entries {
            probe.write(Structure::L1DCache, entry, cycle);
        }
        ((set, way), lat)
    }

    /// Architecturally visible value at `addr` — the L1D's copy if the line
    /// is resident, else memory's — without disturbing any state.  The
    /// simulator itself never needs it; tests use it to read the hierarchy.
    pub fn peek(&self, addr: u64, size: MemSize) -> Result<u64, MemError> {
        self.mem.check_range(addr, size.bytes(), false)?;
        let mut v = 0u64;
        for i in 0..size.bytes() {
            let a = addr + i;
            let byte = self.peek_byte(a);
            v |= (byte as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Captures the full state of the memory hierarchy: sparse cache images
    /// plus a chunk-level delta of the backing memory against the pristine
    /// program image.  Takes `&mut` because the delta shares the memory's
    /// dirty chunks (see [`Memory::delta_snapshot`]).
    pub fn snapshot(&mut self) -> MemSystemSnapshot {
        MemSystemSnapshot {
            l1d: self.l1d.snapshot(),
            l2: self.l2.snapshot(),
            mem: self.mem.delta_snapshot(),
        }
    }

    /// Restores a previously captured snapshot in place, reusing existing
    /// buffers where possible; the memory delta is resolved against this
    /// system's own pristine image.
    pub fn restore_snapshot(&mut self, snap: &MemSystemSnapshot) {
        self.l1d.restore_snapshot(&snap.l1d);
        self.l2.restore_snapshot(&snap.l2);
        self.mem.restore_delta(&snap.mem);
    }

    /// Structural fork: shares the caches' set pages and the memory's chunk
    /// handles from `src` (see [`Cache::fork_from`] and
    /// [`Memory::fork_from`]).
    pub fn fork_from(&mut self, src: &mut Self) {
        self.l1d.fork_from(&mut src.l1d);
        self.l2.fork_from(&mut src.l2);
        self.mem.fork_from(&mut src.mem);
    }

    /// Un-share counters of both caches and the backing memory, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.l1d.take_cow_breaks() + self.l2.take_cow_breaks() + self.mem.take_cow_breaks()
    }

    /// Whether the hierarchy's state is bit-identical to the snapshot.
    pub fn matches_snapshot(&self, snap: &MemSystemSnapshot) -> bool {
        self.l1d.matches_snapshot(&snap.l1d)
            && self.l2.matches_snapshot(&snap.l2)
            && self.mem.matches_delta(&snap.mem)
    }

    fn peek_byte(&self, addr: u64) -> u8 {
        if let Some((set, way)) = self.l1d.lookup(addr) {
            let off = (addr % self.l1d.config().line_bytes) as usize;
            return self.l1d.line_data(set, way)[off];
        }
        let mut byte = [0];
        self.mem.read_line(addr, &mut byte);
        byte[0]
    }
}

/// What an access does to the bytes it touches.
#[derive(Debug, Clone, Copy)]
enum Access {
    /// Micro-op `seq` reads them.
    Load { seq: u64 },
    /// They take the low bytes of the value.
    Store(u64),
}

fn low_mask(bytes: usize) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes)) - 1
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::probe::{Event, RecordingProbe};
    use merlin_isa::DATA_BASE;

    /// Asserts that `cache`'s valid-line bitset holds exactly the lines
    /// whose tag is valid, and no bit past the last line.
    pub(crate) fn assert_valid_set_exact(cache: &Cache, what: &str) {
        let flags: Vec<usize> = (cache.tags.iter().enumerate())
            .filter_map(|(idx, t)| t.valid.then_some(idx))
            .collect();
        assert_eq!(ones(&cache.valid).collect::<Vec<_>>(), flags, "{what}");
    }

    fn small_system() -> MemSystem {
        let l1d = CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 2,
            hit_latency: 3,
        };
        let l2 = CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
            hit_latency: 10,
        };
        MemSystem::new(l1d, l2, Memory::new(64 * 1024), 50)
    }

    /// Loads `size` bytes at `addr` as micro-op 7 at cycle 5: the value,
    /// the latency and the events, in order.
    fn load(ms: &mut MemSystem, addr: u64, size: MemSize) -> (u64, u64, Vec<Event>) {
        let mut probe = RecordingProbe::default();
        let (value, latency) = ms.load(addr, size, 5, 7, &mut probe).unwrap();
        (value, latency, probe.events)
    }

    /// Stores `value` at `addr` at cycle 5: the latency and the events, in
    /// order.
    fn store(ms: &mut MemSystem, addr: u64, value: u64, size: MemSize) -> (u64, Vec<Event>) {
        let mut probe = RecordingProbe::default();
        let latency = ms.store(addr, value, size, 5, &mut probe).unwrap();
        (latency, probe.events)
    }

    /// The L1D word entries of the line holding `addr`.
    fn line_words(ms: &MemSystem, addr: u64) -> std::ops::Range<usize> {
        let (set, way) = ms.l1d.lookup(addr).expect("resident line");
        ms.l1d.word_entry(set, way, 0)..ms.l1d.word_entry(set, way, 8)
    }

    fn write(entry: usize) -> Event {
        Event::Write(Structure::L1DCache, entry, 5)
    }

    fn read(entry: usize) -> Event {
        Event::PhysicalRead(Structure::L1DCache, entry, 5, 7)
    }

    /// The events of a refill into the line `words`, evicting a dirty
    /// victim: its writeback reads, its invalidations, then the refill.
    fn dirty_refill(words: std::ops::Range<usize>) -> Vec<Event> {
        let writeback = |entry| {
            let info = ReadInfo {
                entry,
                cycle: 5,
                rip: WRITEBACK_RIP,
                upc: 0,
            };
            Event::CommittedRead(Structure::L1DCache, info)
        };
        let invalidate = |entry| Event::Invalidate(Structure::L1DCache, entry, 5);
        (words.clone().map(writeback))
            .chain(words.clone().map(invalidate))
            .chain(words.map(write))
            .collect()
    }

    #[test]
    fn load_after_store_returns_value() {
        let mut ms = small_system();
        let addr = DATA_BASE + 0x100;
        store(&mut ms, addr, 0xDEAD_BEEF_1234_5678, MemSize::B8);
        let (v, latency, events) = load(&mut ms, addr, MemSize::B8);
        assert_eq!(v, 0xDEAD_BEEF_1234_5678);
        assert_eq!(events, [read(line_words(&ms, addr).start)]);
        assert_eq!(latency, 3);
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut ms = small_system();
        let addr = DATA_BASE + 0x200 + 8;
        let (_, miss, miss_events) = load(&mut ms, addr, MemSize::B8);
        let (_, hit, hit_events) = load(&mut ms, addr, MemSize::B8);
        assert!(miss > hit);
        assert_eq!(hit, 3);
        // The refill writes every word of the line, then the load reads its
        // word; a hit only reads.
        let words = line_words(&ms, addr);
        let word = words.start + 1;
        let refill: Vec<_> = words.map(write).chain([read(word)]).collect();
        assert_eq!(miss_events, refill);
        assert_eq!(hit_events, [read(word)]);
    }

    #[test]
    fn dirty_eviction_writes_back_and_reports_reads() {
        let mut ms = small_system();
        // 1 KB, 2-way, 64 B lines → 8 sets; addresses 512 bytes apart map to
        // the same set.  Three distinct lines in one set force an eviction.
        let a0 = DATA_BASE;
        let a1 = DATA_BASE + 512;
        let a2 = DATA_BASE + 1024 + 16;
        store(&mut ms, a0, 0x1111, MemSize::B8);
        store(&mut ms, a1, 0x2222, MemSize::B8);
        let victim = line_words(&ms, a0);
        let (_, events) = store(&mut ms, a2, 0x3333, MemSize::B8);
        // The dirty victim is read out for writeback and invalidated, its
        // storage refilled, and then the store overwrites its word.
        assert_eq!(line_words(&ms, a2), victim);
        let mut want = dirty_refill(victim.clone());
        want.push(write(victim.start + 2));
        assert_eq!(events, want);
        // The evicted value is still architecturally visible (now in memory).
        assert_eq!(load(&mut ms, a0, MemSize::B8).0, 0x1111);
    }

    #[test]
    fn flipped_bit_is_visible_to_loads() {
        let mut ms = small_system();
        let addr = DATA_BASE + 0x40;
        store(&mut ms, addr, 0, MemSize::B8);
        let (set, way) = ms.l1d.lookup(addr).unwrap();
        let offset = (addr % 64) as usize;
        ms.l1d.flip_bit(set, way, offset, 5);
        assert_eq!(load(&mut ms, addr, MemSize::B8).0, 1 << 5);
    }

    #[test]
    fn flipped_bit_in_clean_line_discarded_on_eviction() {
        let mut ms = small_system();
        let a0 = DATA_BASE;
        store(&mut ms, a0, 0xAB, MemSize::B8);
        // Make the line clean by forcing it through an eviction+reload cycle:
        // evict dirty, reload clean.
        let a1 = DATA_BASE + 512;
        let a2 = DATA_BASE + 1024;
        load(&mut ms, a1, MemSize::B8);
        load(&mut ms, a2, MemSize::B8); // a0 evicted (dirty → memory)
        load(&mut ms, a0, MemSize::B8); // reloaded, clean copy
        let (set, way) = ms.l1d.lookup(a0).unwrap();
        assert!(!ms.l1d.is_dirty(set, way));
        ms.l1d.flip_bit(set, way, 0, 0);
        // Evict the clean, corrupted line.
        load(&mut ms, a1, MemSize::B8);
        load(&mut ms, a2, MemSize::B8);
        // The corruption was dropped with the clean line.
        assert_eq!(load(&mut ms, a0, MemSize::B8).0, 0xAB);
    }

    #[test]
    fn line_crossing_access_is_consistent() {
        let mut ms = small_system();
        let addr = DATA_BASE + 64 - 4; // crosses from set 0 into set 1
                                       // Fill both sets with dirty lines, so each half evicts one.
        for line in [512, 1024, 512 + 64, 1024 + 64] {
            store(&mut ms, DATA_BASE + line, line, MemSize::B8);
        }
        let (lo, hi) = (
            line_words(&ms, DATA_BASE + 512),
            line_words(&ms, DATA_BASE + 576),
        );
        let (_, events) = store(&mut ms, addr, 0x1122_3344_5566_7788, MemSize::B8);
        // The low line's events, then the high line's; the store covers no
        // word whole, so it reports no write of its own.
        let mut want = dirty_refill(lo.clone());
        want.extend(dirty_refill(hi.clone()));
        assert_eq!(events, want);
        let (v, _, events) = load(&mut ms, addr, MemSize::B8);
        assert_eq!(v, 0x1122_3344_5566_7788);
        assert_eq!(events, [read(lo.end - 1), read(hi.start)]);
    }

    #[test]
    fn partial_word_store_does_not_report_word_write() {
        let mut ms = small_system();
        let addr = DATA_BASE + 0x80;
        // Bring the line in first so the refill's word writes do not obscure
        // what the store itself reports.
        load(&mut ms, addr, MemSize::B8);
        assert_eq!(store(&mut ms, addr, 0xFF, MemSize::B1).1, []);
        let (_, events) = store(&mut ms, addr, u64::MAX, MemSize::B8);
        assert_eq!(events, [write(line_words(&ms, addr).start)]);
    }

    #[test]
    fn out_of_bounds_rejected_without_state_change() {
        let mut ms = small_system();
        let bad = DATA_BASE + 10 * 1024 * 1024;
        let before = ms.clone();
        let mut probe = RecordingProbe::default();
        assert!(ms.load(bad, MemSize::B8, 0, 0, &mut probe).is_err());
        assert!(ms.store(bad, 0, MemSize::B8, 0, &mut probe).is_err());
        assert!(ms.store(0x10, 0, MemSize::B8, 0, &mut probe).is_err());
        assert_eq!(probe.events, []);
        assert_eq!(ms, before);
    }

    #[test]
    fn word_entry_roundtrip() {
        let ms = small_system();
        for entry in 0..ms.l1d.config().total_words() {
            let (s, w, word) = ms.l1d.entry_location(entry);
            assert_eq!(ms.l1d.word_entry(s, w, word), entry);
        }
    }

    #[test]
    fn unordered_cache_snapshot_lines_rejected_on_decode() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        let mut ms = small_system();
        store(&mut ms, DATA_BASE, 0x11, MemSize::B8);
        store(&mut ms, DATA_BASE + 64, 0x22, MemSize::B8);
        let mut snap = ms.l1d.snapshot();
        assert!(snap.lines.len() >= 2);
        let back: CacheSnapshot = decode_from_slice(&encode_to_vec(&snap)).unwrap();
        assert_eq!(back, snap);
        // Out-of-(set,way)-order lines must fail decode, not silently build
        // a snapshot the matching merge walk would misread.
        snap.lines.swap(0, 1);
        assert!(decode_from_slice::<CacheSnapshot>(&encode_to_vec(&snap)).is_err());
    }

    #[test]
    fn peek_sees_all_levels() {
        let mut ms = small_system();
        let a0 = DATA_BASE;
        store(&mut ms, a0, 0x77, MemSize::B8);
        // Evict to memory.
        load(&mut ms, DATA_BASE + 512, MemSize::B8);
        load(&mut ms, DATA_BASE + 1024, MemSize::B8);
        assert_eq!(ms.peek(a0, MemSize::B8).unwrap(), 0x77);
    }
}
