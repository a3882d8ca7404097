//! Exactness of the tags-only L2.
//!
//! The L2 is not a fault target, and no latency depends on its data or its
//! dirty bit, so [`MemSystem`] keeps only its tags, valid bits and LRU
//! stamps: a dirty L1D victim goes straight to memory and refills read
//! memory.  This test keeps a reference hierarchy whose L2 carries data and
//! dirty bits — dirty L1D victims land in the L2, refills read the L2 on a
//! hit, dirty L2 victims go to memory — and drives both with the same
//! random loads and stores over caches small enough that both kinds of
//! eviction happen.  Every access must return the same value and latency
//! and report the same L1D events in the same order, each hierarchy's
//! recorded by a [`RecordingProbe`], and at the end the L1Ds must hold the
//! same lines and every mapped byte must read the same through `peek`.

use merlin_cpu::{
    CacheConfig, Event, MemError, MemSystem, Memory, Probe, ReadInfo, RecordingProbe, Structure,
    WRITEBACK_RIP,
};
use merlin_isa::{MemSize, DATA_BASE};
use proptest::prelude::*;

/// One line of the reference cache, data included.
#[derive(Debug, Clone)]
struct RefLine {
    valid: bool,
    dirty: bool,
    tag: u64,
    data: Vec<u8>,
    last_use: u64,
}

/// A set-associative write-back cache that stores every line's data.
struct RefCache {
    cfg: CacheConfig,
    lines: Vec<RefLine>,
    use_counter: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let line = RefLine {
            valid: false,
            dirty: false,
            tag: 0,
            data: vec![0; cfg.line_bytes as usize],
            last_use: 0,
        };
        RefCache {
            lines: vec![line; cfg.sets() * cfg.ways],
            cfg,
            use_counter: 0,
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) % self.cfg.sets() as u64) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes / self.cfg.sets() as u64
    }

    fn line(&mut self, set: usize, way: usize) -> &mut RefLine {
        &mut self.lines[set * self.cfg.ways + way]
    }

    fn lookup(&self, addr: u64) -> Option<(usize, usize)> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        (0..self.cfg.ways)
            .find(|&w| {
                let l = &self.lines[set * self.cfg.ways + w];
                l.valid && l.tag == tag
            })
            .map(|w| (set, w))
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.use_counter += 1;
        let stamp = self.use_counter;
        self.line(set, way).last_use = stamp;
    }

    fn victim_way(&self, set: usize) -> usize {
        let ways = &self.lines[set * self.cfg.ways..][..self.cfg.ways];
        ways.iter()
            .position(|l| !l.valid)
            .unwrap_or_else(|| (0..ways.len()).min_by_key(|&w| ways[w].last_use).unwrap())
    }

    /// Installs `data` for `addr`, returning the line's place and a
    /// displaced valid victim `(dirty, victim_line_addr, data)`.
    #[allow(clippy::type_complexity)]
    fn install(
        &mut self,
        addr: u64,
        data: Vec<u8>,
        dirty: bool,
    ) -> (usize, usize, Option<(bool, u64, Vec<u8>)>) {
        if let Some((set, way)) = self.lookup(addr) {
            self.touch(set, way);
            let l = self.line(set, way);
            l.data = data;
            l.dirty |= dirty;
            return (set, way, None);
        }
        let set = self.set_index(addr);
        let way = self.victim_way(set);
        let sets = self.cfg.sets() as u64;
        let line_bytes = self.cfg.line_bytes;
        let tag = self.tag(addr);
        self.use_counter += 1;
        let stamp = self.use_counter;
        let l = self.line(set, way);
        let evicted = l.valid.then(|| {
            (
                l.dirty,
                (l.tag * sets + set as u64) * line_bytes,
                l.data.clone(),
            )
        });
        *l = RefLine {
            valid: true,
            dirty,
            tag,
            data,
            last_use: stamp,
        };
        (set, way, evicted)
    }

    fn word_entry(&self, set: usize, way: usize, word: usize) -> usize {
        (set * self.cfg.ways + way) * self.cfg.words_per_line() + word
    }
}

/// The reference hierarchy: an L1D and an L2 that both carry data.
struct RefSystem {
    l1d: RefCache,
    l2: RefCache,
    mem: Memory,
    mem_latency: u64,
}

/// The cycle and the reading micro-op every access is made with.
const CYCLE: u64 = 9;
const SEQ: u64 = 4;

impl RefSystem {
    /// `(value, latency)` of a load, or of a store of `write`, reporting
    /// the access's L1D events to `probe` as [`MemSystem`] does.
    fn access(
        &mut self,
        addr: u64,
        size: MemSize,
        write: Option<u64>,
        probe: &mut dyn Probe,
    ) -> Result<(u64, u64), MemError> {
        self.mem.check_range(addr, size.bytes(), write.is_some())?;
        let line_bytes = self.l1d.cfg.line_bytes;
        let len = size.bytes() as usize;
        let lo = len.min((line_bytes - addr % line_bytes) as usize);
        let lo_write = write.map(|v| v & low_mask(lo));
        let (lo_val, lo_lat) = self.within_line(addr, lo, lo_write, probe);
        if lo == len {
            return Ok((lo_val, lo_lat));
        }
        let hi_write = write.map(|v| v >> (8 * lo));
        let (hi_val, hi_lat) = self.within_line(addr + lo as u64, len - lo, hi_write, probe);
        Ok((
            lo_val | hi_val.wrapping_shl(8 * lo as u32),
            lo_lat.max(hi_lat),
        ))
    }

    fn within_line(
        &mut self,
        addr: u64,
        len: usize,
        write: Option<u64>,
        probe: &mut dyn Probe,
    ) -> (u64, u64) {
        let hit = self.l1d.cfg.hit_latency;
        let ((set, way), latency) = match self.l1d.lookup(addr) {
            Some(sw) => (sw, hit),
            None => {
                let (sw, lat) = self.refill(addr, probe);
                (sw, hit + lat)
            }
        };
        let offset = (addr % self.l1d.cfg.line_bytes) as usize;
        let words = offset / 8..=(offset + len - 1) / 8;
        self.l1d.touch(set, way);
        let value = match write {
            Some(v) => {
                let line = self.l1d.line(set, way);
                for i in 0..len {
                    line.data[offset + i] = (v >> (8 * i)) as u8;
                }
                line.dirty = true;
                for w in words {
                    if offset <= w * 8 && offset + len >= w * 8 + 8 {
                        let entry = self.l1d.word_entry(set, way, w);
                        probe.write(Structure::L1DCache, entry, CYCLE);
                    }
                }
                v & low_mask(len)
            }
            None => {
                let line = self.l1d.line(set, way);
                let v = (0..len).fold(0, |v, i| v | (line.data[offset + i] as u64) << (8 * i));
                for w in words {
                    let entry = self.l1d.word_entry(set, way, w);
                    probe.physical_read(Structure::L1DCache, entry, CYCLE, SEQ);
                }
                v
            }
        };
        (value, latency)
    }

    fn refill(&mut self, addr: u64, probe: &mut dyn Probe) -> ((usize, usize), u64) {
        let line_bytes = self.l1d.cfg.line_bytes;
        let line_addr = addr - addr % line_bytes;
        let (data, lat) = match self.l2.lookup(line_addr) {
            Some((set, way)) => {
                self.l2.touch(set, way);
                let data = self.l2.line(set, way).data.clone();
                (data, self.l2.cfg.hit_latency)
            }
            None => {
                let mut data = vec![0; line_bytes as usize];
                self.mem.read_line(line_addr, &mut data);
                self.l2_install(line_addr, data.clone(), false);
                (data, self.l2.cfg.hit_latency + self.mem_latency)
            }
        };
        let (set, way, evicted) = self.l1d.install(line_addr, data, false);
        let wpl = self.l1d.cfg.words_per_line();
        let entries = self.l1d.word_entry(set, way, 0)..self.l1d.word_entry(set, way, wpl);
        if let Some((dirty, victim_addr, old)) = evicted {
            if dirty {
                for entry in entries.clone() {
                    let read = ReadInfo {
                        entry,
                        cycle: CYCLE,
                        rip: WRITEBACK_RIP,
                        upc: 0,
                    };
                    probe.committed_read(Structure::L1DCache, &read);
                }
            }
            for entry in entries.clone() {
                probe.invalidate(Structure::L1DCache, entry, CYCLE);
            }
            if dirty {
                self.l2_install(victim_addr, old, true);
            }
        }
        for entry in entries {
            probe.write(Structure::L1DCache, entry, CYCLE);
        }
        ((set, way), lat)
    }

    /// Installs a line in the L2, writing a dirty L2 victim to memory.
    fn l2_install(&mut self, line_addr: u64, data: Vec<u8>, dirty: bool) {
        if let (_, _, Some((true, victim_addr, old))) = self.l2.install(line_addr, data, dirty) {
            self.mem.write_line(victim_addr, &old);
        }
    }

    fn peek_byte(&mut self, addr: u64) -> u8 {
        for cache in [&mut self.l1d, &mut self.l2] {
            if let Some((set, way)) = cache.lookup(addr) {
                let off = (addr % cache.cfg.line_bytes) as usize;
                return cache.line(set, way).data[off];
            }
        }
        self.mem.read(addr, MemSize::B1).unwrap() as u8
    }
}

/// The low `bytes` bytes of a word.
fn low_mask(bytes: usize) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1 << (8 * bytes)) - 1
    }
}

/// 4 sets × 2 ways of 64 B: 512 B of L1D.
const L1D: CacheConfig = CacheConfig {
    size_bytes: 512,
    line_bytes: 64,
    ways: 2,
    hit_latency: 3,
};

/// 4 sets × 4 ways of 64 B: 1 KB of L2, a quarter of the lines touched.
const L2: CacheConfig = CacheConfig {
    size_bytes: 1024,
    line_bytes: 64,
    ways: 4,
    hit_latency: 11,
};

/// Bytes of mapped memory; the accesses cover all of it.
const MEM_BYTES: u64 = 4096;

fn memory() -> Memory {
    let mut mem = Memory::new(MEM_BYTES);
    let image: Vec<u8> = (0..MEM_BYTES).map(|i| (i * 7 + 3) as u8).collect();
    mem.load_segment(DATA_BASE, &image).unwrap();
    mem.seal_pristine();
    mem
}

/// `(store value, byte offset, size)`; `None` as the value makes a load.
type Access = (Option<u64>, u64, MemSize);

fn arb_access() -> impl Strategy<Value = Access> {
    (
        prop::option::of(any::<u64>()),
        0..MEM_BYTES,
        prop::sample::select(MemSize::all().to_vec()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tags_only_l2_matches_a_data_carrying_l2(
        accesses in prop::collection::vec(arb_access(), 1..400),
    ) {
        let mut ms = MemSystem::new(L1D, L2, memory(), 50);
        let mut reference = RefSystem {
            l1d: RefCache::new(L1D),
            l2: RefCache::new(L2),
            mem: memory(),
            mem_latency: 50,
        };
        let (mut l1d_dirty_evictions, mut l2_misses) = (0, 0);
        for (i, &(write, offset, size)) in accesses.iter().enumerate() {
            // Keep the access inside the mapped region; unaligned ones may
            // cross a line.
            let addr = DATA_BASE + offset.min(MEM_BYTES - size.bytes());
            let (mut got_events, mut want_events) = (RecordingProbe::default(), RecordingProbe::default());
            let got = match write {
                Some(v) => (ms.store(addr, v, size, CYCLE, &mut got_events))
                    .map(|latency| (v & size.mask(), latency)),
                None => ms.load(addr, size, CYCLE, SEQ, &mut got_events),
            };
            let write = write.map(|v| v & size.mask());
            let want = reference.access(addr, size, write, &mut want_events);
            prop_assert_eq!(&got, &want, "access #{} at {:#x}", i, addr);
            prop_assert_eq!(&got_events.events, &want_events.events, "access #{} at {:#x}", i, addr);
            let writeback = |e: &Event| matches!(e, Event::CommittedRead(..));
            l1d_dirty_evictions += usize::from(want_events.events.iter().any(writeback));
            l2_misses += usize::from(want.unwrap().1 > L1D.hit_latency + L2.hit_latency);
        }
        if accesses.len() >= 200 {
            // More L2 misses than the L2 has lines means L2 evictions.
            prop_assert!(l1d_dirty_evictions > 0 && l2_misses > 16, "evictions of both kinds");
        }
        for set in 0..L1D.sets() {
            for way in 0..L1D.ways {
                let r = reference.l1d.line(set, way).clone();
                prop_assert_eq!(ms.l1d.line_data(set, way), &r.data[..]);
                prop_assert_eq!(ms.l1d.is_dirty(set, way), r.dirty);
            }
        }
        for addr in (DATA_BASE..DATA_BASE + MEM_BYTES).step_by(L1D.line_bytes as usize) {
            prop_assert_eq!(ms.l1d.lookup(addr), reference.l1d.lookup(addr));
        }
        for addr in DATA_BASE..DATA_BASE + MEM_BYTES {
            let got = ms.peek(addr, MemSize::B1).unwrap() as u8;
            prop_assert_eq!(got, reference.peek_byte(addr), "byte at {:#x}", addr);
        }
    }
}
