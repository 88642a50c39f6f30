//! Timestamp storage structures (paper §5.3).
//!
//! During profiling the five speculation store buffers — idle while the
//! program runs sequentially — hold event timestamps instead of
//! speculative data. Their limited capacity is a *feature* of the
//! evaluation: the paper measures how much precision the analysis loses
//! to FIFO eviction and direct-mapped aliasing (§6.2).

use std::collections::{HashMap, VecDeque};
use tvm::trace::{Addr, Cycles};
use tvm::{line_of, LINE_WORDS, WORD_BYTES};

/// Heap store timestamps: a FIFO of cache lines, each holding one
/// timestamp per word. Three of the five 2 kB store buffers are used,
/// giving 192 lines (6 kB) of write history.
///
/// Looking up an address whose line has been evicted returns `None` —
/// the dependency is simply not seen, one of the documented sources of
/// imprecision.
#[derive(Debug, Clone)]
pub struct StoreTimestampFifo {
    capacity: usize,
    lines: HashMap<u32, [Option<Cycles>; LINE_WORDS as usize]>,
    order: VecDeque<u32>,
    evictions: u64,
}

impl StoreTimestampFifo {
    /// Creates a FIFO holding at most `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        StoreTimestampFifo {
            capacity,
            lines: HashMap::new(),
            order: VecDeque::new(),
            evictions: 0,
        }
    }

    /// Records a store timestamp for the word at `addr`. A line already
    /// present is updated in place (the hardware merges writes to a
    /// buffered line); a new line may evict the oldest.
    pub fn record(&mut self, addr: Addr, now: Cycles) {
        let line = line_of(addr);
        let word = ((addr / WORD_BYTES) % LINE_WORDS) as usize;
        if let Some(entry) = self.lines.get_mut(&line) {
            entry[word] = Some(now);
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.lines.remove(&old);
                self.evictions += 1;
            }
        }
        let mut entry = [None; LINE_WORDS as usize];
        entry[word] = Some(now);
        self.lines.insert(line, entry);
        self.order.push_back(line);
    }

    /// The last store timestamp recorded for the word at `addr`, if its
    /// line is still buffered.
    pub fn lookup(&self, addr: Addr) -> Option<Cycles> {
        let line = line_of(addr);
        let word = ((addr / WORD_BYTES) % LINE_WORDS) as usize;
        self.lines.get(&line).and_then(|e| e[word])
    }

    /// Number of lines evicted so far (history lost).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no store has been recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// A direct-mapped table of cache-line timestamps with tags, used by
/// the speculative-state overflow analysis (Figure 4). Index and tag
/// come from the line number exactly as the figure's bit slices do;
/// aliasing between lines that share an index loses the older
/// timestamp, as in hardware.
///
/// Slots are allocated on demand: the backing vector only grows (by
/// doubling, capped at the table size) to cover the highest slot
/// recorded so far, and a slot past its end reads as empty. A large
/// table therefore costs memory in proportion to the line range the
/// program touches, not to its capacity.
#[derive(Debug, Clone)]
pub struct LineTimestampTable {
    mask: u32,
    entries: Vec<Option<(u32, Cycles)>>, // (tag, timestamp)
}

/// Slots allocated by the first growth of a table (or the whole table,
/// if smaller): the Figure 4 load table's size, so the paper-default
/// tables allocate exactly once.
const MIN_GROWTH: usize = 512;

impl LineTimestampTable {
    /// Creates a table with `entries` slots. No slot is allocated yet.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        LineTimestampTable {
            mask: entries as u32 - 1,
            entries: Vec::new(),
        }
    }

    /// The timestamp recorded for `line`, if the slot still holds that
    /// line (tag match).
    pub fn lookup(&self, line: u32) -> Option<Cycles> {
        let idx = (line & self.mask) as usize;
        match self.entries.get(idx) {
            Some(&Some((tag, ts))) if tag == line >> self.mask.trailing_ones() => Some(ts),
            _ => None,
        }
    }

    /// Records an access timestamp for `line`, evicting any aliasing
    /// entry.
    pub fn record(&mut self, line: u32, now: Cycles) {
        let tag = line >> self.mask.trailing_ones();
        *self.slot_mut(line) = Some((tag, now));
    }

    /// Combined lookup-and-record: installs `now` for `line` and
    /// returns the previous tag-matching timestamp, computing the slot
    /// index once. Equivalent to `lookup(line)` followed by
    /// `record(line, now)` — the tracer's overflow walk uses this on
    /// every heap access.
    #[inline]
    pub fn swap(&mut self, line: u32, now: Cycles) -> Option<Cycles> {
        let tag = line >> self.mask.trailing_ones();
        match self.slot_mut(line).replace((tag, now)) {
            Some((t, ts)) if t == tag => Some(ts),
            _ => None,
        }
    }

    /// The slot `line` maps to, growing the backing vector to cover it.
    #[inline]
    fn slot_mut(&mut self, line: u32) -> &mut Option<(u32, Cycles)> {
        let idx = (line & self.mask) as usize;
        if idx >= self.entries.len() {
            self.grow_to_cover(idx);
        }
        &mut self.entries[idx]
    }

    /// Resizes the backing vector to the smallest power of two above
    /// `idx` (at least [`MIN_GROWTH`]), capped at the table size. The
    /// vector's length is always zero or a power of two, so every
    /// growth at least doubles it.
    #[cold]
    fn grow_to_cover(&mut self, idx: usize) {
        let len = (idx + 1)
            .next_power_of_two()
            .max(MIN_GROWTH)
            .min(self.mask as usize + 1);
        self.entries.resize(len, None);
    }
}

/// Local-variable store timestamps: a small table shared by all active
/// STLs, reserved in per-activation frames by `sloop n` and freed by
/// `eloop n` (Table 4). Nested loops of the same method activation
/// re-use the same frame (the method-level `vn` numbering aliases
/// them), so reservation is reference-counted.
#[derive(Debug, Clone)]
pub struct LocalVarTimestamps {
    capacity: usize,
    used: usize,
    frames: Vec<LocalFrame>,
}

#[derive(Debug, Clone)]
struct LocalFrame {
    activation: u32,
    refcount: u32,
    slots: Vec<Option<Cycles>>,
}

impl LocalVarTimestamps {
    /// Creates a table with `capacity` total slots.
    pub fn new(capacity: usize) -> Self {
        LocalVarTimestamps {
            capacity,
            used: 0,
            frames: Vec::new(),
        }
    }

    /// Attempts to reserve `n` slots for `activation` (on `sloop`).
    /// Returns `false` when the table is full — the caller then leaves
    /// the loop untraced, the paper's "no room left for local variable
    /// timestamps" case.
    pub fn reserve(&mut self, activation: u32, n: u16) -> bool {
        if let Some(top) = self.frames.last_mut() {
            if top.activation == activation {
                // nested loop in the same method: same slots
                if top.slots.len() < n as usize {
                    // method-level numbering guarantees equal n; grow
                    // defensively if a larger reservation appears
                    let grow = n as usize - top.slots.len();
                    if self.used + grow > self.capacity {
                        return false;
                    }
                    self.used += grow;
                    top.slots.resize(n as usize, None);
                }
                top.refcount += 1;
                return true;
            }
        }
        if self.used + n as usize > self.capacity {
            return false;
        }
        self.used += n as usize;
        self.frames.push(LocalFrame {
            activation,
            refcount: 1,
            slots: vec![None; n as usize],
        });
        true
    }

    /// Releases one reservation for `activation` (on `eloop`).
    pub fn release(&mut self, activation: u32) {
        if let Some(top) = self.frames.last_mut() {
            if top.activation == activation {
                top.refcount -= 1;
                if top.refcount == 0 {
                    self.used -= top.slots.len();
                    self.frames.pop();
                }
            }
        }
    }

    /// Records a store timestamp for variable `var` of `activation`.
    /// Ignored when the activation has no live frame (its loop was left
    /// untraced).
    pub fn record(&mut self, activation: u32, var: u16, now: Cycles) {
        if let Some(top) = self.frames.last_mut() {
            if top.activation == activation {
                if let Some(slot) = top.slots.get_mut(var as usize) {
                    *slot = Some(now);
                }
            }
        }
    }

    /// The last store timestamp for variable `var` of `activation`.
    pub fn lookup(&self, activation: u32, var: u16) -> Option<Cycles> {
        let top = self.frames.last()?;
        if top.activation != activation {
            return None;
        }
        top.slots.get(var as usize).copied().flatten()
    }

    /// Slots currently reserved.
    pub fn used(&self) -> usize {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_roundtrip_and_word_granularity() {
        let mut f = StoreTimestampFifo::new(4);
        f.record(0x100, 10); // line 8, word 0
        f.record(0x108, 20); // line 8, word 1
        assert_eq!(f.lookup(0x100), Some(10));
        assert_eq!(f.lookup(0x108), Some(20));
        assert_eq!(f.lookup(0x110), None); // untouched word
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn fifo_evicts_oldest_line() {
        let mut f = StoreTimestampFifo::new(2);
        f.record(0x000, 1);
        f.record(0x020, 2);
        f.record(0x040, 3); // evicts line of 0x000
        assert_eq!(f.lookup(0x000), None);
        assert_eq!(f.lookup(0x020), Some(2));
        assert_eq!(f.lookup(0x040), Some(3));
        assert_eq!(f.evictions(), 1);
    }

    #[test]
    fn fifo_update_does_not_reorder() {
        let mut f = StoreTimestampFifo::new(2);
        f.record(0x000, 1);
        f.record(0x020, 2);
        f.record(0x008, 5); // same line as 0x000: update in place
        f.record(0x040, 6); // still evicts the 0x000 line (oldest)
        assert_eq!(f.lookup(0x008), None);
        assert_eq!(f.lookup(0x020), Some(2));
    }

    #[test]
    fn line_table_tags_detect_aliasing() {
        let mut t = LineTimestampTable::new(64);
        t.record(1, 10);
        assert_eq!(t.lookup(1), Some(10));
        // line 65 aliases index 1 with a different tag
        assert_eq!(t.lookup(65), None);
        t.record(65, 20);
        assert_eq!(t.lookup(65), Some(20));
        assert_eq!(t.lookup(1), None); // evicted by aliasing
    }

    #[test]
    fn line_table_swap_is_lookup_then_record() {
        let mut combined = LineTimestampTable::new(64);
        let mut split = LineTimestampTable::new(64);
        // hits, misses, and aliasing evictions all behave identically
        for (line, now) in [(1, 10), (1, 20), (65, 30), (1, 40), (7, 50)] {
            let expected = split.lookup(line);
            split.record(line, now);
            assert_eq!(combined.swap(line, now), expected);
            assert_eq!(combined.lookup(line), split.lookup(line));
        }
    }

    /// Reference model: the same direct-mapped table with every slot
    /// allocated up front.
    struct FullTable {
        shift: u32,
        mask: u32,
        slots: Vec<Option<(u32, Cycles)>>,
    }

    impl FullTable {
        fn new(size: usize) -> Self {
            FullTable {
                shift: size.trailing_zeros(),
                mask: size as u32 - 1,
                slots: vec![None; size],
            }
        }

        fn lookup(&self, line: u32) -> Option<Cycles> {
            match self.slots[(line & self.mask) as usize] {
                Some((tag, ts)) if tag == line >> self.shift => Some(ts),
                _ => None,
            }
        }

        fn record(&mut self, line: u32, now: Cycles) {
            self.slots[(line & self.mask) as usize] = Some((line >> self.shift, now));
        }
    }

    /// SplitMix64: a seeded stream for the equivalence test.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn line_table_matches_a_fully_allocated_table() {
        for entries in [1usize, 64, 512, 1 << 20] {
            let mut t = LineTimestampTable::new(entries);
            let mut full = FullTable::new(entries);
            let mut rng = entries as u64;
            let n = entries as u32;
            for now in 0..20_000 {
                let r = next_u64(&mut rng);
                // the reachable slots widen as the run goes on, so the
                // table grows through every doubling with live entries
                // behind it, and ends at the last slot
                let reach = (now as u32 + 1).saturating_mul(64).min(n);
                let slot = match r % 4 {
                    0 => (r >> 8) as u32 % 64.min(n),
                    1 => reach - 1,
                    _ => (r >> 8) as u32 % reach,
                };
                // lines at and beyond `entries`: aliases with other tags
                let line = ((r >> 40) as u32 % 4) * n + slot;
                match (r >> 3) % 3 {
                    0 => assert_eq!(t.lookup(line), full.lookup(line), "lookup {line}"),
                    1 => {
                        t.record(line, now);
                        full.record(line, now);
                    }
                    _ => {
                        let expected = full.lookup(line);
                        full.record(line, now);
                        assert_eq!(t.swap(line, now), expected, "swap {line}");
                    }
                }
            }
            for line in (0..n.min(4096)).chain([n - 1, n, 2 * n - 1]) {
                assert_eq!(t.lookup(line), full.lookup(line), "final {line}");
            }
        }
    }

    #[test]
    fn line_table_allocates_only_the_touched_range() {
        let mut t = LineTimestampTable::new(1 << 20);
        assert!(t.entries.is_empty());
        // lines 0..100, plus the last slot of the first growth so a far
        // lookup cannot pass by reading a neighbouring allocated slot
        for line in (0..100).chain([511]) {
            t.record(line, u64::from(line));
        }
        assert!(t.entries.len() <= 512, "{} slots", t.entries.len());
        assert_eq!(t.lookup(99), Some(99));
        assert_eq!(t.lookup((1 << 20) - 1), None);
        assert_eq!(t.lookup(700_000), None);
        assert!(t.entries.len() <= 512, "lookup grew the table");
        // the paper-default tables allocate once, to their full size
        for entries in [64, 512] {
            let mut t = LineTimestampTable::new(entries);
            t.record(0, 1);
            assert_eq!(t.entries.len(), entries);
        }
    }

    #[test]
    fn local_frames_nest_by_refcount() {
        let mut l = LocalVarTimestamps::new(8);
        assert!(l.reserve(1, 3)); // outer loop of activation 1
        assert!(l.reserve(1, 3)); // inner loop, same activation
        assert_eq!(l.used(), 3);
        l.record(1, 2, 42);
        assert_eq!(l.lookup(1, 2), Some(42));
        l.release(1);
        assert_eq!(l.lookup(1, 2), Some(42)); // outer still holds it
        l.release(1);
        assert_eq!(l.used(), 0);
        assert_eq!(l.lookup(1, 2), None);
    }

    #[test]
    fn local_capacity_rejects_reservation() {
        let mut l = LocalVarTimestamps::new(4);
        assert!(l.reserve(1, 3));
        assert!(!l.reserve(2, 3)); // would exceed 4 slots
        assert_eq!(l.used(), 3);
        // rejected activation's accesses are ignored
        l.record(2, 0, 9);
        assert_eq!(l.lookup(2, 0), None);
    }

    #[test]
    fn cross_activation_frames_stack() {
        let mut l = LocalVarTimestamps::new(8);
        assert!(l.reserve(1, 2));
        l.record(1, 0, 5);
        assert!(l.reserve(7, 2)); // callee method's loop
        l.record(7, 0, 9);
        assert_eq!(l.lookup(7, 0), Some(9));
        assert_eq!(l.lookup(1, 0), None); // not the top frame
        l.release(7);
        assert_eq!(l.lookup(1, 0), Some(5)); // visible again
    }
}
