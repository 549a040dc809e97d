//! Pure slot maths: a compact bitset over the 16384 cluster slots, and the
//! even split of the slot space into `k` contiguous partitions that snapshot
//! chunking and the parallel restore share.

use memorydb_engine::NUM_SLOTS;

/// Maps a slot to its partition under an even `k`-way split of the slot
/// space into contiguous ranges (`k <= 1`: everything is partition 0).
pub fn partition_of(slot: u16, k: usize) -> usize {
    (slot as usize * k) / (NUM_SLOTS as usize)
}

/// Inclusive slot range `[lo, hi]` of partition `p` under a `k`-way split —
/// the inverse of [`partition_of`]. Full-snapshot chunks and the restore's
/// replay partitions are cut on these boundaries, so a restore worker reads
/// only its own chunks. An out-of-range `p` clamps to the last partition.
pub fn partition_slot_range(p: usize, k: usize) -> (u16, u16) {
    if k <= 1 {
        return (0, NUM_SLOTS - 1);
    }
    let p = p.min(k - 1);
    let num = NUM_SLOTS as usize;
    // partition_of(slot, k) == p  ⇔  ceil(p·num/k) <= slot < ceil((p+1)·num/k)
    let lo = (p * num).div_ceil(k);
    let hi = ((p + 1) * num).div_ceil(k) - 1;
    (lo as u16, (hi.min(num - 1)) as u16)
}

/// Set of cluster slots (0..16384) as a 2 KiB bitset.
#[derive(Clone, PartialEq, Eq)]
pub struct SlotSet {
    bits: Box<[u64; 256]>,
}

impl std::fmt::Debug for SlotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlotSet({} slots)", self.len())
    }
}

impl Default for SlotSet {
    fn default() -> Self {
        Self::empty()
    }
}

impl SlotSet {
    /// No slots.
    pub fn empty() -> SlotSet {
        SlotSet {
            bits: Box::new([0; 256]),
        }
    }

    /// All 16384 slots.
    pub fn full() -> SlotSet {
        SlotSet {
            bits: Box::new([u64::MAX; 256]),
        }
    }

    /// Builds from inclusive ranges.
    pub fn from_ranges(ranges: &[(u16, u16)]) -> SlotSet {
        let mut s = SlotSet::empty();
        for &(lo, hi) in ranges {
            for slot in lo..=hi.min(NUM_SLOTS - 1) {
                s.insert(slot);
            }
        }
        s
    }

    /// Adds a slot.
    pub fn insert(&mut self, slot: u16) {
        self.bits[(slot / 64) as usize] |= 1 << (slot % 64);
    }

    /// Removes a slot.
    pub fn remove(&mut self, slot: u16) {
        self.bits[(slot / 64) as usize] &= !(1 << (slot % 64));
    }

    /// Membership test.
    pub fn contains(&self, slot: u16) -> bool {
        self.bits[(slot / 64) as usize] & (1 << (slot % 64)) != 0
    }

    /// Number of slots in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no slots are owned.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Iterates the owned slots in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..NUM_SLOTS).filter(|s| self.contains(*s))
    }

    /// Collapses to minimal inclusive ranges (for `SlotOwnership` records
    /// and `CLUSTER SLOTS` replies).
    pub fn to_ranges(&self) -> Vec<(u16, u16)> {
        let mut ranges = Vec::new();
        let mut start: Option<u16> = None;
        for slot in 0..NUM_SLOTS {
            match (self.contains(slot), start) {
                (true, None) => start = Some(slot),
                (false, Some(s)) => {
                    ranges.push((s, slot - 1));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            ranges.push((s, NUM_SLOTS - 1));
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_of_is_contiguous_and_covers_all_slots() {
        for &k in &[1usize, 2, 4, 16, 64] {
            let mut prev = 0usize;
            for slot in 0..NUM_SLOTS {
                let p = partition_of(slot, k);
                assert!(p < k, "partition {p} out of range for k={k}");
                assert!(p >= prev, "partition map must be monotone");
                prev = p;
            }
            assert_eq!(partition_of(0, k), 0);
            assert_eq!(partition_of(NUM_SLOTS - 1, k), k - 1);
        }
    }

    #[test]
    fn partition_slot_ranges_tile_the_slot_space() {
        for &k in &[1usize, 2, 3, 16, 64] {
            let mut next = 0u32;
            for p in 0..k {
                let (lo, hi) = partition_slot_range(p, k);
                assert_eq!(lo as u32, next, "partition {p}/{k} must abut the previous");
                assert!(hi >= lo);
                assert_eq!(partition_of(lo, k), p, "lo of partition {p}/{k}");
                assert_eq!(partition_of(hi, k), p, "hi of partition {p}/{k}");
                next = hi as u32 + 1;
            }
            assert_eq!(next, NUM_SLOTS as u32, "k={k} must cover every slot");
        }
        // Out-of-range partition clamps instead of panicking.
        assert_eq!(partition_slot_range(99, 4), partition_slot_range(3, 4));
    }

    #[test]
    fn empty_and_full() {
        assert_eq!(SlotSet::empty().len(), 0);
        assert!(SlotSet::empty().is_empty());
        assert_eq!(SlotSet::full().len(), 16384);
        assert!(SlotSet::full().contains(0));
        assert!(SlotSet::full().contains(16383));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = SlotSet::empty();
        s.insert(100);
        s.insert(16383);
        assert!(s.contains(100));
        assert!(s.contains(16383));
        assert!(!s.contains(99));
        assert_eq!(s.len(), 2);
        s.remove(100);
        assert!(!s.contains(100));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ranges_roundtrip() {
        let ranges = vec![(0u16, 99u16), (200, 200), (16000, 16383)];
        let s = SlotSet::from_ranges(&ranges);
        assert_eq!(s.len(), 100 + 1 + 384);
        assert_eq!(s.to_ranges(), ranges);
        assert_eq!(SlotSet::full().to_ranges(), vec![(0, 16383)]);
        assert!(SlotSet::empty().to_ranges().is_empty());
    }

    #[test]
    fn iter_ascending() {
        let s = SlotSet::from_ranges(&[(5, 7), (3, 3)]);
        let v: Vec<u16> = s.iter().collect();
        assert_eq!(v, vec![3, 5, 6, 7]);
    }
}
