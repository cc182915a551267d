//! The Block Lookup Table (paper §2.2).
//!
//! Maps file blocks to the tier that stores the *recent version* of each
//! block. "Since the table maps file offsets to devices, that are small in
//! size, we use an extent tree as a high-performance data structure" — the
//! extent tree is [`tvfs::RangeMap`] with constant (tier-id) values, so a
//! file striped in large runs costs a handful of segments.
//!
//! The paper also bounds the metadata overhead: "one byte per 4 KB of user
//! data is sufficient with a simple byte array, leading to less than
//! 0.025 % of space overhead". [`BlockLookupTable::encode_bytemap`] is that
//! byte-array encoding, used for the persistent metafile and verified
//! against the bound in the meta-overhead experiment.

use tvfs::{Extent, RangeMap};

use crate::types::TierId;

/// Sentinel byte meaning "hole" in the byte-array encoding.
const HOLE: u8 = 0xFF;

/// A per-file block → tier map.
///
/// # Examples
///
/// ```
/// use mux::BlockLookupTable;
///
/// let mut blt = BlockLookupTable::new();
/// blt.assign(0, 8, 0);   // blocks 0..8 on tier 0
/// blt.assign(4, 2, 1);   // blocks 4..6 move to tier 1
/// assert_eq!(blt.tier_of(5), Some(1));
/// assert_eq!(blt.tier_of(7), Some(0));
/// // The split plan for a request covering blocks 3..7:
/// let plan = blt.plan(3, 4);
/// assert_eq!(plan.len(), 3); // [3..4)@0, [4..6)@1, [6..7)@0
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockLookupTable {
    map: RangeMap<TierId>,
}

impl BlockLookupTable {
    /// An empty table (every block is a hole).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tier storing `block`, or `None` for holes.
    pub fn tier_of(&self, block: u64) -> Option<TierId> {
        self.map.get(block)
    }

    /// Assigns `[block, block+n)` to `tier`.
    pub fn assign(&mut self, block: u64, n: u64, tier: TierId) {
        self.map.insert(block, n, tier);
    }

    /// Clears `[block, block+n)` back to holes (truncate / punch).
    pub fn clear(&mut self, block: u64, n: u64) {
        self.map.remove(block, n);
    }

    /// Per-tier extents intersecting `[block, block+n)`, clipped, in file
    /// order — the split plan for a user request.
    pub fn plan(&self, block: u64, n: u64) -> Vec<Extent<TierId>> {
        self.map.overlapping(block, n)
    }

    /// All extents in file order.
    pub fn extents(&self) -> Vec<Extent<TierId>> {
        self.map.iter().collect()
    }

    /// First mapped extent at or after `block`.
    pub fn next_mapped(&self, block: u64) -> Option<Extent<TierId>> {
        self.map.next_mapped(block)
    }

    /// Blocks mapped to `tier`.
    pub fn blocks_on(&self, tier: TierId) -> u64 {
        self.map
            .iter()
            .filter(|e| e.value == tier)
            .map(|e| e.len)
            .sum()
    }

    /// Total mapped blocks.
    pub fn mapped_blocks(&self) -> u64 {
        self.map.covered()
    }

    /// Number of extent-tree segments.
    pub fn segment_count(&self) -> usize {
        self.map.segment_count()
    }

    /// One block past the last mapped block.
    pub fn end(&self) -> u64 {
        self.map.end()
    }

    /// Set of distinct tiers holding at least one block.
    pub fn tiers(&self) -> Vec<TierId> {
        let mut v: Vec<TierId> = self.map.iter().map(|e| e.value).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Encodes as the paper's byte array: byte `i` is the tier of block
    /// `i` (`0xFF` = hole). Tier ids must be < 255.
    pub fn encode_bytemap(&self) -> Vec<u8> {
        bytemap_of(&self.extents(), 0)
    }

    /// Decodes a byte array back into a table.
    pub fn decode_bytemap(raw: &[u8]) -> Self {
        let mut blt = Self::new();
        for (start, len, tier) in bytemap_extents(raw, 0) {
            blt.assign(start, len, tier);
        }
        blt
    }

    /// Space overhead of the byte-array encoding relative to the mapped
    /// user data (paper: < 0.025 %).
    pub fn bytemap_overhead_ratio(&self) -> f64 {
        let data = self.mapped_blocks() * crate::types::BLOCK;
        if data == 0 {
            return 0.0;
        }
        self.map.end() as f64 / data as f64
    }
}

/// The byte array of the blocks from `first` up to the end of the last of
/// `extents` (sorted, none before `first`): byte `i` is the tier of block
/// `first + i`. The metafile stores every block → tier map this way, whole
/// or by range.
pub(crate) fn bytemap_of(extents: &[Extent<TierId>], first: u64) -> Vec<u8> {
    let end = extents.last().map_or(first, |e| e.start + e.len);
    let mut out = vec![HOLE; (end - first) as usize];
    for e in extents {
        debug_assert!(e.value < u32::from(HOLE));
        let at = (e.start - first) as usize;
        out[at..at + e.len as usize].fill(e.value as u8);
    }
    out
}

/// The `(start, len, tier)` extents a byte array describes, `raw[i]`
/// being block `first + i`.
pub(crate) fn bytemap_extents(
    raw: &[u8],
    first: u64,
) -> impl Iterator<Item = (u64, u64, TierId)> + '_ {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < raw.len() && raw[i] == HOLE {
            i += 1;
        }
        let tier = *raw.get(i)?;
        let start = i;
        while i < raw.len() && raw[i] == tier {
            i += 1;
        }
        Some((first + start as u64, (i - start) as u64, u32::from(tier)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_lookup() {
        let mut blt = BlockLookupTable::new();
        blt.assign(0, 10, 0);
        blt.assign(10, 10, 1);
        assert_eq!(blt.tier_of(5), Some(0));
        assert_eq!(blt.tier_of(10), Some(1));
        assert_eq!(blt.tier_of(20), None);
        assert_eq!(blt.mapped_blocks(), 20);
        assert_eq!(blt.tiers(), vec![0, 1]);
    }

    #[test]
    fn plan_splits_by_tier() {
        let mut blt = BlockLookupTable::new();
        blt.assign(0, 4, 0);
        blt.assign(4, 4, 2);
        let plan = blt.plan(2, 4);
        assert_eq!(plan.len(), 2);
        assert_eq!((plan[0].start, plan[0].len, plan[0].value), (2, 2, 0));
        assert_eq!((plan[1].start, plan[1].len, plan[1].value), (4, 2, 2));
    }

    #[test]
    fn overwrite_moves_ownership() {
        let mut blt = BlockLookupTable::new();
        blt.assign(0, 8, 0);
        blt.assign(2, 3, 1); // blocks 2..5 now on tier 1
        assert_eq!(blt.tier_of(1), Some(0));
        assert_eq!(blt.tier_of(2), Some(1));
        assert_eq!(blt.tier_of(4), Some(1));
        assert_eq!(blt.tier_of(5), Some(0));
        assert_eq!(blt.blocks_on(0), 5);
        assert_eq!(blt.blocks_on(1), 3);
    }

    #[test]
    fn bytemap_roundtrip_with_holes() {
        let mut blt = BlockLookupTable::new();
        blt.assign(0, 3, 0);
        blt.assign(5, 2, 1);
        blt.assign(9, 1, 2);
        let raw = blt.encode_bytemap();
        assert_eq!(raw.len(), 10);
        assert_eq!(raw[0], 0);
        assert_eq!(raw[3], HOLE);
        assert_eq!(raw[5], 1);
        let back = BlockLookupTable::decode_bytemap(&raw);
        for b in 0..12 {
            assert_eq!(back.tier_of(b), blt.tier_of(b), "block {b}");
        }
    }

    #[test]
    fn bytemap_overhead_matches_paper_bound() {
        let mut blt = BlockLookupTable::new();
        // A dense 1 GiB file: 262144 blocks.
        blt.assign(0, 262_144, 0);
        let ratio = blt.bytemap_overhead_ratio();
        assert!(
            ratio < 0.00025,
            "paper bound: <0.025% space overhead, got {}",
            ratio * 100.0
        );
    }

    #[test]
    fn segment_count_stays_small_for_striped_files() {
        let mut blt = BlockLookupTable::new();
        // 4 large stripes, not 4096 per-block entries.
        for s in 0..4u64 {
            blt.assign(s * 1024, 1024, (s % 2) as TierId);
        }
        assert_eq!(blt.segment_count(), 4);
    }

    #[test]
    fn clear_punches_holes() {
        let mut blt = BlockLookupTable::new();
        blt.assign(0, 10, 0);
        blt.clear(3, 4);
        assert_eq!(blt.tier_of(3), None);
        assert_eq!(blt.tier_of(6), None);
        assert_eq!(blt.tier_of(7), Some(0));
        assert_eq!(blt.mapped_blocks(), 6);
    }

    #[test]
    fn next_mapped_walks_extents() {
        let mut blt = BlockLookupTable::new();
        blt.assign(100, 10, 1);
        let e = blt.next_mapped(0).unwrap();
        assert_eq!((e.start, e.len, e.value), (100, 10, 1));
        assert!(blt.next_mapped(110).is_none());
    }
}
