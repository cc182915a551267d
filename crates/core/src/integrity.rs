//! End-to-end data integrity: block checksums, quarantine, scrub pacing.
//!
//! Devices lie. The fail-stop faults [`crate::health`] fences are the easy
//! case — a device that *reports* its errors. The silent cases (bit rot,
//! lost writes, misdirected writes; see [`simdev::FaultMode`]) return
//! success and wrong bytes, and nothing below the tiering layer will ever
//! notice. Mux is the right place to notice: it sits on the dispatch seam
//! of every tier, so one checksum table per file covers the data wherever
//! it lives — and because the table is keyed by `(ino, block)` rather than
//! by tier, checksums survive OCC migration untouched (the *content* does
//! not move through a transformation, only across file systems).
//!
//! Three pieces:
//!
//! * [`crc32c`] — CRC-32C (Castagnoli), the checksum iSCSI, btrfs and ext4
//!   metadata use, computed over full [`crate::BLOCK`]-sized blocks with
//!   sparse tails zero-filled.
//! * [`ChecksumTable`] — per-file block → `(crc, trusted)` map. The
//!   `trusted` bit is the crash-consistency hinge: checksums loaded from a
//!   snapshot start *untrusted*, because after a crash Mux cannot
//!   distinguish "the device rotted this block" from "this block's last
//!   write never became durable before the crash" — both look like a
//!   mismatch. An untrusted mismatch silently drops the entry (counted in
//!   [`crate::MuxStats::checksums_dropped`]); an untrusted match promotes
//!   the entry to trusted. Only *trusted* mismatches are corruption.
//! * [`ScrubState`] — cursor + token bucket for the background scrubber
//!   that [`crate::Mux::maintenance_tick`] drives through cold data in
//!   deterministic `(ino, block)` order, verifying and repairing ahead of
//!   the next foreground read.

use std::collections::HashMap;

use crate::autotier::TokenBucket;
use crate::file::MuxIno;

/// CRC-32C (Castagnoli) slice-by-8 tables, reflected polynomial
/// `0x82F63B78`. `T[0]` is the classic byte table; `T[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes, so eight look-ups retire eight
/// input bytes with no dependency between them.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32C (Castagnoli) of `data`.
///
/// Uses the CPU's CRC-32C instruction when it reports one (SSE4.2 on
/// x86-64, the `crc` extension on aarch64) and slice-by-8 tables
/// otherwise; every kernel computes the same function (see the
/// differential test below and PERFORMANCE.md for the measured rates).
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_hw(data).unwrap_or_else(|| crc32c_slice8(data))
}

/// The hardware kernel, or `None` when this CPU has none. One 64-bit
/// instruction per eight bytes in a single dependency chain — about one
/// block per half microsecond, with no interleaving or folding.
///
/// The workspace's only `unsafe` lives in this function.
fn crc32c_hw(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

        #[target_feature(enable = "sse4.2")]
        fn sse42(data: &[u8]) -> u32 {
            let mut crc = u64::from(!0u32);
            let mut words = data.chunks_exact(8);
            for w in &mut words {
                let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
                crc = _mm_crc32_u64(crc, w);
            }
            let mut crc = crc as u32;
            for &b in words.remainder() {
                crc = _mm_crc32_u8(crc, b);
            }
            !crc
        }

        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `sse42` is safe code whose only requirement is that
            // the CPU executes SSE4.2 instructions, which the runtime
            // check on the line above has just established. It reads
            // `data` through safe slice operations only.
            return Some(unsafe { sse42(data) });
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        use std::arch::aarch64::{__crc32cb, __crc32cd};

        #[target_feature(enable = "crc")]
        fn armv8(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            let mut words = data.chunks_exact(8);
            for w in &mut words {
                let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
                crc = __crc32cd(crc, w);
            }
            for &b in words.remainder() {
                crc = __crc32cb(crc, b);
            }
            !crc
        }

        if std::arch::is_aarch64_feature_detected!("crc") {
            // SAFETY: as above — `armv8` needs only the `crc` extension,
            // which the runtime check has just established.
            return Some(unsafe { armv8(data) });
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = data; // no CRC-32C instruction to reach for
    None
}

/// The portable kernel: slice-by-8 over [`CRC32C_TABLES`].
fn crc32c_slice8(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One block's stored checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockChecksum {
    crc: u32,
    /// Whether this checksum was established (or re-verified) within the
    /// current mount. Snapshot-loaded entries start `false`.
    trusted: bool,
}

/// What [`ChecksumTable::verify`] concluded about a block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// No checksum is recorded for this block — nothing to verify against.
    Unknown,
    /// The content matches its checksum (an untrusted entry is promoted to
    /// trusted as a side effect).
    Match,
    /// The content does not match a *trusted* checksum: corruption.
    Mismatch {
        /// The checksum the content was expected to have.
        expected: u32,
        /// The checksum the content actually has.
        actual: u32,
    },
    /// The content does not match an *untrusted* (snapshot-loaded) entry;
    /// the entry was dropped because a crash makes rot indistinguishable
    /// from a write that never became durable.
    Dropped,
}

/// Per-file map of block index → CRC-32C, plus the quarantine set of
/// blocks whose trusted checksum failed and could not be repaired.
#[derive(Debug, Default)]
pub struct ChecksumTable {
    map: HashMap<u64, BlockChecksum>,
    quarantined: std::collections::BTreeSet<u64>,
}

impl ChecksumTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a freshly written block's checksum (trusted) and lifts any
    /// quarantine — new data supersedes old damage.
    pub fn record(&mut self, block: u64, crc: u32) {
        self.map.insert(block, BlockChecksum { crc, trusted: true });
        self.quarantined.remove(&block);
    }

    /// Drops a block's checksum (content changed in a way the caller could
    /// not re-checksum, e.g. a failed read-back after a partial write).
    pub fn invalidate(&mut self, block: u64) {
        self.map.remove(&block);
        self.quarantined.remove(&block);
    }

    /// Drops checksums and quarantine marks for `[block, block+n)`
    /// (truncate, punch_hole).
    pub fn clear_range(&mut self, block: u64, n: u64) {
        let end = block.saturating_add(n);
        self.map.retain(|&b, _| b < block || b >= end);
        self.quarantined.retain(|&b| b < block || b >= end);
    }

    /// The stored checksum for `block`, if any (trusted or not).
    pub fn get(&self, block: u64) -> Option<u32> {
        self.map.get(&block).map(|c| c.crc)
    }

    /// Whether `block` carries a *trusted* checksum.
    pub fn is_trusted(&self, block: u64) -> bool {
        self.map.get(&block).is_some_and(|c| c.trusted)
    }

    /// Verifies content carrying checksum `actual` against the stored
    /// entry for `block`. See [`VerifyOutcome`] for the four cases; the
    /// table mutates on `Match` (promote) and `Dropped` (remove).
    pub fn verify(&mut self, block: u64, actual: u32) -> VerifyOutcome {
        match self.map.get_mut(&block) {
            None => VerifyOutcome::Unknown,
            Some(e) if e.crc == actual => {
                e.trusted = true;
                // Verified-good content supersedes an earlier quarantine
                // (e.g. transient rot that cleared on a later clean read).
                self.quarantined.remove(&block);
                VerifyOutcome::Match
            }
            Some(e) if e.trusted => VerifyOutcome::Mismatch {
                expected: e.crc,
                actual,
            },
            Some(_) => {
                self.map.remove(&block);
                VerifyOutcome::Dropped
            }
        }
    }

    /// Marks a block unrepairable. Returns `true` if it was not already
    /// quarantined (so callers count each block once).
    pub fn quarantine(&mut self, block: u64) -> bool {
        self.quarantined.insert(block)
    }

    /// Lifts a quarantine mark (successful repair). Returns `true` if the
    /// block was quarantined.
    pub fn unquarantine(&mut self, block: u64) -> bool {
        self.quarantined.remove(&block)
    }

    /// Whether `block` is quarantined.
    pub fn is_quarantined(&self, block: u64) -> bool {
        self.quarantined.contains(&block)
    }

    /// Quarantined blocks, ascending.
    pub fn quarantined(&self) -> Vec<u64> {
        self.quarantined.iter().copied().collect()
    }

    /// Number of blocks with a stored checksum.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no checksums are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(block, crc)` pairs sorted by block — the snapshot encoding order.
    pub fn entries(&self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = self.map.iter().map(|(&b, c)| (b, c.crc)).collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Loads snapshot entries as *untrusted* checksums (see the module
    /// docs for why trust does not survive a remount).
    pub fn load_untrusted(&mut self, entries: impl IntoIterator<Item = (u64, u32)>) {
        for (block, crc) in entries {
            self.map.insert(
                block,
                BlockChecksum {
                    crc,
                    trusted: false,
                },
            );
        }
    }

    /// Drops entries for blocks `keep` rejects (recovery cleanup after
    /// BLT extents were invalidated).
    pub fn retain_blocks(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.map.retain(|&b, _| keep(b));
        self.quarantined.retain(|&b| keep(b));
    }
}

/// Configuration of the integrity subsystem (one per [`crate::Mux`], in
/// [`crate::MuxOptions::integrity`]).
#[derive(Debug, Clone)]
pub struct IntegrityConfig {
    /// Maintain per-block checksums on the write path and verify them on
    /// every read. When `false` the whole subsystem (including the
    /// scrubber) is inert.
    pub checksums: bool,
    /// Bounded same-tier re-reads after a trusted mismatch, before falling
    /// back to a replica (catches transfer-path flukes; stored rot needs
    /// the replica).
    pub reread_retries: u32,
    /// Run the background scrubber inside [`crate::Mux::maintenance_tick`].
    pub scrub_enabled: bool,
    /// Token-bucket refill rate for scrub reads, bytes per virtual second.
    pub scrub_rate_bytes_per_sec: u64,
    /// Token-bucket capacity (burst) in bytes.
    pub scrub_burst_bytes: u64,
    /// Upper bound on blocks verified per tick, independent of tokens —
    /// keeps a single tick's latency contribution bounded.
    pub scrub_blocks_per_tick: u64,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            checksums: true,
            reread_retries: 1,
            scrub_enabled: true,
            // Deliberately far below the autotier migration rate: the
            // scrubber is a patrol, not a bulk mover.
            scrub_rate_bytes_per_sec: 8 << 20,
            scrub_burst_bytes: 256 << 10,
            scrub_blocks_per_tick: 32,
        }
    }
}

/// Scrubber cursor + pacing state (owned by [`crate::Mux`], driven by
/// `maintenance_tick`).
#[derive(Debug)]
pub struct ScrubState {
    /// Next `(ino, block)` to verify; `None` restarts a pass from the
    /// lowest inode.
    pub cursor: Option<(MuxIno, u64)>,
    /// Byte-rate limiter on the virtual clock.
    pub bucket: TokenBucket,
    /// Completed full passes over the namespace.
    pub passes: u64,
    /// Blocks verified so far in the in-flight pass (reported in the
    /// `scrub_pass` trace event when the pass wraps).
    pub pass_verified: u64,
}

impl ScrubState {
    /// Fresh state with a full bucket.
    pub fn new(cfg: &IntegrityConfig) -> Self {
        ScrubState {
            cursor: None,
            bucket: TokenBucket::new(cfg.scrub_rate_bytes_per_sec, cfg.scrub_burst_bytes),
            passes: 0,
            pass_verified: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition every kernel is checked against.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 appendix B.4, plus the common check string.
        let ascending: Vec<u8> = (0u8..32).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "dispatching kernel on {data:02x?}");
            assert_eq!(crc32c_slice8(data), want, "slice-by-8 on {data:02x?}");
            assert_eq!(crc32c_bytewise(data), want, "reference on {data:02x?}");
            if let Some(hw) = crc32c_hw(data) {
                assert_eq!(hw, want, "hardware kernel on {data:02x?}");
            }
        }
    }

    #[test]
    fn crc32c_kernels_agree_with_the_bytewise_reference() {
        // Seeded xorshift content, so every table index and carry shows up.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let pool: Vec<u8> = (0..65_536 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        let lens = (0..=72).chain([4095, 4096, 4097, 65_536]);
        for len in lens {
            // Every start misalignment against the 8-byte word loop.
            for skew in 0..8 {
                let data = &pool[skew..skew + len];
                let want = crc32c_bytewise(data);
                assert_eq!(
                    crc32c_slice8(data),
                    want,
                    "slice-by-8, len {len} skew {skew}"
                );
                assert_eq!(crc32c(data), want, "dispatch, len {len} skew {skew}");
                if let Some(hw) = crc32c_hw(data) {
                    assert_eq!(hw, want, "hardware, len {len} skew {skew}");
                }
            }
        }
    }

    #[test]
    fn crc32c_detects_single_bit_flips() {
        let mut page = vec![0xA5u8; 4096];
        let base = crc32c(&page);
        for &(byte, bit) in &[(0usize, 0u8), (2048, 3), (4095, 7)] {
            page[byte] ^= 1 << bit;
            assert_ne!(crc32c(&page), base, "flip at {byte}:{bit} undetected");
            page[byte] ^= 1 << bit;
        }
        assert_eq!(crc32c(&page), base);
    }

    #[test]
    fn verify_lifecycle() {
        let mut t = ChecksumTable::new();
        assert_eq!(t.verify(7, 123), VerifyOutcome::Unknown);
        t.record(7, 123);
        assert!(t.is_trusted(7));
        assert_eq!(t.verify(7, 123), VerifyOutcome::Match);
        assert_eq!(
            t.verify(7, 124),
            VerifyOutcome::Mismatch {
                expected: 123,
                actual: 124
            }
        );
        // A mismatch does not drop a trusted entry.
        assert_eq!(t.get(7), Some(123));
    }

    #[test]
    fn untrusted_mismatch_drops_and_match_promotes() {
        let mut t = ChecksumTable::new();
        t.load_untrusted([(1, 10), (2, 20)]);
        assert!(!t.is_trusted(1));
        // Mismatch on untrusted: dropped, not corruption.
        assert_eq!(t.verify(1, 11), VerifyOutcome::Dropped);
        assert_eq!(t.get(1), None);
        assert_eq!(t.verify(1, 11), VerifyOutcome::Unknown);
        // Match on untrusted: promoted.
        assert_eq!(t.verify(2, 20), VerifyOutcome::Match);
        assert!(t.is_trusted(2));
        assert_eq!(
            t.verify(2, 21),
            VerifyOutcome::Mismatch {
                expected: 20,
                actual: 21
            }
        );
    }

    #[test]
    fn quarantine_is_idempotent_and_cleared_by_writes() {
        let mut t = ChecksumTable::new();
        t.record(3, 1);
        assert!(t.quarantine(3));
        assert!(!t.quarantine(3), "second quarantine not counted again");
        assert!(t.is_quarantined(3));
        assert_eq!(t.quarantined(), vec![3]);
        t.record(3, 2); // overwrite repairs
        assert!(!t.is_quarantined(3));
        assert!(t.quarantine(4));
        assert!(t.unquarantine(4));
        assert!(!t.unquarantine(4));
    }

    #[test]
    fn clear_range_and_retain() {
        let mut t = ChecksumTable::new();
        for b in 0..10 {
            t.record(b, b as u32);
        }
        t.quarantine(4);
        t.clear_range(3, 4); // drops 3..7
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(6), None);
        assert_eq!(t.get(7), Some(7));
        assert!(!t.is_quarantined(4));
        t.retain_blocks(|b| b < 8);
        assert_eq!(t.len(), 4); // 0, 1, 2 and 7 survive
        assert_eq!(t.get(9), None);
    }

    #[test]
    fn entries_round_trip_sorted() {
        let mut t = ChecksumTable::new();
        t.record(9, 90);
        t.record(1, 10);
        t.record(5, 50);
        let e = t.entries();
        assert_eq!(e, vec![(1, 10), (5, 50), (9, 90)]);
        let mut u = ChecksumTable::new();
        u.load_untrusted(e);
        assert_eq!(u.entries(), t.entries());
        assert!(!u.is_trusted(1));
    }

    #[test]
    fn defaults_are_sane() {
        let c = IntegrityConfig::default();
        assert!(c.checksums);
        assert!(c.scrub_enabled);
        assert!(c.scrub_blocks_per_tick > 0);
        assert!(c.scrub_burst_bytes >= crate::types::BLOCK);
        let s = ScrubState::new(&c);
        assert!(s.cursor.is_none());
        assert_eq!(s.passes, 0);
    }
}
