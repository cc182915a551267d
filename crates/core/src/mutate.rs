//! The stages of a content mutation: plan → dispatch → commit → account.
//!
//! Mux has one job per data mutation (paper §2.1): send the bytes to the
//! owning native file systems, then bring its own bookkeeping back in
//! line with what is now stored. `write`, truncate, `punch_hole` and
//! `unlink` differ in the first half only — each plans and makes its own
//! native calls — and then *report what they did to stored blocks* to
//! [`Mux::commit`], the one place that knows which derived state hangs off
//! a block's bytes: the Block Lookup Table, size and mtime, per-block
//! checksums, replicas and their resync debt, the SCM cache, the lock-free
//! fast path and the OCC version. PERFORMANCE.md §4 tabulates it.
//!
//! `commit` takes the caller's [`WriteWindow`] by reference, so a mutator
//! cannot reach it without having opened the window — which it must do
//! before its first native call, because from that call until `commit`
//! returns stored bytes and stored checksums may disagree.

use std::cell::OnceCell;
use std::sync::atomic::Ordering;

use tvfs::{VfsError, VfsResult};

use crate::file::{MuxFile, MuxIno, WriteWindow};
use crate::health::TierHealthState::Healthy;
use crate::hist::OpKind;
use crate::mux::{class_index, Mux};
use crate::occ::{Flip, Retire};
use crate::policy::PlacementCtx;
use crate::sched::thread_tenant;
use crate::stats::MuxStats;
use crate::trace::TraceEventKind;
use crate::types::{TierId, BLOCK};

/// One leg of a write plan: bytes `[off, off + len)` go to `tier`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteSeg {
    pub tier: TierId,
    pub off: u64,
    pub len: u64,
    /// The Block Lookup Table does not map the leg's blocks to `tier`
    /// yet (a placed hole, a redirect): `commit` assigns them.
    pub fresh: bool,
}

impl WriteSeg {
    /// The blocks the leg touches, as `(first, count)`.
    fn blocks(&self) -> (u64, u64) {
        let first = self.off / BLOCK;
        (first, (self.off + self.len - 1) / BLOCK - first + 1)
    }
}

/// What a mutation did to the stored bytes of a run of blocks — all
/// [`Mux::commit`] needs to know to bring every derived structure in line.
pub(crate) enum Change<'a> {
    /// `data` landed, leg by leg of `plan`, on the Block Lookup Table
    /// owners (fresh legs become owners now) of a file that was
    /// `old_size` long.
    Written {
        plan: &'a [WriteSeg],
        data: &'a [u8],
        old_size: u64,
        now: u64,
    },
    /// The blocks are gone whole: a punched interior, a truncated tail,
    /// an unlinked file. A truncation also carries `(new size, now)`.
    Dropped { size: Option<(u64, u64)> },
    /// A native file system changed part of each block's stored content
    /// without Mux seeing the bytes: the boundary block of a punch or a
    /// truncation.
    Dirtied,
}

/// CRCs of the blocks a write of `data` at `off` determines entirely —
/// covered from the block's start, and to its end or past the old EOF, so
/// that the stored tail is sparse zeros — straight from the user buffer;
/// `None` for a block that merged with old bytes and must be read back.
fn written_crcs(off: u64, data: &[u8], old_size: u64) -> Vec<Option<u32>> {
    let end = off + data.len() as u64;
    let crc_of = |b: u64| {
        let (bs, be) = (b * BLOCK, (b + 1) * BLOCK);
        if bs < off || (be > end && end < old_size) {
            return None;
        }
        let src = &data[(bs - off) as usize..(end.min(be) - off) as usize];
        if src.len() == BLOCK as usize {
            return Some(crate::integrity::crc32c(src));
        }
        let mut page = [0u8; BLOCK as usize];
        page[..src.len()].copy_from_slice(src);
        Some(crate::integrity::crc32c(&page))
    };
    (off / BLOCK..=(end - 1) / BLOCK).map(crc_of).collect()
}

impl Mux {
    /// The plan stage of a write: `[off, off + len)` cut along Block
    /// Lookup Table extents into per-tier legs in file order, holes placed
    /// by the policy, then edited for mirrors and fenced tiers. Also
    /// returns the file size the plan was made against.
    pub(crate) fn plan_write(
        &self,
        file: &MuxFile,
        off: u64,
        len: u64,
        sync: bool,
    ) -> VfsResult<(Vec<WriteSeg>, u64)> {
        let first = off / BLOCK;
        let last = (off + len - 1) / BLOCK;
        self.charge(self.opts.cost.blt_lookup_ns);
        let (file_size, mapped, mirrored) = {
            let st = file.state.read();
            let mapped = st.blt.plan(first, last - first + 1);
            (st.meta.attr.size, mapped, !st.replicas.is_empty())
        };
        // Only `place_run` reads the tier table, and a `statfs` per tier
        // is a priced RPC on a remote one: ask on the first hole, not on
        // every overwrite.
        let tiers = OnceCell::new();
        let policy = self.policy.read().clone();
        // The byte range of blocks `[b0, b0 + nb)`, clipped to the request.
        let leg = |tier: TierId, b0: u64, nb: u64, fresh: bool| {
            let start = (b0 * BLOCK).max(off);
            let end = ((b0 + nb) * BLOCK).min(off + len);
            (start < end).then_some(WriteSeg {
                tier,
                off: start,
                len: end - start,
                fresh,
            })
        };
        let mut plan = Vec::new();
        let mut cursor = first;
        // Before each mapped extent, and before the end of the range,
        // lies a (possibly empty) hole.
        let stops = mapped.iter().map(|e| (e.start, Some(e)));
        for (stop, extent) in stops.chain([(last + 1, None)]) {
            if stop > cursor {
                let tiers = tiers.get_or_init(|| self.tier_status());
                if tiers.is_empty() {
                    return Err(VfsError::Io("mux has no tiers".into()));
                }
                let ctx = PlacementCtx {
                    ino: file.ino,
                    off: cursor * BLOCK,
                    len: (stop - cursor) * BLOCK,
                    file_size,
                    is_append: cursor * BLOCK >= file_size,
                    sync,
                    tiers,
                };
                // `place_run` may stripe the hole across tiers.
                for (piece_bytes, tier) in policy.place_run(&ctx) {
                    let piece_blocks = piece_bytes.div_ceil(BLOCK);
                    plan.extend(leg(tier, cursor, piece_blocks.min(stop - cursor), true));
                    cursor += piece_blocks;
                    if cursor >= stop {
                        break;
                    }
                }
            }
            if let Some(e) = extent {
                plan.extend(leg(e.value, e.start, e.len, false));
                cursor = e.start + e.len;
            }
        }
        if plan.is_empty() {
            return Err(VfsError::Io("the placement policy placed nothing".into()));
        }
        if mirrored && self.opts.autotier.mirror_enabled {
            self.absorb_on_replicas(file, &mut plan)?;
        }
        self.redirect_fenced(file, &mut plan)?;
        Ok((plan, file_size))
    }

    /// Write absorption on the fast copy (§4, mirrors): a mapped leg
    /// whose replica sits on a strictly faster Healthy tier — or whose
    /// primary the breaker has fenced — swings the primary role to the
    /// replica *before* dispatch. The write then lands once, on the fast
    /// device, and the slower ex-primary is re-mirrored lazily by the
    /// maintenance tick instead of being rewritten synchronously. The
    /// role change is journaled as an unmirror first: recovery must never
    /// resurrect the written-over copy as a replica.
    fn absorb_on_replicas(&self, file: &MuxFile, plan: &mut [WriteSeg]) -> VfsResult<()> {
        if file.migrating.load(Ordering::Acquire) {
            return Ok(());
        }
        for seg in plan.iter_mut().filter(|s| !s.fresh) {
            let (b0, nb) = seg.blocks();
            let rt = match file.state.read().replicas.overlapping(b0, nb).as_slice() {
                // Swap only when one replica covers the whole leg: partial
                // coverage would tear the block range across owners
                // mid-write.
                [e] if e.start <= b0 && e.start + e.len >= b0 + nb => e.value,
                _ => continue,
            };
            if rt == seg.tier || self.health.state(rt) != Healthy {
                continue;
            }
            let faster = class_index(self.tier(rt)?.config.class)
                < class_index(self.tier(seg.tier)?.config.class);
            if !faster && self.health.can_write(seg.tier) {
                continue;
            }
            // The replica takes the primary role and the ex-primary is
            // owed the resync — unless the replica was retired since the
            // plan looked: its bytes may be reclaimed already.
            let owed = Retire::OweResync(Some(seg.tier));
            if self.retire_replicas(file, b0, nb, Some(rt), owed)? != nb {
                continue;
            }
            self.swing(file, &[(b0, nb)], rt, Flip::Move);
            seg.tier = rt;
        }
        Ok(())
    }

    /// Graceful degradation backstop: legs aimed at a tier the circuit
    /// breaker has fenced (ReadOnly/Offline) — typically already-mapped
    /// blocks the policy cannot re-place — are redirected to the
    /// healthiest tier with room. Boundary blocks only partially covered
    /// by the write have their old content merged over first, then
    /// `commit` swings the whole block.
    fn redirect_fenced(&self, file: &MuxFile, plan: &mut [WriteSeg]) -> VfsResult<()> {
        for seg in plan.iter_mut() {
            if self.health.can_write(seg.tier) {
                continue;
            }
            let to = self.healthiest_writable_tier(seg.len, Some(seg.tier))?;
            self.redirect(file, seg, to)?;
        }
        Ok(())
    }

    /// Sends leg `seg` to tier `to` instead, as a fresh leg.
    fn redirect(&self, file: &MuxFile, seg: &mut WriteSeg, to: TierId) -> VfsResult<()> {
        let from = seg.tier;
        self.merge_boundary_blocks(file, to, seg.off, seg.len)?;
        (seg.tier, seg.fresh) = (to, true);
        MuxStats::add(&self.stats.redirected_writes, 1);
        self.trace_event(
            TraceEventKind::Redirect { from },
            to,
            file.ino,
            seg.off,
            seg.len,
        );
        Ok(())
    }

    /// Prepares redirecting a write of `[seg_off, seg_off+seg_len)` to
    /// tier `to`: any partially-covered boundary block that has an owner
    /// has its *old* content copied from the owner to `to` first, so
    /// swinging the whole block's BLT entry to `to` never loses the bytes
    /// outside the user's write. An unmapped one is a hole: those bytes
    /// are zeros, as a native write leaves them.
    fn merge_boundary_blocks(
        &self,
        file: &MuxFile,
        to: TierId,
        seg_off: u64,
        seg_len: u64,
    ) -> VfsResult<()> {
        let seg_end = seg_off + seg_len;
        let b0 = seg_off / BLOCK;
        let b1 = (seg_end - 1) / BLOCK;
        let mut partial = Vec::new();
        if !seg_off.is_multiple_of(BLOCK) {
            partial.push(b0);
        }
        if !seg_end.is_multiple_of(BLOCK) && !partial.contains(&b1) {
            partial.push(b1);
        }
        for block in partial {
            let Some(from) = file.state.read().blt.tier_of(block) else {
                continue;
            };
            let mut page = vec![0u8; BLOCK as usize];
            // Short native reads leave trailing zeros, which is the
            // correct sparse content.
            self.read_block_anyhow(file, from, block, &mut page)?;
            let handle = self.tier(to)?;
            let nino = self.ensure_native(file, to)?;
            let at = block * BLOCK;
            let wrote = self.dispatch(OpKind::Write, to, file.ino, at, BLOCK, || {
                handle.fs.write(nino, at, &page)
            })?;
            if wrote != page.len() {
                return Err(VfsError::Io("short redirect write".into()));
            }
        }
        Ok(())
    }

    /// The dispatch stage of a write: each leg of the plan goes to its
    /// tier's native file system in `max_dispatch_bytes` pieces, every
    /// piece charged, counted, traced and retried as one dispatch.
    ///
    /// A tier that runs out of space under a piece — the native metadata
    /// writes cost can take a tier a few pages into its reserve — loses
    /// the rest of the leg, from the block that piece starts in, to the
    /// healthiest tier with room, the way a fenced tier does
    /// ([`Mux::redirect`]): a full tier never fails a write another tier
    /// can take. Returns the `(tier, first block, count)` runs that left a
    /// full tier, for the caller to punch there once `commit` has moved
    /// their ownership.
    pub(crate) fn dispatch_write(
        &self,
        file: &MuxFile,
        plan: &mut Vec<WriteSeg>,
        off: u64,
        data: &[u8],
    ) -> VfsResult<Vec<(TierId, u64, u64)>> {
        let cost = &self.opts.cost;
        let max = cost.max_dispatch_bytes.max(BLOCK);
        let (mut full, mut left) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < plan.len() {
            let seg = plan[i];
            i += 1;
            let handle = self.tier(seg.tier)?;
            let extra_per_kib =
                cost.write_dispatch_extra_ns_per_kib[class_index(handle.config.class)];
            let nino = self.ensure_native(file, seg.tier)?;
            let mut cur = seg.off;
            while cur < seg.off + seg.len {
                let n = max.min(seg.off + seg.len - cur);
                self.charge(extra_per_kib * n.div_ceil(1024));
                MuxStats::add(&self.stats.dispatches, 1);
                let src = &data[(cur - off) as usize..(cur - off + n) as usize];
                let wrote = match self.dispatch(OpKind::Write, seg.tier, file.ino, cur, n, || {
                    handle.fs.write(nino, cur, src)
                }) {
                    Err(VfsError::NoSpace) => {
                        // Each tier may run out once per write: a redirect
                        // never returns to a tier that already did.
                        full.push(seg.tier);
                        let to = self
                            .healthiest_writable_tier(seg.off + seg.len - cur, Some(seg.tier))
                            .ok()
                            .filter(|to| !full.contains(to))
                            .ok_or(VfsError::NoSpace)?;
                        // Pieces after the first start at least a block
                        // into the leg: the rest starts on a block
                        // boundary, and no block is left with two owners.
                        let at = if cur == seg.off {
                            cur
                        } else {
                            cur / BLOCK * BLOCK
                        };
                        let mut rest = WriteSeg {
                            off: at,
                            len: seg.off + seg.len - at,
                            ..seg
                        };
                        let (b0, nb) = rest.blocks();
                        left.push((seg.tier, b0, nb));
                        self.redirect(file, &mut rest, to)?;
                        if at == seg.off {
                            plan[i - 1] = rest;
                            i -= 1;
                        } else {
                            plan[i - 1].len = at - seg.off;
                            plan.insert(i, rest);
                        }
                        break;
                    }
                    wrote => wrote?,
                };
                if wrote != src.len() {
                    return Err(VfsError::Io("short native write".into()));
                }
                cur += n;
            }
        }
        Ok(left)
    }

    /// The commit stage: the stored bytes of blocks `[first, first + n)`
    /// changed as `change` says — bring everything derived from them in
    /// line. Replicas of the range are stale (or moot) and retired first;
    /// then, under one state lock, the Block Lookup Table, size and
    /// mtime, checksums and resync debt; then, outside it, the OCC version
    /// and dirty list, the SCM cache and the fast path — each sweep after
    /// the state change it publishes, so a reader that raced the change
    /// either saw it or is swept.
    pub(crate) fn commit(
        &self,
        file: &MuxFile,
        _open: &WriteWindow<'_>,
        first: u64,
        n: u64,
        change: Change<'_>,
    ) -> VfsResult<()> {
        if n == 0 && !matches!(change, Change::Dropped { size: Some(_) }) {
            return Ok(());
        }
        // The mutation went to the Block Lookup Table owners only: every
        // overlapped replica holds bytes that are stale now, or belongs to
        // blocks that no longer exist. One map lookup when there is none.
        let fate = if matches!(change, Change::Dropped { .. }) {
            Retire::Punch
        } else {
            Retire::OweResync(None)
        };
        self.retire_replicas(file, first, n, None, fate)?;
        let crcs = match change {
            Change::Written {
                plan,
                data,
                old_size,
                ..
            } if self.opts.integrity.checksums => written_crcs(plan[0].off, data, old_size),
            _ => Vec::new(),
        };
        {
            let mut st = file.state.write();
            match change {
                Change::Written {
                    plan, data, now, ..
                } => {
                    for seg in plan.iter().filter(|s| s.fresh) {
                        let (b0, nb) = seg.blocks();
                        st.blt.assign(b0, nb, seg.tier);
                    }
                    let last = plan[plan.len() - 1];
                    st.meta
                        .on_write(last.tier, plan[0].off + data.len() as u64, now);
                    for (b, crc) in (first..).zip(&crcs) {
                        match crc {
                            Some(crc) => st.checksums.record(b, *crc),
                            None => st.checksums.invalidate(b),
                        }
                    }
                }
                Change::Dropped { size } => {
                    st.blt.clear(first, n);
                    st.checksums.clear_range(first, n);
                    st.resync_pending.remove(first, n);
                    if let Some((size, now)) = size {
                        st.meta.attr.size = size;
                        st.meta.attr.mtime_ns = now;
                    }
                }
                // The old checksums no longer describe the blocks; the
                // next whole-block write re-establishes them.
                Change::Dirtied => (first..first + n).for_each(|b| st.checksums.invalidate(b)),
            }
            st.meta.attr.blocks_bytes = st.blt.mapped_blocks() * BLOCK;
            self.mark_dirty(file.ino, &mut st, Some((first, n)));
        }
        for (b, _) in (first..).zip(&crcs).filter(|(_, crc)| crc.is_none()) {
            self.readback_checksum(file, b);
        }
        file.note_write(first, n);
        if let Some(cache) = self.cache.read().clone() {
            cache.invalidate(file.ino, first, n);
        }
        self.fastpath_invalidate(file.ino, first, n, None);
        Ok(())
    }

    /// Reports to [`Mux::commit`] that the native file systems no longer
    /// store bytes `[off, end)` of the file — with no `end`, anything from
    /// `off` on: blocks wholly inside the cut were dropped, a block it
    /// covers partly at either edge was dirtied. A truncation passes its
    /// `(new size, now)` along.
    pub(crate) fn commit_cut(
        &self,
        file: &MuxFile,
        open: &WriteWindow<'_>,
        off: u64,
        end: Option<u64>,
        size: Option<(u64, u64)>,
    ) -> VfsResult<()> {
        let end = end.unwrap_or_else(|| {
            // Nothing is mapped, checksummed or cached past this block.
            let st = file.state.read();
            st.blt.end().max(st.meta.attr.size.div_ceil(BLOCK)) * BLOCK
        });
        let first_full = off.div_ceil(BLOCK);
        let last_full = (end / BLOCK).max(first_full);
        if first_full > off / BLOCK {
            self.commit(file, open, off / BLOCK, 1, Change::Dirtied)?;
        }
        let n = last_full - first_full;
        self.commit(file, open, first_full, n, Change::Dropped { size })?;
        if end.div_ceil(BLOCK) > last_full {
            self.commit(file, open, last_full, 1, Change::Dirtied)?;
        }
        Ok(())
    }

    /// Re-checksums one block by reading it back from its owning tier —
    /// `commit` uses this for boundary blocks that merged new bytes with
    /// old content Mux never saw. A read-back that fails, races a write,
    /// or races a migration leaves the block unchecksummed rather than
    /// wrongly checksummed.
    fn readback_checksum(&self, file: &MuxFile, block: u64) {
        let Some((tier, page, v0)) = self.read_owned_block(file, block) else {
            return;
        };
        let mut st = file.state.write();
        if file.version_now() == v0 && st.blt.tier_of(block) == Some(tier) {
            st.checksums.record(block, crate::integrity::crc32c(&page));
        } else {
            st.checksums.invalidate(block);
        }
        self.mark_dirty(file.ino, &mut st, Some((block, 1)));
    }

    /// The accounting stage of a dispatch-path read or a write of
    /// `[off, off + len)` that touched `tiers` (one per plan part, in file
    /// order): op, byte and tenant counters, split detection, then the
    /// file's access record in the heat map (its one lock).
    pub(crate) fn account(
        &self,
        ino: MuxIno,
        off: u64,
        len: u64,
        write: bool,
        tiers: impl ExactSizeIterator<Item = TierId> + Clone,
    ) {
        let s = &self.stats;
        let (ops, bytes, tenant_ops, splits) = if write {
            (
                &s.writes,
                &s.bytes_written,
                &s.tenant_writes,
                &s.split_writes,
            )
        } else {
            (&s.reads, &s.bytes_read, &s.tenant_reads, &s.split_reads)
        };
        MuxStats::add(ops, 1);
        MuxStats::add(bytes, len);
        MuxStats::add_tenant(tenant_ops, thread_tenant(), 1);
        // Nothing mapped (a read of holes): nothing was accessed.
        let Some(last) = tiers.clone().last() else {
            return;
        };
        if tiers.clone().any(|t| t != last) {
            MuxStats::add(splits, 1);
            let parts = tiers.len() as u32;
            self.trace_event(TraceEventKind::Split { parts, write }, last, ino, off, len);
        }
        let n = (off + len - 1) / BLOCK - off / BLOCK + 1;
        self.autotier.heat.record(ino, n, write);
    }
}
