//! Deterministic crash-point enumeration for the metafile/OCC path.
//!
//! This module is the harness behind `crates/core/tests/crash.rs` and the
//! `repro -e crash` experiment: it runs a workload *scenario* against a
//! fresh Mux stack once to count its mutating device operations (writes
//! and flushes), then replays it N more times, losing power at every
//! operation `k = 1..=N` via [`simdev::CrashPlan`] — ALICE/CrashMonkey
//! style, but on the simulated device layer, so every crash point is
//! enumerated exactly once and fully deterministically.
//!
//! After each crash the surviving device images are remounted with each
//! tier's own `mount` path (replaying native journals) and a fresh
//! [`Mux`] is reconstructed with [`Mux::recover`]. An [`Oracle`] that
//! tracked the scenario's operations then checks the §4 guarantees:
//!
//! - recovery neither panics nor fails,
//! - every byte acknowledged by a successful `fsync`/`sync` reads back
//!   with the exact synced contents (bytes dirtied after the last sync
//!   may read as old or new, torn at any boundary — that is the POSIX
//!   contract this repo models),
//! - a file is reachable under exactly one name, even across unsynced
//!   renames (no aliasing of one native file behind two Mux files),
//! - a synced unlink stays unlinked,
//! - no block is owned by two tiers, every owned block has a native
//!   participant backing it, and every recorded replica is a complete,
//!   byte-identical spare of its primary (see [`Oracle::verify`]).
//!
//! Scenarios whose guarantees are weaker (an *unsynced* unlink, say) are
//! checked only for the invariants that do hold: recovery works and
//! reads never error.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use serde::Serialize;
use simdev::{CrashPlan, Device, DeviceProfile, FaultMode, VirtualClock};
use tvfs::{FileSystem, FileType, InodeNo, VfsResult, ROOT_INO};

use crate::mux::Mux;
use crate::policy::PinnedPolicy;
use crate::types::{MuxOptions, TierConfig, TierId, BLOCK};

/// How a harness builds (and after a crash, rebuilds) one tier.
///
/// `format` is used for the initial mkfs of a run; `mount` is the
/// crash-recovery path, replaying whatever journal the native file
/// system keeps. Both receive the tier's [`Device`].
pub struct TierDef {
    /// Registration config passed to [`Mux::add_tier`].
    pub config: TierConfig,
    /// Timing profile for the tier's device.
    pub profile: DeviceProfile,
    /// Device capacity in bytes.
    pub capacity: u64,
    /// Formats a fresh file system on the device.
    pub format: fn(Device) -> VfsResult<Arc<dyn FileSystem>>,
    /// Remounts the file system from the device's surviving image.
    pub mount: fn(Device) -> VfsResult<Arc<dyn FileSystem>>,
}

/// What a scenario closure gets to work with.
pub struct Ctx<'a> {
    /// The Mux under test (use it through the [`FileSystem`] trait).
    pub mux: &'a Mux,
    /// One device per tier, in [`TierDef`] order — for fault injection.
    pub devices: &'a [Device],
}

/// A crash-injection workload: `setup` runs before the crash plan is
/// armed (it must end in a durable state, conventionally via `sync`);
/// `run` is the phase whose every mutating device operation becomes a
/// crash point.
pub struct Scenario {
    /// Stable name, used in the matrix report.
    pub name: &'static str,
    /// Pre-crash preparation; completes durably on every run.
    pub setup: fn(&Ctx<'_>, &mut Oracle) -> VfsResult<()>,
    /// The crash-enumerated phase.
    pub run: fn(&Ctx<'_>, &mut Oracle) -> VfsResult<()>,
}

#[derive(Clone, Default)]
struct FileOracle {
    /// Content after every *attempted* write (a crashed write may land).
    pending: Vec<u8>,
    /// Bytes of `pending` dirtied since the last successful sync.
    dirty: Vec<bool>,
    /// Content guaranteed durable by the last successful fsync/sync.
    durable: Option<Vec<u8>>,
    /// Candidate names; the file must be reachable under exactly one.
    names: Vec<String>,
    /// An unlink was attempted but never synced: existence is undefined.
    unlinked: bool,
    /// An unlink was made durable by a successful sync: must stay gone.
    absent: bool,
}

/// Tracks what the scenario did and what must therefore survive a crash.
///
/// Convention for scenario authors: record *mutations* (`write`,
/// `rename`, `unlink`) **before** issuing them to the Mux (a crashed
/// operation may still partially land), and record *commitments*
/// (`fsync`, `sync_all`) **after** the Mux call returns `Ok` (the
/// guarantee only exists once acknowledged).
#[derive(Clone, Default)]
pub struct Oracle {
    files: BTreeMap<String, FileOracle>,
    /// The armed crash plan. A device flush that trips it rolls the device
    /// back but has no way to fail its caller, so a Mux call whose last
    /// device operation is that flush still returns `Ok` — with the power
    /// already off. Nobody saw that acknowledgement: it commits nothing.
    plan: Option<CrashPlan>,
}

impl Oracle {
    /// Starts tracking a file created under `name` (also its tag).
    pub fn create(&mut self, name: &str) {
        self.files.insert(
            name.to_string(),
            FileOracle {
                names: vec![name.to_string()],
                ..FileOracle::default()
            },
        );
    }

    /// Records an attempted write of `data` at byte `off`.
    pub fn write(&mut self, tag: &str, off: usize, data: &[u8]) {
        let f = self.files.get_mut(tag).expect("unknown oracle tag");
        let end = off + data.len();
        if f.pending.len() < end {
            f.pending.resize(end, 0);
            f.dirty.resize(end, true);
        }
        f.pending[off..end].copy_from_slice(data);
        f.dirty[off..end].fill(true);
    }

    /// Records an attempted rename: until the next commitment the file
    /// may surface under the old or the new name (but never both).
    pub fn rename(&mut self, tag: &str, new_name: &str) {
        let f = self.files.get_mut(tag).expect("unknown oracle tag");
        f.names.push(new_name.to_string());
    }

    /// Records an attempted unlink: existence becomes undefined until a
    /// successful sync commits the removal.
    pub fn unlink(&mut self, tag: &str) {
        let f = self.files.get_mut(tag).expect("unknown oracle tag");
        f.unlinked = true;
    }

    fn power_is_off(&self) -> bool {
        self.plan.as_ref().is_some_and(CrashPlan::tripped)
    }

    /// Records a successful `fsync` of the file: pending content becomes
    /// guaranteed, and any pending rename is committed (every flush
    /// covers the whole namespace).
    pub fn fsync(&mut self, tag: &str) {
        if self.power_is_off() {
            return;
        }
        let f = self.files.get_mut(tag).expect("unknown oracle tag");
        f.durable = Some(f.pending.clone());
        f.dirty.fill(false);
        if let Some(last) = f.names.last().cloned() {
            f.names = vec![last];
        }
    }

    /// Records a successful global `sync`: commits every file, including
    /// pending unlinks.
    pub fn sync_all(&mut self) {
        if self.power_is_off() {
            return;
        }
        let tags: Vec<String> = self.files.keys().cloned().collect();
        for tag in tags {
            let unlinked = self.files[&tag].unlinked;
            if unlinked {
                let f = self.files.get_mut(&tag).expect("tag");
                f.absent = true;
                f.durable = None;
            } else {
                self.fsync(&tag);
            }
        }
    }

    /// Checks every tracked guarantee against a recovered Mux, plus the
    /// structural invariants (single ownership, backed BLT extents).
    pub fn verify(&self, mux: &Mux) -> Result<(), String> {
        for (tag, f) in &self.files {
            let resolved: Vec<(String, tvfs::FileAttr)> = f
                .names
                .iter()
                .filter_map(|n| mux.lookup(ROOT_INO, n).ok().map(|a| (n.clone(), a)))
                .collect();
            if f.absent {
                if let Some((n, _)) = resolved.first() {
                    return Err(format!("{tag}: synced unlink resurrected as {n:?}"));
                }
                continue;
            }
            if f.unlinked || f.durable.is_none() {
                // No existence guarantee; whatever surfaced must still be
                // readable without errors.
                for (n, attr) in &resolved {
                    read_all(mux, attr.ino, attr.size)
                        .map_err(|e| format!("{tag}: read of {n:?} failed: {e}"))?;
                }
                continue;
            }
            let durable = f.durable.as_ref().expect("checked");
            if resolved.len() != 1 {
                let names: Vec<&String> = resolved.iter().map(|(n, _)| n).collect();
                return Err(format!(
                    "{tag}: expected exactly one of {:?} to resolve, got {names:?}",
                    f.names
                ));
            }
            let (name, attr) = &resolved[0];
            if (attr.size as usize) < durable.len() {
                return Err(format!(
                    "{tag} ({name:?}): size {} below synced length {}",
                    attr.size,
                    durable.len()
                ));
            }
            let cap = f.pending.len().max(durable.len());
            if attr.size as usize > cap {
                return Err(format!(
                    "{tag} ({name:?}): size {} exceeds anything ever written ({cap})",
                    attr.size
                ));
            }
            let got = read_all(mux, attr.ino, attr.size)
                .map_err(|e| format!("{tag} ({name:?}): read failed: {e}"))?;
            for (i, &g) in got.iter().enumerate() {
                let ok = if i < durable.len() && !f.dirty.get(i).copied().unwrap_or(true) {
                    // Clean synced byte: must read back exactly.
                    g == durable[i]
                } else {
                    // Dirtied since the last sync (or past the synced
                    // length): old value, new value, or hole.
                    g == f.pending.get(i).copied().unwrap_or(0)
                        || (i < durable.len() && g == durable[i])
                        || g == 0
                };
                if !ok {
                    return Err(format!(
                        "{tag} ({name:?}): byte {i} = {g:#x}, expected synced {:?} / pending {:?}",
                        durable.get(i),
                        f.pending.get(i)
                    ));
                }
            }
        }
        structural_check(mux)
    }
}

fn read_all(mux: &Mux, ino: InodeNo, size: u64) -> VfsResult<Vec<u8>> {
    let mut buf = vec![0u8; size as usize];
    let mut done = 0usize;
    while done < buf.len() {
        let got = mux.read(ino, done as u64, &mut buf[done..])?;
        if got == 0 {
            break;
        }
        done += got;
    }
    Ok(buf)
}

/// Invariants independent of any workload: a native inode backs at most
/// one Mux file, BLT extents never overlap, every extent's owner tier
/// actually participates in the file, and every recorded replica is a
/// complete, byte-identical spare of its primary copy (a mirror commits
/// only after a durable CRC-verified copy, and a retirement journals
/// before the first punch — so a crash may lose a whole replica but
/// never leave a torn or shadowing one).
///
/// Public so other oracles (e.g. the cluster partition-chaos tests) can
/// assert the same invariants on each node's Mux after an aborted
/// cross-node migration.
pub fn structural_check(mux: &Mux) -> Result<(), String> {
    let mut files: Vec<(u64, Arc<crate::file::MuxFile>)> = Vec::new();
    mux.files.for_each(|&i, f| files.push((i, Arc::clone(f))));
    files.sort_unstable_by_key(|e| e.0);
    let mut owners: HashMap<(TierId, InodeNo), u64> = HashMap::new();
    for (ino, f) in &files {
        let st = f.state.read();
        for (&t, &nino) in st.native.iter() {
            if mux.tier(t).is_err() {
                return Err(format!("file {ino}: native handle on unknown tier {t}"));
            }
            if let Some(prev) = owners.insert((t, nino), *ino) {
                return Err(format!(
                    "native inode {nino} on tier {t} owned by Mux files {prev} and {ino}"
                ));
            }
        }
        let mut prev_end = 0u64;
        for e in st.blt.extents() {
            if e.start < prev_end {
                return Err(format!(
                    "file {ino}: overlapping BLT extents at {}",
                    e.start
                ));
            }
            prev_end = e.start + e.len;
            if !st.native.contains_key(&e.value) {
                return Err(format!(
                    "file {ino}: BLT maps block {} to tier {} with no native copy",
                    e.start, e.value
                ));
            }
        }
        for e in st.replicas.iter() {
            let Some(&rep_nino) = st.native.get(&e.value) else {
                return Err(format!(
                    "file {ino}: replica extent at block {} on tier {} with no \
                     native participant",
                    e.start, e.value
                ));
            };
            for b in e.start..e.start + e.len {
                let Some(owner) = st.blt.tier_of(b) else {
                    return Err(format!(
                        "file {ino}: replica of block {b} which no tier owns"
                    ));
                };
                if owner == e.value {
                    return Err(format!(
                        "file {ino}: block {b} replica shadows its own primary \
                         on tier {owner}"
                    ));
                }
                let pri_nino = *st.native.get(&owner).expect("checked by BLT walk");
                let pri = native_block(mux, owner, pri_nino, b)
                    .map_err(|e| format!("file {ino}: primary of block {b}: {e}"))?;
                let rep = native_block(mux, e.value, rep_nino, b)
                    .map_err(|e| format!("file {ino}: replica of block {b}: {e}"))?;
                if pri != rep {
                    return Err(format!(
                        "file {ino}: replica of block {b} on tier {} diverges \
                         from its primary on tier {owner}",
                        e.value
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Reads one block of a native file directly from its tier, bypassing the
/// Mux dispatch path (which would itself pick between the copies under
/// comparison). Short reads past EOF are zero-filled, matching how the
/// mirror copy pads its source buffer.
fn native_block(mux: &Mux, tier: TierId, nino: InodeNo, block: u64) -> Result<Vec<u8>, String> {
    let handle = mux.tier(tier).map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; BLOCK as usize];
    let mut done = 0usize;
    while done < buf.len() {
        match handle
            .fs
            .read(nino, block * BLOCK + done as u64, &mut buf[done..])
        {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) => return Err(format!("tier {tier} read failed: {e}")),
        }
    }
    Ok(buf)
}

/// Outcome counts plus per-point failures for one scenario × tear mode.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMatrix {
    /// Scenario name.
    pub scenario: String,
    /// `"clean"` (writes drop whole) or `"torn"` (the tripping write
    /// keeps a deterministic 512-byte-aligned prefix).
    pub mode: String,
    /// Number of enumerated crash points (N = mutating device ops).
    pub crash_points: u64,
    /// Points that recovered with every invariant intact.
    pub recovered: u64,
    /// The points that did not, with diagnoses. Empty on a healthy tree.
    pub failures: Vec<PointFailure>,
}

/// One crash point that failed recovery or verification.
#[derive(Debug, Clone, Serialize)]
pub struct PointFailure {
    /// The crash point (1-based mutating-operation index).
    pub k: u64,
    /// `"remount_error"`, `"recovery_error"`, `"violation"` or `"panic"`.
    pub kind: String,
    /// Human-readable diagnosis.
    pub detail: String,
}

/// The full crash matrix: every scenario × tear mode × crash point.
#[derive(Debug, Clone, Serialize)]
pub struct CrashMatrix {
    /// Total crash points enumerated.
    pub total_points: u64,
    /// Points that fully recovered.
    pub recovered: u64,
    /// Points with an invariant violation or failed recovery.
    pub violated: u64,
    /// Points where recovery panicked.
    pub panicked: u64,
    /// Per-scenario breakdown.
    pub scenarios: Vec<ScenarioMatrix>,
}

struct Stack {
    devices: Vec<Device>,
    mux: Mux,
}

fn build_stack(tiers: &[TierDef], metafile_tier: TierId) -> VfsResult<Stack> {
    let clock = VirtualClock::new();
    let mux = Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    );
    let mut devices = Vec::new();
    for t in tiers {
        let dev = Device::with_profile(t.profile.clone(), t.capacity, clock.clone());
        let fs = (t.format)(dev.clone())?;
        mux.add_tier(t.config.clone(), fs);
        devices.push(dev);
    }
    mux.enable_metafile(metafile_tier)?;
    Ok(Stack { devices, mux })
}

/// Runs every scenario over every crash point, in both clean and (when
/// `torn_pass` is set) torn-write modes, and aggregates the matrix.
pub fn run_matrix(
    tiers: &[TierDef],
    metafile_tier: TierId,
    scenarios: &[Scenario],
    torn_pass: bool,
) -> VfsResult<CrashMatrix> {
    let mut out = CrashMatrix {
        total_points: 0,
        recovered: 0,
        violated: 0,
        panicked: 0,
        scenarios: Vec::new(),
    };
    for sc in scenarios {
        for torn in [false, true] {
            if torn && !torn_pass {
                continue;
            }
            let sm = run_scenario_matrix(tiers, metafile_tier, sc, torn)?;
            out.total_points += sm.crash_points;
            out.recovered += sm.recovered;
            for fp in &sm.failures {
                if fp.kind == "panic" {
                    out.panicked += 1;
                } else {
                    out.violated += 1;
                }
            }
            out.scenarios.push(sm);
        }
    }
    Ok(out)
}

fn run_scenario_matrix(
    tiers: &[TierDef],
    metafile_tier: TierId,
    sc: &Scenario,
    torn: bool,
) -> VfsResult<ScenarioMatrix> {
    // Probe run: count the run phase's mutating device operations.
    let stack = build_stack(tiers, metafile_tier)?;
    let mut oracle = Oracle::default();
    let cx = Ctx {
        mux: &stack.mux,
        devices: &stack.devices,
    };
    (sc.setup)(&cx, &mut oracle)?;
    let probe = CrashPlan::probe();
    for d in &stack.devices {
        d.set_crash_plan(Some(probe.clone()));
    }
    (sc.run)(&cx, &mut oracle)?;
    let n = probe.ops_seen();
    let mut sm = ScenarioMatrix {
        scenario: sc.name.to_string(),
        mode: if torn { "torn" } else { "clean" }.to_string(),
        crash_points: n,
        recovered: 0,
        failures: Vec::new(),
    };
    for k in 1..=n {
        match run_point(tiers, metafile_tier, sc, k, torn) {
            Ok(()) => sm.recovered += 1,
            Err((kind, detail)) => sm.failures.push(PointFailure { k, kind, detail }),
        }
    }
    Ok(sm)
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_point(
    tiers: &[TierDef],
    metafile_tier: TierId,
    sc: &Scenario,
    k: u64,
    torn: bool,
) -> Result<(), (String, String)> {
    let stack =
        build_stack(tiers, metafile_tier).map_err(|e| ("setup".to_string(), e.to_string()))?;
    let mut oracle = Oracle::default();
    {
        let cx = Ctx {
            mux: &stack.mux,
            devices: &stack.devices,
        };
        (sc.setup)(&cx, &mut oracle).map_err(|e| ("setup".to_string(), e.to_string()))?;
        let plan = if torn {
            CrashPlan::with_torn_tail(k, 512, k)
        } else {
            CrashPlan::new(k)
        };
        for d in &stack.devices {
            d.set_crash_plan(Some(plan.clone()));
        }
        oracle.plan = Some(plan);
        // The run is expected to fail once power dies; a panic here is a
        // harness finding in its own right.
        let run = catch_unwind(AssertUnwindSafe(|| (sc.run)(&cx, &mut oracle)));
        if let Err(p) = run {
            return Err(("panic".to_string(), format!("workload: {}", panic_msg(p))));
        }
    }
    // Power loss: unflushed caches on every device are gone (the tripping
    // device already rolled back; crash() is idempotent there). Then
    // power back on.
    for d in &stack.devices {
        d.crash();
        d.set_crash_plan(None);
        d.set_fault_mode(FaultMode::None);
    }
    let clock = stack.devices[0].clock().clone();
    let res = catch_unwind(AssertUnwindSafe(|| -> Result<(), (String, String)> {
        let mut recovered_tiers: Vec<(TierConfig, Arc<dyn FileSystem>)> = Vec::new();
        for (t, d) in tiers.iter().zip(&stack.devices) {
            let fs =
                (t.mount)(d.clone()).map_err(|e| ("remount_error".to_string(), e.to_string()))?;
            recovered_tiers.push((t.config.clone(), fs));
        }
        let mux2 = Mux::recover(
            clock,
            Arc::new(PinnedPolicy::new(0)),
            MuxOptions::default(),
            recovered_tiers,
            metafile_tier,
        )
        .map_err(|e| ("recovery_error".to_string(), e.to_string()))?;
        oracle
            .verify(&mux2)
            .map_err(|d| ("violation".to_string(), d))
    }));
    match res {
        Ok(r) => r,
        Err(p) => Err(("panic".to_string(), panic_msg(p))),
    }
}

// ---------------------------------------------------------------------
// Standard scenarios
// ---------------------------------------------------------------------

const BK: usize = BLOCK as usize;

fn pat_buf(tag: u8, off: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let j = off + i;
            tag.wrapping_mul(31)
                .wrapping_add((j / 7) as u8)
                .wrapping_add(1)
                ^ (j as u8)
        })
        .collect()
}

fn setup_empty(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

fn setup_one_file(
    cx: &Ctx<'_>,
    o: &mut Oracle,
    name: &str,
    tag: u8,
    blocks: usize,
) -> VfsResult<()> {
    let a = cx.mux.create(ROOT_INO, name, FileType::Regular, 0o644)?;
    o.create(name);
    let d = pat_buf(tag, 0, blocks * BK);
    o.write(name, 0, &d);
    cx.mux.write(a.ino, 0, &d)?;
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

fn create_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    let a = cx.mux.create(ROOT_INO, "a", FileType::Regular, 0o644)?;
    o.create("a");
    let d = pat_buf(1, 0, 3 * BK);
    o.write("a", 0, &d);
    cx.mux.write(a.ino, 0, &d)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("a");
    // Overwrite one synced block and extend by two more.
    let d2 = pat_buf(11, 2 * BK, 3 * BK);
    o.write("a", 2 * BK, &d2);
    cx.mux.write(a.ino, (2 * BK) as u64, &d2)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("a");
    let b = cx.mux.create(ROOT_INO, "b", FileType::Regular, 0o644)?;
    o.create("b");
    let db = pat_buf(2, 0, BK);
    o.write("b", 0, &db);
    cx.mux.write(b.ino, 0, &db)?;
    cx.mux.fsync(b.ino)?;
    o.fsync("b");
    Ok(())
}

fn rename_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "src", 3, 2)
}

fn rename_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    let a = cx.mux.lookup(ROOT_INO, "src")?;
    let d = pat_buf(13, 2 * BK, BK);
    o.write("src", 2 * BK, &d);
    cx.mux.write(a.ino, (2 * BK) as u64, &d)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("src");
    o.rename("src", "dst");
    cx.mux.rename(ROOT_INO, "src", ROOT_INO, "dst")?;
    cx.mux.fsync(a.ino)?;
    o.fsync("src");
    let d2 = pat_buf(23, 3 * BK, BK);
    o.write("src", 3 * BK, &d2);
    cx.mux.write(a.ino, (3 * BK) as u64, &d2)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("src");
    Ok(())
}

fn unlink_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "u1", 4, 2)?;
    let b = cx.mux.create(ROOT_INO, "u2", FileType::Regular, 0o644)?;
    o.create("u2");
    let d = pat_buf(5, 0, 2 * BK);
    o.write("u2", 0, &d);
    cx.mux.write(b.ino, 0, &d)?;
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

fn unlink_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    o.unlink("u1");
    cx.mux.unlink(ROOT_INO, "u1")?;
    cx.mux.sync()?;
    o.sync_all();
    let b = cx.mux.lookup(ROOT_INO, "u2")?;
    let d = pat_buf(15, 2 * BK, BK);
    o.write("u2", 2 * BK, &d);
    cx.mux.write(b.ino, (2 * BK) as u64, &d)?;
    cx.mux.fsync(b.ino)?;
    o.fsync("u2");
    // Unsynced unlink: existence after the crash is undefined.
    o.unlink("u2");
    cx.mux.unlink(ROOT_INO, "u2")?;
    Ok(())
}

fn migration_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "m", 6, 6)
}

fn migration_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    let a = cx.mux.lookup(ROOT_INO, "m")?;
    cx.mux.migrate_range(a.ino, 0, 3, 1)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("m");
    cx.mux.migrate_range(a.ino, 3, 3, 1)?;
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

fn migration_abort_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "ab", 7, 6)
}

fn migration_abort_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    let a = cx.mux.lookup(ROOT_INO, "ab")?;
    // The destination device fail-stops mid-copy: the migration aborts,
    // journaling COMMIT records for any sub-ranges it already swung.
    cx.devices[1].set_fault_mode(FaultMode::FailStop { remaining_ops: 5 });
    let _ = cx.mux.migrate_range(a.ino, 0, 6, 1);
    cx.devices[1].set_fault_mode(FaultMode::None);
    cx.mux.fsync(a.ino)?;
    o.fsync("ab");
    Ok(())
}

fn snapshot_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "c1", 8, 2)?;
    setup_one_file(cx, o, "c2", 9, 2)?;
    setup_one_file(cx, o, "c3", 10, 2)
}

fn snapshot_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    for (i, name) in ["c1", "c2", "c3"].iter().enumerate() {
        let a = cx.mux.lookup(ROOT_INO, name)?;
        let d = pat_buf(18 + i as u8, 2 * BK, BK);
        o.write(name, 2 * BK, &d);
        cx.mux.write(a.ino, (2 * BK) as u64, &d)?;
        cx.mux.sync()?;
        // `sync` appends to the journal; the rewrite under test is the
        // checkpoint's stage → fsync → rename → fsync → truncate.
        cx.mux.snapshot_metafile()?;
        o.sync_all();
    }
    Ok(())
}

fn delta_log_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "box", 16, 3)?;
    // A checkpoint to extend: the journal starts empty, one block of budget.
    cx.mux.snapshot_metafile()
}

fn delta_log_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    // The delta log under power cuts: mail-server rounds (deliver, append,
    // rename or delete, fsync) until the journal has crossed its budget —
    // one size-triggered checkpoint — and one round more. The enumeration
    // visits torn journal tails, a cut between an append and the journal
    // fsync, every step of the checkpoint including the one between its
    // rename and the journal truncation (frames of the old generation must
    // be skipped, not replayed over the new checkpoint), and appends to the
    // fresh journal.
    let inbox = cx.mux.lookup(ROOT_INO, "box")?;
    // The checkpoint also overtakes a migration in flight: its begin record
    // is durable and half the copy has landed on tier 1. Cut before the
    // checkpoint, recovery punches the debris; after it, nothing names the
    // debris and nothing may adopt it.
    cx.mux
        .journal(crate::persist::IntentKind::MoveBegin, inbox.ino, 0, 2, 1)?;
    let ssd = cx.mux.tier_fs(1)?;
    let debris = ssd.create(ROOT_INO, "box", FileType::Regular, 0o644)?;
    ssd.write(debris.ino, 0, &[0xEE; BK])?;
    let before = cx.mux.stats().snapshot().checkpoints;
    let mut rounds_after = 0;
    for round in 0.. {
        // Maildir-length names: a link record is most of a round's bytes.
        let name = format!("m{round}.{}", "x".repeat(160));
        let mail = cx.mux.create(ROOT_INO, &name, FileType::Regular, 0o644)?;
        o.create(&name);
        let d = pat_buf(30 + round as u8, 0, BK);
        o.write(&name, 0, &d);
        cx.mux.write(mail.ino, 0, &d)?;
        cx.mux.fsync(mail.ino)?;
        o.fsync(&name);
        let at = (3 + round) * BK;
        let d = pat_buf(60 + round as u8, at, BK);
        o.write("box", at, &d);
        cx.mux.write(inbox.ino, at as u64, &d)?;
        cx.mux.fsync(inbox.ino)?;
        o.fsync("box");
        if round % 2 == 0 {
            let read = format!("r{round}.{}", "x".repeat(160));
            o.rename(&name, &read);
            cx.mux.rename(ROOT_INO, &name, ROOT_INO, &read)?;
            cx.mux.fsync(mail.ino)?;
            o.fsync(&name);
        } else {
            o.unlink(&name);
            cx.mux.unlink(ROOT_INO, &name)?;
            cx.mux.sync()?;
            o.sync_all();
        }
        if cx.mux.stats().snapshot().checkpoints > before {
            rounds_after += 1;
        }
        if rounds_after == 2 {
            break;
        }
    }
    Ok(())
}

fn autotier_epoch_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "at", 11, 6)
}

fn autotier_epoch_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    // Power cut at any device operation of an autotier epoch must leave
    // placement consistent: the engine drives the same OCC migration and
    // journal machinery as a manual `migrate_range`, so an epoch is just a
    // planned batch. Plans are enqueued explicitly (instead of waiting for
    // the file to cool) so the epoch's device-op sequence is deterministic.
    let a = cx.mux.lookup(ROOT_INO, "at")?;
    cx.mux.autotier_enqueue(crate::policy::MigrationPlan {
        ino: a.ino,
        block: 0,
        n_blocks: 3,
        to: 1,
    })?;
    cx.mux.autotier_enqueue(crate::policy::MigrationPlan {
        ino: a.ino,
        block: 3,
        n_blocks: 3,
        to: 1,
    })?;
    cx.mux.maintenance_tick();
    cx.mux.fsync(a.ino)?;
    o.fsync("at");
    // A second epoch boundary: the planner closes the first epoch and the
    // metafile snapshot lands, all under the same crash enumeration.
    cx.devices[0].clock().advance(cx.mux.opts.autotier.epoch_ns);
    cx.mux.maintenance_tick();
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

fn autotier_mirror_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    setup_one_file(cx, o, "mr", 14, 6)?;
    // Heat the file well past the hot threshold with pure reads: the
    // run's maintenance ticks close epochs, and a cold file's replica
    // would be retired by the planner mid-scenario — the very replica
    // whose lifecycle this scenario crash-enumerates. A hot, read-heavy
    // file with a rank-0 primary gets no planner actions at all, so the
    // explicitly enqueued Mirror/Unmirror are the only replica machinery
    // in play and the device-op sequence stays deterministic.
    let a = cx.mux.lookup(ROOT_INO, "mr")?;
    let mut buf = vec![0u8; 6 * BK];
    for _ in 0..32 {
        cx.mux.read(a.ino, 0, &mut buf)?;
    }
    Ok(())
}

fn autotier_mirror_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    // The replica lifecycle under power cuts. Creation must be
    // all-or-nothing: at every crash point the recovered replica map
    // either names no extra copy or names a complete, byte-identical one
    // (`structural_check` compares the native images directly). Both
    // actions are enqueued explicitly — the same queue the epoch planner
    // feeds — so the device-op sequence is deterministic.
    let a = cx.mux.lookup(ROOT_INO, "mr")?;
    cx.mux
        .autotier_enqueue_action(crate::autotier::EpochAction::Mirror(
            crate::policy::MigrationPlan {
                ino: a.ino,
                block: 0,
                n_blocks: 3,
                to: 1,
            },
        ));
    cx.mux.maintenance_tick();
    cx.mux.sync()?;
    o.sync_all();
    // Writes beside a live replica: the snapshot carrying the replica map
    // and the ordinary data path must not disturb each other.
    let d = pat_buf(24, 4 * BK, 2 * BK);
    o.write("mr", 4 * BK, &d);
    cx.mux.write(a.ino, (4 * BK) as u64, &d)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("mr");
    // Retirement journals before the first punch, so recovery retires the
    // snapshot's stale entries too instead of resurrecting a half-punched
    // copy.
    cx.mux
        .autotier_enqueue_action(crate::autotier::EpochAction::Unmirror(
            crate::policy::MigrationPlan {
                ino: a.ino,
                block: 0,
                n_blocks: 3,
                to: 1,
            },
        ));
    cx.mux.maintenance_tick();
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

fn checksummed_setup(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    // Four synced blocks whose checksums land in the metafile snapshot;
    // recovery reloads them as *untrusted*, and every post-crash read in
    // `Oracle::verify` runs them through the verification path.
    setup_one_file(cx, o, "ck", 12, 4)?;
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

fn checksummed_run(cx: &Ctx<'_>, o: &mut Oracle) -> VfsResult<()> {
    let a = cx.mux.lookup(ROOT_INO, "ck")?;
    // Aligned overwrite: the checksum is recomputed from the write buffer.
    let d = pat_buf(21, 0, BK);
    o.write("ck", 0, &d);
    cx.mux.write(a.ino, 0, &d)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("ck");
    // Unaligned overwrite straddling a block boundary: both boundary
    // blocks drop their checksums and are re-read back from the device.
    let d2 = pat_buf(22, BK + 512, BK);
    o.write("ck", BK + 512, &d2);
    cx.mux.write(a.ino, (BK + 512) as u64, &d2)?;
    cx.mux.fsync(a.ino)?;
    o.fsync("ck");
    // A full scrub pass re-verifies (and re-trusts) every block, so the
    // following snapshot persists a complete checksum set.
    cx.mux.scrub_everything();
    cx.mux.sync()?;
    o.sync_all();
    Ok(())
}

/// The standard workload set: create/write/fsync, rename, unlink,
/// migration begin→commit, migration abort, repeated checkpoint rewrites,
/// an autotier epoch (planned batch of background migrations), a mirror
/// create→retire cycle, a checksummed write/scrub/checkpoint cycle, and
/// enough small fsyncs to push the delta log across its budget.
pub fn standard_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "create_write_fsync",
            setup: setup_empty,
            run: create_run,
        },
        Scenario {
            name: "rename",
            setup: rename_setup,
            run: rename_run,
        },
        Scenario {
            name: "unlink",
            setup: unlink_setup,
            run: unlink_run,
        },
        Scenario {
            name: "migration_commit",
            setup: migration_setup,
            run: migration_run,
        },
        Scenario {
            name: "migration_abort",
            setup: migration_abort_setup,
            run: migration_abort_run,
        },
        Scenario {
            name: "snapshot_rewrite",
            setup: snapshot_setup,
            run: snapshot_run,
        },
        Scenario {
            name: "autotier_epoch",
            setup: autotier_epoch_setup,
            run: autotier_epoch_run,
        },
        Scenario {
            name: "autotier_mirror",
            setup: autotier_mirror_setup,
            run: autotier_mirror_run,
        },
        Scenario {
            name: "checksummed_io",
            setup: checksummed_setup,
            run: checksummed_run,
        },
        Scenario {
            name: "delta_log",
            setup: delta_log_setup,
            run: delta_log_run,
        },
    ]
}
