//! Property tests of the autotier planner's invariants, plus end-to-end
//! tests of [`Mux::maintenance_tick`].
//!
//! The planner ([`mux::autotier::plan_epoch`]) is a pure function, so its
//! contract is tested directly over arbitrary tier occupancy, file
//! layouts, replica placements, heat scores, read fractions and pin
//! sets: no epoch may migrate or mirror a pinned file, target an
//! unhealthy tier, exceed the migration or mirror byte budgets, leave a
//! migration's destination with less than its reserve free or above the
//! cap, push a mirror's past the mirror watermark, or demote a range whose
//! replica it has not retired first; and each chain must end in its move
//! and count only on room its own steps free.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use mux::autotier::{plan_epoch, AutotierConfig, EpochAction};
use mux::policy::{FileView, Heat, TierStatus};
use mux::{Mux, MuxOptions, PinnedPolicy, TierConfig, TierHealthState, TierId, BLOCK};
use simdev::{DeviceClass, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, ROOT_INO};

// ---------------------------------------------------------------------
// Raw generators (the vendored proptest shim has no prop_compose /
// prop_flat_map, so tiers and files are generated as integer tuples and
// assembled in plain code)
// ---------------------------------------------------------------------

/// (class pick, health pick, total blocks, free percent) per tier.
type RawTier = (u8, u8, u64, u64);
/// (extents as (block, n_blocks, tier pick), score in centi-units,
/// pin/read-fraction pick, replicas as (block, n_blocks, tier pick)).
type RawFile = (Vec<(u64, u64, u32)>, u64, u8, Vec<(u64, u64, u32)>);

fn raw_tiers() -> impl Strategy<Value = Vec<RawTier>> {
    vec((0..4u8, 0..7u8, 64..4096u64, 0..=100u64), 2..=4)
}

fn raw_files() -> impl Strategy<Value = Vec<RawFile>> {
    vec(
        (
            vec((0..512u64, 1..64u64, 0..64u32), 1..4),
            0..3200u64,
            0..15u8,
            vec((0..512u64, 1..64u64, 0..64u32), 0..3),
        ),
        1..=12,
    )
}

fn build_tiers(raw: &[RawTier]) -> Vec<TierStatus> {
    raw.iter()
        .enumerate()
        .map(|(id, &(class, health, total_blocks, free_pct))| {
            let class = match class {
                0 => DeviceClass::Pmem,
                1 => DeviceClass::CxlSsd,
                2 => DeviceClass::Ssd,
                _ => DeviceClass::Hdd,
            };
            // Healthy-biased: the interesting plans need somewhere to go.
            let health = match health {
                0..=3 => TierHealthState::Healthy,
                4 => TierHealthState::Degraded,
                5 => TierHealthState::ReadOnly,
                _ => TierHealthState::Offline,
            };
            let total = total_blocks * BLOCK;
            TierStatus {
                id: id as TierId,
                name: format!("t{id}"),
                class,
                free_bytes: (total_blocks * free_pct / 100) * BLOCK,
                total_bytes: total,
                reserve_bytes: MuxOptions::default().cost.max_dispatch_bytes,
                health,
            }
        })
        .collect()
}

/// Returns the file views, heat included, and the pinned inos.
fn build_files(raw: &[RawFile], n_tiers: usize) -> (Vec<FileView>, HashSet<u64>) {
    let mut files = Vec::new();
    let mut pins = HashSet::new();
    // Raw extents are arbitrary and may overlap; a real BLT (and the
    // replica RangeMap) holds one owner per block, so lay each list out
    // disjointly — the raw block pick becomes an inter-extent gap.
    let disjoint = |raw: &[(u64, u64, u32)]| {
        let mut cursor = 0u64;
        let mut out = Vec::new();
        for &(b, n, t) in raw {
            let start = cursor + b % 32;
            out.push((start, n, t % n_tiers as u32));
            cursor = start + n;
        }
        out
    };
    for (i, (extents, score, pick, replicas)) in raw.iter().enumerate() {
        let ino = i as u64 + 1;
        // One byte drives two independent axes: pick % 3 == 0 pins the
        // file, pick / 3 in 0..=4 spreads read fractions over
        // {0, ¼, ½, ¾, 1} — covering pinned × read-heavy combinations.
        let heat = Heat {
            score: *score as f64 / 100.0,
            read_frac: (*pick / 3) as f64 / 4.0,
        };
        files.push(FileView {
            ino,
            extents: disjoint(extents),
            replicas: disjoint(replicas),
            heat,
        });
        if *pick % 3 == 0 {
            pins.insert(ino);
        }
    }
    (files, pins)
}

/// The bytes a tier must keep free to stay at or below `mark` utilization
/// — the planner's own truncating arithmetic, replayed.
fn kept_free(t: &TierStatus, mark: f64) -> u64 {
    ((1.0 - mark) * t.total_bytes as f64) as u64
}

// ---------------------------------------------------------------------
// Planner invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn planner_invariants_hold(
        rt in raw_tiers(),
        rf in raw_files(),
        budget_blocks in 1..=64u64,
        mirror_budget_blocks in 1..=64u64,
        max_plans in 1..=32usize,
        cap_pct in 40..=100u64,
    ) {
        // Half the cases run without a cap (the default), half under one.
        let cap = if cap_pct > 70 { 1.0 } else { cap_pct as f64 / 100.0 };
        let cfg = AutotierConfig {
            max_bytes_per_epoch: budget_blocks * BLOCK,
            mirror_bytes_per_epoch: mirror_budget_blocks * BLOCK,
            max_plans_per_epoch: max_plans,
            high_watermark: cap,
            ..AutotierConfig::default()
        };
        let tiers = build_tiers(&rt);
        let (files, pins) = build_files(&rf, tiers.len());

        let out = plan_epoch(&cfg, &tiers, &files, &|ino| {
            pins.contains(&ino)
        });

        // Copy-move count (migrations + mirrors) and both byte budgets
        // are bounded; unmirrors are free hole punches and uncounted.
        let copies = out
            .actions()
            .filter(|a| a.unmirror().is_none())
            .count();
        prop_assert!(copies <= cfg.max_plans_per_epoch);
        let migrate_bytes: u64 = out
            .actions()
            .filter_map(|a| a.migrate())
            .map(|(p, _)| p.n_blocks * BLOCK)
            .sum();
        prop_assert!(
            migrate_bytes <= cfg.max_bytes_per_epoch,
            "migrated {} bytes over a {} budget",
            migrate_bytes,
            cfg.max_bytes_per_epoch
        );
        let mirror_bytes: u64 = out
            .actions()
            .filter_map(|a| a.mirror())
            .map(|p| p.n_blocks * BLOCK)
            .sum();
        prop_assert!(
            mirror_bytes <= cfg.mirror_bytes_per_epoch,
            "mirrored {} bytes over a {} budget",
            mirror_bytes,
            cfg.mirror_bytes_per_epoch
        );

        // No migration or mirror touches a pinned file, every action
        // covers >= 1 block, and every copy destination is Healthy.
        for a in out.actions() {
            let (p, is_copy) = match a {
                EpochAction::Migrate { plan, .. } => (plan, true),
                EpochAction::Mirror(p) => (p, true),
                EpochAction::Unmirror(p) => (p, false),
            };
            prop_assert!(p.n_blocks > 0);
            if is_copy {
                prop_assert!(!pins.contains(&p.ino), "planned pinned ino {}", p.ino);
                let t = tiers.iter().find(|t| t.id == p.to);
                prop_assert!(t.is_some(), "plan targets unknown tier {}", p.to);
                prop_assert_eq!(
                    t.unwrap().health,
                    TierHealthState::Healthy,
                    "copy targets {:?} tier {}",
                    t.unwrap().health,
                    p.to
                );
            }
        }

        // Mirrors land on a tier that does not already own the range: a
        // replica of a block colocated with its primary protects nothing.
        for a in out.actions() {
            let Some(p) = a.mirror() else { continue };
            let f = files.iter().find(|f| f.ino == p.ino).unwrap();
            for &(eb, en, et) in &f.extents {
                let overlap = eb < p.block + p.n_blocks && eb + en > p.block;
                prop_assert!(
                    !(overlap && et == p.to),
                    "mirror of ino {} blocks [{}, {}) onto its own primary tier {}",
                    p.ino,
                    p.block,
                    p.block + p.n_blocks,
                    p.to
                );
            }
        }

        // Capacity, replayed chain by chain in plan order: copies debit
        // their destination, unmirrors credit their tier, and a migration
        // credits the tier it leaves once it lands. After every mirror the
        // destination sits at or below the mirror watermark. A migration
        // may count on what its own chain's earlier steps free, never on
        // what another chain frees: the executor may drop any chain after
        // any of its steps, so each chain leaves the next only the least
        // free space any of its prefixes leaves (`floor`). After every
        // migration its destination keeps its reserve free and sits at or
        // below the cap even then.
        let initial: HashMap<TierId, u64> =
            tiers.iter().map(|t| (t.id, t.free_bytes)).collect();
        let mut free = initial.clone(); // every step so far
        let mut floor = initial; // whatever prefix of each chain ran
        for chain in &out.chains {
            let mut own = floor.clone(); // plus this chain's steps so far
            let mut low = floor.clone();
            for a in chain {
                let p = a.plan();
                let t = tiers.iter().find(|t| t.id == p.to).unwrap();
                // (tier, credited) for every tier the step changes.
                let mut changes = vec![(p.to, a.unmirror().is_some())];
                if a.migrate().is_some() {
                    let f = files.iter().find(|f| f.ino == p.ino).unwrap();
                    let from = f
                        .extents
                        .iter()
                        .find(|&&(b, n, _)| b <= p.block && p.block + p.n_blocks <= b + n)
                        .map(|&(_, _, t)| t);
                    prop_assert!(from.is_some(), "migration {:?} spans extents", p);
                    changes.push((from.unwrap(), true));
                }
                let bytes = p.n_blocks * BLOCK;
                for (tier, credit) in changes {
                    for m in [&mut free, &mut own] {
                        if let Some(f) = m.get_mut(&tier) {
                            *f = if credit {
                                f.saturating_add(bytes)
                            } else {
                                f.saturating_sub(bytes)
                            };
                        }
                    }
                }
                for (tier, l) in low.iter_mut() {
                    *l = (*l).min(own[tier]);
                }
                if a.mirror().is_some() {
                    prop_assert!(
                        free[&p.to] >= kept_free(t, cfg.mirror_watermark),
                        "mirror pushes tier {} past the mirror watermark",
                        p.to
                    );
                }
                if a.migrate().is_some() {
                    prop_assert!(
                        own[&p.to] >= t.reserve_bytes,
                        "migration leaves tier {} less than its reserve free",
                        p.to
                    );
                    prop_assert!(
                        own[&p.to] >= kept_free(t, cfg.high_watermark),
                        "migration pushes tier {} past the cap",
                        p.to
                    );
                }
            }
            floor = low;
        }

        // Every chain that moves a primary ends in its move; the others
        // are one mirror, or the retirement of one replica range.
        for chain in &out.chains {
            let moves = chain.iter().any(|a| a.migrate().is_some());
            let last = chain.last().unwrap();
            prop_assert!(
                if moves {
                    last.migrate().is_some()
                } else {
                    chain.len() == 1 || chain.iter().all(|a| a.unmirror().is_some())
                },
                "chain {:?}",
                chain
            );
        }

        // Unmirror-before-demote: a demotion of a range whose input view
        // holds a replica is preceded by unmirrors covering the overlap —
        // the fast copy never outlives the demoted primary.
        let actions: Vec<&EpochAction> = out.actions().collect();
        for (i, a) in actions.iter().enumerate() {
            let Some((p, promote)) = a.migrate() else { continue };
            if promote {
                continue;
            }
            let f = files.iter().find(|f| f.ino == p.ino).unwrap();
            for &(rb, rn, rtier) in &f.replicas {
                let lo = rb.max(p.block);
                let hi = (rb + rn).min(p.block + p.n_blocks);
                if lo >= hi {
                    continue;
                }
                // Every overlapped replica block must be retired earlier
                // in the action list.
                let mut covered: Vec<(u64, u64)> = Vec::new();
                for b in &actions[..i] {
                    if let Some(u) = b.unmirror() {
                        if u.ino == p.ino && u.to == rtier {
                            covered.push((u.block, u.n_blocks));
                        }
                    }
                }
                for blk in lo..hi {
                    prop_assert!(
                        covered.iter().any(|&(s, l)| s <= blk && blk < s + l),
                        "ino {} block {} demoted to tier {} while its replica \
                         on tier {} was not first unmirrored",
                        p.ino,
                        blk,
                        p.to,
                        rtier
                    );
                }
            }
        }
    }

    #[test]
    fn planner_is_deterministic(rt in raw_tiers(), rf in raw_files()) {
        let cfg = AutotierConfig::default();
        let tiers = build_tiers(&rt);
        let (files, _) = build_files(&rf, tiers.len());
        let a = plan_epoch(&cfg, &tiers, &files, &|_| false);
        let b = plan_epoch(&cfg, &tiers, &files, &|_| false);
        prop_assert_eq!(a.chains, b.chains);
        prop_assert_eq!(a.vetoes, b.vetoes);
    }
}

// ---------------------------------------------------------------------
// End-to-end: maintenance_tick moves a hot file up
// ---------------------------------------------------------------------

fn build_stack() -> (VirtualClock, Arc<Mux>) {
    let clock = VirtualClock::new();
    // Place new files on the slow tier; the pins map stays empty so the
    // autotier is free to move them.
    let mux = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(2)),
        MuxOptions::default(),
    ));
    for (name, class) in [
        ("pm", DeviceClass::Pmem),
        ("ssd", DeviceClass::Ssd),
        ("hdd", DeviceClass::Hdd),
    ] {
        mux.add_tier(
            TierConfig {
                name: name.into(),
                class,
            },
            Arc::new(MemFs::new(name, 1 << 30)),
        );
    }
    (clock, mux)
}

fn tier_class_of(mux: &Mux, tier: TierId) -> DeviceClass {
    mux.tier_status()
        .into_iter()
        .find(|t| t.id == tier)
        .unwrap()
        .class
}

#[test]
fn maintenance_tick_promotes_the_hot_file() {
    let (clock, mux) = build_stack();
    let hot = mux
        .create(ROOT_INO, "hot", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    let cold = mux
        .create(ROOT_INO, "cold", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    let payload = vec![7u8; 16 * BLOCK as usize];
    mux.write(hot, 0, &payload).unwrap();
    mux.write(cold, 0, &payload).unwrap();
    assert!(mux
        .file_placement(hot)
        .unwrap()
        .iter()
        .all(|&(_, _, t)| t == 2));

    // Heat the hot file well past the promotion threshold; the cold file
    // stays untouched (it is already on the slowest tier, so no demotion
    // is planned for it either). Writes keep the read fraction below the
    // mirror threshold so this stays a pure promotion scenario.
    let mut buf = vec![0u8; BLOCK as usize];
    for _ in 0..32 {
        mux.read(hot, 0, &mut buf).unwrap();
        mux.write(hot, 0, &buf).unwrap();
    }

    let mut promoted_blocks = 0;
    for _ in 0..16 {
        clock.advance(AutotierConfig::default().epoch_ns);
        let r = mux.maintenance_tick();
        promoted_blocks += r.blocks_moved;
        let done = mux
            .file_placement(hot)
            .unwrap()
            .iter()
            .all(|&(_, _, t)| tier_class_of(&mux, t) != DeviceClass::Hdd);
        if done {
            break;
        }
    }
    assert!(promoted_blocks > 0, "autotier never moved anything");
    assert!(
        mux.file_placement(hot)
            .unwrap()
            .iter()
            .all(|&(_, _, t)| tier_class_of(&mux, t) != DeviceClass::Hdd),
        "hot file still on HDD: {:?}",
        mux.file_placement(hot).unwrap()
    );
    // The untouched file stays where it was placed.
    assert!(mux
        .file_placement(cold)
        .unwrap()
        .iter()
        .all(|&(_, _, t)| t == 2));
    let stats = mux.stats().snapshot();
    assert!(stats.auto_promotions > 0);
}

#[test]
fn maintenance_tick_mirrors_the_read_heavy_file() {
    let (clock, mux) = build_stack();
    let ino = mux
        .create(ROOT_INO, "readheavy", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    mux.write(ino, 0, &vec![3u8; 8 * BLOCK as usize]).unwrap();
    assert!(mux
        .file_placement(ino)
        .unwrap()
        .iter()
        .all(|&(_, _, t)| t == 2));

    // A pure-read workload: heat rises with read fraction 1.0, so the
    // planner mirrors onto a fast tier instead of promoting the primary
    // onto the very fastest class.
    let mut buf = vec![0u8; BLOCK as usize];
    for pass in 0..24 {
        for b in 0..8u64 {
            mux.read(ino, b * BLOCK, &mut buf).unwrap();
        }
        if pass % 4 == 3 {
            clock.advance(AutotierConfig::default().epoch_ns);
            mux.maintenance_tick();
        }
    }
    for _ in 0..8 {
        clock.advance(AutotierConfig::default().epoch_ns);
        mux.maintenance_tick();
        if !mux.file_replicas(ino).unwrap().is_empty() {
            break;
        }
    }
    let reps = mux.file_replicas(ino).unwrap();
    assert!(
        !reps.is_empty(),
        "read-heavy file never gained a replica: {:?}",
        mux.file_placement(ino).unwrap()
    );
    // The replica sits on a strictly faster class than the primary.
    let primary_class = tier_class_of(&mux, mux.file_placement(ino).unwrap()[0].2);
    for &(_, _, rt) in &reps {
        assert!(tier_class_of(&mux, rt) < primary_class);
    }
    let stats = mux.stats().snapshot();
    assert!(stats.mirrors_created > 0);
}

#[test]
fn disabled_engine_never_moves_data() {
    let clock = VirtualClock::new();
    let mut opts = MuxOptions::default();
    opts.autotier.enabled = false;
    let mux = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(1)),
        opts,
    ));
    for (name, class) in [("pm", DeviceClass::Pmem), ("hdd", DeviceClass::Hdd)] {
        mux.add_tier(
            TierConfig {
                name: name.into(),
                class,
            },
            Arc::new(MemFs::new(name, 1 << 30)),
        );
    }
    let ino = mux
        .create(ROOT_INO, "f", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    mux.write(ino, 0, &vec![1u8; 8 * BLOCK as usize]).unwrap();
    let mut buf = vec![0u8; BLOCK as usize];
    for _ in 0..64 {
        mux.read(ino, 0, &mut buf).unwrap();
    }
    clock.advance(1_000_000_000);
    let r = mux.maintenance_tick();
    // No planning or movement — but the scrubber still runs (it is
    // independent of the tiering engine) and verifies the 8 blocks.
    assert!(!r.planned_epoch);
    assert_eq!(r.planned, 0);
    assert_eq!(r.executed, 0);
    assert_eq!(r.blocks_moved, 0);
    assert_eq!(r.queued, 0);
    assert!(r.scrubbed > 0);
    assert!(mux
        .file_placement(ino)
        .unwrap()
        .iter()
        .all(|&(_, _, t)| t == 1));
}
