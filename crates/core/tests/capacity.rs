//! The capacity rule over the real native file systems: a tier has room
//! for `need` bytes iff `free_bytes ≥ need + reserve_bytes`, where the
//! reserve is one `max_dispatch_bytes` piece — the largest native write
//! Mux issues.
//!
//! * A tier filled to exactly its reserve still takes an overwrite of one
//!   such piece, and of one block, on every native file system: that is
//!   what the reserve is for.
//! * The autotier engine fills PM and SSD to within a reserve and an
//!   extent of full, and what is left on the HDD is the coldest data.
//! * An explicit move into a full tier makes room first, demoting only
//!   residents colder than the moved file; so does each move of a sink
//!   chain run out of plan order.
//! * A write that finds its tier full (another user took the reserve) goes
//!   to a tier with room instead of failing.

use std::sync::Arc;

use e4fs::{E4Fs, E4Options};
use mux::autotier::plan_epoch;
use mux::policy::{FileView, MigrationPlan};
use mux::{LruPolicy, Mux, MuxOptions, TierConfig, TierId, BLOCK};
use novafs::{NovaFs, NovaOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdev::{hdd, nvme_ssd, pmem, Device, DeviceClass, VirtualClock};
use tvfs::{FileSystem, FileType, ROOT_INO};
use xefs::{XeFs, XeOptions};

/// Page caches small enough that writeback runs inside a test.
const PAGE_CACHE: u64 = 1 << 20;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Nova,
    Xe,
    E4,
}

impl Kind {
    fn class(self) -> DeviceClass {
        match self {
            Kind::Nova => DeviceClass::Pmem,
            Kind::Xe => DeviceClass::Ssd,
            Kind::E4 => DeviceClass::Hdd,
        }
    }

    /// A freshly formatted native file system on a `capacity`-byte device.
    fn format(self, capacity: u64, clock: &VirtualClock) -> Arc<dyn FileSystem> {
        match self {
            Kind::Nova => {
                let dev = Device::with_profile(pmem(), capacity, clock.clone());
                Arc::new(NovaFs::format(dev, NovaOptions::default()).unwrap())
            }
            Kind::Xe => {
                let dev = Device::with_profile(nvme_ssd(), capacity, clock.clone());
                let o = XeOptions {
                    page_cache_bytes: PAGE_CACHE,
                    ..Default::default()
                };
                Arc::new(XeFs::format(dev, o).unwrap())
            }
            Kind::E4 => {
                let dev = Device::with_profile(hdd(), capacity, clock.clone());
                let o = E4Options {
                    page_cache_bytes: PAGE_CACHE,
                    ..Default::default()
                };
                Arc::new(E4Fs::format(dev, o).unwrap())
            }
        }
    }
}

/// Mux over `(kind, capacity)` tiers, in order, with `opts`.
fn stack(tiers: &[(Kind, u64)], opts: MuxOptions) -> (VirtualClock, Mux, Vec<Arc<dyn FileSystem>>) {
    let clock = VirtualClock::new();
    let mux = Mux::new(
        clock.clone(),
        Arc::new(LruPolicy::default_watermarks()),
        opts,
    );
    let mut natives = Vec::new();
    for (i, &(kind, capacity)) in tiers.iter().enumerate() {
        let fs = kind.format(capacity, &clock);
        mux.add_tier(
            TierConfig {
                name: format!("t{i}-{kind:?}"),
                class: kind.class(),
            },
            fs.clone(),
        );
        natives.push(fs);
    }
    (clock, mux, natives)
}

fn mk(mux: &Mux, name: &str) -> u64 {
    mux.create(ROOT_INO, name, FileType::Regular, 0o644)
        .unwrap()
        .ino
}

fn status(mux: &Mux, tier: TierId) -> mux::policy::TierStatus {
    mux.tier_status()
        .into_iter()
        .find(|t| t.id == tier)
        .unwrap()
}

/// Another user of `fs` writes while more than `leave` bytes are free.
fn fill_natively(fs: &dyn FileSystem, leave: u64) {
    let ballast = fs
        .create(ROOT_INO, "ballast", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    let mut end = 0;
    loop {
        let free = fs.statfs().unwrap().free_bytes;
        if free <= leave {
            return;
        }
        let n = (free - leave).min(1 << 20);
        fs.write(ballast, end, &vec![0xba; n as usize]).unwrap();
        fs.fsync(ballast).unwrap();
        end += n;
    }
}

#[test]
fn a_tier_at_its_reserve_takes_one_dispatch_of_overwrite_on_every_native_fs() {
    for kind in [Kind::Nova, Kind::Xe, Kind::E4] {
        let opts = MuxOptions::default();
        let piece = opts.cost.max_dispatch_bytes;
        let (_clock, mux, natives) = stack(&[(kind, 64 << 20)], opts);
        let ino = mk(&mux, "data");
        let data = vec![1u8; (2 * piece) as usize];
        mux.write(ino, 0, &data).unwrap();
        mux.fsync(ino).unwrap();
        let reserve = status(&mux, 0).reserve_bytes;
        assert_eq!(reserve, piece);
        fill_natively(natives[0].as_ref(), reserve);
        let st = status(&mux, 0);
        assert_eq!(st.free_bytes, st.reserve_bytes, "{kind:?}");
        assert!(
            !st.has_room(BLOCK),
            "{kind:?}: a tier at its reserve is full"
        );

        // One whole dispatch piece of the tier's own blocks, then one block.
        let piece_bytes = vec![2u8; piece as usize];
        mux.write(ino, piece, &piece_bytes)
            .unwrap_or_else(|e| panic!("{kind:?}: {piece}-byte overwrite: {e}"));
        mux.fsync(ino)
            .unwrap_or_else(|e| panic!("{kind:?}: fsync after the piece: {e}"));
        mux.write(ino, 3 * BLOCK, &[3u8; BLOCK as usize])
            .unwrap_or_else(|e| panic!("{kind:?}: one-block overwrite: {e}"));
        mux.fsync(ino)
            .unwrap_or_else(|e| panic!("{kind:?}: fsync after the block: {e}"));

        let mut got = vec![0u8; data.len()];
        mux.read(ino, 0, &mut got).unwrap();
        let mut want = data.clone();
        want[piece as usize..].copy_from_slice(&piece_bytes);
        want[3 * BLOCK as usize..4 * BLOCK as usize].fill(3);
        assert!(got == want, "{kind:?}: read-back differs");
        assert!(
            mux.file_placement(ino)
                .unwrap()
                .iter()
                .all(|&(_, _, t)| t == 0),
            "{kind:?}: the overwrites stayed on their tier"
        );
    }
}

#[test]
fn the_reserve_is_what_a_copy_on_write_overwrite_needs() {
    // One block less than the reserve and novafs, which allocates a whole
    // dispatch piece before it frees the pages it displaces, refuses it.
    let opts = MuxOptions::default();
    let piece = opts.cost.max_dispatch_bytes;
    let (_clock, mux, natives) = stack(&[(Kind::Nova, 64 << 20)], opts);
    let ino = mk(&mux, "data");
    mux.write(ino, 0, &vec![1u8; piece as usize]).unwrap();
    fill_natively(natives[0].as_ref(), piece - BLOCK);
    assert_eq!(status(&mux, 0).free_bytes, piece - BLOCK);
    assert_eq!(
        mux.write(ino, 0, &vec![2u8; piece as usize]),
        Err(tvfs::VfsError::NoSpace)
    );
    mux.write(ino, 0, &[3u8; BLOCK as usize]).unwrap();
}

/// Zipf weights over `n` ranks, cumulative and normalised.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

#[test]
fn autotier_fills_the_fast_tiers_and_leaves_the_coldest_files_below() {
    const FILES: usize = 120;
    const FILE_BYTES: u64 = 256 << 10;
    let mut opts = MuxOptions::default();
    opts.autotier.mirror_enabled = false;
    let epoch_ns = opts.autotier.epoch_ns;
    // 30 MiB of files over 8 MiB of PM and 24 MiB of SSD (8 MiB of it the
    // xefs journal): about a third of the data cannot fit above the HDD.
    let (clock, mux, _) = stack(
        &[
            (Kind::Nova, 8 << 20),
            (Kind::Xe, 24 << 20),
            (Kind::E4, 64 << 20),
        ],
        opts,
    );
    // File `r` has Zipf rank `r`: the hottest are written first.
    let inos: Vec<u64> = (0..FILES)
        .map(|r| {
            let ino = mk(&mux, &format!("f{r}"));
            mux.write(ino, 0, &vec![r as u8; FILE_BYTES as usize])
                .unwrap();
            ino
        })
        .collect();
    let cdf = zipf_cdf(FILES, 0.99);
    let mut rng = StdRng::seed_from_u64(35);
    let mut buf = [0u8; BLOCK as usize];
    for _ in 0..20 {
        for _ in 0..3000 {
            let u: f64 = rng.gen();
            let r = cdf.partition_point(|&c| c < u).min(FILES - 1);
            let off = rng.gen_range(0..FILE_BYTES / BLOCK) * BLOCK;
            if rng.gen_bool(0.7) {
                mux.read(inos[r], off, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == r as u8), "file {r} reads back");
            } else {
                mux.write(inos[r], off, &[r as u8; BLOCK as usize]).unwrap();
            }
        }
        clock.advance(epoch_ns);
        mux.maintenance_tick();
    }

    // Full: within one reserve plus one extent (a whole file here).
    for tier in [0, 1] {
        let st = status(&mux, tier);
        assert!(
            st.free_bytes <= st.reserve_bytes + FILE_BYTES,
            "tier {tier} has {} KiB free, reserve {} KiB",
            st.free_bytes >> 10,
            st.reserve_bytes >> 10
        );
    }
    // What the HDD holds is the coldest data.
    let on_hdd: Vec<usize> = (0..FILES)
        .filter(|&r| {
            let placement = mux.file_placement(inos[r]).unwrap();
            placement.iter().any(|&(_, _, t)| t == 2)
        })
        .collect();
    assert!(!on_hdd.is_empty(), "the data does not fit above the HDD");
    assert!(
        on_hdd.iter().all(|&r| r >= FILES / 2),
        "files on the HDD, by Zipf rank: {on_hdd:?}"
    );
}

#[test]
fn migrating_into_a_full_tier_demotes_only_colder_residents() {
    const PIECE: u64 = 512 << 10;
    let mut opts = MuxOptions::default();
    // No planner: the only moves are the one asked for and its room.
    opts.autotier.enabled = false;
    let (_clock, mux, natives) = stack(&[(Kind::Nova, 8 << 20), (Kind::Xe, 32 << 20)], opts);
    let on = |ino: u64, tier: TierId| {
        let placement = mux.file_placement(ino).unwrap();
        placement
            .iter()
            .filter(|e| e.2 == tier)
            .map(|e| e.1)
            .sum::<u64>()
    };
    // Files first: creating one takes native metadata space too. The
    // mover's first fifth lands on PM, then three cold files and as many
    // hot ones as PM takes; the mover's tail lands on the SSD.
    let mover = mk(&mux, "mover");
    let cold: Vec<u64> = (0..3).map(|i| mk(&mux, &format!("cold{i}"))).collect();
    let mut hot: Vec<u64> = (0..16).map(|i| mk(&mux, &format!("hot{i}"))).collect();
    mux.write(mover, 0, &[7u8; (PIECE / 2) as usize]).unwrap();
    for &ino in &cold {
        mux.write(ino, 0, &[1u8; PIECE as usize]).unwrap();
    }
    for &ino in &hot {
        mux.write(ino, 0, &[2u8; PIECE as usize]).unwrap();
    }
    hot.retain(|&ino| on(ino, 0) > 0);
    assert!(hot.len() < 16, "PM filled up");
    mux.write(mover, PIECE / 2, &[8u8; (2 * PIECE) as usize])
        .unwrap();
    assert_eq!((on(mover, 0), on(mover, 1)), (64, 256));
    assert!(cold.iter().chain(&hot).all(|&ino| on(ino, 0) == 128));
    // Another user takes what PM had left above its reserve.
    fill_natively(natives[0].as_ref(), status(&mux, 0).reserve_bytes);
    assert!(!status(&mux, 0).has_room(BLOCK), "PM is full");

    // Heat: each cold file is read once, the mover ten times, each hot
    // file twenty times.
    let mut buf = [0u8; BLOCK as usize];
    let reads = cold.iter().map(|&i| (i, 1)).chain([(mover, 10)]);
    for (ino, n) in reads.chain(hot.iter().map(|&i| (i, 20))) {
        for k in 0..n {
            mux.read(ino, k * BLOCK, &mut buf).unwrap();
        }
    }
    mux.maintenance_tick(); // folds fast-path hits into the heat record
    let heat = |ino: u64| mux.autotier().heat.heat(ino).score;
    assert!(cold.iter().all(|&c| heat(c) < heat(mover)));
    assert!(hot.iter().all(|&h| heat(h) > heat(mover)));

    mux.migrate_file(mover, 0).unwrap();
    assert_eq!(on(mover, 0), 320, "the mover sits wholly on PM");
    let demoted: u64 = cold.iter().map(|&c| 128 - on(c, 0)).sum();
    assert!(demoted >= 256, "room for 256 blocks: {demoted} demoted");
    assert!(
        hot.iter().all(|&h| on(h, 0) == 128),
        "residents hotter than the mover stay"
    );
    assert_eq!(mux.stats().snapshot().room_demotions, demoted);
    // The room was there before the move; the move's own novafs log
    // entries may take a page of the reserve, and a write that then finds
    // PM full goes elsewhere (`a_write_that_finds_its_tier_full_...`).
    assert!(status(&mux, 0).free_bytes >= status(&mux, 0).reserve_bytes - BLOCK);

    let mut got = vec![0u8; (PIECE / 2 + 2 * PIECE) as usize];
    mux.read(mover, 0, &mut got).unwrap();
    assert!(got[..(PIECE / 2) as usize].iter().all(|&b| b == 7));
    assert!(got[(PIECE / 2) as usize..].iter().all(|&b| b == 8));
    for &c in &cold {
        let mut got = vec![0u8; PIECE as usize];
        mux.read(c, 0, &mut got).unwrap();
        assert!(got.iter().all(|&b| b == 1), "a demoted file reads back");
    }
}

#[test]
fn a_write_that_finds_its_tier_full_goes_to_one_with_room() {
    let opts = MuxOptions::default();
    let piece = opts.cost.max_dispatch_bytes;
    let (_clock, mux, natives) = stack(&[(Kind::Nova, 8 << 20), (Kind::Xe, 32 << 20)], opts);
    let on_pm = |ino: u64| {
        let placement = mux.file_placement(ino).unwrap();
        placement.iter().all(|&(_, _, t)| t == 0)
    };
    let big = mk(&mux, "big");
    mux.write(big, 0, &vec![1u8; piece as usize]).unwrap();
    // Mux's own placement fills PM: one-block files until one lands
    // below it.
    let mut small = Vec::new();
    loop {
        let ino = mk(&mux, &format!("s{}", small.len()));
        mux.write(ino, 0, &[0u8; BLOCK as usize]).unwrap();
        if !on_pm(ino) {
            break;
        }
        small.push(ino);
    }
    // Overwrites stay on their tier.
    for &ino in &small {
        mux.write(ino, 0, &[2u8; BLOCK as usize]).unwrap();
    }
    assert!(on_pm(big) && small.iter().all(|&ino| on_pm(ino)));
    // Another user takes PM into the reserve no placement would touch:
    // less than one dispatch piece is left, and novafs allocates a whole
    // piece before it frees the pages an overwrite displaces.
    fill_natively(natives[0].as_ref(), piece - BLOCK);
    assert!(!status(&mux, 0).has_room(0));

    mux.write(big, 0, &vec![3u8; piece as usize])
        .expect("a full PM does not fail a write the SSD has room for");
    assert!(mux.stats().snapshot().redirected_writes > 0);
    let mut got = vec![0u8; piece as usize];
    mux.read(big, 0, &mut got).unwrap();
    assert!(got.iter().all(|&b| b == 3), "the overwrite reads back");
    let mut block = [0u8; BLOCK as usize];
    for &ino in &small {
        mux.read(ino, 0, &mut block).unwrap();
        assert!(block.iter().all(|&b| b == 2), "every overwrite reads back");
    }
}

#[test]
fn moves_run_out_of_plan_order_make_their_own_room() {
    const FILE_BYTES: u64 = 256 << 10;
    let mut opts = MuxOptions::default();
    // No executor: the plan below runs by hand, in the worst order.
    opts.autotier.enabled = false;
    opts.autotier.mirror_enabled = false;
    let cfg = opts.autotier.clone();
    let (_clock, mux, natives) = stack(
        &[
            (Kind::Nova, 8 << 20),
            (Kind::Xe, 24 << 20),
            (Kind::E4, 64 << 20),
        ],
        opts,
    );
    // PM files first, then SSD files once PM has no room.
    let mut files = Vec::new();
    while files.len() < 200 {
        let ino = mk(&mux, &format!("f{}", files.len()));
        mux.write(ino, 0, &vec![files.len() as u8; FILE_BYTES as usize])
            .unwrap();
        files.push(ino);
        let placement = mux.file_placement(ino).unwrap();
        if placement.iter().all(|&(_, _, t)| t == 1) && files.len() % 2 == 0 {
            break;
        }
    }
    let tier_of = |ino: u64| mux.file_placement(ino).unwrap()[0].2;
    let (pm, ssd): (Vec<u64>, Vec<u64>) = files.iter().partition(|&&i| tier_of(i) == 0);
    assert!(!ssd.is_empty());
    // Only PM's files are read: the SSD holds the coldest.
    let mut buf = [0u8; BLOCK as usize];
    for &ino in &pm {
        for k in 0..16 {
            mux.read(ino, k * BLOCK, &mut buf).unwrap();
        }
    }
    mux.maintenance_tick(); // folds fast-path hits into the heat record
                            // SSD full; PM 64 blocks into its reserve.
    let reserve = status(&mux, 0).reserve_bytes;
    fill_natively(natives[1].as_ref(), reserve);
    fill_natively(natives[0].as_ref(), reserve - 64 * BLOCK);

    let views: Vec<FileView> = files
        .iter()
        .map(|&ino| FileView {
            ino,
            extents: mux.file_placement(ino).unwrap(),
            replicas: Vec::new(),
            heat: mux.autotier().heat.heat(ino),
        })
        .collect();
    let plan = plan_epoch(&cfg, &mux.tier_status(), &views, &|_| false);
    let moves: Vec<MigrationPlan> = plan
        .actions()
        .filter_map(|a| a.migrate().map(|(p, _)| p.clone()))
        .collect();
    // The planner sinks an SSD file to the HDD to make the SSD room for
    // PM's coldest blocks.
    let into = |t: TierId| moves.iter().position(|p| p.to == t);
    assert!(
        into(2).unwrap() < into(1).unwrap(),
        "a sink chain: {moves:?}"
    );

    // Run out of plan order, the PM demotion first, each move makes its
    // own room.
    for p in moves.iter().rev() {
        match mux.migrate_range(p.ino, p.block, p.n_blocks, p.to) {
            Ok(_) | Err(tvfs::VfsError::NoSpace) => {}
            Err(e) => panic!("{p:?}: {e}"),
        }
        let st = status(&mux, p.to);
        assert!(
            st.free_bytes >= st.reserve_bytes,
            "{p:?} leaves tier {} {} KiB free, reserve {} KiB",
            p.to,
            st.free_bytes >> 10,
            st.reserve_bytes >> 10
        );
    }
    assert!(
        status(&mux, 0).free_bytes >= reserve,
        "PM has its reserve back"
    );
    for (r, &ino) in files.iter().enumerate() {
        let mut got = vec![0u8; FILE_BYTES as usize];
        mux.read(ino, 0, &mut got).unwrap();
        assert!(got.iter().all(|&b| b == r as u8), "file {r} reads back");
    }
}
