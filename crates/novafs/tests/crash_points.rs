//! Crash-point regressions for novafs's commit order: a crash at any
//! mutating device operation of an overwrite, a hole punch or a truncate
//! leaves the file as it was before the call or as it is after it.

use novafs::{NovaFs, NovaOptions, PAGE};
use simdev::{pmem, CrashPlan, Device, VirtualClock};
use tvfs::{FileSystem, FileType, InodeNo, SetAttr, VfsResult, ROOT_INO};

const OLD: u8 = 0xAA;
const PAGES: u64 = 95;

/// A 4 MiB device whose file `f` holds 95 pages, page 0 of `0xAA`: 95
/// one-page write entries fill its log page to its last three bytes, so
/// the next commit to `f` chains a new log page. Pages 1.. are written
/// last to first, so no two share an extent and the log holds only live
/// state: no clean compacts it.
fn full_log_page() -> (NovaFs, InodeNo) {
    let dev = Device::with_profile(pmem(), 4 << 20, VirtualClock::new());
    let fs = NovaFs::format(dev, NovaOptions::default()).unwrap();
    let f = fs.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    fs.write(f.ino, 0, &[OLD; PAGE as usize]).unwrap();
    for p in (1..PAGES).rev() {
        fs.write(f.ino, p * PAGE, &[p as u8; PAGE as usize])
            .unwrap();
    }
    (fs, f.ino)
}

/// Runs `op` on a fresh `setup` once per mutating device operation it
/// makes, losing power at that operation, remounts, and hands the
/// recovered file system to `check`. Returns the number of points.
fn at_every_point(
    setup: impl Fn() -> (NovaFs, InodeNo),
    op: impl Fn(&NovaFs, InodeNo) -> VfsResult<()>,
    check: impl Fn(&NovaFs, InodeNo, u64),
) -> u64 {
    let (fs, ino) = setup();
    let probe = CrashPlan::probe();
    fs.device().set_crash_plan(Some(probe.clone()));
    op(&fs, ino).unwrap();
    let points = probe.ops_seen();
    for k in 1..=points {
        let (fs, ino) = setup();
        let dev = fs.device().clone();
        let plan = CrashPlan::new(k);
        dev.set_crash_plan(Some(plan.clone()));
        // A lost flush returns no error: only the plan knows.
        let _ = op(&fs, ino);
        assert!(plan.tripped(), "point {k} did not lose power");
        drop(fs);
        dev.set_crash_plan(None);
        let fs = NovaFs::mount(dev, NovaOptions::default()).unwrap();
        check(&fs, ino, k);
    }
    points
}

fn read_page(fs: &NovaFs, ino: InodeNo, page: u64) -> Vec<u8> {
    let mut buf = vec![0u8; PAGE as usize];
    fs.read(ino, page * PAGE, &mut buf).unwrap();
    buf
}

/// Page 0 reads all `OLD` or all `new`, and pages 1.. are untouched.
fn check_page_0(fs: &NovaFs, ino: InodeNo, k: u64, new: u8) {
    let got = read_page(fs, ino, 0);
    assert!(
        got.iter().all(|&b| b == OLD) || got.iter().all(|&b| b == new),
        "point {k}: page 0 torn at byte {}",
        got.iter().position(|&b| b != got[0]).unwrap_or(0)
    );
    for p in 1..PAGES {
        assert!(
            read_page(fs, ino, p).iter().all(|&b| b == p as u8),
            "point {k}: page {p}"
        );
    }
}

#[test]
fn an_overwrite_never_reuses_the_page_it_displaces_before_its_commit() {
    let points = at_every_point(
        full_log_page,
        |fs, ino| fs.write(ino, 0, &[0x55; PAGE as usize]).map(|_| ()),
        |fs, ino, k| check_page_0(fs, ino, k, 0x55),
    );
    // Data write and flush, four ops to chain a log page, the entry and
    // its flush, the slot and its flush.
    assert_eq!(points, 10);
}

#[test]
fn a_hole_punch_never_reuses_the_page_it_unmaps_before_its_commit() {
    let points = at_every_point(
        full_log_page,
        |fs, ino| fs.punch_hole(ino, 0, PAGE),
        |fs, ino, k| check_page_0(fs, ino, k, 0),
    );
    assert_eq!(points, 8);
}

#[test]
fn a_truncate_reads_old_or_new_at_every_point_and_extends_with_zeros() {
    const CUT: u64 = 4196;
    let setup = || {
        let dev = Device::with_profile(pmem(), 4 << 20, VirtualClock::new());
        let fs = NovaFs::format(dev, NovaOptions::default()).unwrap();
        let f = fs.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        fs.write(f.ino, 0, &[OLD; 2 * PAGE as usize]).unwrap();
        (fs, f.ino)
    };
    let points = at_every_point(
        setup,
        |fs, ino| fs.setattr(ino, &SetAttr::truncate(CUT)).map(|_| ()),
        |fs, ino, k| {
            let size = fs.getattr(ino).unwrap().size;
            let mut buf = vec![0u8; 2 * PAGE as usize];
            if size == 2 * PAGE {
                fs.read(ino, 0, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == OLD), "point {k}: old file changed");
                return;
            }
            assert_eq!(size, CUT, "point {k}");
            fs.setattr(ino, &SetAttr::truncate(2 * PAGE)).unwrap();
            fs.read(ino, 0, &mut buf).unwrap();
            assert!(buf[..CUT as usize].iter().all(|&b| b == OLD), "point {k}");
            assert!(
                buf[CUT as usize..].iter().all(|&b| b == 0),
                "point {k}: old bytes past the cut"
            );
        },
    );
    // The attribute entry and its flush, the slot and its flush, then the
    // boundary page's tail and its flush.
    assert_eq!(points, 6);
}

#[test]
fn a_write_past_a_cut_reads_zeros_between() {
    let dev = Device::with_profile(pmem(), 4 << 20, VirtualClock::new());
    let fs = NovaFs::format(dev.clone(), NovaOptions::default()).unwrap();
    let f = fs.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
    fs.write(f.ino, 0, &[OLD; 2 * PAGE as usize]).unwrap();
    // Power is lost after the cut commits (an unmap entry, an attribute
    // entry and the slot, each flushed), before its zeroing.
    dev.set_crash_plan(Some(CrashPlan::new(7)));
    assert!(fs.setattr(f.ino, &SetAttr::truncate(100)).is_err());
    drop(fs);
    dev.set_crash_plan(None);
    let fs = NovaFs::mount(dev, NovaOptions::default()).unwrap();
    assert_eq!(fs.getattr(f.ino).unwrap().size, 100);
    fs.write(f.ino, 3 * PAGE, b"end").unwrap();
    let mut buf = vec![0u8; 3 * PAGE as usize];
    fs.read(f.ino, 0, &mut buf).unwrap();
    assert!(buf[..100].iter().all(|&b| b == OLD));
    assert!(buf[100..].iter().all(|&b| b == 0), "old bytes past the cut");
}

#[test]
fn a_failed_write_returns_the_pages_it_allocated() {
    let (fs, ino) = full_log_page();
    let free = fs.statfs().unwrap().free_bytes;
    // Power is lost at the data write.
    fs.device().set_crash_plan(Some(CrashPlan::new(1)));
    assert!(fs.write(ino, 0, &[0x55; 4 * PAGE as usize]).is_err());
    fs.device().set_crash_plan(None);
    assert_eq!(fs.statfs().unwrap().free_bytes, free);
}

#[test]
fn a_write_that_cleans_the_log_reads_old_or_new_at_every_point() {
    // 64 appended pages coalesce into one extent behind 64 log entries;
    // the 65th entry takes the log past its cleaning threshold, so the
    // append commits and then rewrites the log.
    const FULL: u64 = 64;
    let setup = || {
        let dev = Device::with_profile(pmem(), 4 << 20, VirtualClock::new());
        let fs = NovaFs::format(dev, NovaOptions::default()).unwrap();
        let f = fs.create(ROOT_INO, "f", FileType::Regular, 0o644).unwrap();
        for p in 0..FULL {
            fs.write(f.ino, p * PAGE, &[p as u8; PAGE as usize])
                .unwrap();
        }
        (fs, f.ino)
    };
    let points = at_every_point(
        setup,
        |fs, ino| {
            fs.write(ino, FULL * PAGE, &[OLD; PAGE as usize])
                .map(|_| ())
        },
        |fs, ino, k| {
            let size = fs.getattr(ino).unwrap().size;
            assert!(
                size == FULL * PAGE || size == (FULL + 1) * PAGE,
                "point {k}"
            );
            for p in 0..size / PAGE {
                let want = if p == FULL { OLD } else { p as u8 };
                let got = read_page(fs, ino, p);
                assert!(got.iter().all(|&b| b == want), "point {k}: page {p}");
            }
        },
    );
    // The append's six ops, then the clean's nine, which build a new log
    // chain and swing the slot to it.
    assert_eq!(points, 15);
}
