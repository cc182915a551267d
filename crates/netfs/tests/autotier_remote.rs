//! First real consumer of the netfs island: a [`RemoteFs`] over a
//! [`SimLink`] registered with Mux as the coldest tier.
//!
//! The autotier engine must (a) demote cold data onto the remote tier
//! through the ordinary migration path once the local tier has no room
//! for it, and (b) when the link partitions, let the health layer fence
//! the tier instead of wedging the planner — subsequent epochs veto the
//! remote destination and foreground I/O keeps working from the local
//! tiers.

use std::sync::Arc;

use netfs::{LinkProfile, RemoteFs, SimLink};
use simdev::{DeviceClass, VirtualClock};
use tvfs::memfs::MemFs;
use tvfs::{FileSystem, FileType, ROOT_INO};

use mux::{AutotierConfig, Mux, MuxOptions, PinnedPolicy, TierConfig, TierHealthState, BLOCK};

struct Stack {
    clock: VirtualClock,
    mux: Arc<Mux>,
    remote: Arc<RemoteFs>,
}

/// Local PM tier 0 of `pm_blocks` blocks plus a datacenter-link remote
/// tier 1 (the coldest). New files land on PM; nothing is pinned, so the
/// autotier may move them.
fn build_stack(pm_blocks: u64) -> Stack {
    let clock = VirtualClock::new();
    let mux = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(PinnedPolicy::new(0)),
        MuxOptions::default(),
    ));
    mux.add_tier(
        TierConfig {
            name: "pm".into(),
            class: DeviceClass::Pmem,
        },
        Arc::new(MemFs::new("pm", pm_blocks * BLOCK)),
    );
    let remote = Arc::new(RemoteFs::new(
        "cold-store",
        SimLink::new(LinkProfile::datacenter(), clock.clone()),
        Arc::new(MemFs::new("backing", 1 << 30)),
    ));
    mux.add_tier(
        TierConfig {
            name: "remote".into(),
            class: DeviceClass::Hdd,
        },
        remote.clone() as Arc<dyn FileSystem>,
    );
    Stack { clock, mux, remote }
}

fn tick_epochs(st: &Stack, n: usize) -> Vec<mux::EpochReport> {
    (0..n)
        .map(|_| {
            st.clock.advance(AutotierConfig::default().epoch_ns);
            st.mux.maintenance_tick()
        })
        .collect()
}

#[test]
fn cold_data_demotes_to_the_remote_tier() {
    // Sixteen blocks leave a seventeen-block PM tier short of its
    // reserve: the file has to leave it.
    let st = build_stack(17);
    let ino = st
        .mux
        .create(ROOT_INO, "archive", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    let payload: Vec<u8> = (0..16 * BLOCK as usize).map(|i| (i % 251) as u8).collect();
    st.mux.write(ino, 0, &payload).unwrap();
    assert!(st
        .mux
        .file_placement(ino)
        .unwrap()
        .iter()
        .all(|&(_, _, t)| t == 0));
    let msgs_before = st.remote.link().stats().messages();

    // The pressure pass sheds the coldest resident — the only one — to
    // the next slower tier.
    let mut demoted = false;
    for _ in 0..10 {
        tick_epochs(&st, 1);
        if st
            .mux
            .file_placement(ino)
            .unwrap()
            .iter()
            .all(|&(_, _, t)| t == 1)
        {
            demoted = true;
            break;
        }
    }
    assert!(
        demoted,
        "cold file never reached the remote tier: {:?}",
        st.mux.file_placement(ino).unwrap()
    );
    let stats = st.mux.stats().snapshot();
    assert!(
        stats.auto_demotions >= 16,
        "demotions: {}",
        stats.auto_demotions
    );
    let msgs_after = st.remote.link().stats().messages();
    assert!(
        msgs_after > msgs_before,
        "demotion must actually cross the simulated link"
    );

    // The data survives the trip (served from the remote tier).
    let mut buf = vec![0u8; payload.len()];
    st.mux.read(ino, 0, &mut buf).unwrap();
    assert_eq!(buf, payload);
}

#[test]
fn link_partition_fences_the_tier_without_wedging_the_planner() {
    // Eight blocks fill an eight-block PM tier: the file has to leave it.
    let st = build_stack(8);
    let ino = st
        .mux
        .create(ROOT_INO, "stranded", FileType::Regular, 0o644)
        .unwrap()
        .ino;
    st.mux
        .write(ino, 0, &vec![9u8; 8 * BLOCK as usize])
        .unwrap();

    // Enqueue the demotion while the tier still looks healthy, then cut
    // the link before the executor gets to it — the plan fails mid-flight
    // and the health layer must fence the remote tier off. (A partitioned
    // link also fails `statfs`, so planner-emitted plans are vetoed before
    // execution; the enqueue models a plan that raced the fail-stop.)
    st.mux
        .autotier_enqueue(mux::policy::MigrationPlan {
            ino,
            block: 0,
            n_blocks: 8,
            to: 1,
        })
        .unwrap();
    st.remote.link().set_partitioned(true);
    let r = tick_epochs(&st, 1).pop().unwrap();
    assert!(r.failed > 0, "the in-flight demotion must fail: {r:?}");
    assert_ne!(
        st.mux.tier_health(1).state,
        TierHealthState::Healthy,
        "failed migrations must trip the remote tier's circuit breaker"
    );

    // The file never left the local tier, and stays fully readable.
    assert!(st
        .mux
        .file_placement(ino)
        .unwrap()
        .iter()
        .all(|&(_, _, t)| t == 0));
    let mut buf = vec![0u8; 8 * BLOCK as usize];
    st.mux.read(ino, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 9));

    // Later epochs veto the fenced destination instead of queueing doomed
    // work: the planner keeps running and the queue stays drained.
    let vetoes_before = st.mux.stats().snapshot().planner_vetoes;
    // The PM tier stays short of its reserve, so every epoch wants the
    // file gone.
    let reports = tick_epochs(&st, 4);
    for r in &reports {
        assert_eq!(r.queued, 0, "fenced-tier plans must not accumulate: {r:?}");
    }
    let vetoes_after = st.mux.stats().snapshot().planner_vetoes;
    assert!(
        vetoes_after > vetoes_before,
        "planner must veto the fenced destination ({vetoes_before} -> {vetoes_after})"
    );

    // Healing the link and resetting the breaker lets the demotion through.
    st.remote.link().set_partitioned(false);
    st.mux.health().reset(1);
    let mut demoted = false;
    for _ in 0..10 {
        tick_epochs(&st, 1);
        if st
            .mux
            .file_placement(ino)
            .unwrap()
            .iter()
            .all(|&(_, _, t)| t == 1)
        {
            demoted = true;
            break;
        }
    }
    assert!(demoted, "demotion must resume after the link heals");
}
