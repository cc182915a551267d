//! Distributed Mux (paper §4): two machines, each running its own Mux over
//! local file systems, interconnected by attaching the remote machine's
//! Mux as a tier of the local one — the "Mux-to-Mux interconnection,
//! e.g., through Remote Procedure Call".
//!
//! ```text
//!   machine A (local)                     machine B (remote)
//!   ┌───────────────────┐   SimLink      ┌───────────────────┐
//!   │ Mux A             │  (RPC wire)    │ Mux B             │
//!   │  ├─ PM  (novafs)  │◄──────────────►│  ├─ SSD (xefs)    │
//!   │  ├─ SSD (xefs)    │                │  └─ HDD (e4fs)    │
//!   │  └─ tier: RemoteFs ── wraps ──────►│                   │
//!   └───────────────────┘                └───────────────────┘
//! ```
//!
//! ```text
//! cargo run --release --example distributed_mux
//! ```

use std::sync::Arc;

use e4fs::{E4Fs, E4Options};
use mux::{LruPolicy, Mux, MuxOptions, TierConfig};
use netfs::{LinkProfile, RemoteFs, SimLink};
use novafs::{NovaFs, NovaOptions};
use simdev::{Device, DeviceClass, VirtualClock};
use tvfs::{FileSystem, FileType, ROOT_INO};
use xefs::{XeFs, XeOptions};

fn main() {
    let clock = VirtualClock::new();

    // ---- Machine B: a Mux over SSD + HDD ("the archive box"). ----
    let b_ssd = Device::with_profile(simdev::nvme_ssd(), 256 << 20, clock.clone());
    let b_hdd = Device::with_profile(simdev::hdd(), 1 << 30, clock.clone());
    let mux_b = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
    ));
    mux_b.add_tier(
        TierConfig {
            name: "b-ssd".into(),
            class: DeviceClass::Ssd,
        },
        Arc::new(XeFs::format(b_ssd, XeOptions::default()).unwrap()) as Arc<dyn FileSystem>,
    );
    mux_b.add_tier(
        TierConfig {
            name: "b-hdd".into(),
            class: DeviceClass::Hdd,
        },
        Arc::new(E4Fs::format(b_hdd, E4Options::default()).unwrap()) as Arc<dyn FileSystem>,
    );

    // ---- The interconnect: machine B's Mux behind an RPC link. ----
    let link = SimLink::new(LinkProfile::datacenter(), clock.clone());
    let remote_b = Arc::new(RemoteFs::new(
        "machine-b",
        link.clone(),
        Arc::clone(&mux_b) as Arc<dyn FileSystem>,
    ));

    // ---- Machine A: PM + SSD locally, machine B as the capacity tier.
    let a_pm = Device::with_profile(simdev::pmem(), 64 << 20, clock.clone());
    let a_ssd = Device::with_profile(simdev::nvme_ssd(), 256 << 20, clock.clone());
    let mux_a = Arc::new(Mux::new(
        clock.clone(),
        Arc::new(LruPolicy::default_watermarks()),
        MuxOptions::default(),
    ));
    mux_a.add_tier(
        TierConfig {
            name: "a-pm".into(),
            class: DeviceClass::Pmem,
        },
        Arc::new(NovaFs::format(a_pm, NovaOptions::default()).unwrap()) as Arc<dyn FileSystem>,
    );
    mux_a.add_tier(
        TierConfig {
            name: "a-ssd".into(),
            class: DeviceClass::Ssd,
        },
        Arc::new(XeFs::format(a_ssd, XeOptions::default()).unwrap()) as Arc<dyn FileSystem>,
    );
    let remote_tier = mux_a.add_tier(
        TierConfig {
            name: "machine-b".into(),
            class: DeviceClass::Hdd, // remote = the coldest tier
        },
        remote_b as Arc<dyn FileSystem>,
    );

    println!("== distributed Mux ==\n");
    println!("machine A tiers:");
    for t in mux_a.tier_status() {
        println!("  {:>10}  {:?}", t.name, t.class);
    }

    // Write locally, archive remotely — all through one namespace.
    let f = mux_a
        .create(ROOT_INO, "q3-report.dat", FileType::Regular, 0o644)
        .unwrap();
    let payload: Vec<u8> = (0..(1 << 20)).map(|i| (i % 249) as u8).collect();
    mux_a.write(f.ino, 0, &payload).unwrap();
    println!("\nwrote 1 MiB on machine A (PM tier)");

    let t0 = clock.now_ns();
    mux_a.migrate_file(f.ino, remote_tier).unwrap();
    let st = link.stats();
    let (msgs, bytes) = (st.messages(), st.bytes());
    println!(
        "archived to machine B in {:.2} ms (virtual): {} RPC messages, {:.1} MiB on the wire",
        (clock.now_ns() - t0) as f64 / 1e6,
        msgs,
        bytes as f64 / (1 << 20) as f64
    );

    // Machine B's own policy now manages the data within its hierarchy.
    let summary = mux_b.run_policy_migrations();
    println!(
        "machine B ran its own tiering pass: {} steps planned, {} executed",
        summary.planned, summary.executed
    );

    // Reads flow transparently across the wire.
    let t0 = clock.now_ns();
    let mut buf = vec![0u8; payload.len()];
    mux_a.read(f.ino, 0, &mut buf).unwrap();
    assert_eq!(buf, payload);
    println!(
        "read back across the interconnect in {:.2} ms (virtual) — contents verified",
        (clock.now_ns() - t0) as f64 / 1e6
    );

    // Partitions surface as I/O errors, not corruption.
    link.set_partitioned(true);
    let err = mux_a.read(f.ino, 0, &mut buf).unwrap_err();
    println!("\nduring a partition, reads fail cleanly: {err}");
    link.set_partitioned(false);
    mux_a.read(f.ino, 0, &mut buf).unwrap();
    println!("after healing, reads succeed again");
}
