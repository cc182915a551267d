//! Stack builders: devices, native file systems, Mux, ClusterMux. Every
//! layer is built through its public API; with a tracer, each tier's file
//! system and the policy are wrapped in spans before Mux sees them.

use std::sync::Arc;

use cluster::{ClusterConfig, ClusterInstant, ClusterMux, ClusterNode};
use e4fs::{E4Fs, E4Options};
use mux::{LruPolicy, Mux, MuxOptions, TierConfig, TieringPolicy};
use novafs::{NovaFs, NovaOptions};
use simdev::{hdd, nvme_ssd, pmem, Device, DeviceClass, DeviceConfig, VirtualClock};
use tvfs::FileSystem;
use xefs::{XeFs, XeOptions};

use crate::span::{SpanFs, SpanPolicy, Tracer};

/// Device classes in `simdev.{pm,ssd,hdd}.*` order.
pub const DEV_CLASSES: [&str; 3] = ["pm", "ssd", "hdd"];

/// The model clock of a stack: one `VirtualClock`, or a cluster's node
/// and link ledgers.
pub enum VClock {
    Single(VirtualClock),
    Cluster(Arc<ClusterMux>),
}

pub enum VMark {
    Single(u64),
    Cluster(ClusterInstant),
}

impl VClock {
    pub fn mark(&self) -> VMark {
        match self {
            VClock::Single(c) => VMark::Single(c.now_ns()),
            VClock::Cluster(c) => VMark::Cluster(c.instant()),
        }
    }

    pub fn since(&self, mark: &VMark) -> u64 {
        match (self, mark) {
            (VClock::Single(c), VMark::Single(t0)) => c.now_ns() - t0,
            (VClock::Cluster(c), VMark::Cluster(t0)) => c.elapsed_since(t0),
            _ => unreachable!("a mark is read by the clock that made it"),
        }
    }
}

/// One tier as built: what is needed to remount it after a crash.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    Nova,
    Xe { page_cache_bytes: u64 },
    E4 { page_cache_bytes: u64 },
}

impl TierKind {
    /// Index into [`crate::span::FS_KINDS`] and [`DEV_CLASSES`].
    pub fn index(self) -> usize {
        match self {
            TierKind::Nova => 0,
            TierKind::Xe { .. } => 1,
            TierKind::E4 { .. } => 2,
        }
    }

    fn class(self) -> DeviceClass {
        match self {
            TierKind::Nova => DeviceClass::Pmem,
            TierKind::Xe { .. } => DeviceClass::Ssd,
            TierKind::E4 { .. } => DeviceClass::Hdd,
        }
    }

    fn device(self, capacity: u64, clock: &VirtualClock, track_durability: bool) -> Device {
        let profile = match self {
            TierKind::Nova => pmem(),
            TierKind::Xe { .. } => nvme_ssd(),
            TierKind::E4 { .. } => hdd(),
        };
        Device::new(
            DeviceConfig {
                profile,
                capacity,
                track_durability,
            },
            clock.clone(),
        )
    }

    /// Formats (`mount == false`) or remounts the native file system.
    pub fn open(self, dev: Device, mount: bool) -> Arc<dyn FileSystem> {
        match self {
            TierKind::Nova => {
                let o = NovaOptions::default();
                let fs = if mount {
                    NovaFs::mount(dev, o)
                } else {
                    NovaFs::format(dev, o)
                };
                Arc::new(fs.expect("novafs opens on a fresh or cleanly crashed device"))
            }
            TierKind::Xe { page_cache_bytes } => {
                let o = XeOptions {
                    page_cache_bytes,
                    ..Default::default()
                };
                let fs = if mount {
                    XeFs::mount(dev, o)
                } else {
                    XeFs::format(dev, o)
                };
                Arc::new(fs.expect("xefs opens on a fresh or cleanly crashed device"))
            }
            TierKind::E4 { page_cache_bytes } => {
                let o = E4Options {
                    page_cache_bytes,
                    ..Default::default()
                };
                let fs = if mount {
                    E4Fs::mount(dev, o)
                } else {
                    E4Fs::format(dev, o)
                };
                Arc::new(fs.expect("e4fs opens on a fresh or cleanly crashed device"))
            }
        }
    }
}

/// What the client calls, and handles on every layer below it for
/// counters. A native twin has `muxes` and `cluster` empty.
pub struct Stack {
    pub fs: Arc<dyn FileSystem>,
    pub vclock: VClock,
    pub muxes: Vec<Arc<Mux>>,
    pub cluster: Option<Arc<ClusterMux>>,
    /// (kind, device, unwrapped native file system) per tier, all nodes.
    pub tiers: Vec<(TierKind, Device, Arc<dyn FileSystem>)>,
}

pub fn tier_config(kind: TierKind) -> TierConfig {
    TierConfig {
        name: DEV_CLASSES[kind.index()].into(),
        class: kind.class(),
    }
}

pub fn lru() -> Arc<dyn TieringPolicy> {
    Arc::new(LruPolicy::default_watermarks())
}

/// Mux (`LruPolicy`) over the given tiers on one clock.
pub fn mux_stack(
    tiers: &[(TierKind, u64)],
    opts: MuxOptions,
    track_durability: bool,
    tracer: Option<&Arc<Tracer>>,
) -> Stack {
    let clock = VirtualClock::new();
    let (mux, built) = build_mux(&clock, tiers, opts, track_durability, tracer);
    Stack {
        fs: mux.clone(),
        vclock: VClock::Single(clock),
        muxes: vec![mux],
        cluster: None,
        tiers: built,
    }
}

type Built = Vec<(TierKind, Device, Arc<dyn FileSystem>)>;

fn build_mux(
    clock: &VirtualClock,
    tiers: &[(TierKind, u64)],
    opts: MuxOptions,
    track_durability: bool,
    tracer: Option<&Arc<Tracer>>,
) -> (Arc<Mux>, Built) {
    let policy = match tracer {
        Some(t) => SpanPolicy::wrap(lru(), clock.clone(), t.clone()),
        None => lru(),
    };
    let mux = Arc::new(Mux::new(clock.clone(), policy, opts));
    let mut built = Vec::new();
    for &(kind, capacity) in tiers {
        let dev = kind.device(capacity, clock, track_durability);
        let native = kind.open(dev.clone(), false);
        mux.add_tier(
            tier_config(kind),
            traced(native.clone(), kind, clock, tracer),
        );
        built.push((kind, dev, native));
    }
    (mux, built)
}

pub fn traced(
    fs: Arc<dyn FileSystem>,
    kind: TierKind,
    clock: &VirtualClock,
    tracer: Option<&Arc<Tracer>>,
) -> Arc<dyn FileSystem> {
    match tracer {
        Some(t) => SpanFs::wrap(fs, kind.index(), clock.clone(), t.clone()),
        None => fs,
    }
}

/// The native twin: one bare native file system on an identical device
/// with its own clock.
pub fn native_stack(kind: TierKind, capacity: u64, track_durability: bool) -> Stack {
    let clock = VirtualClock::new();
    let dev = kind.device(capacity, &clock, track_durability);
    let native = kind.open(dev.clone(), false);
    Stack {
        fs: native.clone(),
        vclock: VClock::Single(clock),
        muxes: Vec::new(),
        cluster: None,
        tiers: vec![(kind, dev, native)],
    }
}

/// `ClusterMux` (default `ClusterConfig`) over `n` nodes, each a Mux over
/// PM/novafs on its own clock.
pub fn cluster_stack(n: usize, pm_bytes: u64, tracer: Option<&Arc<Tracer>>) -> Stack {
    let mut muxes = Vec::new();
    let mut tiers = Vec::new();
    let nodes = (0..n)
        .map(|i| {
            let clock = VirtualClock::new();
            let (mux, built) = build_mux(
                &clock,
                &[(TierKind::Nova, pm_bytes)],
                MuxOptions::default(),
                false,
                tracer,
            );
            muxes.push(mux.clone());
            tiers.extend(built);
            ClusterNode {
                name: format!("node{i}"),
                mux,
                clock,
            }
        })
        .collect();
    let cluster = ClusterMux::new(nodes, ClusterConfig::default());
    Stack {
        fs: cluster.clone(),
        vclock: VClock::Cluster(cluster.clone()),
        muxes,
        cluster: Some(cluster),
        tiers,
    }
}

impl VMark {
    /// A single reading for span records: the clock, or the furthest node.
    pub fn abs(&self) -> u64 {
        match self {
            VMark::Single(t) => *t,
            VMark::Cluster(i) => i.node_ns.iter().copied().max().unwrap_or(0),
        }
    }
}
