//! Declarative hierarchy configuration (paper §4, "Configuring Mux").
//!
//! "As the Mux design can easily integrate many existing file systems, an
//! emerging problem is how to find the best configuration of file systems
//! for a given workload or a given set of storage devices." Step zero of
//! that problem is making configurations *first-class values*: this module
//! defines a serde-serializable [`HierarchySpec`] and a [`build`] function
//! that turns one into a running stack — so configurations can be stored,
//! swept, compared and searched programmatically.
//!
//! ```
//! let spec: mux_repro::config::HierarchySpec = serde_json::from_str(r#"{
//!     "tiers": [
//!         {"name": "pm",  "device": {"profile": "pmem", "capacity_mib": 64},  "fs": "nova"},
//!         {"name": "ssd", "device": {"profile": "nvme_ssd", "capacity_mib": 256}, "fs": "xefs"},
//!         {"name": "hdd", "device": {"profile": "hdd", "capacity_mib": 1024}, "fs": "e4fs"}
//!     ],
//!     "policy": {"kind": "lru"},
//!     "metafile_tier": 0
//! }"#).unwrap();
//! let built = mux_repro::config::build(&spec).unwrap();
//! assert_eq!(built.mux.tier_status().len(), 3);
//! ```

use std::sync::Arc;

use mux::{
    HotColdPolicy, LruPolicy, Mux, MuxOptions, PinnedPolicy, StripingPolicy, TieringPolicy,
    TpfsPolicy,
};
use serde::{Deserialize, Serialize};
use simdev::{Device, DeviceClass, DeviceProfile, VirtualClock};
use tvfs::{FileSystem, VfsError, VfsResult};

/// A named device profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ProfileSpec {
    /// Optane PMem 200-like persistent memory.
    Pmem,
    /// Optane SSD P4800X-like NVMe.
    NvmeSsd,
    /// Exos X18-like rotational disk.
    Hdd,
    /// CXL-attached flash.
    CxlSsd,
}

impl ProfileSpec {
    fn profile(self) -> DeviceProfile {
        match self {
            ProfileSpec::Pmem => simdev::pmem(),
            ProfileSpec::NvmeSsd => simdev::nvme_ssd(),
            ProfileSpec::Hdd => simdev::hdd(),
            ProfileSpec::CxlSsd => simdev::cxl_ssd(),
        }
    }
}

/// Device description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Which performance profile.
    pub profile: ProfileSpec,
    /// Capacity in MiB.
    pub capacity_mib: u64,
}

/// Which native file system runs on the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FsSpec {
    /// NOVA-like log-structured PM file system.
    Nova,
    /// XFS-like extent file system.
    Xefs,
    /// Ext4-like journaling file system.
    E4fs,
}

/// One tier of the hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TierSpec {
    /// Tier name (reports, policies).
    pub name: String,
    /// The device under it.
    pub device: DeviceSpec,
    /// The native file system on it.
    pub fs: FsSpec,
    /// Native timestamp granularity in ns (§4 feature imparity);
    /// omitted = nanosecond precision.
    #[serde(default)]
    pub timestamp_granularity_ns: Option<u64>,
}

/// Tiering policy selection.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PolicySpec {
    /// The paper's LRU policy. It takes no fields: a tier is full when it
    /// has room for less than one native write.
    Lru,
    /// TPFS-style size/synchronicity placement.
    Tpfs,
    /// Cold-first placement: new data on the slowest tier, promoted once hot.
    HotCold,
    /// Everything pinned to one tier.
    Pinned {
        /// Destination tier index.
        tier: u32,
    },
    /// Round-robin striping.
    Striping {
        /// Stripe unit in 4 KiB blocks.
        stripe_blocks: u64,
    },
}

impl PolicySpec {
    fn policy(&self) -> Arc<dyn TieringPolicy> {
        match *self {
            PolicySpec::Lru => Arc::new(LruPolicy::default_watermarks()),
            PolicySpec::Tpfs => Arc::new(TpfsPolicy::default()),
            PolicySpec::HotCold => Arc::new(HotColdPolicy::new()),
            PolicySpec::Pinned { tier } => Arc::new(PinnedPolicy::new(tier)),
            PolicySpec::Striping { stripe_blocks } => Arc::new(StripingPolicy::new(stripe_blocks)),
        }
    }
}

/// A complete hierarchy description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HierarchySpec {
    /// Tiers, fastest first by convention.
    pub tiers: Vec<TierSpec>,
    /// The tiering policy.
    pub policy: PolicySpec,
    /// Tier index holding the durable Mux metafile (omit to disable).
    #[serde(default)]
    pub metafile_tier: Option<u32>,
}

/// A built hierarchy.
pub struct Built {
    /// The Mux instance.
    pub mux: Arc<Mux>,
    /// The shared clock.
    pub clock: VirtualClock,
    /// One device per tier, in spec order.
    pub devices: Vec<Device>,
}

/// Builds the stack a [`HierarchySpec`] describes.
pub fn build(spec: &HierarchySpec) -> VfsResult<Built> {
    if spec.tiers.is_empty() {
        return Err(VfsError::InvalidArgument("no tiers in spec".into()));
    }
    let clock = VirtualClock::new();
    let mux = Arc::new(Mux::new(
        clock.clone(),
        spec.policy.policy(),
        MuxOptions::default(),
    ));
    let mut devices = Vec::new();
    for t in &spec.tiers {
        let profile = t.device.profile.profile();
        let class: DeviceClass = profile.class;
        let dev = Device::with_profile(profile, t.device.capacity_mib << 20, clock.clone());
        let fs: Arc<dyn FileSystem> = match t.fs {
            FsSpec::Nova => Arc::new(novafs::NovaFs::format(
                dev.clone(),
                novafs::NovaOptions::default(),
            )?),
            FsSpec::Xefs => Arc::new(xefs::XeFs::format(dev.clone(), xefs::XeOptions::default())?),
            FsSpec::E4fs => Arc::new(e4fs::E4Fs::format(dev.clone(), e4fs::E4Options::default())?),
        };
        let id = mux.add_tier(
            mux::TierConfig {
                name: t.name.clone(),
                class,
            },
            fs,
        );
        if let Some(g) = t.timestamp_granularity_ns {
            mux.set_tier_timestamp_granularity(id, g)?;
        }
        devices.push(dev);
    }
    if let Some(mt) = spec.metafile_tier {
        mux.enable_metafile(mt)?;
    }
    Ok(Built {
        mux,
        clock,
        devices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvfs::{FileType, ROOT_INO};

    fn three_tier_json() -> &'static str {
        r#"{
            "tiers": [
                {"name": "pm",  "device": {"profile": "pmem", "capacity_mib": 64},  "fs": "nova"},
                {"name": "ssd", "device": {"profile": "nvme_ssd", "capacity_mib": 128}, "fs": "xefs"},
                {"name": "hdd", "device": {"profile": "hdd", "capacity_mib": 256}, "fs": "e4fs",
                 "timestamp_granularity_ns": 2000000000}
            ],
            "policy": {"kind": "lru"},
            "metafile_tier": 0
        }"#
    }

    #[test]
    fn json_spec_builds_a_working_stack() {
        let spec: HierarchySpec = serde_json::from_str(three_tier_json()).unwrap();
        let built = build(&spec).unwrap();
        assert_eq!(built.mux.tier_status().len(), 3);
        let f = built
            .mux
            .create(ROOT_INO, "x", FileType::Regular, 0o644)
            .unwrap();
        built.mux.write(f.ino, 0, b"configured").unwrap();
        built.mux.fsync(f.ino).unwrap();
        let mut buf = [0u8; 10];
        built.mux.read(f.ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"configured");
        assert!(built.clock.now_ns() > 0);
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        let spec: HierarchySpec = serde_json::from_str(three_tier_json()).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let again: HierarchySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(again.tiers.len(), 3);
        assert_eq!(again.tiers[2].timestamp_granularity_ns, Some(2_000_000_000));
        assert!(matches!(again.policy, PolicySpec::Lru));
    }

    #[test]
    fn all_policies_construct() {
        for p in [
            r#"{"kind": "tpfs"}"#,
            r#"{"kind": "hot_cold"}"#,
            r#"{"kind": "pinned", "tier": 1}"#,
            r#"{"kind": "striping", "stripe_blocks": 4}"#,
        ] {
            let policy: PolicySpec = serde_json::from_str(p).unwrap();
            let spec = HierarchySpec {
                tiers: vec![
                    TierSpec {
                        name: "a".into(),
                        device: DeviceSpec {
                            profile: ProfileSpec::Pmem,
                            capacity_mib: 32,
                        },
                        fs: FsSpec::Nova,
                        timestamp_granularity_ns: None,
                    },
                    TierSpec {
                        name: "b".into(),
                        device: DeviceSpec {
                            profile: ProfileSpec::NvmeSsd,
                            capacity_mib: 64,
                        },
                        fs: FsSpec::Xefs,
                        timestamp_granularity_ns: None,
                    },
                ],
                policy,
                metafile_tier: None,
            };
            let built = build(&spec).unwrap();
            let f = built
                .mux
                .create(ROOT_INO, "f", FileType::Regular, 0o644)
                .unwrap();
            built.mux.write(f.ino, 0, &[1u8; 4096]).unwrap();
        }
    }

    #[test]
    fn empty_spec_rejected() {
        let spec = HierarchySpec {
            tiers: vec![],
            policy: PolicySpec::Tpfs,
            metafile_tier: None,
        };
        assert!(build(&spec).is_err());
    }
}
