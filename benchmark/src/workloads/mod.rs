//! The six workloads. Each builds its stack through public APIs, preloads
//! and warms it (all of that is `setup_s`), then serves a measured phase
//! of a fixed op count generated from the seed. The op stream depends on
//! the seed and the reference model only, never on what the file system
//! returned, so a native twin built from the same seed sees the identical
//! sequence, and so does every repetition.

mod cluster_mix;
mod single_pm;
mod tier_churn;
mod varmail;

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::harness::Client;
use crate::span::Tracer;

pub const NAMES: [&str; 6] = [
    "read_hot",
    "read_scan",
    "write_small",
    "varmail",
    "tier_churn",
    "cluster_mix",
];

/// ISSUE.md sizes each measured phase for one pass of 4–60 s (200 000 /
/// 40 000 / 150 000 / 400 000 ops, 20 000 varmail iterations, 120
/// tier_churn segments). The driver's time cap does not hold that, so every
/// workload's measured op count is the issue's divided by this one factor.
pub const ISSUE_DIV: u32 = 4;

/// Measured op count of one repetition: the issue's count over the common
/// factor, over `shrink` (`--quick` and `selftest` pass 20).
pub fn measured_ops(issue_count: u32, shrink: u32) -> u32 {
    (issue_count / ISSUE_DIV / shrink).max(2)
}

/// What the client talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Mux (or ClusterMux) over its tiers.
    Mux,
    /// The bare native file system on an identical device.
    Native,
}

/// Workload-specific per-layer metrics measured after the run.
pub type Extras = BTreeMap<&'static str, f64>;

pub trait Workload {
    fn client(&mut self) -> &mut Client;

    /// The measured phase: a fixed number of client ops (and inline
    /// ticks), see [`measured_ops`].
    fn measured(&mut self);

    /// Unmeasured: read back every byte, then workload-specific checks
    /// and timings (crash recovery, whole-file migration).
    fn finish(&mut self, extras: &mut Extras) {
        let _ = extras;
        self.client().read_back_all();
    }
}

/// Builds, preloads and warms one workload. `shrink` divides the op
/// count of the measured phase (`--quick` passes 20). `None` for a
/// workload that has no native twin.
pub fn build(
    name: &str,
    seed: u64,
    target: Target,
    tracer: Option<Arc<Tracer>>,
    shrink: u32,
) -> Option<Box<dyn Workload>> {
    let mode = match name {
        "read_hot" => single_pm::Mode::Hot,
        "read_scan" => single_pm::Mode::Scan,
        "write_small" => single_pm::Mode::WriteSmall,
        "varmail" => {
            return Some(Box::new(varmail::Varmail::build(
                seed, target, tracer, shrink,
            )))
        }
        "tier_churn" => {
            return (target == Target::Mux).then(|| {
                Box::new(tier_churn::TierChurn::build(seed, tracer, shrink)) as Box<dyn Workload>
            })
        }
        "cluster_mix" => {
            return Some(Box::new(cluster_mix::ClusterMix::build(
                seed, target, tracer, shrink,
            )))
        }
        _ => return None,
    };
    Some(Box::new(single_pm::SinglePm::build(
        mode, seed, target, tracer, shrink,
    )))
}

/// Creates `files` regular files named `f<id>` under `parent` and writes
/// `bytes` to each in 1 MiB calls, then syncs. Untimed set-up.
pub fn preload(client: &mut Client, parent: tvfs::InodeNo, files: u32, bytes: u64) {
    for file in 0..files {
        client.create(file, parent, &format!("f{file}"));
        let mut off = 0;
        while off < bytes {
            let len = (bytes - off).min(1 << 20);
            client.write(file, off, len as usize);
            off += len;
        }
    }
    client.rec.attempted += 1;
    if let Err(e) = client.stack.fs.sync() {
        client
            .rec
            .fail(format_args!("sync after preload returned {e}"));
    }
}
