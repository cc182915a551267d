//! `tier_churn`: three tiers under autotier, a working set five times the
//! PM tier and 1.25 times the fast path's slots. The only workload where
//! the planner, heat/MGLRU, the OCC mover, the scheduler and all three
//! native file systems run, and where background work stalls the
//! foreground.
//!
//! Mirror placement is off: with it on, Mux at this commit returns stale
//! bytes for a mirrored block that was overwritten (README, finding F1),
//! and a benchmark workload must not fail.
//!
//! 320 files of 1 MiB = 81 920 blocks against PM 64 MiB, SSD 256 MiB,
//! HDD 1 GiB, 65 536 fast-path slots and 4 MiB native page caches.

use std::sync::Arc;
use std::time::Instant;

use mux::MuxOptions;
use tvfs::ROOT_INO;

use super::{measured_ops, preload, Extras, Workload};
use crate::harness::Client;
use crate::oracle::{Rng, BLOCK};
use crate::span::Tracer;
use crate::stack::{mux_stack, TierKind, VClock};

const FILES: u32 = 320;
const FILE_BYTES: u64 = 1 << 20;
const PAGE_CACHE: u64 = 4 << 20;
const TIERS: [(TierKind, u64); 3] = [
    (TierKind::Nova, 64 << 20),
    (
        TierKind::Xe {
            page_cache_bytes: PAGE_CACHE,
        },
        256 << 20,
    ),
    (
        TierKind::E4 {
            page_cache_bytes: PAGE_CACHE,
        },
        1 << 30,
    ),
];
const ZIPF_S: f64 = 0.99;
const READ_FRAC: f64 = 0.70;
const OPS_PER_TICK: u32 = 1_000;
/// Measured segments of the issue's single pass, 1 000 ops and one tick
/// each; see [`measured_ops`].
const SEGMENTS: u32 = 120;
/// Off until finding F1 is fixed; the PR that fixes it sets this to the
/// default (`true`) and measures the baseline again.
const MIRRORS: bool = false;
/// Unmeasured warm-up: the initial placement burst settles before timing.
const WARM_TICKS: u32 = 30;
const MIGRATE_FILES: u32 = 16;

pub struct TierChurn {
    client: Client,
    rng: Rng,
    /// Cumulative Zipf(0.99) weights over file ranks; rank r is file r.
    cdf: Vec<f64>,
    epoch_ns: u64,
    segments: u32,
}

impl TierChurn {
    pub fn build(seed: u64, tracer: Option<Arc<Tracer>>, shrink: u32) -> Self {
        let mut opts = MuxOptions::default();
        opts.autotier.mirror_enabled = MIRRORS;
        let epoch_ns = opts.autotier.epoch_ns;
        let stack = mux_stack(&TIERS, opts, false, tracer.as_ref());
        let mut client = Client::new(stack, FILES as usize, tracer);
        preload(&mut client, ROOT_INO, FILES, FILE_BYTES);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=FILES)
            .map(|r| {
                acc += 1.0 / f64::from(r).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut w = TierChurn {
            client,
            rng: Rng::new(seed),
            cdf,
            epoch_ns,
            segments: measured_ops(SEGMENTS, shrink),
        };
        for _ in 0..WARM_TICKS {
            w.segment();
        }
        w
    }

    /// 1 000 client ops, then one epoch of model time and a tick.
    fn segment(&mut self) {
        for _ in 0..OPS_PER_TICK {
            let u = self.rng.unit();
            let file = self.cdf.partition_point(|&c| c < u).min(FILES as usize - 1) as u32;
            let off = self.rng.below(FILE_BYTES / BLOCK) * BLOCK;
            if self.rng.unit() < READ_FRAC {
                self.client.read(file, off, BLOCK as usize);
            } else {
                self.client.write(file, off, BLOCK as usize);
            }
        }
        let mux = self.client.stack.muxes[0].clone();
        self.client.tick(&mux, self.epoch_ns);
    }
}

impl Workload for TierChurn {
    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn measured(&mut self) {
        for _ in 0..self.segments {
            self.segment();
        }
    }

    fn finish(&mut self, extras: &mut Extras) {
        self.client.read_back_all();
        if self.client.rec.tracer.is_none() {
            return;
        }
        // Traced pass only (its numbers are per-layer metrics): whole-file
        // OCC migration PM -> SSD -> PM of the hottest files, timed on both
        // clocks.
        let mux = self.client.stack.muxes[0].clone();
        let VClock::Single(clock) = &self.client.stack.vclock else {
            unreachable!("tier_churn runs on one clock")
        };
        let (virt0, t0) = (clock.now_ns(), Instant::now());
        let mut mib = 0.0;
        for file in 0..MIGRATE_FILES {
            for to in [1, 0] {
                self.client.rec.attempted += 1;
                match mux.migrate_file(self.client.inos[file as usize], to) {
                    Ok(_) => mib += (FILE_BYTES >> 20) as f64,
                    Err(e) => self.client.rec.fail(format_args!(
                        "migrate_file {file} to tier {to} returned {e}"
                    )),
                }
            }
        }
        let mib = f64::max(mib, 1.0);
        extras.insert(
            "occ.migrate_wall_us_per_mib",
            t0.elapsed().as_secs_f64() * 1e6 / mib,
        );
        extras.insert(
            "occ.migrate_virt_us_per_mib",
            (clock.now_ns() - virt0) as f64 / 1e3 / mib,
        );
        // The moved files must still read back intact.
        self.client.read_back_all();
    }
}
