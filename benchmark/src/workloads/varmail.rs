//! `varmail`: a mail-server loop on one SSD/xefs tier with durability
//! tracked and the Mux metafile on. Namespace, metadata, the intent
//! journal and native fsync dominate; the data path is small. After the
//! run every device is crashed, xefs remounted, Mux recovered, and every
//! fsync-acknowledged byte compared with the model.
//!
//! 1 000 files of 16–64 KiB (at most 64 MiB) against a 64 MiB page cache:
//! reads are served from DRAM, fsyncs go to the device.

use std::sync::Arc;
use std::time::Instant;

use mux::{Mux, MuxOptions};
use tvfs::{InodeNo, ROOT_INO};

use super::{measured_ops, Extras, Target, Workload};
use crate::harness::Client;
use crate::oracle::Rng;
use crate::span::Tracer;
use crate::stack::{lru, mux_stack, native_stack, tier_config, traced, TierKind, VClock};

const FILES: u32 = 1_000;
const DIRS: u32 = 10;
const CHUNK: usize = 16 << 10;
const FILE_CAP: u64 = 64 << 10;
const SSD_BYTES: u64 = 512 << 20;
const XE: TierKind = TierKind::Xe {
    page_cache_bytes: 64 << 20,
};
/// Measured iterations of the issue's single pass, seven client ops each;
/// see [`measured_ops`].
const ITERATIONS: u32 = 20_000;

pub struct Varmail {
    client: Client,
    rng: Rng,
    target: Target,
    tracer: Option<Arc<Tracer>>,
    dirs: Vec<InodeNo>,
    /// Generation of each slot's current file; names are `f<slot>_<gen>`.
    gens: Vec<u32>,
    shrink: u32,
}

fn name(slot: u32, gen: u32) -> String {
    format!("f{slot}_{gen}")
}

impl Varmail {
    pub fn build(seed: u64, target: Target, tracer: Option<Arc<Tracer>>, shrink: u32) -> Self {
        let stack = match target {
            Target::Mux => {
                let s = mux_stack(
                    &[(XE, SSD_BYTES)],
                    MuxOptions::default(),
                    true,
                    tracer.as_ref(),
                );
                s.muxes[0]
                    .enable_metafile(0)
                    .expect("a fresh tier takes the metafile");
                s
            }
            Target::Native => native_stack(XE, SSD_BYTES, true),
        };
        let mut client = Client::new(stack, FILES as usize, tracer.clone());
        let dirs: Vec<InodeNo> = (0..DIRS)
            .map(|d| client.mkdir(ROOT_INO, &format!("d{d}")))
            .collect();
        for slot in 0..FILES {
            client.create(slot, dirs[(slot % DIRS) as usize], &name(slot, 0));
            client.write(slot, 0, CHUNK);
            client.fsync(slot);
        }
        Varmail {
            client,
            rng: Rng::new(seed),
            target,
            tracer,
            dirs,
            gens: vec![0; FILES as usize],
            shrink,
        }
    }

    fn dir(&self, slot: u32) -> InodeNo {
        self.dirs[(slot % DIRS) as usize]
    }

    /// Crashes every device, remounts, recovers Mux and re-resolves every
    /// file by path. Returns (recover wall ms, recover virt ms).
    fn crash_and_recover(&mut self) -> (f64, f64) {
        let (kind, dev, _) = self.client.stack.tiers[0].clone();
        let VClock::Single(clock) = &self.client.stack.vclock else {
            unreachable!("varmail runs on one clock")
        };
        let clock = clock.clone();
        dev.crash();
        let virt0 = clock.now_ns();
        let t0 = Instant::now();
        let native = kind.open(dev.clone(), true);
        let mux = Arc::new(
            Mux::recover(
                clock.clone(),
                lru(),
                MuxOptions::default(),
                vec![(
                    tier_config(kind),
                    traced(native.clone(), kind, &clock, self.tracer.as_ref()),
                )],
                0,
            )
            .expect("Mux recovers from its metafile"),
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let virt_ms = (clock.now_ns() - virt0) as f64 / 1e6;
        self.client.stack.fs = mux.clone();
        self.client.stack.muxes = vec![mux];
        self.client.stack.tiers = vec![(kind, dev, native)];
        (wall_ms, virt_ms)
    }

    /// Looks every file up again by path after recovery; a missing file's
    /// bytes are lost.
    fn reresolve(&mut self) -> u64 {
        let fs = self.client.stack.fs.clone();
        let mut lost = 0;
        for d in 0..DIRS {
            self.dirs[d as usize] = fs.lookup(ROOT_INO, &format!("d{d}")).map_or(0, |a| a.ino);
        }
        for slot in 0..FILES {
            match fs.lookup(self.dir(slot), &name(slot, self.gens[slot as usize])) {
                Ok(attr) => self.client.inos[slot as usize] = attr.ino,
                Err(e) => {
                    lost += self.client.model.files[slot as usize].size;
                    self.client.model.truncate(slot);
                    self.client
                        .rec
                        .fail(format_args!("file of slot {slot} after recovery: {e}"));
                }
            }
        }
        lost
    }
}

impl Workload for Varmail {
    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn measured(&mut self) {
        for _ in 0..measured_ops(ITERATIONS, self.shrink) {
            // Delete a mail, deliver a new one in its place.
            let slot = self.rng.below(u64::from(FILES)) as u32;
            let gen = self.gens[slot as usize];
            self.client.unlink(slot, self.dir(slot), &name(slot, gen));
            self.gens[slot as usize] = gen + 1;
            self.client
                .create(slot, self.dir(slot), &name(slot, gen + 1));
            self.client.write(slot, 0, CHUNK);
            self.client.fsync(slot);
            // Append to another mailbox.
            let slot = self.rng.below(u64::from(FILES)) as u32;
            let size = self.client.model.files[slot as usize].size;
            if size >= FILE_CAP {
                self.client.rewrite(slot, CHUNK);
            } else {
                self.client.write(slot, size, CHUNK);
            }
            self.client.fsync(slot);
            // Read a third one whole.
            let slot = self.rng.below(u64::from(FILES)) as u32;
            let size = self.client.model.files[slot as usize].size;
            self.client.read(slot, 0, size as usize);
        }
    }

    fn finish(&mut self, extras: &mut Extras) {
        self.client.read_back_all();
        if self.target == Target::Native {
            return;
        }
        let t0 = Instant::now();
        let snap = self.client.stack.muxes[0].snapshot_metafile();
        extras.insert("persist.snapshot_wall_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.client.rec.attempted += 1;
        if let Err(e) = snap {
            self.client
                .rec
                .fail(format_args!("snapshot_metafile returned {e}"));
        }
        let (wall_ms, virt_ms) = self.crash_and_recover();
        extras.insert("persist.recover_wall_ms", wall_ms);
        extras.insert("recover_virt_ms", virt_ms);
        // Every byte was fsync-acknowledged before the crash: whatever
        // does not read back now is lost.
        let mut lost = self.reresolve();
        for slot in 0..FILES {
            let size = self.client.model.files[slot as usize].size;
            let failed_before = self.client.rec.failed;
            self.client.read(slot, 0, size as usize);
            if self.client.rec.failed > failed_before {
                lost += size;
            }
        }
        extras.insert("persist.lost_acked_bytes", lost as f64);
    }
}
