//! `read_hot`, `read_scan`, `write_small`: one 64 MiB file on one
//! PM/novafs tier under default `MuxOptions`. The same stack and file
//! used three ways, so that a change to the fast path, to dispatch or to
//! the write path each shows on one of them and leaves the others still.
//!
//! 64 MiB = 16 384 blocks, a quarter of the fast path's 65 536 slots: the
//! whole file stays mapped once warmed.

use std::sync::Arc;

use mux::MuxOptions;
use tvfs::ROOT_INO;

use super::{measured_ops, preload, Target, Workload};
use crate::harness::Client;
use crate::oracle::{Rng, BLOCK};
use crate::span::Tracer;
use crate::stack::{mux_stack, native_stack, TierKind};

const FILE_BYTES: u64 = 64 << 20;
const BLOCKS: u64 = FILE_BYTES / BLOCK;
const PM_BYTES: u64 = 256 << 20;
const WARM_READS: u32 = 20_000;
const SCAN_BYTES: u64 = 64 << 10;
/// Measured ops of the issue's single pass; see [`measured_ops`].
const HOT_OPS: u32 = 200_000;
const SCAN_OPS: u32 = 40_000;
const WRITE_OPS: u32 = 150_000;
/// `write_small` fsyncs after one write in 64, at seeded points.
const FSYNC_ONE_IN: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Uniform-random 1-byte reads: every read is a fast-path hit.
    Hot,
    /// Uniform-random 64 KiB reads at 64 KiB-aligned offsets: never the
    /// fast path.
    Scan,
    /// Uniform-random 4 KiB overwrites, an fsync after one in 64.
    WriteSmall,
}

pub struct SinglePm {
    mode: Mode,
    client: Client,
    rng: Rng,
    shrink: u32,
}

impl SinglePm {
    pub fn build(
        mode: Mode,
        seed: u64,
        target: Target,
        tracer: Option<Arc<Tracer>>,
        shrink: u32,
    ) -> Self {
        let stack = match target {
            Target::Mux => mux_stack(
                &[(TierKind::Nova, PM_BYTES)],
                MuxOptions::default(),
                false,
                tracer.as_ref(),
            ),
            Target::Native => native_stack(TierKind::Nova, PM_BYTES, false),
        };
        let mut client = Client::new(stack, 1, tracer);
        preload(&mut client, ROOT_INO, 1, FILE_BYTES);
        let mut rng = Rng::new(seed);
        // Warm: touch every block in order, then random 1-byte reads.
        for block in 0..BLOCKS {
            client.read(0, block * BLOCK, 1);
        }
        for _ in 0..WARM_READS {
            client.read(0, rng.below(FILE_BYTES), 1);
        }
        SinglePm {
            mode,
            client,
            rng,
            shrink,
        }
    }
}

impl Workload for SinglePm {
    fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    fn measured(&mut self) {
        match self.mode {
            Mode::Hot => {
                for _ in 0..measured_ops(HOT_OPS, self.shrink) {
                    self.client.read(0, self.rng.below(FILE_BYTES), 1);
                }
            }
            Mode::Scan => {
                for _ in 0..measured_ops(SCAN_OPS, self.shrink) {
                    let off = self.rng.below(FILE_BYTES / SCAN_BYTES) * SCAN_BYTES;
                    self.client.read(0, off, SCAN_BYTES as usize);
                }
            }
            Mode::WriteSmall => {
                for _ in 0..measured_ops(WRITE_OPS, self.shrink) {
                    self.client
                        .write(0, self.rng.below(BLOCKS) * BLOCK, BLOCK as usize);
                    if self.rng.below(FSYNC_ONE_IN) == 0 {
                        self.client.fsync(0);
                    }
                }
            }
        }
    }
}
