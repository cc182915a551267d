//! The measuring harness: one closed-loop client, two clocks per op.
//!
//! `wall` is host time of the Rust code (`std::time::Instant`); `virt` is
//! model time (`simdev::VirtualClock`, or the cluster's ledgers). The
//! measured phase of a workload is a fixed op sequence, so two runs of it
//! do identical work; `run.rs` repeats it on fresh stacks and reports the
//! median repetition.

use std::sync::Arc;
use std::time::Instant;

use mux::Mux;
use tvfs::{FileSystem, FileType, InodeNo, SetAttr, VfsResult};

use crate::oracle::{Model, BLOCK};
use crate::probe::Probe;
use crate::span::{Tracer, TICK};
use crate::stack::Stack;

/// Client op types, in `tvfs.{read,write,fsync,create,unlink}_*` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read = 0,
    Write = 1,
    Fsync = 2,
    Create = 3,
    Unlink = 4,
}

pub const KINDS: [&str; 5] = ["read", "write", "fsync", "create", "unlink"];

/// Measured wall time between two slices of the host-speed probe.
const PROBE_EVERY_NS: u64 = 60_000_000;

/// Touches kept for the layer replay (the head of the measured stream).
pub const TOUCH_CAP: usize = 1 << 16;

/// One access of the workload's key stream.
#[derive(Debug, Clone, Copy)]
pub struct Touch {
    pub ino: u64,
    pub block: u64,
    pub n_blocks: u64,
    pub write: bool,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    pub n: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
}

/// Summary of one measured phase: the same fixed op sequence every time
/// a workload is built from a seed.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub ops: u64,
    pub op_wall_ns: u64,
    pub op_virt_ns: u64,
    pub wall_p50: f64,
    pub wall_p99: f64,
    pub virt_p99: f64,
    /// Mean wall ns per op of the last fifth of the ops over the first
    /// fifth; 1.0 is flat.
    pub growth_ratio: f64,
    /// Per kind: count, wall p50, summed virt ns.
    pub kinds: [(u64, f64, u64); 5],
}

/// Mean of the order statistics within `width` of quantile `q`: a
/// percentile that keeps sub-nanosecond digits and does not jump between
/// two neighbouring samples.
pub fn quantile(sorted: &[u32], q: f64, width: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let lo = (((q - width) * n).floor().max(0.0)) as usize;
    let hi = ((((q + width) * n).ceil()) as usize).clamp(lo + 1, sorted.len());
    let band = &sorted[lo.min(sorted.len() - 1)..hi];
    band.iter().map(|&v| f64::from(v)).sum::<f64>() / band.len() as f64
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Collects the per-op samples and counts of one measured phase.
#[derive(Default)]
pub struct Recorder {
    wall: Vec<u32>,
    virt: Vec<u32>,
    kind: Vec<u8>,
    pub summary: Summary,
    pub attempted: u64,
    pub failed: u64,
    /// False during set-up, warm-up and the checks after the measured
    /// phase: ops run and are compared with the model but leave no samples.
    pub measuring: bool,
    pub tracer: Option<Arc<Tracer>>,
    /// Traced pass: op span minus child spans, summed, and the child spans
    /// of client ops (ticks have children too; those are not in here).
    pub self_wall_ns: u64,
    pub self_virt_ns: u64,
    pub child_wall_ns: u64,
    /// Parent spans whose children covered more than the span itself.
    pub span_overruns: u64,
    /// `cluster_mix` tags each op local (0) or remote (1) before issuing it.
    pub remote: bool,
    pub by_owner: [Split; 2],
    pub tick_wall_ns: u64,
    pub tick_wall_max_ns: u64,
    pub tick_virt_ns: u64,
    /// Blocks moved, mirrored or resynced by each measured tick.
    pub tick_moved: Vec<u64>,
    pub touches: Vec<Touch>,
    pub user_bytes_written: u64,
    pub user_bytes: u64,
    /// Host speed while this phase was measured.
    pub probe: Probe,
    since_probe_ns: u64,
}

impl Recorder {
    /// Counts one failed op and says what failed, for the first few.
    pub fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("muxbench: failure {}: {what}", self.failed);
        }
    }

    fn sample(&mut self, kind: Kind, wall_ns: u64, virt_ns: u64) {
        self.wall.push(wall_ns.min(u64::from(u32::MAX)) as u32);
        self.virt.push(virt_ns.min(u64::from(u32::MAX)) as u32);
        self.kind.push(kind as u8);
        let s = &mut self.by_owner[usize::from(self.remote)];
        s.n += 1;
        s.wall_ns += wall_ns;
        s.virt_ns += virt_ns;
        self.probe_after(wall_ns);
    }

    /// Runs a probe slice once enough measured time has passed since the
    /// last one; called between ops, never inside a timed span.
    fn probe_after(&mut self, wall_ns: u64) {
        self.since_probe_ns += wall_ns;
        if self.since_probe_ns >= PROBE_EVERY_NS {
            self.since_probe_ns = 0;
            self.probe.slice();
        }
    }

    /// Starts the measured phase.
    pub fn start_measuring(&mut self) {
        self.probe.slice();
        self.measuring = true;
    }

    pub fn touch(&mut self, ino: u64, off: u64, len: usize, write: bool) {
        if self.measuring && self.tracer.is_some() && self.touches.len() < TOUCH_CAP {
            let block = off / BLOCK;
            self.touches.push(Touch {
                ino,
                block,
                n_blocks: (off + len.max(1) as u64 - 1) / BLOCK - block + 1,
                write,
            });
        }
    }

    /// Ends the measured phase and summarises its samples.
    pub fn stop_measuring(&mut self) {
        self.measuring = false;
        self.probe.slice();
        let total = |v: &[u32]| v.iter().map(|&x| u64::from(x)).sum::<u64>();
        let mut s = Summary {
            ops: self.wall.len() as u64,
            op_wall_ns: total(&self.wall),
            op_virt_ns: total(&self.virt),
            ..Default::default()
        };
        let fifth = (self.wall.len() / 5).max(1).min(self.wall.len());
        let first = total(&self.wall[..fifth]);
        let last = total(&self.wall[self.wall.len() - fifth..]);
        s.growth_ratio = if first > 0 {
            last as f64 / first as f64
        } else {
            0.0
        };
        for k in 0..KINDS.len() {
            let mut w: Vec<u32> = Vec::new();
            let mut virt_sum = 0u64;
            for i in 0..self.kind.len() {
                if self.kind[i] as usize == k {
                    w.push(self.wall[i]);
                    virt_sum += u64::from(self.virt[i]);
                }
            }
            w.sort_unstable();
            s.kinds[k] = (w.len() as u64, quantile(&w, 0.5, 0.0025), virt_sum);
        }
        self.wall.sort_unstable();
        self.virt.sort_unstable();
        s.wall_p50 = quantile(&self.wall, 0.5, 0.0025);
        s.wall_p99 = quantile(&self.wall, 0.99, 0.001);
        s.virt_p99 = quantile(&self.virt, 0.99, 0.001);
        self.wall = Vec::new();
        self.virt = Vec::new();
        self.kind = Vec::new();
        self.summary = s;
    }

    /// Wall ns of the measured phase: client ops plus inline ticks.
    pub fn measured_wall_ns(&self) -> u64 {
        self.summary.op_wall_ns + self.tick_wall_ns
    }

    /// Client ops per second of op and tick wall time.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.summary.ops as f64 * 1e9 / self.measured_wall_ns().max(1) as f64
    }

    pub fn virt_ns_per_op(&self) -> f64 {
        self.summary.op_virt_ns as f64 / self.summary.ops.max(1) as f64
    }
}

/// The one client: issues ops on the stack, times them on both clocks and
/// checks every result against the reference model.
pub struct Client {
    pub stack: Stack,
    pub model: Model,
    /// File id → inode as the stack's top file system names it.
    pub inos: Vec<InodeNo>,
    pub rec: Recorder,
    buf: Vec<u8>,
}

fn timed<R>(
    stack: &Stack,
    rec: &mut Recorder,
    kind: Kind,
    f: impl FnOnce(&dyn FileSystem) -> VfsResult<R>,
) -> Option<R> {
    rec.attempted += 1;
    let fs = stack.fs.as_ref();
    let out = if !rec.measuring {
        f(fs)
    } else if let Some(tr) = rec.tracer.clone() {
        let mark = stack.vclock.mark();
        let wall0 = tr.begin_parent();
        let t0 = Instant::now();
        let out = f(fs);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let virt_ns = stack.vclock.since(&mark);
        let (child_wall, child_virt) =
            tr.end_parent(kind as usize, wall0, wall_ns, mark.abs(), virt_ns);
        if child_wall > wall_ns {
            rec.span_overruns += 1;
        }
        rec.child_wall_ns += child_wall;
        rec.self_wall_ns += wall_ns.saturating_sub(child_wall);
        rec.self_virt_ns += virt_ns.saturating_sub(child_virt);
        rec.sample(kind, wall_ns, virt_ns);
        out
    } else {
        let mark = stack.vclock.mark();
        let t0 = Instant::now();
        let out = f(fs);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        rec.sample(kind, wall_ns, stack.vclock.since(&mark));
        out
    };
    match out {
        Ok(v) => Some(v),
        Err(e) => {
            rec.fail(format_args!("{} returned {e}", KINDS[kind as usize]));
            None
        }
    }
}

impl Client {
    pub fn new(stack: Stack, files: usize, tracer: Option<Arc<Tracer>>) -> Self {
        Client {
            stack,
            model: Model::with_files(files),
            inos: vec![0; files],
            rec: Recorder {
                tracer,
                ..Default::default()
            },
            buf: Vec::new(),
        }
    }

    /// Reads and compares with the model; a mismatch counts as a failure.
    pub fn read(&mut self, file: u32, off: u64, len: usize) {
        let ino = self.inos[file as usize];
        self.buf.resize(len, 0);
        self.rec.touch(ino, off, len, false);
        let buf = &mut self.buf;
        let got = timed(&self.stack, &mut self.rec, Kind::Read, |fs| {
            fs.read(ino, off, buf)
        });
        if let Some(n) = got {
            if self.rec.measuring {
                self.rec.user_bytes += n as u64;
            }
            if !self.model.check_read(file, off, &self.buf, n) {
                self.rec.fail(format_args!(
                    "read of file {file} at {off}+{len} differs from the model"
                ));
            }
        }
    }

    /// Writes whole blocks whose content the model derives.
    pub fn write(&mut self, file: u32, off: u64, len: usize) {
        let ino = self.inos[file as usize];
        self.buf.resize(len, 0);
        self.model.write(file, off, &mut self.buf);
        self.rec.touch(ino, off, len, true);
        let buf = &self.buf;
        let got = timed(&self.stack, &mut self.rec, Kind::Write, |fs| {
            fs.write(ino, off, buf)
        });
        self.wrote(file, len, got);
    }

    fn wrote(&mut self, file: u32, len: usize, got: Option<usize>) {
        if self.rec.measuring {
            self.rec.user_bytes_written += len as u64;
            self.rec.user_bytes += len as u64;
        }
        if got.is_some_and(|n| n != len) {
            self.rec.fail(format_args!("short write to file {file}"));
        }
    }

    /// Truncates to zero and appends in one timed client op of kind write
    /// (varmail's "append to a file that reached its cap").
    pub fn rewrite(&mut self, file: u32, len: usize) {
        let ino = self.inos[file as usize];
        self.model.truncate(file);
        self.buf.resize(len, 0);
        self.model.write(file, 0, &mut self.buf);
        self.rec.touch(ino, 0, len, true);
        let buf = &self.buf;
        let got = timed(&self.stack, &mut self.rec, Kind::Write, |fs| {
            fs.setattr(ino, &SetAttr::truncate(0))?;
            fs.write(ino, 0, buf)
        });
        self.wrote(file, len, got);
    }

    pub fn fsync(&mut self, file: u32) {
        let ino = self.inos[file as usize];
        timed(&self.stack, &mut self.rec, Kind::Fsync, |fs| fs.fsync(ino));
    }

    pub fn create(&mut self, file: u32, parent: InodeNo, name: &str) {
        let got = timed(&self.stack, &mut self.rec, Kind::Create, |fs| {
            fs.create(parent, name, FileType::Regular, 0o644)
        });
        if let Some(attr) = got {
            self.inos[file as usize] = attr.ino;
        }
        self.model.truncate(file);
    }

    pub fn unlink(&mut self, file: u32, parent: InodeNo, name: &str) {
        timed(&self.stack, &mut self.rec, Kind::Unlink, |fs| {
            fs.unlink(parent, name)
        });
        self.model.truncate(file);
    }

    /// Untimed directory creation for set-up.
    pub fn mkdir(&mut self, parent: InodeNo, name: &str) -> InodeNo {
        self.rec.attempted += 1;
        match self
            .stack
            .fs
            .create(parent, name, FileType::Directory, 0o755)
        {
            Ok(attr) => attr.ino,
            Err(e) => {
                self.rec.fail(format_args!("mkdir {name} returned {e}"));
                0
            }
        }
    }

    /// Advances model time by one epoch and runs `maintenance_tick` inline.
    /// Tick time counts toward the repetition's wall time, not toward
    /// per-op latency.
    pub fn tick(&mut self, mux: &Mux, epoch_ns: u64) {
        let clock = match &self.stack.vclock {
            crate::stack::VClock::Single(c) => c.clone(),
            crate::stack::VClock::Cluster(_) => unreachable!("ticks run on single-clock stacks"),
        };
        clock.advance(epoch_ns);
        if !self.rec.measuring {
            mux.maintenance_tick();
            return;
        }
        let virt0 = clock.now_ns();
        let wall0 = self.rec.tracer.as_ref().map(|t| t.begin_parent());
        let t0 = Instant::now();
        let report = mux.maintenance_tick();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let virt_ns = clock.now_ns() - virt0;
        if let (Some(tr), Some(w0)) = (&self.rec.tracer, wall0) {
            tr.end_parent(TICK, w0, wall_ns, virt0, virt_ns);
        }
        let rec = &mut self.rec;
        rec.probe_after(wall_ns);
        rec.tick_wall_ns += wall_ns;
        rec.tick_wall_max_ns = rec.tick_wall_max_ns.max(wall_ns);
        rec.tick_virt_ns += virt_ns;
        rec.tick_moved
            .push(report.blocks_moved + report.mirrored + report.resynced);
    }

    /// Read-back of every block of every live file, after the measured
    /// phase.
    pub fn read_back_all(&mut self) {
        debug_assert!(!self.rec.measuring);
        for file in 0..self.model.files.len() as u32 {
            let size = self.model.files[file as usize].size;
            let mut off = 0;
            while off < size {
                let len = (size - off).min(1 << 20) as usize;
                self.read(file, off, len);
                off += len as u64;
            }
        }
    }
}

/// `VmHWM` and `VmRSS` of this process, MiB.
pub fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Wall cost of one `Instant` pair, the harness's own floor.
pub fn timer_wall_ns() -> f64 {
    let n = 200_000u32;
    let t0 = Instant::now();
    let mut acc = 0u128;
    for _ in 0..n {
        let t = Instant::now();
        acc += std::hint::black_box(t.elapsed().as_nanos());
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / f64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_band_is_mean_of_neighbours() {
        let v: Vec<u32> = (0..1000).collect();
        let p50 = quantile(&v, 0.5, 0.0025);
        assert!((p50 - 499.5).abs() < 1.5, "{p50}");
        let p99 = quantile(&v, 0.99, 0.001);
        assert!((p99 - 989.5).abs() < 1.5, "{p99}");
        assert_eq!(quantile(&[], 0.5, 0.0025), 0.0);
        assert_eq!(quantile(&[7], 0.99, 0.001), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
