//! Spans recorded from outside the program: `SpanFs` wraps a tier's
//! native file system and `SpanPolicy` the tiering policy, so every call
//! Mux makes downwards is bracketed with both clocks. The harness brackets
//! the client call (or the maintenance tick) that caused them; a layer's
//! self time is its span minus the part its children cover.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mux::policy::{FileView, MigrationPlan, TierStatus};
use mux::{PlacementCtx, TierId, TieringPolicy};
use simdev::VirtualClock;
use tvfs::{DirEntry, FileAttr, FileSystem, FileType, InodeNo, SetAttr, StatFs, VfsResult};

/// The native file systems a span can belong to.
pub const FS_KINDS: [&str; 3] = ["novafs", "xefs", "e4fs"];
/// `FileSystem` methods in span-name order; `SpanFs` passes the index.
const FS_METHODS: [&str; 14] = [
    "lookup",
    "getattr",
    "setattr",
    "create",
    "unlink",
    "rename",
    "readdir",
    "read",
    "write",
    "punch_hole",
    "next_data",
    "fsync",
    "sync",
    "statfs",
];
const M_READ: usize = 7;
const M_WRITE: usize = 8;
const M_FSYNC: usize = 11;
const POLICY_METHODS: [&str; 4] = ["place", "on_access", "on_tier_read", "plan_migrations"];
pub const P_PLACE: usize = 0;
pub const P_ON_ACCESS: usize = 1;
pub const P_PLAN: usize = 3;
const N_FS_NAMES: usize = FS_KINDS.len() * FS_METHODS.len();
const N_NAMES: usize = N_FS_NAMES + POLICY_METHODS.len();
/// Parent spans: one client op of each kind (in `harness::Kind` order),
/// or one maintenance tick.
const PARENT_NAMES: [&str; 6] = [
    "op.read",
    "op.write",
    "op.fsync",
    "op.create",
    "op.unlink",
    "tick",
];
pub const TICK: usize = 5;

fn name_of(id: u16) -> String {
    let id = id as usize;
    if id < N_FS_NAMES {
        format!(
            "{}.{}",
            FS_KINDS[id / FS_METHODS.len()],
            FS_METHODS[id % FS_METHODS.len()]
        )
    } else if id < N_NAMES {
        format!("policy.{}", POLICY_METHODS[id - N_FS_NAMES])
    } else {
        PARENT_NAMES[id - N_NAMES].to_string()
    }
}

/// One recorded span. `parent` is the index of the client op (or tick)
/// that caused it; spans of one request share it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u16,
    pub parent: u32,
    pub wall0: u64,
    pub wall1: u64,
    pub virt0: u64,
    pub virt1: u64,
}

#[derive(Debug, Default)]
struct Agg {
    calls: AtomicU64,
    wall_ns: AtomicU64,
    virt_ns: AtomicU64,
    bytes: AtomicU64,
}

/// Totals of one span name over the traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggSnapshot {
    pub calls: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
    pub bytes: u64,
}

/// Collects spans in memory. Every span feeds the per-name totals; the
/// first `cap` are also kept whole and written out after the run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    cap: usize,
    parent: AtomicU64,
    child_wall: AtomicU64,
    child_virt: AtomicU64,
    agg: Vec<Agg>,
}

impl Tracer {
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(cap)),
            cap,
            parent: AtomicU64::new(0),
            child_wall: AtomicU64::new(0),
            child_virt: AtomicU64::new(0),
            agg: (0..N_NAMES).map(|_| Agg::default()).collect(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("tracer is single-threaded");
        if spans.len() < self.cap {
            spans.push(span);
        }
    }

    fn child<R>(&self, name: usize, clock: &VirtualClock, bytes: u64, f: impl FnOnce() -> R) -> R {
        let virt0 = clock.now_ns();
        let wall0 = self.now();
        let out = f();
        let wall1 = self.now();
        let virt1 = clock.now_ns();
        let a = &self.agg[name];
        a.calls.fetch_add(1, Relaxed);
        a.wall_ns.fetch_add(wall1 - wall0, Relaxed);
        a.virt_ns.fetch_add(virt1 - virt0, Relaxed);
        a.bytes.fetch_add(bytes, Relaxed);
        self.child_wall.fetch_add(wall1 - wall0, Relaxed);
        self.child_virt.fetch_add(virt1 - virt0, Relaxed);
        self.push(Span {
            name: name as u16,
            parent: self.parent.load(Relaxed) as u32,
            wall0,
            wall1,
            virt0,
            virt1,
        });
        out
    }

    /// Opens the span of one client op or tick; children recorded until
    /// [`Tracer::end_parent`] belong to it.
    pub fn begin_parent(&self) -> u64 {
        self.child_wall.store(0, Relaxed);
        self.child_virt.store(0, Relaxed);
        self.now()
    }

    /// Closes the parent span (`kind` indexes the client op kinds, or is
    /// [`TICK`]) and returns what its children covered, as (wall ns,
    /// virt ns).
    pub fn end_parent(
        &self,
        kind: usize,
        wall0: u64,
        wall_ns: u64,
        virt0: u64,
        virt_ns: u64,
    ) -> (u64, u64) {
        let idx = self.parent.fetch_add(1, Relaxed) as u32;
        self.push(Span {
            name: (N_NAMES + kind) as u16,
            parent: idx,
            wall0,
            wall1: wall0 + wall_ns,
            virt0,
            virt1: virt0 + virt_ns,
        });
        (self.child_wall.load(Relaxed), self.child_virt.load(Relaxed))
    }

    fn snapshot(&self, name: usize) -> AggSnapshot {
        let a = &self.agg[name];
        AggSnapshot {
            calls: a.calls.load(Relaxed),
            wall_ns: a.wall_ns.load(Relaxed),
            virt_ns: a.virt_ns.load(Relaxed),
            bytes: a.bytes.load(Relaxed),
        }
    }

    /// Totals over every method of one native file system kind, and its
    /// fsync count.
    pub fn fs_totals(&self, kind: usize) -> (AggSnapshot, u64) {
        let mut sum = AggSnapshot::default();
        for m in 0..FS_METHODS.len() {
            let s = self.snapshot(kind * FS_METHODS.len() + m);
            sum.calls += s.calls;
            sum.wall_ns += s.wall_ns;
            sum.virt_ns += s.virt_ns;
            if m == M_READ || m == M_WRITE {
                sum.bytes += s.bytes;
            }
        }
        (sum, self.snapshot(kind * FS_METHODS.len() + M_FSYNC).calls)
    }

    pub fn policy_totals(&self, method: usize) -> AggSnapshot {
        self.snapshot(N_FS_NAMES + method)
    }

    /// Forgets totals gathered so far (set-up and warm-up are not traced).
    pub fn reset(&self) {
        for a in &self.agg {
            a.calls.store(0, Relaxed);
            a.wall_ns.store(0, Relaxed);
            a.virt_ns.store(0, Relaxed);
            a.bytes.store(0, Relaxed);
        }
        self.spans
            .lock()
            .expect("tracer is single-threaded")
            .clear();
        self.parent.store(0, Relaxed);
    }

    /// Writes the retained spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("tracer is single-threaded");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let name = name_of(s.name);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"wall_start_ns\":{},\"wall_end_ns\":{},\"virt_start_ns\":{},\"virt_end_ns\":{}}}",
                name, s.parent, s.wall0, s.wall1, s.virt0, s.virt1
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// A tier's native file system with every call bracketed by a span.
pub struct SpanFs {
    inner: Arc<dyn FileSystem>,
    base: usize,
    clock: VirtualClock,
    tracer: Arc<Tracer>,
}

impl SpanFs {
    /// `kind` indexes [`FS_KINDS`]; `clock` is the clock `inner` charges.
    pub fn wrap(
        inner: Arc<dyn FileSystem>,
        kind: usize,
        clock: VirtualClock,
        tracer: Arc<Tracer>,
    ) -> Arc<dyn FileSystem> {
        Arc::new(SpanFs {
            inner,
            base: kind * FS_METHODS.len(),
            clock,
            tracer,
        })
    }

    fn span<R>(&self, method: usize, bytes: u64, f: impl FnOnce() -> R) -> R {
        self.tracer.child(self.base + method, &self.clock, bytes, f)
    }
}

impl FileSystem for SpanFs {
    fn fs_name(&self) -> &str {
        self.inner.fs_name()
    }

    fn root_ino(&self) -> InodeNo {
        self.inner.root_ino()
    }

    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        self.span(0, 0, || self.inner.lookup(parent, name))
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        self.span(1, 0, || self.inner.getattr(ino))
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        self.span(2, 0, || self.inner.setattr(ino, set))
    }

    fn create(
        &self,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        self.span(3, 0, || self.inner.create(parent, name, kind, mode))
    }

    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        self.span(4, 0, || self.inner.unlink(parent, name))
    }

    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        self.span(5, 0, || {
            self.inner.rename(parent, name, new_parent, new_name)
        })
    }

    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        self.span(6, 0, || self.inner.readdir(ino))
    }

    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        let len = buf.len() as u64;
        self.span(M_READ, len, || self.inner.read(ino, off, buf))
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.span(M_WRITE, data.len() as u64, || {
            self.inner.write(ino, off, data)
        })
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        self.span(9, 0, || self.inner.punch_hole(ino, off, len))
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        self.span(10, 0, || self.inner.next_data(ino, off))
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        self.span(M_FSYNC, 0, || self.inner.fsync(ino))
    }

    fn sync(&self) -> VfsResult<()> {
        self.span(12, 0, || self.inner.sync())
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        self.span(13, 0, || self.inner.statfs())
    }
}

/// The tiering policy with every call bracketed by a span.
pub struct SpanPolicy {
    inner: Arc<dyn TieringPolicy>,
    clock: VirtualClock,
    tracer: Arc<Tracer>,
}

impl SpanPolicy {
    pub fn wrap(
        inner: Arc<dyn TieringPolicy>,
        clock: VirtualClock,
        tracer: Arc<Tracer>,
    ) -> Arc<dyn TieringPolicy> {
        Arc::new(SpanPolicy {
            inner,
            clock,
            tracer,
        })
    }

    fn span<R>(&self, method: usize, f: impl FnOnce() -> R) -> R {
        self.tracer.child(N_FS_NAMES + method, &self.clock, 0, f)
    }
}

impl TieringPolicy for SpanPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&self, ctx: &PlacementCtx<'_>) -> TierId {
        self.span(P_PLACE, || self.inner.place(ctx))
    }

    fn place_run(&self, ctx: &PlacementCtx<'_>) -> Vec<(u64, TierId)> {
        self.span(P_PLACE, || self.inner.place_run(ctx))
    }

    fn on_access(&self, ino: u64, block: u64, n_blocks: u64, is_write: bool, now_ns: u64) {
        self.span(P_ON_ACCESS, || {
            self.inner.on_access(ino, block, n_blocks, is_write, now_ns)
        })
    }

    fn on_tier_read(&self, ino: u64, tier: TierId, is_fastest: bool, now_ns: u64) {
        self.span(2, || self.inner.on_tier_read(ino, tier, is_fastest, now_ns))
    }

    fn plan_migrations(&self, tiers: &[TierStatus], files: &[FileView]) -> Vec<MigrationPlan> {
        self.span(P_PLAN, || self.inner.plan_migrations(tiers, files))
    }

    fn is_pinned(&self, ino: u64) -> bool {
        self.inner.is_pinned(ino)
    }
}
