//! `ClusterMux`: one namespace over N Mux nodes.
//!
//! The frontend implements [`tvfs::FileSystem`] and routes every call to
//! the node that owns the entity. Placement is decided once, at create
//! time, by two-choice consistent hashing over a **directory-affinity
//! key**: top-level entries hash independently (that is where the fan-out
//! comes from), everything deeper inherits its parent directory's node —
//! so a directory's files co-locate with its metadata. The routing tables
//! (not re-hashing) are authoritative afterwards, which is what lets
//! rename and cross-node migration move entries without touching data
//! placement logic.
//!
//! Inter-node calls go through the typed RPC seam in [`crate::rpc`]; a
//! cluster-level [`HealthRegistry`] (keyed by peer node id) turns repeated
//! link failures — or an injected [`ClusterMux::partition_node`] — into a
//! breaker that fast-fails calls to a dead peer and steers *new*
//! placements to the surviving candidate. [`ClusterMux::heal_node`]
//! reopens the links, resets the breaker, and sweeps any migration debris
//! the partition stranded.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mux::{
    HealthConfig, HealthRegistry, Mux, MuxStats, ShardedMap, TierHealthState, TierId,
    TraceEventKind,
};
use netfs::{wire, LinkDir, LinkProfile, LinkStats, RemoteFs, SimLink};
use parking_lot::Mutex;
use simdev::VirtualClock;
use tvfs::{
    DirEntry, FileAttr, FileSystem, FileType, InodeNo, SetAttr, StatFs, VfsError, VfsResult,
    ROOT_INO,
};

use crate::ring::HashRing;
use crate::rpc::{PeerLink, RpcOp};

/// First global inode number handed out by the cluster; local inode
/// numbers on member nodes stay far below this.
pub const GINO_BASE: u64 = 1 << 32;

std::thread_local! {
    static HOME: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Declares which node this thread's requests enter the cluster through
/// (the client's "mount"). Remote ops charge the home↔owner link.
pub fn set_thread_home(node: usize) {
    HOME.with(|h| h.set(node));
}

/// The node this thread's requests enter through.
pub fn thread_home() -> usize {
    HOME.with(|h| h.get())
}

/// One member node: a full local [`Mux`] stack plus the node's virtual
/// clock (its CPU/IO ledger — cluster elapsed time is the max over these
/// and the link ledgers).
pub struct ClusterNode {
    /// Display name ("node0"…).
    pub name: String,
    /// The node's tiered file system.
    pub mux: Arc<Mux>,
    /// The node's time ledger; every device and dispatch on this node
    /// charges it.
    pub clock: VirtualClock,
}

/// Tunables for a [`ClusterMux`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Performance model for every inter-node link.
    pub link: LinkProfile,
    /// Ring points per node (consistent hashing granularity).
    pub vnodes: usize,
    /// Breaker thresholds for peer reachability.
    pub health: HealthConfig,
    /// Bytes per cross-node migration pull chunk.
    pub copy_chunk: usize,
    /// OCC validation rounds a cross-node migration may retry before
    /// aborting.
    pub migration_retries: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            link: LinkProfile::datacenter(),
            vnodes: 64,
            health: HealthConfig::default(),
            copy_chunk: 256 * 1024,
            migration_retries: 3,
        }
    }
}

/// Cluster-level counters (see also each node's `MuxStats`, which carries
/// the `remote_*` counters for work it performed on behalf of peers).
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Ops whose owner was the caller's home node (no wire crossed).
    pub routed_local: AtomicU64,
    /// Ops that crossed a link to another node.
    pub routed_remote: AtomicU64,
    /// RPCs that failed on the wire (partition drops).
    pub rpc_failures: AtomicU64,
    /// RPCs refused without touching the wire because the peer breaker
    /// was open.
    pub breaker_fast_fails: AtomicU64,
    /// Cross-node migrations committed.
    pub migrations: AtomicU64,
    /// OCC re-copy rounds forced by source mutations mid-migration.
    pub migration_retries: AtomicU64,
    /// Cross-node migrations aborted (OCC conflict or partition).
    pub migration_aborts: AtomicU64,
    /// `partition_node` calls.
    pub partitions: AtomicU64,
    /// `heal_node` calls.
    pub heals: AtomicU64,
    /// Staging/intent files swept by heal-time debris cleanup.
    pub orphans_cleaned: AtomicU64,
}

/// Plain snapshot of [`ClusterStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStatsSnapshot {
    /// Ops served by the caller's home node.
    pub routed_local: u64,
    /// Ops that crossed a link.
    pub routed_remote: u64,
    /// RPCs that failed on the wire.
    pub rpc_failures: u64,
    /// RPCs fast-failed by an open peer breaker.
    pub breaker_fast_fails: u64,
    /// Cross-node migrations committed.
    pub migrations: u64,
    /// OCC re-copy rounds.
    pub migration_retries: u64,
    /// Cross-node migrations aborted.
    pub migration_aborts: u64,
    /// Partitions injected.
    pub partitions: u64,
    /// Heals performed.
    pub heals: u64,
    /// Debris files swept on heal.
    pub orphans_cleaned: u64,
}

impl ClusterStats {
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot.
    pub fn snapshot(&self) -> ClusterStatsSnapshot {
        ClusterStatsSnapshot {
            routed_local: self.routed_local.load(Ordering::Relaxed),
            routed_remote: self.routed_remote.load(Ordering::Relaxed),
            rpc_failures: self.rpc_failures.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            migration_retries: self.migration_retries.load(Ordering::Relaxed),
            migration_aborts: self.migration_aborts.load(Ordering::Relaxed),
            partitions: self.partitions.load(Ordering::Relaxed),
            heals: self.heals.load(Ordering::Relaxed),
            orphans_cleaned: self.orphans_cleaned.load(Ordering::Relaxed),
        }
    }
}

/// Where a regular file lives.
#[derive(Debug, Clone)]
struct FileLoc {
    node: usize,
    local: InodeNo,
    local_parent: InodeNo,
    local_name: String,
}

#[derive(Debug, Clone, Copy)]
struct Child {
    gino: u64,
    kind: FileType,
}

/// Where a directory lives and what it contains. The children map is the
/// authoritative namespace; member nodes only hold backing objects.
struct DirInfo {
    node: usize, // usize::MAX for the root, which spans every node
    local: InodeNo,
    children: HashMap<String, Child>,
}

struct MountedTier {
    local: usize,
    peer: usize,
    tier: TierId,
    link: SimLink,
}

struct Debris {
    node: usize,
    parent: InodeNo,
    name: String,
}

/// A snapshot of every node and link ledger; subtract two to get the
/// cluster's elapsed virtual time over an interval.
#[derive(Debug, Clone)]
pub struct ClusterInstant {
    /// Per-node clock readings, ns.
    pub node_ns: Vec<u64>,
    /// Per-link occupancy readings, ns.
    pub link_ns: Vec<u64>,
}

/// Per-link report row: endpoints, counters, ledgers.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Lower endpoint node id.
    pub a: usize,
    /// Higher endpoint node id.
    pub b: usize,
    /// Message/byte/drop counters.
    pub stats: LinkStats,
    /// Wire occupancy, ns.
    pub busy_ns: u64,
    /// Accumulated propagation latency clients awaited, ns.
    pub latency_ns: u64,
}

/// Per-mounted-remote-tier report row: who mounts whom, and the mounted
/// link's counters (these links ride the *mounting node's* clock — see
/// the [`rpc`](crate::rpc) time-model docs).
#[derive(Debug, Clone)]
pub struct MountReport {
    /// Mounting node id.
    pub local: usize,
    /// Exporting peer node id.
    pub peer: usize,
    /// Tier id within the mounting node's Mux.
    pub tier: TierId,
    /// Message/byte/drop counters for the mounted link.
    pub stats: LinkStats,
}

/// The scale-out frontend. See the module docs.
pub struct ClusterMux {
    nodes: Vec<ClusterNode>,
    links: Vec<PeerLink>,
    ring: HashRing,
    cfg: ClusterConfig,
    peer_health: HealthRegistry,
    files: ShardedMap<u64, FileLoc>,
    dirs: Mutex<HashMap<u64, DirInfo>>,
    next_gino: AtomicU64,
    node_load: Vec<AtomicU64>,
    mounts: Mutex<Vec<MountedTier>>,
    debris: Mutex<Vec<Debris>>,
    inflight: Mutex<HashSet<u64>>,
    stats: ClusterStats,
}

impl ClusterMux {
    /// Assembles a cluster over `nodes` (at least one).
    pub fn new(nodes: Vec<ClusterNode>, cfg: ClusterConfig) -> Arc<Self> {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let n = nodes.len();
        let links = (0..n * n.saturating_sub(1) / 2)
            .map(|_| PeerLink::new(&cfg.link))
            .collect();
        let mut dirs = HashMap::new();
        dirs.insert(
            ROOT_INO,
            DirInfo {
                node: usize::MAX,
                local: ROOT_INO,
                children: HashMap::new(),
            },
        );
        let ring = HashRing::new(n, cfg.vnodes);
        let peer_health = HealthRegistry::new(cfg.health.clone());
        let node_load = (0..n).map(|_| AtomicU64::new(0)).collect();
        Arc::new(ClusterMux {
            nodes,
            links,
            ring,
            cfg,
            peer_health,
            files: ShardedMap::new(),
            dirs: Mutex::new(dirs),
            next_gino: AtomicU64::new(GINO_BASE),
            node_load,
            mounts: Mutex::new(Vec::new()),
            debris: Mutex::new(Vec::new()),
            inflight: Mutex::new(HashSet::new()),
            stats: ClusterStats::default(),
        })
    }

    /// Number of member nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A member node.
    pub fn node(&self, i: usize) -> &ClusterNode {
        &self.nodes[i]
    }

    /// Cluster-level counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The peer-reachability breaker (node id as tier id).
    pub fn peer_health(&self) -> &HealthRegistry {
        &self.peer_health
    }

    /// Which node currently owns `gino` (files and directories).
    pub fn owner_of(&self, gino: u64) -> Option<usize> {
        if let Some(loc) = self.files.get(&gino) {
            return Some(loc.node);
        }
        self.dirs.lock().get(&gino).map(|d| d.node)
    }

    fn home(&self) -> usize {
        thread_home() % self.nodes.len()
    }

    fn pair_index(&self, a: usize, b: usize) -> usize {
        let n = self.nodes.len();
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }

    fn link(&self, a: usize, b: usize) -> &PeerLink {
        &self.links[self.pair_index(a, b)]
    }

    /// Snapshot of every node and link ledger.
    pub fn instant(&self) -> ClusterInstant {
        ClusterInstant {
            node_ns: self.nodes.iter().map(|n| n.clock.now_ns()).collect(),
            link_ns: self.links.iter().map(|l| l.busy_ns()).collect(),
        }
    }

    /// Elapsed cluster time since `t0`: nodes run in parallel and links
    /// carry traffic in parallel, so the makespan is the max over all
    /// per-node and per-link ledger deltas.
    pub fn elapsed_since(&self, t0: &ClusterInstant) -> u64 {
        let now = self.instant();
        let node_max = now
            .node_ns
            .iter()
            .zip(&t0.node_ns)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or(0);
        let link_max = now
            .link_ns
            .iter()
            .zip(&t0.link_ns)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or(0);
        node_max.max(link_max)
    }

    /// Per-link counters and ledgers (empty with a single node).
    pub fn link_reports(&self) -> Vec<LinkReport> {
        let n = self.nodes.len();
        let mut out = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let l = self.link(a, b);
                out.push(LinkReport {
                    a,
                    b,
                    stats: l.stats(),
                    busy_ns: l.busy_ns(),
                    latency_ns: l.latency_ns(),
                });
            }
        }
        out
    }

    /// One report row per mounted remote tier.
    pub fn mount_reports(&self) -> Vec<MountReport> {
        self.mounts
            .lock()
            .iter()
            .map(|m| MountReport {
                local: m.local,
                peer: m.peer,
                tier: m.tier,
                stats: m.link.stats(),
            })
            .collect()
    }

    // ---- the RPC seam ---------------------------------------------------

    /// Routes one typed call to `to`. Local calls skip the wire; remote
    /// calls charge `wire.rs` request/response sizes on the home↔owner
    /// link, feed the peer breaker, bump the owner's `remote_*` counters,
    /// and leave a `remote_dispatch` trace event on the owner's ring.
    #[allow(clippy::too_many_arguments)]
    fn rpc<R>(
        &self,
        to: usize,
        op: RpcOp,
        req_fixed: u64,
        req_payload: u64,
        resp_fixed: u64,
        (ino, off, len): (u64, u64, u64),
        exec: impl FnOnce(&ClusterNode) -> VfsResult<R>,
        resp_payload: impl FnOnce(&R) -> u64,
    ) -> VfsResult<R> {
        let from = self.home();
        let node = &self.nodes[to];
        if from == to {
            ClusterStats::bump(&self.stats.routed_local);
            return exec(node);
        }
        if self.peer_health.state(to as TierId) == TierHealthState::Offline {
            ClusterStats::bump(&self.stats.breaker_fast_fails);
            return Err(VfsError::Io(format!(
                "node {to} unreachable (peer breaker open)"
            )));
        }
        let link = self.link(from, to);
        if let Err(e) = link.send(LinkDir::Request, wire::request(req_fixed, req_payload)) {
            self.peer_health.record_error(to as TierId);
            ClusterStats::bump(&self.stats.rpc_failures);
            return Err(e);
        }
        let out = exec(node);
        let mut payload = 0;
        let resp_bytes = match &out {
            Ok(r) => {
                payload = resp_payload(r);
                wire::response(resp_fixed, payload)
            }
            // Application errors still travel back as a small status frame.
            Err(_) => wire::response(16, 0),
        };
        if let Err(e) = link.send(LinkDir::Response, resp_bytes) {
            self.peer_health.record_error(to as TierId);
            ClusterStats::bump(&self.stats.rpc_failures);
            return Err(e);
        }
        self.peer_health.record_success(to as TierId);
        ClusterStats::bump(&self.stats.routed_remote);
        if out.is_ok() {
            let st = node.mux.stats();
            match op {
                RpcOp::Read | RpcOp::MigratePull => {
                    MuxStats::add(&st.remote_reads, 1);
                    MuxStats::add(&st.remote_bytes, payload);
                }
                RpcOp::Write => {
                    MuxStats::add(&st.remote_writes, 1);
                    MuxStats::add(&st.remote_bytes, req_payload);
                }
                _ => {}
            }
            node.mux.trace().push(
                node.clock.now_ns(),
                TraceEventKind::RemoteDispatch { op: op.op_kind() },
                from as TierId,
                ino,
                off,
                len,
            );
        }
        out
    }

    // ---- partition / heal ----------------------------------------------

    /// Cuts every link touching node `k` (including mounted remote tiers)
    /// and opens the peer breaker, so routing fast-fails and new
    /// placements steer to surviving candidates.
    pub fn partition_node(&self, k: usize) {
        for j in 0..self.nodes.len() {
            if j != k {
                self.link(k, j).set_partitioned(true);
            }
        }
        for m in self.mounts.lock().iter() {
            if m.peer == k || m.local == k {
                m.link.set_partitioned(true);
            }
        }
        self.peer_health
            .force_state(k as TierId, TierHealthState::Offline);
        ClusterStats::bump(&self.stats.partitions);
        for (j, node) in self.nodes.iter().enumerate() {
            if j != k {
                node.mux.trace().push(
                    node.clock.now_ns(),
                    TraceEventKind::LinkPartitioned,
                    k as TierId,
                    0,
                    0,
                    0,
                );
            }
        }
    }

    /// Reopens node `k`'s links, resets the peer breaker and any mounted
    /// remote-tier breakers, and sweeps migration debris stranded by the
    /// partition.
    pub fn heal_node(&self, k: usize) {
        for j in 0..self.nodes.len() {
            if j != k {
                self.link(k, j).set_partitioned(false);
            }
        }
        for m in self.mounts.lock().iter() {
            if m.peer == k || m.local == k {
                m.link.set_partitioned(false);
                self.nodes[m.local].mux.health().reset(m.tier);
            }
        }
        self.peer_health.reset(k as TierId);
        ClusterStats::bump(&self.stats.heals);
        for (j, node) in self.nodes.iter().enumerate() {
            if j != k {
                node.mux.trace().push(
                    node.clock.now_ns(),
                    TraceEventKind::LinkHealed,
                    k as TierId,
                    0,
                    0,
                    0,
                );
            }
        }
        self.sweep_debris();
    }

    fn sweep_debris(&self) {
        let pending = std::mem::take(&mut *self.debris.lock());
        let mut kept = Vec::new();
        for d in pending {
            match self.nodes[d.node].mux.unlink(d.parent, &d.name) {
                Ok(()) => ClusterStats::bump(&self.stats.orphans_cleaned),
                Err(VfsError::NotFound) => {}
                Err(_) => kept.push(d), // still unreachable; retry next heal
            }
        }
        self.debris.lock().extend(kept);
    }

    /// Names of `.migrate-*` / `.stage-*` leftovers on any node — the
    /// chaos oracle's "no debris on either side" check. Empty after a
    /// clean abort or a heal.
    pub fn scan_debris(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Ok(entries) = node.mux.readdir(node.mux.root_ino()) {
                for e in entries {
                    if e.name.starts_with(".migrate-") || e.name.starts_with(".stage-") {
                        out.push((i, e.name));
                    }
                }
            }
        }
        out
    }

    // ---- remote tiers ---------------------------------------------------

    /// Mounts `export` (a file system physically on `peer`) as a tier of
    /// `local`'s Mux, behind a [`RemoteFs`] whose link charges `local`'s
    /// clock — the synchronous remote-tier model from PR 5. The link is
    /// registered so [`ClusterMux::partition_node`] severs it with the
    /// rest of the peer and `heal_node` resets the tier breaker.
    pub fn mount_peer_tier(
        &self,
        local: usize,
        peer: usize,
        class: simdev::DeviceClass,
        export: Arc<dyn FileSystem>,
    ) -> TierId {
        let link = SimLink::new(self.cfg.link.clone(), self.nodes[local].clock.clone());
        let name = format!("{}-export", self.nodes[peer].name);
        let remote = RemoteFs::new(name.clone(), link.clone(), export);
        let tier = self.nodes[local]
            .mux
            .add_tier(mux::TierConfig { name, class }, Arc::new(remote));
        self.mounts.lock().push(MountedTier {
            local,
            peer,
            tier,
            link,
        });
        tier
    }

    // ---- placement ------------------------------------------------------

    /// Two-choice placement for a top-level name: of the key's two ring
    /// candidates, take the reachable one with less load.
    fn place(&self, name: &str) -> VfsResult<usize> {
        let [a, b] = self.ring.candidates(name);
        let up = |n: usize| self.peer_health.state(n as TierId) != TierHealthState::Offline;
        match (up(a), up(b)) {
            (true, true) => {
                let la = self.node_load[a].load(Ordering::Relaxed);
                let lb = self.node_load[b].load(Ordering::Relaxed);
                Ok(if la <= lb { a } else { b })
            }
            (true, false) => Ok(a),
            (false, true) => Ok(b),
            (false, false) => Err(VfsError::Io(format!(
                "both placement candidates for '{name}' are unreachable"
            ))),
        }
    }

    fn file_loc(&self, gino: u64) -> VfsResult<FileLoc> {
        self.files.get(&gino).ok_or(VfsError::NotFound)
    }

    // ---- cross-node migration ------------------------------------------

    /// Moves `gino`'s data and ownership to `dst`, journaled OCC-style:
    /// a durable intent on the source, chunked copy into a staging file,
    /// attribute-stability validation with bounded re-copy rounds, fsync
    /// on the destination *before* the routing flip (durable before
    /// visible), then source cleanup. An abort — OCC conflict or
    /// partition — removes staging and intent, deferring whatever an
    /// unreachable side stranded to heal-time debris sweeping. Returns
    /// bytes moved.
    pub fn migrate_to_node(&self, gino: u64, dst: usize) -> VfsResult<u64> {
        assert!(dst < self.nodes.len(), "no such node {dst}");
        let loc = self.file_loc(gino)?;
        if loc.node == dst {
            return Ok(0);
        }
        if !self.inflight.lock().insert(gino) {
            return Err(VfsError::Busy);
        }
        let res = self.migrate_inner(gino, &loc, dst);
        self.inflight.lock().remove(&gino);
        res
    }

    fn migrate_inner(&self, gino: u64, loc: &FileLoc, dst: usize) -> VfsResult<u64> {
        let src = loc.node;
        let src_local = loc.local;
        let intent_name = format!(".migrate-g{gino}");
        let staging_name = format!(".stage-g{gino}");
        let final_name = format!("g{gino}");
        let src_root = self.nodes[src].mux.root_ino();
        let dst_root = self.nodes[dst].mux.root_ino();

        self.nodes[src].mux.trace().push(
            self.nodes[src].clock.now_ns(),
            TraceEventKind::MigrationBegin,
            dst as TierId,
            gino,
            0,
            0,
        );

        // 1. Durable intent on the source: records gino + destination so a
        //    heal-time sweep can tell what the orphan belongs to.
        let intent = self.rpc(
            src,
            RpcOp::MigrateStage,
            24 + wire::name(&intent_name),
            16,
            8,
            (gino, 0, 0),
            |node| {
                let f = node
                    .mux
                    .create(src_root, &intent_name, FileType::Regular, 0o600)?;
                let mut rec = [0u8; 16];
                rec[..8].copy_from_slice(&gino.to_le_bytes());
                rec[8..].copy_from_slice(&(dst as u64).to_le_bytes());
                node.mux.write(f.ino, 0, &rec)?;
                node.mux.fsync(f.ino)?;
                Ok(f.ino)
            },
            |_| 0,
        );
        if let Err(e) = intent {
            ClusterStats::bump(&self.stats.migration_aborts);
            return Err(e);
        }

        // 2. Staging file on the destination.
        let staging = self.rpc(
            dst,
            RpcOp::MigrateStage,
            24 + wire::name(&staging_name),
            0,
            wire::ATTR,
            (gino, 0, 0),
            |node| {
                node.mux
                    .create(dst_root, &staging_name, FileType::Regular, 0o600)
            },
            |_| 0,
        );
        let staging_ino = match staging {
            Ok(a) => a.ino,
            Err(e) => {
                self.abort_migration(gino, src, dst, src_root, dst_root, None);
                return Err(e);
            }
        };
        let abort = |e: VfsError| -> VfsError {
            self.abort_migration(gino, src, dst, src_root, dst_root, Some(staging_ino));
            e
        };

        // 3. Chunked copy with OCC validation: if the source file's
        //    (size, mtime) moved while we copied, re-copy — bounded rounds.
        let chunk = self.cfg.copy_chunk.max(4096);
        let size;
        let mut rounds = 0u32;
        loop {
            let before = self
                .rpc(
                    src,
                    RpcOp::Getattr,
                    8,
                    0,
                    wire::ATTR,
                    (gino, 0, 0),
                    |node| node.mux.getattr(src_local),
                    |_| 0,
                )
                .map_err(&abort)?;
            let mut off = 0u64;
            while off < before.size {
                let want = chunk.min((before.size - off) as usize);
                let data = self
                    .rpc(
                        src,
                        RpcOp::MigratePull,
                        24,
                        0,
                        8,
                        (gino, off, want as u64),
                        |node| {
                            let mut buf = vec![0u8; want];
                            let n = node.mux.read(src_local, off, &mut buf)?;
                            buf.truncate(n);
                            Ok(buf)
                        },
                        |d| d.len() as u64,
                    )
                    .map_err(&abort)?;
                if data.is_empty() {
                    break;
                }
                let n = data.len();
                self.rpc(
                    dst,
                    RpcOp::Write,
                    24,
                    n as u64,
                    8,
                    (gino, off, n as u64),
                    |node| node.mux.write(staging_ino, off, &data),
                    |_| 0,
                )
                .map_err(&abort)?;
                off += n as u64;
            }
            let after = self
                .rpc(
                    src,
                    RpcOp::Getattr,
                    8,
                    0,
                    wire::ATTR,
                    (gino, 0, 0),
                    |node| node.mux.getattr(src_local),
                    |_| 0,
                )
                .map_err(&abort)?;
            if after.size == before.size && after.mtime_ns == before.mtime_ns {
                size = after.size;
                break;
            }
            rounds += 1;
            ClusterStats::bump(&self.stats.migration_retries);
            if rounds > self.cfg.migration_retries {
                return Err(abort(VfsError::Busy));
            }
        }

        // 4. Durable on the destination, then rename staging → final —
        //    both strictly before the routing flip makes it visible.
        self.rpc(
            dst,
            RpcOp::MigrateCommit,
            8,
            0,
            0,
            (gino, 0, size),
            |node| {
                node.mux.fsync(staging_ino)?;
                node.mux
                    .rename(dst_root, &staging_name, dst_root, &final_name)
            },
            |_| 0,
        )
        .map_err(&abort)?;

        // 5. Visible: flip the routing table.
        let old = self
            .files
            .update(&gino, |l| {
                let old = l.clone();
                l.node = dst;
                l.local = staging_ino;
                l.local_parent = dst_root;
                l.local_name = final_name.clone();
                old
            })
            .ok_or(VfsError::Stale)?;
        self.node_load[src].fetch_sub(1, Ordering::Relaxed);
        self.node_load[dst].fetch_add(1, Ordering::Relaxed);

        // 6. Source cleanup — failure here (partition racing the commit)
        //    strands only garbage, which heal-time sweeping removes.
        let cleanup = self.rpc(
            src,
            RpcOp::MigrateAbort,
            8 + wire::name(&old.local_name),
            0,
            0,
            (gino, 0, 0),
            |node| {
                node.mux.unlink(old.local_parent, &old.local_name)?;
                node.mux.unlink(src_root, &intent_name)
            },
            |_| 0,
        );
        if cleanup.is_err() {
            let mut debris = self.debris.lock();
            debris.push(Debris {
                node: src,
                parent: old.local_parent,
                name: old.local_name.clone(),
            });
            debris.push(Debris {
                node: src,
                parent: src_root,
                name: intent_name.clone(),
            });
        }
        ClusterStats::bump(&self.stats.migrations);
        self.nodes[dst].mux.trace().push(
            self.nodes[dst].clock.now_ns(),
            TraceEventKind::MigrationCommit { retries: rounds },
            src as TierId,
            gino,
            0,
            size,
        );
        Ok(size)
    }

    fn abort_migration(
        &self,
        gino: u64,
        src: usize,
        dst: usize,
        src_root: InodeNo,
        dst_root: InodeNo,
        staging: Option<InodeNo>,
    ) {
        let intent_name = format!(".migrate-g{gino}");
        let staging_name = format!(".stage-g{gino}");
        if staging.is_some() {
            let gone = self.rpc(
                dst,
                RpcOp::MigrateAbort,
                8 + wire::name(&staging_name),
                0,
                0,
                (gino, 0, 0),
                |node| node.mux.unlink(dst_root, &staging_name),
                |_| 0,
            );
            if gone.is_err() {
                self.debris.lock().push(Debris {
                    node: dst,
                    parent: dst_root,
                    name: staging_name,
                });
            }
        }
        let gone = self.rpc(
            src,
            RpcOp::MigrateAbort,
            8 + wire::name(&intent_name),
            0,
            0,
            (gino, 0, 0),
            |node| node.mux.unlink(src_root, &intent_name),
            |_| 0,
        );
        if gone.is_err() {
            self.debris.lock().push(Debris {
                node: src,
                parent: src_root,
                name: intent_name,
            });
        }
        ClusterStats::bump(&self.stats.migration_aborts);
        self.nodes[src].mux.trace().push(
            self.nodes[src].clock.now_ns(),
            TraceEventKind::MigrationAbort { partial: false },
            dst as TierId,
            gino,
            0,
            0,
        );
    }

    // ---- namespace helpers ---------------------------------------------

    fn entity(&self, gino: u64) -> VfsResult<(usize, InodeNo, FileType)> {
        if gino == ROOT_INO {
            return Ok((usize::MAX, ROOT_INO, FileType::Directory));
        }
        if let Some(loc) = self.files.get(&gino) {
            return Ok((loc.node, loc.local, FileType::Regular));
        }
        if let Some(d) = self.dirs.lock().get(&gino) {
            return Ok((d.node, d.local, FileType::Directory));
        }
        Err(VfsError::NotFound)
    }

    fn synthesize_root(&self) -> FileAttr {
        let mut a = FileAttr::new(ROOT_INO, FileType::Directory, 0o755, 0);
        a.nlink = 2;
        a
    }
}

impl FileSystem for ClusterMux {
    fn fs_name(&self) -> &str {
        "cluster"
    }

    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        let child = {
            let dirs = self.dirs.lock();
            let p = dirs.get(&parent).ok_or(VfsError::NotFound)?;
            *p.children.get(name).ok_or(VfsError::NotFound)?
        };
        let mut attr = self.getattr(child.gino)?;
        attr.ino = child.gino;
        Ok(attr)
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        if ino == ROOT_INO {
            return Ok(self.synthesize_root());
        }
        let (node, local, _) = self.entity(ino)?;
        let mut attr = self.rpc(
            node,
            RpcOp::Getattr,
            8,
            0,
            wire::ATTR,
            (ino, 0, 0),
            |n| n.mux.getattr(local),
            |_| 0,
        )?;
        attr.ino = ino;
        Ok(attr)
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        if ino == ROOT_INO {
            return Ok(self.synthesize_root());
        }
        let (node, local, _) = self.entity(ino)?;
        let mut attr = self.rpc(
            node,
            RpcOp::Setattr,
            8 + 48,
            0,
            wire::ATTR,
            (ino, 0, 0),
            |n| n.mux.setattr(local, set),
            |_| 0,
        )?;
        attr.ino = ino;
        Ok(attr)
    }

    fn create(
        &self,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        if name.is_empty() {
            return Err(VfsError::InvalidArgument("empty name".into()));
        }
        let mut dirs = self.dirs.lock();
        let pinfo = dirs.get(&parent).ok_or(VfsError::NotFound)?;
        if pinfo.children.contains_key(name) {
            return Err(VfsError::Exists);
        }
        // Directory affinity: top-level entries hash (two-choice); deeper
        // entries stay on their directory's node.
        let node = if parent == ROOT_INO {
            self.place(name)?
        } else {
            pinfo.node
        };
        let local_parent = if parent == ROOT_INO {
            self.nodes[node].mux.root_ino()
        } else {
            pinfo.local
        };
        let gino = self.next_gino.fetch_add(1, Ordering::Relaxed);
        // Backing objects are named by gino — the cluster table owns the
        // user-visible name, so renames and migrations never collide.
        let local_name = match kind {
            FileType::Directory => format!("d{gino}"),
            _ => format!("g{gino}"),
        };
        let attr = self.rpc(
            node,
            RpcOp::Create,
            13 + wire::name(name),
            0,
            wire::ATTR,
            (gino, 0, 0),
            |n| n.mux.create(local_parent, &local_name, kind, mode),
            |_| 0,
        )?;
        match kind {
            FileType::Directory => {
                dirs.insert(
                    gino,
                    DirInfo {
                        node,
                        local: attr.ino,
                        children: HashMap::new(),
                    },
                );
            }
            _ => {
                self.files.insert(
                    gino,
                    FileLoc {
                        node,
                        local: attr.ino,
                        local_parent,
                        local_name,
                    },
                );
            }
        }
        dirs.get_mut(&parent)
            .expect("parent vanished under the namespace lock")
            .children
            .insert(name.to_string(), Child { gino, kind });
        self.node_load[node].fetch_add(1, Ordering::Relaxed);
        let mut out = attr;
        out.ino = gino;
        Ok(out)
    }

    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        let mut dirs = self.dirs.lock();
        let pinfo = dirs.get(&parent).ok_or(VfsError::NotFound)?;
        let child = *pinfo.children.get(name).ok_or(VfsError::NotFound)?;
        match child.kind {
            FileType::Directory => {
                let d = dirs.get(&child.gino).ok_or(VfsError::NotFound)?;
                if !d.children.is_empty() {
                    return Err(VfsError::NotEmpty);
                }
                let (node, local_parent) = (
                    d.node,
                    if parent == ROOT_INO {
                        self.nodes[d.node].mux.root_ino()
                    } else {
                        dirs.get(&parent).unwrap().local
                    },
                );
                let backing = format!("d{}", child.gino);
                self.rpc(
                    node,
                    RpcOp::Unlink,
                    8 + wire::name(name),
                    0,
                    0,
                    (child.gino, 0, 0),
                    |n| n.mux.unlink(local_parent, &backing),
                    |_| 0,
                )?;
                dirs.remove(&child.gino);
                self.node_load[node].fetch_sub(1, Ordering::Relaxed);
            }
            _ => {
                let loc = self.file_loc(child.gino)?;
                self.rpc(
                    loc.node,
                    RpcOp::Unlink,
                    8 + wire::name(name),
                    0,
                    0,
                    (child.gino, 0, 0),
                    |n| n.mux.unlink(loc.local_parent, &loc.local_name),
                    |_| 0,
                )?;
                self.files.remove(&child.gino);
                self.node_load[loc.node].fetch_sub(1, Ordering::Relaxed);
            }
        }
        dirs.get_mut(&parent).unwrap().children.remove(name);
        Ok(())
    }

    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        if new_name.is_empty() {
            return Err(VfsError::InvalidArgument("empty name".into()));
        }
        let mut dirs = self.dirs.lock();
        let child = *dirs
            .get(&parent)
            .ok_or(VfsError::NotFound)?
            .children
            .get(name)
            .ok_or(VfsError::NotFound)?;
        let np = dirs.get(&new_parent).ok_or(VfsError::NotFound)?;
        if np.children.contains_key(new_name) {
            return Err(VfsError::Exists);
        }
        // The name lives in the cluster table; the owner is charged a
        // metadata round-trip but its backing objects keep their names.
        let owner = match child.kind {
            FileType::Directory => dirs.get(&child.gino).ok_or(VfsError::NotFound)?.node,
            _ => self.file_loc(child.gino)?.node,
        };
        self.rpc(
            owner,
            RpcOp::Rename,
            16 + wire::name(name) + wire::name(new_name),
            0,
            0,
            (child.gino, 0, 0),
            |_| Ok(()),
            |_| 0,
        )?;
        dirs.get_mut(&parent).unwrap().children.remove(name);
        dirs.get_mut(&new_parent)
            .unwrap()
            .children
            .insert(new_name.to_string(), child);
        Ok(())
    }

    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        let (listing, fanout): (Vec<DirEntry>, Vec<(usize, InodeNo)>) = {
            let dirs = self.dirs.lock();
            let d = dirs.get(&ino).ok_or(VfsError::NotFound)?;
            let listing = d
                .children
                .iter()
                .map(|(name, c)| DirEntry {
                    name: name.clone(),
                    ino: c.gino,
                    kind: c.kind,
                })
                .collect();
            let fanout = if ino == ROOT_INO {
                (0..self.nodes.len())
                    .map(|i| (i, self.nodes[i].mux.root_ino()))
                    .collect()
            } else {
                vec![(d.node, d.local)]
            };
            (listing, fanout)
        };
        // Charge the owning shard(s) a real listing; the authoritative
        // entries come from the cluster table.
        let per_entry: u64 = listing.iter().map(|e| 9 + wire::name(&e.name)).sum();
        let reachable = fanout.len();
        let mut served = 0usize;
        for (node, local) in fanout {
            let r = self.rpc(
                node,
                RpcOp::Readdir,
                8,
                0,
                4,
                (ino, 0, 0),
                |n| n.mux.readdir(local),
                |_| per_entry / reachable.max(1) as u64,
            );
            match r {
                Ok(_) => served += 1,
                Err(e) if ino != ROOT_INO => return Err(e),
                Err(_) => {}
            }
        }
        if served == 0 && ino == ROOT_INO && reachable > 0 {
            return Err(VfsError::Io("no shard reachable for root listing".into()));
        }
        let mut out = listing;
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        let loc = self.file_loc(ino)?;
        self.rpc(
            loc.node,
            RpcOp::Read,
            24,
            0,
            8,
            (ino, off, buf.len() as u64),
            |n| n.mux.read(loc.local, off, buf),
            |n| *n as u64,
        )
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        let loc = self.file_loc(ino)?;
        self.rpc(
            loc.node,
            RpcOp::Write,
            24,
            data.len() as u64,
            8,
            (ino, off, data.len() as u64),
            |n| n.mux.write(loc.local, off, data),
            |_| 0,
        )
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        let loc = self.file_loc(ino)?;
        self.rpc(
            loc.node,
            RpcOp::PunchHole,
            24,
            0,
            0,
            (ino, off, len),
            |n| n.mux.punch_hole(loc.local, off, len),
            |_| 0,
        )
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        let loc = self.file_loc(ino)?;
        self.rpc(
            loc.node,
            RpcOp::NextData,
            16,
            0,
            17,
            (ino, off, 0),
            |n| n.mux.next_data(loc.local, off),
            |_| 0,
        )
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        let loc = self.file_loc(ino)?;
        self.rpc(
            loc.node,
            RpcOp::Fsync,
            8,
            0,
            0,
            (ino, 0, 0),
            |n| n.mux.fsync(loc.local),
            |_| 0,
        )
    }

    fn sync(&self) -> VfsResult<()> {
        // Node by node: the ordering `sync` promises holds within each
        // node, whose Mux keeps it, and not across nodes.
        let mut first_err = None;
        for i in 0..self.nodes.len() {
            let r = self.rpc(i, RpcOp::Sync, 0, 0, 0, (0, 0, 0), |n| n.mux.sync(), |_| 0);
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let mut total = StatFs {
            total_bytes: 0,
            free_bytes: 0,
            inodes: 0,
            block_size: 0,
        };
        for i in 0..self.nodes.len() {
            let s = self.rpc(
                i,
                RpcOp::Statfs,
                0,
                0,
                28,
                (0, 0, 0),
                |n| n.mux.statfs(),
                |_| 0,
            )?;
            total.total_bytes += s.total_bytes;
            total.free_bytes += s.free_bytes;
            total.inodes += s.inodes;
            total.block_size = total.block_size.max(s.block_size);
        }
        Ok(total)
    }
}
