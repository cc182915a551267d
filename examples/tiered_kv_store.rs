//! A log-structured key-value store running on Mux — the kind of
//! application the paper's introduction motivates: hot keys end up served
//! from persistent memory, the cold bulk sinks to disk, and the
//! application never thinks about tiers.
//!
//! The store appends values to segment files and keeps an in-memory index
//! `key → (segment, offset, len)`. Mux's LRU policy + migration passes do
//! the data placement.
//!
//! ```text
//! cargo run --release --example tiered_kv_store
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use mux::Mux;
use tvfs::{FileSystem, FileType, ROOT_INO};
use workloads::Zipfian;

struct KvStore {
    fs: Arc<Mux>,
    index: HashMap<u64, (u64, u64, u32)>, // key → (segment ino, off, len)
    segment: u64,
    segment_off: u64,
    segment_no: u32,
    dir: u64,
}

const SEGMENT_BYTES: u64 = 4 << 20;

impl KvStore {
    fn open(fs: Arc<Mux>) -> Self {
        let dir = fs
            .create(ROOT_INO, "kv", FileType::Directory, 0o755)
            .unwrap();
        let seg = fs
            .create(dir.ino, "segment-0000", FileType::Regular, 0o644)
            .unwrap();
        KvStore {
            fs,
            index: HashMap::new(),
            segment: seg.ino,
            segment_off: 0,
            segment_no: 0,
            dir: dir.ino,
        }
    }

    fn put(&mut self, key: u64, value: &[u8]) {
        if self.segment_off + value.len() as u64 > SEGMENT_BYTES {
            self.fs.fsync(self.segment).unwrap();
            self.segment_no += 1;
            let seg = self
                .fs
                .create(
                    self.dir,
                    &format!("segment-{:04}", self.segment_no),
                    FileType::Regular,
                    0o644,
                )
                .unwrap();
            self.segment = seg.ino;
            self.segment_off = 0;
        }
        self.fs
            .write(self.segment, self.segment_off, value)
            .unwrap();
        self.index
            .insert(key, (self.segment, self.segment_off, value.len() as u32));
        self.segment_off += value.len() as u64;
    }

    fn get(&self, key: u64) -> Option<Vec<u8>> {
        let &(seg, off, len) = self.index.get(&key)?;
        let mut buf = vec![0u8; len as usize];
        let n = self.fs.read(seg, off, &mut buf).unwrap();
        buf.truncate(n);
        Some(buf)
    }
}

fn main() {
    let (fs, clock, devices) = mux_repro::default_hierarchy(
        16 << 20,  // deliberately small PM: tiering pressure
        128 << 20, // SSD
        1 << 30,   // HDD
    );
    let mut kv = KvStore::open(Arc::clone(&fs));

    println!("== tiered key-value store on Mux ==\n");
    // Load 4096 keys of 4 KiB each = 16 MiB of values: more than PM holds.
    let n_keys = 4096u64;
    for key in 0..n_keys {
        let value = vec![(key % 251) as u8; 4096];
        kv.put(key, &value);
    }
    println!("loaded {n_keys} keys ({} MiB)", (n_keys * 4096) >> 20);

    // Skewed reads: a few keys are hot.
    let mut zipf = Zipfian::new(n_keys, 0.99, 7);
    for _ in 0..20_000 {
        let key = zipf.next_item();
        let v = kv.get(key).unwrap();
        assert_eq!(v[0], (key % 251) as u8);
    }
    // Let the policy rebalance: hot segments promote, cold demote.
    let summary = fs.run_policy_migrations();
    println!(
        "policy migration pass: {} steps planned, {} executed, {} blocks moved",
        summary.planned, summary.executed, summary.blocks_moved
    );

    // Measure hot-key read latency after convergence.
    let t0 = clock.now_ns();
    let probes = 5_000;
    for _ in 0..probes {
        let key = zipf.next_item();
        kv.get(key).unwrap();
    }
    let avg_ns = (clock.now_ns() - t0) / probes;
    println!("avg read latency after rebalancing: {avg_ns} ns (virtual)");

    for (i, name) in ["PM", "SSD", "HDD"].iter().enumerate() {
        let s = devices[i].stats().snapshot();
        println!(
            "{name}: {} MiB written, {} MiB read",
            s.bytes_written >> 20,
            s.bytes_read >> 20
        );
    }
    let occ = fs.occ_stats().snapshot();
    println!(
        "migrations: {} runs, {} blocks moved, {} conflicts, {} lock fallbacks",
        occ.0, occ.4, occ.1, occ.3
    );
}
