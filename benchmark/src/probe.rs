//! The host-speed probe. This sandbox's cores change speed for five to ten
//! seconds at a time (neighbours, frequency), which the guest cannot see as
//! steal time: sixty back-to-back repetitions of `read_hot` in one process
//! gave 46 800 to 75 800 ops/s. A run lasts about as long as one such
//! state, so no statistic over its repetitions removes it, and ten raw runs
//! spread 4–23 % between their quartiles, 39 % at worst (README, "Baseline").
//!
//! A fixed kernel that uses nothing of the repository (table look-ups, a
//! hash map, a block copy) is therefore timed in 2 ms slices spread through
//! the measured phase, between ops and never inside a timed span. Its mean
//! slice time over a fixed reference is the host-speed factor of that
//! phase. The raw `wall_*` times are reported as measured; the gated
//! `refwall_*` metrics are the same times divided by the factor, i.e. at
//! the reference host speed, and `workloads.host_speed_factor` is reported
//! beside them.

use std::collections::HashMap;
use std::time::Instant;

/// Slice time at which the factor reads 1.0. It only names the unit:
/// ratios between runs, which is all a comparison uses, do not depend on it.
const REFERENCE_SLICE_NS: f64 = 2_000_000.0;
const ITERATIONS: u64 = 220;

pub struct Probe {
    /// Eight 256-entry tables, looked up bytewise like a sliced checksum:
    /// many independent loads per step, as real code has.
    tables: Vec<[u32; 256]>,
    words: Vec<u64>,
    map: HashMap<u64, u64>,
    from: Vec<u8>,
    to: Vec<u8>,
    state: u64,
    slices: u64,
    total_ns: u64,
}

impl Default for Probe {
    fn default() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let tables = (0..8)
            .map(|_| {
                std::array::from_fn(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u32
                })
            })
            .collect();
        Probe {
            tables,
            words: (0..512).collect(),
            map: (0..50_000).map(|k| (k, k)).collect(),
            from: vec![1; 64 << 10],
            to: vec![0; 64 << 10],
            state: 1,
            slices: 0,
            total_ns: 0,
        }
    }
}

impl Probe {
    /// Times one slice of the kernel.
    pub fn slice(&mut self) {
        let t0 = Instant::now();
        let mut x = self.state;
        for _ in 0..ITERATIONS {
            let mut sum = x as u32;
            for w in self.words.iter() {
                let b = (*w ^ u64::from(sum)).to_le_bytes();
                sum = (0..8).fold(0, |acc, i| acc ^ self.tables[i][b[i] as usize]);
            }
            x = x.rotate_left(7) ^ u64::from(sum);
            self.words[(x % 512) as usize] = x;
            for j in 0..64 {
                *self.map.entry(x.wrapping_add(j) % 50_000).or_insert(0) += x;
            }
            self.from[(x % (64 << 10)) as usize] = x as u8;
            self.to.copy_from_slice(&self.from);
        }
        self.state = std::hint::black_box(x ^ u64::from(self.to[7]));
        self.total_ns += t0.elapsed().as_nanos() as u64;
        self.slices += 1;
    }

    /// Mean slice time over the reference; 1.0 before any slice ran.
    pub fn factor(&self) -> f64 {
        if self.slices == 0 {
            return 1.0;
        }
        self.total_ns as f64 / self.slices as f64 / REFERENCE_SLICE_NS
    }
}
