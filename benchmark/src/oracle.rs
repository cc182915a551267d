//! The correctness oracle: a seeded generator and a flat reference model.
//!
//! File contents are a pure function of (file id, block, write version).
//! The model keeps one version number per block and nothing else, so the
//! expected bytes of any read can be recomputed without storing data.
//! Version 0 is a hole and reads as zeros.

pub const BLOCK: u64 = 4096;
const WORDS: usize = BLOCK as usize / 8;

/// splitmix64. The benchmark owns its generator so that inputs depend on
/// `--seed` alone and not on which `rand` the repository links.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn block_key(file: u32, block: u64, ver: u32) -> u64 {
    mix((u64::from(file) << 44) ^ (block << 20) ^ u64::from(ver) ^ 0x6d75_7862_656e_6368)
}

fn word(key: u64, w: usize) -> u64 {
    (key ^ w as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// Writes the bytes of (file, block, ver) from in-block offset `at` into
/// `out`; `at + out.len()` must not pass the block end.
pub fn content(file: u32, block: u64, ver: u32, at: usize, out: &mut [u8]) {
    if ver == 0 {
        out.fill(0);
        return;
    }
    let key = block_key(file, block, ver);
    if at == 0 && out.len() == BLOCK as usize {
        for (w, chunk) in out.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&word(key, w).to_le_bytes());
        }
        return;
    }
    for (i, b) in out.iter_mut().enumerate() {
        let pos = at + i;
        debug_assert!(pos / 8 < WORDS);
        *b = word(key, pos / 8).to_le_bytes()[pos % 8];
    }
}

/// One file of the reference model.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    pub size: u64,
    /// Write version per block; 0 = never written.
    pub vers: Vec<u32>,
}

/// The flat reference model of every file a workload touches.
#[derive(Debug, Default)]
pub struct Model {
    pub files: Vec<FileModel>,
    scratch: Vec<u8>,
    /// `selftest` sets this: the next compared read has one expected byte
    /// flipped, which must surface as exactly one failure.
    pub flip_next: bool,
}

impl Model {
    pub fn with_files(n: usize) -> Self {
        Model {
            files: vec![FileModel::default(); n],
            ..Default::default()
        }
    }

    /// Bytes users could read back: the sum of file sizes.
    pub fn live_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Records a block-aligned write and fills `buf` with its payload.
    pub fn write(&mut self, file: u32, off: u64, buf: &mut [u8]) {
        assert!(off.is_multiple_of(BLOCK) && (buf.len() as u64).is_multiple_of(BLOCK));
        let f = &mut self.files[file as usize];
        let first = off / BLOCK;
        let n = buf.len() as u64 / BLOCK;
        if f.vers.len() < (first + n) as usize {
            f.vers.resize((first + n) as usize, 0);
        }
        for (i, chunk) in buf.chunks_exact_mut(BLOCK as usize).enumerate() {
            let b = first + i as u64;
            f.vers[b as usize] += 1;
            content(file, b, f.vers[b as usize], 0, chunk);
        }
        f.size = f.size.max(off + buf.len() as u64);
    }

    /// Records a truncate to zero.
    pub fn truncate(&mut self, file: u32) {
        let f = &mut self.files[file as usize];
        f.size = 0;
        f.vers.clear();
    }

    /// How many bytes a read of `len` at `off` must return.
    pub fn readable(&self, file: u32, off: u64, len: usize) -> usize {
        let size = self.files[file as usize].size;
        (size.saturating_sub(off)).min(len as u64) as usize
    }

    /// Compares what a read returned with the model. `got` is the whole
    /// caller buffer and `n` the byte count the file system reported.
    pub fn check_read(&mut self, file: u32, off: u64, got: &[u8], n: usize) -> bool {
        let want = self.readable(file, off, got.len());
        if n != want {
            return false;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(want, 0);
        let f = &self.files[file as usize];
        let mut done = 0usize;
        while done < want {
            let pos = off + done as u64;
            let block = pos / BLOCK;
            let at = (pos % BLOCK) as usize;
            let take = (BLOCK as usize - at).min(want - done);
            let ver = f.vers.get(block as usize).copied().unwrap_or(0);
            content(file, block, ver, at, &mut scratch[done..done + take]);
            done += take;
        }
        if self.flip_next && want > 0 {
            scratch[0] ^= 0x01;
            self.flip_next = false;
        }
        let same = scratch[..want] == got[..want];
        self.scratch = scratch;
        same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_content_matches_full_block() {
        let mut full = vec![0u8; BLOCK as usize];
        content(3, 9, 2, 0, &mut full);
        let mut part = [0u8; 13];
        content(3, 9, 2, 1021, &mut part);
        assert_eq!(&full[1021..1034], &part);
    }

    #[test]
    fn model_round_trips_and_flip_is_seen_once() {
        let mut m = Model::with_files(1);
        let mut buf = vec![0u8; 2 * BLOCK as usize];
        m.write(0, BLOCK, &mut buf);
        let mut got = vec![0u8; 3 * BLOCK as usize];
        got[BLOCK as usize..].copy_from_slice(&buf);
        assert!(m.check_read(0, 0, &got, got.len()));
        m.flip_next = true;
        assert!(!m.check_read(0, 0, &got, got.len()));
        assert!(m.check_read(0, 0, &got, got.len()));
    }
}
