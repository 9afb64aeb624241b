//! Seeded byte-mutation engine.
//!
//! Mutations are cheap, structural and deterministic for a seed: the goal
//! is not coverage-guided search (there is no instrumentation offline) but
//! a dense sweep of the corruption classes analog media and hostile
//! curators actually produce — truncated tails, spliced regions, flipped
//! bits, lying length fields (binary or decimal) — applied to
//! *structurally valid* corpus inputs so mutants reach deep parser states
//! instead of dying on the magic check.

use ule_raster::rng::SplitMix64;

/// Maximum bytes a single mutation may insert — keeps mutant growth (and
/// therefore per-iteration cost) bounded over long campaigns.
const MAX_INSERT: usize = 64;

/// A deterministic mutator. Every mutant is a pure function of the seed
/// and the call sequence, so campaigns replay exactly.
pub struct Mutator {
    rng: SplitMix64,
}

impl Mutator {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// Next raw 64 bits (exposed so targets can derive auxiliary choices —
    /// scheme ids, start levels — from the same deterministic stream).
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.next_below(n)
    }

    /// Produce one mutant of `base`: 1–3 stacked mutations, optionally
    /// re-stamping `magic` at offset 0 afterwards (half the time, so both
    /// the "valid magic, corrupt body" and "corrupt magic" spaces are
    /// explored).
    pub fn mutate(&mut self, base: &[u8], magic: Option<&[u8]>) -> Vec<u8> {
        let mut out = base.to_vec();
        let rounds = 1 + self.below(3);
        for _ in 0..rounds {
            self.mutate_once(&mut out);
        }
        if let Some(magic) = magic {
            if self.below(2) == 0 {
                if out.len() < magic.len() {
                    out.resize(magic.len(), 0);
                }
                out[..magic.len()].copy_from_slice(magic);
            }
        }
        out
    }

    fn mutate_once(&mut self, buf: &mut Vec<u8>) {
        if buf.is_empty() {
            buf.extend((0..1 + self.below(MAX_INSERT)).map(|_| self.rng.next_u64() as u8));
            return;
        }
        match self.below(9) {
            // Bit flip.
            0 => {
                let i = self.below(buf.len());
                buf[i] ^= 1 << self.below(8);
            }
            // Overwrite one byte with an interesting value.
            1 => {
                let i = self.below(buf.len());
                const INTERESTING: [u8; 8] = [0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF, b'\n', b' '];
                buf[i] = INTERESTING[self.below(INTERESTING.len())];
            }
            // Truncate the tail.
            2 => {
                let keep = self.below(buf.len());
                buf.truncate(keep);
            }
            // Drop a prefix (shifts every offset the parser relies on).
            3 => {
                let drop = 1 + self.below(buf.len());
                buf.drain(..drop);
            }
            // Splice: copy a random span over another random position.
            4 => {
                let len = 1 + self.below(buf.len().min(MAX_INSERT));
                let src = self.below(buf.len() - len + 1);
                let dst = self.below(buf.len() - len + 1);
                let span = buf[src..src + len].to_vec();
                buf[dst..dst + len].copy_from_slice(&span);
            }
            // Insert random bytes.
            5 => {
                let at = self.below(buf.len() + 1);
                let n = 1 + self.below(MAX_INSERT);
                let bytes: Vec<u8> = (0..n).map(|_| self.rng.next_u64() as u8).collect();
                buf.splice(at..at, bytes);
            }
            // Corrupt a little-endian length field: overwrite 2/4/8 bytes
            // at a random offset with an extreme value — the classic
            // "length field points past the stream" attack.
            6 => {
                let width = [2usize, 4, 8][self.below(3)];
                if buf.len() >= width {
                    let at = self.below(buf.len() - width + 1);
                    let v: u64 = match self.below(4) {
                        0 => 0,
                        1 => u64::MAX,
                        2 => buf.len() as u64 + 1 + self.below(1 << 16) as u64,
                        _ => self.rng.next_u64(),
                    };
                    buf[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                }
            }
            // Corrupt a decimal count: replace a run of ASCII digits with
            // an extreme number — the length-field attack on text
            // formats (catalog counts and ranges, manifest lines).
            7 => {
                let runs = digit_runs(buf);
                if !runs.is_empty() {
                    let (start, end) = runs[self.below(runs.len())];
                    const EXTREME: [u64; 4] = [0, 1 << 32, 1_000_000_000_000, u64::MAX];
                    let v = EXTREME[self.below(EXTREME.len())];
                    buf.splice(start..end, v.to_string().into_bytes());
                }
            }
            // Zero a span (simulates a blanked region of medium).
            _ => {
                let len = 1 + self.below(buf.len().min(MAX_INSERT));
                let at = self.below(buf.len() - len + 1);
                buf[at..at + len].fill(0);
            }
        }
    }
}

/// `(start, end)` of every maximal run of ASCII digits in `buf`.
fn digit_runs(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, b) in buf.iter().enumerate() {
        match (b.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s, buf.len()));
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let a: Vec<Vec<u8>> = {
            let mut m = Mutator::new(7);
            (0..50).map(|_| m.mutate(&base, None)).collect()
        };
        let b: Vec<Vec<u8>> = {
            let mut m = Mutator::new(7);
            (0..50).map(|_| m.mutate(&base, None)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn decimal_counts_are_rewritten_to_extremes_deterministically() {
        let base = b"segments: 2\nchunk: 512\n".to_vec();
        let run = |seed| {
            let mut m = Mutator::new(seed);
            (0..2000)
                .map(|_| {
                    let mut buf = base.clone();
                    m.mutate_once(&mut buf);
                    buf
                })
                .collect::<Vec<_>>()
        };
        let mutants = run(5);
        assert_eq!(mutants, run(5), "deterministic for a seed");
        for extreme in ["0", "4294967296", "1000000000000", "18446744073709551615"] {
            for line in ["segments: {}\nchunk: 512\n", "segments: 2\nchunk: {}\n"] {
                let want = line.replace("{}", extreme).into_bytes();
                assert!(mutants.contains(&want), "never produced {want:?}");
            }
        }
    }

    #[test]
    fn magic_is_restamped_sometimes_but_not_always() {
        let base = b"ULEAxxxxxxxxxxxxxxxxxxxxxxxx".to_vec();
        let mut m = Mutator::new(11);
        let mutants: Vec<Vec<u8>> = (0..200).map(|_| m.mutate(&base, Some(b"ULEA"))).collect();
        let with_magic = mutants.iter().filter(|b| b.starts_with(b"ULEA")).count();
        assert!(with_magic > 40, "magic preserved on ~half: {with_magic}");
        assert!(with_magic < 200, "magic also corrupted: {with_magic}");
    }

    #[test]
    fn mutants_stay_bounded() {
        let base = vec![0u8; 256];
        let mut m = Mutator::new(3);
        let mut cur = base;
        for _ in 0..1000 {
            cur = m.mutate(&cur, None);
            assert!(cur.len() <= 256 + 1000 * MAX_INSERT);
        }
    }

    #[test]
    fn empty_base_grows() {
        let mut m = Mutator::new(1);
        let out = m.mutate(&[], None);
        assert!(!out.is_empty());
    }
}
