//! The reference kernel and the calibration it drives.
//!
//! Wall-clock time on a shared host drifts from run to run (CPU steal,
//! frequency changes, a neighbour's cache traffic). The kernel below does a
//! fixed amount of the same kinds of work the engine does — hashing,
//! sorting, small-string allocation and dependent loads over a few MB — and
//! calls no engine code. It is timed between slices of a run; a slice's
//! times are scaled by `NOMINAL_REF_MS / (mean of the kernel times on either
//! side of it)`, which reports them at *reference speed*: as if the host ran
//! the kernel in exactly `NOMINAL_REF_MS`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel time that defines reference speed, ms. Close to what the
/// kernel takes on the 2-vCPU development container, so calibrated figures
/// there read close to raw ones.
pub const NOMINAL_REF_MS: f64 = 0.125;

/// Timed kernel runs per calibration point, after one untimed run. The
/// engine's slice leaves the kernel's data cold: the first run after it
/// takes several times the floor and the next few decay towards it. The
/// point is the fastest timed run, which follows the host's speed far
/// better than a median does.
const RUNS_PER_POINT: usize = 4;

/// Entries of the pointer-chasing array (u32 each: 4 MiB).
const CHASE_LEN: usize = 1 << 20;
/// Dependent loads per kernel run.
const CHASE_STEPS: usize = 2_000;
/// Keys sorted per kernel run.
const SORT_LEN: usize = 1_024;
/// Small strings allocated and hashed per kernel run.
const STRINGS: usize = 256;

/// xorshift64: the kernel's data and the benchmark's read keys, the same
/// in every process for a seed.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The reference kernel with its data built once.
pub struct Kernel {
    /// A single cycle through all `CHASE_LEN` slots (Sattolo's shuffle), so
    /// every load depends on the previous one and the walk covers the array.
    next: Vec<u32>,
    sort_src: Vec<u64>,
    samples_ms: Vec<f64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut perm: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            let j = (xorshift(&mut s) % i as u64) as usize;
            perm.swap(i, j);
        }
        let mut next = vec![0u32; CHASE_LEN];
        for i in 0..CHASE_LEN {
            next[perm[i] as usize] = perm[(i + 1) % CHASE_LEN];
        }
        let sort_src = (0..SORT_LEN).map(|_| xorshift(&mut s)).collect();
        let k = Kernel {
            next,
            sort_src,
            samples_ms: Vec::new(),
        };
        // Warm the caches and the allocator once; not a sample.
        black_box(k.run_once());
        k
    }

    fn run_once(&self) -> u64 {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        let mut keys = self.sort_src.clone();
        keys.sort_unstable();
        let mut map: HashMap<String, usize> = HashMap::with_capacity(STRINGS);
        for (i, k) in keys.iter().take(STRINGS).enumerate() {
            map.insert(format!("S{:05}", k % 100_000), i);
        }
        at as u64 ^ keys[SORT_LEN / 2] ^ map.len() as u64
    }

    /// Time one calibration point, ms.
    pub fn point(&mut self) -> f64 {
        black_box(self.run_once());
        let mut best = f64::INFINITY;
        for _ in 0..RUNS_PER_POINT {
            let t = Instant::now();
            black_box(self.run_once());
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        self.samples_ms.push(best);
        best
    }

    /// The factor that brings times measured between two points to
    /// reference speed.
    pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
        NOMINAL_REF_MS / ((before_ms + after_ms) / 2.0)
    }

    /// Median of every point taken so far, ms (`bench.calib_ms`).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }
}
