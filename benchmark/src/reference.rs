//! Host time at a reference speed.
//!
//! On a shared machine, other tenants move this process's speed by tens of
//! percent over minutes, so raw host seconds from two runs minutes apart
//! are not comparable. The benchmark therefore times a fixed reference
//! computation, which is independent of the simulator, before and after
//! every pass. It scales the pass's host time by how far the reference
//! strayed from [`REFERENCE_SECONDS`]. Drift slows the pass and the
//! reference alike and cancels out. A change to the simulator moves only
//! the pass.
//!
//! The mix was chosen by measurement on a 2-vCPU Xeon host: hash-map
//! updates over a few MiB plus an integer loop tracked the simulator's
//! drift best. In four sets of 6–8 runs, timing it before each pass cut the
//! spread (quartile distance over median) of run medians from 0.11 to 0.03
//! and from 0.20 to 0.16 on `counting-mp`, and from 0.28 to 0.10 and from
//! 0.13 to 0.06 on `btree-sm`. A pointer chase over 16 MiB, a plain
//! integer loop, or a map a tenth or seven times the size tracked it worse.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The reference computation's nominal duration. Calibrated host times are
/// in seconds of a host on which [`Reference::seconds`] takes this long,
/// which the 2-vCPU Xeon host it was tuned on roughly does.
pub const REFERENCE_SECONDS: f64 = 0.18;

const KEYS: u64 = 300_000;

/// The reference computation. Its map is allocated once and reused, so its
/// pages stay resident for the whole run and add a constant to
/// `peak_rss_mb`, rather than a peak of their own.
pub struct Reference {
    // A fixed-key hasher, so that every run does the same work.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut map = HashMap::default();
        map.reserve(KEYS as usize);
        Reference { map }
    }
}

impl Reference {
    /// Time one run of the reference computation.
    pub fn seconds(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x1234_5678u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.map.clear();
        for i in 0..1_500_000u64 {
            *self.map.entry(next() % KEYS).or_insert(0) += i;
        }
        let mut acc = 0u64;
        for i in 0..30_000_000u64 {
            acc = acc.wrapping_add(next().wrapping_mul(i));
        }
        black_box((&self.map, acc));
        t.elapsed().as_secs_f64()
    }
}

/// The factor that turns host seconds measured between two reference
/// timings into seconds at the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_SECONDS / (before + after)
}
