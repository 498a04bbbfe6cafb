//! Property tests for the directory coherence protocol.
//!
//! Random access sequences from random processors must never violate the
//! directory invariants (single Modified owner, sharer sets consistent with
//! cache contents), and basic protocol economics (hits after fetch,
//! determinism) must hold on every path.

use proptest::prelude::*;
use proteus::coherence::{make_addr, Access};
use proteus::{
    CacheConfig, CoherenceCosts, CoherenceSystem, Cycles, Network, NetworkConfig, ProcId,
};

const PROCS: u32 = 6;

fn system() -> (CoherenceSystem, Network) {
    // A tiny cache so evictions occur within short random sequences.
    let cache = CacheConfig {
        size_bytes: 512,
        line_bytes: 16,
        ways: 2,
    };
    (
        CoherenceSystem::new(PROCS, cache, CoherenceCosts::default()),
        Network::new(PROCS, NetworkConfig::default()),
    )
}

#[derive(Clone, Debug)]
struct Op {
    proc: u32,
    home: u32,
    offset: u64,
    write: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..PROCS, 0..PROCS, 0u64..64, any::<bool>()).prop_map(|(proc, home, slot, write)| Op {
        proc,
        home,
        offset: slot * 16,
        write,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn invariants_hold_under_random_traffic(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let (mut sys, mut net) = system();
        let mut t = Cycles::ZERO;
        for op in &ops {
            let kind = if op.write { Access::Write } else { Access::Read };
            let addr = make_addr(ProcId(op.home), op.offset);
            let out = sys.access(ProcId(op.proc), addr, kind, &mut net, t);
            prop_assert!(out.latency > Cycles::ZERO);
            t = t + out.latency + Cycles(10);
            sys.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn access_after_fetch_hits(proc in 0..PROCS, home in 0..PROCS, slot in 0u64..32, write in any::<bool>()) {
        let (mut sys, mut net) = system();
        let kind = if write { Access::Write } else { Access::Read };
        let addr = make_addr(ProcId(home), slot * 16);
        let first = sys.access(ProcId(proc), addr, kind, &mut net, Cycles::ZERO);
        prop_assert!(!first.hit);
        let second = sys.access(ProcId(proc), addr, kind, &mut net, first.latency);
        prop_assert!(second.hit, "immediate re-access must hit");
        // A hit generates no traffic.
        let before = net.traffic().clone();
        sys.access(ProcId(proc), addr, kind, &mut net, Cycles(10_000));
        prop_assert_eq!(net.traffic(), &before);
    }

    #[test]
    fn writer_invalidates_every_reader(readers in proptest::collection::btree_set(0..PROCS, 1..5), slot in 0u64..16) {
        let (mut sys, mut net) = system();
        let addr = make_addr(ProcId(0), slot * 16);
        for &r in &readers {
            sys.access(ProcId(r), addr, Access::Read, &mut net, Cycles::ZERO);
        }
        let writer = ProcId(5);
        sys.access(writer, addr, Access::Write, &mut net, Cycles(1_000));
        sys.check_invariants().map_err(TestCaseError::fail)?;
        // After the write, every previous reader misses again.
        for &r in &readers {
            if ProcId(r) != writer {
                let out = sys.access(ProcId(r), addr, Access::Read, &mut net, Cycles(2_000));
                prop_assert!(!out.hit, "reader P{r} must have been invalidated");
                break; // only the first re-reader is guaranteed to miss (it resharess the line)
            }
        }
    }

    #[test]
    fn replay_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let run = |ops: &[Op]| {
            let (mut sys, mut net) = system();
            let mut latencies = Vec::new();
            let mut t = Cycles::ZERO;
            for op in ops {
                let kind = if op.write { Access::Write } else { Access::Read };
                let addr = make_addr(ProcId(op.home), op.offset);
                let out = sys.access(ProcId(op.proc), addr, kind, &mut net, t);
                t += out.latency;
                latencies.push(out.latency.get());
            }
            (latencies, net.traffic().clone())
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }

    #[test]
    fn traffic_only_grows(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let (mut sys, mut net) = system();
        let mut last_words = 0;
        let mut t = Cycles::ZERO;
        for op in &ops {
            let kind = if op.write { Access::Write } else { Access::Read };
            let addr = make_addr(ProcId(op.home), op.offset);
            let out = sys.access(ProcId(op.proc), addr, kind, &mut net, t);
            t += out.latency;
            prop_assert!(net.traffic().words >= last_words);
            last_words = net.traffic().words;
        }
    }

    #[test]
    fn occupancy_never_reorders_time(slot in 0u64..8, n in 2u32..6) {
        // Back-to-back conflicting accesses at the same nominal time queue:
        // each gets a strictly larger completion time.
        let (mut sys, mut net) = system();
        let addr = make_addr(ProcId(0), slot * 16);
        let mut completions = Vec::new();
        for p in 1..=n {
            let out = sys.access(ProcId(p % PROCS), addr, Access::Write, &mut net, Cycles::ZERO);
            completions.push(out.latency.get());
        }
        let mut sorted = completions.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&completions, &sorted, "hot-line transactions serialize");
        prop_assert!(completions.windows(2).all(|w| w[0] < w[1]));
    }
}

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Replay a fixed pseudo-random stream of ~20k accesses on 8 processors with
/// a tiny 2-way cache, issuing each at `at = step * spacing`. Returns the
/// FNV-1a fold of every outcome and every final counter, the summed latency,
/// and the protocol counters.
fn pinned_replay(spacing: u64) -> (u64, u64, proteus::coherence::ProtocolStats) {
    const PROCS: u32 = 8;
    let cache = CacheConfig {
        size_bytes: 256,
        line_bytes: 16,
        ways: 2,
    };
    let mut sys = CoherenceSystem::new(PROCS, cache, CoherenceCosts::default());
    let mut net = Network::new(PROCS, NetworkConfig::default());
    // splitmix64: a fixed stream independent of any crate's RNG.
    let mut state = 0x5eed_0000_c0de_0001u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut fold = Fnv::new();
    let mut total = 0u64;
    for step in 0..20_000u64 {
        let r = next();
        let proc = ProcId((r % u64::from(PROCS)) as u32);
        let kind = if (r >> 8) % 5 < 2 {
            Access::Write
        } else {
            Access::Read
        };
        // A quarter of the accesses go to four hot lines on node 0, so
        // every processor piles onto their sharer sets (LimitLESS traps on
        // the next write); the rest spread over 96 lines per node, far more
        // than the 16-line caches hold (evictions and writebacks).
        let addr = if (r >> 16) % 4 == 0 {
            make_addr(ProcId(0), ((r >> 24) % 4) * 16)
        } else {
            let home = ProcId(((r >> 24) % u64::from(PROCS)) as u32);
            make_addr(home, (r >> 32) % (96 * 16))
        };
        let at = Cycles(step * spacing);
        let out = if (r >> 20) % 3 == 0 {
            let bytes = 1 + (r >> 48) % 48;
            sys.access_range(proc, addr, bytes, kind, &mut net, at)
        } else {
            sys.access(proc, addr, kind, &mut net, at)
        };
        fold.word(out.latency.get());
        fold.word(u64::from(out.hit));
        total += out.latency.get();
        if step % 1_000 == 0 {
            sys.check_invariants().unwrap();
        }
    }
    sys.check_invariants().unwrap();
    let p = sys.stats().clone();
    for w in [
        p.read_misses,
        p.write_misses,
        p.invalidations_sent,
        p.limitless_traps,
        p.owner_forwards,
        p.eviction_writebacks,
    ] {
        fold.word(w);
    }
    let c = sys.aggregate_cache_stats();
    for w in [c.hits, c.misses, c.invalidations_received, c.writebacks] {
        fold.word(w);
    }
    let t = net.traffic();
    for w in [t.messages, t.words, t.word_hops] {
        fold.word(w);
    }
    (fold.0, total, p)
}

/// Pins the oracle's exact replay: any change to a latency, a hit, a
/// protocol counter, a cache counter or the booked traffic moves the fold.
/// The stream exercises every protocol path, asserted below so the pin
/// cannot silently stop covering one.
#[test]
fn replay_matches_pinned_fold() {
    // Accesses issued 7 cycles apart overlap in-flight transactions on the
    // same line; 100k cycles apart they never wait.
    let (fold, overlapped, p) = pinned_replay(7);
    let (_, spaced, _) = pinned_replay(100_000);
    assert!(p.eviction_writebacks > 0, "{p:?}");
    assert!(p.owner_forwards > 0, "{p:?}");
    assert!(p.limitless_traps > 0, "{p:?}");
    assert!(
        overlapped > spaced,
        "occupancy must queue some misses: {overlapped} vs {spaced}"
    );
    assert_eq!(fold, 0x2d2f_30f0_9508_2758);
}
