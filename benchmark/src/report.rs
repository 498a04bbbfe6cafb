//! Metrics computed from the cells of a pass.
//!
//! Counters are summed over a workload's cells and ratios are formed from
//! the sums, so a workload reads as one machine running its cells in turn.

use migrate_rt::DispatchKind;

use crate::run::CellRun;
use crate::sink::LayerCounts;
use crate::stats::{median, ratio};
use crate::workload::Cell;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// FNV-1a hash of every cell's `bench::metrics_to_json` rendering, in cell
/// order: equal digests mean bit-identical simulated results.
pub fn sim_digest(pass: &[CellRun]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for run in pass {
        let text = bench::metrics_to_json(&run.metrics).render();
        for byte in text.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The modelled end-to-end metrics of one pass: mean throughput per cell,
/// network words per op and mean op latency.
///
/// A capped cell's window runs past its last op to the horizon, so its
/// throughput is taken from the closed loop instead: each requester issues
/// one op, waits for it, thinks, and repeats, giving requesters / (latency
/// + think) ops per cycle.
pub fn modelled(cells: &[Cell], pass: &[CellRun]) -> Vec<Metric> {
    let throughput: Vec<f64> = cells
        .iter()
        .zip(pass)
        .map(|(cell, run)| match cell.cap() {
            None => run.metrics.throughput_per_1000,
            Some(_) => {
                let cycles = run.metrics.mean_op_latency + cell.think().get() as f64;
                ratio(1000.0 * cell.requesters() as f64, cycles)
            }
        })
        .collect();
    let ops: u64 = pass.iter().map(|r| r.metrics.ops).sum();
    let words: u64 = pass.iter().map(|r| r.metrics.message_words).sum();
    let latency: f64 = pass
        .iter()
        .map(|r| r.metrics.mean_op_latency * r.metrics.ops as f64)
        .sum();
    vec![
        metric(
            "sim_ops_per_kcycle",
            "ops/kcycle",
            throughput.iter().sum::<f64>() / throughput.len() as f64,
        ),
        metric(
            "sim_words_per_op",
            "words/op",
            ratio(words as f64, ops as f64),
        ),
        metric(
            "sim_op_latency_cycles",
            "cycles",
            ratio(latency, ops as f64),
        ),
    ]
}

/// Engine event kinds reported one by one.
const EVENT_KINDS: [&str; 6] = [
    "poll",
    "arrive",
    "wake",
    "arrive_seq",
    "timeout",
    "heartbeat_tick",
];

/// Per-layer metrics from traced passes (`traced`), the untraced passes
/// run beside them (`untraced`), and the sink counts of each traced pass
/// (`layers`, merged over its cells).
pub fn per_layer(
    traced: &[Vec<CellRun>],
    untraced: &[Vec<CellRun>],
    layers: &[LayerCounts],
) -> Vec<Metric> {
    let pass = &traced[0];
    let counts = &layers[0];
    let sum = |f: &dyn Fn(&CellRun) -> u64| pass.iter().map(f).sum::<u64>();
    let sumf = |f: &dyn Fn(&CellRun) -> f64| pass.iter().map(f).sum::<f64>();
    let category = |prefix: &str| {
        sum(&|r| {
            r.metrics
                .accounting
                .totals()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, cycles)| cycles)
                .sum()
        })
    };
    let ops = sum(&|r| r.metrics.ops) as f64;
    let per_op = |cycles: u64| ratio(cycles as f64, ops);
    let events = counts.total("engine") as f64;
    let host_s = |passes: &[Vec<CellRun>]| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.iter().map(|r| r.run_s).sum())
            .collect()
    };

    let mut out = vec![
        metric("event.events", "count", events),
        metric(
            "event.peak_depth",
            "count",
            pass.iter().map(|r| r.peak_depth).max().unwrap_or(0) as f64,
        ),
    ];
    for kind in EVENT_KINDS {
        out.push(metric(
            format!("event.{kind}"),
            "count",
            counts.count("engine", kind) as f64,
        ));
    }
    for kind in EVENT_KINDS {
        let ns: Vec<f64> = layers
            .iter()
            .map(|l| l.self_ns.get(kind).copied().unwrap_or(0) as f64)
            .collect();
        out.push(metric(format!("event.self_ns.{kind}"), "ns", median(&ns)));
    }
    let allocs_per_event: Vec<f64> = untraced
        .iter()
        .map(|p| {
            let allocs: u64 = p.iter().map(|r| r.allocs).sum();
            let events: u64 = p.iter().map(|r| r.events).sum();
            ratio(allocs as f64, events as f64)
        })
        .collect();
    out.push(metric(
        "engine.allocs_per_event",
        "allocs/event",
        median(&allocs_per_event),
    ));

    out.extend([
        metric(
            "processor.tasks",
            "count",
            sum(&|r| r.metrics.per_proc.iter().map(|p| p.tasks_served).sum()) as f64,
        ),
        metric(
            "processor.max_queue_depth",
            "count",
            pass.iter()
                .flat_map(|r| r.metrics.per_proc.iter().map(|p| p.max_queue_depth))
                .max()
                .unwrap_or(0) as f64,
        ),
        metric(
            "processor.max_util",
            "ratio",
            pass.iter()
                .map(|r| r.metrics.max_proc_utilization)
                .fold(0.0, f64::max),
        ),
        metric(
            "processor.busy_cycles_per_op",
            "cycles/op",
            per_op(sum(&|r| {
                r.metrics.per_proc.iter().map(|p| p.busy_cycles).sum()
            })),
        ),
        metric(
            "network.messages",
            "count",
            sum(&|r| r.metrics.messages) as f64,
        ),
        metric(
            "network.words",
            "words",
            sum(&|r| r.metrics.message_words) as f64,
        ),
        metric(
            "network.word_hops",
            "words",
            sumf(&|r| r.metrics.load_word_hops_per_10 * r.metrics.window.get() as f64 / 10.0)
                .round(),
        ),
        metric(
            "coherence.hit_rate",
            "ratio",
            sumf(&|r| r.metrics.cache_hit_rate) / pass.len() as f64,
        ),
        metric("coherence.read_misses", "count", counts.read_misses as f64),
        metric(
            "coherence.write_misses",
            "count",
            counts.write_misses as f64,
        ),
        metric(
            "coherence.misses_per_event",
            "misses/event",
            ratio((counts.read_misses + counts.write_misses) as f64, events),
        ),
        metric(
            "coherence.wait_cycles_read",
            "cycles",
            counts.wait_read as f64,
        ),
        metric(
            "coherence.wait_cycles_write",
            "cycles",
            counts.wait_write as f64,
        ),
        metric(
            "sim.memory_stall_per_op",
            "cycles/op",
            per_op(category("memory_stall")),
        ),
    ]);

    for kind in DispatchKind::ALL {
        out.push(metric(
            format!("runtime.dispatch.{}", kind.label()),
            "count",
            sum(&|r| r.metrics.dispatch.count(*kind)) as f64,
        ));
    }
    let charged = sum(&|r| {
        let a = &r.metrics.accounting;
        a.totals().map(|(_, c)| c).sum::<u64>() - a.total(migrate_rt::categories::NETWORK_TRANSIT)
    });
    out.extend([
        metric(
            "runtime.migrations",
            "count",
            sum(&|r| r.metrics.migrations) as f64,
        ),
        metric(
            "runtime.charged_cycles_per_op",
            "cycles/op",
            per_op(charged),
        ),
        metric(
            "sim.recv_cycles_per_op",
            "cycles/op",
            per_op(category("recv.")),
        ),
        metric(
            "sim.send_cycles_per_op",
            "cycles/op",
            per_op(category("send.")),
        ),
        metric(
            "sim.lock_stall_per_op",
            "cycles/op",
            per_op(category("lock_stall")),
        ),
    ]);

    let recovery = |f: fn(&migrate_rt::RecoveryStats) -> u64| {
        sum(&|r| r.metrics.recovery.as_ref().map_or(0, f)) as f64
    };
    out.extend([
        metric("recovery.acks", "count", recovery(|s| s.acks_sent)),
        metric("recovery.retries", "count", recovery(|s| s.retries)),
        metric(
            "recovery.duplicates_suppressed",
            "count",
            recovery(|s| s.duplicates_suppressed),
        ),
        metric("recovery.fallbacks", "count", recovery(|s| s.fallbacks)),
        metric(
            "recovery.frames_reclaimed",
            "count",
            recovery(|s| s.frames_reclaimed),
        ),
        metric(
            "sim.recovery_cycles_per_op",
            "cycles/op",
            per_op(category("recovery.")),
        ),
    ]);

    let failover = |f: fn(&migrate_rt::FailoverStats) -> u64| {
        sum(&|r| r.metrics.failover.as_ref().map_or(0, f)) as f64
    };
    out.extend([
        metric(
            "failover.heartbeats",
            "count",
            failover(|s| s.heartbeats_sent),
        ),
        metric("failover.suspicions", "count", failover(|s| s.suspicions)),
        metric("failover.promotions", "count", failover(|s| s.promotions)),
        metric(
            "failover.rehomed_objects",
            "count",
            failover(|s| s.rehomed_objects),
        ),
        metric(
            "failover.rerouted_calls",
            "count",
            failover(|s| s.rerouted_calls),
        ),
        metric(
            "failover.replication_deltas",
            "count",
            failover(|s| s.replication_deltas),
        ),
        metric(
            "failover.replication_words",
            "words",
            failover(|s| s.replication_words),
        ),
        metric(
            "failover.threads_lost",
            "count",
            failover(|s| s.threads_lost),
        ),
    ]);

    let policy = |f: fn(&migrate_rt::PolicyStats) -> u64| {
        sum(&|r| r.metrics.policy.as_ref().map_or(0, f)) as f64
    };
    let decisions = policy(|s| s.decisions);
    let check_s: Vec<f64> = traced
        .iter()
        .chain(untraced)
        .map(|p| p.iter().map(|r| r.check_s).sum())
        .collect();
    out.extend([
        metric("policy.decisions", "count", decisions),
        metric("policy.flips", "count", policy(|s| s.flips)),
        metric(
            "policy.migrate_share",
            "ratio",
            ratio(policy(|s| s.migrate_decisions), decisions),
        ),
        metric(
            "sim.policy_cycles_per_op",
            "cycles/op",
            per_op(category("policy.")),
        ),
        metric(
            "apps.tree_keys",
            "count",
            sum(&|r| r.tree.as_ref().map_or(0, |t| t.keys)) as f64,
        ),
        metric(
            "apps.tree_height",
            "count",
            pass.iter()
                .filter_map(|r| r.tree.as_ref().map(|t| t.height))
                .max()
                .unwrap_or(0) as f64,
        ),
        metric("apps.check_s", "s", median(&check_s)),
        metric(
            "trace.overhead",
            "ratio",
            ratio(median(&host_s(traced)), median(&host_s(untraced))),
        ),
    ]);
    out
}
