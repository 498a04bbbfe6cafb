//! Every workload at this commit: correct, repeatable within a process,
//! and with the per-layer zeros README.md predicts.

use migration_benchmark::report::Metric;
use migration_benchmark::workload::Workload;
use migration_benchmark::{run, Report};

const SEED: u64 = 3;

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn simulated(report: &Report) -> Vec<Metric> {
    report
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("sim_"))
        .cloned()
        .collect()
}

/// One pass (zero seconds) untraced, twice, then one traced pass.
fn check(workload: Workload) {
    let first = run(workload, SEED, 0.0, false);
    let second = run(workload, SEED, 0.0, false);
    for report in [&first, &second] {
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "failed_frac must be 0");
    }
    assert_eq!(first.digest, second.digest);
    assert_eq!(simulated(&first), simulated(&second));
    assert_eq!(simulated(&first).len(), 3);

    let traced = run(workload, SEED, 0.0, true);
    assert!(traced.errors.is_empty(), "{:?}", traced.errors);
    assert_eq!(traced.failed, 0);
    assert_eq!(
        traced.digest, first.digest,
        "tracing changed the simulation"
    );

    let shared_memory = matches!(workload, Workload::BtreeSm | Workload::CountingSm);
    let misses = value(&traced, "coherence.misses_per_event");
    assert_eq!(misses > 0.0, shared_memory, "misses/event {misses}");
    for layer in ["recovery.", "failover."] {
        let work: f64 = traced
            .metrics
            .iter()
            .filter(|m| m.name.starts_with(layer))
            .map(|m| m.value)
            .sum();
        assert_eq!(work > 0.0, workload == Workload::BtreeFaults, "{layer}*");
    }
    assert!(value(&traced, "trace.overhead") > 1.0);
}

#[test]
fn btree_sm() {
    check(Workload::BtreeSm);
}

#[test]
fn counting_sm() {
    check(Workload::CountingSm);
}

#[test]
fn counting_mp() {
    check(Workload::CountingMp);
}

#[test]
fn btree_faults() {
    check(Workload::BtreeFaults);
}
