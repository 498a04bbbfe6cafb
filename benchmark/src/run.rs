//! Running one cell: timed set-up and event loop, then an untimed
//! correctness gate.

use std::sync::Arc;
use std::time::Instant;

use migrate_apps::btree::{verify_tree, BTreeExperiment, TreeStats};
use migrate_apps::counting::{CountingExperiment, CountingSpec, OutputCounter};
use migrate_rt::{Goid, RunMetrics, Runner};
use proteus::{Cycles, Tracer};

use crate::alloc::allocations;
use crate::sink::{LayerCounts, LayerSink};
use crate::workload::{App, Cell};

/// How a cell is run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Tracing and auditing off: the run whose host time is reported.
    Timed,
    /// The measurement window fed through a [`LayerSink`].
    Traced,
    /// The runtime's cycle-accounting audit on, checked at the end.
    Audited,
}

/// The outcome of one cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Host seconds in the event loop (warm-up and window).
    pub run_s: f64,
    /// Engine events dispatched, warm-up included.
    pub events: u64,
    /// Peak pending events over the run.
    pub peak_depth: usize,
    /// Heap allocations made inside the event loop.
    pub allocs: u64,
    /// The measurement window's metrics.
    pub metrics: RunMetrics,
    /// Operations attempted: issued ops in a capped cell, ops completed in
    /// the window otherwise.
    pub attempted: u64,
    /// Attempted operations that did not complete, or all of them when the
    /// cell failed its gate.
    pub failed: u64,
    /// `Err` names the first correctness check the cell failed.
    pub gate: Result<(), String>,
    /// The B-tree after the run, for B-tree cells that verified.
    pub tree: Option<TreeStats>,
    /// Host seconds in the correctness gate.
    pub check_s: f64,
    /// What the sink recorded, in [`Mode::Traced`].
    pub layers: Option<LayerCounts>,
}

/// What the gate needs from set-up.
enum Built {
    BTree { root: Goid, initial_keys: u64 },
    Counting(Arc<CountingSpec>),
}

/// Build the cell's machine and load its data, with the audit on when
/// asked.
fn build(cell: &Cell, audit: bool) -> (Runner, Built) {
    match &cell.app {
        App::BTree(e) => {
            let (runner, root) = BTreeExperiment { audit, ..e.clone() }.build();
            let initial_keys = e.initial_keys;
            (runner, Built::BTree { root, initial_keys })
        }
        App::Counting(e) => {
            let (runner, spec) = CountingExperiment { audit, ..e.clone() }.build();
            (runner, Built::Counting(spec))
        }
    }
}

/// Host seconds one set-up of `cell` takes (dropping it is not timed).
pub fn setup_seconds(cell: &Cell) -> f64 {
    let t = Instant::now();
    let _built = build(cell, false);
    t.elapsed().as_secs_f64()
}

/// Run one cell in `mode`. In [`Mode::Audited`] a failed audit panics
/// inside metric extraction; the caller catches it.
pub fn run_cell(cell: &Cell, mode: Mode) -> CellRun {
    let (mut runner, built) = build(cell, mode == Mode::Audited);
    let sink = (mode == Mode::Traced).then(|| Tracer::to_sink(LayerSink::default()));
    let allocs_before = allocations();
    let t = Instant::now();
    // Warm-up and window are two calls so that the gate knows every op the
    // cell completed, and so that only the window is traced. The second
    // call opens the window where `run_profiled(warmup, window)` would.
    let mut warm_ops = 0;
    let mut events = 0;
    if !cell.warmup.is_zero() {
        let (warm, profile) = runner.run_profiled(Cycles::ZERO, cell.warmup);
        warm_ops = warm.ops;
        events = profile.events;
    }
    if let Some((tracer, _)) = &sink {
        runner.set_tracer(tracer.clone());
    }
    let (metrics, profile) = runner.run_profiled(Cycles::ZERO, cell.window);
    let run_s = t.elapsed().as_secs_f64();
    let allocs = allocations() - allocs_before;
    let layers = sink.map(|(_, sink)| sink.borrow_mut().finish());

    let t = Instant::now();
    let ops = warm_ops + metrics.ops;
    let (mut gate, tree) = check(cell, &runner, &built, ops);
    if gate.is_ok() && mode == Mode::Audited {
        gate = runner.system.audit().map(|_| ());
    }
    let check_s = t.elapsed().as_secs_f64();
    let attempted = cell
        .cap()
        .map_or(metrics.ops, |cap| cap * cell.requesters());
    let failed = if gate.is_ok() {
        attempted.saturating_sub(ops)
    } else {
        attempted
    };
    CellRun {
        run_s,
        events: events + profile.events,
        peak_depth: profile.peak_queue_depth,
        allocs,
        metrics,
        attempted,
        failed,
        gate: gate.map_err(|e| format!("{}: {e}", cell.label)),
        tree,
        check_s,
        layers,
    }
}

/// The cell's correctness gate, given `ops`, the operations it completed.
fn check(
    cell: &Cell,
    runner: &Runner,
    built: &Built,
    ops: u64,
) -> (Result<(), String>, Option<TreeStats>) {
    let system = &runner.system;
    // Each requester has at most one operation in flight.
    let issued = ops + cell.requesters();
    let mut tree = None;
    let app = match built {
        &Built::BTree { root, initial_keys } => match verify_tree(system, root) {
            Err(e) => Err(format!("B-tree invalid: {e}")),
            Ok(stats) if stats.keys < initial_keys => {
                Err(format!("keys vanished: {} < {initial_keys}", stats.keys))
            }
            Ok(stats) if stats.keys > initial_keys + issued => Err(format!(
                "{} keys, more than {initial_keys} initial plus {issued} issued",
                stats.keys
            )),
            Ok(stats) => {
                tree = Some(stats);
                Ok(())
            }
        },
        Built::Counting(spec) => {
            let tokens: u64 = spec
                .counters_in_output_order()
                .iter()
                .map(|&g| {
                    system
                        .objects()
                        .state::<OutputCounter>(g)
                        .map_or(0, |c| c.count)
                })
                .sum();
            if tokens > issued {
                Err(format!("{tokens} tokens counted, only {issued} issued"))
            } else if tokens < ops {
                Err(format!("{tokens} tokens counted for {ops} completed ops"))
            } else {
                Ok(())
            }
        }
    };
    let failover = match cell.victim() {
        None => Ok(()),
        Some(victim) if !system.is_declared_dead(victim) => {
            Err(format!("victim {} never declared dead", victim.index()))
        }
        Some(_) => {
            let f = system.failover_stats();
            if f.suspicions == 1 && f.promotions == 1 {
                Ok(())
            } else {
                Err(format!(
                    "{} suspicions and {} promotions, expected one each",
                    f.suspicions, f.promotions
                ))
            }
        }
    };
    (app.and(failover), tree)
}
