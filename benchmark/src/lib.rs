//! The repository benchmark: four workloads, each a fixed list of B-tree or
//! counting-network cells run serially on one thread. A run reports host
//! time and the paper's modelled results (`--trace 0`), or per-layer
//! counters from a traced run (`--trace 1`). README.md explains the
//! workloads and which layer metric should move which end-to-end metric.

pub mod alloc;
pub mod reference;
pub mod report;
pub mod run;
pub mod sink;
pub mod stats;
pub mod workload;

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bench::json::{obj, Json};

use reference::Reference;
use report::{modelled, per_layer, sim_digest, Metric};
use run::{run_cell, setup_seconds, CellRun, Mode};
use sink::LayerCounts;
use stats::{iqr_share, median, quartiles};
use workload::{Cell, Workload};

/// Set-ups timed on their own before the measured passes; `setup_s` is
/// their median.
const SETUP_SAMPLES: usize = 101;

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Digest of the simulated metrics (see [`report::sim_digest`]).
    pub digest: u64,
    /// Failed correctness checks; empty when the run is correct.
    pub errors: Vec<String>,
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Lines for people: the cells, and host times before calibration.
    pub notes: Vec<String>,
}

impl Report {
    /// The last line the benchmark prints.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.errors.is_empty())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Run `workload` for `seed`, repeating passes until `seconds` of host time
/// have gone (at least one), then one audited pass. With `trace`, each
/// repetition is an untraced pass followed by a traced one, and the report
/// carries per-layer metrics instead of end-to-end ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let cells = workload.cells(seed);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // End-to-end host times are scaled to the reference speed, measured
    // around the set-up samples and around every untraced pass.
    let mut reference = Reference::default();
    let mut references = Vec::new();
    let mut setup = Vec::new();
    if !trace {
        references.push(reference.seconds());
        setup = (0..SETUP_SAMPLES)
            .map(|_| cells.iter().map(setup_seconds).sum())
            .collect();
        references.push(reference.seconds());
    }
    while untraced.is_empty() || start.elapsed() < budget {
        untraced.push(pass(&cells, Mode::Timed));
        if trace {
            traced.push(pass(&cells, Mode::Traced));
        } else {
            references.push(reference.seconds());
        }
    }

    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let digest = sim_digest(&untraced[0]);
    for p in untraced.iter().chain(&traced) {
        if sim_digest(p) != digest {
            errors.push("simulated metrics differ between passes".to_string());
        }
        tally(p, &mut errors, &mut attempted, &mut failed);
    }
    let layers: Vec<LayerCounts> = traced.iter().map(|p| merged_layers(p)).collect();
    if let Some(first) = layers.first() {
        if layers.iter().any(|l| l.simulated() != first.simulated()) {
            errors.push("trace counts differ between passes".to_string());
        }
        if first.malformed > 0 {
            errors.push(format!(
                "{} unparsed coherence miss records",
                first.malformed
            ));
        }
    }
    match panic::catch_unwind(AssertUnwindSafe(|| pass(&cells, Mode::Audited))) {
        Ok(p) => tally(&p, &mut errors, &mut attempted, &mut failed),
        Err(_) => {
            errors.push("cycle-accounting audit failed".to_string());
            failed = attempted;
        }
    }

    let mut notes: Vec<String> = cells
        .iter()
        .zip(&untraced[0])
        .map(|(c, r)| {
            format!(
                "cell {:?} warmup={} window={} events={} ops={} attempted={} failed={} \
                 latency={:.1} run_s={:.4}",
                c.label,
                c.warmup.get(),
                c.window.get(),
                r.events,
                r.metrics.ops,
                r.attempted,
                r.failed,
                r.metrics.mean_op_latency,
                r.run_s
            )
        })
        .collect();
    let run_s: Vec<f64> = untraced.iter().map(|p| total(p, |r| r.run_s)).collect();
    notes.push(spread_note("raw run_s", &run_s));
    let metrics = if trace {
        per_layer(&traced, &untraced, &layers)
    } else {
        notes.push(spread_note("reference_s", &references));
        // Pass k ran between references k+1 and k+2.
        let scales: Vec<f64> = references[1..]
            .windows(2)
            .map(|w| reference::scale(w[0], w[1]))
            .collect();
        let calibrated: Vec<f64> = run_s.iter().zip(&scales).map(|(s, k)| s * k).collect();
        let events_per_s: Vec<f64> = untraced
            .iter()
            .zip(&calibrated)
            .map(|(p, s)| total(p, |r| r.events as f64) / s)
            .collect();
        notes.push(spread_note("run_s", &calibrated));
        notes.push(format!("raw setup_s median={}", median(&setup)));
        let mut m = vec![
            Metric {
                name: "setup_s".into(),
                unit: "s",
                value: median(&setup) * reference::scale(references[0], references[1]),
            },
            Metric {
                name: "run_s".into(),
                unit: "s",
                value: median(&calibrated),
            },
            Metric {
                name: "events_per_s".into(),
                unit: "1/s",
                value: median(&events_per_s),
            },
            Metric {
                name: "peak_rss_mb".into(),
                unit: "MB",
                value: peak_rss_mb(),
            },
        ];
        m.extend(modelled(&cells, &untraced[0]));
        m
    };
    Report {
        digest,
        errors,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// `<name> over N samples: q1 … median … q3 … iqr_share …`.
fn spread_note(name: &str, xs: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(xs);
    format!(
        "{name} over {} samples: q1={q1} median={q2} q3={q3} iqr_share={}",
        xs.len(),
        iqr_share(xs)
    )
}

fn pass(cells: &[Cell], mode: Mode) -> Vec<CellRun> {
    cells.iter().map(|c| run_cell(c, mode)).collect()
}

fn total(pass: &[CellRun], f: impl Fn(&CellRun) -> f64) -> f64 {
    pass.iter().map(f).sum()
}

fn tally(pass: &[CellRun], errors: &mut Vec<String>, attempted: &mut u64, failed: &mut u64) {
    for r in pass {
        *attempted += r.attempted;
        *failed += r.failed;
        if let Err(e) = &r.gate {
            errors.push(e.clone());
        }
    }
}

fn merged_layers(pass: &[CellRun]) -> LayerCounts {
    let mut all = LayerCounts::default();
    for layers in pass.iter().filter_map(|r| r.layers.as_ref()) {
        all.merge(layers);
    }
    all
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
