//! # bench — experiment harness for every table and figure
//!
//! Shared runners behind the `experiments` binary, which prints the paper's
//! tables/figures from fresh simulations. Each function corresponds to one
//! artifact of the paper's evaluation; DESIGN.md §4 maps them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use migrate_apps::btree::BTreeExperiment;
use migrate_apps::counting::{CountingExperiment, Topology};
use migrate_rt::{
    categories as cat, Annotation, CostModel, FailoverStats, RunMetrics, Runner, Scheme,
};
use proteus::{CoherenceCosts, Cycles, ProcId};

pub mod json;
pub mod pool;

use json::{obj, Json};

/// Default warm-up for counting-network points.
pub const COUNTING_WARMUP: Cycles = Cycles(150_000);
/// Default measurement window for counting-network points.
pub const COUNTING_WINDOW: Cycles = Cycles(400_000);
/// Default warm-up for B-tree rows.
pub const BTREE_WARMUP: Cycles = Cycles(200_000);
/// Default measurement window for B-tree rows.
pub const BTREE_WINDOW: Cycles = Cycles(800_000);

/// One measured row: scheme label + metrics.
#[derive(Clone, Debug)]
pub struct Row {
    /// Scheme label as printed in the paper.
    pub label: String,
    /// The measured metrics.
    pub metrics: RunMetrics,
}

/// One Figure 2/3 point: requester count + all five scheme rows.
#[derive(Clone, Debug)]
pub struct CountingPoint {
    /// Total requesting processes.
    pub requesters: u32,
    /// Rows in the figure's legend order.
    pub rows: Vec<Row>,
}

/// Run one counting-network cell.
pub fn counting_cell(requesters: u32, think: u64, scheme: Scheme) -> RunMetrics {
    CountingExperiment::paper(requesters, think, scheme).run(COUNTING_WARMUP, COUNTING_WINDOW)
}

/// Figures 2 and 3: sweep requester counts for all five schemes at one
/// think time. Independent simulations run on the bounded worker pool
/// (see [`pool`]); the cell list is row-major (requester count outer,
/// scheme inner), so reassembly is a single linear pass instead of a
/// per-cell search.
pub fn counting_sweep(think: u64, requester_counts: &[u32]) -> Vec<CountingPoint> {
    let schemes = Scheme::figure2_rows();
    let cells: Vec<(u32, Scheme)> = requester_counts
        .iter()
        .flat_map(|&requesters| schemes.iter().map(move |&scheme| (requesters, scheme)))
        .collect();
    let mut metrics = pool::map_indexed(&cells, |&(requesters, scheme)| {
        counting_cell(requesters, think, scheme)
    })
    .into_iter();
    requester_counts
        .iter()
        .map(|&requesters| CountingPoint {
            requesters,
            rows: schemes
                .iter()
                .map(|scheme| Row {
                    label: scheme.label(),
                    metrics: metrics.next().expect("cell computed"),
                })
                .collect(),
        })
        .collect()
}

/// Run one B-tree row.
pub fn btree_cell(think: u64, scheme: Scheme, fanout: usize) -> RunMetrics {
    let exp = if fanout == 100 {
        BTreeExperiment::paper(think, scheme)
    } else {
        BTreeExperiment {
            fanout,
            ..BTreeExperiment::paper(think, scheme)
        }
    };
    exp.run(BTREE_WARMUP, BTREE_WINDOW)
}

/// Tables 1 and 2: all nine schemes at zero think time (throughput and
/// bandwidth come from the same runs).
pub fn btree_table(think: u64, schemes: &[Scheme]) -> Vec<Row> {
    let metrics = pool::map_indexed(schemes, |&scheme| btree_cell(think, scheme, 100));
    schemes
        .iter()
        .zip(metrics)
        .map(|(scheme, metrics)| Row {
            label: scheme.label(),
            metrics,
        })
        .collect()
}

/// Tables 3 and 4: the think-10 000 rows the paper prints (SM, CP w/repl.,
/// CP w/repl. & HW).
pub fn btree_table_think() -> Vec<Row> {
    let schemes = [
        Scheme::shared_memory(),
        Scheme::computation_migration().with_replication(),
        Scheme::computation_migration()
            .with_replication()
            .with_hardware(),
    ];
    btree_table(10_000, &schemes)
}

/// The §4.2 fanout-10 experiment: CP w/repl. vs SM at zero think time.
pub fn fanout10_rows() -> Vec<Row> {
    let schemes = [
        Scheme::shared_memory(),
        Scheme::computation_migration().with_replication(),
    ];
    let metrics = pool::map_indexed(&schemes, |&scheme| btree_cell(0, scheme, 10));
    schemes
        .iter()
        .zip(metrics)
        .map(|(scheme, metrics)| Row {
            label: scheme.label(),
            metrics,
        })
        .collect()
}

/// Extension comparison (DESIGN.md §7): the mechanisms the paper discusses
/// but did not measure — Emerald-style object migration ("OM") and whole-
/// thread migration ("TM") — next to the paper's three, on both workloads.
pub fn extension_rows(think: u64) -> (Vec<Row>, Vec<Row>) {
    let schemes = [
        Scheme::shared_memory(),
        Scheme::rpc(),
        Scheme::computation_migration(),
        Scheme::object_migration(),
        Scheme::thread_migration(),
    ];
    // One cell list for both workloads: counting cells first, then B-tree.
    let cells: Vec<(bool, Scheme)> = schemes
        .iter()
        .map(|&s| (true, s))
        .chain(schemes.iter().map(|&s| (false, s)))
        .collect();
    let mut metrics = pool::map_indexed(&cells, |&(is_counting, s)| {
        if is_counting {
            counting_cell(32, think, s)
        } else {
            btree_cell(think, s, 100)
        }
    })
    .into_iter();
    let label = |s: &Scheme, m| Row {
        label: s.label(),
        metrics: m,
    };
    let counting = schemes
        .iter()
        .map(|s| label(s, metrics.next().expect("cell computed")))
        .collect();
    let btree = schemes
        .iter()
        .map(|s| label(s, metrics.next().expect("cell computed")))
        .collect();
    (counting, btree)
}

/// One fault-injected counting-network run under `FaultPlan::chaos(seed)`.
pub fn fault_cell_counting(seed: u64, scheme: Scheme) -> RunMetrics {
    let mut exp = CountingExperiment::paper(8, 0, scheme);
    exp.faults = Some(proteus::FaultPlan::chaos(seed));
    exp.audit = true;
    exp.run(Cycles(20_000), Cycles(60_000))
}

/// One fault-injected B-tree run under `FaultPlan::chaos(seed)` (small tree,
/// few requesters: the point is protocol survival, not steady-state rates).
pub fn fault_cell_btree(seed: u64, scheme: Scheme) -> RunMetrics {
    let mut exp = BTreeExperiment::paper(0, scheme);
    exp.initial_keys = 400;
    exp.requesters = 6;
    exp.faults = Some(proteus::FaultPlan::chaos(seed));
    exp.audit = true;
    exp.run(Cycles(30_000), Cycles(80_000))
}

/// The `--faults <seed>` sweep: both applications under RPC and computation
/// migration with the chaos fault plan and the cycle audit on. Deterministic:
/// the same seed yields identical metrics (and identical JSON) on every run.
pub fn fault_sweep(seed: u64) -> Vec<Row> {
    let schemes = [Scheme::rpc(), Scheme::computation_migration()];
    let cells: Vec<(bool, Scheme)> = schemes
        .iter()
        .map(|&s| (true, s))
        .chain(schemes.iter().map(|&s| (false, s)))
        .collect();
    let metrics = pool::map_indexed(&cells, |&(is_counting, s)| {
        if is_counting {
            fault_cell_counting(seed, s)
        } else {
            fault_cell_btree(seed, s)
        }
    });
    cells
        .iter()
        .zip(metrics)
        .map(|(&(is_counting, s), metrics)| Row {
            label: format!(
                "{} {}",
                if is_counting { "counting" } else { "btree" },
                s.label()
            ),
            metrics,
        })
        .collect()
}

/// The eight scheme families the runtime implements (the paper's three plus
/// hardware/replication variants and the DESIGN.md §7 extensions), used by
/// the failover chaos sweep: a processor death must be survivable no matter
/// which mechanism carries the traffic.
pub fn failover_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("SM", Scheme::shared_memory()),
        ("RPC", Scheme::rpc()),
        ("RPC+HW", Scheme::rpc().with_hardware()),
        ("CM", Scheme::computation_migration()),
        ("CM+HW", Scheme::computation_migration().with_hardware()),
        (
            "CM+repl",
            Scheme::computation_migration().with_replication(),
        ),
        ("OM", Scheme::object_migration()),
        ("TM", Scheme::thread_migration()),
    ]
}

/// Horizon for failover cells: long enough for the kill, the ~225k-cycle
/// detection latency (heartbeat interval + exhausted retransmissions), the
/// promotion, and a full post-failover drain of every capped driver.
pub const FAILOVER_HORIZON: Cycles = Cycles(8_000_000);

/// The validity both failover cells share: the cycle audit closes and the
/// victim was declared dead by exactly one suspicion and one promotion.
/// Returns the failover stats for the application-specific checks.
fn check_failover(runner: &Runner, seed: u64, victim: ProcId) -> FailoverStats {
    runner
        .system
        .audit()
        .unwrap_or_else(|e| panic!("seed {seed}: audit failed under failover: {e}"));
    assert!(
        runner.system.is_declared_dead(victim),
        "seed {seed}: victim {victim:?} never declared dead"
    );
    let f = runner.system.failover_stats().clone();
    assert_eq!(f.suspicions, 1, "seed {seed}: suspicions {f:?}");
    assert_eq!(f.promotions, 1, "seed {seed}: promotions {f:?}");
    f
}

/// One failover counting cell: capped drivers, one balancer processor
/// permanently killed mid-run, failure detection + replication on.
///
/// Panics unless the run ends **valid**: the victim was declared dead by
/// exactly one suspicion/promotion, the cycle audit closes, no token was
/// duplicated, and every token not forfeited by a thread that died with the
/// victim made it out of the network.
pub fn failover_cell_counting(seed: u64, scheme: Scheme) -> RunMetrics {
    let requesters = 4u32;
    let per_thread = 6u64;
    // Victims rotate over the 24 balancer processors: they host network
    // objects but no driver threads (except transiently under thread
    // migration), so the kill exercises re-homing rather than plain loss.
    let victim = ProcId((seed % 24) as u32);
    let at = Cycles(25_000 + 2_500 * (seed % 8));
    let exp = CountingExperiment {
        requests_per_thread: Some(per_thread),
        faults: Some(proteus::FaultPlan::fail_stop(victim, at)),
        failover: migrate_rt::FailoverConfig {
            enabled: true,
            ..Default::default()
        },
        audit: true,
        seed: 0xC0DE ^ seed,
        ..CountingExperiment::paper(requesters, 0, scheme)
    };
    let (mut runner, spec) = exp.build();
    runner.run_until(FAILOVER_HORIZON);
    let f = check_failover(&runner, seed, victim);
    let total: u64 = spec
        .counters_in_output_order()
        .iter()
        .map(|&g| {
            runner
                .system
                .objects()
                .state::<migrate_apps::counting::OutputCounter>(g)
                .expect("counter state")
                .count
        })
        .sum();
    let issued = u64::from(requesters) * per_thread;
    assert!(
        total <= issued,
        "seed {seed}: token duplicated ({total} > {issued})"
    );
    // Each thread that died with the victim forfeits at most its full
    // quota; every other token must have survived via reroute/re-home.
    assert!(
        total >= issued.saturating_sub(f.threads_lost * per_thread),
        "seed {seed}: tokens lost beyond dead threads \
         (exited {total}, issued {issued}, threads lost {})",
        f.threads_lost
    );
    runner.system.metrics(FAILOVER_HORIZON)
}

/// One failover B-tree cell: capped requesters, one data processor (object
/// host) permanently killed mid-run, failure detection + replication on.
///
/// Panics unless the run ends **valid**: exactly one suspicion/promotion,
/// audit closed, and the re-homed tree still satisfies every structural
/// invariant with a key population bounded by the issued inserts.
pub fn failover_cell_btree(seed: u64, scheme: Scheme) -> RunMetrics {
    let initial = 120u64;
    let requesters = 4u32;
    let per_thread = 5u64;
    let data_procs = 8u32;
    let victim = ProcId((seed % u64::from(data_procs)) as u32);
    let at = Cycles(30_000 + 3_000 * (seed % 8));
    let exp = BTreeExperiment {
        initial_keys: initial,
        fanout: 8,
        data_procs,
        requesters,
        key_space: 1 << 16,
        requests_per_thread: Some(per_thread),
        faults: Some(proteus::FaultPlan::fail_stop(victim, at)),
        failover: migrate_rt::FailoverConfig {
            enabled: true,
            ..Default::default()
        },
        audit: true,
        seed: 0xB7EE ^ seed,
        ..BTreeExperiment::paper(0, scheme)
    };
    let (mut runner, root) = exp.build();
    runner.run_until(FAILOVER_HORIZON);
    check_failover(&runner, seed, victim);
    let stats = migrate_apps::btree::verify_tree(&runner.system, root)
        .unwrap_or_else(|e| panic!("seed {seed}: tree corrupt after failover: {e}"));
    assert!(
        stats.keys >= initial,
        "seed {seed}: keys vanished ({} < {initial})",
        stats.keys
    );
    assert!(
        stats.keys <= initial + u64::from(requesters) * per_thread,
        "seed {seed}: more keys than inserts issued ({})",
        stats.keys
    );
    runner.system.metrics(FAILOVER_HORIZON)
}

/// The `--failover <seed>` chaos sweep: both applications under every scheme
/// family, one permanent mid-run processor crash per cell. Each cell asserts
/// its own application validity (token conservation, B-tree invariants) and
/// exactly one backup promotion; the returned rows carry the metrics for the
/// JSON artifact. Deterministic for a given seed.
pub fn failover_sweep(seed: u64) -> Vec<Row> {
    let schemes = failover_schemes();
    let cells: Vec<(bool, &'static str, Scheme)> = schemes
        .iter()
        .map(|&(name, s)| (true, name, s))
        .chain(schemes.iter().map(|&(name, s)| (false, name, s)))
        .collect();
    let metrics = pool::map_indexed(&cells, |&(is_counting, _, s)| {
        if is_counting {
            failover_cell_counting(seed, s)
        } else {
            failover_cell_btree(seed, s)
        }
    });
    cells
        .iter()
        .zip(metrics)
        .map(|(&(is_counting, name, _), metrics)| Row {
            label: format!(
                "{} {}",
                if is_counting { "counting" } else { "btree" },
                name
            ),
            metrics,
        })
        .collect()
}

// ----------------------------------------------------------------------
// Adaptive dispatch: the `adaptive` sweep (paper §7's open problem)
// ----------------------------------------------------------------------

/// The three dispatch variants an adaptive cell compares: the two static
/// annotations a §3.1 programmer would choose between, plus the online
/// policy (`Annotation::Auto`) that decides per call site at run time.
/// Row order is fixed; [`adaptive_validity`] indexes into it.
pub fn adaptive_variants() -> Vec<(&'static str, Scheme, Annotation)> {
    vec![
        ("static RPC", Scheme::rpc(), Annotation::Rpc),
        (
            "static CM",
            Scheme::computation_migration(),
            Annotation::Migrate,
        ),
        (
            "adaptive",
            Scheme::computation_migration(),
            Annotation::Auto,
        ),
    ]
}

/// One adaptive B-tree cell at paper scale, audited. Panics if the cycle
/// audit fails or the tree violates a structural invariant afterwards.
pub fn adaptive_cell_btree(seed: u64, scheme: Scheme, annotation: Annotation) -> RunMetrics {
    let exp = BTreeExperiment {
        seed: 0xADA5 ^ seed,
        annotation,
        audit: true,
        ..BTreeExperiment::paper(0, scheme)
    };
    let (mut runner, root) = exp.build();
    let metrics = runner.run(BTREE_WARMUP, BTREE_WINDOW);
    runner
        .system
        .audit()
        .unwrap_or_else(|e| panic!("seed {seed}: adaptive btree audit failed: {e}"));
    migrate_apps::btree::verify_tree(&runner.system, root)
        .unwrap_or_else(|e| panic!("seed {seed}: adaptive btree corrupt: {e}"));
    metrics
}

/// One adaptive counting-network cell at paper scale, audited.
pub fn adaptive_cell_counting(seed: u64, scheme: Scheme, annotation: Annotation) -> RunMetrics {
    let exp = CountingExperiment {
        seed: 0xADA5 ^ seed,
        annotation,
        audit: true,
        ..CountingExperiment::paper(16, 0, scheme)
    };
    let (mut runner, _spec) = exp.build();
    let metrics = runner.run(COUNTING_WARMUP, COUNTING_WINDOW);
    runner
        .system
        .audit()
        .unwrap_or_else(|e| panic!("seed {seed}: adaptive counting audit failed: {e}"));
    metrics
}

/// One adaptive comparison point: one application and seed measured under
/// every [`adaptive_variants`] row.
#[derive(Clone, Debug)]
pub struct AdaptiveCell {
    /// Application ("counting" or "btree").
    pub app: &'static str,
    /// Experiment seed (xored into the machine seed).
    pub seed: u64,
    /// Rows in [`adaptive_variants`] order.
    pub rows: Vec<Row>,
}

impl AdaptiveCell {
    /// Mean charged cycles per completed operation for variant row `i` —
    /// the cost metric the acceptance bound compares (total charged cycles
    /// normalizes away the fixed measurement window; per-op makes cells
    /// with different completion counts comparable).
    pub fn cycles_per_op(&self, i: usize) -> f64 {
        let m = &self.rows[i].metrics;
        m.accounting.grand_total() as f64 / m.ops.max(1) as f64
    }
}

/// The `adaptive` sweep: both applications × every seed × the three
/// dispatch variants, on the worker pool. Row-major like
/// [`counting_sweep`]: app outer, seed middle, variant inner.
pub fn adaptive_sweep(seeds: &[u64]) -> Vec<AdaptiveCell> {
    let variants = adaptive_variants();
    let mut keys: Vec<(&'static str, u64, Scheme, Annotation)> = Vec::new();
    for &app in &["btree", "counting"] {
        for &seed in seeds {
            for &(_, scheme, annotation) in &variants {
                keys.push((app, seed, scheme, annotation));
            }
        }
    }
    let mut metrics = pool::map_indexed(&keys, |&(app, seed, scheme, annotation)| {
        if app == "btree" {
            adaptive_cell_btree(seed, scheme, annotation)
        } else {
            adaptive_cell_counting(seed, scheme, annotation)
        }
    })
    .into_iter();
    let mut cells = Vec::new();
    for &app in &["btree", "counting"] {
        for &seed in seeds {
            cells.push(AdaptiveCell {
                app,
                seed,
                rows: variants
                    .iter()
                    .map(|&(label, _, _)| Row {
                        label: label.to_string(),
                        metrics: metrics.next().expect("cell computed"),
                    })
                    .collect(),
            });
        }
    }
    cells
}

/// Check an adaptive sweep's acceptance properties and render one
/// self-asserting `adaptive-ok` line per check (CI greps for the marker).
///
/// Panics unless, in every cell: the adaptive row carries policy stats
/// with at least one consultation while both static rows carry none, the
/// B-tree adaptive cost lands within 10% of the best static variant, and
/// the counting adaptive run actually migrates. In aggregate over all
/// seeds, adaptive must strictly beat always-RPC on both applications.
pub fn adaptive_validity(cells: &[AdaptiveCell]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut agg: std::collections::BTreeMap<&'static str, (f64, f64)> =
        std::collections::BTreeMap::new();
    for cell in cells {
        let (app, seed) = (cell.app, cell.seed);
        let rpc = cell.cycles_per_op(0);
        let cm = cell.cycles_per_op(1);
        let ada = cell.cycles_per_op(2);
        for i in 0..2 {
            assert!(
                cell.rows[i].metrics.policy.is_none(),
                "{app} seed {seed}: static variant {:?} grew policy stats",
                cell.rows[i].label
            );
        }
        let m = &cell.rows[2].metrics;
        let p = m
            .policy
            .as_ref()
            .unwrap_or_else(|| panic!("{app} seed {seed}: adaptive run has no policy stats"));
        assert!(
            p.decisions > 0 && p.decisions == p.migrate_decisions + p.rpc_decisions,
            "{app} seed {seed}: inconsistent policy decisions {p:?}"
        );
        match app {
            "btree" => {
                let best = rpc.min(cm);
                assert!(
                    ada <= best * 1.10,
                    "{app} seed {seed}: adaptive {ada:.1} cyc/op not within 10% of \
                     best static {best:.1} (rpc {rpc:.1}, cm {cm:.1})"
                );
                lines.push(format!(
                    "adaptive-ok btree seed={seed}: adaptive {ada:.1} cyc/op within 10% of \
                     best static {best:.1} (rpc {rpc:.1}, cm {cm:.1})"
                ));
            }
            _ => {
                assert!(
                    m.migrations > 0,
                    "{app} seed {seed}: adaptive run never migrated"
                );
                lines.push(format!(
                    "adaptive-ok counting seed={seed}: adaptive {ada:.1} cyc/op \
                     (rpc {rpc:.1}, cm {cm:.1}), {} migrations",
                    m.migrations
                ));
            }
        }
        let e = agg.entry(app).or_insert((0.0, 0.0));
        e.0 += rpc;
        e.1 += ada;
    }
    for (app, (rpc_sum, ada_sum)) in agg {
        assert!(
            ada_sum < rpc_sum,
            "{app}: adaptive did not beat always-RPC in aggregate \
             ({ada_sum:.0} >= {rpc_sum:.0} cyc/op summed)"
        );
        lines.push(format!(
            "adaptive-ok {app} aggregate: adaptive {ada_sum:.0} summed cyc/op \
             strictly beats always-RPC {rpc_sum:.0}"
        ));
    }
    lines
}

/// Serialize adaptive cells to a JSON array (adaptive rows carry the
/// `policy` object via [`metrics_to_json`]; static rows do not).
pub fn adaptive_to_json(cells: &[AdaptiveCell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("app", Json::Str(c.app.to_string())),
                    ("seed", Json::Int(c.seed)),
                    ("rows", rows_to_json(&c.rows)),
                ])
            })
            .collect(),
    )
}

// ----------------------------------------------------------------------
// Ablations: what each modelling choice of DESIGN.md §6–§7 contributes
// ----------------------------------------------------------------------

/// Warm-up shared by every ablation cell.
const ABLATION_WARMUP: Cycles = Cycles(100_000);
/// Measurement window shared by every ablation cell.
const ABLATION_WINDOW: Cycles = Cycles(300_000);

/// The RPC general-stub settings the cost ablation sweeps, as
/// (`CostModel::rpc_dispatch` cycles, `CostModel::rpc_stub_words`). 600/16
/// is the calibrated default (DESIGN.md §6 point 6).
pub const RPC_COST_SWEEP: [(u64, u64); 6] =
    [(0, 0), (0, 16), (300, 16), (600, 0), (600, 16), (1200, 16)];

/// One RPC-cost ablation row: RPC on the paper B-tree under one setting.
#[derive(Clone, Debug)]
pub struct RpcCostRow {
    /// Server-side general-stub dispatch cycles.
    pub dispatch: u64,
    /// Words in the generic argument record.
    pub stub_words: u64,
    /// The measured metrics.
    pub metrics: RunMetrics,
}

/// One topology ablation row: one scheme on one counting-network
/// construction.
#[derive(Clone, Debug)]
pub struct TopologyRow {
    /// Network construction.
    pub topology: Topology,
    /// Scheme label as printed in the paper.
    pub scheme: String,
    /// Balancer stages a token crosses.
    pub depth: usize,
    /// The measured metrics.
    pub metrics: RunMetrics,
}

/// The `ablations` target: each documented modelling choice switched off
/// or swept on its own, everything else at its default.
#[derive(Clone, Debug)]
pub struct Ablations {
    /// Plain CP on the paper B-tree at 0 think: the RPC-cost reference.
    pub cp_reference: RunMetrics,
    /// RPC on the same B-tree, one row per [`RPC_COST_SWEEP`] setting.
    pub rpc_costs: Vec<RpcCostRow>,
    /// CP on the same B-tree under each hardware-support estimate: software,
    /// +register NIC, +HW GOID, +both.
    pub hardware: Vec<Row>,
    /// CM w/HW on the 48-requester counting network at 0 think: the
    /// contention reference.
    pub cm_hw_reference: RunMetrics,
    /// SM on the same network: the full contention model, then without the
    /// contended-lock penalty, without spin reads, and without all extras.
    pub contention: Vec<Row>,
    /// CP and SM on the 32-requester bitonic and periodic networks.
    pub topology: Vec<TopologyRow>,
}

impl Ablations {
    /// CP throughput over RPC throughput for one RPC-cost row.
    pub fn cp_over_rpc(&self, row: &RpcCostRow) -> f64 {
        self.cp_reference.throughput_per_1000 / row.metrics.throughput_per_1000
    }
}

/// Run every ablation, each section's cells on the worker pool.
/// Deterministic: identical rows (and JSON) on every run.
pub fn ablations() -> Ablations {
    let btree = |scheme, cost_override| {
        BTreeExperiment {
            cost_override,
            ..BTreeExperiment::paper(0, scheme)
        }
        .run(ABLATION_WARMUP, ABLATION_WINDOW)
    };
    let counting = |requesters, scheme, topology, coherence_override| {
        let (mut runner, spec) = CountingExperiment {
            topology,
            coherence_override,
            ..CountingExperiment::paper(requesters, 0, scheme)
        }
        .build();
        (
            runner.run(ABLATION_WARMUP, ABLATION_WINDOW),
            spec.wiring.depth(),
        )
    };
    let cp = Scheme::computation_migration();
    let cost = CostModel::default;
    let hardware = [
        ("software", cost()),
        ("+register NIC", cost().with_hw_message_support()),
        ("+HW GOID", cost().with_hw_goid_support()),
        (
            "+both",
            cost().with_hw_message_support().with_hw_goid_support(),
        ),
    ];
    let coh = CoherenceCosts::default;
    let contention = [
        ("full model", coh()),
        (
            "- contended-lock penalty",
            CoherenceCosts {
                contended_lock_penalty: Cycles::ZERO,
                ..coh()
            },
        ),
        (
            "- spin reads",
            CoherenceCosts {
                max_spin_reads: 0,
                ..coh()
            },
        ),
        (
            "- all contention extras",
            CoherenceCosts {
                contended_lock_penalty: Cycles::ZERO,
                max_spin_reads: 0,
                limitless_trap: Cycles::ZERO,
                limitless_per_sharer: Cycles::ZERO,
                ..coh()
            },
        ),
    ];
    let topologies = [
        (Topology::Bitonic, cp),
        (Topology::Bitonic, Scheme::shared_memory()),
        (Topology::Periodic, cp),
        (Topology::Periodic, Scheme::shared_memory()),
    ];
    Ablations {
        cp_reference: btree(cp, None),
        rpc_costs: pool::map_indexed(&RPC_COST_SWEEP, |&(dispatch, stub_words)| {
            let stubs = CostModel {
                rpc_dispatch: Cycles(dispatch),
                rpc_stub_words: stub_words,
                ..cost()
            };
            RpcCostRow {
                dispatch,
                stub_words,
                metrics: btree(Scheme::rpc(), Some(stubs)),
            }
        }),
        hardware: pool::map_indexed(&hardware, |(label, cost)| Row {
            label: label.to_string(),
            metrics: btree(cp, Some(cost.clone())),
        }),
        cm_hw_reference: counting(48, cp.with_hardware(), Topology::Bitonic, None).0,
        contention: pool::map_indexed(&contention, |(label, coherence)| Row {
            label: label.to_string(),
            metrics: counting(
                48,
                Scheme::shared_memory(),
                Topology::Bitonic,
                Some(coherence.clone()),
            )
            .0,
        }),
        topology: pool::map_indexed(&topologies, |&(topology, scheme)| {
            let (metrics, depth) = counting(32, scheme, topology, None);
            TopologyRow {
                topology,
                scheme: scheme.label(),
                depth,
                metrics,
            }
        }),
    }
}

/// Check the ablations' bounds and render one self-asserting `ablation-ok`
/// line per bound (CI greps for the marker).
///
/// Panics unless: RPC beats CP without the general-stub costs (CP/RPC < 1)
/// and CP/RPC reaches 1.8 at the calibrated 600/16, rising strictly with
/// dispatch at 16 words; each hardware estimate raises CP throughput and
/// both together beat either alone; full-model SM stays below CM w/HW while
/// SM without the contended-lock penalty beats it; and the periodic network
/// is 9 stages deep against bitonic's 6, costs CP at least 20% of its
/// throughput, and leaves SM within 2%.
pub fn ablation_validity(a: &Ablations) -> Vec<String> {
    let mut lines = Vec::new();
    let mut check = |holds: bool, what: String| {
        assert!(holds, "ablation bound violated: {what}");
        lines.push(format!("ablation-ok {what}"));
    };
    let ratio = |dispatch, stub_words| {
        a.rpc_costs
            .iter()
            .find(|r| (r.dispatch, r.stub_words) == (dispatch, stub_words))
            .map(|r| a.cp_over_rpc(r))
            .expect("setting is in RPC_COST_SWEEP")
    };
    let (bare, calibrated) = (ratio(0, 0), ratio(600, 16));
    check(
        bare < 1.0,
        format!("rpc-costs: CP/RPC {bare:.2} < 1.0 at dispatch 0 / 0 stub words"),
    );
    check(
        calibrated >= 1.8,
        format!("rpc-costs: CP/RPC {calibrated:.2} >= 1.8 at the calibrated 600/16"),
    );
    let rising: Vec<f64> = a
        .rpc_costs
        .iter()
        .filter(|r| r.stub_words == 16)
        .map(|r| a.cp_over_rpc(r))
        .collect();
    let rising_text: Vec<String> = rising.iter().map(|r| format!("{r:.2}")).collect();
    check(
        rising.windows(2).all(|w| w[0] < w[1]),
        format!(
            "rpc-costs: CP/RPC rises with dispatch at 16 words ({})",
            rising_text.join(" < ")
        ),
    );

    let hw = |i: usize| a.hardware[i].metrics.throughput_per_1000;
    let (software, nic, goid, both) = (hw(0), hw(1), hw(2), hw(3));
    check(
        nic > software && goid > software && both > nic && both > goid,
        format!(
            "hardware: +register NIC {nic:.3} and +HW GOID {goid:.3} each beat \
             software {software:.3}; +both {both:.3} beats either"
        ),
    );

    let cm_hw = a.cm_hw_reference.throughput_per_1000;
    let full = a.contention[0].metrics.throughput_per_1000;
    let no_penalty = a.contention[1].metrics.throughput_per_1000;
    check(
        full < cm_hw && no_penalty > cm_hw,
        format!(
            "contention: full-model SM {full:.3} < CM w/HW {cm_hw:.3} < SM without \
             the contended-lock penalty {no_penalty:.3} ({:.2}x)",
            no_penalty / cm_hw
        ),
    );

    let topo = |topology, scheme: &str| {
        a.topology
            .iter()
            .find(|r| r.topology == topology && r.scheme == scheme)
            .expect("topology row")
    };
    let (bitonic, periodic) = (
        topo(Topology::Bitonic, "CP"),
        topo(Topology::Periodic, "CP"),
    );
    check(
        (bitonic.depth, periodic.depth) == (6, 9),
        format!(
            "topology: periodic depth {} vs bitonic {}",
            periodic.depth, bitonic.depth
        ),
    );
    let (cp_b, cp_p) = (
        bitonic.metrics.throughput_per_1000,
        periodic.metrics.throughput_per_1000,
    );
    check(
        cp_p <= 0.8 * cp_b,
        format!(
            "topology: periodic CP {cp_p:.3} <= 0.8x bitonic CP {cp_b:.3} ({:.1}% lower)",
            100.0 * (1.0 - cp_p / cp_b)
        ),
    );
    let sm_b = topo(Topology::Bitonic, "SM").metrics.throughput_per_1000;
    let sm_p = topo(Topology::Periodic, "SM").metrics.throughput_per_1000;
    check(
        (sm_p - sm_b).abs() <= 0.02 * sm_b,
        format!("topology: periodic SM {sm_p:.3} within 2% of bitonic SM {sm_b:.3}"),
    );
    lines
}

/// Serialize the ablations to JSON: each row's varied setting next to its
/// full [`metrics_to_json`] record.
pub fn ablations_to_json(a: &Ablations) -> Json {
    let row = |mut fields: Vec<(&str, Json)>, m: &RunMetrics| {
        fields.push(("metrics", metrics_to_json(m)));
        obj(fields)
    };
    let variants = |rows: &[Row]| {
        let rows = rows.iter();
        Json::Arr(
            rows.map(|r| row(vec![("variant", Json::Str(r.label.clone()))], &r.metrics))
                .collect(),
        )
    };
    let reference =
        |name, m: &RunMetrics, rows| obj(vec![(name, metrics_to_json(m)), ("rows", rows)]);
    let rpc_costs = a.rpc_costs.iter().map(|r| {
        let fields = vec![
            ("rpc_dispatch", Json::Int(r.dispatch)),
            ("rpc_stub_words", Json::Int(r.stub_words)),
            ("cp_over_rpc", Json::Num(a.cp_over_rpc(r))),
        ];
        row(fields, &r.metrics)
    });
    let topology = a.topology.iter().map(|r| {
        let fields = vec![
            ("topology", Json::Str(format!("{:?}", r.topology))),
            ("scheme", Json::Str(r.scheme.clone())),
            ("depth", Json::Int(r.depth as u64)),
        ];
        row(fields, &r.metrics)
    });
    let rpc_costs = Json::Arr(rpc_costs.collect());
    obj(vec![
        (
            "rpc_costs",
            reference("cp_reference", &a.cp_reference, rpc_costs),
        ),
        ("hardware", variants(&a.hardware)),
        (
            "contention",
            reference(
                "cm_hw_reference",
                &a.cm_hw_reference,
                variants(&a.contention),
            ),
        ),
        ("topology", Json::Arr(topology.collect())),
    ])
}

/// One Table 5 line: category name and mean cycles per migration.
#[derive(Clone, Debug)]
pub struct BreakdownLine {
    /// Category (Table 5 row).
    pub category: &'static str,
    /// Mean cycles per migration.
    pub cycles: f64,
}

/// Table 5: run the counting network under plain CM and attribute every
/// charged cycle of the migration path to its category.
pub fn migration_breakdown() -> (Vec<BreakdownLine>, f64, u64) {
    let metrics = counting_cell(16, 0, Scheme::computation_migration());
    let migrations = metrics.migrations.max(1);
    let acct = &metrics.migration_accounting;
    let lines: Vec<BreakdownLine> = TABLE5_CATEGORIES
        .iter()
        .map(|&category| BreakdownLine {
            category,
            cycles: acct.total(category) as f64 / migrations as f64,
        })
        .collect();
    let total = acct.grand_total() as f64 / migrations as f64;
    (lines, total, metrics.migrations)
}

/// The Table 5 categories in the paper's print order.
pub const TABLE5_CATEGORIES: &[&str] = &[
    cat::USER_CODE,
    cat::NETWORK_TRANSIT,
    cat::COPY_PACKET,
    cat::THREAD_CREATION,
    cat::LINKAGE_RECV,
    cat::UNMARSHAL,
    cat::GOID_TRANSLATION,
    cat::SCHEDULER,
    cat::FORWARDING_CHECK,
    cat::ALLOC_PACKET_RECV,
    cat::LINKAGE_SEND,
    cat::ALLOC_PACKET_SEND,
    cat::MESSAGE_SEND,
    cat::MARSHAL,
];

/// Serialize a [`RunMetrics`] to JSON (every field the text tables print,
/// plus the observability extensions: dispatch counters, per-processor
/// stats, audit summary, and the full accounting breakdown).
pub fn metrics_to_json(m: &RunMetrics) -> Json {
    let accounting = Json::Obj(
        m.accounting
            .totals()
            .map(|(category, cycles)| (category.to_string(), Json::Int(cycles)))
            .collect(),
    );
    let migration_accounting = Json::Obj(
        m.migration_accounting
            .totals()
            .map(|(category, cycles)| (category.to_string(), Json::Int(cycles)))
            .collect(),
    );
    let dispatch = Json::Arr(
        m.dispatch
            .rows()
            .map(|(site, kind, count)| {
                obj(vec![
                    ("site", Json::Str(site.to_string())),
                    ("mechanism", Json::Str(kind.label().to_string())),
                    ("count", Json::Int(count)),
                ])
            })
            .collect(),
    );
    let per_proc = Json::Arr(
        m.per_proc
            .iter()
            .map(|p| {
                obj(vec![
                    ("proc", Json::Int(u64::from(p.proc))),
                    ("utilization", Json::Num(p.utilization)),
                    ("busy_cycles", Json::Int(p.busy_cycles)),
                    ("tasks_served", Json::Int(p.tasks_served)),
                    ("max_queue_depth", Json::Int(p.max_queue_depth as u64)),
                ])
            })
            .collect(),
    );
    let audit = match &m.audit {
        Some(a) => obj(vec![
            ("tasks_checked", Json::Int(a.tasks_checked)),
            ("grand_total", Json::Int(a.grand_total)),
            ("busy_total", Json::Int(a.busy_total)),
            ("transit_total", Json::Int(a.transit_total)),
        ]),
        None => Json::Null,
    };
    let mut fields = vec![
        ("window_cycles", Json::Int(m.window.get())),
        ("ops", Json::Int(m.ops)),
        ("throughput_per_1000", Json::Num(m.throughput_per_1000)),
        (
            "bandwidth_words_per_10",
            Json::Num(m.bandwidth_words_per_10),
        ),
        ("load_word_hops_per_10", Json::Num(m.load_word_hops_per_10)),
        ("messages", Json::Int(m.messages)),
        ("message_words", Json::Int(m.message_words)),
        ("cache_hit_rate", Json::Num(m.cache_hit_rate)),
        ("mean_op_latency", Json::Num(m.mean_op_latency)),
        ("migrations", Json::Int(m.migrations)),
        ("max_proc_utilization", Json::Num(m.max_proc_utilization)),
        ("accounting", accounting),
        ("migration_accounting", migration_accounting),
        ("dispatch", dispatch),
        ("per_proc", per_proc),
        ("audit", audit),
        ("runtime_errors", Json::Int(m.runtime_errors)),
    ];
    // Fault-injection fields appear only when they carry information, so a
    // fault-free run's JSON stays byte-identical to the pre-fault schema.
    if !m.runtime_error_codes.is_empty() {
        fields.push((
            "runtime_error_codes",
            Json::Obj(
                m.runtime_error_codes
                    .iter()
                    .map(|(code, n)| (code.to_string(), Json::Int(*n)))
                    .collect(),
            ),
        ));
    }
    if let Some(r) = &m.recovery {
        fields.push((
            "recovery",
            obj(vec![
                ("acks_sent", Json::Int(r.acks_sent)),
                ("retries", Json::Int(r.retries)),
                ("duplicates_suppressed", Json::Int(r.duplicates_suppressed)),
                ("fallbacks", Json::Int(r.fallbacks)),
                ("frames_reclaimed", Json::Int(r.frames_reclaimed)),
                ("messages_lost", Json::Int(r.messages_lost)),
            ]),
        ));
    }
    if let Some(f) = &m.failover {
        fields.push((
            "failover",
            obj(vec![
                ("heartbeats_sent", Json::Int(f.heartbeats_sent)),
                ("suspicions", Json::Int(f.suspicions)),
                ("promotions", Json::Int(f.promotions)),
                ("rehomed_objects", Json::Int(f.rehomed_objects)),
                ("frames_lost", Json::Int(f.frames_lost)),
                ("threads_lost", Json::Int(f.threads_lost)),
                ("rerouted_calls", Json::Int(f.rerouted_calls)),
                ("replication_deltas", Json::Int(f.replication_deltas)),
                ("replication_words", Json::Int(f.replication_words)),
            ]),
        ));
    }
    if let Some(f) = &m.faults {
        fields.push((
            "faults",
            obj(vec![
                ("decisions", Json::Int(f.decisions)),
                ("drops", Json::Int(f.drops)),
                ("duplicates", Json::Int(f.duplicates)),
                ("delays", Json::Int(f.delays)),
                ("stalls", Json::Int(f.stalls)),
                ("crashes", Json::Int(f.crashes)),
            ]),
        ));
    }
    if let Some(p) = &m.policy {
        fields.push((
            "policy",
            obj(vec![
                ("decisions", Json::Int(p.decisions)),
                ("migrate_decisions", Json::Int(p.migrate_decisions)),
                ("rpc_decisions", Json::Int(p.rpc_decisions)),
                ("flips", Json::Int(p.flips)),
                ("episodes", Json::Int(p.episodes)),
                ("sites", Json::Int(p.sites)),
                ("window_occupancy", Json::Int(p.window_occupancy)),
            ]),
        ));
    }
    obj(fields)
}

/// Serialize labeled rows (one table) to a JSON array.
pub fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                obj(vec![
                    ("scheme", Json::Str(row.label.clone())),
                    ("metrics", metrics_to_json(&row.metrics)),
                ])
            })
            .collect(),
    )
}

/// Serialize Figure 2/3 sweep points to a JSON array.
pub fn points_to_json(points: &[CountingPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                obj(vec![
                    ("requesters", Json::Int(u64::from(p.requesters))),
                    ("rows", rows_to_json(&p.rows)),
                ])
            })
            .collect(),
    )
}

/// Serialize the Table 5 breakdown to JSON.
pub fn breakdown_to_json(lines: &[BreakdownLine], total: f64, migrations: u64) -> Json {
    obj(vec![
        ("migrations", Json::Int(migrations)),
        ("total_cycles_per_migration", Json::Num(total)),
        (
            "categories",
            Json::Obj(
                lines
                    .iter()
                    .map(|l| (l.category.to_string(), Json::Num(l.cycles)))
                    .collect(),
            ),
        ),
    ])
}

/// Render rows as an aligned text table of throughput and bandwidth.
pub fn render_rows(title: &str, rows: &[Row]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>10} {:>8}\n",
        "Scheme", "ops/1000cyc", "words/10cyc", "msgs", "hitrate"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<22} {:>12.4} {:>12.2} {:>10} {:>8.3}\n",
            row.label,
            row.metrics.throughput_per_1000,
            row.metrics.bandwidth_words_per_10,
            row.metrics.messages,
            row.metrics.cache_hit_rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_cell_produces_work() {
        let m = counting_cell(8, 0, Scheme::computation_migration());
        assert!(m.ops > 50, "ops {}", m.ops);
        assert!(m.migrations > 0);
    }

    #[test]
    fn sweep_collects_all_cells() {
        let points = counting_sweep(10_000, &[8, 16]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.rows.len(), 5);
        }
    }

    #[test]
    fn table5_breakdown_totals_in_paper_ballpark() {
        let (lines, total, migrations) = migration_breakdown();
        assert!(migrations > 100, "migrations {migrations}");
        // The paper's Table 5 totals 651 cycles per migration.
        assert!((450.0..900.0).contains(&total), "total {total}");
        let user = lines
            .iter()
            .find(|l| l.category == cat::USER_CODE)
            .unwrap()
            .cycles;
        assert!((100.0..220.0).contains(&user), "user code {user}");
    }

    #[test]
    fn adaptive_sweep_validates_and_serializes() {
        let cells = adaptive_sweep(&[0, 1]);
        assert_eq!(cells.len(), 4); // 2 apps x 2 seeds
        let lines = adaptive_validity(&cells);
        assert!(lines.iter().all(|l| l.starts_with("adaptive-ok")));
        // Per-cell lines plus one aggregate line per app.
        assert_eq!(lines.len(), cells.len() + 2);
        let json = adaptive_to_json(&cells).render();
        assert!(json.contains("\"policy\""));
        assert!(json.contains("\"migrate_decisions\""));
    }

    #[test]
    fn policy_field_absent_without_auto_annotation() {
        let m = counting_cell(8, 0, Scheme::computation_migration());
        assert!(m.policy.is_none());
        assert!(!metrics_to_json(&m).render().contains("\"policy\""));
    }

    #[test]
    fn ablations_hold_their_bounds_and_serialize_stably() {
        let a = ablations();
        let lines = ablation_validity(&a);
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.starts_with("ablation-ok")));
        assert_eq!(
            (
                a.rpc_costs.len(),
                a.hardware.len(),
                a.contention.len(),
                a.topology.len()
            ),
            (6, 4, 4, 4)
        );
        let json = ablations_to_json(&a).render();
        assert_eq!(json, ablations_to_json(&a).render());
        assert!(json.contains("\"cp_over_rpc\""));
    }

    #[test]
    fn render_is_stable() {
        let rows = vec![Row {
            label: "SM".into(),
            metrics: counting_cell(8, 10_000, Scheme::shared_memory()),
        }];
        let s = render_rows("test", &rows);
        assert!(s.contains("SM"));
        assert!(s.contains("ops/1000cyc"));
    }
}
