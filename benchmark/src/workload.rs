//! The four workloads and the experiment cells each one runs.
//!
//! Each workload loads a different layer of the simulator (see README.md):
//! `btree-sm` the coherence oracle's read path, `counting-sm` its write
//! path, `counting-mp` the event queue, network and runtime dispatch at
//! scale, and `btree-faults` the recovery transport and failover.

use migrate_apps::btree::BTreeExperiment;
use migrate_apps::counting::CountingExperiment;
use migrate_rt::rng::SplitMix64;
use migrate_rt::{Annotation, FailoverConfig, Scheme};
use proteus::{Cycles, FaultPlan, ProcId};

/// One of the benchmark's named workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper B-tree under shared memory: coherence reads.
    BtreeSm,
    /// Paper counting network under shared memory: coherence writes.
    CountingSm,
    /// Counting network, 96 requesters, message passing.
    CountingMp,
    /// Capped B-tree runs under chaos faults or a processor kill.
    BtreeFaults,
}

/// The experiment a cell builds.
#[derive(Clone, Debug)]
pub enum App {
    /// A B-tree experiment.
    BTree(BTreeExperiment),
    /// A counting-network experiment.
    Counting(CountingExperiment),
}

/// One experiment cell: an experiment plus the window it is measured over.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Short name, unique within the workload.
    pub label: String,
    /// What to build.
    pub app: App,
    /// Simulated cycles run before the measurement window.
    pub warmup: Cycles,
    /// Simulated cycles measured.
    pub window: Cycles,
}

impl Cell {
    /// Requesting threads.
    pub fn requesters(&self) -> u64 {
        u64::from(match &self.app {
            App::BTree(e) => e.requesters,
            App::Counting(e) => e.requesters,
        })
    }

    /// Think time between a requester's operations.
    pub fn think(&self) -> Cycles {
        match &self.app {
            App::BTree(e) => e.think,
            App::Counting(e) => e.think,
        }
    }

    /// Operations each requester issues before halting, for capped cells.
    pub fn cap(&self) -> Option<u64> {
        match &self.app {
            App::BTree(e) => e.requests_per_thread,
            App::Counting(e) => e.requests_per_thread,
        }
    }

    /// The processor the cell's fault plan kills, if any.
    pub fn victim(&self) -> Option<ProcId> {
        let faults = match &self.app {
            App::BTree(e) => &e.faults,
            App::Counting(e) => &e.faults,
        };
        faults
            .as_ref()
            .and_then(|f| f.kill)
            .map(|(victim, _)| victim)
    }
}

/// Fault plans each `btree-faults` seed draws.
const FAULT_DRAWS: usize = 4;
/// B-tree requests per requester in a `btree-faults` cell.
const FAULT_CAP: u64 = 200;
/// Horizon of a `btree-faults` cell: long enough for every capped driver to
/// finish and for a kill to be detected (heartbeat silence ≈ 225k cycles)
/// and promoted, whatever the seed.
const FAULT_HORIZON: Cycles = Cycles(30_000_000);

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 4] = [
        Workload::BtreeSm,
        Workload::CountingSm,
        Workload::CountingMp,
        Workload::BtreeFaults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BtreeSm => "btree-sm",
            Workload::CountingSm => "counting-sm",
            Workload::CountingMp => "counting-mp",
            Workload::BtreeFaults => "btree-faults",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells of this workload for `seed`. The same seed gives the same
    /// cells. B-tree cells take their placement and key streams from the
    /// seed, and fault cells their fault plans. The counting network has no
    /// random input, so there the seed sets the warm-up and window lengths,
    /// which move where the measurement window falls.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut rng = SplitMix64::new(seed);
        let mut draw = move || rng.next_u64();
        match self {
            Workload::BtreeSm => vec![Cell {
                label: "SM".into(),
                app: App::BTree(BTreeExperiment {
                    seed: draw(),
                    ..BTreeExperiment::paper(0, Scheme::shared_memory())
                }),
                warmup: Cycles(200_000),
                window: Cycles(30_000_000),
            }],
            Workload::CountingSm => vec![Cell {
                label: "SM".into(),
                app: App::Counting(CountingExperiment::paper(32, 0, Scheme::shared_memory())),
                warmup: Cycles(150_000 + draw() % 100_000),
                window: Cycles(40_000_000 + draw() % 200_000),
            }],
            Workload::CountingMp => {
                let warmup = Cycles(150_000 + draw() % 100_000);
                let window = Cycles(20_000_000 + draw() % 100_000);
                let cp = Scheme::computation_migration();
                [
                    ("RPC", Scheme::rpc(), Annotation::Migrate),
                    ("CP", cp, Annotation::Migrate),
                    ("CP w/HW", cp.with_hardware(), Annotation::Migrate),
                    ("CP auto", cp, Annotation::Auto),
                ]
                .into_iter()
                .map(|(label, scheme, annotation)| Cell {
                    label: label.into(),
                    app: App::Counting(CountingExperiment {
                        annotation,
                        ..CountingExperiment::paper(96, 10_000, scheme)
                    }),
                    warmup,
                    window,
                })
                .collect()
            }
            Workload::BtreeFaults => {
                // Which processor dies, and when, moves the modelled results
                // a lot (one plan doubled the mean RPC latency), so each
                // seed draws several fault plans and the workload averages
                // over them. Processors below `data_procs` hold tree nodes.
                let data_procs = u64::from(BTreeExperiment::paper(0, Scheme::rpc()).data_procs);
                let draws: Vec<(u64, u64, ProcId, Cycles)> = (0..FAULT_DRAWS)
                    .map(|_| {
                        let tree_seed = draw();
                        let chaos_seed = draw();
                        let victim = ProcId((draw() % data_procs) as u32);
                        (
                            tree_seed,
                            chaos_seed,
                            victim,
                            Cycles(100_000 + draw() % 400_000),
                        )
                    })
                    .collect();
                let mut cells = Vec::new();
                for (name, scheme, annotation) in [
                    ("CM auto", Scheme::computation_migration(), Annotation::Auto),
                    ("RPC", Scheme::rpc(), Annotation::Migrate),
                ] {
                    for (i, &(tree_seed, chaos_seed, victim, kill_at)) in draws.iter().enumerate() {
                        let base = BTreeExperiment {
                            seed: tree_seed,
                            requests_per_thread: Some(FAULT_CAP),
                            annotation,
                            ..BTreeExperiment::paper(0, scheme)
                        };
                        // Chaos without failover, and a kill with failover:
                        // chaos composed with failover is known to declare
                        // live processors dead, so it is not a performance
                        // workload.
                        let chaos = BTreeExperiment {
                            faults: Some(FaultPlan::chaos(chaos_seed)),
                            ..base.clone()
                        };
                        let kill = BTreeExperiment {
                            faults: Some(FaultPlan::fail_stop(victim, kill_at)),
                            failover: FailoverConfig {
                                enabled: true,
                                ..FailoverConfig::default()
                            },
                            ..base
                        };
                        for (kind, exp) in [("chaos", chaos), ("kill", kill)] {
                            cells.push(Cell {
                                label: format!("{name} {kind} {i}"),
                                app: App::BTree(exp),
                                warmup: Cycles::ZERO,
                                window: FAULT_HORIZON,
                            });
                        }
                    }
                }
                cells
            }
        }
    }
}
