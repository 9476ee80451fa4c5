//! The three workloads: how each deploys its field from the seed, what its
//! measured phase calls, and which outputs it checks; and the model-checker
//! probe every traced run adds. Why each exists is in `perfbench/README.md`.

use std::time::Instant;

use gs3_core::harness::{Network, NetworkBuilder, RunOutcome};
use gs3_core::{DataplaneConfig, FaultKind, FaultPlan, Gs3Config, Mode};
use gs3_geometry::Point;
use gs3_mc::{Budgets, McReport, McStrategy, ModelChecker, Property, Scenario};
use gs3_sim::radio::EnergyModel;
use gs3_sim::{ContentionConfig, SimDuration, SimTime};

use crate::trace::{ChaosSummary, Tracer};

/// Ideal cell radius and radius tolerance of every deployed field (the
/// million-node probe's geometry).
const R: f64 = 80.0;
const R_T: f64 = 18.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScaleHeal,
    ContendedConfigure,
    DataplaneChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScaleHeal,
        Workload::ContendedConfigure,
        Workload::DataplaneChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleHeal => "scale_heal",
            Workload::ContendedConfigure => "contended_configure",
            Workload::DataplaneChurn => "dataplane_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One model-checked field: its name, the healing bound it is checked
/// under, and whether a `healing_converges` counterexample is expected.
pub struct McField {
    pub name: &'static str,
    pub heal_window_s: Option<u64>,
    pub expect_counterexample: bool,
}

/// Workload sizes, and the fields the traced run model-checks. `FULL` is
/// what the benchmark measures; `SMOKE` runs every workload in seconds
/// with the same checks.
pub struct Size {
    pub scale_nodes: usize,
    pub contended_nodes: usize,
    pub contended_area: f64,
    pub dp_nodes: usize,
    pub dp_waves: u64,
    pub mc_fields: &'static [McField],
}

/// The sound pinned fields under the default budgets, plus `sparse7`
/// under a 10 s healing bound, where its coverage hole is a known
/// `healing_converges` counterexample.
const MC_FIELDS: &[McField] = &[
    McField {
        name: "pair5",
        heal_window_s: None,
        expect_counterexample: false,
    },
    McField {
        name: "triangle9",
        heal_window_s: None,
        expect_counterexample: false,
    },
    McField {
        name: "rel7",
        heal_window_s: None,
        expect_counterexample: false,
    },
    McField {
        name: "sparse7",
        heal_window_s: Some(10),
        expect_counterexample: true,
    },
];

pub const FULL: Size = Size {
    scale_nodes: 20_000,
    contended_nodes: 1400,
    contended_area: 320.0,
    dp_nodes: 10_000,
    dp_waves: 10,
    mc_fields: MC_FIELDS,
};

pub const SMOKE: Size = Size {
    scale_nodes: 1500,
    contended_nodes: 250,
    contended_area: 160.0,
    dp_nodes: 800,
    dp_waves: 3,
    mc_fields: &[
        McField {
            name: "pair5",
            heal_window_s: None,
            expect_counterexample: false,
        },
        McField {
            name: "sparse7",
            heal_window_s: Some(10),
            expect_counterexample: true,
        },
    ],
};

/// `scale_heal`'s simulated windows for configure and for heal.
const SCALE_CONFIGURE_WINDOW: SimDuration = SimDuration::from_secs(65);
const SCALE_HEAL_WINDOW: SimDuration = SimDuration::from_secs(90);

/// `contended_configure` always deploys the ROADMAP's field at this
/// seed. Its flapping is a documented defect of that field; across other
/// seeds the amount of flapping varies by ±12% and some seeds settle, so
/// a seeded deployment would measure the seed, not the code.
const CONTENDED_SEED: u64 = 42;

/// Area radius holding `n` nodes at the 10k-node/860 m density.
fn area_for(n: usize) -> f64 {
    860.0 * (n as f64 / 10_000.0).sqrt()
}

/// Deploys the workload's field from `seed`. Only the generated
/// deployment reaches the program.
pub fn setup(w: Workload, size: &Size, seed: u64) -> Network {
    match w {
        Workload::ScaleHeal => NetworkBuilder::new()
            .ideal_radius(R)
            .radius_tolerance(R_T)
            .area_radius(area_for(size.scale_nodes))
            .expected_nodes(size.scale_nodes)
            .seed(seed)
            .build()
            .expect("valid parameters"),
        Workload::ContendedConfigure => NetworkBuilder::new()
            .ideal_radius(R)
            .radius_tolerance(R_T)
            .area_radius(size.contended_area)
            .expected_nodes(size.contended_nodes)
            .seed(CONTENDED_SEED)
            .contention(ContentionConfig::on())
            .build()
            .expect("valid parameters"),
        Workload::DataplaneChurn => {
            // The energy-conscious heartbeats `baseline_compare` runs its
            // data plane with; the battery is bottomless so the charging
            // code runs without nodes dying of it.
            let mut cfg = Gs3Config::new(R, R_T)
                .expect("valid parameters")
                .with_mode(Mode::Dynamic);
            cfg.intra_heartbeat = SimDuration::from_secs(10);
            cfg.inter_heartbeat = SimDuration::from_secs(15);
            NetworkBuilder::new()
                .config(cfg)
                .area_radius(area_for(size.dp_nodes))
                .expected_nodes(size.dp_nodes)
                .seed(seed)
                .traffic(SimDuration::from_secs(2))
                .dataplane(DataplaneConfig::on())
                .energy(EnergyModel::normalized(160.0), 1e12)
                .build()
                .expect("valid parameters")
        }
    }
}

/// Whether a failed check means a wrong output (`correct` turns false)
/// or an operation that did not complete (counted in `failed` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    Output,
    Completion,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub kind: CheckKind,
}

fn check(checks: &mut Vec<Check>, name: impl Into<String>, passed: bool, kind: CheckKind) {
    checks.push(Check {
        name: name.into(),
        passed,
        kind,
    });
}

/// The deterministic work a run did. Two runs of the same code and seed
/// must agree on it exactly; a pure speed-up must leave it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    pub events: u64,
    pub scheduled_deliveries: u64,
    pub digest: u64,
}

/// Everything one measured iteration produced.
pub struct Outcome {
    pub wall_s: f64,
    /// Host wall time per phase, in the order the phases ran.
    pub phases: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    pub work: Work,
    /// Simulated results: deterministic for a seed, identical under a
    /// pure speed-up.
    pub configure_sim_s: f64,
    pub heal_sim_s: f64,
    pub delivery_ratio: f64,
    pub tx_per_node_s: f64,
    /// Simulated seconds the measured phase advanced.
    pub sim_s: f64,
    /// Final state, kept for the traced run's per-layer counters.
    pub net: Option<Network>,
}

/// Fixpoint-detector parameters exactly as `Network::run_to_fixpoint`
/// derives them: poll every intra heartbeat, stable for longer than the
/// failure-detection windows.
fn fixpoint_params(cfg: &Gs3Config) -> (SimDuration, u32) {
    let poll = cfg.intra_heartbeat;
    let detect = (cfg.intra_timeout() * 2) + (cfg.inter_timeout() * 2);
    (
        poll,
        (detect.as_micros() / poll.as_micros().max(1)) as u32 + 2,
    )
}

/// Runs the fixpoint detector until it fires or `deadline` passes. With
/// `hold`, a run that settled early keeps running, and polling, until
/// `deadline`, so the simulated span is the same on every seed.
fn fixpoint(
    net: &mut Network,
    deadline: SimTime,
    hold: bool,
    tracer: &mut Option<&mut Tracer>,
) -> RunOutcome {
    let (poll, polls) = fixpoint_params(net.config());
    let mut detect = |net: &mut Network, stable_polls| match tracer {
        None => net.run_to_fixpoint_with(poll, stable_polls, deadline),
        Some(t) => t.run_to_fixpoint_with(net, poll, stable_polls, deadline),
    };
    let outcome = detect(net, polls);
    if hold && net.now() < deadline {
        let _ = detect(net, u32::MAX);
    }
    outcome
}

fn violations(net: &mut Network, tracer: &mut Option<&mut Tracer>) -> usize {
    match tracer {
        None => net.check_invariants_incremental().len(),
        Some(t) => t.check_invariants_once(net),
    }
}

/// Simulated time at which a fixpoint was detected, or the deadline.
fn settled_at(outcome: &RunOutcome) -> SimTime {
    match outcome {
        RunOutcome::Fixpoint { at, .. } | RunOutcome::TimedOut { at } => *at,
    }
}

fn enter(tracer: &mut Option<&mut Tracer>, name: &'static str) {
    if let Some(t) = tracer {
        t.enter(name);
    }
}

fn exit(tracer: &mut Option<&mut Tracer>) {
    if let Some(t) = tracer {
        t.exit();
    }
}

fn work_of(net: &Network) -> Work {
    let t = net.engine().trace();
    Work {
        events: net.engine().events_processed(),
        scheduled_deliveries: t.scheduled_deliveries(),
        digest: t.digest(),
    }
}

fn tx_per_node_s(net: &Network, sim_s: f64) -> f64 {
    let t = net.engine().trace();
    (t.unicasts_sent() + t.broadcasts_sent()) as f64 / (net.engine().node_count() as f64 * sim_s)
}

fn outcome(
    wall_s: f64,
    phases: Vec<(&'static str, f64)>,
    checks: Vec<Check>,
    net: Network,
) -> Outcome {
    let sim_s = net.now().as_secs_f64();
    Outcome {
        wall_s,
        phases,
        checks,
        work: work_of(&net),
        configure_sim_s: 0.0,
        heal_sim_s: 0.0,
        delivery_ratio: 0.0,
        tx_per_node_s: tx_per_node_s(&net, sim_s),
        sim_s,
        net: Some(net),
    }
}

/// Runs one measured iteration on a freshly set-up input. With a tracer,
/// every engine step is timed and classified; the work done is the same.
pub fn run(w: Workload, size: &Size, mut net: Network, mut tracer: Option<&mut Tracer>) -> Outcome {
    use CheckKind::{Completion, Output};
    let tr = &mut tracer;
    let mut checks = Vec::new();
    match w {
        Workload::ScaleHeal => {
            // Fixed simulated windows: a seed whose structure settles
            // later does the same simulated work as one that settles
            // early, so wall time measures the code, not the deployment.
            // Over seeds 1-30 configure settles at 48-54 s (the 65 s
            // window leaves at least 11 s) and heal at 54-78 s after the
            // crash (the 90 s window leaves at least 12 s).
            let area = area_for(size.scale_nodes);
            let start = Instant::now();
            enter(tr, "configure");
            let configured = fixpoint(&mut net, SimTime::ZERO + SCALE_CONFIGURE_WINDOW, true, tr);
            exit(tr);
            let t_configure = start.elapsed().as_secs_f64();
            enter(tr, "heal");
            let killed_at = net.now();
            let killed = net.kill_disk(Point::new(area * 0.5, 0.0), 170.0).len();
            let healed = fixpoint(&mut net, killed_at + SCALE_HEAL_WINDOW, true, tr);
            let bad = violations(&mut net, tr);
            exit(tr);
            let wall = start.elapsed().as_secs_f64();
            check(
                &mut checks,
                "configure reaches a fixpoint",
                matches!(configured, RunOutcome::Fixpoint { .. }),
                Completion,
            );
            check(
                &mut checks,
                "the crash disk kills nodes",
                killed > 0,
                Output,
            );
            check(
                &mut checks,
                "heal reaches a fixpoint",
                matches!(healed, RunOutcome::Fixpoint { .. }),
                Completion,
            );
            check(
                &mut checks,
                "no invariant violations after heal",
                bad == 0,
                Output,
            );
            let mut out = outcome(
                wall,
                vec![("configure", t_configure), ("heal", wall - t_configure)],
                checks,
                net,
            );
            out.configure_sim_s = settled_at(&configured).as_secs_f64();
            out.heal_sim_s = settled_at(&healed).since(killed_at).as_secs_f64();
            out
        }
        Workload::ContendedConfigure => {
            let start = Instant::now();
            enter(tr, "configure");
            // `run_to_fixpoint`'s standard 600 s deadline.
            let configured = fixpoint(
                &mut net,
                SimTime::ZERO + SimDuration::from_secs(600),
                false,
                tr,
            );
            let bad = violations(&mut net, tr);
            exit(tr);
            let wall = start.elapsed().as_secs_f64();
            check(
                &mut checks,
                "configure reaches a fixpoint",
                matches!(configured, RunOutcome::Fixpoint { .. }),
                Completion,
            );
            check(
                &mut checks,
                "no invariant violations at the end of configure",
                bad == 0,
                Output,
            );
            let mut out = outcome(wall, vec![("configure", wall)], checks, net);
            out.configure_sim_s = settled_at(&configured).as_secs_f64();
            out
        }
        Workload::DataplaneChurn => {
            let start = Instant::now();
            enter(tr, "configure");
            let configured = fixpoint(
                &mut net,
                SimTime::ZERO + SimDuration::from_secs(600),
                false,
                tr,
            );
            exit(tr);
            let t_configure = start.elapsed().as_secs_f64();
            let plan = (0..size.dp_waves).fold(FaultPlan::new(), |plan, w| {
                plan.at(
                    SimDuration::from_secs(5 + 20 * w),
                    FaultKind::CrashRandom { count: 5 },
                )
            });
            enter(tr, "chaos");
            let chaos = match tr {
                None => {
                    let rep = net.run_chaos(&plan);
                    ChaosSummary {
                        healed: rep.healed(),
                        max_heal_latency: rep.max_heal_latency(),
                    }
                }
                Some(t) => t.run_chaos(&mut net, &plan),
            };
            exit(tr);
            let wall = start.elapsed().as_secs_f64();
            let ledger = net.sink_ledger().expect("the data plane is on");
            check(
                &mut checks,
                "configure reaches a fixpoint",
                matches!(configured, RunOutcome::Fixpoint { .. }),
                Completion,
            );
            check(
                &mut checks,
                "chaos run heals every fault",
                chaos.healed,
                Output,
            );
            check(
                &mut checks,
                "the sink consumes reports",
                ledger.reports > 0,
                Output,
            );
            check(
                &mut checks,
                "the sink books no duplicate batch",
                ledger.duplicate_batches == 0,
                Output,
            );
            let configure_sim_s = settled_at(&configured).as_secs_f64();
            let mut out = outcome(
                wall,
                vec![("configure", t_configure), ("heal", wall - t_configure)],
                checks,
                net,
            );
            out.configure_sim_s = configure_sim_s;
            out.heal_sim_s = chaos.max_heal_latency.map_or(0.0, SimDuration::as_secs_f64);
            let t = out.net.as_ref().expect("kept").engine().trace();
            out.delivery_ratio = t.proto("data_reports_delivered") as f64
                / t.proto("data_reports_produced").max(1) as f64;
            out
        }
    }
}

/// The model-checker layer, which no simulator workload reaches: every
/// traced run certifies the pinned fields and times the checker's two
/// state primitives on their roots.
pub struct Certified {
    pub reports: Vec<McReport>,
    pub checks: Vec<Check>,
    pub wall_s: f64,
    /// Mean time of one `Network::clone` and one `Network::fingerprint`,
    /// summed over the roots.
    pub clone_ns: f64,
    pub fingerprint_ns: f64,
}

/// Runs `ModelChecker` (BFS) on each pinned field and checks its verdict:
/// exhaustive, no violation on the sound fields, and `sparse7`'s known
/// `healing_converges` counterexample under the 10 s healing bound.
pub fn certify(size: &Size, tracer: &mut Tracer) -> Certified {
    use CheckKind::Output;
    const REPS: u32 = 200;
    tracer.enter("certify");
    let start = Instant::now();
    let mut checks = Vec::new();
    let mut reports = Vec::new();
    for field in size.mc_fields {
        let mut budgets = Budgets::default();
        if let Some(s) = field.heal_window_s {
            budgets.heal_window = SimDuration::from_secs(s);
        }
        let scenario = Scenario::by_name(field.name).expect("pinned field exists");
        let report = ModelChecker {
            scenario,
            strategy: McStrategy::Bfs,
            budgets,
        }
        .run();
        check(
            &mut checks,
            format!("{}: search is exhaustive", field.name),
            report.exhaustive,
            Output,
        );
        if field.expect_counterexample {
            let found = report
                .counterexamples
                .iter()
                .any(|c| c.property == Property::HealingConverges);
            check(
                &mut checks,
                format!("{}: healing_converges counterexample found", field.name),
                found,
                Output,
            );
        } else {
            check(
                &mut checks,
                format!("{}: no property violated", field.name),
                !report.has_violations(),
                Output,
            );
        }
        reports.push(report);
    }
    let wall_s = start.elapsed().as_secs_f64();
    tracer.exit();
    let (mut clone_ns, mut fingerprint_ns) = (0.0, 0.0);
    for field in size.mc_fields {
        let root = Scenario::by_name(field.name)
            .expect("pinned field exists")
            .build();
        let t0 = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(root.clone());
        }
        clone_ns += t0.elapsed().as_nanos() as f64 / f64::from(REPS);
        let t0 = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(root.fingerprint());
        }
        fingerprint_ns += t0.elapsed().as_nanos() as f64 / f64::from(REPS);
    }
    Certified {
        reports,
        checks,
        wall_s,
        clone_ns,
        fingerprint_ns,
    }
}
