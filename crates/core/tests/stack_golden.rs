//! Golden digests of the allocate → simulate → recover → score stack.
//!
//! Each constant below is an FNV-1a digest of every deterministic field of
//! the [`RunReport`]s one method produces — allocation, simulated PT,
//! decision performance, captured/delivered importance, `shed`, `lost`, the
//! failure log, `down_at_end`, the solver certificate — over healthy runs
//! and faulted runs under each [`RecoveryMode`], under the blank,
//! route-cost, survival and importance-override objectives, on two days,
//! followed by the availability posterior the runs left behind. The
//! measured `reallocation_latency_s` and the PT sum that contains it are
//! left out.
//!
//! A face is a history, not a type: one [`PreparedCore`] per (world, face)
//! answers its 6 × 40 runs in the fixed order below. `"frozen"` observes
//! nothing. `"batch"` observes every `Proactive` round right after its run
//! (`observe_faults`), so the posterior every later survival-weighted run
//! reads depends on that order. `"pretrained"` is `"batch"` with every agent
//! trained up front, and the test asserts that it moves no digest.
//! `learning_is_explicit_and_rm_draws_by_seed_and_day` pins both rules
//! directly. For agents, no order matters (`touch_order.rs`).
//!
//! The frozen rows were generated on the commit *before* the batch and
//! frozen pipelines came to share one implementation, when each had its
//! own copy of the stack. The batch rows were regenerated once, when every
//! `RandomMapping` draw became keyed by `(seed, day)`. RM runs first, and
//! its `Proactive` rounds feed the posterior that every later method
//! reads, so all twelve moved. The two star `ExactOracle` rows were also
//! regenerated once, when the knapsack bounds began to count only items
//! that fit the largest room; that moved only the certificates'
//! `upper_bound` and `nodes`. All 24 rows were regenerated once, when no
//! solver would pack a zero-importance task and DCTA's projection left out
//! a task the general process rates zero: every method's faulted runs
//! re-plan through the solver and feed the posterior later runs read. The
//! eight `GreedyOracle` and `ExactOracle` rows were regenerated once, when
//! the oracles' packings began to go through the placer DCTA's go
//! through; their survival-weighted runs, the only ones a posterior
//! learns from, kept their placement, so no other row moved.

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::baselines::random_mapping;
use dcta_core::objective::{AllocQuery, Objective};
use dcta_core::pipeline::{
    DayReport, FaultRunReport, Method, Pipeline, PipelineConfig, RunReport, RunSpec, Topology,
};
use dcta_core::processor::ProcessorFleet;
use dcta_core::recovery::RecoveryMode;
use dcta_core::shared::PreparedCore;
use edgesim::cluster::MeshSpec;
use edgesim::faults::FaultSchedule;
use edgesim::node::NodeId;
use edgesim::trace::{node_exposures, FailureKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn indices(&mut self, xs: &[usize]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x as u64);
        }
    }

    fn placement(&mut self, placement: &[Option<usize>]) {
        self.u64(placement.len() as u64);
        for p in placement {
            self.u64(p.map_or(0, |p| p as u64 + 1));
        }
    }

    fn healthy(&mut self, r: &DayReport) {
        self.placement(r.allocation.placement());
        self.f64(r.processing_time_s);
        self.f64(r.decision_performance);
        self.u64(r.scheduled as u64);
        self.f64(r.captured_importance);
        match r.solver {
            None => self.u64(0),
            Some(c) => {
                self.u64(1 + u64::from(c.proved_optimal));
                self.f64(c.gap);
                self.f64(c.upper_bound);
                self.u64(c.nodes);
            }
        }
    }

    fn faulted(&mut self, r: &FaultRunReport) {
        self.placement(r.allocation.placement());
        self.f64(r.healthy_processing_time_s);
        self.f64(r.healthy_importance);
        self.f64(r.healthy_decision_performance);
        self.f64(r.simulated_processing_time_s);
        self.u64(r.delivered as u64);
        self.f64(r.delivered_importance);
        self.f64(r.retained_fraction);
        self.f64(r.decision_performance);
        self.indices(&r.shed);
        self.indices(&r.lost);
        self.u64(r.failures.len() as u64);
        for f in &r.failures {
            self.f64(f.time);
            let (tag, a, b, c) = match f.kind {
                FailureKind::NodeCrashed(n) => (1, n.0, 0, 0),
                FailureKind::NodeRecovered(n) => (2, n.0, 0, 0),
                FailureKind::LinkWentDown(n) => (3, n.0, 0, 0),
                FailureKind::LinkRestored(n) => (4, n.0, 0, 0),
                FailureKind::AttemptAborted { task, node, attempt } => (5, task, node.0, attempt),
                FailureKind::TimeoutDetected { task, node, attempt } => (6, task, node.0, attempt),
                FailureKind::Redispatched { task, node, attempt } => (7, task, node.0, attempt),
                FailureKind::TaskFailed { task, attempts } => (8, task, attempts, 0),
            };
            for x in [tag, a, b, c] {
                self.u64(x as u64);
            }
        }
        self.u64(r.down_at_end.len() as u64);
        for n in &r.down_at_end {
            self.u64(n.0 as u64);
        }
    }

    fn text(&mut self, text: &str) {
        self.u64(text.len() as u64);
        for byte in text.bytes() {
            self.u64(u64::from(byte));
        }
    }
}

const METHODS: [Method; 6] = [
    Method::RandomMapping,
    Method::Dml,
    Method::GreedyOracle,
    Method::ExactOracle,
    Method::Crl,
    Method::Dcta,
];

const MODES: [RecoveryMode; 4] =
    [RecoveryMode::None, RecoveryMode::Resolve, RecoveryMode::RandomShed, RecoveryMode::Proactive];

const WORLDS: [&str; 2] = ["star", "mesh16"];
const FACES: [&str; 3] = ["batch", "pretrained", "frozen"];

fn small_scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks: 12,
        history_days: 50,
        eval_days: 8,
        mean_input_mbit: 40.0,
        ..ScenarioConfig::default()
    })
    .unwrap()
}

fn config(world: &str) -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        topology: match world {
            "star" => Topology::Star,
            _ => Topology::Mesh(MeshSpec::new(16, 5)),
        },
        env_history_days: 5,
        crl: CrlConfig {
            episodes: 12,
            dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// One prepared core under one history. A learning face (`"batch"`,
/// `"pretrained"`) observes every `Proactive` round right after its run;
/// `"frozen"` observes nothing.
struct Face {
    core: PreparedCore,
    learns: bool,
}

impl Face {
    fn prepare(s: &Scenario, world: &str, face: &str) -> Self {
        let core = Pipeline::builder(config(world)).prepare(s).unwrap();
        if face == "pretrained" {
            let day = core.test_days().start;
            core.crl().pretrain(&core.instance_for_day(day).unwrap()).unwrap();
        }
        Self { core, learns: face != "frozen" }
    }

    fn run(&mut self, spec: &RunSpec) -> RunReport {
        let report = self.core.run(spec).unwrap();
        if let Some(faulted) = report.as_faulted() {
            if self.learns && faulted.mode == RecoveryMode::Proactive {
                self.core.observe_faults(faulted);
            }
        }
        report
    }
}

/// A crash for good, a crash that recovers, a link outage and a straggler,
/// all inside the first seconds of a round that lasts tens of seconds.
fn schedule(fleet: &ProcessorFleet) -> FaultSchedule {
    FaultSchedule::new()
        .with_crash(fleet.node_of(0), 0.2)
        .and_then(|s| s.with_crash(fleet.node_of(1), 0.5))
        .and_then(|s| s.with_recovery(fleet.node_of(1), 4.0))
        .and_then(|s| s.with_link_outage(fleet.node_of(2), 0.1, 3.0))
        .and_then(|s| s.with_straggler(fleet.node_of(3), 0.0, 6.0, 3.0))
        .expect("finite, ordered fault times")
}

fn objectives(tasks: usize) -> [Objective; 4] {
    let overrides = (0..tasks).map(|j| ((j * 7) % tasks) as f64 / tasks as f64).collect();
    [
        Objective::new(),
        Objective::new().with_route_cost(true),
        Objective::new().with_survival(true),
        Objective::new().with_importances(overrides),
    ]
}

/// One method's 40 runs on `face`, then the posterior they left behind.
/// Returns the digest and the number of failure records, shed and lost
/// tasks it covers.
fn digest_method(face: &mut Face, method: Method, tasks: usize) -> (u64, usize) {
    let schedule = schedule(face.core.fleet());
    let first = face.core.test_days().start;
    let mut h = Fnv::new();
    let mut bite = 0;
    for day in [first, first + 2] {
        for objective in objectives(tasks) {
            let spec = RunSpec::new(method, day).with_objective(objective);
            h.healthy(face.run(&spec).as_healthy().expect("fault-free spec"));
            for mode in MODES {
                let report = face.run(&spec.clone().with_faults(schedule.clone(), mode));
                let report = report.as_faulted().expect("faulted spec");
                bite += report.failures.len() + report.shed.len() + report.lost.len();
                h.faulted(report);
            }
        }
    }
    h.text(&face.core.availability().to_text());
    (h.0, bite)
}

/// `(world, face, method, digest)` (see the module docs for where each
/// row comes from).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, Method, u64)] = &[
    ("star", "batch", Method::RandomMapping, 0x5a3284e91d6f96ab),
    ("star", "batch", Method::Dml, 0xec04732d4356e51d),
    ("star", "batch", Method::GreedyOracle, 0x8ef556de89cd2c78),
    ("star", "batch", Method::ExactOracle, 0x782a57a45d4e5d23),
    ("star", "batch", Method::Crl, 0xe051d9c33c21c51a),
    ("star", "batch", Method::Dcta, 0x87647b535a36dcc7),
    ("star", "frozen", Method::RandomMapping, 0xc49e3263a10730c5),
    ("star", "frozen", Method::Dml, 0x98871b745bef82dd),
    ("star", "frozen", Method::GreedyOracle, 0xe161ef4c74460ee4),
    ("star", "frozen", Method::ExactOracle, 0x56a7962bf0c04140),
    ("star", "frozen", Method::Crl, 0x522b1ec1583e61c5),
    ("star", "frozen", Method::Dcta, 0xbb8207f90a5c6813),
    ("mesh16", "batch", Method::RandomMapping, 0x37d8041817d331db),
    ("mesh16", "batch", Method::Dml, 0x52f2f9f972560587),
    ("mesh16", "batch", Method::GreedyOracle, 0x50ab7f6fd20a5fb1),
    ("mesh16", "batch", Method::ExactOracle, 0xa650101bc61b0baa),
    ("mesh16", "batch", Method::Crl, 0xbaafc45af44cff61),
    ("mesh16", "batch", Method::Dcta, 0x797c2dc91480a969),
    ("mesh16", "frozen", Method::RandomMapping, 0x8484e2b8910d6a3a),
    ("mesh16", "frozen", Method::Dml, 0x2548ab7b8835ca9f),
    ("mesh16", "frozen", Method::GreedyOracle, 0xf1d272b6e480514b),
    ("mesh16", "frozen", Method::ExactOracle, 0x7251e2fc725b5773),
    ("mesh16", "frozen", Method::Crl, 0xdfa6887aee412763),
    ("mesh16", "frozen", Method::Dcta, 0x2bb69bfd2b772a43),
];

#[test]
fn stack_reports_match_parent_commit_digests() {
    let s = small_scenario();
    let mut actual = Vec::new();
    let mut bite = 0;
    for world in WORLDS {
        for face_name in FACES {
            let mut face = Face::prepare(&s, world, face_name);
            for method in METHODS {
                let (digest, b) = digest_method(&mut face, method, s.num_tasks());
                bite += b;
                actual.push((world, face_name, method, digest));
            }
        }
    }
    // Pretraining changes no digest: its rows repeat the batch rows.
    let digests_of = |face| {
        let rows = actual.iter().filter(move |row| row.1 == face);
        rows.map(|&(world, _, method, digest)| (world, method, digest)).collect::<Vec<_>>()
    };
    assert_eq!(digests_of("pretrained"), digests_of("batch"));
    actual.retain(|row| row.1 != "pretrained");
    // The schedule must bite, or the faulted digests pin nothing.
    assert!(bite > 5000, "only {bite} failure records, shed and lost tasks across the runs");
    if actual.as_slice() != GOLDEN {
        for (world, face, method, digest) in &actual {
            eprintln!("    ({world:?}, {face:?}, Method::{method:?}, {digest:#018x}),");
        }
        panic!("stack reports drifted from the pinned digests (actual rows above)");
    }
}

/// A run only reads the availability posterior; `observe_faults` is the
/// absorb-and-advance a `Proactive` run once did inside itself, whether or
/// not anything failed; and an RM draw is a function of `(seed, day)` alone.
#[test]
fn learning_is_explicit_and_rm_draws_by_seed_and_day() {
    let s = small_scenario();
    let cfg = config("star");
    let mut core = Pipeline::new(cfg.clone()).prepare(&s).unwrap();
    let day = core.test_days().start;
    let nodes: Vec<NodeId> = core.fleet().processors().iter().map(|p| p.node).collect();
    let proactive =
        |schedule| RunSpec::new(Method::Dml, day).with_faults(schedule, RecoveryMode::Proactive);

    let before = core.availability().to_text();
    let bitten = core.run(&proactive(schedule(core.fleet()))).unwrap().into_faulted().unwrap();
    assert!(!bitten.failures.is_empty(), "the schedule must bite");
    assert_eq!(core.availability().to_text(), before, "a run learns nothing");
    let quiet = core.run(&proactive(FaultSchedule::new())).unwrap().into_faulted().unwrap();
    assert!(quiet.failures.is_empty());
    // A recovery round adds to the simulated PT; the exposure horizon is
    // the faulted round's alone.
    let resolve =
        RunSpec::new(Method::Dml, day).with_faults(schedule(core.fleet()), RecoveryMode::Resolve);
    let resolved = core.run(&resolve).unwrap().into_faulted().unwrap();
    assert!(resolved.faulted_processing_time_s < resolved.simulated_processing_time_s);

    for report in [bitten, quiet, resolved] {
        let horizon = report.faulted_processing_time_s.max(1e-9);
        let absorbed = core.availability().clone();
        absorbed.absorb(&node_exposures(&report.failures, &nodes, horizon));
        let advanced = absorbed.clone();
        advanced.advance_round();
        core.observe_faults(&report);
        let learned = core.availability().to_text();
        assert_eq!(learned, advanced.to_text(), "{} failures", report.failures.len());
        assert_ne!(learned, absorbed.to_text(), "the round advances");
    }

    // Keyed by (seed, day): other days' draws in between move nothing.
    let rm = |d| AllocQuery::new(Method::RandomMapping, d);
    let keyed = |d: usize| {
        let key = cfg.seed ^ 0x51AB ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        random_mapping(&core.blind_instance(), &mut StdRng::seed_from_u64(key))
    };
    assert_ne!(keyed(day), keyed(day + 1), "different days draw different mappings");
    for d in [day + 1, day, day, day + 2, day + 1] {
        assert_eq!(core.allocate(&rm(d)).unwrap().allocation, keyed(d), "draw on day {d}");
    }
}
