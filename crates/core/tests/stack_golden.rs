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
//! left out. The rows were generated on the commit *before*
//! `PreparedPipeline` and `PreparedCore` came to share one implementation,
//! when each had its own copy of the stack, so they hold both faces to
//! what the two copies computed. The batch rows are that commit's
//! pretrained rows: pretraining decides only when agents are trained, and
//! the test asserts it moves no digest. The two star `ExactOracle` rows
//! were regenerated when the knapsack bounds began to count only items
//! that fit the largest room: the certificates' `upper_bound` and `nodes`
//! moved, and digests without those two fields equal the earlier rows on
//! all 24 rows.
//!
//! One prepared pipeline per (world, face) answers its 6 × 40 runs in the
//! fixed order below. For two things the order is part of the golden: the
//! batch face draws `RandomMapping` from one sequential stream and learns
//! availability from every `Proactive` round.
//! `the_faces_differ_in_two_things_only` pins those differences directly;
//! for agents no order matters (`touch_order.rs`).

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::baselines::random_mapping;
use dcta_core::objective::{AllocQuery, Objective};
use dcta_core::pipeline::{
    DayReport, FaultRunReport, Method, Pipeline, PipelineConfig, PreparedPipeline, RunReport,
    RunSpec, Topology,
};
use dcta_core::processor::ProcessorFleet;
use dcta_core::recovery::RecoveryMode;
use dcta_core::shared::PreparedCore;
use edgesim::cluster::MeshSpec;
use edgesim::faults::FaultSchedule;
use edgesim::trace::FailureKind;
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

/// The two faces of the prepared stack behind one call shape.
enum Face<'s> {
    Batch(Box<PreparedPipeline<'s>>),
    Frozen(Box<PreparedCore>),
}

impl<'s> Face<'s> {
    fn prepare(s: &'s Scenario, world: &str, face: &str) -> Self {
        let builder = Pipeline::builder(config(world));
        match face {
            "batch" => Face::Batch(Box::new(builder.prepare(s).unwrap())),
            "pretrained" => {
                let prepared = builder.prepare(s).unwrap();
                let day = prepared.test_days().start;
                prepared.crl().pretrain(&prepared.instance_for_day(day).unwrap()).unwrap();
                Face::Batch(Box::new(prepared))
            }
            _ => Face::Frozen(Box::new(builder.prepare(s).unwrap().into_core().unwrap())),
        }
    }

    fn run(&mut self, spec: &RunSpec) -> RunReport {
        match self {
            Face::Batch(p) => p.run(spec),
            Face::Frozen(c) => c.run(spec),
        }
        .unwrap()
    }

    fn fleet(&self) -> &ProcessorFleet {
        match self {
            Face::Batch(p) => p.fleet(),
            Face::Frozen(c) => c.fleet(),
        }
    }

    fn first_day(&self) -> usize {
        match self {
            Face::Batch(p) => p.test_days().start,
            Face::Frozen(c) => c.test_days().start,
        }
    }

    fn posterior(&self) -> String {
        match self {
            Face::Batch(p) => p.availability().to_text(),
            Face::Frozen(c) => c.availability().to_text(),
        }
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
fn digest_method(face: &mut Face<'_>, method: Method, tasks: usize) -> (u64, usize) {
    let schedule = schedule(face.fleet());
    let first = face.first_day();
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
    h.text(&face.posterior());
    (h.0, bite)
}

/// `(world, face, method, digest)`, generated on the parent of the
/// one-stack change (`"batch"` is its `"pretrained"`).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, Method, u64)] = &[
    ("star", "batch", Method::RandomMapping, 0x80cb76e59a55d9ba),
    ("star", "batch", Method::Dml, 0x2ee2dad306ebe233),
    ("star", "batch", Method::GreedyOracle, 0xadf34b8fd4443a30),
    ("star", "batch", Method::ExactOracle, 0x85be0374ce5318bd),
    ("star", "batch", Method::Crl, 0x835b09a838734cfb),
    ("star", "batch", Method::Dcta, 0x0e5ae74671d06e98),
    ("star", "frozen", Method::RandomMapping, 0xd1fb8b237964ab9d),
    ("star", "frozen", Method::Dml, 0x10464d755b70891d),
    ("star", "frozen", Method::GreedyOracle, 0xc8288f594926e446),
    ("star", "frozen", Method::ExactOracle, 0xc7c7c894d2d4460c),
    ("star", "frozen", Method::Crl, 0x98a3b84d6a472f9e),
    ("star", "frozen", Method::Dcta, 0x1bb090c7a550530c),
    ("mesh16", "batch", Method::RandomMapping, 0x050e52f53d354ff9),
    ("mesh16", "batch", Method::Dml, 0x5e89ac5db1025881),
    ("mesh16", "batch", Method::GreedyOracle, 0x21f9951d710d5683),
    ("mesh16", "batch", Method::ExactOracle, 0x9e47ac972fdda052),
    ("mesh16", "batch", Method::Crl, 0x53699acdea384844),
    ("mesh16", "batch", Method::Dcta, 0x5ea1a07220c6b51a),
    ("mesh16", "frozen", Method::RandomMapping, 0x4ceec3ec567d94b6),
    ("mesh16", "frozen", Method::Dml, 0x337abdb5ec876f37),
    ("mesh16", "frozen", Method::GreedyOracle, 0x5328ac8f5fb1f0f1),
    ("mesh16", "frozen", Method::ExactOracle, 0xe67439763db15727),
    ("mesh16", "frozen", Method::Crl, 0xe4b8eff8b8ce4ff5),
    ("mesh16", "frozen", Method::Dcta, 0x91c71446006283ba),
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

/// The complete list of what the batch face and the frozen core do
/// differently (the `shared` module docs): the `RandomMapping` RNG and
/// availability learning.
#[test]
fn the_faces_differ_in_two_things_only() {
    let s = small_scenario();
    let cfg = config("star");
    let mut batch = Pipeline::new(cfg.clone()).prepare(&s).unwrap();
    let core = Pipeline::new(cfg.clone()).prepare(&s).unwrap().into_core().unwrap();
    let day = core.test_days().start;
    let rm = |d| AllocQuery::new(Method::RandomMapping, d);

    // Batch: one sequential stream seeded at prepare, whatever the day.
    let blind = core.blind_instance();
    let mut stream = StdRng::seed_from_u64(cfg.seed ^ 0x51AB);
    for d in [day + 1, day, day] {
        let want = random_mapping(&blind, &mut stream);
        assert_eq!(batch.allocate(&rm(d)).unwrap().allocation, want, "batch draw on day {d}");
    }
    // Frozen: keyed by (seed, day), so neither repeats nor other days'
    // requests in between move a draw.
    let first = core.allocate(&rm(day)).unwrap().allocation;
    let other = core.allocate(&rm(day + 1)).unwrap().allocation;
    assert_ne!(first, other, "different days draw different mappings");
    assert_eq!(core.allocate(&rm(day)).unwrap().allocation, first);
    assert_eq!(core.allocate(&rm(day + 1)).unwrap().allocation, other);

    // A Proactive round teaches the batch posterior and leaves the frozen
    // one alone; no other mode teaches either.
    let spec = |mode| RunSpec::new(Method::Dml, day).with_faults(schedule(core.fleet()), mode);
    let (batch_before, core_before) =
        (batch.availability().to_text(), core.availability().to_text());
    assert_eq!(batch_before, core_before);
    for mode in [RecoveryMode::None, RecoveryMode::Resolve, RecoveryMode::RandomShed] {
        batch.run(&spec(mode)).unwrap();
        core.run(&spec(mode)).unwrap();
    }
    assert_eq!(batch.availability().to_text(), batch_before);
    batch.run(&spec(RecoveryMode::Proactive)).unwrap();
    core.run(&spec(RecoveryMode::Proactive)).unwrap();
    assert_ne!(batch.availability().to_text(), batch_before, "the batch face learns");
    assert_eq!(core.availability().to_text(), core_before, "the frozen core never does");
}
