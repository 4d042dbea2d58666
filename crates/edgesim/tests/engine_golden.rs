//! Golden digests of complete engine reports, mesh and star.
//!
//! Each constant below is an FNV-1a digest of one whole [`SimReport`] or
//! [`FaultReport`] — PT, every timeline, the failure log, both busy ledgers
//! (sorted by node id). The engines must keep reproducing them to the bit:
//! any drift in a rate, a reservation, a fire time or a same-instant
//! tie-break lands in a timeline or in the order of the failure log and
//! changes the digest.
//!
//! **Mesh** ([`GOLDEN`]): generated on the commit *before* the mesh engine
//! moved from versioned lazy deletion to one live completion per flow. The
//! 24 worlds are 4 node counts × 3 mesh seeds × 2 task shapes. The `ties`
//! shape draws sizes from two exact values (so flows finish at the same
//! instant and the `(time, seq)` tie-break decides the order) and gives
//! every third task a zero-bit result (a flow that skips the fluid phase).
//! Every faulted round carries crash+recover pairs, a crash with no
//! recovery, link outages and a straggler window.
//!
//! **Star** ([`STAR_GOLDEN`]): generated on the commit *before* the star's
//! global event loop and its `HashMap`-state fault engine were replaced by
//! the closed-form per-node legs and the shared task lifecycle on the FIFO
//! transport — these digests are the contract that let both be deleted
//! rather than kept as oracles. Both [`MediumMode`]s; healthy rounds at
//! paper size, skewed onto three nodes, and on both sides of the 256-task
//! parallel fan-out threshold; the same mixed fault schedule as the mesh
//! worlds; and one scripted round per recovery path (see [`scenarios`]).

use edgesim::cluster::{Cluster, MeshSpec};
use edgesim::faults::FaultSchedule;
use edgesim::network::MediumMode;
use edgesim::node::{DeviceModel, Node, NodeId};
use edgesim::run::{
    simulate, simulate_with_faults, simulate_with_faults_biased, FaultReport, NodeAssignment,
    RedispatchPrefs, RetryPolicy, SimConfig, SimReport, SimTask, TaskTimeline,
};
use edgesim::trace::FailureKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

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

    fn timelines(&mut self, timelines: &[Option<TaskTimeline>]) {
        self.u64(timelines.len() as u64);
        for t in timelines {
            match t {
                None => self.u64(0),
                Some(t) => {
                    self.u64(1);
                    self.u64(t.node.0 as u64);
                    self.f64(t.transfer_start);
                    self.f64(t.compute_start);
                    self.f64(t.compute_end);
                    self.f64(t.result_at);
                }
            }
        }
    }

    fn ledger(&mut self, ledger: &HashMap<NodeId, f64>) {
        let mut rows: Vec<(NodeId, f64)> = ledger.iter().map(|(&n, &s)| (n, s)).collect();
        rows.sort_by_key(|&(n, _)| n);
        self.u64(rows.len() as u64);
        for (n, s) in rows {
            self.u64(n.0 as u64);
            self.f64(s);
        }
    }
}

fn digest_healthy(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.processing_time);
    h.timelines(&r.timelines);
    h.ledger(&r.node_busy);
    h.ledger(&r.link_busy);
    h.0
}

fn digest_faulted(r: &FaultReport) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.processing_time);
    h.timelines(&r.timelines);
    for (&done, &attempts) in r.completed.iter().zip(&r.attempts) {
        h.u64(u64::from(done));
        h.u64(attempts as u64);
    }
    h.u64(r.failures.len() as u64);
    for f in &r.failures {
        h.f64(f.time);
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
            h.u64(x as u64);
        }
    }
    h.ledger(&r.node_busy);
    h.ledger(&r.link_busy);
    h.u64(r.down_at_end.len() as u64);
    for n in &r.down_at_end {
        h.u64(n.0 as u64);
    }
    h.0
}

const TASKS_PER_WORKER: usize = 3;

/// Three tasks per worker, round-robin. `ties` draws input sizes from two
/// exact values and zeroes every third result.
fn round(workers: &[NodeId], seed: u64, ties: bool) -> (Vec<SimTask>, NodeAssignment) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A5C);
    let n = TASKS_PER_WORKER * workers.len();
    let tasks = (0..n)
        .map(|i| {
            let (bits, result) = if ties {
                let bits = if rng.gen_bool(0.5) { 1e6 } else { 2e6 };
                (bits, if i % 3 == 0 { 0.0 } else { 1e4 })
            } else {
                let bits = rng.gen_range(2e5..4e6);
                (bits, bits * 0.01)
            };
            SimTask::new(bits, result, 1.0).expect("valid sizes")
        })
        .collect();
    let assignment =
        NodeAssignment::from_vec((0..n).map(|i| Some(workers[i % workers.len()])).collect());
    (tasks, assignment)
}

/// 5 % of the workers crash and recover 0.2 PT later, one more crashes for
/// good, 2 % lose their uplink for 0.2 PT, and one straggles at 3× through
/// the first half of the round — all at seeded instants inside the healthy
/// round's span.
fn faults(workers: &[NodeId], seed: u64, healthy_pt: f64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
    let share = |s: f64| ((s * workers.len() as f64).ceil() as usize).max(1);
    let (crashes, outages) = (share(0.05), share(0.02));
    let mut victims = workers.to_vec();
    victims.shuffle(&mut rng);
    let mttr = 0.2 * healthy_pt;
    let mut schedule = FaultSchedule::new();
    for (k, &node) in victims.iter().take(crashes + outages + 2).enumerate() {
        let at = rng.gen_range(0.0..1.0) * healthy_pt;
        schedule = if k < crashes {
            schedule.with_crash(node, at).and_then(|s| s.with_recovery(node, at + mttr))
        } else if k < crashes + outages {
            schedule.with_link_outage(node, at, at + mttr)
        } else if k == crashes + outages {
            schedule.with_crash(node, at)
        } else {
            schedule.with_straggler(node, 0.0, 0.5 * healthy_pt, 3.0)
        }
        .expect("finite, ordered fault times");
    }
    schedule
}

/// `(nodes, mesh seed, ties, healthy digest, faulted digest)`, generated on
/// the parent of the one-live-completion-per-flow change.
#[rustfmt::skip]
const GOLDEN: [(usize, u64, bool, u64, u64); 24] = [
    (16, 1, false, 0xe8b76ce4e4e49c7a, 0xac1ffaa8a85e048d),
    (16, 1, true, 0xd82dfb33f7084d16, 0x0901f2c98a1767e0),
    (16, 2, false, 0xefc9968a6f03ee00, 0x92eb47917650c12e),
    (16, 2, true, 0x540f012bf84f79c5, 0xdf29adb3b43d9511),
    (16, 3, false, 0xc834c511d032b65c, 0x3cd20f5d91e9bf10),
    (16, 3, true, 0x6d506b0524cfae82, 0x611c84b81788d5ba),
    (40, 1, false, 0x751f024f9b612888, 0x2e48d92d070df59b),
    (40, 1, true, 0xf3ecbf7f535b898d, 0x55c10e59db0a2bcd),
    (40, 2, false, 0xcf4d4a588f118b84, 0xf6bf4e5d78ed0a97),
    (40, 2, true, 0x19c3aaa4d8bdf9b9, 0x57b6c8eb36dfb195),
    (40, 3, false, 0x7da3f9b6f2bc7721, 0xedbfe86fa9ac2894),
    (40, 3, true, 0xdb16b2a66db3da81, 0xada1d7f5fc098206),
    (120, 1, false, 0xa5929f6e76ca829b, 0x0055ef43f55b9698),
    (120, 1, true, 0xa897ad506564fecd, 0x291cc2fc7cd0524f),
    (120, 2, false, 0x91b038a483e066f0, 0xb3d9e765aa037606),
    (120, 2, true, 0x4f11a12a8a752804, 0xd740f5df8cd869c9),
    (120, 3, false, 0x98783d6150dc9376, 0x1f062e6160ee12fe),
    (120, 3, true, 0x623d4b8b8b7dd8d2, 0x7e1874e795e39c80),
    (300, 1, false, 0xcfd21b1b5b3d78cd, 0xce17314dc295511a),
    (300, 1, true, 0x0ffe1f138fd54fd9, 0x61517f4befc7859f),
    (300, 2, false, 0x386abd44fdde18c9, 0x1bea349ca1d5fa4d),
    (300, 2, true, 0xfb31efe5f0d582d4, 0xe6d8f17c7e2088fe),
    (300, 3, false, 0x4dde6a6256e0e8ae, 0x058f333795d17b0f),
    (300, 3, true, 0x71493af838b862bb, 0x4ffea65b6efac29d),
];

#[test]
fn mesh_reports_match_parent_commit_digests() {
    let config = SimConfig { enforce_capacity: false, ..SimConfig::default() };
    let mut actual = Vec::new();
    let mut failure_records = 0;
    for nodes in [16usize, 40, 120, 300] {
        for seed in [1u64, 2, 3] {
            let cluster = Cluster::mesh_testbed(MeshSpec::new(nodes, seed)).expect("mesh world");
            let workers: Vec<NodeId> = cluster.workers().map(|n| n.id()).collect();
            for ties in [false, true] {
                let (tasks, assignment) = round(&workers, seed, ties);
                let healthy = simulate(&cluster, &tasks, &assignment, config).expect("healthy");
                assert_eq!(healthy.timelines.iter().flatten().count(), tasks.len());
                let schedule = faults(&workers, seed, healthy.processing_time);
                let faulted =
                    simulate_with_faults(&cluster, &tasks, &assignment, config, &schedule)
                        .expect("faulted");
                failure_records += faulted.failures.len();
                actual.push((
                    nodes,
                    seed,
                    ties,
                    digest_healthy(&healthy),
                    digest_faulted(&faulted),
                ));
            }
        }
    }
    // The schedules must bite, or the faulted digests pin nothing.
    assert!(failure_records > 1000, "only {failure_records} failure records across the worlds");
    if actual != GOLDEN {
        for (nodes, seed, ties, healthy, faulted) in &actual {
            eprintln!("    ({nodes}, {seed}, {ties}, {healthy:#018x}, {faulted:#018x}),");
        }
        panic!("mesh reports drifted from the pinned digests (actual rows above)");
    }
}

// ---------------------------------------------------------------- star

/// A Fig. 8-style star with `workers` Pis on the given medium.
fn star(workers: usize, medium: MediumMode) -> Cluster {
    let mut cluster = Cluster::testbed_with_workers(workers).expect("star world");
    cluster.network_mut().expect("star topology").set_medium(medium);
    cluster
}

/// A star round over `hosts` (which may include the controller),
/// round-robin: seeded sizes, with every 5th input an exact 1e6 bits
/// (same-instant ties), every 7th result and every 11th input zero-bit, and
/// every 13th task left unscheduled.
fn star_round(hosts: &[NodeId], n: usize, seed: u64) -> (Vec<SimTask>, NodeAssignment) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A2);
    let tasks = (0..n)
        .map(|i| {
            let drawn = rng.gen_range(2e5..4e6);
            let input = if i % 11 == 10 {
                0.0
            } else if i % 5 == 4 {
                1e6
            } else {
                drawn
            };
            let result = if i % 7 == 6 { 0.0 } else { drawn * 0.01 };
            SimTask::new(input, result, 1.0).expect("valid sizes")
        })
        .collect();
    let assignment = NodeAssignment::from_vec(
        (0..n).map(|i| (i % 13 != 12).then(|| hosts[i % hosts.len()])).collect(),
    );
    (tasks, assignment)
}

/// `(name, workers, hosts (`None` = every node, controller included), tasks)`.
/// `wide` stays below the 256-scheduled-task fan-out threshold of
/// `simulate`; `big` and `big-wide` cross it.
const STAR_WORLDS: [(&str, usize, Option<[usize; 3]>, usize); 5] = [
    ("paper", 9, None, 50),
    ("skewed", 9, Some([0, 2, 5]), 50),
    ("wide", 99, None, 240),
    ("big", 9, None, 400),
    ("big-wide", 99, None, 600),
];

fn has(report: &FaultReport, pred: impl Fn(&FailureKind) -> bool) -> bool {
    report.failures.iter().any(|f| pred(&f.kind))
}

/// One scripted round per recovery path on the paper testbed (27 tasks,
/// three per worker), each asserting that its path was actually taken:
/// crash+recover, a crash with no recovery, a link outage short enough that
/// the parked result waits it out and one that outlives the heartbeat, a
/// straggler window, `RetryPolicy::no_retry`, retries exhausted, biased
/// [`RedispatchPrefs`], and a capacity-enforced re-dispatch.
fn scenarios(medium: MediumMode) -> Vec<(&'static str, FaultReport)> {
    let cluster = star(9, medium);
    let workers: Vec<NodeId> = cluster.workers().map(|n| n.id()).collect();
    let (tasks, assignment) = round(&workers, 5, false);
    let relaxed = SimConfig { enforce_capacity: false, ..SimConfig::default() };
    let healthy = simulate(&cluster, &tasks, &assignment, relaxed).expect("healthy");
    let at = |share: f64| share * healthy.processing_time;
    let run = |cluster: &Cluster,
               tasks: &[SimTask],
               assignment: &NodeAssignment,
               config: SimConfig,
               schedule: FaultSchedule,
               prefs: &RedispatchPrefs| {
        simulate_with_faults_biased(cluster, tasks, assignment, config, &schedule, prefs)
            .expect("scripted round")
    };
    let plain = |config: SimConfig, schedule: FaultSchedule| {
        run(&cluster, &tasks, &assignment, config, schedule, &RedispatchPrefs::none())
    };
    let new = FaultSchedule::new;
    let mut out = Vec::new();

    let r = plain(
        relaxed,
        new()
            .with_crash(NodeId(1), at(0.3))
            .and_then(|s| s.with_recovery(NodeId(1), at(0.5)))
            .and_then(|s| s.with_crash(NodeId(5), at(0.1)))
            .and_then(|s| s.with_recovery(NodeId(5), at(0.15)))
            .expect("ordered"),
    );
    assert!(r.down_at_end.is_empty() && has(&r, |k| matches!(k, FailureKind::Redispatched { .. })));
    out.push(("crash-recover", r));

    let r = plain(relaxed, new().with_crash(NodeId(2), at(0.4)).expect("finite"));
    assert_eq!(r.down_at_end, vec![NodeId(2)]);
    assert_eq!(r.completed_count(), tasks.len());
    out.push(("crash-for-good", r));

    // The last task on node 3 computes with its link idle: a dropout from
    // mid-compute parks the result, which either waits out a short outage
    // or is stranded past its heartbeat by a long one.
    let parked = (0..tasks.len()).rev().find(|&i| assignment.node_of(i) == Some(NodeId(3)));
    let parked = parked.expect("node 3 hosts tasks");
    let tl = healthy.timelines[parked].expect("scheduled");
    let (down, up) = (0.5 * (tl.compute_start + tl.compute_end), tl.compute_end + 0.1);
    let r = plain(relaxed, new().with_link_outage(NodeId(3), down, up).expect("ordered"));
    assert_eq!(r.attempts[parked], 1, "the parked result waits out a short outage");
    assert!(r.timelines[parked].expect("delivered").result_at >= up);
    out.push(("short-outage", r));

    let r = plain(relaxed, new().with_link_outage(NodeId(3), down, at(100.0)).expect("ordered"));
    assert_eq!(r.attempts[parked], 2, "a stranded result is recomputed elsewhere");
    assert!(!has(&r, |k| matches!(k, FailureKind::NodeCrashed(_))));
    out.push(("long-outage", r));

    let r = plain(relaxed, new().with_straggler(NodeId(4), 0.0, at(0.5), 3.0).expect("ordered"));
    assert!(r.failures.is_empty() && r.processing_time > healthy.processing_time);
    out.push(("straggler", r));

    let no_retry = SimConfig { retry: RetryPolicy::no_retry(), ..relaxed };
    let r = plain(no_retry, new().with_crash(NodeId(1), at(0.3)).expect("finite"));
    assert!(!r.failed_tasks().is_empty() && r.attempts.iter().all(|&a| a == 1));
    out.push(("no-retry", r));

    // A decoy keeps the controller the most loaded candidate, so orphans
    // land on workers — which then crash in turn, one every 0.08 PT.
    let mut decoyed_tasks = tasks.clone();
    decoyed_tasks.push(SimTask::new(1e8, 0.0, 1.0).expect("valid sizes"));
    let mut hosts: Vec<Option<NodeId>> = (0..tasks.len()).map(|i| assignment.node_of(i)).collect();
    hosts.push(Some(cluster.controller()));
    let decoyed = NodeAssignment::from_vec(hosts);
    let mut cascade = new();
    for (k, &node) in workers.iter().enumerate() {
        cascade = cascade.with_crash(node, at(0.2 + 0.08 * k as f64)).expect("finite");
    }
    let one_retry =
        SimConfig { retry: RetryPolicy { max_retries: 1, ..RetryPolicy::default() }, ..relaxed };
    let r = run(&cluster, &decoyed_tasks, &decoyed, one_retry, cascade, &RedispatchPrefs::none());
    assert!(has(&r, |k| matches!(k, FailureKind::TaskFailed { attempts: 2, .. })));
    assert!(r.completed_count() > 0);
    out.push(("exhausted", r));

    let mut scores = vec![0.1; 10];
    scores[9] = 0.9;
    let r = run(
        &cluster,
        &tasks,
        &assignment,
        relaxed,
        new().with_crash(NodeId(1), at(0.3)).expect("finite"),
        &RedispatchPrefs::from_scores(scores),
    );
    assert!(has(&r, |k| matches!(k, FailureKind::Redispatched { node: NodeId(9), .. })));
    assert!(!has(&r, |k| matches!(k, FailureKind::Redispatched { node: NodeId(0), .. })));
    out.push(("biased", r));

    // Every worker exactly full and a 3-unit controller: re-dispatch is
    // decided by who has room, and an orphan nobody can hold fails with
    // retries to spare.
    let mut tight = cluster.clone();
    *tight.node_mut(NodeId(0)).expect("controller") =
        Node::new(NodeId(0), DeviceModel::Laptop).with_capacity(3.0);
    let sized: Vec<SimTask> = (0..tasks.len())
        .map(|i| {
            let host = assignment.node_of(i).expect("round schedules every task");
            let demand = tight.node(host).expect("host").capacity() / TASKS_PER_WORKER as f64;
            SimTask::new(tasks[i].input_bits, tasks[i].result_bits, demand).expect("valid sizes")
        })
        .collect();
    let r = run(
        &tight,
        &sized,
        &assignment,
        SimConfig::default(),
        new()
            .with_crash(NodeId(1), at(0.3))
            .and_then(|s| s.with_recovery(NodeId(1), at(0.6)))
            .and_then(|s| s.with_crash(NodeId(2), at(0.35)))
            .expect("ordered"),
        &RedispatchPrefs::none(),
    );
    assert!(has(&r, |k| matches!(k, FailureKind::Redispatched { .. })));
    assert!(has(&r, |k| matches!(k, FailureKind::TaskFailed { attempts: 1, .. })));
    out.push(("capacity", r));

    out
}

/// `(medium/world/case, digest)`, generated on the parent of the
/// one-lifecycle-two-transports change.
#[rustfmt::skip]
const STAR_GOLDEN: [(&str, u64); 42] = [
    ("per-node/paper/healthy", 0xd73f2992fc1f2694),
    ("per-node/paper/mixed", 0x154ef84f8066bb59),
    ("per-node/paper/mixed-eager", 0x8d8d39b5a94c5b23),
    ("per-node/skewed/healthy", 0xc5a4de0d1dd0a57f),
    ("per-node/skewed/mixed", 0x1590a7a325af7b32),
    ("per-node/skewed/mixed-eager", 0xe8a01f43306bf8fe),
    ("per-node/wide/healthy", 0xe5ac8b2e28f5582e),
    ("per-node/wide/mixed", 0x4409a589cacbf788),
    ("per-node/big/healthy", 0xfd2f46e416bf69d5),
    ("per-node/big/mixed", 0xed31ad9e0d57798a),
    ("per-node/big-wide/healthy", 0x3a3c02080e72938f),
    ("per-node/big-wide/mixed", 0x13c249d9b9be8b80),
    ("per-node/script/crash-recover", 0xcab3925db07bdb9d),
    ("per-node/script/crash-for-good", 0x5fde535452d3802a),
    ("per-node/script/short-outage", 0x8c66075d0b7928e4),
    ("per-node/script/long-outage", 0xb5c56d3d8f4b0ccb),
    ("per-node/script/straggler", 0x01fa8d1ae669d000),
    ("per-node/script/no-retry", 0x59fe782e151fd4a6),
    ("per-node/script/exhausted", 0xbad0fb14e1506d2e),
    ("per-node/script/biased", 0x9cf994a76f53cff9),
    ("per-node/script/capacity", 0x2f95c0d8fdccd9d3),
    ("shared/paper/healthy", 0xc1d92f5e4c2f5ae8),
    ("shared/paper/mixed", 0xa827057d82c6eb64),
    ("shared/paper/mixed-eager", 0xbadfb2bb38726d80),
    ("shared/skewed/healthy", 0x83d3e9076d860541),
    ("shared/skewed/mixed", 0xbd267fb51e34731c),
    ("shared/skewed/mixed-eager", 0xd31e024876429e21),
    ("shared/wide/healthy", 0xdb054bea451ba220),
    ("shared/wide/mixed", 0x4e05037508f971ef),
    ("shared/big/healthy", 0xd5040ae804f24f44),
    ("shared/big/mixed", 0xcdf67a9bc242838c),
    ("shared/big-wide/healthy", 0x548b0335632bff38),
    ("shared/big-wide/mixed", 0x5be4c103add82a2e),
    ("shared/script/crash-recover", 0xa52d51b1e38ad8b1),
    ("shared/script/crash-for-good", 0x959fa6e6c7146683),
    ("shared/script/short-outage", 0xcac474cf26135833),
    ("shared/script/long-outage", 0x39f74aa96fa5c0d8),
    ("shared/script/straggler", 0xd168ffdf494d1edb),
    ("shared/script/no-retry", 0x93750ff82ecbf1cc),
    ("shared/script/exhausted", 0xf43bc37950969288),
    ("shared/script/biased", 0x133cb2f2f99f57ce),
    ("shared/script/capacity", 0x218f40dcd82c9370),
];

#[test]
fn star_reports_match_parent_commit_digests() {
    let relaxed = SimConfig { enforce_capacity: false, ..SimConfig::default() };
    let eager = SimConfig {
        retry: RetryPolicy { timeout_factor: 0.0, ..RetryPolicy::default() },
        ..relaxed
    };
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (medium, tag) in
        [(MediumMode::PerNodeLink, "per-node"), (MediumMode::SharedMedium, "shared")]
    {
        for (seed, &(world, workers, hosts, n)) in (2u64..).zip(&STAR_WORLDS) {
            let cluster = star(workers, medium);
            let hosts: Vec<NodeId> = match hosts {
                Some(ids) => ids.into_iter().map(NodeId).collect(),
                None => cluster.nodes().iter().map(|node| node.id()).collect(),
            };
            let (tasks, assignment) = star_round(&hosts, n, seed);
            assert_eq!(assignment.scheduled_count() >= 256, world.starts_with("big"));
            let healthy = simulate(&cluster, &tasks, &assignment, relaxed).expect("healthy");
            assert_eq!(healthy.timelines.iter().flatten().count(), assignment.scheduled_count());
            actual.push((format!("{tag}/{world}/healthy"), digest_healthy(&healthy)));
            // The fault engine with nothing to inject is the healthy round.
            let idle =
                simulate_with_faults(&cluster, &tasks, &assignment, relaxed, &FaultSchedule::new())
                    .expect("empty schedule");
            assert!(
                idle.failures.is_empty()
                    && idle.completed_count() == healthy.timelines.iter().flatten().count()
            );
            assert_eq!(
                digest_healthy(&idle.to_sim_report()),
                digest_healthy(&healthy),
                "{tag}/{world}"
            );
            // Only hosting workers can lose work to a fault.
            let victims: Vec<NodeId> =
                hosts.iter().copied().filter(|&h| h != cluster.controller()).collect();
            let schedule = faults(&victims, seed, healthy.processing_time);
            // `eager` re-arms every heartbeat 0.05 s on, mid-flight, so
            // timers interleave with every leg of the paper-sized rounds.
            let configs = [("mixed", relaxed), ("mixed-eager", eager)];
            for (case, config) in configs.into_iter().take(if n <= 50 { 2 } else { 1 }) {
                let faulted =
                    simulate_with_faults(&cluster, &tasks, &assignment, config, &schedule)
                        .expect("faulted");
                assert!(
                    has(&faulted, |k| matches!(k, FailureKind::AttemptAborted { .. })),
                    "{tag}/{world}/{case}: the schedule must cost some attempt its life"
                );
                actual.push((format!("{tag}/{world}/{case}"), digest_faulted(&faulted)));
            }
        }
        for (case, report) in scenarios(medium) {
            actual.push((format!("{tag}/script/{case}"), digest_faulted(&report)));
        }
    }
    let pinned: Vec<(String, u64)> =
        STAR_GOLDEN.iter().map(|&(name, digest)| (name.to_string(), digest)).collect();
    if actual != pinned {
        for (name, digest) in &actual {
            eprintln!("    (\"{name}\", {digest:#018x}),");
        }
        panic!("star reports drifted from the pinned digests (actual rows above)");
    }
}
