//! Golden digests of complete mesh-engine reports.
//!
//! Each constant below is an FNV-1a digest of one whole [`SimReport`] or
//! [`FaultReport`] — PT, every timeline, the failure log, both busy ledgers
//! (sorted by node id) — and was generated on the commit *before* the mesh
//! engine moved from versioned lazy deletion to one live completion per
//! flow. The engine must keep reproducing them to the bit: any drift in a
//! rate, a fire time or a same-instant tie-break lands in a timeline or in
//! the order of the failure log and changes the digest.
//!
//! The 24 worlds are 4 node counts × 3 mesh seeds × 2 task shapes. The
//! `ties` shape draws sizes from two exact values (so flows finish at the
//! same instant and the `(time, seq)` tie-break decides the order) and gives
//! every third task a zero-bit result (a flow that skips the fluid phase).
//! Every faulted round carries crash+recover pairs, a crash with no
//! recovery, link outages and a straggler window.

use edgesim::cluster::{Cluster, MeshSpec};
use edgesim::faults::FaultSchedule;
use edgesim::node::NodeId;
use edgesim::run::{
    simulate, simulate_with_faults, FaultReport, NodeAssignment, SimConfig, SimReport, SimTask,
    TaskTimeline,
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
