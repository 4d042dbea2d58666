//! Property-based tests of simulator invariants: causality, monotonicity,
//! conservation, and fault-injection determinism.

use edgesim::cluster::Cluster;
use edgesim::faults::FaultSchedule;
use edgesim::network::MediumMode;
use edgesim::node::NodeId;
use edgesim::run::{
    simulate, simulate_with_faults, NodeAssignment, RetryPolicy, SimConfig, SimReport, SimTask,
};
use proptest::prelude::*;

fn workload() -> impl Strategy<Value = (Vec<SimTask>, NodeAssignment)> {
    prop::collection::vec((1e4f64..1e8, 0.0f64..1e5, prop::option::of(1usize..10)), 1..20).prop_map(
        |specs| {
            let tasks: Vec<SimTask> = specs
                .iter()
                .map(|&(bits, result, _)| SimTask::new(bits, result, 0.0).expect("valid ranges"))
                .collect();
            let mut assignment = NodeAssignment::empty(tasks.len());
            for (i, &(_, _, node)) in specs.iter().enumerate() {
                assignment.assign(i, node.map(NodeId));
            }
            (tasks, assignment)
        },
    )
}

fn config() -> SimConfig {
    SimConfig {
        partition_overhead_s: 0.01,
        decision_overhead_s: 0.01,
        enforce_capacity: false,
        ..SimConfig::default()
    }
}

/// Every number of a report as raw bits: PT, each timeline in task order
/// (`None` marked), then both busy ledgers sorted by node id.
fn report_bits(r: &SimReport) -> Vec<u64> {
    let mut bits = vec![r.processing_time.to_bits()];
    for tl in &r.timelines {
        match tl {
            None => bits.push(u64::MAX),
            Some(tl) => bits.extend([
                tl.node.0 as u64,
                tl.transfer_start.to_bits(),
                tl.compute_start.to_bits(),
                tl.compute_end.to_bits(),
                tl.result_at.to_bits(),
            ]),
        }
    }
    for ledger in [&r.node_busy, &r.link_busy] {
        let mut rows: Vec<(NodeId, u64)> = ledger.iter().map(|(&n, s)| (n, s.to_bits())).collect();
        rows.sort_by_key(|&(n, _)| n);
        bits.push(rows.len() as u64);
        bits.extend(rows.into_iter().flat_map(|(n, s)| [n.0 as u64, s]));
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timelines_are_causal((tasks, assignment) in workload()) {
        let cluster = Cluster::paper_testbed().expect("testbed");
        let report = simulate(&cluster, &tasks, &assignment, config()).expect("simulate");
        for tl in report.timelines.iter().flatten() {
            prop_assert!(tl.transfer_start >= 0.01 - 1e-12, "starts before partition");
            prop_assert!(tl.transfer_start <= tl.compute_start);
            prop_assert!(tl.compute_start <= tl.compute_end);
            prop_assert!(tl.compute_end <= tl.result_at);
        }
        prop_assert!(report.processing_time >= report.makespan() - 1e-12);
    }

    #[test]
    fn scheduled_tasks_get_timelines((tasks, assignment) in workload()) {
        let cluster = Cluster::paper_testbed().expect("testbed");
        let report = simulate(&cluster, &tasks, &assignment, config()).expect("simulate");
        for (i, tl) in report.timelines.iter().enumerate() {
            prop_assert_eq!(tl.is_some(), assignment.node_of(i).is_some(), "task {}", i);
        }
    }

    #[test]
    fn more_bandwidth_never_hurts((tasks, assignment) in workload(), factor in 1.1f64..8.0) {
        let slow = Cluster::paper_testbed().expect("testbed");
        let mut fast = Cluster::paper_testbed().expect("testbed");
        fast.network_mut().expect("star testbed").scale_bandwidth(factor);
        let pt_slow =
            simulate(&slow, &tasks, &assignment, config()).expect("run").processing_time;
        let pt_fast =
            simulate(&fast, &tasks, &assignment, config()).expect("run").processing_time;
        prop_assert!(pt_fast <= pt_slow + 1e-9, "{pt_fast} > {pt_slow}");
    }

    #[test]
    fn removing_a_task_never_slows_the_round((tasks, assignment) in workload(),
                                             drop_idx in 0usize..20) {
        let cluster = Cluster::paper_testbed().expect("testbed");
        let full =
            simulate(&cluster, &tasks, &assignment, config()).expect("run").processing_time;
        let mut reduced = assignment.clone();
        let idx = drop_idx % tasks.len();
        reduced.assign(idx, None);
        let less =
            simulate(&cluster, &tasks, &reduced, config()).expect("run").processing_time;
        prop_assert!(less <= full + 1e-9, "dropping task {idx} raised PT: {less} > {full}");
    }

    /// The event-driven engine with nothing to inject is the healthy round,
    /// to the bit — on both media, on placements folded onto at most three
    /// nodes (the controller among them), and with heartbeats that re-arm
    /// every 0.05 s in the middle of every leg (`timeout_factor` 0) as well
    /// as ones that outlast the attempt (3).
    #[test]
    fn empty_fault_schedule_matches_plain_simulate(
        (tasks, spread) in workload(),
        shared in 0u8..2,
        skew in prop::option::of(prop::collection::vec(0usize..10, 1..4)),
        eager in 0u8..2,
    ) {
        let mut cluster = Cluster::paper_testbed().expect("testbed");
        if shared == 1 {
            cluster.network_mut().expect("star testbed").set_medium(MediumMode::SharedMedium);
        }
        let mut assignment = spread;
        if let Some(hosts) = skew {
            for i in 0..tasks.len() {
                if assignment.node_of(i).is_some() {
                    assignment.assign(i, Some(NodeId(hosts[i % hosts.len()])));
                }
            }
        }
        let timeout_factor = if eager == 1 { 0.0 } else { 3.0 };
        let config =
            SimConfig { retry: RetryPolicy { timeout_factor, ..RetryPolicy::default() }, ..config() };
        let plain = simulate(&cluster, &tasks, &assignment, config).expect("simulate");
        let faulty =
            simulate_with_faults(&cluster, &tasks, &assignment, config, &FaultSchedule::new())
                .expect("fault run");
        prop_assert_eq!(report_bits(&plain), report_bits(&faulty.to_sim_report()));
        prop_assert!(faulty.failures.is_empty());
        prop_assert!(faulty.down_at_end.is_empty());
        prop_assert_eq!(faulty.completed_count(), assignment.scheduled_count());
        prop_assert!(faulty.attempts.iter().all(|&a| a <= 1));
    }

    #[test]
    fn seeded_fault_runs_are_deterministic((tasks, assignment) in workload(),
                                           seed in 0u64..1000,
                                           crash_rate in 0.1f64..0.9,
                                           mttr in 0.0f64..2.0) {
        let cluster = Cluster::paper_testbed().expect("testbed");
        let workers: Vec<NodeId> = (1..=9).map(NodeId).collect();
        let schedule = FaultSchedule::seeded(seed, &workers, crash_rate, mttr, 5.0)
            .expect("valid schedule");
        prop_assume!(!schedule.is_empty());
        let a = simulate_with_faults(&cluster, &tasks, &assignment, config(), &schedule)
            .expect("fault run");
        let b = simulate_with_faults(&cluster, &tasks, &assignment, config(), &schedule)
            .expect("fault run");
        prop_assert_eq!(&a, &b, "same schedule produced different reports");
        // Every scheduled task is accounted for: delivered or failed.
        let scheduled = assignment.scheduled_count();
        prop_assert_eq!(a.completed_count() + a.failed_tasks().len(), scheduled);
        // Causality holds for delivered tasks.
        for tl in a.timelines.iter().flatten() {
            prop_assert!(tl.transfer_start <= tl.compute_start);
            prop_assert!(tl.compute_start <= tl.compute_end);
            prop_assert!(tl.compute_end <= tl.result_at);
        }
        prop_assert!(a.processing_time >= a.makespan() - 1e-12);
    }

    #[test]
    fn busy_time_conserved((tasks, assignment) in workload()) {
        let cluster = Cluster::paper_testbed().expect("testbed");
        let report = simulate(&cluster, &tasks, &assignment, config()).expect("simulate");
        // Total compute busy time equals the sum of scheduled tasks'
        // compute demands on their nodes.
        let expected: f64 = (0..tasks.len())
            .filter_map(|i| {
                assignment.node_of(i).map(|n| {
                    cluster.node(n).expect("node exists").compute_time(tasks[i].input_bits)
                })
            })
            .sum();
        let actual: f64 = report.node_busy.values().sum();
        prop_assert!((expected - actual).abs() < 1e-6, "{expected} vs {actual}");
    }
}

/// A round large enough to engage the per-node parallel fan-out inside
/// [`simulate`] (its serial-below-threshold guard sits at 256 scheduled
/// tasks), with varied sizes and every node in play.
fn big_workload(n: usize) -> (Vec<SimTask>, NodeAssignment) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xFA57);
    let tasks: Vec<SimTask> = (0..n)
        .map(|_| SimTask::new(rng.gen_range(1e3..5e6), rng.gen_range(1e2..1e5), 0.0).unwrap())
        .collect();
    let mut assignment = NodeAssignment::empty(n);
    for i in 0..n {
        assignment.assign(i, Some(NodeId(i % 10)));
    }
    (tasks, assignment)
}

/// The parallel edgesim step and the fault engine must produce
/// byte-identical reports at threads 1, 2 and 8 — including under an
/// active fault schedule (crashes, link dropouts, stragglers).
#[test]
fn edgesim_step_bit_identical_across_thread_counts_under_faults() {
    let cluster = Cluster::paper_testbed().expect("testbed");
    let (tasks, assignment) = big_workload(512);
    let workers: Vec<NodeId> = (1..=9).map(NodeId).collect();
    let schedule = FaultSchedule::seeded(41, &workers, 0.6, 0.5, 5.0).expect("valid schedule");
    assert!(!schedule.is_empty(), "schedule must actually inject faults");

    let (healthy_ref, faulty_ref) = {
        let _t = parallel::ScopedThreads::new(1);
        (
            simulate(&cluster, &tasks, &assignment, config()).expect("simulate"),
            simulate_with_faults(&cluster, &tasks, &assignment, config(), &schedule)
                .expect("fault run"),
        )
    };
    assert!(
        !faulty_ref.failures.is_empty() || !faulty_ref.down_at_end.is_empty(),
        "faults should perturb a 512-task round"
    );
    for threads in [2usize, 8] {
        let _t = parallel::ScopedThreads::new(threads);
        let healthy = simulate(&cluster, &tasks, &assignment, config()).expect("simulate");
        assert_eq!(healthy, healthy_ref, "healthy step diverged at {threads} threads");
        assert_eq!(
            healthy.processing_time.to_bits(),
            healthy_ref.processing_time.to_bits(),
            "healthy PT bits diverged at {threads} threads"
        );
        let faulty = simulate_with_faults(&cluster, &tasks, &assignment, config(), &schedule)
            .expect("fault run");
        assert_eq!(faulty, faulty_ref, "fault run diverged at {threads} threads");
        assert_eq!(
            faulty.processing_time.to_bits(),
            faulty_ref.processing_time.to_bits(),
            "faulted PT bits diverged at {threads} threads"
        );
    }
}

/// The mesh engine is single-threaded by construction, but the bit-identity
/// gate must hold through the public API at every thread count — healthy
/// and under an active fault schedule with crashes, dropouts (which force
/// re-routing) and stragglers.
#[test]
fn mesh_sim_bit_identical_across_thread_counts_under_faults() {
    use edgesim::cluster::MeshSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let cluster = Cluster::mesh_testbed(MeshSpec::new(100, 11)).expect("mesh testbed");
    let mut rng = StdRng::seed_from_u64(0x7E57);
    let tasks: Vec<SimTask> = (0..300)
        .map(|_| SimTask::new(rng.gen_range(1e3..5e6), rng.gen_range(1e2..1e5), 0.0).unwrap())
        .collect();
    let mut assignment = NodeAssignment::empty(300);
    for i in 0..300 {
        assignment.assign(i, Some(NodeId(1 + i % 99)));
    }
    let workers: Vec<NodeId> = (1..100).map(NodeId).collect();
    let schedule = FaultSchedule::seeded(41, &workers, 0.6, 0.5, 5.0).expect("valid schedule");
    assert!(!schedule.is_empty(), "schedule must actually inject faults");

    let (healthy_ref, faulty_ref) = {
        let _t = parallel::ScopedThreads::new(1);
        (
            simulate(&cluster, &tasks, &assignment, config()).expect("simulate"),
            simulate_with_faults(&cluster, &tasks, &assignment, config(), &schedule)
                .expect("fault run"),
        )
    };
    assert!(!faulty_ref.failures.is_empty(), "faults should perturb a 300-task mesh round");
    for threads in [2usize, 8] {
        let _t = parallel::ScopedThreads::new(threads);
        let healthy = simulate(&cluster, &tasks, &assignment, config()).expect("simulate");
        assert_eq!(healthy, healthy_ref, "healthy mesh run diverged at {threads} threads");
        let faulty = simulate_with_faults(&cluster, &tasks, &assignment, config(), &schedule)
            .expect("fault run");
        assert_eq!(faulty, faulty_ref, "faulted mesh run diverged at {threads} threads");
        assert_eq!(
            faulty.processing_time.to_bits(),
            faulty_ref.processing_time.to_bits(),
            "faulted mesh PT bits diverged at {threads} threads"
        );
    }
}
