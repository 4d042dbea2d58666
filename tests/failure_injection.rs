//! Failure-injection integration: degraded nodes and broken links must
//! surface in processing time exactly where the allocation touches them,
//! and nowhere else. Mid-run faults go further: crashes orphan exactly the
//! victim's tasks, retries win once the node recovers, and the recovery
//! re-solve sheds ascending importance — all bit-identical at any thread
//! count.

use proptest::prelude::*;
use tatim::core::processor::{Processor, ProcessorFleet};
use tatim::core::recovery::replan;
use tatim::core::task::{EdgeTask, TaskId};
use tatim::core::tatim::TatimInstance;
use tatim::edgesim::cluster::Cluster;
use tatim::edgesim::faults::FaultSchedule;
use tatim::edgesim::network::Link;
use tatim::edgesim::node::NodeId;
use tatim::edgesim::run::{
    simulate, simulate_with_faults, NodeAssignment, RetryPolicy, SimConfig, SimTask,
};

fn tasks(n: usize) -> Vec<SimTask> {
    (0..n).map(|_| SimTask::new(5e7, 1e4, 1.0).expect("valid")).collect()
}

fn round_robin(n: usize, workers: &[usize]) -> NodeAssignment {
    let mut a = NodeAssignment::empty(n);
    for i in 0..n {
        a.assign(i, Some(NodeId(workers[i % workers.len()])));
    }
    a
}

#[test]
fn slow_node_inflates_pt_only_when_used() {
    let healthy = Cluster::paper_testbed().expect("testbed");
    let mut degraded = Cluster::paper_testbed().expect("testbed");
    let node = degraded.node_mut(NodeId(1)).expect("node 1").clone().with_slowdown(10.0);
    *degraded.node_mut(NodeId(1)).expect("node 1") = node;

    let ts = tasks(8);
    // Assignment that uses node 1.
    let uses = round_robin(8, &[1, 2, 3, 4]);
    let pt_healthy =
        simulate(&healthy, &ts, &uses, SimConfig::default()).expect("healthy run").processing_time;
    let pt_degraded = simulate(&degraded, &ts, &uses, SimConfig::default())
        .expect("degraded run")
        .processing_time;
    assert!(pt_degraded > pt_healthy * 1.5, "slowdown invisible: {pt_degraded} vs {pt_healthy}");

    // Assignment that avoids node 1: the degradation must be invisible.
    let avoids = round_robin(8, &[2, 3, 4, 5]);
    let pt_avoid_h =
        simulate(&healthy, &ts, &avoids, SimConfig::default()).expect("run").processing_time;
    let pt_avoid_d =
        simulate(&degraded, &ts, &avoids, SimConfig::default()).expect("run").processing_time;
    assert!((pt_avoid_h - pt_avoid_d).abs() < 1e-9, "degradation leaked to other nodes");
}

#[test]
fn congested_link_inflates_transfer_bound_workloads() {
    let mut congested = Cluster::paper_testbed().expect("testbed");
    congested
        .network_mut()
        .expect("star testbed")
        .set_link(NodeId(2), Link::new(1e5, 0.5).expect("valid link"));

    let ts = tasks(4);
    let on_congested = round_robin(4, &[2]);
    let on_clean = round_robin(4, &[3]);
    let pt_congested = simulate(&congested, &ts, &on_congested, SimConfig::default())
        .expect("run")
        .processing_time;
    let pt_clean =
        simulate(&congested, &ts, &on_clean, SimConfig::default()).expect("run").processing_time;
    assert!(pt_congested > pt_clean * 3.0, "congestion invisible: {pt_congested} vs {pt_clean}");
}

#[test]
fn timelines_remain_causally_ordered_under_failures() {
    let mut cluster = Cluster::paper_testbed().expect("testbed");
    let node = cluster.node_mut(NodeId(4)).expect("node 4").clone().with_slowdown(5.0);
    *cluster.node_mut(NodeId(4)).expect("node 4") = node;
    cluster
        .network_mut()
        .expect("star testbed")
        .set_link(NodeId(5), Link::new(2e5, 0.2).expect("valid"));

    let ts = tasks(12);
    let a = round_robin(12, &[4, 5, 6]);
    let report = simulate(&cluster, &ts, &a, SimConfig::default()).expect("run");
    for tl in report.timelines.iter().flatten() {
        assert!(tl.transfer_start <= tl.compute_start);
        assert!(tl.compute_start <= tl.compute_end);
        assert!(tl.compute_end <= tl.result_at);
    }
    assert!(report.processing_time >= report.makespan());
}

#[test]
fn mid_run_crash_orphans_only_the_victims_tasks() {
    let cluster = Cluster::paper_testbed().expect("testbed");
    let ts = tasks(8);
    let a = round_robin(8, &[1, 2, 3, 4]);
    let schedule = FaultSchedule::new().with_crash(NodeId(1), 1e-3).expect("schedule");
    let cfg = SimConfig { retry: RetryPolicy::no_retry(), ..SimConfig::default() };
    let report = simulate_with_faults(&cluster, &ts, &a, cfg, &schedule).expect("fault run");

    assert_eq!(report.down_at_end, vec![NodeId(1)], "the victim never recovers");
    assert!(!report.failures.is_empty(), "the crash must be logged");
    let failed = report.failed_tasks();
    assert!(!failed.is_empty(), "the victim held tasks, some must orphan");
    for &j in &failed {
        assert_eq!(a.node_of(j), Some(NodeId(1)), "task {j} failed off the victim");
    }
    for j in 0..8 {
        if a.node_of(j) != Some(NodeId(1)) {
            assert!(report.completed[j], "bystander task {j} lost to a remote crash");
        }
    }
}

#[test]
fn retry_wins_after_the_node_recovers() {
    let cluster = Cluster::paper_testbed().expect("testbed");
    let ts = tasks(8);
    let a = round_robin(8, &[1, 2, 3, 4]);
    let healthy = simulate(&cluster, &ts, &a, SimConfig::default()).expect("healthy run");

    let schedule = FaultSchedule::new()
        .with_crash(NodeId(1), 0.01)
        .expect("crash")
        .with_recovery(NodeId(1), 0.2)
        .expect("recovery");
    // Default policy: bounded retries with backoff.
    let report = simulate_with_faults(&cluster, &ts, &a, SimConfig::default(), &schedule)
        .expect("fault run");

    assert!(report.failed_tasks().is_empty(), "every orphan must be re-dispatched");
    assert_eq!(report.completed_count(), 8);
    assert!(report.attempts.iter().any(|&n| n > 1), "the crash must cost somebody a retry");
    assert!(!report.failures.is_empty(), "aborted legs must be logged");
    assert!(report.down_at_end.is_empty(), "the node recovered");
    assert!(
        report.processing_time > healthy.processing_time,
        "timeout + retry cannot be free: {} vs {}",
        report.processing_time,
        healthy.processing_time
    );
}

#[test]
fn recovery_sheds_ascending_importance_when_capacity_shrinks() {
    // Six equal-size tasks, importances 0.2..0.7, three processors with
    // room for two tasks each. Losing two of the three processors leaves
    // room for two tasks: the re-solve must keep the top of the
    // importance tail and shed from the bottom.
    let tasks: Vec<EdgeTask> = (0..6)
        .map(|i| {
            EdgeTask::new(TaskId(i), format!("t{i}"), 1e6, 1.0, 0.2 + 0.1 * i as f64)
                .expect("valid task")
        })
        .collect();
    let fleet = ProcessorFleet::new(
        (0..3)
            .map(|i| Processor { node: NodeId(i + 1), capacity: 4.0, seconds_per_bit: 4.75e-7 })
            .collect(),
        1.0,
    )
    .expect("fleet");
    let inst = TatimInstance::new(tasks, fleet);

    let plan = replan(&inst, &[false; 6], &[NodeId(3)], 1.0).expect("replan");
    assert_eq!(plan.shed, vec![0, 1, 2, 3], "shed must be ascending importance");
    for j in 4..6 {
        let col = plan.allocation.processor_of(j).expect("kept the important tail");
        assert_eq!(inst.fleet().node_of(col), NodeId(3));
    }
    assert!((plan.recovered_importance - (0.6 + 0.7)).abs() < 1e-9);
    let total = 0.2 + 0.3 + 0.4 + 0.5 + 0.6 + 0.7;
    assert!((plan.recovered_fraction() - (0.6 + 0.7) / total).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DESIGN §8.1 extended to faults: a non-empty seeded schedule must
    /// produce bit-identical reports at 1, 2 and 8 threads.
    #[test]
    fn fault_runs_are_thread_count_invariant(seed in 0u64..500, crash_rate in 0.2f64..0.9) {
        let cluster = Cluster::paper_testbed().expect("testbed");
        let ts = tasks(10);
        let a = round_robin(10, &[1, 2, 3, 4, 5]);
        let workers: Vec<NodeId> = (1..=5).map(NodeId).collect();
        let schedule = FaultSchedule::seeded(seed, &workers, crash_rate, 0.3, 2.0)
            .expect("schedule");
        prop_assume!(!schedule.is_empty());

        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let _threads = tatim::parallel::ScopedThreads::new(threads);
            let r = simulate_with_faults(&cluster, &ts, &a, SimConfig::default(), &schedule)
                .expect("fault run");
            runs.push(r);
        }
        prop_assert_eq!(runs[0].processing_time.to_bits(), runs[1].processing_time.to_bits());
        prop_assert_eq!(runs[0].processing_time.to_bits(), runs[2].processing_time.to_bits());
        prop_assert_eq!(&runs[0], &runs[1], "threads 1 vs 2 diverged");
        prop_assert_eq!(&runs[0], &runs[2], "threads 1 vs 8 diverged");
    }
}
