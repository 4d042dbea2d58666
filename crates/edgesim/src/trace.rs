//! Failure logs of fault-injected runs.
//!
//! A fault-injected run emits a typed failure log ([`FailureRecord`]);
//! [`node_exposures`] folds it into the per-node up/down history the
//! availability learner consumes.

use crate::node::NodeId;
use std::fmt;

/// What went wrong (or was handled) at one instant of a fault-injected run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// A node halted; everything resident on it was lost.
    NodeCrashed(NodeId),
    /// A previously crashed node rejoined with an empty queue.
    NodeRecovered(NodeId),
    /// A node's link dropped: its star link, or on a mesh its current
    /// uplink edge (traffic re-routes where the topology allows).
    LinkWentDown(NodeId),
    /// A node's link was restored (on a mesh, the dropped edge rejoins
    /// the topology and routes are recomputed).
    LinkRestored(NodeId),
    /// An in-flight attempt (transfer or compute leg) was killed by a fault.
    AttemptAborted {
        /// Task index.
        task: usize,
        /// Node the attempt was running on.
        node: NodeId,
        /// 1-based attempt number.
        attempt: usize,
    },
    /// The controller's heartbeat timeout fired on a dead attempt.
    TimeoutDetected {
        /// Task index.
        task: usize,
        /// Node the attempt was on.
        node: NodeId,
        /// 1-based attempt number.
        attempt: usize,
    },
    /// The controller re-dispatched the task to a surviving node.
    Redispatched {
        /// Task index.
        task: usize,
        /// New target node.
        node: NodeId,
        /// 1-based attempt number of the new attempt.
        attempt: usize,
    },
    /// Retries exhausted (or no surviving node could host the task).
    TaskFailed {
        /// Task index.
        task: usize,
        /// Attempts consumed.
        attempts: usize,
    },
}

impl FailureKind {
    fn fields(&self) -> (&'static str, Option<usize>, Option<NodeId>, Option<usize>) {
        match *self {
            FailureKind::NodeCrashed(n) => ("node_crashed", None, Some(n), None),
            FailureKind::NodeRecovered(n) => ("node_recovered", None, Some(n), None),
            FailureKind::LinkWentDown(n) => ("link_down", None, Some(n), None),
            FailureKind::LinkRestored(n) => ("link_up", None, Some(n), None),
            FailureKind::AttemptAborted { task, node, attempt } => {
                ("attempt_aborted", Some(task), Some(node), Some(attempt))
            }
            FailureKind::TimeoutDetected { task, node, attempt } => {
                ("timeout_detected", Some(task), Some(node), Some(attempt))
            }
            FailureKind::Redispatched { task, node, attempt } => {
                ("redispatched", Some(task), Some(node), Some(attempt))
            }
            FailureKind::TaskFailed { task, attempts } => {
                ("task_failed", Some(task), None, Some(attempts))
            }
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, task, node, attempt) = self.fields();
        write!(f, "{kind}")?;
        if let Some(t) = task {
            write!(f, " task {t}")?;
        }
        if let Some(n) = node {
            write!(f, " on {n}")?;
        }
        if let Some(a) = attempt {
            write!(f, " (attempt {a})")?;
        }
        Ok(())
    }
}

/// One entry of the failure log a fault-injected run emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureRecord {
    /// Simulation time of the event, seconds.
    pub time: f64,
    /// What happened.
    pub kind: FailureKind,
}

/// One node's availability exposure over a fault-injected round: how long
/// it was reachable, how long it was not, and how many times it crashed.
/// This is the failure-history export the availability learner consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeExposure {
    /// The node.
    pub node: NodeId,
    /// Seconds the node was up with a live route.
    pub up_s: f64,
    /// Seconds the node was crashed or cut off by a link outage.
    pub down_s: f64,
    /// Crash events observed (link outages extend `down_s` but are not
    /// counted here — a dropped link is weaker evidence of fragility).
    pub crashes: u64,
}

/// Per-node exposure summary of a failure log over a `horizon_s`-second
/// round, one entry per id in `nodes` (sorted by node id).
///
/// A node is *down* while crashed or while its link is out; overlapping
/// outages do not double-count. Outages still open at `horizon_s` are
/// closed there, so `up_s + down_s == horizon_s` for every node. The
/// summary is a pure function of the record set: records are re-sorted by
/// time internally, so caller-side ordering cannot perturb it.
pub fn node_exposures(
    failures: &[FailureRecord],
    nodes: &[NodeId],
    horizon_s: f64,
) -> Vec<NodeExposure> {
    use std::collections::BTreeMap;

    #[derive(Default, Clone, Copy)]
    struct Track {
        crashed: bool,
        link_down: bool,
        down_since: Option<f64>,
        down_s: f64,
        crashes: u64,
    }

    let horizon = horizon_s.max(0.0);
    let mut tracks: BTreeMap<usize, Track> =
        nodes.iter().map(|n| (n.0, Track::default())).collect();
    let mut ordered: Vec<&FailureRecord> = failures.iter().collect();
    ordered.sort_by(|a, b| a.time.total_cmp(&b.time));
    for rec in ordered {
        let (node, crash_delta, link_delta) = match rec.kind {
            FailureKind::NodeCrashed(n) => (n, Some(true), None),
            FailureKind::NodeRecovered(n) => (n, Some(false), None),
            FailureKind::LinkWentDown(n) => (n, None, Some(true)),
            FailureKind::LinkRestored(n) => (n, None, Some(false)),
            _ => continue,
        };
        let Some(t) = tracks.get_mut(&node.0) else { continue };
        let was_down = t.crashed || t.link_down;
        if let Some(c) = crash_delta {
            if c && !t.crashed {
                t.crashes += 1;
            }
            t.crashed = c;
        }
        if let Some(l) = link_delta {
            t.link_down = l;
        }
        let now_down = t.crashed || t.link_down;
        let at = rec.time.clamp(0.0, horizon);
        if !was_down && now_down {
            t.down_since = Some(at);
        } else if was_down && !now_down {
            t.down_s += at - t.down_since.take().unwrap_or(at);
        }
    }
    tracks
        .into_iter()
        .map(|(id, mut t)| {
            if let Some(since) = t.down_since.take() {
                t.down_s += horizon - since;
            }
            let down = t.down_s.clamp(0.0, horizon);
            NodeExposure {
                node: NodeId(id),
                up_s: horizon - down,
                down_s: down,
                crashes: t.crashes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kinds_display_their_fields() {
        let crash = FailureKind::NodeCrashed(NodeId(3));
        let aborted = FailureKind::AttemptAborted { task: 2, node: NodeId(3), attempt: 1 };
        let failed = FailureKind::TaskFailed { task: 2, attempts: 3 };
        assert!(crash.to_string().contains("node-3"));
        assert!(aborted.to_string().contains("task 2"));
        assert!(failed.to_string().contains("(attempt 3)"));
    }

    #[test]
    fn exposures_split_the_horizon_and_count_crashes() {
        let log = vec![
            FailureRecord { time: 10.0, kind: FailureKind::NodeCrashed(NodeId(1)) },
            FailureRecord { time: 30.0, kind: FailureKind::NodeRecovered(NodeId(1)) },
            FailureRecord { time: 50.0, kind: FailureKind::LinkWentDown(NodeId(2)) },
            // node 3 crashes and never recovers: open interval closes at horizon
            FailureRecord { time: 80.0, kind: FailureKind::NodeCrashed(NodeId(3)) },
            // task-level records are ignored by the exposure summary
            FailureRecord { time: 81.0, kind: FailureKind::TaskFailed { task: 0, attempts: 2 } },
        ];
        let nodes = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let exp = node_exposures(&log, &nodes, 100.0);
        assert_eq!(exp.len(), 4);
        assert_eq!(exp[0].node, NodeId(1));
        assert!((exp[0].down_s - 20.0).abs() < 1e-9);
        assert!((exp[0].up_s - 80.0).abs() < 1e-9);
        assert_eq!(exp[0].crashes, 1);
        // link outage counts as downtime but not a crash
        assert!((exp[1].down_s - 50.0).abs() < 1e-9);
        assert_eq!(exp[1].crashes, 0);
        assert!((exp[2].down_s - 20.0).abs() < 1e-9);
        assert_eq!(exp[2].crashes, 1);
        // untouched node is fully up
        assert!((exp[3].up_s - 100.0).abs() < 1e-9);
        assert_eq!(exp[3].crashes, 0);
    }

    #[test]
    fn exposures_overlapping_outages_do_not_double_count() {
        let log = vec![
            FailureRecord { time: 10.0, kind: FailureKind::LinkWentDown(NodeId(5)) },
            FailureRecord { time: 20.0, kind: FailureKind::NodeCrashed(NodeId(5)) },
            FailureRecord { time: 40.0, kind: FailureKind::LinkRestored(NodeId(5)) },
            FailureRecord { time: 60.0, kind: FailureKind::NodeRecovered(NodeId(5)) },
        ];
        let exp = node_exposures(&log, &[NodeId(5)], 100.0);
        assert!((exp[0].down_s - 50.0).abs() < 1e-9, "{}", exp[0].down_s);
        assert_eq!(exp[0].crashes, 1);
    }

    #[test]
    fn exposures_are_arrival_order_invariant() {
        let log = vec![
            FailureRecord { time: 10.0, kind: FailureKind::NodeCrashed(NodeId(1)) },
            FailureRecord { time: 30.0, kind: FailureKind::NodeRecovered(NodeId(1)) },
            FailureRecord { time: 5.0, kind: FailureKind::LinkWentDown(NodeId(2)) },
            FailureRecord { time: 55.0, kind: FailureKind::LinkRestored(NodeId(2)) },
        ];
        let mut shuffled = log.clone();
        shuffled.reverse();
        let nodes = [NodeId(1), NodeId(2)];
        assert_eq!(node_exposures(&log, &nodes, 60.0), node_exposures(&shuffled, &nodes, 60.0));
    }
}
