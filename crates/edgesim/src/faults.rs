//! Dynamic fault injection: seeded, deterministic schedules of node
//! crashes, link dropouts, and transient straggler windows.
//!
//! The paper's testbed (§V, Fig. 8) is nine Raspberry Pis on star-topology
//! WiFi — hardware that crashes, straggles, and drops links mid-round. A
//! [`FaultSchedule`] scripts such incidents as timestamped events that
//! [`crate::run::simulate_with_faults`] injects into the discrete-event
//! queue. Schedules are plain data: validated once at construction, sorted
//! by time (stable, so same-time events keep their insertion order), and
//! replayed identically on every run — the simulator stays bit-for-bit
//! deterministic under injected faults.

use crate::node::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One kind of injected incident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node halts: in-flight compute and transfer legs abort, queued
    /// inputs are lost, and nothing runs there until a matching
    /// [`FaultKind::Recover`].
    Crash(NodeId),
    /// The node rejoins with an empty queue and nominal speed.
    Recover(NodeId),
    /// The node's star link drops: in-flight transfers abort and no new
    /// transfer can start until [`FaultKind::LinkUp`]. Compute in progress
    /// is unaffected (results queue up behind the dead link).
    LinkDown(NodeId),
    /// The node's star link is restored.
    LinkUp(NodeId),
    /// Start of a transient straggler window: compute legs *starting*
    /// inside the window take `factor` times longer (factor ≥ 1).
    StragglerStart(NodeId, f64),
    /// End of the straggler window: the node returns to nominal speed.
    StragglerEnd(NodeId),
}

impl FaultKind {
    /// The node the incident targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultKind::Crash(n)
            | FaultKind::Recover(n)
            | FaultKind::LinkDown(n)
            | FaultKind::LinkUp(n)
            | FaultKind::StragglerStart(n, _)
            | FaultKind::StragglerEnd(n) => n,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash(n) => write!(f, "crash {n}"),
            FaultKind::Recover(n) => write!(f, "recover {n}"),
            FaultKind::LinkDown(n) => write!(f, "link-down {n}"),
            FaultKind::LinkUp(n) => write!(f, "link-up {n}"),
            FaultKind::StragglerStart(n, x) => write!(f, "straggle {n} x{x}"),
            FaultKind::StragglerEnd(n) => write!(f, "straggle-end {n}"),
        }
    }
}

/// A timestamped incident.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute simulation time of the incident, seconds.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Error constructing a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// An event time is negative, NaN or infinite.
    BadTime {
        /// Offending timestamp.
        time: f64,
    },
    /// A straggler factor below 1.0 (or non-finite).
    BadFactor {
        /// Offending factor.
        factor: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadTime { time } => {
                write!(f, "fault time must be finite and non-negative, got {time}")
            }
            FaultError::BadFactor { factor } => {
                write!(f, "straggler factor must be finite and >= 1.0, got {factor}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A validated, time-sorted script of incidents for one simulation round.
///
/// Construction order is preserved among same-time events (stable sort), so
/// a schedule replays identically every run regardless of how it was built.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule (a fault-run with it behaves exactly like the
    /// fault-free simulator).
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, ev: FaultEvent) -> Result<(), FaultError> {
        if !(ev.time.is_finite() && ev.time >= 0.0) {
            return Err(FaultError::BadTime { time: ev.time });
        }
        if let FaultKind::StragglerStart(_, factor) = ev.kind {
            if !(factor.is_finite() && factor >= 1.0) {
                return Err(FaultError::BadFactor { factor });
            }
        }
        self.events.push(ev);
        // Insertion sort keeps construction cheap and the order stable.
        let mut i = self.events.len() - 1;
        while i > 0 && self.events[i - 1].time > self.events[i].time {
            self.events.swap(i - 1, i);
            i -= 1;
        }
        Ok(())
    }

    /// Adds a node crash at `time`.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadTime`] on invalid timestamps.
    pub fn with_crash(mut self, node: NodeId, time: f64) -> Result<Self, FaultError> {
        self.push(FaultEvent { time, kind: FaultKind::Crash(node) })?;
        Ok(self)
    }

    /// Adds a node recovery at `time`.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadTime`] on invalid timestamps.
    pub fn with_recovery(mut self, node: NodeId, time: f64) -> Result<Self, FaultError> {
        self.push(FaultEvent { time, kind: FaultKind::Recover(node) })?;
        Ok(self)
    }

    /// Adds a link dropout window `[down, up)`.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadTime`] on invalid timestamps.
    pub fn with_link_outage(
        mut self,
        node: NodeId,
        down: f64,
        up: f64,
    ) -> Result<Self, FaultError> {
        self.push(FaultEvent { time: down, kind: FaultKind::LinkDown(node) })?;
        self.push(FaultEvent { time: up, kind: FaultKind::LinkUp(node) })?;
        Ok(self)
    }

    /// Adds a transient straggler window `[start, end)` with compute legs
    /// slowed by `factor`.
    ///
    /// # Errors
    ///
    /// See [`FaultError`] variants.
    pub fn with_straggler(
        mut self,
        node: NodeId,
        start: f64,
        end: f64,
        factor: f64,
    ) -> Result<Self, FaultError> {
        self.push(FaultEvent { time: start, kind: FaultKind::StragglerStart(node, factor) })?;
        self.push(FaultEvent { time: end, kind: FaultKind::StragglerEnd(node) })?;
        Ok(self)
    }

    /// Seeded random schedule over `nodes` and a time `horizon_s`: each node
    /// independently crashes with probability `crash_rate`, at a uniform
    /// time in `(0, horizon_s)`, and recovers `mttr_s` later. Nodes are
    /// visited in slice order and the RNG stream is fixed by `seed`, so the
    /// same arguments always produce the same schedule.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadTime`] when `horizon_s` or `mttr_s` is invalid.
    pub fn seeded(
        seed: u64,
        nodes: &[NodeId],
        crash_rate: f64,
        mttr_s: f64,
        horizon_s: f64,
    ) -> Result<Self, FaultError> {
        if !(horizon_s.is_finite() && horizon_s > 0.0) {
            return Err(FaultError::BadTime { time: horizon_s });
        }
        if !(mttr_s.is_finite() && mttr_s >= 0.0) {
            return Err(FaultError::BadTime { time: mttr_s });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = Self::new();
        for &node in nodes {
            // Both draws happen for every node so a node's fate does not
            // shift its siblings' RNG stream.
            let crashes = rng.gen_bool(crash_rate);
            let at = rng.gen_range(0.0..1.0) * horizon_s;
            if crashes {
                schedule = schedule.with_crash(node, at)?;
                if mttr_s > 0.0 {
                    schedule = schedule.with_recovery(node, at + mttr_s)?;
                }
            }
        }
        Ok(schedule)
    }

    /// [`Self::seeded`] with a *per-node* crash probability: `rates[i]`
    /// applies to `nodes[i]`. The RNG stream matches `seeded` exactly
    /// (both draws happen for every node), so `seeded_rates` with a
    /// uniform `rates` slice reproduces `seeded` bit for bit. Heterogeneous
    /// rates give fragile and steady nodes distinct long-run behaviour —
    /// the signal an availability posterior can learn from.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadTime`] when `horizon_s` or `mttr_s` is invalid.
    ///
    /// # Panics
    ///
    /// Panics when `rates.len() != nodes.len()` or a rate is outside
    /// `[0, 1]`.
    pub fn seeded_rates(
        seed: u64,
        nodes: &[NodeId],
        rates: &[f64],
        mttr_s: f64,
        horizon_s: f64,
    ) -> Result<Self, FaultError> {
        assert_eq!(rates.len(), nodes.len(), "one crash rate per node");
        assert!(rates.iter().all(|r| (0.0..=1.0).contains(r)), "crash rates must lie in [0, 1]");
        if !(horizon_s.is_finite() && horizon_s > 0.0) {
            return Err(FaultError::BadTime { time: horizon_s });
        }
        if !(mttr_s.is_finite() && mttr_s >= 0.0) {
            return Err(FaultError::BadTime { time: mttr_s });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = Self::new();
        for (&node, &rate) in nodes.iter().zip(rates) {
            let crashes = rng.gen_bool(rate);
            let at = rng.gen_range(0.0..1.0) * horizon_s;
            if crashes {
                schedule = schedule.with_crash(node, at)?;
                if mttr_s > 0.0 {
                    schedule = schedule.with_recovery(node, at + mttr_s)?;
                }
            }
        }
        Ok(schedule)
    }

    /// The events, sorted by time (stable).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no incidents are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Nodes that crash at any point in the schedule.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash(n) => Some(n),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_time_sorted_and_stable() {
        let s = FaultSchedule::new()
            .with_crash(NodeId(2), 5.0)
            .unwrap()
            .with_crash(NodeId(1), 1.0)
            .unwrap()
            .with_recovery(NodeId(1), 5.0)
            .unwrap();
        let times: Vec<f64> = s.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 5.0, 5.0]);
        // Same-time events keep insertion order: crash before recovery.
        assert_eq!(s.events()[1].kind, FaultKind::Crash(NodeId(2)));
        assert_eq!(s.events()[2].kind, FaultKind::Recover(NodeId(1)));
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(matches!(
            FaultSchedule::new().with_crash(NodeId(1), -1.0),
            Err(FaultError::BadTime { .. })
        ));
        assert!(matches!(
            FaultSchedule::new().with_crash(NodeId(1), f64::NAN),
            Err(FaultError::BadTime { .. })
        ));
        assert!(matches!(
            FaultSchedule::new().with_straggler(NodeId(1), 0.0, 1.0, 0.5),
            Err(FaultError::BadFactor { .. })
        ));
        assert!(matches!(
            FaultSchedule::new().with_straggler(NodeId(1), 0.0, 1.0, f64::INFINITY),
            Err(FaultError::BadFactor { .. })
        ));
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let nodes: Vec<NodeId> = (1..=9).map(NodeId).collect();
        let a = FaultSchedule::seeded(7, &nodes, 0.3, 2.0, 10.0).unwrap();
        let b = FaultSchedule::seeded(7, &nodes, 0.3, 2.0, 10.0).unwrap();
        let c = FaultSchedule::seeded(8, &nodes, 0.3, 2.0, 10.0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ (with overwhelming probability)");
        for ev in a.events() {
            assert!(ev.time >= 0.0 && ev.time <= 12.0);
        }
        // Every crash has a matching later recovery (mttr > 0).
        for node in a.crashed_nodes() {
            let crash = a.events().iter().find(|e| e.kind == FaultKind::Crash(node)).unwrap().time;
            let rec = a.events().iter().find(|e| e.kind == FaultKind::Recover(node)).unwrap().time;
            assert!((rec - crash - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn seeded_extremes() {
        let nodes: Vec<NodeId> = (1..=4).map(NodeId).collect();
        assert!(FaultSchedule::seeded(1, &nodes, 0.0, 1.0, 10.0).unwrap().is_empty());
        let all = FaultSchedule::seeded(1, &nodes, 1.0, 0.0, 10.0).unwrap();
        assert_eq!(all.crashed_nodes().len(), 4);
        // mttr == 0 means no recovery events.
        assert!(all.events().iter().all(|e| matches!(e.kind, FaultKind::Crash(_))));
        assert!(FaultSchedule::seeded(1, &nodes, 1.0, -1.0, 10.0).is_err());
        assert!(FaultSchedule::seeded(1, &nodes, 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn kind_accessors_and_display() {
        let k = FaultKind::StragglerStart(NodeId(3), 2.5);
        assert_eq!(k.node(), NodeId(3));
        assert!(k.to_string().contains("node-3"));
        assert!(FaultKind::Crash(NodeId(1)).to_string().contains("crash"));
    }

    #[test]
    fn uniform_seeded_rates_reproduce_seeded_bit_for_bit() {
        let nodes: Vec<NodeId> = (1..=8).map(NodeId).collect();
        let a = FaultSchedule::seeded(42, &nodes, 0.5, 3.0, 10.0).unwrap();
        let b = FaultSchedule::seeded_rates(42, &nodes, &[0.5; 8], 3.0, 10.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heterogeneous_rates_skew_crashes_toward_fragile_nodes() {
        let nodes: Vec<NodeId> = (1..=2).map(NodeId).collect();
        let mut fragile = 0usize;
        let mut steady = 0usize;
        for seed in 0..200u64 {
            let s = FaultSchedule::seeded_rates(seed, &nodes, &[0.9, 0.1], 0.0, 10.0).unwrap();
            let crashed = s.crashed_nodes();
            fragile += usize::from(crashed.contains(&NodeId(1)));
            steady += usize::from(crashed.contains(&NodeId(2)));
        }
        assert!(fragile > 3 * steady, "fragile {fragile} vs steady {steady}");
    }

    #[test]
    fn seeded_rates_validates_lengths() {
        let nodes = vec![NodeId(1)];
        let err = std::panic::catch_unwind(|| {
            FaultSchedule::seeded_rates(1, &nodes, &[0.5, 0.5], 0.0, 1.0)
        });
        assert!(err.is_err());
    }
}
