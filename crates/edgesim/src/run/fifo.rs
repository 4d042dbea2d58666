//! The star transport: half-duplex FIFO link reservations.
//!
//! A transfer reserves the next free interval of its link chain the moment
//! it is started — one chain per node in [`MediumMode::PerNodeLink`], a
//! single chain every transfer serialises through in
//! [`MediumMode::SharedMedium`] — so its landing instant is known up front
//! and announced on the queue at once; nothing ever needs re-balancing.
//!
//! Fault semantics that are the star's own: `LinkDown(n)` kills node `n`'s
//! in-flight transfer legs (and only those); a crash, a recovery and a link
//! dropout each restart the node's private chain at that instant, while the
//! shared channel is nobody's to reset; an aborted per-node reservation is
//! refunded from the link-busy ledger, whereas shared-medium channel time
//! stays burned (the radio was transmitting).

use super::lifecycle::{gather_busy, Cargo, Queue, TaskState, Transport};
use crate::network::{MediumMode, StarNetwork};
use crate::node::NodeId;
use std::collections::HashMap;
use std::ops::Range;

pub(super) struct Fifo<'a> {
    net: &'a StarNetwork,
    per_node: bool,
    /// When each link chain is next free, indexed by [`Fifo::chain`];
    /// pre-filled with the round's start, where an idle chain begins.
    link_free: Vec<f64>,
    link_busy: Vec<f64>,
    link_touched: Vec<bool>,
    link_down: Vec<bool>,
}

impl<'a> Fifo<'a> {
    /// `slots` dense node slots; every chain is free from `t0`.
    pub(super) fn new(net: &'a StarNetwork, slots: usize, t0: f64) -> Self {
        Self {
            net,
            per_node: matches!(net.medium(), MediumMode::PerNodeLink),
            link_free: vec![t0; slots],
            link_busy: vec![0.0; slots],
            link_touched: vec![false; slots],
            link_down: vec![false; slots],
        }
    }

    /// The chain `node`'s transfers queue on: its own link, or slot 0 for
    /// the one shared channel.
    fn chain(&self, node: NodeId) -> usize {
        if self.per_node {
            node.0
        } else {
            0
        }
    }
}

impl Transport for Fifo<'_> {
    /// The reserved interval `(start, end)`.
    type Transfer = (f64, f64);

    fn start_leg(
        &mut self,
        q: &mut Queue,
        cargo: Cargo,
        node: NodeId,
        t: f64,
        bits: f64,
    ) -> (Self::Transfer, f64) {
        let chain = self.chain(node);
        let start = self.link_free[chain].max(t);
        let dur = self.net.transfer_time(node, bits);
        self.link_free[chain] = start + dur;
        self.link_busy[node.0] += dur;
        self.link_touched[node.0] = true;
        q.schedule(start + dur, cargo.arrival());
        ((start, start + dur), start)
    }

    fn abort_leg(&mut self, (start, end): Self::Transfer, node: NodeId, now: f64) {
        if self.per_node {
            let lost = end - start.max(now);
            if lost > 0.0 {
                self.link_busy[node.0] -= lost;
            }
        }
    }

    fn reachable(&self, node: NodeId) -> bool {
        !self.link_down[node.0]
    }

    fn nominal_transfer(&self, node: NodeId, bits: f64) -> Option<f64> {
        Some(self.net.transfer_time(node, bits))
    }

    fn node_reset(&mut self, node: NodeId, now: f64) {
        if self.per_node {
            self.link_free[node.0] = now;
        }
    }

    fn link_down(
        &mut self,
        node: NodeId,
        now: f64,
        state: &[Option<TaskState<Self::Transfer>>],
    ) -> Vec<usize> {
        if std::mem::replace(&mut self.link_down[node.0], true) {
            return Vec::new();
        }
        self.node_reset(node, now);
        let severed =
            |st: &TaskState<Self::Transfer>| st.node == node && st.live() && st.in_transfer();
        (0..state.len()).filter(|&task| state[task].as_ref().is_some_and(severed)).collect()
    }

    fn link_up(&mut self, node: NodeId) -> Range<usize> {
        if std::mem::replace(&mut self.link_down[node.0], false) {
            node.0..node.0 + 1
        } else {
            0..0
        }
    }

    fn into_link_busy(self) -> HashMap<NodeId, f64> {
        gather_busy(&self.link_busy, &self.link_touched)
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::Cluster;
    use crate::network::{MediumMode, StarNetwork};
    use crate::node::{DeviceModel, Node, NodeId};
    use crate::run::{simulate, NodeAssignment, SimConfig, SimTask};

    fn shared_cluster() -> Cluster {
        let nodes: Vec<Node> = (0..4)
            .map(|i| {
                Node::new(
                    NodeId(i),
                    if i == 0 { DeviceModel::Laptop } else { DeviceModel::RaspberryPiB },
                )
            })
            .collect();
        let net = StarNetwork::uniform(1e6, 0.0).unwrap().with_medium(MediumMode::SharedMedium);
        Cluster::new(nodes, net, NodeId(0)).unwrap()
    }

    #[test]
    fn shared_medium_serialises_cross_node_transfers() {
        let per_link = Cluster::paper_testbed().unwrap();
        let shared = shared_cluster();
        // Three transfer-heavy tasks on three different nodes.
        let tasks: Vec<SimTask> = (0..3).map(|_| SimTask::new(1e6, 0.0, 1.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(3);
        for i in 0..3 {
            a.assign(i, Some(NodeId(i + 1)));
        }
        let cfg = SimConfig {
            partition_overhead_s: 0.0,
            decision_overhead_s: 0.0,
            enforce_capacity: false,
            ..SimConfig::default()
        };
        let r_shared = simulate(&shared, &tasks, &a, cfg).unwrap();
        // Under the shared medium, input transfers cannot overlap: the last
        // task's compute cannot start before 3 transfer times have elapsed.
        let third_start =
            r_shared.timelines.iter().flatten().map(|t| t.compute_start).fold(0.0f64, f64::max);
        let one_transfer = shared.network().expect("star testbed").transfer_time(NodeId(1), 1e6);
        assert!(
            third_start >= 3.0 * one_transfer - 1e-9,
            "transfers overlapped: {third_start} < {}",
            3.0 * one_transfer
        );
        // Per-node links let them overlap.
        let r_par = simulate(&per_link, &tasks, &a, cfg).unwrap();
        let par_third =
            r_par.timelines.iter().flatten().map(|t| t.compute_start).fold(0.0f64, f64::max);
        let par_one = per_link.network().expect("star testbed").transfer_time(NodeId(1), 1e6);
        assert!(par_third < 2.0 * par_one, "per-link transfers did not overlap");
    }

    #[test]
    fn single_node_workload_is_mode_invariant() {
        // All tasks on one node: both media serialise identically.
        let shared = shared_cluster();
        let mut per_link_cluster = shared_cluster();
        *per_link_cluster.network_mut().expect("star testbed") =
            StarNetwork::uniform(1e6, 0.0).unwrap().with_medium(MediumMode::PerNodeLink);
        let tasks: Vec<SimTask> = (0..3).map(|_| SimTask::new(1e6, 1e4, 1.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(3);
        for i in 0..3 {
            a.assign(i, Some(NodeId(1)));
        }
        let cfg = SimConfig::default();
        let r1 = simulate(&shared, &tasks, &a, cfg).unwrap();
        let r2 = simulate(&per_link_cluster, &tasks, &a, cfg).unwrap();
        assert!((r1.processing_time - r2.processing_time).abs() < 1e-9);
    }
}
