//! The mesh transport: fluid-flow transfers under proportional-share
//! contention, with incremental rate settlement.
//!
//! All state is dense `Vec` storage indexed by mesh node or edge id.
//! After every handled event, [`Fluid::settle`] revisits only the edges
//! whose flow set changed ("dirty" edges) and the flows crossing them:
//! each such edge rewrites the grant it gives each of its flows, then each
//! touched flow is advanced under its previously granted rate and takes
//! the minimum of its path's grants; a flow whose rate is bitwise unchanged
//! keeps its pending completion, so a settlement costs O(dirty edges'
//! flows), not all active flows times their path lengths.
//!
//! Every active flow owns exactly one pending completion, in
//! [`Fluid::completions`]; the lifecycle's main loop merges that heap with
//! the calendar queue by `(time, seq)`, both drawing `seq` from the
//! calendar's counter, so events fire in the order one shared queue would
//! give.
//!
//! Fault semantics that are the mesh's own: a crash takes out a node's
//! compute but the node keeps forwarding transit flows (the radio survives
//! the process). Topology damage is `LinkDown(n)`, which drops `n`'s
//! current uplink edge: every flow crossing that edge dies (whichever task
//! it served) and routes are recomputed, possibly re-routing *around* the
//! dead edge for flows started later. An ended flow is charged its elapsed
//! serialisation time only; the un-transferred remainder is never charged.

use super::lifecycle::{gather_busy, Cargo, Queue, TaskState, Transport};
use crate::event::IndexedHeap;
use crate::network::{MeshNetwork, Routes};
use crate::node::NodeId;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

/// One transfer in flight across the mesh under proportional-share
/// contention. The flow's share weight is its total requested size
/// (`bits`), constant for its lifetime; the granted rate is the minimum
/// over its path edges of `capacity × (bits / load)` where `load` sums the
/// weights of the flows crossing that edge. A lone flow's share is
/// `bits / bits == 1.0` exactly, so it gets the full edge capacity.
#[derive(Debug, Clone)]
struct Flow {
    cargo: Cargo,
    /// Worker-side endpoint (dense mesh node index).
    node: usize,
    /// Edge ids along the route, fixed at flow start (re-routing only
    /// affects flows started after the topology change); shared with the
    /// engine's per-destination route cache.
    path: Rc<[usize]>,
    /// Where this flow's per-edge grants start in [`Fluid::grants`]:
    /// `grants[slots + i]` is what `path[i]` currently grants it.
    slots: usize,
    /// Requested size — the constant share weight.
    bits: f64,
    /// Bits still to serialise.
    remaining: f64,
    /// Currently granted rate in bits/sec.
    rate: f64,
    /// Instant `remaining` was last advanced to.
    last_update: f64,
    /// Creation instant (for elapsed link-busy accounting).
    started: f64,
    /// Sum of one-way propagation latencies along `path`, applied once
    /// after serialisation completes.
    latency: f64,
    active: bool,
}

pub(super) struct Fluid<'a> {
    mesh: &'a MeshNetwork,
    /// The controller's mesh vertex: the source of every route.
    controller: usize,
    /// The pending serialisation completion of each active flow, keyed
    /// `(fire time, ticket)` with tickets from the lifecycle's queue.
    completions: IndexedHeap,
    /// Shortest-path tree from the controller over the live edges;
    /// recomputed on every topology change ([`Fluid::reroute`]).
    routes: Routes,
    /// `(path edges, summed latency)` of the current route to each node,
    /// filled on first use and emptied with every `routes` change.
    route_cache: Vec<Option<(Rc<[usize]>, f64)>>,
    edge_down: Vec<bool>,
    /// The uplink edge a `LinkDown(n)` fault took out, so `LinkUp(n)`
    /// restores exactly that edge.
    downed_uplink: Vec<Option<usize>>,
    /// Flow slab; ids are never reused within a run.
    flows: Vec<Flow>,
    /// Active flows crossing each edge, in arrival order, as `(flow id,
    /// index into `grants` of what this edge grants that flow)`.
    edge_flows: Vec<Vec<(usize, usize)>>,
    /// `capacity × (bits / load)` per (flow, path edge), each flow's run
    /// starting at its [`Flow::slots`]. An edge's entries are rewritten
    /// whenever its load changed, so every entry of an active flow always
    /// equals a fresh evaluation.
    grants: Vec<f64>,
    /// Sum of active flows' share weights per edge; reset to exactly 0.0
    /// when an edge empties so no float residue leaks across rounds of
    /// contention.
    edge_load: Vec<f64>,
    /// Edges whose flow set changed since the last settlement.
    dirty: Vec<usize>,
    /// Settlement stamp per edge (dedupes repeated dirty entries).
    edge_stamp: Vec<u64>,
    /// Settlement stamp per flow (dedupes flows crossing several dirty
    /// edges).
    touch_stamp: Vec<u64>,
    stamp: u64,
    /// Scratch: the flows a settlement touched, in first-touch order.
    touched: Vec<usize>,
    link_busy: Vec<f64>,
    link_touched: Vec<bool>,
}

impl<'a> Fluid<'a> {
    pub(super) fn new(mesh: &'a MeshNetwork, controller: NodeId) -> Self {
        let n = mesh.nodes();
        let m = mesh.num_edges();
        Self {
            mesh,
            controller: controller.0,
            completions: IndexedHeap::default(),
            routes: mesh.routes_from(controller.0, &[]),
            route_cache: vec![None; n],
            edge_down: vec![false; m],
            downed_uplink: vec![None; n],
            flows: Vec::new(),
            edge_flows: std::iter::repeat_with(Vec::new).take(m).collect(),
            grants: Vec::new(),
            edge_load: vec![0.0; m],
            dirty: Vec::new(),
            edge_stamp: vec![0; m],
            touch_stamp: Vec::new(),
            stamp: 0,
            touched: Vec::new(),
            link_busy: vec![0.0; n],
            link_touched: vec![false; n],
        }
    }

    /// Recomputes the shortest-path tree over the live edges after a
    /// topology change, dropping every cached route with the old tree.
    fn reroute(&mut self) {
        self.routes = self.mesh.routes_from(self.controller, &self.edge_down);
        self.route_cache.fill(None);
    }

    /// Takes `fid` off the network: accrues its elapsed serialisation time
    /// to the worker's link-busy ledger, releases its share on every path
    /// edge, marks those edges dirty, and drops its pending completion.
    /// Idempotent.
    fn end_flow(&mut self, fid: usize, now: f64) {
        let f = &mut self.flows[fid];
        if !f.active {
            return;
        }
        f.active = false;
        let elapsed = (now - f.started).max(0.0);
        let node = f.node;
        let bits = f.bits;
        let path = Rc::clone(&f.path);
        self.completions.remove(fid);
        self.link_busy[node] += elapsed;
        for &e in path.iter() {
            // Order-preserving: the survivors' order decides the tickets
            // of same-instant rate changes.
            self.edge_flows[e].retain(|&(g, _)| g != fid);
            self.edge_load[e] -= bits;
            if self.edge_flows[e].is_empty() {
                self.edge_load[e] = 0.0;
            }
            self.dirty.push(e);
        }
    }

    /// The settlement invariant, checked against the computation the grant
    /// cache replaced: every active flow's rate equals a fresh
    /// `min over path of capacity × (bits / load)` bit for bit, and it owns
    /// one pending completion at `last_update + remaining / rate` (up to
    /// the rounding of advancing `remaining` since the key was set);
    /// inactive flows own none.
    ///
    /// # Panics
    ///
    /// Panics when the invariant is broken — a bug in [`Fluid::settle`].
    #[cfg(any(test, debug_assertions))]
    fn check_settled(&self) {
        for (fid, f) in self.flows.iter().enumerate() {
            let key = self.completions.key_of(fid);
            if !f.active {
                assert!(key.is_none(), "inactive flow {fid} still has a pending completion");
                continue;
            }
            let mut rate = f64::INFINITY;
            for &e in f.path.iter() {
                let r = self.mesh.link(e).bandwidth_bps() * (f.bits / self.edge_load[e]);
                if r < rate {
                    rate = r;
                }
            }
            assert_eq!(rate.to_bits(), f.rate.to_bits(), "flow {fid}: cached grants went stale");
            let (fire, _) = key.expect("an active flow owns a pending completion");
            let expected = f.last_update + f.remaining / f.rate;
            assert!(
                (fire - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                "flow {fid} fires at {fire}, its rate says {expected}"
            );
        }
    }
}

impl Transport for Fluid<'_> {
    /// The flow id.
    type Transfer = usize;

    /// Starts a flow toward (or from) `node` along the current route.
    /// Zero-size payloads skip the fluid phase entirely: they hold no
    /// share of any edge and land after pure path latency. The instant a
    /// mesh transfer starts occupying the network is the dispatch instant.
    fn start_leg(
        &mut self,
        q: &mut Queue,
        cargo: Cargo,
        node: NodeId,
        t: f64,
        bits: f64,
    ) -> (Self::Transfer, f64) {
        let (routes, mesh) = (&self.routes, self.mesh);
        let (path, latency) = self.route_cache[node.0].get_or_insert_with(|| {
            let path = routes.path_edges(node.0);
            let latency = path.iter().map(|&e| mesh.link(e).latency_s()).sum();
            (path.into(), latency)
        });
        let (path, latency) = (Rc::clone(path), *latency);
        let bits = bits.max(0.0);
        let fid = self.flows.len();
        let slots = self.grants.len();
        self.link_touched[node.0] = true;
        let active = bits > 0.0;
        if active {
            self.grants.resize(slots + path.len(), 0.0);
            for (i, &e) in path.iter().enumerate() {
                self.edge_flows[e].push((fid, slots + i));
                self.edge_load[e] += bits;
                self.dirty.push(e);
            }
        } else {
            // Nothing to serialise: land after propagation alone.
            q.schedule(t + latency, cargo.arrival());
        }
        self.flows.push(Flow {
            cargo,
            node: node.0,
            path,
            slots,
            bits,
            remaining: bits,
            rate: 0.0,
            last_update: t,
            started: t,
            latency,
            active,
        });
        self.touch_stamp.push(0);
        (fid, t)
    }

    /// Ends the flow: elapsed serialisation time stays accrued.
    fn abort_leg(&mut self, fid: usize, _node: NodeId, now: f64) {
        self.end_flow(fid, now);
    }

    fn reachable(&self, node: NodeId) -> bool {
        self.routes.reachable(node.0)
    }

    /// Uncontended transfer at the current route's bottleneck bandwidth;
    /// unknowable while `node` is partitioned off.
    fn nominal_transfer(&self, node: NodeId, bits: f64) -> Option<f64> {
        self.routes
            .reachable(node.0)
            .then(|| self.mesh.nominal_transfer_time(&self.routes, node.0, bits))
    }

    /// Nothing: forwarding outlives the node's compute.
    fn node_reset(&mut self, _node: NodeId, _now: f64) {}

    fn link_down(
        &mut self,
        node: NodeId,
        _now: f64,
        state: &[Option<TaskState<usize>>],
    ) -> Vec<usize> {
        if self.downed_uplink[node.0].is_some() {
            return Vec::new();
        }
        let Some(e) = self.routes.uplink_edge(node.0) else { return Vec::new() };
        self.downed_uplink[node.0] = Some(e);
        self.edge_down[e] = true;
        self.reroute();
        // Every flow crossing the dead edge dies with it, in the order the
        // flows joined the edge.
        let crossing = self.edge_flows[e].iter().map(|&(fid, _)| self.flows[fid].cargo);
        crossing
            .filter(|c| state[c.task].is_some_and(|st| st.live() && st.attempt == c.attempt))
            .map(|c| c.task)
            .collect()
    }

    /// Every node the restore reconnected may drain, ascending node id.
    fn link_up(&mut self, node: NodeId) -> Range<usize> {
        let Some(e) = self.downed_uplink[node.0].take() else { return 0..0 };
        self.edge_down[e] = false;
        self.reroute();
        0..self.mesh.nodes()
    }

    /// Fires the earliest flow completion if it sorts before the queue's
    /// next event: the flow's serialisation is done, and its payload lands
    /// after the path's propagation latency.
    fn complete_next(&mut self, q: &mut Queue) -> Option<f64> {
        let (now, fid) = self.completions.first_before(q.peek_key())?;
        q.advance(now);
        let (cargo, latency) = (self.flows[fid].cargo, self.flows[fid].latency);
        self.end_flow(fid, now);
        q.schedule(now + latency, cargo.arrival());
        Some(now)
    }

    /// Settles the network after a flow-set change. Pass 1 walks each
    /// distinct dirty edge once and rewrites the grant
    /// `capacity × (bits / load)` it gives each flow crossing it, collecting
    /// those flows in first-touch order. Pass 2 advances each touched flow
    /// under its old rate and re-grants it the minimum over its path's
    /// cached grants — the grants of its non-dirty edges were computed from
    /// loads that have not changed since, so the minimum sees exactly the
    /// operands a walk of the whole path would recompute. Only a bitwise
    /// rate change re-keys the flow's completion (drawing a fresh ticket);
    /// unaffected flows keep theirs untouched.
    ///
    /// Settling once per handled event is equivalent to settling after
    /// each individual flow change at that instant: intermediate
    /// settlements at the same timestamp advance flows by `dt = 0`, which
    /// is a no-op, so only the final rate grant matters.
    ///
    /// # Panics
    ///
    /// Panics if a re-granted flow would complete before the queue's clock
    /// — a bug in the rate arithmetic, never an input condition.
    fn settle(&mut self, q: &mut Queue, now: f64) {
        if self.dirty.is_empty() {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut touched = std::mem::take(&mut self.touched);
        for &e in &dirty {
            if self.edge_stamp[e] == stamp {
                continue;
            }
            self.edge_stamp[e] = stamp;
            let capacity = self.mesh.link(e).bandwidth_bps();
            let load = self.edge_load[e];
            for &(fid, slot) in &self.edge_flows[e] {
                self.grants[slot] = capacity * (self.flows[fid].bits / load);
                if self.touch_stamp[fid] != stamp {
                    self.touch_stamp[fid] = stamp;
                    touched.push(fid);
                }
            }
        }
        for &fid in &touched {
            let f = &mut self.flows[fid];
            // Advance under the old rate. A flow created at t0 can see a
            // settlement at an earlier fault instant; it has not started
            // transferring yet, so its clock stays put.
            if now > f.last_update {
                f.remaining = (f.remaining - f.rate * (now - f.last_update)).max(0.0);
                f.last_update = now;
            }
            let mut rate = f64::INFINITY;
            for &r in &self.grants[f.slots..f.slots + f.path.len()] {
                if r < rate {
                    rate = r;
                }
            }
            if rate.to_bits() == f.rate.to_bits() {
                continue;
            }
            f.rate = rate;
            let fire = f.last_update + f.remaining / rate;
            assert!(fire + 1e-12 >= q.now(), "flow completes in the past: {fire} < {}", q.now());
            let ticket = q.ticket();
            self.completions.set(fid, fire, ticket);
        }
        dirty.clear();
        touched.clear();
        self.dirty = dirty;
        self.touched = touched;
        #[cfg(any(test, debug_assertions))]
        self.check_settled();
    }

    fn into_link_busy(self) -> HashMap<NodeId, f64> {
        gather_busy(&self.link_busy, &self.link_touched)
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, MeshSpec};
    use crate::faults::FaultSchedule;
    use crate::network::{Link, MeshNetwork};
    use crate::node::{DeviceModel, Node, NodeId};
    use crate::run::{simulate, simulate_with_faults, NodeAssignment, SimConfig, SimTask};
    use crate::trace::FailureKind;

    fn cfg() -> SimConfig {
        SimConfig { partition_overhead_s: 0.0, decision_overhead_s: 0.0, ..SimConfig::default() }
    }

    /// Controller(0) — 1 — 2 line: the first hop is shared by every
    /// transfer, the second only by node 2's.
    fn line3(cap01: f64, cap12: f64, lat: f64) -> Cluster {
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, Link::new(cap01, lat).unwrap()).unwrap();
        b.add_edge(1, 2, Link::new(cap12, lat).unwrap()).unwrap();
        let nodes = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
            Node::new(NodeId(2), DeviceModel::RaspberryPiB),
        ];
        Cluster::new_mesh(nodes, b.build(), NodeId(0)).unwrap()
    }

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn lone_flow_gets_full_bottleneck_capacity() {
        let c = line3(1e6, 2e6, 0.01);
        let tasks = vec![SimTask::new(1e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let tl = r.timelines[0].unwrap();
        // A lone flow's share is exactly 1.0 on both hops, so it
        // serialises at the bottleneck (1e6 bps) and lands after the two
        // hops' propagation latency.
        assert_eq!(tl.transfer_start, 0.0);
        approx(tl.compute_start, 1.0 + 0.02);
        // The zero-bit result skips the fluid phase: pure path latency.
        approx(tl.result_at, tl.compute_end + 0.02);
    }

    #[test]
    fn two_flow_split_matches_closed_form() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks =
            vec![SimTask::new(1e6, 0.0, 1.0).unwrap(), SimTask::new(1e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        // Both flows cross the first hop with equal weights: each is
        // granted cap/2 = 0.5e6 bps, so both 1e6-bit payloads land at 2.0.
        approx(r.timelines[0].unwrap().compute_start, 2.0);
        approx(r.timelines[1].unwrap().compute_start, 2.0);
        // Alone, the same payload lands in half the time.
        let mut solo = NodeAssignment::empty(2);
        solo.assign(0, Some(NodeId(1)));
        let rs = simulate(&c, &tasks, &solo, cfg()).unwrap();
        approx(rs.timelines[0].unwrap().compute_start, 1.0);
    }

    #[test]
    fn three_flow_split_takes_min_over_path() {
        let c = line3(6e6, 0.5e6, 0.0);
        let tasks = vec![
            SimTask::new(3e6, 0.0, 1.0).unwrap(),
            SimTask::new(2e6, 0.0, 1.0).unwrap(),
            SimTask::new(1e6, 0.0, 1.0).unwrap(),
        ];
        let mut a = NodeAssignment::empty(3);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(1)));
        a.assign(2, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        // First hop load = 6e6: shares are 3e6/2e6/1e6 bps — the two
        // node-1 payloads land together at 1.0. Node 2's flow is capped by
        // its second hop (0.5e6 < its 1e6 first-hop share) and lands at 2.0.
        let tl0 = r.timelines[0].unwrap();
        let tl1 = r.timelines[1].unwrap();
        approx(tl0.compute_start, 1.0);
        approx(r.timelines[2].unwrap().compute_start, 2.0);
        // Simultaneous landings compute FIFO in task order.
        assert_eq!(tl1.compute_start.to_bits(), tl0.compute_end.to_bits());
    }

    #[test]
    fn flow_release_raises_rates_incrementally() {
        // A's result (2e6 bits) joins the first hop while B's input
        // (1e6 bits, capped at 0.5e6 by its second hop) still crosses it;
        // when B's input ends, A's result is re-granted the full 2e6 bps
        // mid-flight, superseding its previously scheduled completion.
        let c = line3(2e6, 0.5e6, 0.0);
        let tasks =
            vec![SimTask::new(1e6, 2e6, 1.0).unwrap(), SimTask::new(1e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let cb = c.node(NodeId(1)).unwrap().compute_time(1e6);
        // A's input: share 1e6/2e6 of a 2e6 edge → 1e6 bps → lands at 1.0.
        let t_res = 1.0 + cb;
        assert!(t_res < 2.0, "compute must finish while B is still transferring");
        // B's input rides its 0.5e6 bottleneck throughout → ends at 2.0.
        approx(r.timelines[1].unwrap().compute_start, 2.0);
        // A's result: 2/3 share of 2e6 until 2.0, full 2e6 after.
        let transferred = (2.0 - t_res) * (2e6 * (2.0 / 3.0));
        let expect = 2.0 + (2e6 - transferred) / 2e6;
        approx(r.timelines[0].unwrap().result_at, expect);
    }

    #[test]
    fn mesh_empty_fault_schedule_matches_simulate_bitwise() {
        let c = Cluster::mesh_testbed(MeshSpec::new(20, 7)).unwrap();
        let tasks: Vec<SimTask> =
            (1..=8).map(|i| SimTask::new(i as f64 * 4e5, 1e4, 0.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(8);
        for i in 0..8 {
            a.assign(i, Some(NodeId(1 + (i * 2) % 19)));
        }
        let cfg = SimConfig { enforce_capacity: false, ..SimConfig::default() };
        let plain = simulate(&c, &tasks, &a, cfg).unwrap();
        let faulty = simulate_with_faults(&c, &tasks, &a, cfg, &FaultSchedule::new()).unwrap();
        assert_eq!(plain.processing_time.to_bits(), faulty.processing_time.to_bits());
        assert_eq!(plain.timelines, faulty.timelines);
        assert_eq!(plain.node_busy, faulty.node_busy);
        assert_eq!(plain.link_busy, faulty.link_busy);
        assert!(faulty.failures.is_empty());
    }

    #[test]
    fn mesh_crash_is_detected_and_redispatched() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        // Input lands at 1.0; compute spans ≈[1.0, 1.0 + cb]. Crash inside.
        let cb = c.node(NodeId(2)).unwrap().compute_time(1e6);
        let schedule = FaultSchedule::new().with_crash(NodeId(2), 1.0 + cb / 2.0).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![2], "one retry after the crash");
        assert_ne!(r.timelines[0].unwrap().node, NodeId(2));
        assert_eq!(r.down_at_end, vec![NodeId(2)]);
        let kinds = |p: fn(&FailureKind) -> bool| r.failures.iter().any(|f| p(&f.kind));
        assert!(kinds(|k| matches!(k, FailureKind::NodeCrashed(n) if *n == NodeId(2))));
        assert!(kinds(|k| matches!(k, FailureKind::AttemptAborted { task: 0, .. })));
        assert!(kinds(|k| matches!(k, FailureKind::Redispatched { task: 0, .. })));
    }

    #[test]
    fn link_dropout_forces_reroute_around_dead_edge() {
        // Triangle: fast two-hop route to node 2 plus a slow direct edge.
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, Link::new(2e6, 0.0).unwrap()).unwrap();
        b.add_edge(1, 2, Link::new(2e6, 0.0).unwrap()).unwrap();
        b.add_edge(0, 2, Link::new(0.1e6, 0.0).unwrap()).unwrap();
        let nodes = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
            Node::new(NodeId(2), DeviceModel::RaspberryPiB),
        ];
        let c = Cluster::new_mesh(nodes, b.build(), NodeId(0)).unwrap();
        let tasks = vec![SimTask::new(1e6, 1e6, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        // Input takes the fast route and lands at 0.5; the dropout fires
        // mid-compute (no flow in flight), killing node 2's uplink edge
        // 1—2. The result leg must re-route over the slow direct edge.
        let cb = c.node(NodeId(2)).unwrap().compute_time(1e6);
        assert!(cb > 0.1, "compute window must contain the dropout");
        let schedule =
            FaultSchedule::new().with_link_outage(NodeId(2), 0.5 + cb / 2.0, 1e6).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![1], "the attempt itself survives the dropout");
        let tl = r.timelines[0].unwrap();
        assert!((tl.compute_start - 0.5).abs() < 1e-9);
        // Result serialises at the direct edge's 0.1e6 bps: 10 seconds.
        assert!((tl.result_at - (tl.compute_end + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn link_dropout_aborts_crossing_flows() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks = vec![SimTask::new(2e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        // The input flow crosses edge 1—2 until 2.0; the dropout at 0.5
        // kills it and partitions node 2, so the retry lands elsewhere.
        let schedule = FaultSchedule::new().with_link_outage(NodeId(2), 0.5, 1e6).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![2]);
        assert_ne!(r.timelines[0].unwrap().node, NodeId(2));
        let kinds = |p: fn(&FailureKind) -> bool| r.failures.iter().any(|f| p(&f.kind));
        assert!(kinds(|k| matches!(k, FailureKind::LinkWentDown(n) if *n == NodeId(2))));
        assert!(kinds(|k| matches!(k, FailureKind::AttemptAborted { task: 0, .. })));
        assert!(kinds(|k| matches!(k, FailureKind::Redispatched { task: 0, .. })));
    }

    #[test]
    fn link_restore_drains_parked_results() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks = vec![SimTask::new(1e6, 1e6, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        let cb = c.node(NodeId(2)).unwrap().compute_time(1e6);
        // Dropout during compute, restore shortly after the result is
        // ready: the parked result ships at restore time over both hops.
        let up = 1.0 + cb + 0.2;
        let schedule =
            FaultSchedule::new().with_link_outage(NodeId(2), 1.0 + cb / 2.0, up).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![1], "parked result needs no retry");
        let tl = r.timelines[0].unwrap();
        // Result flow starts at the restore and gets the full 1e6 bps.
        assert!((tl.result_at - (up + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn mesh_runs_are_deterministic() {
        let c = Cluster::mesh_testbed(MeshSpec::new(100, 3)).unwrap();
        let tasks: Vec<SimTask> =
            (0..40).map(|i| SimTask::new((i as f64 + 1.0) * 1e5, 2e4, 0.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(40);
        for i in 0..40 {
            a.assign(i, Some(NodeId(1 + (i * 7) % 99)));
        }
        let cfg = SimConfig { enforce_capacity: false, ..SimConfig::default() };
        let workers: Vec<NodeId> = (1..100).map(NodeId).collect();
        let schedule = FaultSchedule::seeded(17, &workers, 0.5, 0.5, 5.0).unwrap();
        let r1 = simulate_with_faults(&c, &tasks, &a, cfg, &schedule).unwrap();
        let r2 = simulate_with_faults(&c, &tasks, &a, cfg, &schedule).unwrap();
        assert_eq!(r1, r2);
    }
}
