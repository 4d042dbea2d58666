//! Cluster assembly: the Fig. 8 testbed and variants.
//!
//! The paper's simulation uses "nine Raspberry Pi (version 3) and one laptop
//! computer ... interconnected via WiFi under a star network topology", with
//! Pi models A+, B and B+. The controller (laptop) partitions the
//! application, allocates tasks, and aggregates the decision; sensing nodes
//! execute the allocated tasks.

use crate::network::{Link, MeshNetwork, NetworkError, StarNetwork};
use crate::node::{DeviceModel, Node, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Error building or modifying a cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A cluster needs at least the controller and one worker.
    TooFewNodes {
        /// Number supplied.
        got: usize,
    },
    /// Duplicate node id.
    DuplicateNode {
        /// The repeated id.
        node: NodeId,
    },
    /// Mesh clusters need exactly one node per mesh vertex.
    MeshNodeCount {
        /// Nodes supplied.
        nodes: usize,
        /// Vertices in the mesh.
        mesh_nodes: usize,
    },
    /// Mesh clusters need node `i` to carry id `NodeId(i)` (ids index the
    /// adjacency directly).
    MeshNodeId {
        /// Position in the node list.
        index: usize,
        /// The id found there.
        id: NodeId,
    },
    /// Underlying network error.
    Network(NetworkError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::TooFewNodes { got } => {
                write!(f, "cluster needs a controller plus at least one worker, got {got} nodes")
            }
            ClusterError::DuplicateNode { node } => write!(f, "duplicate node id {node}"),
            ClusterError::MeshNodeCount { nodes, mesh_nodes } => {
                write!(f, "mesh has {mesh_nodes} vertices but {nodes} nodes were supplied")
            }
            ClusterError::MeshNodeId { index, id } => {
                write!(f, "mesh cluster node at position {index} must have id {index}, got {id}")
            }
            ClusterError::Network(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetworkError> for ClusterError {
    fn from(e: NetworkError) -> Self {
        ClusterError::Network(e)
    }
}

/// A topology-specific accessor was called on a cluster of the other
/// topology (e.g. [`Cluster::network`] on a mesh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyError {
    /// What the accessor needed.
    pub expected: &'static str,
    /// What the cluster actually is.
    pub actual: &'static str,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster is a {}, not a {}", self.actual, self.expected)
    }
}

impl std::error::Error for TopologyError {}

/// Deterministic per-node cost of moving bits between the controller and a
/// node, queried once per allocation round via [`Cluster::route_costs`].
///
/// `per_bit_s` carries the congestion proxy: on a mesh it is the maximum
/// over the node's static route (controller→node shortest path) of
/// `load_e / bandwidth_e`, where `load_e` counts how many controller→worker
/// routes traverse edge `e` — a shared backbone edge carrying 50 routes is
/// 50× as expensive per bit as a private leaf link of the same capacity.
/// This is a proxy, not the simulator's proportional-share contention: it
/// prices the *worst case* where every worker's flow is concurrently on the
/// wire, which is exactly the congestion the allocator should avoid
/// creating. `latency_s` (summed hop latency) is second-order for the
/// multi-megabit transfers TATIM moves and is reported but not folded into
/// budget deflation.
///
/// On a star every worker has a dedicated uplink carrying exactly one
/// route, so the proxy degenerates to `1 / bandwidth` — the star uplink
/// term — and a uniform star yields identical costs on every worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteCost {
    /// Summed hop latency of the static route, seconds.
    pub latency_s: f64,
    /// Congestion-adjusted seconds per bit (`∞` when unreachable).
    pub per_bit_s: f64,
}

impl RouteCost {
    /// Zero cost (the controller's own entry).
    pub const FREE: Self = Self { latency_s: 0.0, per_bit_s: 0.0 };

    /// Nominal seconds to move `bits` over this route under the proxy.
    pub fn transfer_time(&self, bits: f64) -> f64 {
        self.latency_s + bits * self.per_bit_s
    }
}

/// The network a cluster sits on: the paper's star, or a general mesh.
#[derive(Debug, Clone, PartialEq)]
pub enum NetTopology {
    /// Hub-and-spoke WiFi star (the paper's testbed).
    Star(StarNetwork),
    /// Sparse multi-hop mesh with proportional-share contention.
    Mesh(MeshNetwork),
}

/// An edge cluster: one controller plus worker nodes on a network
/// topology (star or mesh).
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    nodes: Vec<Node>,
    topology: NetTopology,
    controller: NodeId,
    /// `id.0 → position in `nodes``, `usize::MAX` = absent: node lookup is
    /// an array read, not a scan (the per-event hot path at 1000+ nodes).
    index: Vec<usize>,
}

/// Default WiFi bandwidth of the testbed, bits per second: the effective
/// per-link throughput of contended in-building WiFi, chosen so that — as
/// the paper observes (§V-D) — "transmission time is also the main
/// component of processing time". The Fig. 11 sweep scales around this.
pub const DEFAULT_WIFI_BPS: f64 = 6e6;

impl Cluster {
    /// Builds a cluster. Node 0 is conventionally the controller; workers
    /// are every other node.
    ///
    /// # Errors
    ///
    /// [`ClusterError::TooFewNodes`] for fewer than 2 nodes,
    /// [`ClusterError::DuplicateNode`] for repeated ids.
    pub fn new(
        nodes: Vec<Node>,
        network: StarNetwork,
        controller: NodeId,
    ) -> Result<Self, ClusterError> {
        Self::with_topology(nodes, NetTopology::Star(network), controller)
    }

    /// Builds a mesh cluster: node `i` sits on mesh vertex `i`, so the
    /// node list must match the mesh vertex-for-vertex with dense ids.
    ///
    /// # Errors
    ///
    /// [`ClusterError::MeshNodeCount`] / [`ClusterError::MeshNodeId`] on a
    /// shape mismatch, plus the usual [`Cluster::new`] validation.
    pub fn new_mesh(
        nodes: Vec<Node>,
        mesh: MeshNetwork,
        controller: NodeId,
    ) -> Result<Self, ClusterError> {
        if nodes.len() != mesh.nodes() {
            return Err(ClusterError::MeshNodeCount {
                nodes: nodes.len(),
                mesh_nodes: mesh.nodes(),
            });
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.id() != NodeId(i) {
                return Err(ClusterError::MeshNodeId { index: i, id: n.id() });
            }
        }
        Self::with_topology(nodes, NetTopology::Mesh(mesh), controller)
    }

    fn with_topology(
        nodes: Vec<Node>,
        topology: NetTopology,
        controller: NodeId,
    ) -> Result<Self, ClusterError> {
        if nodes.len() < 2 {
            return Err(ClusterError::TooFewNodes { got: nodes.len() });
        }
        let index = Self::build_index(&nodes)?;
        Ok(Self { nodes, topology, controller, index })
    }

    /// Dense id → position map; left empty (scan fallback) when ids are so
    /// sparse the table would dwarf the node list.
    ///
    /// # Errors
    ///
    /// [`ClusterError::DuplicateNode`] for the first node whose id an
    /// earlier node holds: found while the table fills, or by a scan of the
    /// earlier nodes when ids are sparse.
    fn build_index(nodes: &[Node]) -> Result<Vec<usize>, ClusterError> {
        let duplicate = |n: &Node| ClusterError::DuplicateNode { node: n.id() };
        let max_id = nodes.iter().map(|n| n.id().0).max().unwrap_or(0);
        if max_id >= nodes.len() * 8 + 1024 {
            for (i, n) in nodes.iter().enumerate() {
                if nodes[..i].iter().any(|m| m.id() == n.id()) {
                    return Err(duplicate(n));
                }
            }
            return Ok(Vec::new());
        }
        let mut index = vec![usize::MAX; max_id + 1];
        for (i, n) in nodes.iter().enumerate() {
            if index[n.id().0] != usize::MAX {
                return Err(duplicate(n));
            }
            index[n.id().0] = i;
        }
        Ok(index)
    }

    /// The paper's Fig. 8 testbed: laptop controller + 9 Raspberry Pis
    /// (three each of A+, B, B+) on a uniform WiFi star.
    ///
    /// # Errors
    ///
    /// Never in practice; propagates network validation.
    pub fn paper_testbed() -> Result<Self, ClusterError> {
        Self::testbed_with_workers(9)
    }

    /// A Fig. 8-style testbed with `workers` Pis (cycling A+, B, B+), used
    /// by the Fig. 9 processor-count sweep.
    ///
    /// # Errors
    ///
    /// [`ClusterError::TooFewNodes`] when `workers == 0`.
    pub fn testbed_with_workers(workers: usize) -> Result<Self, ClusterError> {
        let mut nodes = vec![Node::new(NodeId(0), DeviceModel::Laptop)];
        let models = [
            DeviceModel::RaspberryPiAPlus,
            DeviceModel::RaspberryPiB,
            DeviceModel::RaspberryPiBPlus,
        ];
        for w in 0..workers {
            nodes.push(Node::new(NodeId(w + 1), models[w % models.len()]));
        }
        let network = StarNetwork::uniform(DEFAULT_WIFI_BPS, 1e-3)?;
        Self::new(nodes, network, NodeId(0))
    }

    /// All nodes, controller included.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Worker nodes (everything except the controller).
    pub fn workers(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(move |n| n.id() != self.controller)
    }

    /// Number of worker nodes.
    pub fn num_workers(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The controller node id.
    pub fn controller(&self) -> NodeId {
        self.controller
    }

    /// The network topology.
    pub fn topology(&self) -> &NetTopology {
        &self.topology
    }

    /// The mesh, when this cluster is a mesh cluster.
    pub fn mesh(&self) -> Option<&MeshNetwork> {
        match &self.topology {
            NetTopology::Mesh(m) => Some(m),
            NetTopology::Star(_) => None,
        }
    }

    /// The star network (immutable).
    ///
    /// # Errors
    ///
    /// [`TopologyError`] on a mesh cluster — star-only call sites (Fig. 11
    /// sweeps, the paper testbeds) use this; topology-generic code matches
    /// on [`Self::topology`] instead.
    pub fn network(&self) -> Result<&StarNetwork, TopologyError> {
        match &self.topology {
            NetTopology::Star(s) => Ok(s),
            NetTopology::Mesh(_) => Err(TopologyError { expected: "star", actual: "mesh" }),
        }
    }

    /// The star network (mutable — e.g. for bandwidth sweeps).
    ///
    /// # Errors
    ///
    /// [`TopologyError`] on a mesh cluster (see [`Self::network`]).
    pub fn network_mut(&mut self) -> Result<&mut StarNetwork, TopologyError> {
        match &mut self.topology {
            NetTopology::Star(s) => Ok(s),
            NetTopology::Mesh(_) => Err(TopologyError { expected: "star", actual: "mesh" }),
        }
    }

    /// Per-node controller↔node route costs, aligned with [`Self::nodes`]
    /// (the controller's entry is [`RouteCost::FREE`]).
    ///
    /// Deterministic and cheap — one Dijkstra plus one path walk per node
    /// on a mesh, a table read per node on a star — so allocators can query
    /// it once per round. See [`RouteCost`] for the congestion proxy.
    pub fn route_costs(&self) -> Vec<RouteCost> {
        match &self.topology {
            NetTopology::Star(s) => self
                .nodes
                .iter()
                .map(|n| {
                    if n.id() == self.controller {
                        RouteCost::FREE
                    } else {
                        let link = s.link(n.id());
                        // One dedicated uplink, one route: load is 1.
                        RouteCost {
                            latency_s: link.latency_s(),
                            per_bit_s: 1.0 / link.bandwidth_bps(),
                        }
                    }
                })
                .collect(),
            NetTopology::Mesh(m) => {
                let routes = m.routes_from(self.controller.0, &[]);
                // Edge load: how many controller→worker routes cross each
                // edge (the congestion proxy's numerator).
                let mut load = vec![0u32; m.num_edges()];
                let paths: Vec<Vec<usize>> = self
                    .nodes
                    .iter()
                    .map(|n| {
                        let v = n.id().0;
                        if v == self.controller.0 || !routes.reachable(v) {
                            Vec::new()
                        } else {
                            routes.path_edges(v)
                        }
                    })
                    .collect();
                for path in &paths {
                    for &e in path {
                        load[e] += 1;
                    }
                }
                self.nodes
                    .iter()
                    .zip(&paths)
                    .map(|(n, path)| {
                        let v = n.id().0;
                        if v == self.controller.0 {
                            RouteCost::FREE
                        } else if !routes.reachable(v) {
                            RouteCost { latency_s: f64::INFINITY, per_bit_s: f64::INFINITY }
                        } else {
                            let per_bit_s = path
                                .iter()
                                .map(|&e| f64::from(load[e]) / m.link(e).bandwidth_bps())
                                .fold(0.0f64, f64::max);
                            RouteCost { latency_s: m.path_latency(&routes, v), per_bit_s }
                        }
                    })
                    .collect()
            }
        }
    }

    /// Looks up a node by id — O(1) via the dense id index.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        if self.index.is_empty() {
            return self.nodes.iter().find(|n| n.id() == id);
        }
        let i = self.index.get(id.0).copied()?;
        (i != usize::MAX).then(|| &self.nodes[i])
    }

    /// Mutable node lookup (e.g. to inject slowdowns in tests). The
    /// replacement must keep the node's id — ids index the cluster.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        if self.index.is_empty() {
            return self.nodes.iter_mut().find(|n| n.id() == id);
        }
        let i = self.index.get(id.0).copied()?;
        (i != usize::MAX).then(|| &mut self.nodes[i])
    }
}

/// Parameters for the seeded mesh-world generator
/// ([`Cluster::mesh_testbed`]).
///
/// The generator lays nodes on a √n × √n grid (row-major, node 0 = the
/// laptop controller in one corner), wires 4-neighbour grid edges, and
/// adds `chords_per_8` seeded long-range chords per 8 nodes. Edges carry
/// Soar-style bandwidth/latency tiers: every 8th grid row/column is a
/// fast backbone, chords are a middle tier, everything else is testbed
/// WiFi — with a small seeded per-edge bandwidth jitter so no two worlds
/// are accidentally symmetric. Worker devices cycle the paper's Pi
/// models; every 64th node is a laptop-class aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Total node count, controller included (≥ 2).
    pub nodes: usize,
    /// Seed for chords and bandwidth jitter.
    pub seed: u64,
    /// Long-range chords added per 8 nodes.
    pub chords_per_8: usize,
}

impl MeshSpec {
    /// A `nodes`-node world with the default chord density.
    pub fn new(nodes: usize, seed: u64) -> Self {
        Self { nodes, seed, chords_per_8: 1 }
    }
}

/// Backbone-tier bandwidth (every 8th grid row/column), bits/second.
pub const MESH_BACKBONE_BPS: f64 = 1e8;
/// Chord-tier bandwidth (seeded long-range links), bits/second.
pub const MESH_CHORD_BPS: f64 = 3e7;

impl Cluster {
    /// Generates a seeded mesh world per `spec` (see [`MeshSpec`]).
    ///
    /// Deterministic: the same spec always yields the same cluster, and
    /// the 100/1000/4000-node worlds used by the scale sweep are just
    /// `MeshSpec::new(n, seed)`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::TooFewNodes`] when `spec.nodes < 2`. Network
    /// validation never fails for the generated tiers, and is propagated
    /// as [`ClusterError::Network`] all the same.
    pub fn mesh_testbed(spec: MeshSpec) -> Result<Self, ClusterError> {
        let n = spec.nodes;
        if n < 2 {
            return Err(ClusterError::TooFewNodes { got: n });
        }
        let side = (n as f64).sqrt().ceil() as usize;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let jitter = |base: f64, rng: &mut StdRng| base * (0.85 + 0.3 * rng.gen::<f64>());

        let mut builder = MeshNetwork::builder(n);
        // 4-neighbour grid edges with tiered capacities.
        for v in 0..n {
            let (r, c) = (v / side, v % side);
            if c + 1 < side && v + 1 < n {
                let backbone = r % 8 == 0;
                let bps = if backbone { MESH_BACKBONE_BPS } else { DEFAULT_WIFI_BPS };
                let lat = if backbone { 2e-4 } else { 1e-3 };
                builder.add_edge(v, v + 1, Link::new(jitter(bps, &mut rng), lat)?)?;
            }
            if v + side < n {
                let backbone = c % 8 == 0;
                let bps = if backbone { MESH_BACKBONE_BPS } else { DEFAULT_WIFI_BPS };
                let lat = if backbone { 2e-4 } else { 1e-3 };
                builder.add_edge(v, v + side, Link::new(jitter(bps, &mut rng), lat)?)?;
            }
        }
        // Seeded long-range chords (middle tier); duplicates of grid edges
        // or earlier chords are simply skipped so the count stays bounded.
        let chords = n * spec.chords_per_8 / 8;
        for _ in 0..chords {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let bps = jitter(MESH_CHORD_BPS, &mut rng);
            match builder.add_edge(a, b, Link::new(bps, 5e-4)?) {
                Ok(_) | Err(NetworkError::DuplicateEdge { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let mesh = builder.build();

        let models = [
            DeviceModel::RaspberryPiAPlus,
            DeviceModel::RaspberryPiB,
            DeviceModel::RaspberryPiBPlus,
        ];
        let mut nodes = Vec::with_capacity(n);
        nodes.push(Node::new(NodeId(0), DeviceModel::Laptop));
        for v in 1..n {
            let model =
                if v % 64 == 0 { DeviceModel::Laptop } else { models[(v - 1) % models.len()] };
            nodes.push(Node::new(NodeId(v), model));
        }
        Self::new_mesh(nodes, mesh, NodeId(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let c = Cluster::paper_testbed().unwrap();
        assert_eq!(c.nodes().len(), 10);
        assert_eq!(c.num_workers(), 9);
        assert_eq!(c.controller(), NodeId(0));
        assert_eq!(c.node(NodeId(0)).unwrap().model(), DeviceModel::Laptop);
        // Three of each Pi model.
        let count = |m: DeviceModel| c.workers().filter(|n| n.model() == m).count();
        assert_eq!(count(DeviceModel::RaspberryPiAPlus), 3);
        assert_eq!(count(DeviceModel::RaspberryPiB), 3);
        assert_eq!(count(DeviceModel::RaspberryPiBPlus), 3);
    }

    #[test]
    fn worker_sweep_sizes() {
        for w in 1..=9 {
            let c = Cluster::testbed_with_workers(w).unwrap();
            assert_eq!(c.num_workers(), w);
        }
        assert!(matches!(
            Cluster::testbed_with_workers(0),
            Err(ClusterError::TooFewNodes { got: 1 })
        ));
    }

    /// The first node whose id an earlier node holds is reported, whether
    /// the id table finds it (dense ids) or the scan does (sparse ids).
    #[test]
    fn duplicate_ids_rejected() {
        let net = StarNetwork::uniform(1e6, 0.0).unwrap();
        for far in [9, 1_000_000] {
            let ids = [0, far, 3, 5, 3, far, 0];
            let nodes = ids.map(|id| Node::new(NodeId(id), DeviceModel::RaspberryPiB)).to_vec();
            let got = Cluster::new(nodes.clone(), net.clone(), NodeId(0));
            assert_eq!(got, Err(ClusterError::DuplicateNode { node: NodeId(3) }), "far id {far}");
            let distinct = nodes[..4].to_vec();
            assert!(Cluster::new(distinct, net.clone(), NodeId(0)).is_ok(), "far id {far}");
        }
    }

    #[test]
    fn node_lookup_and_mutation() {
        let mut c = Cluster::paper_testbed().unwrap();
        assert!(c.node(NodeId(42)).is_none());
        let before = c.node(NodeId(1)).unwrap().compute_time(1e6);
        c.node_mut(NodeId(1)).map(|n| *n = n.clone().with_slowdown(2.0)).unwrap();
        assert!(c.node(NodeId(1)).unwrap().compute_time(1e6) > before);
    }

    #[test]
    fn sparse_ids_fall_back_to_scan() {
        let nodes = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1_000_000), DeviceModel::RaspberryPiB),
        ];
        let net = StarNetwork::uniform(1e6, 0.0).unwrap();
        let c = Cluster::new(nodes, net, NodeId(0)).unwrap();
        assert!(c.node(NodeId(1_000_000)).is_some());
        assert!(c.node(NodeId(7)).is_none());
    }

    #[test]
    fn mesh_cluster_shape_validation() {
        let link = Link::new(1e6, 0.0).unwrap();
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, link).unwrap();
        b.add_edge(1, 2, link).unwrap();
        let mesh = b.build();
        let two = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
        ];
        assert!(matches!(
            Cluster::new_mesh(two, mesh.clone(), NodeId(0)),
            Err(ClusterError::MeshNodeCount { nodes: 2, mesh_nodes: 3 })
        ));
        let misnumbered = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(2), DeviceModel::RaspberryPiB),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
        ];
        assert!(matches!(
            Cluster::new_mesh(misnumbered, mesh.clone(), NodeId(0)),
            Err(ClusterError::MeshNodeId { index: 1, .. })
        ));
        let good = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
            Node::new(NodeId(2), DeviceModel::RaspberryPiBPlus),
        ];
        let c = Cluster::new_mesh(good, mesh, NodeId(0)).unwrap();
        assert!(c.mesh().is_some());
        assert_eq!(c.num_workers(), 2);
    }

    #[test]
    fn star_accessor_errors_on_mesh() {
        let mut c = Cluster::mesh_testbed(MeshSpec::new(9, 7)).unwrap();
        let err = c.network().unwrap_err();
        assert_eq!(err, TopologyError { expected: "star", actual: "mesh" });
        assert_eq!(err.to_string(), "cluster is a mesh, not a star");
        assert!(c.network_mut().is_err());
        let star = Cluster::paper_testbed().unwrap();
        assert!(star.network().is_ok());
    }

    #[test]
    fn star_route_costs_are_the_uplink_term() {
        let c = Cluster::paper_testbed().unwrap();
        let costs = c.route_costs();
        assert_eq!(costs.len(), c.nodes().len());
        assert_eq!(costs[0], RouteCost::FREE);
        for cost in &costs[1..] {
            assert_eq!(cost.per_bit_s, 1.0 / DEFAULT_WIFI_BPS);
            assert_eq!(cost.latency_s, 1e-3);
        }
        let t = costs[1].transfer_time(6e6);
        assert!((t - (1e-3 + 1.0)).abs() < 1e-12, "6 Mbit over 6 Mbps ≈ 1 s, got {t}");
    }

    #[test]
    fn mesh_route_costs_price_shared_edges() {
        // Path graph 0—1—2: edge (0,1) carries both worker routes, edge
        // (1,2) only node 2's, so node 2's bottleneck is the shared edge.
        let link = Link::new(1e6, 1e-4).unwrap();
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, link).unwrap();
        b.add_edge(1, 2, link).unwrap();
        let nodes = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
            Node::new(NodeId(2), DeviceModel::RaspberryPiB),
        ];
        let c = Cluster::new_mesh(nodes, b.build(), NodeId(0)).unwrap();
        let costs = c.route_costs();
        assert_eq!(costs[0], RouteCost::FREE);
        assert!((costs[1].per_bit_s - 2.0 / 1e6).abs() < 1e-18, "shared edge load 2");
        assert!((costs[2].per_bit_s - 2.0 / 1e6).abs() < 1e-18, "bottleneck is shared edge");
        assert!((costs[1].latency_s - 1e-4).abs() < 1e-18);
        assert!((costs[2].latency_s - 2e-4).abs() < 1e-18);
    }

    #[test]
    fn mesh_route_costs_deterministic_on_testbed() {
        let c = Cluster::mesh_testbed(MeshSpec::new(100, 42)).unwrap();
        let a = c.route_costs();
        let b = c.route_costs();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a[1..].iter().all(|r| r.per_bit_s.is_finite() && r.per_bit_s > 0.0));
    }

    #[test]
    fn mesh_testbed_is_deterministic_and_connected() {
        for &n in &[10usize, 100, 1000] {
            let a = Cluster::mesh_testbed(MeshSpec::new(n, 42)).unwrap();
            let b = Cluster::mesh_testbed(MeshSpec::new(n, 42)).unwrap();
            assert_eq!(a, b, "same spec must reproduce the same world");
            let mesh = a.mesh().unwrap();
            assert_eq!(mesh.nodes(), n);
            let routes = mesh.routes_from(0, &[]);
            assert!((0..n).all(|v| routes.reachable(v)), "grid worlds are connected");
            assert_eq!(a.node(NodeId(0)).unwrap().model(), DeviceModel::Laptop);
        }
        let other_seed = Cluster::mesh_testbed(MeshSpec::new(100, 43)).unwrap();
        assert_ne!(Cluster::mesh_testbed(MeshSpec::new(100, 42)).unwrap(), other_seed);
    }

    /// FNV-1a over every field of a mesh world: each node's id and model,
    /// then each edge's endpoints and link bits in id order, then each
    /// node's CSR neighbour list.
    fn world_digest(c: &Cluster) -> u64 {
        let mesh = c.mesh().expect("a mesh world");
        let model = |m: DeviceModel| match m {
            DeviceModel::RaspberryPiAPlus => 0,
            DeviceModel::RaspberryPiB => 1,
            DeviceModel::RaspberryPiBPlus => 2,
            DeviceModel::Laptop => 3,
        };
        let nodes = c.nodes().iter().flat_map(|n| [n.id().0 as u64, model(n.model())]);
        let edges = (0..mesh.num_edges()).flat_map(|e| {
            let ((a, b), link) = (mesh.endpoints(e), mesh.link(e));
            [a as u64, b as u64, link.bandwidth_bps().to_bits(), link.latency_s().to_bits()]
        });
        let adjacency = (0..mesh.nodes())
            .flat_map(|v| mesh.neighbors(v).flat_map(|(u, e)| [u as u64, e as u64]));
        let words = [c.controller().0 as u64, mesh.nodes() as u64, mesh.num_edges() as u64];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in words.into_iter().chain(nodes).chain(edges).chain(adjacency) {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The benchmark's mesh worlds (seed `0xDC7A ^ 0xA110C`), pinned by the
    /// quadratic duplicate scans the builder and the cluster ran before
    /// both became linear: the same edges accepted, in the same order.
    #[test]
    fn mesh_testbed_digests_are_pinned() {
        for (nodes, edges, want) in
            [(300, 601, 0x9d34_8eae_db39_b726u64), (3000, 6265, 0xf0d0_2c17_5381_a4e6)]
        {
            let c = Cluster::mesh_testbed(MeshSpec::new(nodes, 0xDC7A ^ 0xA110C)).unwrap();
            let got = (c.mesh().unwrap().num_edges(), world_digest(&c));
            assert_eq!(got, (edges, want), "{nodes} nodes: ({}, {:#018x})", got.0, got.1);
        }
    }

    #[test]
    fn mesh_testbed_4000_nodes_builds() {
        let c = Cluster::mesh_testbed(MeshSpec::new(4000, 7)).unwrap();
        let mesh = c.mesh().unwrap();
        assert_eq!(mesh.nodes(), 4000);
        // Grid plus chords: strictly more edges than a spanning tree.
        assert!(mesh.num_edges() >= 4000);
    }
}
