//! Network topologies: the paper's WiFi star and general sparse meshes.
//!
//! [`StarNetwork`] is the paper's testbed (Fig. 8): all nodes hang off one
//! access point next to the controller, each with its own link to the hub;
//! a link carries one transfer at a time (transfers to the same node
//! serialise), which is how task input shipping behaves in the paper's
//! evaluation where transmission time is "the main component of processing
//! time" (§V-D).
//!
//! [`MeshNetwork`] generalises this to arbitrary sparse topologies: a
//! CSR-style adjacency over undirected edges with per-hop bandwidth and
//! latency tiers, plus deterministic shortest-path routing
//! ([`MeshNetwork::routes_from`]) computed once per link-state change. The
//! star is the degenerate mesh where every worker has exactly one edge to
//! the hub; [`crate::run`] keeps the star on its exclusive-FIFO link
//! semantics (byte-identical artefacts) and gives meshes a
//! proportional-share fluid-flow contention model.
//!
//! Both topologies keep `Vec`-indexed link storage — no `HashMap` on the
//! per-transfer hot path.

use crate::node::NodeId;
use std::collections::HashSet;
use std::fmt;

/// How transfers contend for the wireless medium.
///
/// The default models one half-duplex link per node (transfers to
/// *different* nodes proceed in parallel). Real WiFi is a single shared
/// radio channel; [`MediumMode::SharedMedium`] serialises *all* transfers
/// through one medium, the pessimistic contention model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MediumMode {
    /// One independent half-duplex link per node.
    #[default]
    PerNodeLink,
    /// Every transfer in the star contends for one shared channel.
    SharedMedium,
}

/// Error returned by network configuration or queries.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// Bandwidth must be positive and finite.
    BadBandwidth {
        /// Offending value (bits/second).
        bandwidth_bps: f64,
    },
    /// Latency must be non-negative and finite.
    BadLatency {
        /// Offending value (seconds).
        latency_s: f64,
    },
    /// The queried node has no link.
    UnknownNode {
        /// The missing node.
        node: NodeId,
    },
    /// A mesh edge references a node outside `0..nodes` or is a self-loop.
    BadEdge {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// The same undirected edge was added twice.
    DuplicateEdge {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::BadBandwidth { bandwidth_bps } => {
                write!(f, "bandwidth must be positive and finite, got {bandwidth_bps} bps")
            }
            NetworkError::BadLatency { latency_s } => {
                write!(f, "latency must be non-negative and finite, got {latency_s} s")
            }
            NetworkError::UnknownNode { node } => write!(f, "no link configured for {node}"),
            NetworkError::BadEdge { a, b } => {
                write!(f, "edge ({a}, {b}) is a self-loop or out of range")
            }
            NetworkError::DuplicateEdge { a, b } => {
                write!(f, "edge ({a}, {b}) was added twice")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// One point-to-point link of the star.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    bandwidth_bps: f64,
    latency_s: f64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Errors
    ///
    /// [`NetworkError::BadBandwidth`] / [`NetworkError::BadLatency`] on
    /// invalid parameters.
    pub fn new(bandwidth_bps: f64, latency_s: f64) -> Result<Self, NetworkError> {
        if !(bandwidth_bps.is_finite() && bandwidth_bps > 0.0) {
            return Err(NetworkError::BadBandwidth { bandwidth_bps });
        }
        if !(latency_s.is_finite() && latency_s >= 0.0) {
            return Err(NetworkError::BadLatency { latency_s });
        }
        Ok(Self { bandwidth_bps, latency_s })
    }

    /// Link bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps
    }

    /// One-way propagation latency in seconds.
    pub fn latency_s(&self) -> f64 {
        self.latency_s
    }

    /// Time to push `bits` across this link: latency + serialisation.
    pub fn transfer_time(&self, bits: f64) -> f64 {
        self.latency_s + bits.max(0.0) / self.bandwidth_bps
    }
}

/// The star network: hub (controller side) plus per-node links.
///
/// Link overrides live in a dense `Vec` indexed by `NodeId.0` (the same
/// storage discipline the mesh uses), so the per-transfer lookup is an
/// array read instead of a hash — node ids are expected to be small and
/// dense, as every [`crate::cluster::Cluster`] constructor guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct StarNetwork {
    links: Vec<Option<Link>>,
    default_link: Link,
    medium: MediumMode,
}

impl StarNetwork {
    /// Creates a star where every node gets `default_link` unless
    /// overridden.
    pub fn new(default_link: Link) -> Self {
        Self { links: Vec::new(), default_link, medium: MediumMode::default() }
    }

    /// Switches the contention model (see [`MediumMode`]).
    pub fn with_medium(mut self, medium: MediumMode) -> Self {
        self.medium = medium;
        self
    }

    /// The active contention model.
    pub fn medium(&self) -> MediumMode {
        self.medium
    }

    /// Switches the contention model in place.
    pub fn set_medium(&mut self, medium: MediumMode) {
        self.medium = medium;
    }

    /// Convenience: uniform WiFi star at `bandwidth_bps` with `latency_s`.
    ///
    /// # Errors
    ///
    /// Propagates [`Link::new`] validation.
    pub fn uniform(bandwidth_bps: f64, latency_s: f64) -> Result<Self, NetworkError> {
        Ok(Self::new(Link::new(bandwidth_bps, latency_s)?))
    }

    /// Overrides the link of one node.
    pub fn set_link(&mut self, node: NodeId, link: Link) {
        if node.0 >= self.links.len() {
            self.links.resize(node.0 + 1, None);
        }
        self.links[node.0] = Some(link);
    }

    /// The link serving `node`.
    pub fn link(&self, node: NodeId) -> Link {
        self.links.get(node.0).copied().flatten().unwrap_or(self.default_link)
    }

    /// Time to ship `bits` from the hub to `node` (or back — links are
    /// symmetric).
    pub fn transfer_time(&self, node: NodeId, bits: f64) -> f64 {
        self.link(node).transfer_time(bits)
    }

    /// Scales every link's bandwidth by `factor` (used by the Fig. 11
    /// bandwidth sweep).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale_bandwidth(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "factor must be positive");
        self.default_link.bandwidth_bps *= factor;
        for link in self.links.iter_mut().flatten() {
            link.bandwidth_bps *= factor;
        }
    }
}

/// Reference transfer size (bits) folded into the routing metric so that a
/// hop's weight reflects both its latency and its serialisation speed:
/// `weight = latency_s + ROUTE_REF_BITS / bandwidth_bps`. One megabit is
/// the order of the paper's task inputs.
pub const ROUTE_REF_BITS: f64 = 1e6;

/// Sentinel for "no predecessor" in [`Routes`].
const NO_PREV: usize = usize::MAX;

/// Builder for a [`MeshNetwork`]; collects undirected edges, validates,
/// then freezes into CSR form.
#[derive(Debug, Clone)]
pub struct MeshBuilder {
    nodes: usize,
    edges: Vec<(usize, usize, Link)>,
    /// The `(lower, higher)` endpoints of every edge in `edges`: the
    /// duplicate test is one lookup, not a scan of the edges so far.
    seen: HashSet<(usize, usize)>,
}

impl MeshBuilder {
    /// Adds an undirected edge between nodes `a` and `b`.
    ///
    /// # Errors
    ///
    /// [`NetworkError::BadEdge`] on a self-loop or out-of-range endpoint,
    /// [`NetworkError::DuplicateEdge`] when `{a, b}` was already added.
    pub fn add_edge(&mut self, a: usize, b: usize, link: Link) -> Result<&mut Self, NetworkError> {
        if a == b || a >= self.nodes || b >= self.nodes {
            return Err(NetworkError::BadEdge { a, b });
        }
        let (lo, hi) = (a.min(b), a.max(b));
        if !self.seen.insert((lo, hi)) {
            return Err(NetworkError::DuplicateEdge { a, b });
        }
        self.edges.push((lo, hi, link));
        Ok(self)
    }

    /// Freezes the builder into a [`MeshNetwork`]. Edge ids are assigned
    /// in insertion order, so identical build sequences produce identical
    /// meshes.
    pub fn build(self) -> MeshNetwork {
        let nodes = self.nodes;
        let mut row_ptr = vec![0usize; nodes + 1];
        for &(a, b, _) in &self.edges {
            row_ptr[a + 1] += 1;
            row_ptr[b + 1] += 1;
        }
        for i in 0..nodes {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut adj_node = vec![0usize; self.edges.len() * 2];
        let mut adj_edge = vec![0usize; self.edges.len() * 2];
        let mut endpoints = Vec::with_capacity(self.edges.len());
        let mut links = Vec::with_capacity(self.edges.len());
        for (id, &(a, b, link)) in self.edges.iter().enumerate() {
            adj_node[cursor[a]] = b;
            adj_edge[cursor[a]] = id;
            cursor[a] += 1;
            adj_node[cursor[b]] = a;
            adj_edge[cursor[b]] = id;
            cursor[b] += 1;
            endpoints.push((a, b));
            links.push(link);
        }
        MeshNetwork { nodes, row_ptr, adj_node, adj_edge, endpoints, links }
    }
}

/// A sparse undirected mesh in CSR form: per-edge bandwidth/latency tiers,
/// dense `Vec` storage throughout (edge and node ids index arrays — no
/// hashing on the hot path).
///
/// Node ids are the dense range `0..nodes`; an edge's capacity is shared
/// by transfers in both directions. Routing is static per link state:
/// [`Self::routes_from`] runs a deterministic Dijkstra (weight
/// `latency + ROUTE_REF_BITS / bandwidth`, ties broken toward the
/// lower-numbered node) and is recomputed only when an edge goes down or
/// comes back.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshNetwork {
    nodes: usize,
    row_ptr: Vec<usize>,
    adj_node: Vec<usize>,
    adj_edge: Vec<usize>,
    endpoints: Vec<(usize, usize)>,
    links: Vec<Link>,
}

impl MeshNetwork {
    /// Starts building a mesh over nodes `0..nodes`.
    pub fn builder(nodes: usize) -> MeshBuilder {
        MeshBuilder { nodes, edges: Vec::new(), seen: HashSet::new() }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.links.len()
    }

    /// The link parameters of edge `e`.
    pub fn link(&self, e: usize) -> Link {
        self.links[e]
    }

    /// The `(lower, higher)` endpoints of edge `e`.
    pub fn endpoints(&self, e: usize) -> (usize, usize) {
        self.endpoints[e]
    }

    /// Neighbours of `v` as `(neighbour, edge id)`, in CSR order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.row_ptr[v]..self.row_ptr[v + 1]).map(|s| (self.adj_node[s], self.adj_edge[s]))
    }

    /// Scales every edge's bandwidth by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale_bandwidth(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "factor must be positive");
        for link in &mut self.links {
            link.bandwidth_bps *= factor;
        }
    }

    /// Shortest-path routes from `src` to every node, skipping edges
    /// flagged in `down` (indexed by edge id; an empty slice means all
    /// edges are up).
    ///
    /// Deterministic: the frontier orders by `(distance, node id)` and
    /// relaxation takes strict improvements only, so equal-cost paths
    /// resolve identically on every run.
    pub fn routes_from(&self, src: usize, down: &[bool]) -> Routes {
        assert!(src < self.nodes, "route source {src} out of range");
        let mut dist = vec![f64::INFINITY; self.nodes];
        let mut prev = vec![NO_PREV; self.nodes];
        let mut prev_edge = vec![NO_PREV; self.nodes];
        let mut done = vec![false; self.nodes];
        // Non-negative finite f64s order the same as their bit patterns,
        // so (dist.to_bits(), node) in a min-heap is a deterministic
        // frontier without any float-ordering wrapper.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
            std::collections::BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(std::cmp::Reverse((0u64, src)));
        while let Some(std::cmp::Reverse((_, v))) = heap.pop() {
            if done[v] {
                continue;
            }
            done[v] = true;
            for (u, e) in self.neighbors(v) {
                if done[u] || down.get(e).copied().unwrap_or(false) {
                    continue;
                }
                let link = self.links[e];
                let nd = dist[v] + link.latency_s + ROUTE_REF_BITS / link.bandwidth_bps;
                if nd < dist[u] {
                    dist[u] = nd;
                    prev[u] = v;
                    prev_edge[u] = e;
                    heap.push(std::cmp::Reverse((nd.to_bits(), u)));
                }
            }
        }
        Routes { src, dist, prev, prev_edge }
    }

    /// Sum of one-way latencies along the route to `v` (0 for `src`).
    pub fn path_latency(&self, routes: &Routes, v: usize) -> f64 {
        let mut total = 0.0;
        let mut at = v;
        while at != routes.src {
            let e = routes.prev_edge[at];
            assert_ne!(e, NO_PREV, "node {at} is unreachable");
            total += self.links[e].latency_s;
            at = routes.prev[at];
        }
        total
    }

    /// Uncontended end-to-end time to ship `bits` to `v`: path latency
    /// plus serialisation at the route's bottleneck bandwidth. This is the
    /// mesh analogue of [`StarNetwork::transfer_time`], used for nominal
    /// processing-time estimates (retry timeouts).
    pub fn nominal_transfer_time(&self, routes: &Routes, v: usize, bits: f64) -> f64 {
        if v == routes.src {
            return 0.0;
        }
        let mut latency = 0.0;
        let mut bottleneck = f64::INFINITY;
        let mut at = v;
        while at != routes.src {
            let e = routes.prev_edge[at];
            assert_ne!(e, NO_PREV, "node {at} is unreachable");
            latency += self.links[e].latency_s;
            bottleneck = bottleneck.min(self.links[e].bandwidth_bps);
            at = routes.prev[at];
        }
        latency + bits.max(0.0) / bottleneck
    }
}

/// Shortest-path tree from one source over a [`MeshNetwork`], produced by
/// [`MeshNetwork::routes_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct Routes {
    src: usize,
    dist: Vec<f64>,
    prev: Vec<usize>,
    prev_edge: Vec<usize>,
}

impl Routes {
    /// The route source.
    pub fn src(&self) -> usize {
        self.src
    }

    /// `true` when `v` has a live route from the source.
    pub fn reachable(&self, v: usize) -> bool {
        self.dist[v].is_finite()
    }

    /// Routing metric distance to `v` (infinite when unreachable).
    pub fn dist(&self, v: usize) -> f64 {
        self.dist[v]
    }

    /// Edge ids along the route source → `v`, in traversal order.
    /// Empty for the source itself.
    ///
    /// # Panics
    ///
    /// Panics when `v` is unreachable.
    pub fn path_edges(&self, v: usize) -> Vec<usize> {
        let mut edges = Vec::new();
        let mut at = v;
        while at != self.src {
            let e = self.prev_edge[at];
            assert_ne!(e, NO_PREV, "node {at} is unreachable");
            edges.push(e);
            at = self.prev[at];
        }
        edges.reverse();
        edges
    }

    /// The last edge on the route to `v` — the hop adjacent to `v`, i.e.
    /// its uplink. `None` when `v` is the source or unreachable.
    pub fn uplink_edge(&self, v: usize) -> Option<usize> {
        (self.prev_edge[v] != NO_PREV).then_some(self.prev_edge[v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_validation() {
        assert!(matches!(Link::new(0.0, 0.0), Err(NetworkError::BadBandwidth { .. })));
        assert!(matches!(Link::new(-5.0, 0.0), Err(NetworkError::BadBandwidth { .. })));
        assert!(matches!(Link::new(1.0, -1.0), Err(NetworkError::BadLatency { .. })));
        assert!(matches!(Link::new(1.0, f64::INFINITY), Err(NetworkError::BadLatency { .. })));
        assert!(Link::new(1e6, 0.001).is_ok());
    }

    #[test]
    fn transfer_time_formula() {
        let link = Link::new(1e6, 0.01).unwrap();
        assert!((link.transfer_time(1e6) - 1.01).abs() < 1e-12);
        assert_eq!(link.transfer_time(0.0), 0.01);
        assert_eq!(link.transfer_time(-10.0), 0.01);
    }

    #[test]
    fn default_and_override_links() {
        let mut net = StarNetwork::uniform(1e6, 0.0).unwrap();
        let fast = Link::new(1e9, 0.0).unwrap();
        net.set_link(NodeId(3), fast);
        assert_eq!(net.link(NodeId(0)).bandwidth_bps(), 1e6);
        assert_eq!(net.link(NodeId(3)).bandwidth_bps(), 1e9);
        assert!(net.transfer_time(NodeId(3), 1e6) < net.transfer_time(NodeId(0), 1e6));
    }

    #[test]
    fn bandwidth_scaling_halves_time() {
        let mut net = StarNetwork::uniform(1e6, 0.0).unwrap();
        net.set_link(NodeId(1), Link::new(2e6, 0.0).unwrap());
        let before_default = net.transfer_time(NodeId(0), 1e6);
        let before_custom = net.transfer_time(NodeId(1), 1e6);
        net.scale_bandwidth(2.0);
        assert!((net.transfer_time(NodeId(0), 1e6) - before_default / 2.0).abs() < 1e-12);
        assert!((net.transfer_time(NodeId(1), 1e6) - before_custom / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_scale_panics() {
        StarNetwork::uniform(1e6, 0.0).unwrap().scale_bandwidth(0.0);
    }

    /// 0 —fast— 1 —fast— 2, plus a slow direct 0–2 edge: routing must take
    /// the two-hop fast path.
    fn diamond() -> MeshNetwork {
        let fast = Link::new(1e8, 1e-4).unwrap();
        let slow = Link::new(1e5, 1e-4).unwrap();
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, fast).unwrap();
        b.add_edge(1, 2, fast).unwrap();
        b.add_edge(0, 2, slow).unwrap();
        b.build()
    }

    #[test]
    fn mesh_builder_validation() {
        let link = Link::new(1e6, 0.0).unwrap();
        let mut b = MeshNetwork::builder(2);
        assert!(matches!(b.add_edge(0, 0, link), Err(NetworkError::BadEdge { .. })));
        assert!(matches!(b.add_edge(0, 5, link), Err(NetworkError::BadEdge { .. })));
        b.add_edge(0, 1, link).unwrap();
        assert!(matches!(b.add_edge(1, 0, link), Err(NetworkError::DuplicateEdge { .. })));
    }

    /// `MeshBuilder` as it stood before its duplicate test became a set
    /// lookup: every edge so far scanned per call. The oracle the builder is
    /// held to.
    struct ScanBuilder {
        nodes: usize,
        edges: Vec<(usize, usize, Link)>,
    }

    impl ScanBuilder {
        fn add_edge(&mut self, a: usize, b: usize, link: Link) -> Result<(), NetworkError> {
            if a == b || a >= self.nodes || b >= self.nodes {
                return Err(NetworkError::BadEdge { a, b });
            }
            if self.edges.iter().any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b))) {
                return Err(NetworkError::DuplicateEdge { a, b });
            }
            self.edges.push((a.min(b), a.max(b), link));
            Ok(())
        }

        fn build(self) -> MeshNetwork {
            MeshBuilder { nodes: self.nodes, edges: self.edges, seen: HashSet::new() }.build()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Random edge sequences over a few nodes, so that repeats come in
        /// both orientations, beside self-loops and ends one or more past
        /// the last node: the builder accepts and rejects what the scan
        /// does, call by call, and freezes into the same mesh.
        #[test]
        fn add_edge_matches_the_scan_oracle(seed in 0u64..u64::MAX) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let nodes = rng.gen_range(0..9);
            let mut builder = MeshNetwork::builder(nodes);
            let mut oracle = ScanBuilder { nodes, edges: Vec::new() };
            for call in 0..rng.gen_range(0..60) {
                let a = rng.gen_range(0..nodes + 2);
                let b = if rng.gen_range(0..8) == 0 { a } else { rng.gen_range(0..nodes + 2) };
                let link = Link::new(rng.gen_range(1e5..1e8), rng.gen_range(0.0..1e-3)).unwrap();
                let got = builder.add_edge(a, b, link).map(|_| ());
                let want = oracle.add_edge(a, b, link);
                proptest::prop_assert_eq!(got, want, "call {call}: {got:?} != {want:?}");
            }
            proptest::prop_assert_eq!(builder.build(), oracle.build());
        }
    }

    #[test]
    fn mesh_routes_prefer_fast_multihop() {
        let mesh = diamond();
        let routes = mesh.routes_from(0, &[]);
        assert_eq!(routes.path_edges(2), vec![0, 1]);
        assert_eq!(routes.uplink_edge(2), Some(1));
        assert_eq!(routes.path_edges(0), Vec::<usize>::new());
        // Two fast hops: 2 × (1e-4 + 1e6/1e8) < one slow hop's 1e6/1e5.
        assert!((routes.dist(2) - 2.0 * (1e-4 + 1e6 / 1e8)).abs() < 1e-12);
    }

    #[test]
    fn mesh_reroutes_around_down_edge() {
        let mesh = diamond();
        let mut down = vec![false; mesh.num_edges()];
        down[1] = true; // kill fast hop 1–2
        let routes = mesh.routes_from(0, &down);
        assert_eq!(routes.path_edges(2), vec![2]); // falls back to slow direct
        down[2] = true; // kill the fallback too
        let routes = mesh.routes_from(0, &down);
        assert!(!routes.reachable(2));
        assert!(routes.reachable(1));
    }

    #[test]
    fn mesh_nominal_transfer_uses_bottleneck() {
        let mesh = diamond();
        let routes = mesh.routes_from(0, &[]);
        // Route 0→2 is two fast hops: latency 2e-4, bottleneck 1e8.
        let t = mesh.nominal_transfer_time(&routes, 2, 1e8);
        assert!((t - (2e-4 + 1.0)).abs() < 1e-12);
        assert_eq!(mesh.nominal_transfer_time(&routes, 0, 1e8), 0.0);
        assert!((mesh.path_latency(&routes, 2) - 2e-4).abs() < 1e-15);
    }

    #[test]
    fn mesh_routing_ties_are_deterministic() {
        // Square 0-1-3 / 0-2-3 with identical links: both routes to 3 cost
        // the same; the tie must resolve the same way every time.
        let link = Link::new(1e6, 1e-3).unwrap();
        let build = || {
            let mut b = MeshNetwork::builder(4);
            b.add_edge(0, 1, link).unwrap();
            b.add_edge(0, 2, link).unwrap();
            b.add_edge(1, 3, link).unwrap();
            b.add_edge(2, 3, link).unwrap();
            b.build()
        };
        let p1 = build().routes_from(0, &[]).path_edges(3);
        let p2 = build().routes_from(0, &[]).path_edges(3);
        assert_eq!(p1, p2);
    }

    #[test]
    fn star_as_degenerate_mesh_matches_star_times() {
        // A hub-and-spoke mesh reproduces StarNetwork's uncontended
        // transfer times exactly.
        let star = StarNetwork::uniform(6e6, 1e-3).unwrap();
        let spoke = Link::new(6e6, 1e-3).unwrap();
        let mut b = MeshNetwork::builder(5);
        for w in 1..5 {
            b.add_edge(0, w, spoke).unwrap();
        }
        let mesh = b.build();
        let routes = mesh.routes_from(0, &[]);
        for w in 1..5 {
            let bits = 1.5e6;
            assert_eq!(
                mesh.nominal_transfer_time(&routes, w, bits),
                star.transfer_time(NodeId(w), bits),
            );
        }
    }
}
