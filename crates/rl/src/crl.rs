//! Clustered Reinforcement Learning (CRL, Algorithm 1).
//!
//! CRL handles the *environment-dynamic knapsack*: task importances change
//! with context, so a single fixed RL environment mis-trains. The remedy
//! (§III-C) is an **environment store** of historical `(sensing signature Z,
//! importance vector)` pairs; at decision time the current signature selects
//! the nearest historical environment via kNN (`e = kNN(E, Z)`), and the
//! greedy policy of that environment's DQN emits the allocation. Every
//! environment's DQN is trained once, all of them in parallel when the first
//! is needed ("the training phase merely needs to be conducted once").

use crate::alloc_env::{AllocEnv, AllocSpec, SpecError};
use crate::dqn::{DqnAgent, DqnConfig, DqnError};
use crate::mdp::Environment;
use learn::kmeans::{KMeans, KMeansError};
use learn::knn::{KnnError, KnnIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::OnceLock;

/// One historical environment: the day's sensing signature and the task
/// importances observed for it.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentRecord {
    /// Sensing vector `Z` (weather, demand, configuration…).
    pub signature: Vec<f64>,
    /// Task importance vector `I` for that context.
    pub importances: Vec<f64>,
}

/// The historical environment set `E`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnvironmentStore {
    records: Vec<EnvironmentRecord>,
}

impl EnvironmentStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored environments.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The stored records.
    pub fn records(&self) -> &[EnvironmentRecord] {
        &self.records
    }

    /// Adds a historical environment.
    ///
    /// # Errors
    ///
    /// [`CrlError::Shape`] when the record's arity disagrees with existing
    /// records.
    pub fn push(&mut self, record: EnvironmentRecord) -> Result<(), CrlError> {
        if let Some(first) = self.records.first() {
            if first.signature.len() != record.signature.len()
                || first.importances.len() != record.importances.len()
            {
                return Err(CrlError::Shape);
            }
        }
        self.records.push(record);
        Ok(())
    }

    /// The `k`-NN blend of importance vectors nearest to `signature`
    /// (inverse-distance weighted), plus the index of the single nearest
    /// record. This is the `EnvironmentDefinition(E, Z)` step of Alg. 1.
    ///
    /// # Errors
    ///
    /// [`CrlError::EmptyStore`] / [`CrlError::Knn`] on lookup failure.
    pub fn nearest_blend(
        &self,
        signature: &[f64],
        k: usize,
    ) -> Result<(usize, Vec<f64>), CrlError> {
        if self.records.is_empty() {
            return Err(CrlError::EmptyStore);
        }
        let index = KnnIndex::new(self.records.iter().map(|r| r.signature.clone()).collect())?;
        self.blend_in(&index, signature, k)
    }

    /// [`Self::nearest_blend`] against a kNN `index` already built over
    /// this store's signatures.
    fn blend_in(
        &self,
        index: &KnnIndex,
        signature: &[f64],
        k: usize,
    ) -> Result<(usize, Vec<f64>), CrlError> {
        let hits = index.nearest(signature, k.max(1))?;
        let n = self.records[0].importances.len();
        let mut blend = vec![0.0; n];
        let mut total = 0.0;
        for h in &hits {
            let w = 1.0 / (h.distance + 1e-9);
            for (b, &i) in blend.iter_mut().zip(&self.records[h.index].importances) {
                *b += w * i;
            }
            total += w;
        }
        for b in &mut blend {
            *b /= total;
        }
        Ok((hits[0].index, blend))
    }
}

/// Error returned by CRL.
#[derive(Debug, Clone, PartialEq)]
pub enum CrlError {
    /// The environment store is empty — nothing to cluster against.
    EmptyStore,
    /// Record arity mismatch within the store, or spec/task-count mismatch.
    Shape,
    /// kNN lookup failure.
    Knn(KnnError),
    /// k-means clustering failure (offline mode).
    KMeans(KMeansError),
    /// Spec validation failure.
    Spec(SpecError),
    /// DQN failure.
    Dqn(DqnError),
    /// An agent was asked for before any task geometry was bound
    /// ([`Crl::bind`]).
    Unbound,
}

impl fmt::Display for CrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrlError::EmptyStore => write!(f, "environment store is empty"),
            CrlError::Shape => write!(f, "record/spec shapes are inconsistent"),
            CrlError::Knn(e) => write!(f, "environment lookup failed: {e}"),
            CrlError::KMeans(e) => write!(f, "environment clustering failed: {e}"),
            CrlError::Spec(e) => write!(f, "invalid allocation spec: {e}"),
            CrlError::Dqn(e) => write!(f, "agent failure: {e}"),
            CrlError::Unbound => write!(f, "no task geometry is bound to train agents against"),
        }
    }
}

impl std::error::Error for CrlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrlError::Knn(e) => Some(e),
            CrlError::KMeans(e) => Some(e),
            CrlError::Spec(e) => Some(e),
            CrlError::Dqn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KnnError> for CrlError {
    fn from(e: KnnError) -> Self {
        CrlError::Knn(e)
    }
}

impl From<KMeansError> for CrlError {
    fn from(e: KMeansError) -> Self {
        CrlError::KMeans(e)
    }
}

impl From<SpecError> for CrlError {
    fn from(e: SpecError) -> Self {
        CrlError::Spec(e)
    }
}

impl From<DqnError> for CrlError {
    fn from(e: DqnError) -> Self {
        CrlError::Dqn(e)
    }
}

/// How the current environment is defined from the historical store
/// (Discussion §VII: the online kNN mode is accurate but pays a lookup at
/// run time; the offline k-means mode pre-clusters and is cheaper but can
/// be coarser).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupMode {
    /// Online: inverse-distance blend of the `k` nearest historical days.
    OnlineKnn,
    /// Offline: signatures are pre-clustered into `clusters` groups; the
    /// assigned cluster's mean importance vector is the environment.
    OfflineKMeans {
        /// Number of clusters.
        clusters: usize,
    },
}

/// CRL hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CrlConfig {
    /// Neighbours blended during environment definition (online mode).
    pub k: usize,
    /// Environment-definition mode.
    pub lookup: LookupMode,
    /// Training episodes when a new environment's agent is first needed.
    pub episodes: usize,
    /// DQN settings.
    pub dqn: DqnConfig,
    /// Seed for agent initialisation and exploration.
    pub seed: u64,
}

impl Default for CrlConfig {
    fn default() -> Self {
        Self {
            k: 3,
            lookup: LookupMode::OnlineKnn,
            episodes: 100,
            dqn: DqnConfig {
                hidden: vec![64, 32],
                target_sync_interval: 100,
                epsilon_decay: 0.97,
                ..DqnConfig::default()
            },
            seed: 17,
        }
    }
}

/// Result of one CRL allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CrlAllocation {
    /// Task → processor assignment.
    pub assignment: Vec<Option<usize>>,
    /// The blended importance estimate used (the clustered environment).
    pub estimated_importances: Vec<f64>,
    /// Estimated total importance captured, under the blend.
    pub estimated_value: f64,
    /// Whether a cached agent was reused (true) or trained fresh (false).
    pub cache_hit: bool,
}

/// Trains the agent of key `key` on its environment `blend`, seeded from
/// `config.seed` mixed with the key alone — so the agent depends on neither
/// the order environments are trained in nor the thread that trains it.
/// Every CRL agent is made here.
fn train_keyed(
    config: &CrlConfig,
    spec: &AllocSpec,
    key: usize,
    blend: &[f64],
) -> Result<DqnAgent, CrlError> {
    let clustered_spec = AllocSpec { importances: blend.to_vec(), ..spec.clone() };
    let mut env = AllocEnv::new(clustered_spec)?;
    // SplitMix-style key mixing keeps per-agent streams disjoint for any
    // seed while staying reproducible.
    let agent_seed = config.seed ^ (key as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(agent_seed);
    let mut agent =
        DqnAgent::new(env.state_dim(), env.num_actions(), config.dqn.clone(), &mut rng)?;
    for _ in 0..config.episodes {
        agent.train_episode(&mut env, &mut rng)?;
    }
    Ok(agent)
}

/// The environment-definition index over one state of the store.
#[derive(Debug)]
enum Lookup {
    /// Online mode: the kNN index over every stored signature.
    Knn(KnnIndex),
    /// Offline mode: the clustering of the stored signatures.
    KMeans(KMeans),
}

/// One agent key: the environment its agent trains on, and the agent.
#[derive(Debug)]
struct Context {
    /// Record `key`'s own kNN blend (online mode) or cluster `key`'s mean
    /// importance vector (offline mode).
    blend: Vec<f64>,
    /// Trained on the first touch of any key ([`Crl::agent`]); `Err` is
    /// cached too, so a failing geometry does not retrain on every request.
    agent: OnceLock<Result<DqnAgent, CrlError>>,
}

impl Context {
    /// The agent of key `key`, trained here unless its slot is already set.
    fn train(&self, crl: &Crl, spec: &AllocSpec, key: usize) -> &Result<DqnAgent, CrlError> {
        self.agent.get_or_init(|| train_keyed(&crl.config, spec, key, &self.blend))
    }
}

/// Everything derived from one state of the store: the lookup index and
/// the contexts it can resolve a query to.
#[derive(Debug)]
struct Contexts {
    lookup: Lookup,
    /// Indexed by agent key. `None` is a kNN key no query can produce: a
    /// record whose signature repeats a lower-index record's, which wins
    /// every tie.
    by_key: Vec<Option<Context>>,
}

impl Contexts {
    fn build(store: &EnvironmentStore, config: &CrlConfig) -> Result<Self, CrlError> {
        if store.is_empty() {
            return Err(CrlError::EmptyStore);
        }
        let signatures: Vec<Vec<f64>> =
            store.records().iter().map(|r| r.signature.clone()).collect();
        let context = |blend| Context { blend, agent: OnceLock::new() };
        let (lookup, by_key) = match config.lookup {
            LookupMode::OnlineKnn => {
                let index = KnnIndex::new(signatures)?;
                let mut by_key = Vec::with_capacity(store.len());
                for (key, record) in store.records().iter().enumerate() {
                    let (nearest, blend) = store.blend_in(&index, &record.signature, config.k)?;
                    by_key.push((nearest == key).then(|| context(blend)));
                }
                (Lookup::Knn(index), by_key)
            }
            LookupMode::OfflineKMeans { clusters } => {
                let k = clusters.clamp(1, signatures.len());
                // A fresh stream per fit: the clustering is a function of
                // the store, not of what was trained before it.
                let mut rng = StdRng::seed_from_u64(config.seed);
                let model = KMeans::fit(&signatures, k, 100, &mut rng)?;
                let n = store.records()[0].importances.len();
                let mut sums = vec![vec![0.0; n]; k];
                let mut counts = vec![0usize; k];
                for (record, &c) in store.records().iter().zip(model.assignments()) {
                    counts[c] += 1;
                    for (s, &v) in sums[c].iter_mut().zip(&record.importances) {
                        *s += v;
                    }
                }
                for (sum, &count) in sums.iter_mut().zip(&counts) {
                    for v in sum.iter_mut() {
                        *v /= count.max(1) as f64;
                    }
                }
                (Lookup::KMeans(model), sums.into_iter().map(|mean| Some(context(mean))).collect())
            }
        };
        Ok(Self { lookup, by_key })
    }

    /// Moves over from `stale` — the contexts of the store before it grew —
    /// the agent of every key whose blend came out bit-identical. An agent
    /// is a function of its key and blend, so these are the agents a cold
    /// allocator over the grown store would train; every other key starts
    /// untrained.
    fn adopt(&mut self, stale: Contexts) {
        fn bits(blend: &[f64]) -> impl Iterator<Item = u64> + '_ {
            blend.iter().map(|v| v.to_bits())
        }
        for (context, old) in self.by_key.iter_mut().zip(stale.by_key) {
            if let (Some(context), Some(old)) = (context, old) {
                if bits(&context.blend).eq(bits(&old.blend)) {
                    context.agent = old.agent;
                }
            }
        }
    }

    fn get(&self, key: usize) -> Option<&Context> {
        self.by_key.get(key)?.as_ref()
    }

    fn is_trained(&self, key: usize) -> bool {
        self.get(key).is_some_and(|c| c.agent.get().is_some())
    }

    /// The keys a query can resolve to, ascending, with their contexts.
    fn keyed(&self) -> impl Iterator<Item = (usize, &Context)> + '_ {
        self.by_key.iter().enumerate().filter_map(|(key, c)| Some((key, c.as_ref()?)))
    }

    /// [`Self::keyed`] less the keys whose agent is trained.
    fn untrained(&self) -> Vec<(usize, &Context)> {
        self.keyed().filter(|(_, c)| c.agent.get().is_none()).collect()
    }
}

/// The CRL allocator: the environment store, the lookup built over it, and
/// one agent per environment, all trained at once, in parallel, when a
/// request first needs one ([`Self::agent`]).
///
/// Only [`Self::observe`] takes `&mut self`. Everything else is `&self` and
/// thread-safe: the lookup is built once per store state, and each agent
/// lives in its own [`OnceLock`] slot, so concurrent first touches are
/// race-free — one winner trains a slot, everyone else blocks on it.
///
/// An agent is a pure function of `config.seed`, its key, its training
/// blend and the task geometry bound once per allocator ([`Self::bind`]).
/// Which request, thread or ordering trains it cannot change a bit of it,
/// and [`Self::pretrain`] decides only *when* agents are trained.
#[derive(Debug)]
pub struct Crl {
    store: EnvironmentStore,
    config: CrlConfig,
    /// The task geometry agents train against (importances replaced per
    /// key by the training blend).
    spec: OnceLock<AllocSpec>,
    /// Built on first use; [`Self::observe`] rebuilds it.
    contexts: OnceLock<Result<Contexts, CrlError>>,
}

impl Crl {
    /// Creates a CRL allocator over `store`.
    pub fn new(store: EnvironmentStore, config: CrlConfig) -> Self {
        Self { store, config, spec: OnceLock::new(), contexts: OnceLock::new() }
    }

    /// Read access to the environment store.
    pub fn store(&self) -> &EnvironmentStore {
        &self.store
    }

    /// Adds a freshly-observed environment (stores accumulate daily). A
    /// lookup already built is rebuilt over the grown store, keeping
    /// exactly the agents whose training blend is bit-identical in the new
    /// lookup: kNN keys whose `k` nearest records the new one did not
    /// join, k-means clusters whose mean importances the re-fit
    /// reproduced. Every other agent is dropped and retrains at the next touch.
    ///
    /// # Errors
    ///
    /// [`CrlError::Shape`] on arity mismatch.
    pub fn observe(&mut self, record: EnvironmentRecord) -> Result<(), CrlError> {
        self.store.push(record)?;
        if let Some(stale) = self.contexts.take() {
            let mut fresh = Contexts::build(&self.store, &self.config);
            if let (Ok(fresh), Ok(stale)) = (&mut fresh, stale) {
                fresh.adopt(stale);
            }
            self.contexts = OnceLock::from(fresh);
        }
        Ok(())
    }

    fn contexts(&self) -> Result<&Contexts, CrlError> {
        self.contexts
            .get_or_init(|| Contexts::build(&self.store, &self.config))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Number of agent keys the lookup can produce (`0` while the store is
    /// empty).
    pub fn num_keys(&self) -> usize {
        self.contexts().map_or(0, |c| c.keyed().count())
    }

    /// Number of agents trained so far.
    pub fn cached_agents(&self) -> usize {
        match self.contexts.get() {
            Some(Ok(c)) => c.keyed().filter(|(_, c)| c.agent.get().is_some()).count(),
            _ => 0,
        }
    }

    /// Binds the task geometry every agent of this allocator trains
    /// against. The first binding wins — this call, [`Self::pretrain`], or
    /// the first [`Self::allocate`] — and later ones change nothing, so an
    /// agent cannot depend on which request reached it first.
    ///
    /// # Errors
    ///
    /// [`CrlError::EmptyStore`] on an empty store, [`CrlError::Shape`] when
    /// `spec` disagrees with the stored importance arity, plus spec
    /// validation.
    pub fn bind(&self, spec: &AllocSpec) -> Result<(), CrlError> {
        spec.validate()?;
        match self.store.records().first() {
            None => return Err(CrlError::EmptyStore),
            Some(first) if first.importances.len() != spec.num_tasks() => {
                return Err(CrlError::Shape)
            }
            Some(_) => {}
        }
        self.spec.get_or_init(|| spec.clone());
        Ok(())
    }

    /// Environment definition in the configured [`LookupMode`]: the agent
    /// key plus the query's blended importance estimate. This is the
    /// `EnvironmentDefinition(E, Z)` step of Alg. 1.
    ///
    /// # Errors
    ///
    /// [`CrlError::EmptyStore`], or the lookup's build or query failure.
    pub fn define_environment(&self, signature: &[f64]) -> Result<(usize, Vec<f64>), CrlError> {
        let contexts = self.contexts()?;
        match &contexts.lookup {
            Lookup::Knn(index) => self.store.blend_in(index, signature, self.config.k),
            Lookup::KMeans(model) => {
                let cluster = model.predict(signature);
                let context = contexts.get(cluster).ok_or(CrlError::EmptyStore)?;
                Ok((cluster, context.blend.clone()))
            }
        }
    }

    /// The agent for `key`. A request that finds it untrained trains every
    /// untrained key the lookup can produce at once, in parallel: Alg. 1's
    /// offline step, run when an agent is first needed. Each agent keeps
    /// its own slot, so a thread blocks only on a slot being trained, none
    /// is trained twice, and a training error stays cached in its key's
    /// slot, never failing a request for another key.
    ///
    /// # Errors
    ///
    /// Replays the training error cached in the slot;
    /// [`CrlError::EmptyStore`] for a key the lookup cannot produce;
    /// [`CrlError::Unbound`] before any geometry is bound.
    pub fn agent(&self, key: usize) -> Result<&DqnAgent, CrlError> {
        let contexts = self.contexts()?;
        let context = contexts.get(key).ok_or(CrlError::EmptyStore)?;
        let spec = self.spec.get().ok_or(CrlError::Unbound)?;
        if context.agent.get().is_none() {
            // Grain 1: each job is a full multi-episode DQN training, far
            // past the point where thread spawn overhead matters, so even
            // two jobs deserve two threads.
            let untrained = contexts.untrained();
            parallel::map(untrained.len(), 1, |i| {
                let (key, context) = untrained[i];
                context.train(self, spec, key);
            });
        }
        context.train(self, spec, key).as_ref().map_err(Clone::clone)
    }

    /// Touches every untrained key, binding `spec` as the geometry if none
    /// is bound yet, and returns how many keys that was. The first touch
    /// trains them all at once, as any first touch does ([`Self::agent`]);
    /// this only moves it earlier — the warm-up of a server that must not
    /// pay training on a request.
    ///
    /// # Errors
    ///
    /// See [`CrlError`] variants; a training error is the lowest such
    /// key's.
    pub fn pretrain(&self, spec: &AllocSpec) -> Result<usize, CrlError> {
        self.bind(spec)?;
        let cold = self.contexts()?.untrained();
        for &(key, _) in &cold {
            self.agent(key)?;
        }
        Ok(cold.len())
    }

    /// Allocates the live instance: environment definition (kNN or k-means
    /// per the configured mode), then the (possibly cached) DQN's greedy
    /// rollout. `spec.importances` is *ignored and replaced* by the
    /// clustered estimate — CRL's whole point is that live importances are
    /// unknown. On an allocator with no geometry bound yet, `spec` binds
    /// it.
    ///
    /// # Errors
    ///
    /// See [`CrlError`] variants.
    pub fn allocate(&self, signature: &[f64], spec: &AllocSpec) -> Result<CrlAllocation, CrlError> {
        self.bind(spec)?;
        let (key, blend) = self.define_environment(signature)?;
        let cache_hit = self.contexts()?.is_trained(key);
        let agent = self.agent(key)?;
        let mut env = AllocEnv::new(AllocSpec { importances: blend.clone(), ..spec.clone() })?;
        agent.evaluate_episode(&mut env)?;
        Ok(CrlAllocation {
            assignment: env.assignment().to_vec(),
            estimated_importances: blend,
            estimated_value: env.assigned_value(),
            cache_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn spec(n: usize) -> AllocSpec {
        AllocSpec {
            importances: vec![0.0; n], // unknown at decision time
            times: vec![1.0; n],
            resources: vec![1.0; n],
            time_limits: vec![1.0; 2], // each processor fits exactly one task
            capacities: vec![1.0, 1.0],
        }
    }

    pub(super) fn store_two_contexts(n: usize) -> EnvironmentStore {
        // Context A (signature ~ [0]): task 0 is the important one.
        // Context B (signature ~ [10]): task n-1 is the important one.
        let mut store = EnvironmentStore::new();
        let mut imp_a = vec![0.05; n];
        imp_a[0] = 0.95;
        let mut imp_b = vec![0.05; n];
        imp_b[n - 1] = 0.95;
        for d in 0..4 {
            let jitter = d as f64 * 0.1;
            store
                .push(EnvironmentRecord { signature: vec![jitter], importances: imp_a.clone() })
                .unwrap();
            store
                .push(EnvironmentRecord {
                    signature: vec![10.0 + jitter],
                    importances: imp_b.clone(),
                })
                .unwrap();
        }
        store
    }

    #[test]
    fn store_validates_shapes() {
        let mut store = EnvironmentStore::new();
        store
            .push(EnvironmentRecord { signature: vec![1.0], importances: vec![0.5, 0.5] })
            .unwrap();
        assert!(matches!(
            store
                .push(EnvironmentRecord { signature: vec![1.0, 2.0], importances: vec![0.5, 0.5] }),
            Err(CrlError::Shape)
        ));
        assert!(matches!(
            store.push(EnvironmentRecord { signature: vec![1.0], importances: vec![0.5] }),
            Err(CrlError::Shape)
        ));
    }

    #[test]
    fn nearest_blend_picks_matching_context() {
        let store = store_two_contexts(4);
        let (_, blend_a) = store.nearest_blend(&[0.1], 3).unwrap();
        assert!(blend_a[0] > 0.8, "blend {blend_a:?}");
        let (_, blend_b) = store.nearest_blend(&[9.9], 3).unwrap();
        assert!(blend_b[3] > 0.8, "blend {blend_b:?}");
    }

    #[test]
    fn empty_store_errors() {
        let store = EnvironmentStore::new();
        assert!(matches!(store.nearest_blend(&[0.0], 1), Err(CrlError::EmptyStore)));
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Enough episodes for the replay buffer to fill and learning to start,
    /// so an agent's parameters depend on its blend and geometry.
    fn quick(lookup: LookupMode) -> CrlConfig {
        CrlConfig { episodes: 40, lookup, ..CrlConfig::default() }
    }

    const MODES: [LookupMode; 2] =
        [LookupMode::OnlineKnn, LookupMode::OfflineKMeans { clusters: 2 }];

    /// Per key the lookup can produce: its training blend's bits, and
    /// whether its agent is trained.
    fn snapshot(crl: &Crl) -> Vec<(usize, Vec<u64>, bool)> {
        let contexts = crl.contexts().unwrap();
        contexts.keyed().map(|(key, c)| (key, bits(&c.blend), c.agent.get().is_some())).collect()
    }

    #[test]
    fn crl_allocates_context_appropriate_tasks() {
        let n = 4;
        let crl =
            Crl::new(store_two_contexts(n), CrlConfig { episodes: 80, ..CrlConfig::default() });
        // Context A: the agent should place task 0 (importance 0.95).
        let alloc = crl.allocate(&[0.0], &spec(n)).unwrap();
        assert!(alloc.assignment[0].is_some(), "assignment {:?}", alloc.assignment);
        assert!(alloc.estimated_value > 0.9);
        // Context B: task 3 should be placed.
        let alloc_b = crl.allocate(&[10.0], &spec(n)).unwrap();
        assert!(alloc_b.assignment[3].is_some(), "assignment {:?}", alloc_b.assignment);
    }

    #[test]
    fn agent_cache_is_reused_per_environment() {
        let n = 3;
        let crl = Crl::new(store_two_contexts(n), quick(LookupMode::OnlineKnn));
        let first = crl.allocate(&[0.0], &spec(n)).unwrap();
        assert!(!first.cache_hit);
        assert_eq!(crl.cached_agents(), crl.num_keys());
        let second = crl.allocate(&[0.05], &spec(n)).unwrap();
        assert!(second.cache_hit, "same nearest environment should reuse the agent");
        let other = crl.allocate(&[10.0], &spec(n)).unwrap();
        assert!(other.cache_hit, "the first touch trained the other context too");
        assert_eq!(crl.cached_agents(), crl.num_keys());
    }

    /// [`store_two_contexts`] cut to two days per context: four kNN keys.
    fn store_two_days(n: usize) -> EnvironmentStore {
        let mut store = EnvironmentStore::new();
        for record in &store_two_contexts(n).records()[..4] {
            store.push(record.clone()).unwrap();
        }
        store
    }

    /// The agents one first touch trains at 1, 2 and 8 threads are, bit for
    /// bit, a pretrained allocator's, which are `train_keyed`'s run serially.
    #[test]
    fn a_first_touch_trains_the_pretrained_agents_at_any_thread_count() {
        let n = 3;
        for lookup in MODES {
            let config = quick(lookup);
            let pretrained = Crl::new(store_two_days(n), config.clone());
            pretrained.pretrain(&spec(n)).unwrap();
            let want: Vec<Vec<u64>> = snapshot(&pretrained)
                .into_iter()
                .map(|(key, _, _)| pretrained.agent(key).unwrap().parameter_bits())
                .collect();
            let contexts = pretrained.contexts().unwrap();
            for ((key, context), bits) in contexts.keyed().zip(&want) {
                let serial = train_keyed(&config, &spec(n), key, &context.blend).unwrap();
                assert_eq!(&serial.parameter_bits(), bits, "{lookup:?}, key {key}");
            }
            for threads in [1, 2, 8] {
                let _threads = parallel::ScopedThreads::new(threads);
                let touched = Crl::new(store_two_days(n), config.clone());
                touched.allocate(&[0.0], &spec(n)).unwrap();
                let got: Vec<Vec<u64>> = snapshot(&touched)
                    .into_iter()
                    .map(|(key, _, trained)| {
                        assert!(trained, "{lookup:?}, threads {threads}, key {key}");
                        touched.agent(key).unwrap().parameter_bits()
                    })
                    .collect();
                assert_eq!(got, want, "{lookup:?}, threads {threads}");
            }
        }
    }

    /// A key whose training fails keeps its error in its own slot: the
    /// first touch of another key is answered, and `pretrain` reports the
    /// error after training everything else.
    #[test]
    fn a_sibling_training_error_fails_only_its_own_key() {
        let n = 3;
        let mut store = store_two_days(n);
        // With k = 1 a key trains on its own record, so only this one fails.
        store.push(EnvironmentRecord { signature: vec![5.0], importances: vec![-1.0; n] }).unwrap();
        let config = CrlConfig { k: 1, ..quick(LookupMode::OnlineKnn) };
        let bad = Err(CrlError::Spec(SpecError::BadValue));

        let touched = Crl::new(store.clone(), config.clone());
        assert!(!touched.allocate(&[0.0], &spec(n)).unwrap().cache_hit);
        assert_eq!(touched.cached_agents(), touched.num_keys());
        assert_eq!(touched.agent(4).map(|_| ()), bad);
        assert!(touched.allocate(&[10.0], &spec(n)).unwrap().cache_hit);
        assert_eq!(touched.pretrain(&spec(n)), Ok(0));

        let pretrained = Crl::new(store, config);
        assert_eq!(pretrained.pretrain(&spec(n)), bad.map(|()| 0));
        assert_eq!(pretrained.cached_agents(), pretrained.num_keys());
    }

    #[test]
    fn shape_mismatch_between_store_and_spec() {
        let crl = Crl::new(store_two_contexts(4), quick(LookupMode::OnlineKnn));
        assert!(matches!(crl.allocate(&[0.0], &spec(3)), Err(CrlError::Shape)));
        assert!(matches!(crl.bind(&spec(3)), Err(CrlError::Shape)));
        assert!(matches!(crl.pretrain(&spec(3)), Err(CrlError::Shape)));
        // A rejected geometry binds nothing.
        assert!(matches!(crl.agent(0), Err(CrlError::Unbound)));
    }

    #[test]
    fn empty_store_is_an_error_until_something_is_observed() {
        for lookup in MODES {
            let mut crl = Crl::new(EnvironmentStore::new(), quick(lookup));
            assert_eq!(crl.num_keys(), 0);
            assert!(matches!(crl.allocate(&[0.0], &spec(2)), Err(CrlError::EmptyStore)));
            assert!(matches!(crl.pretrain(&spec(2)), Err(CrlError::EmptyStore)));
            crl.observe(EnvironmentRecord { signature: vec![1.0], importances: vec![0.9, 0.1] })
                .unwrap();
            assert_eq!(crl.store().len(), 1);
            // More clusters than records is clamped.
            assert_eq!(crl.num_keys(), 1);
            assert!(crl.allocate(&[0.0], &spec(2)).unwrap().estimated_importances[0] > 0.8);
        }
    }

    #[test]
    fn pretrain_trains_every_key_once() {
        let n = 4;
        for lookup in MODES {
            let crl = Crl::new(store_two_contexts(n), quick(lookup));
            assert_eq!(crl.cached_agents(), 0);
            assert_eq!(crl.pretrain(&spec(n)).unwrap(), crl.num_keys());
            assert_eq!(crl.cached_agents(), crl.num_keys());
            // Every allocation now reuses a pretrained agent.
            assert!(crl.allocate(&[0.0], &spec(n)).unwrap().cache_hit);
            assert!(crl.allocate(&[10.0], &spec(n)).unwrap().cache_hit);
            // Pretraining again is a no-op.
            assert_eq!(crl.pretrain(&spec(n)).unwrap(), 0);
        }
    }

    #[test]
    fn a_duplicate_signature_is_not_a_key() {
        let n = 3;
        let mut store = store_two_contexts(n);
        let shadowed = store.len();
        store.push(store.records()[1].clone()).unwrap();
        let crl = Crl::new(store, quick(LookupMode::OnlineKnn));
        // No query resolves to the repeat — record 1 wins the tie — so it
        // is neither counted, nor pretrained, nor trainable by hand.
        assert_eq!(crl.num_keys(), shadowed);
        assert_eq!(crl.pretrain(&spec(n)).unwrap(), shadowed);
        assert_eq!(crl.define_environment(&[10.0]).unwrap().0, 1);
        assert!(matches!(crl.agent(shadowed), Err(CrlError::EmptyStore)));
        assert_eq!(crl.cached_agents(), shadowed);
    }

    /// `pretrain` decides when agents are trained, never which: a lazy
    /// allocator probed in one order, a pretrained one probed in the other
    /// and one hammered from four threads answer bit for bit alike.
    #[test]
    fn answers_do_not_depend_on_who_trains_an_agent_or_when() {
        let n = 4;
        let signatures = [0.05, 3.0, 9.95, 10.2, 5.0];
        let probe = |crl: &Crl, reversed: bool| {
            let mut order = signatures.to_vec();
            if reversed {
                order.reverse();
            }
            let mut out: Vec<_> = order
                .iter()
                .map(|&sig| {
                    let a = crl.allocate(&[sig], &spec(n)).unwrap();
                    let value = a.estimated_value.to_bits();
                    (sig.to_bits(), a.assignment, bits(&a.estimated_importances), value)
                })
                .collect();
            out.sort();
            out
        };
        for lookup in MODES {
            let lazy = probe(&Crl::new(store_two_contexts(n), quick(lookup)), false);
            let pretrained = Crl::new(store_two_contexts(n), quick(lookup));
            pretrained.pretrain(&spec(n)).unwrap();
            assert_eq!(probe(&pretrained, true), lazy, "{lookup:?}");

            let shared = &Crl::new(store_two_contexts(n), quick(lookup));
            let probe = &probe;
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..4).map(|t| scope.spawn(move || probe(shared, t % 2 == 1))).collect();
                for handle in handles {
                    assert_eq!(handle.join().unwrap(), lazy, "{lookup:?}");
                }
            });
        }
    }

    /// The geometry is bound once: a query over another geometry (the
    /// pipeline's route-deflated fleet) that reaches a context first rolls
    /// out over its own budgets, but trains the agent everyone else gets.
    #[test]
    fn the_first_query_geometry_does_not_decide_the_agent() {
        let n = 4;
        let tight = AllocSpec { time_limits: vec![1.0, 0.5], ..spec(n) };
        let in_order = Crl::new(store_two_contexts(n), quick(LookupMode::OnlineKnn));
        in_order.bind(&spec(n)).unwrap();
        in_order.allocate(&[0.0], &spec(n)).unwrap();
        let tight_first = Crl::new(store_two_contexts(n), quick(LookupMode::OnlineKnn));
        tight_first.bind(&spec(n)).unwrap();
        tight_first.allocate(&[0.0], &tight).unwrap();
        assert_eq!(
            tight_first.agent(0).unwrap().parameter_bits(),
            in_order.agent(0).unwrap().parameter_bits()
        );
        // Unbound, the same query would have trained on its own geometry.
        let unbound = Crl::new(store_two_contexts(n), quick(LookupMode::OnlineKnn));
        unbound.allocate(&[0.0], &tight).unwrap();
        assert_ne!(
            unbound.agent(0).unwrap().parameter_bits(),
            in_order.agent(0).unwrap().parameter_bits()
        );
    }

    /// Trains every agent on both sides and compares them.
    fn assert_same_agents(grown: &Crl, cold: &Crl, n: usize) {
        assert_eq!(grown.num_keys(), cold.num_keys());
        grown.pretrain(&spec(n)).unwrap();
        cold.pretrain(&spec(n)).unwrap();
        for (key, blend, _) in snapshot(cold) {
            assert_eq!(bits(&grown.contexts().unwrap().get(key).unwrap().blend), blend);
            assert_eq!(
                grown.agent(key).unwrap().parameter_bits(),
                cold.agent(key).unwrap().parameter_bits(),
                "key {key}"
            );
        }
    }

    #[test]
    fn observe_keeps_knn_agents_whose_neighbourhood_did_not_change() {
        let n = 3;
        let mut crl = Crl::new(store_two_contexts(n), quick(LookupMode::OnlineKnn));
        crl.pretrain(&spec(n)).unwrap();
        let stale = crl.agent(1).unwrap().parameter_bits();
        // Lands between records 1 (10.0) and 3 (10.1): it joins their three
        // nearest and nobody else's.
        let record = EnvironmentRecord { signature: vec![10.05], importances: vec![0.5; n] };
        crl.observe(record.clone()).unwrap();
        let trained: Vec<usize> =
            snapshot(&crl).into_iter().filter(|(_, _, t)| *t).map(|(key, ..)| key).collect();
        assert_eq!(trained, [0, 2, 4, 5, 6, 7], "kept agents");
        assert_eq!(crl.num_keys(), 9);
        assert!(crl.allocate(&[0.0], &spec(n)).unwrap().cache_hit);
        assert!(!crl.allocate(&[10.0], &spec(n)).unwrap().cache_hit);
        assert_ne!(crl.agent(1).unwrap().parameter_bits(), stale, "a new blend is a new agent");

        let mut store = store_two_contexts(n);
        store.push(record).unwrap();
        assert_same_agents(&crl, &Crl::new(store, quick(LookupMode::OnlineKnn)), n);
    }

    #[test]
    fn observe_keeps_a_cluster_only_if_the_refit_reproduced_it() {
        let n = 3;
        let config = quick(LookupMode::OfflineKMeans { clusters: 2 });
        let mut crl = Crl::new(store_two_contexts(n), config.clone());
        crl.pretrain(&spec(n)).unwrap();
        let before = snapshot(&crl);
        // Joins context B's cluster and moves its mean importances.
        let record = EnvironmentRecord { signature: vec![10.4], importances: vec![0.5; n] };
        crl.observe(record.clone()).unwrap();
        let after = snapshot(&crl);
        for ((key, old, _), (_, new, trained)) in before.iter().zip(&after) {
            assert_eq!(*trained, old == new, "cluster {key}");
        }
        assert_eq!(crl.cached_agents(), 1, "one cluster kept, one dropped: {after:?}");

        let mut store = store_two_contexts(n);
        store.push(record).unwrap();
        assert_same_agents(&crl, &Crl::new(store, config), n);
    }

    /// The re-fit draws from a fresh stream, so the clustering is a
    /// function of the store and not of how many agents were trained
    /// before the store grew.
    #[test]
    fn refit_after_training_clusters_like_a_cold_allocator() {
        let n = 3;
        let config = quick(LookupMode::OfflineKMeans { clusters: 3 });
        let record = EnvironmentRecord { signature: vec![5.0], importances: vec![0.5; n] };
        let mut used = Crl::new(store_two_contexts(n), config.clone());
        used.allocate(&[0.0], &spec(n)).unwrap();
        assert_eq!(used.cached_agents(), used.num_keys());
        used.observe(record.clone()).unwrap();

        let mut store = store_two_contexts(n);
        store.push(record).unwrap();
        let cold = Crl::new(store, config);
        for sig in [0.0, 0.3, 4.0, 5.0, 7.0, 10.0, 10.3] {
            let (key, blend) = used.define_environment(&[sig]).unwrap();
            let (cold_key, cold_blend) = cold.define_environment(&[sig]).unwrap();
            assert_eq!((key, bits(&blend)), (cold_key, bits(&cold_blend)), "signature {sig}");
        }
        assert_same_agents(&used, &cold, n);
    }

    #[test]
    fn offline_mode_routes_to_matching_cluster() {
        let n = 4;
        let crl = Crl::new(
            store_two_contexts(n),
            CrlConfig { episodes: 80, ..quick(LookupMode::OfflineKMeans { clusters: 2 }) },
        );
        let a = crl.allocate(&[0.1], &spec(n)).unwrap();
        assert!(a.estimated_importances[0] > 0.8, "blend {:?}", a.estimated_importances);
        let b = crl.allocate(&[10.1], &spec(n)).unwrap();
        assert!(b.estimated_importances[3] > 0.8, "blend {:?}", b.estimated_importances);
        assert!(a.assignment[0].is_some());
        assert!(b.assignment[3].is_some());
        // A different signature in the same cluster reuses the agent.
        assert!(crl.allocate(&[0.3], &spec(n)).unwrap().cache_hit);
        assert_eq!(crl.cached_agents(), 2);
    }

    #[test]
    fn crl_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Crl>();
    }
}
