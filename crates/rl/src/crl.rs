//! Clustered Reinforcement Learning (CRL, Algorithm 1).
//!
//! CRL handles the *environment-dynamic knapsack*: task importances change
//! with context, so a single fixed RL environment mis-trains. The remedy
//! (§III-C) is an **environment store** of historical `(sensing signature Z,
//! importance vector)` pairs; at decision time the current signature selects
//! the nearest historical environment via kNN (`e = kNN(E, Z)`), a DQN is
//! trained on that environment (cached — "the training phase merely needs to
//! be conducted once"), and its greedy policy emits the allocation.

use crate::alloc_env::{AllocEnv, AllocSpec, SpecError};
use crate::dqn::{DqnAgent, DqnConfig, DqnError};
use crate::mdp::Environment;
use learn::kmeans::{KMeans, KMeansError};
use learn::knn::{KnnError, KnnIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
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
        self.blend_in(&index, signature, k.max(1))
    }

    /// [`Self::nearest_blend`] against a kNN `index` already built over
    /// this store's signatures.
    fn blend_in(
        &self,
        index: &KnnIndex,
        signature: &[f64],
        k: usize,
    ) -> Result<(usize, Vec<f64>), CrlError> {
        let hits = index.nearest(signature, k)?;
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
    /// Feed the per-processor route budget factor column to the agent
    /// (topology-aware state). Changes the state dimension, so it must be
    /// consistent between pretraining and allocation; off by default so
    /// star runs stay bit-identical.
    pub route_feature: bool,
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
            route_feature: false,
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

/// Offline clustering state (lazy; invalidated when the store grows).
#[derive(Debug, Clone)]
struct Clustering {
    model: KMeans,
    /// Mean importance vector per cluster.
    centroid_importances: Vec<Vec<f64>>,
    /// Store length the clustering was built from.
    store_len: usize,
}

/// Trains the agent of cache key `key` on its environment `blend`, seeded
/// from `config.seed` mixed with the key alone — so the agent depends on
/// neither the order environments are trained in nor the thread that
/// trains it. [`Crl::pretrain`] and [`SharedCrl`]'s slots both train here.
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

/// The greedy rollout of `agent` over the clustered environment `env`.
fn rollout(
    agent: &DqnAgent,
    mut env: AllocEnv,
    blend: Vec<f64>,
    cache_hit: bool,
) -> Result<CrlAllocation, CrlError> {
    agent.evaluate_episode(&mut env)?;
    let assignment = env.assignment().to_vec();
    let estimated_value = env.assigned_value();
    Ok(CrlAllocation { assignment, estimated_importances: blend, estimated_value, cache_hit })
}

/// The CRL allocator: environment store + per-environment agent cache.
#[derive(Debug)]
pub struct Crl {
    store: EnvironmentStore,
    config: CrlConfig,
    agents: HashMap<usize, DqnAgent>,
    clustering: Option<Clustering>,
    rng: StdRng,
}

impl Crl {
    /// Creates a CRL allocator over `store`.
    pub fn new(store: EnvironmentStore, config: CrlConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self { store, config, agents: HashMap::new(), clustering: None, rng }
    }

    /// Read access to the environment store.
    pub fn store(&self) -> &EnvironmentStore {
        &self.store
    }

    /// Adds a freshly-observed environment (stores accumulate daily).
    ///
    /// # Errors
    ///
    /// [`CrlError::Shape`] on arity mismatch.
    pub fn observe(&mut self, record: EnvironmentRecord) -> Result<(), CrlError> {
        self.store.push(record)
    }

    /// Number of trained agents currently cached.
    pub fn cached_agents(&self) -> usize {
        self.agents.len()
    }

    /// (Re)builds the offline clustering when stale — a grown store
    /// invalidates clusters and the agents trained on them.
    fn ensure_clustering(&mut self, clusters: usize) -> Result<(), CrlError> {
        if self.store.is_empty() {
            return Err(CrlError::EmptyStore);
        }
        let stale = self.clustering.as_ref().is_none_or(|c| c.store_len != self.store.len());
        if stale {
            let signatures: Vec<Vec<f64>> =
                self.store.records().iter().map(|r| r.signature.clone()).collect();
            let k = clusters.clamp(1, signatures.len());
            let model = KMeans::fit(&signatures, k, 100, &mut self.rng)?;
            let n = self.store.records()[0].importances.len();
            let mut sums = vec![vec![0.0; n]; k];
            let mut counts = vec![0usize; k];
            for (i, &c) in model.assignments().iter().enumerate() {
                counts[c] += 1;
                for (s, &v) in sums[c].iter_mut().zip(&self.store.records()[i].importances) {
                    *s += v;
                }
            }
            for (c, sum) in sums.iter_mut().enumerate() {
                for v in sum.iter_mut() {
                    *v /= counts[c].max(1) as f64;
                }
            }
            self.agents.clear();
            self.clustering =
                Some(Clustering { model, centroid_importances: sums, store_len: self.store.len() });
        }
        Ok(())
    }

    /// Environment definition in the configured [`LookupMode`]: returns the
    /// agent-cache key plus the blended importance estimate.
    fn define_environment(&mut self, signature: &[f64]) -> Result<(usize, Vec<f64>), CrlError> {
        match self.config.lookup {
            LookupMode::OnlineKnn => self.store.nearest_blend(signature, self.config.k),
            LookupMode::OfflineKMeans { clusters } => {
                self.ensure_clustering(clusters)?;
                let clustering = self.clustering.as_ref().expect("built above");
                let cluster = clustering.model.predict(signature);
                Ok((cluster, clustering.centroid_importances[cluster].clone()))
            }
        }
    }

    /// A valid `spec` over as many tasks as the (non-empty) store's records.
    fn check_geometry(&self, spec: &AllocSpec) -> Result<(), CrlError> {
        spec.validate()?;
        match self.store.records().first() {
            None => Err(CrlError::EmptyStore),
            Some(first) if first.importances.len() != spec.num_tasks() => Err(CrlError::Shape),
            Some(_) => Ok(()),
        }
    }

    /// Trains every environment's agent up front, in parallel, instead of
    /// lazily on first use. Returns the number of agents trained.
    ///
    /// The paper's claim that "the training phase merely needs to be
    /// conducted once" makes this the natural offline step: per-cluster
    /// (offline mode) or per-record-neighbourhood (online mode) trainings
    /// are fully independent, so they fan out across threads. Unlike the
    /// lazy path — which draws initialisation and exploration noise from
    /// the allocator's single shared RNG, making each agent's weights
    /// depend on the order environments are first encountered — pretraining
    /// seeds each agent from `config.seed` mixed with its cache key, so the
    /// resulting agents are bit-identical at any thread count and
    /// independent of training order.
    ///
    /// Already-cached agents are left untouched; subsequent
    /// [`Self::allocate`] calls for pretrained environments report
    /// `cache_hit = true`.
    ///
    /// # Errors
    ///
    /// See [`CrlError`] variants.
    pub fn pretrain(&mut self, spec: &AllocSpec) -> Result<usize, CrlError> {
        self.check_geometry(spec)?;
        // Enumerate the agent-cache keys the configured lookup mode can ever
        // produce, with their environment blends, in deterministic order.
        let mut jobs: Vec<(usize, Vec<f64>)> = Vec::new();
        match self.config.lookup {
            LookupMode::OfflineKMeans { clusters } => {
                self.ensure_clustering(clusters)?;
                let clustering = self.clustering.as_ref().expect("built above");
                jobs.extend(clustering.centroid_importances.iter().cloned().enumerate());
            }
            LookupMode::OnlineKnn => {
                for record in self.store.records() {
                    let (key, blend) =
                        self.store.nearest_blend(&record.signature, self.config.k)?;
                    if !jobs.iter().any(|&(existing, _)| existing == key) {
                        jobs.push((key, blend));
                    }
                }
            }
        }
        jobs.retain(|(key, _)| !self.agents.contains_key(key));
        let config = &self.config;
        // Grain 1: each job is a full multi-episode DQN training, far past
        // the point where thread spawn overhead matters, so even two jobs
        // deserve two threads.
        let trained: Vec<(usize, DqnAgent)> =
            parallel::try_par_map_grained(&jobs, 1, |(key, blend)| {
                train_keyed(config, spec, *key, blend).map(|agent| (*key, agent))
            })?;
        let count = trained.len();
        self.agents.extend(trained);
        Ok(count)
    }

    /// Allocates the live instance: environment definition (kNN or k-means
    /// per the configured mode), then the (possibly cached) DQN's greedy
    /// rollout. `spec.importances` is *ignored and replaced* by the
    /// clustered estimate — CRL's whole point is that live importances are
    /// unknown.
    ///
    /// # Errors
    ///
    /// See [`CrlError`] variants.
    pub fn allocate(
        &mut self,
        signature: &[f64],
        spec: &AllocSpec,
    ) -> Result<CrlAllocation, CrlError> {
        spec.validate()?;
        let (nearest, blend) = self.define_environment(signature)?;
        if blend.len() != spec.num_tasks() {
            return Err(CrlError::Shape);
        }
        let clustered_spec = AllocSpec { importances: blend.clone(), ..spec.clone() };
        let mut env = AllocEnv::new(clustered_spec)?;

        let cache_hit = self.agents.contains_key(&nearest);
        if !cache_hit {
            let mut agent = DqnAgent::new(
                env.state_dim(),
                env.num_actions(),
                self.config.dqn.clone(),
                &mut self.rng,
            )?;
            for _ in 0..self.config.episodes {
                agent.train_episode(&mut env, &mut self.rng)?;
            }
            self.agents.insert(nearest, agent);
        }
        let agent = self.agents.get(&nearest).expect("inserted above");
        rollout(agent, env, blend, cache_hit)
    }

    /// Converts this allocator into a shareable, `&self`-only [`SharedCrl`]
    /// bound to `spec`'s task geometry.
    ///
    /// The frozen allocator answers concurrent queries from shared state:
    /// the kNN index (online mode) or k-means clustering (offline mode) is
    /// built once here, and per-environment agents live in per-key
    /// [`OnceLock`] slots seeded exactly like [`Self::pretrain`] — so lazy
    /// concurrent training produces agents bit-identical to an up-front
    /// `pretrain`, independent of request order and thread count. Any
    /// agents this allocator had already cached are discarded: lazily
    /// trained ones drew from the shared RNG and are therefore
    /// order-dependent, which the frozen contract forbids.
    ///
    /// # Errors
    ///
    /// [`CrlError::EmptyStore`] on an empty store, [`CrlError::Shape`] when
    /// `spec` disagrees with the stored importance arity, plus validation
    /// and clustering errors.
    pub fn freeze(mut self, spec: &AllocSpec) -> Result<SharedCrl, CrlError> {
        self.check_geometry(spec)?;
        let (lookup, blends) = match self.config.lookup {
            LookupMode::OnlineKnn => {
                let index = KnnIndex::new(
                    self.store.records().iter().map(|r| r.signature.clone()).collect(),
                )?;
                // Per-key training blends exactly as `pretrain` enumerates
                // them: record `k`'s self-query always resolves to key `k`
                // (or a lower-index duplicate that shadows it, in which case
                // key `k` is never produced by any query either).
                let k = self.config.k.max(1);
                let mut blends = Vec::with_capacity(self.store.len());
                for record in self.store.records() {
                    blends.push(self.store.blend_in(&index, &record.signature, k)?.1);
                }
                (SharedLookup::Knn { index, k }, blends)
            }
            LookupMode::OfflineKMeans { clusters } => {
                self.ensure_clustering(clusters)?;
                let clustering = self.clustering.take().expect("built above");
                let blends = clustering.centroid_importances.clone();
                (
                    SharedLookup::KMeans {
                        model: clustering.model,
                        centroid_importances: clustering.centroid_importances,
                    },
                    blends,
                )
            }
        };
        let slots = blends.iter().map(|_| OnceLock::new()).collect();
        Ok(SharedCrl {
            store: self.store,
            config: self.config,
            spec: spec.clone(),
            lookup,
            blends,
            slots,
        })
    }
}

/// Frozen environment-definition state shared across queries.
#[derive(Debug)]
enum SharedLookup {
    /// Online mode: one kNN index built at freeze time (the mutable path
    /// rebuilds it per query).
    Knn { index: KnnIndex, k: usize },
    /// Offline mode: the clustering frozen at its freeze-time state.
    KMeans { model: KMeans, centroid_importances: Vec<Vec<f64>> },
}

/// A frozen, thread-shareable CRL allocator (see [`Crl::freeze`]).
///
/// Every method takes `&self`; the agent cache is a vector of per-key
/// [`OnceLock`] slots, so concurrent first-touch training is race-free —
/// one winner trains, everyone else blocks on the same slot — and each
/// agent is seeded from `config.seed` mixed with its key (the
/// [`Crl::pretrain`] formula), making results bit-identical regardless of
/// which request, thread, or ordering trained it.
#[derive(Debug)]
pub struct SharedCrl {
    store: EnvironmentStore,
    config: CrlConfig,
    /// The task geometry agents are trained against (importances replaced
    /// per key by the training blend).
    spec: AllocSpec,
    lookup: SharedLookup,
    /// Training blend per agent key.
    blends: Vec<Vec<f64>>,
    /// Lazily-trained agent per key; `Err` is cached too so a failing
    /// geometry does not retrain on every request.
    slots: Vec<OnceLock<Result<DqnAgent, CrlError>>>,
}

impl SharedCrl {
    /// Read access to the environment store.
    pub fn store(&self) -> &EnvironmentStore {
        &self.store
    }

    /// Number of agent keys the frozen lookup can produce.
    pub fn num_keys(&self) -> usize {
        self.slots.len()
    }

    /// Number of agents trained so far.
    pub fn cached_agents(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Environment definition against the frozen lookup state: the agent
    /// key plus the query's blended importance estimate. Bit-identical to
    /// the mutable [`Crl`]'s definition at freeze time.
    ///
    /// # Errors
    ///
    /// [`CrlError::Knn`] on lookup failure.
    pub fn define_environment(&self, signature: &[f64]) -> Result<(usize, Vec<f64>), CrlError> {
        match &self.lookup {
            SharedLookup::Knn { index, k } => self.store.blend_in(index, signature, *k),
            SharedLookup::KMeans { model, centroid_importances } => {
                let cluster = model.predict(signature);
                Ok((cluster, centroid_importances[cluster].clone()))
            }
        }
    }

    /// The (lazily trained) agent for `key`. Blocks while another thread is
    /// training the same slot; never trains twice.
    ///
    /// # Errors
    ///
    /// Replays the training error cached in the slot, or
    /// [`CrlError::EmptyStore`] for an out-of-range key.
    pub fn agent(&self, key: usize) -> Result<&DqnAgent, CrlError> {
        let slot = self.slots.get(key).ok_or(CrlError::EmptyStore)?;
        slot.get_or_init(|| train_keyed(&self.config, &self.spec, key, &self.blends[key]))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Trains every key's agent up front (in parallel), the frozen
    /// counterpart of [`Crl::pretrain`]. Returns the number trained now.
    ///
    /// # Errors
    ///
    /// The first training error, if any.
    pub fn pretrain_all(&self) -> Result<usize, CrlError> {
        let cold: Vec<usize> =
            (0..self.slots.len()).filter(|&key| self.slots[key].get().is_none()).collect();
        let trained = parallel::try_par_map_grained(&cold, 1, |&key| self.agent(key).map(|_| ()))?;
        Ok(trained.len())
    }

    /// Allocates the live instance against the frozen store: environment
    /// definition, (lazily trained) cached agent, greedy rollout. Matches
    /// [`Crl::allocate`] on a pretrained mutable allocator bit for bit.
    ///
    /// # Errors
    ///
    /// See [`CrlError`] variants.
    pub fn allocate(&self, signature: &[f64], spec: &AllocSpec) -> Result<CrlAllocation, CrlError> {
        spec.validate()?;
        let (key, blend) = self.define_environment(signature)?;
        if blend.len() != spec.num_tasks() {
            return Err(CrlError::Shape);
        }
        let cache_hit = self.slots.get(key).is_some_and(|s| s.get().is_some());
        let agent = self.agent(key)?;
        let clustered_spec = AllocSpec { importances: blend.clone(), ..spec.clone() };
        rollout(agent, AllocEnv::new(clustered_spec)?, blend, cache_hit)
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
            time_limit: 1.0, // each processor fits exactly one task
            time_limits: None,
            capacities: vec![1.0, 1.0],
            route_factors: None,
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

    #[test]
    fn crl_allocates_context_appropriate_tasks() {
        let n = 4;
        let mut crl =
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
        let mut crl =
            Crl::new(store_two_contexts(n), CrlConfig { episodes: 10, ..CrlConfig::default() });
        let first = crl.allocate(&[0.0], &spec(n)).unwrap();
        assert!(!first.cache_hit);
        assert_eq!(crl.cached_agents(), 1);
        let second = crl.allocate(&[0.05], &spec(n)).unwrap();
        assert!(second.cache_hit, "same nearest environment should reuse the agent");
        assert_eq!(crl.cached_agents(), 1);
        let third = crl.allocate(&[10.0], &spec(n)).unwrap();
        assert!(!third.cache_hit);
        assert_eq!(crl.cached_agents(), 2);
    }

    #[test]
    fn shape_mismatch_between_store_and_spec() {
        let mut crl =
            Crl::new(store_two_contexts(4), CrlConfig { episodes: 1, ..CrlConfig::default() });
        assert!(matches!(crl.allocate(&[0.0], &spec(3)), Err(CrlError::Shape)));
    }

    #[test]
    fn observe_accumulates() {
        let mut crl =
            Crl::new(EnvironmentStore::new(), CrlConfig { episodes: 1, ..CrlConfig::default() });
        crl.observe(EnvironmentRecord { signature: vec![1.0], importances: vec![1.0, 0.0] })
            .unwrap();
        assert_eq!(crl.store().len(), 1);
    }

    #[test]
    fn pretrain_populates_online_agent_cache() {
        let n = 4;
        let mut crl =
            Crl::new(store_two_contexts(n), CrlConfig { episodes: 10, ..CrlConfig::default() });
        let trained = crl.pretrain(&spec(n)).unwrap();
        assert!(trained >= 2, "both contexts should get agents, trained {trained}");
        assert_eq!(crl.cached_agents(), trained);
        // Every allocation now reuses a pretrained agent.
        assert!(crl.allocate(&[0.0], &spec(n)).unwrap().cache_hit);
        assert!(crl.allocate(&[10.0], &spec(n)).unwrap().cache_hit);
        // Pretraining again is a no-op.
        assert_eq!(crl.pretrain(&spec(n)).unwrap(), 0);
    }

    #[test]
    fn pretrain_validates_inputs() {
        let mut empty =
            Crl::new(EnvironmentStore::new(), CrlConfig { episodes: 1, ..CrlConfig::default() });
        assert!(matches!(empty.pretrain(&spec(2)), Err(CrlError::EmptyStore)));
        let mut crl =
            Crl::new(store_two_contexts(4), CrlConfig { episodes: 1, ..CrlConfig::default() });
        assert!(matches!(crl.pretrain(&spec(3)), Err(CrlError::Shape)));
    }

    #[test]
    fn pretrained_agents_are_order_independent() {
        // Unlike the lazy path, pretrained agents are seeded per cache key,
        // so the allocation they emit cannot depend on which environment was
        // pretrained (or queried) first.
        let n = 4;
        let run = |probe_order: &[f64]| {
            let mut crl =
                Crl::new(store_two_contexts(n), CrlConfig { episodes: 15, ..CrlConfig::default() });
            crl.pretrain(&spec(n)).unwrap();
            let mut out = Vec::new();
            for &sig in probe_order {
                out.push((sig.to_bits(), crl.allocate(&[sig], &spec(n)).unwrap().assignment));
            }
            out.sort();
            out
        };
        assert_eq!(run(&[0.0, 10.0]), run(&[10.0, 0.0]));
    }
}

#[cfg(test)]
mod shared_tests {
    use super::tests::{spec, store_two_contexts as store};
    use super::*;

    fn configs() -> Vec<CrlConfig> {
        vec![
            CrlConfig { episodes: 10, ..CrlConfig::default() },
            CrlConfig {
                episodes: 10,
                lookup: LookupMode::OfflineKMeans { clusters: 2 },
                ..CrlConfig::default()
            },
        ]
    }

    #[test]
    fn frozen_allocations_match_pretrained_mutable_path() {
        let n = 4;
        for config in configs() {
            let mut mutable = Crl::new(store(n), config.clone());
            mutable.pretrain(&spec(n)).unwrap();
            let shared = Crl::new(store(n), config.clone()).freeze(&spec(n)).unwrap();
            for sig in [0.05, 3.0, 9.95, 10.2] {
                let reference = mutable.allocate(&[sig], &spec(n)).unwrap();
                let frozen = shared.allocate(&[sig], &spec(n)).unwrap();
                assert_eq!(frozen.assignment, reference.assignment, "{config:?} sig {sig}");
                let frozen_bits: Vec<u64> =
                    frozen.estimated_importances.iter().map(|v| v.to_bits()).collect();
                let reference_bits: Vec<u64> =
                    reference.estimated_importances.iter().map(|v| v.to_bits()).collect();
                assert_eq!(frozen_bits, reference_bits);
                assert_eq!(frozen.estimated_value.to_bits(), reference.estimated_value.to_bits());
            }
        }
    }

    #[test]
    fn concurrent_lazy_training_is_thread_and_order_invariant() {
        let n = 4;
        let config = CrlConfig { episodes: 10, ..CrlConfig::default() };
        let shared = Crl::new(store(n), config.clone()).freeze(&spec(n)).unwrap();
        let signatures = [0.0, 10.0, 0.2, 10.3, 5.0];
        // Hammer the frozen allocator from several threads; every thread
        // must see identical allocations, and they must match a fresh
        // single-threaded freeze probed in a different order.
        let mut collected: Vec<Vec<(u64, Vec<Option<usize>>)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let shared = &shared;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut order: Vec<f64> = signatures.to_vec();
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        for sig in order {
                            let alloc = shared.allocate(&[sig], &spec(n)).unwrap();
                            out.push((sig.to_bits(), alloc.assignment));
                        }
                        out.sort();
                        out
                    })
                })
                .collect();
            for handle in handles {
                collected.push(handle.join().unwrap());
            }
        });
        let solo = Crl::new(store(n), config).freeze(&spec(n)).unwrap();
        let mut reference: Vec<(u64, Vec<Option<usize>>)> = signatures
            .iter()
            .rev()
            .map(|&sig| (sig.to_bits(), solo.allocate(&[sig], &spec(n)).unwrap().assignment))
            .collect();
        reference.sort();
        for run in &collected {
            assert_eq!(run, &reference);
        }
    }

    #[test]
    fn pretrain_all_covers_every_key_and_is_idempotent() {
        let n = 3;
        let config = CrlConfig {
            episodes: 5,
            lookup: LookupMode::OfflineKMeans { clusters: 2 },
            ..CrlConfig::default()
        };
        let shared = Crl::new(store(n), config).freeze(&spec(n)).unwrap();
        assert_eq!(shared.cached_agents(), 0);
        assert_eq!(shared.pretrain_all().unwrap(), shared.num_keys());
        assert_eq!(shared.cached_agents(), shared.num_keys());
        assert_eq!(shared.pretrain_all().unwrap(), 0);
        assert!(shared.allocate(&[0.0], &spec(n)).unwrap().cache_hit);
    }

    #[test]
    fn freeze_validates_inputs() {
        let empty =
            Crl::new(EnvironmentStore::new(), CrlConfig { episodes: 1, ..CrlConfig::default() });
        assert!(matches!(empty.freeze(&spec(2)), Err(CrlError::EmptyStore)));
        let crl = Crl::new(store(4), CrlConfig { episodes: 1, ..CrlConfig::default() });
        assert!(matches!(crl.freeze(&spec(3)), Err(CrlError::Shape)));
    }

    #[test]
    fn shared_crl_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedCrl>();
    }
}

#[cfg(test)]
mod offline_tests {
    use super::tests::{spec, store_two_contexts as two_context_store};
    use super::*;

    fn offline_config(clusters: usize) -> CrlConfig {
        CrlConfig {
            lookup: LookupMode::OfflineKMeans { clusters },
            episodes: 80,
            ..CrlConfig::default()
        }
    }

    #[test]
    fn offline_mode_routes_to_matching_cluster() {
        let n = 4;
        let mut crl = Crl::new(two_context_store(n), offline_config(2));
        let a = crl.allocate(&[0.1], &spec(n)).unwrap();
        assert!(a.estimated_importances[0] > 0.8, "blend {:?}", a.estimated_importances);
        let b = crl.allocate(&[10.1], &spec(n)).unwrap();
        assert!(b.estimated_importances[3] > 0.8, "blend {:?}", b.estimated_importances);
        assert!(a.assignment[0].is_some());
        assert!(b.assignment[3].is_some());
    }

    #[test]
    fn offline_mode_caches_per_cluster() {
        let n = 3;
        let mut crl =
            Crl::new(two_context_store(n), CrlConfig { episodes: 5, ..offline_config(2) });
        let first = crl.allocate(&[0.0], &spec(n)).unwrap();
        assert!(!first.cache_hit);
        // A different signature in the SAME cluster reuses the agent.
        let second = crl.allocate(&[0.3], &spec(n)).unwrap();
        assert!(second.cache_hit);
        assert_eq!(crl.cached_agents(), 1);
    }

    #[test]
    fn growing_the_store_invalidates_clusters() {
        let n = 3;
        let mut crl =
            Crl::new(two_context_store(n), CrlConfig { episodes: 3, ..offline_config(2) });
        crl.allocate(&[0.0], &spec(n)).unwrap();
        assert_eq!(crl.cached_agents(), 1);
        crl.observe(EnvironmentRecord { signature: vec![5.0], importances: vec![0.5; n] }).unwrap();
        // Next allocation re-clusters and rebuilds agents.
        let out = crl.allocate(&[0.0], &spec(n)).unwrap();
        assert!(!out.cache_hit);
    }

    #[test]
    fn offline_empty_store_errors() {
        let mut crl = Crl::new(EnvironmentStore::new(), offline_config(2));
        assert!(matches!(crl.allocate(&[0.0], &spec(2)), Err(CrlError::EmptyStore)));
    }

    #[test]
    fn pretrain_covers_every_cluster() {
        let n = 3;
        let mut crl =
            Crl::new(two_context_store(n), CrlConfig { episodes: 5, ..offline_config(2) });
        assert_eq!(crl.pretrain(&spec(n)).unwrap(), 2);
        assert_eq!(crl.cached_agents(), 2);
        assert!(crl.allocate(&[0.0], &spec(n)).unwrap().cache_hit);
        assert!(crl.allocate(&[10.0], &spec(n)).unwrap().cache_hit);
    }

    #[test]
    fn more_clusters_than_records_is_clamped() {
        let n = 2;
        let mut store = EnvironmentStore::new();
        store
            .push(EnvironmentRecord { signature: vec![0.0], importances: vec![0.9, 0.1] })
            .unwrap();
        let mut crl = Crl::new(store, CrlConfig { episodes: 3, ..offline_config(10) });
        let out = crl.allocate(&[0.0], &spec(n)).unwrap();
        assert!(out.estimated_importances[0] > 0.8);
    }
}
