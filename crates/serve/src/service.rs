//! The multi-tenant allocator service: tenant registry, request/response
//! types, and the synchronous request handler the worker pool drains into.

use dcta_core::allocation::Allocation;
use dcta_core::cache::CacheStats;
use dcta_core::objective::AllocQuery;
use dcta_core::pipeline::{Method, PipelineError, RunReport, RunSpec};
use dcta_core::shared::PreparedCore;
use rl::alloc_env::{AllocEnv, AllocSpec, SpecError};
use rl::crl::CrlError;
use rl::dqn::DqnError;
use rl::mdp::Environment;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Error raised by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// No tenant registered under this name.
    UnknownTenant(String),
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// A supplied Q-value state has the wrong dimension for the context's
    /// agent.
    StateArity {
        /// Dimension the agent expects.
        expected: usize,
        /// Dimension supplied.
        got: usize,
    },
    /// The tenant's core failed the run.
    Pipeline(PipelineError),
    /// The tenant's CRL failed (environment definition or agent training).
    Crl(CrlError),
    /// The DQN forward failed.
    Dqn(DqnError),
    /// Building the default Q-value state failed spec validation.
    Spec(SpecError),
    /// The handler panicked on this request; the payload's message. Only
    /// this request's ticket carries it — the worker keeps serving.
    WorkerPanicked(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            ServeError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServeError::StateArity { expected, got } => {
                write!(f, "state has dimension {got}, agent expects {expected}")
            }
            ServeError::Pipeline(e) => write!(f, "run failed: {e}"),
            ServeError::Crl(e) => write!(f, "CRL failed: {e}"),
            ServeError::Dqn(e) => write!(f, "DQN inference failed: {e}"),
            ServeError::Spec(e) => write!(f, "default state construction failed: {e}"),
            ServeError::WorkerPanicked(msg) => write!(f, "request handler panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Pipeline(e) => Some(e),
            ServeError::Crl(e) => Some(e),
            ServeError::Dqn(e) => Some(e),
            ServeError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for ServeError {
            fn from(e: $ty) -> Self {
                ServeError::$variant(e)
            }
        }
    };
}

from_err!(Pipeline, PipelineError);
from_err!(Crl, CrlError);
from_err!(Dqn, DqnError);
from_err!(Spec, SpecError);

/// What a request asks of a tenant's core.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A full evaluation run (allocate + simulate + metrics) described by a
    /// [`RunSpec`] — healthy or fault-injected.
    Run(RunSpec),
    /// The Q-values of the day's CRL context at a state — one single-state
    /// forward of the context's agent (`DqnAgent::q_values`) on the thread
    /// that handles the request. `None` evaluates the context's initial
    /// state (nothing assigned yet).
    QValues {
        /// Evaluation-day index (selects the sensing signature, hence the
        /// per-context agent).
        day: usize,
        /// State to evaluate, or `None` for the environment's reset state.
        state: Option<Vec<f64>>,
    },
    /// A bare allocation decision: which tasks go where, no simulation.
    Decision {
        /// Allocation method to run.
        method: Method,
        /// Evaluation-day index.
        day: usize,
    },
}

/// One request against the service: which tenant, and what to ask.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocRequest {
    /// Tenant key (as passed to [`AllocatorService::register`]).
    pub tenant: String,
    /// The query.
    pub query: Query,
}

/// A successful answer, one variant per [`Query`] kind.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocResponse {
    /// Answer to [`Query::Run`].
    Run(RunReport),
    /// Answer to [`Query::QValues`].
    QValues {
        /// The CRL context key the day's signature resolved to.
        key: usize,
        /// Q-value per action, bit-identical to a scalar
        /// `agent.q_values(state)` call.
        q: Vec<f64>,
    },
    /// Answer to [`Query::Decision`].
    Decision {
        /// The allocation.
        allocation: Allocation,
        /// Wall-clock seconds the allocator consumed.
        allocator_seconds: f64,
    },
}

impl AllocResponse {
    /// The run report, if this answered a [`Query::Run`].
    pub fn into_run(self) -> Option<RunReport> {
        match self {
            AllocResponse::Run(r) => Some(r),
            _ => None,
        }
    }

    /// The Q-value row, if this answered a [`Query::QValues`].
    pub fn into_q_values(self) -> Option<Vec<f64>> {
        match self {
            AllocResponse::QValues { q, .. } => Some(q),
            _ => None,
        }
    }

    /// The allocation, if this answered a [`Query::Decision`].
    pub fn into_decision(self) -> Option<Allocation> {
        match self {
            AllocResponse::Decision { allocation, .. } => Some(allocation),
            _ => None,
        }
    }
}

/// A registered scenario: its prepared core plus a count of the Q-value
/// probes it has answered.
#[derive(Debug)]
struct Tenant {
    core: PreparedCore,
    probes: AtomicU64,
}

impl Tenant {
    fn answer(&self, query: &Query) -> Result<AllocResponse, ServeError> {
        match query {
            Query::Run(spec) => Ok(AllocResponse::Run(self.core.run(spec)?)),
            Query::Decision { method, day } => {
                let out = self.core.allocate(&AllocQuery::new(*method, *day))?;
                Ok(AllocResponse::Decision {
                    allocation: out.allocation,
                    allocator_seconds: out.overhead_s,
                })
            }
            Query::QValues { day, state } => {
                let signature = self.core.signature_of_day(*day)?;
                let shared = self.core.crl().shared();
                let (key, blend) = shared.define_environment(signature)?;
                let agent = shared.agent(key)?;
                let initial;
                let state: &[f64] = match state {
                    Some(s) => s,
                    None => {
                        // The context's initial state: its blended
                        // importances over the blind instance, nothing
                        // assigned yet.
                        let spec = AllocSpec {
                            importances: blend,
                            ..self.core.blind_instance().to_alloc_spec()
                        };
                        initial = AllocEnv::new(spec)?.reset();
                        &initial
                    }
                };
                if state.len() != agent.state_dim() {
                    return Err(ServeError::StateArity {
                        expected: agent.state_dim(),
                        got: state.len(),
                    });
                }
                let q = agent.q_values(state)?;
                self.probes.fetch_add(1, Ordering::Relaxed);
                Ok(AllocResponse::QValues { key, q })
            }
        }
    }
}

/// A tenant's Q-value probe counters. Each probe is one forward of one
/// state, so `batches == batched_states == requests` and
/// `deadline_flushes == 0`: the fields keep the shape the benchmark's
/// `rl.batcher.*` metrics read until those metrics retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatcherStats {
    /// Q-value probes answered.
    pub requests: u64,
    /// Forwards run: one per probe.
    pub batches: u64,
    /// States evaluated: one per probe.
    pub batched_states: u64,
    /// Always 0: no probe waits on a deadline.
    pub deadline_flushes: u64,
}

/// Point-in-time counters describing one tenant's serving state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStats {
    /// The tenant's decision-performance cache counters.
    pub cache: CacheStats,
    /// Q-value probe counters.
    pub batcher: BatcherStats,
    /// Agents of the tenant's one general process trained so far — CRL and
    /// DCTA requests share them, and the first request that needs one
    /// trains them all, so this is `0` or `Crl::num_keys()`. Agents the
    /// core trained before it was registered count: they moved over with it.
    pub trained_agents: usize,
}

/// The long-lived, multi-tenant allocation service. `&self` throughout:
/// share one instance (e.g. in an `Arc`) across as many request threads as
/// you like, or put a [`crate::pool::ServicePool`] in front of it.
///
/// The tenant registry recovers from poisoning with
/// [`PoisonError::into_inner`]: every critical section under it is one map
/// lookup, insert, remove or key copy, and no request runs under it, so a
/// panic can never leave the map half-updated.
#[derive(Debug, Default)]
pub struct AllocatorService {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
}

impl AllocatorService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `core` under `name`. Tenants are fully isolated from each
    /// other: nothing — caches, agents, counters — is shared between them.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateTenant`] when the name is taken.
    pub fn register(&self, name: impl Into<String>, core: PreparedCore) -> Result<(), ServeError> {
        let name = name.into();
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if tenants.contains_key(&name) {
            return Err(ServeError::DuplicateTenant(name));
        }
        tenants.insert(name, Arc::new(Tenant { core, probes: AtomicU64::new(0) }));
        Ok(())
    }

    /// Removes a tenant, returning whether it existed.
    pub fn deregister(&self, name: &str) -> bool {
        self.tenants.write().unwrap_or_else(PoisonError::into_inner).remove(name).is_some()
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        let mut names: Vec<String> = tenants.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Runs `f` against a tenant's core — the escape hatch for
    /// anything the [`Query`] surface doesn't cover (day ranges, true
    /// importances, direct runs).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant doesn't exist.
    pub fn with_core<R>(
        &self,
        tenant: &str,
        f: impl FnOnce(&PreparedCore) -> R,
    ) -> Result<R, ServeError> {
        Ok(f(&self.tenant(tenant)?.core))
    }

    /// Answers one request on the calling thread. Safe to call from any
    /// number of threads concurrently; a Q-value probe is one forward and
    /// never waits for other probes to arrive.
    ///
    /// # Errors
    ///
    /// See [`ServeError`] variants.
    pub fn handle(&self, request: &AllocRequest) -> Result<AllocResponse, ServeError> {
        self.tenant(&request.tenant)?.answer(&request.query)
    }

    /// Eagerly trains every agent of a tenant's general process that is not
    /// trained yet, so no CRL, DCTA or Q-value request pays first-touch
    /// training. Returns how many agents this call trained:
    /// `Crl::num_keys()` on a cold tenant, `0` on a warm one.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] / training failures.
    pub fn warm(&self, tenant: &str) -> Result<usize, ServeError> {
        let tenant = self.tenant(tenant)?;
        Ok(tenant.core.crl().pretrain(&tenant.core.blind_instance())?)
    }

    /// Point-in-time serving counters of a tenant.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant doesn't exist.
    pub fn stats(&self, tenant: &str) -> Result<TenantStats, ServeError> {
        let tenant = self.tenant(tenant)?;
        let probes = tenant.probes.load(Ordering::Relaxed);
        Ok(TenantStats {
            cache: tenant.core.cache_stats(),
            batcher: BatcherStats {
                requests: probes,
                batches: probes,
                batched_states: probes,
                deadline_flushes: 0,
            },
            trained_agents: tenant.core.crl().cached_agents(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServicePool;
    use buildings::scenario::{Scenario, ScenarioConfig};
    use dcta_core::objective::Objective;
    use dcta_core::pipeline::{Pipeline, PipelineConfig};
    use rl::crl::CrlConfig;
    use rl::dqn::DqnConfig;

    fn test_scenario() -> Scenario {
        Scenario::generate(ScenarioConfig {
            num_buildings: 2,
            chillers_per_building: 2,
            bands_per_chiller: 4,
            num_tasks: 10,
            history_days: 40,
            eval_days: 7,
            mean_input_mbit: 40.0,
            ..ScenarioConfig::default()
        })
        .unwrap()
    }

    fn test_pipeline() -> Pipeline {
        Pipeline::new(PipelineConfig {
            workers: 3,
            env_history_days: 4,
            crl: CrlConfig {
                episodes: 8,
                dqn: DqnConfig { hidden: vec![16], ..DqnConfig::default() },
                ..CrlConfig::default()
            },
            ..PipelineConfig::default()
        })
    }

    fn test_core() -> PreparedCore {
        test_pipeline().prepare(&test_scenario()).unwrap()
    }

    #[test]
    fn service_and_pool_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AllocatorService>();
        assert_send_sync::<ServicePool>();
        assert_send_sync::<ServeError>();
    }

    #[test]
    fn registry_queries_and_errors() {
        let service = AllocatorService::new();
        service.register("a", test_core()).unwrap();
        assert_eq!(service.tenant_names(), vec!["a".to_string()]);
        assert_eq!(service.num_tenants(), 1);
        assert!(matches!(service.register("a", test_core()), Err(ServeError::DuplicateTenant(_))));
        let missing = AllocRequest {
            tenant: "nope".into(),
            query: Query::Decision { method: Method::Dml, day: 4 },
        };
        assert!(matches!(service.handle(&missing), Err(ServeError::UnknownTenant(_))));

        let day = service.with_core("a", |c| c.test_days().start).unwrap();
        // Run and Decision answers equal direct core calls bit for bit.
        let run = service
            .handle(&AllocRequest {
                tenant: "a".into(),
                query: Query::Run(RunSpec::new(Method::Dcta, day)),
            })
            .unwrap()
            .into_run()
            .unwrap();
        let direct = service.with_core("a", |c| c.run(&RunSpec::new(Method::Dcta, day))).unwrap();
        assert_eq!(run, direct.unwrap());
        let decision = service
            .handle(&AllocRequest {
                tenant: "a".into(),
                query: Query::Decision { method: Method::GreedyOracle, day },
            })
            .unwrap()
            .into_decision()
            .unwrap();
        let direct_alloc = service
            .with_core("a", |c| c.allocate(&AllocQuery::new(Method::GreedyOracle, day)))
            .unwrap()
            .unwrap()
            .allocation;
        assert_eq!(decision, direct_alloc);

        // Wrong-arity Q-value states are rejected before the forward.
        let bad = AllocRequest {
            tenant: "a".into(),
            query: Query::QValues { day, state: Some(vec![0.0; 3]) },
        };
        assert!(matches!(service.handle(&bad), Err(ServeError::StateArity { .. })));

        assert!(service.deregister("a"));
        assert!(!service.deregister("a"));
        assert_eq!(service.num_tenants(), 0);
    }

    #[test]
    fn a_poisoned_registry_still_answers() {
        let service = AllocatorService::new();
        service.register("a", test_core()).unwrap();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = service.tenants.write();
                panic!("poisoning the registry");
            });
            assert!(holder.join().is_err());
        });
        assert!(service.tenants.is_poisoned());

        service.register("b", test_core()).unwrap();
        assert_eq!(service.tenant_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(service.num_tenants(), 2);
        let day = service.with_core("a", |c| c.test_days().start).unwrap();
        let spec = RunSpec::new(Method::Dml, day);
        let run = AllocRequest { tenant: "a".into(), query: Query::Run(spec.clone()) };
        let answer = service.handle(&run).unwrap().into_run().unwrap();
        assert_eq!(answer, service.with_core("a", |c| c.run(&spec)).unwrap().unwrap());
        assert!(service.deregister("b"));
        assert_eq!(service.num_tenants(), 1);
    }

    #[test]
    fn concurrent_q_values_stay_bit_identical_to_the_agent() {
        let service = AllocatorService::new();
        service.register("t", test_core()).unwrap();
        let days: Vec<usize> = service.with_core("t", |c| c.test_days().collect()).unwrap();
        // Scalar references straight off the per-context agents.
        let scalar: Vec<Vec<f64>> = service
            .with_core("t", |c| {
                days.iter()
                    .map(|&d| {
                        let shared = c.crl().shared();
                        let (key, blend) =
                            shared.define_environment(c.signature_of_day(d).unwrap()).unwrap();
                        let spec =
                            AllocSpec { importances: blend, ..c.blind_instance().to_alloc_spec() };
                        let state = AllocEnv::new(spec).unwrap().reset();
                        shared.agent(key).unwrap().q_values(&state).unwrap()
                    })
                    .collect()
            })
            .unwrap();
        const THREADS: usize = 6;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let service = &service;
                let days = &days;
                let scalar = &scalar;
                scope.spawn(move || {
                    for (i, &day) in days.iter().enumerate() {
                        let q = service
                            .handle(&AllocRequest {
                                tenant: "t".into(),
                                query: Query::QValues { day, state: None },
                            })
                            .unwrap()
                            .into_q_values()
                            .unwrap();
                        let got: Vec<u64> = q.iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u64> = scalar[i].iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "thread {t} day {day}");
                    }
                });
            }
        });
        // One forward per probe: the shape the benchmark's `rl.batcher.*`
        // metrics read.
        let probes = (THREADS * days.len()) as u64;
        let stats = service.stats("t").unwrap();
        assert_eq!(
            stats.batcher,
            BatcherStats {
                requests: probes,
                batches: probes,
                batched_states: probes,
                deadline_flushes: 0
            }
        );
        assert!(stats.trained_agents >= 1);
    }

    #[test]
    fn warm_trains_each_key_once_for_crl_and_dcta() {
        let service = AllocatorService::new();
        service.register("t", test_core()).unwrap();
        let (keys, day) =
            service.with_core("t", |c| (c.crl().shared().num_keys(), c.test_days().start)).unwrap();
        assert_eq!(service.stats("t").unwrap().trained_agents, 0);
        assert_eq!(service.warm("t").unwrap(), keys);
        assert_eq!(service.warm("t").unwrap(), 0, "a warm tenant has nothing left to train");
        assert_eq!(service.stats("t").unwrap().trained_agents, keys);
        // DCTA's first request rides the agents `warm` trained.
        service
            .handle(&AllocRequest {
                tenant: "t".into(),
                query: Query::Run(RunSpec::new(Method::Dcta, day)),
            })
            .unwrap();
        assert_eq!(service.stats("t").unwrap().trained_agents, keys);
    }

    /// Agents a core trained before it was registered move into the
    /// service with it: its first request trained every key, so the tenant
    /// starts warm, `warm` has nothing left to train, and nothing it
    /// answers differs from a tenant registered cold.
    #[test]
    fn agents_trained_before_register_are_kept() {
        let scenario = test_scenario();
        let prepared = test_pipeline().prepare(&scenario).unwrap();
        let days: Vec<usize> = prepared.test_days().collect();
        prepared.run(&RunSpec::new(Method::Crl, days[0])).unwrap();

        let service = AllocatorService::new();
        service.register("carried", prepared).unwrap();
        service.register("cold", test_core()).unwrap();
        let keys = service.with_core("carried", |c| c.crl().shared().num_keys()).unwrap();
        assert_eq!(service.stats("carried").unwrap().trained_agents, keys);
        assert_eq!(service.stats("cold").unwrap().trained_agents, 0);
        assert_eq!(service.warm("carried").unwrap(), 0);

        for &day in &days {
            for query in [
                Query::Run(RunSpec::new(Method::Crl, day)),
                Query::Run(RunSpec::new(Method::Dcta, day)),
                Query::QValues { day, state: None },
            ] {
                let ask = |tenant: &str| {
                    service.handle(&AllocRequest { tenant: tenant.into(), query: query.clone() })
                };
                assert_eq!(ask("carried").unwrap(), ask("cold").unwrap(), "day {day}");
            }
        }
    }

    #[test]
    fn pool_answers_match_direct_handling() {
        let service = Arc::new(AllocatorService::new());
        service.register("t", test_core()).unwrap();
        let day = service.with_core("t", |c| c.test_days().start).unwrap();
        let requests: Vec<AllocRequest> = [Method::Dml, Method::GreedyOracle, Method::Dcta]
            .into_iter()
            .map(|m| AllocRequest { tenant: "t".into(), query: Query::Run(RunSpec::new(m, day)) })
            .chain([AllocRequest {
                tenant: "t".into(),
                query: Query::QValues { day, state: None },
            }])
            .collect();
        let direct: Vec<AllocResponse> =
            requests.iter().map(|r| service.handle(r).unwrap()).collect();
        let pool = ServicePool::new(Arc::clone(&service), 2);
        assert_eq!(pool.workers(), 2);
        let tickets: Vec<_> = requests.iter().map(|r| pool.submit(r.clone())).collect();
        for (ticket, want) in tickets.into_iter().zip(&direct) {
            assert_eq!(&ticket.wait().unwrap(), want);
        }
        // Tickets submitted right before drop still get answered.
        let late = pool.submit(requests[0].clone());
        drop(pool);
        assert_eq!(&late.wait().unwrap(), &direct[0]);
    }

    #[test]
    fn bad_importance_override_is_an_error_not_a_dead_worker() {
        let service = Arc::new(AllocatorService::new());
        service.register("t", test_core()).unwrap();
        let (day, tasks) =
            service.with_core("t", |c| (c.test_days().start, c.true_importances(0).len())).unwrap();
        let run = |objective: Objective| AllocRequest {
            tenant: "t".into(),
            query: Query::Run(RunSpec::new(Method::GreedyOracle, day).with_objective(objective)),
        };
        // One worker: were it to panic, nothing after would be answered.
        let pool = ServicePool::new(Arc::clone(&service), 1);
        let mut not_a_number = vec![0.5; tasks];
        not_a_number[1] = f64::NAN;
        for overrides in [vec![0.5; tasks - 1], not_a_number] {
            let ticket = pool.submit(run(Objective::new().with_importances(overrides)));
            assert!(matches!(
                ticket.wait(),
                Err(ServeError::Pipeline(PipelineError::BadObjective { .. }))
            ));
        }
        let good = run(Objective::new().with_importances(vec![0.5; tasks]));
        assert_eq!(pool.submit(good.clone()).wait().unwrap(), service.handle(&good).unwrap());
    }
}
