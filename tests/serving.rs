//! Serving-layer integration: a multi-tenant `AllocatorService` must be a
//! pure throughput layer. Whatever the request interleaving or worker
//! count, every response is bit-identical to the same query answered solo
//! — and tenants are fully isolated: one tenant's fault schedules never
//! perturb another's reports.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
use tatim::core::recovery::RecoveryMode;
use tatim::core::shared::PreparedCore;
use tatim::edgesim::faults::FaultSchedule;
use tatim::prelude::{AllocRequest, AllocResponse, AllocatorService, Query, ServicePool};
use tatim::rl::alloc_env::{AllocEnv, AllocSpec};
use tatim::rl::crl::CrlConfig;
use tatim::rl::dqn::DqnConfig;
use tatim::rl::mdp::Environment;

fn tenant_core(seed: u64, num_tasks: usize) -> PreparedCore {
    let scenario = Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks,
        history_days: 40,
        eval_days: 7,
        mean_input_mbit: 40.0,
        seed,
    })
    .expect("scenario");
    Pipeline::new(PipelineConfig {
        workers: 3,
        env_history_days: 4,
        crl: CrlConfig {
            episodes: 8,
            dqn: DqnConfig { hidden: vec![16], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        seed,
        ..PipelineConfig::default()
    })
    .prepare(&scenario)
    .expect("prepare")
    .into_core()
    .expect("freeze")
}

/// The shared two-tenant service plus solo-computed reference answers: one
/// (request, expected response) pair per tenant × day × query kind.
struct Fixture {
    service: Arc<AllocatorService>,
    requests: Vec<AllocRequest>,
    expected: Vec<AllocResponse>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let service = Arc::new(AllocatorService::new());
        service.register("alpha", tenant_core(11, 10)).expect("register alpha");
        service.register("beta", tenant_core(23, 9)).expect("register beta");
        let mut requests = Vec::new();
        for tenant in ["alpha", "beta"] {
            let days = service.with_core(tenant, |c| c.test_days()).expect("tenant");
            for day in days.take(2) {
                requests.push(AllocRequest {
                    tenant: tenant.into(),
                    query: Query::Run(RunSpec::new(Method::Dcta, day)),
                });
                requests.push(AllocRequest {
                    tenant: tenant.into(),
                    query: Query::QValues { day, state: None },
                });
            }
        }
        // Solo references through the same service, one request at a time.
        // (`handle` is deterministic, so serial answers ARE the spec.)
        let expected: Vec<AllocResponse> =
            requests.iter().map(|r| service.handle(r).expect("solo answer")).collect();
        Fixture { service, requests, expected }
    })
}

/// Bit-strict comparison: `PartialEq` would accept `-0.0 == 0.0`; the
/// serving contract promises the exact same bits as a solo answer.
fn assert_bit_identical(got: &AllocResponse, want: &AllocResponse, context: &str) {
    match (got, want) {
        (AllocResponse::Run(g), AllocResponse::Run(w)) => {
            assert_eq!(g, w, "{context}: run reports differ");
            assert_eq!(
                g.processing_time_s().to_bits(),
                w.processing_time_s().to_bits(),
                "{context}: PT bits"
            );
            assert_eq!(
                g.decision_performance().to_bits(),
                w.decision_performance().to_bits(),
                "{context}: H bits"
            );
        }
        (AllocResponse::QValues { key: gk, q: gq }, AllocResponse::QValues { key: wk, q: wq }) => {
            assert_eq!(gk, wk, "{context}: context key");
            let g_bits: Vec<u64> = gq.iter().map(|v| v.to_bits()).collect();
            let w_bits: Vec<u64> = wq.iter().map(|v| v.to_bits()).collect();
            assert_eq!(g_bits, w_bits, "{context}: q-value bits");
        }
        _ => panic!("{context}: response kinds diverged"),
    }
}

/// Seeded Fisher-Yates over `0..n` (tiny LCG; no external RNG surface).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any request interleaving through a pool of 1, 2 or 8 workers answers
    /// every query with exactly the bits a solo call produces.
    #[test]
    fn pooled_responses_are_bit_identical_to_solo(seed in 0u64..1000, wsel in 0usize..3) {
        let workers = [1usize, 2, 8][wsel];
        let fx = fixture();
        let order = permutation(fx.requests.len(), seed);
        let pool = ServicePool::new(Arc::clone(&fx.service), workers);
        let tickets: Vec<(usize, tatim::prelude::Ticket)> = order
            .iter()
            .map(|&i| (i, pool.submit(fx.requests[i].clone())))
            .collect();
        for (i, ticket) in tickets {
            let got = ticket.wait().expect("pooled answer");
            assert_bit_identical(
                &got,
                &fx.expected[i],
                &format!("seed {seed}, {workers} workers, request {i}"),
            );
        }
    }
}

/// A served probe with an explicit state answers with the bits of the
/// agent's own `q_values`, computed off the core directly.
#[test]
fn explicit_state_answers_match_scalar_agent_queries() {
    let fx = fixture();
    let day = fx.service.with_core("alpha", |c| c.test_days().start).expect("tenant");
    let (state, scalar) = fx
        .service
        .with_core("alpha", |c| {
            let shared = c.crl().shared();
            let (key, blend) =
                shared.define_environment(c.signature_of_day(day).expect("day")).expect("define");
            let spec = AllocSpec { importances: blend, ..c.blind_instance().to_alloc_spec() };
            let state = AllocEnv::new(spec).expect("env").reset();
            let scalar = shared.agent(key).expect("agent").q_values(&state).expect("scalar");
            (state, scalar)
        })
        .expect("tenant");
    let served = fx
        .service
        .handle(&AllocRequest {
            tenant: "alpha".into(),
            query: Query::QValues { day, state: Some(state) },
        })
        .expect("served")
        .into_q_values()
        .expect("q kind");
    let got: Vec<u64> = served.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "explicit-state query diverged from the scalar agent");
}

/// Tenant isolation: alpha absorbing fault-injected runs concurrently must
/// not change a single bit of beta's healthy reports.
#[test]
fn fault_schedules_never_leak_across_tenants() {
    let service = Arc::new(AllocatorService::new());
    service.register("alpha", tenant_core(41, 10)).expect("register alpha");
    service.register("beta", tenant_core(53, 9)).expect("register beta");

    let beta_days: Vec<usize> =
        service.with_core("beta", |c| c.test_days().collect()).expect("beta");
    let beta_requests: Vec<AllocRequest> = beta_days
        .iter()
        .map(|&day| AllocRequest {
            tenant: "beta".into(),
            query: Query::Run(RunSpec::new(Method::Dcta, day)),
        })
        .collect();
    let beta_solo: Vec<AllocResponse> =
        beta_requests.iter().map(|r| service.handle(r).expect("beta solo")).collect();

    // Alpha's side: crash its busiest node early, demand recovery.
    let victim = service.with_core("alpha", |c| c.fleet().node_of(0)).expect("alpha");
    let schedule = FaultSchedule::new().with_crash(victim, 0.2).expect("schedule");
    let alpha_day = service.with_core("alpha", |c| c.test_days().start).expect("alpha");
    let alpha_request = AllocRequest {
        tenant: "alpha".into(),
        query: Query::Run(
            RunSpec::new(Method::Dml, alpha_day).with_faults(schedule, RecoveryMode::Resolve),
        ),
    };

    let pool = ServicePool::new(Arc::clone(&service), 4);
    let mut alpha_tickets = Vec::new();
    let mut beta_tickets = Vec::new();
    for round in 0..3 {
        alpha_tickets.push(pool.submit(alpha_request.clone()));
        for (i, request) in beta_requests.iter().enumerate() {
            beta_tickets.push((round, i, pool.submit(request.clone())));
        }
    }
    for ticket in alpha_tickets {
        let report = ticket.wait().expect("alpha fault run").into_run().expect("run kind");
        assert!(report.as_faulted().is_some(), "alpha spec carried a schedule");
    }
    for (round, i, ticket) in beta_tickets {
        let got = ticket.wait().expect("beta answer");
        assert_bit_identical(
            &got,
            &beta_solo[i],
            &format!("round {round}, beta day {}", beta_days[i]),
        );
    }
}
