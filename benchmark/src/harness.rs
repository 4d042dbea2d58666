//! What the four workloads share: run settings, seeded input streams, the
//! closed timed loop, the set-up repeater and the result they fill in.

use crate::catalog::{self, Workload};
use crate::host::Host;
use crate::json::Json;
use crate::stats;
use crate::trace::{self, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::time::Instant;

pub type BoxError = Box<dyn Error + Send + Sync>;

/// Settings of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    /// Seeds every generated input (requests, rounds, importances, fault
    /// schedules, per-cell configs). The worlds the inputs are sent to
    /// (scenarios, tenants, meshes) are part of the workload, not inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Tiny worlds and op counts through the same code paths (`--quick`).
    pub quick: bool,
    /// Run the traced variant (per-layer metrics) rather than the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// `host_threads == 1`: concurrency-dependent metrics are withheld.
    pub single_core: bool,
}

impl RunConfig {
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Seed of the warm-up ops: the same for every `--seed`, so set-up does the
/// same work in every run and `setup_s` varies with the host only (a single
/// faulted mesh round costs anything from 0.1 to 2 s depending on its
/// schedule).
pub const WARMUP_SEED: u64 = 0x5E70;

/// Client threads of a closed loop, and workers of the serving pool.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(4)
}

/// An independent RNG for item `index` of input stream `stream` under
/// `seed` (splitmix64 finaliser over the three words).
pub fn stream_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Sums of the decision-quality statistics, added in op-index order over
/// the first `min_ops` ops only, so their means are bit-stable whatever the
/// thread interleaving and however many ops the timed phase fits in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub captured: (f64, u64),
    pub sim_pt_s: (f64, u64),
    pub gap: (f64, u64),
}

impl Quality {
    pub fn add_captured(&mut self, captured: f64, total: f64) {
        if total > 0.0 {
            self.captured.0 += captured / total;
            self.captured.1 += 1;
        }
    }

    pub fn add_pt(&mut self, seconds: f64) {
        self.sim_pt_s.0 += seconds;
        self.sim_pt_s.1 += 1;
    }

    pub fn add_gap(&mut self, gap: f64) {
        self.gap.0 += gap;
        self.gap.1 += 1;
    }

    pub fn merge(&mut self, other: &Quality) {
        for (mine, theirs) in [
            (&mut self.captured, other.captured),
            (&mut self.sim_pt_s, other.sim_pt_s),
            (&mut self.gap, other.gap),
        ] {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }
}

/// What one op reports once its answer has been checked.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Call → answer in hand. Validation happens after the clock stops.
    pub latency_ns: u64,
    /// `Err`: the op returned an error, panicked, or failed validation.
    pub verdict: Result<(), String>,
    pub quality: Quality,
}

impl OpOutcome {
    pub fn failed(latency_ns: u64, why: impl Into<String>) -> Self {
        Self { latency_ns, verdict: Err(why.into()), quality: Quality::default() }
    }
}

/// Runs `op`, turning a panic into a failed outcome instead of unwinding
/// through the benchmark.
pub fn guarded(op: impl FnOnce() -> OpOutcome) -> OpOutcome {
    let start = Instant::now();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).unwrap_or_else(|payload| {
        let why = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic".to_string());
        OpOutcome::failed(start.elapsed().as_nanos() as u64, format!("panicked: {why}"))
    })
}

/// The record of one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// `(op index, latency ns, completion offset ns)` of every op.
    pub ops: Vec<(u64, u64, u64)>,
    pub failures: Vec<(u64, String)>,
    pub quality: Quality,
    pub wall_s: f64,
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(self.ops.iter().map(|&(_, ns, _)| ns as f64 / 1e6).collect())
    }

    /// Indices of the ops that failed.
    pub fn failed_ops(&self) -> BTreeSet<u64> {
        self.failures.iter().map(|&(i, _)| i).collect()
    }

    /// Successful ops per second, as the median over completion windows.
    pub fn ops_per_s(&self) -> f64 {
        let failed = self.failed_ops();
        let ends = stats::sorted(
            self.ops
                .iter()
                .filter(|(i, _, _)| !failed.contains(i))
                .map(|&(_, _, end)| end as f64 / 1e9)
                .collect(),
        );
        stats::windowed_rate(&ends)
    }

    /// Folds one client's ops in. Call in client order, then [`Self::seal`].
    pub fn absorb(&mut self, other: Phase) {
        self.ops.extend(other.ops);
        self.failures.extend(other.failures);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// Orders the merged record by op index.
    pub fn seal(&mut self) {
        self.ops.sort_unstable_by_key(|&(i, _, _)| i);
        self.failures.sort_by_key(|&(i, _)| i);
    }
}

/// One client's closed loop: its next op starts when the previous one has
/// been answered and checked. The client runs ops `first, first + stride, …`
/// until `seconds` have passed *and* its share of the first `min_ops` ops is
/// done, so the quality sums always cover the same ops.
pub fn closed_loop(
    seconds: f64,
    min_ops: u64,
    (first, stride): (u64, u64),
    mut op: impl FnMut(u64) -> OpOutcome,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = first;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        let outcome = guarded(|| op(i));
        phase.ops.push((i, outcome.latency_ns, start.elapsed().as_nanos() as u64));
        if let Err(why) = outcome.verdict {
            phase.failures.push((i, why));
        } else if i < min_ops {
            phase.quality.merge(&outcome.quality);
        }
        i += stride;
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Median time of `f` in nanoseconds and the number of calls it is over:
/// calls `f` until `budget_s` is spent, at least `min_reps` and at most
/// `max_reps` times.
pub fn probe_ns(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    mut f: impl FnMut(),
) -> (f64, usize) {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < max_reps && start.elapsed().as_secs_f64() < budget_s)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    (stats::median(&samples), samples.len())
}

/// Set-up stage timings (`buildings.generate_ms`, `serve.warm_ms`, …),
/// collected by the set-up code itself on every run.
#[derive(Debug, Clone, Default)]
pub struct Stages(BTreeMap<&'static str, Vec<f64>>);

impl Stages {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.0.entry(name).or_default().push(start.elapsed().as_secs_f64() * 1e3);
        value
    }

    /// Records each stage's median under its own name.
    pub fn report(&self, metrics: &mut Metrics) {
        for (name, samples) in &self.0 {
            metrics.set(name, stats::median(samples), samples.len());
        }
    }
}

/// Runs `setup` (world building, training, warm-up ops) several times and
/// returns the last state with every duration in seconds: at least three
/// times, and up to seven while they still fit in two seconds. A traced run
/// sets up once. Each state is dropped before the next is built, so peak
/// memory is that of one.
pub fn repeat_setup<S>(
    config: &RunConfig,
    mut setup: impl FnMut(&mut Stages) -> Result<S, BoxError>,
) -> Result<(S, Vec<f64>, Stages), BoxError> {
    let mut stages = Stages::default();
    let mut durations = Vec::new();
    loop {
        let start = Instant::now();
        let state = setup(&mut stages)?;
        durations.push(start.elapsed().as_secs_f64());
        let spent: f64 = durations.iter().sum();
        let enough = durations.len() >= 3 && (spent >= 2.0 || durations.len() >= 7);
        if config.traced || enough {
            return Ok((state, durations, stages));
        }
        drop(state);
    }
}

/// One reported number. `value: None` is JSON `null`: withheld, because the
/// host cannot support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: Option<f64>,
    pub samples: usize,
}

/// The metrics of a run, by catalog name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    /// Records `value`. The name must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = catalog::metric(name).unwrap_or_else(|| panic!("metric `{name}` not in catalog"));
        self.0.insert(def.name, Measured { value: Some(value), samples });
    }

    /// Records a [`probe_ns`] result in the metric's unit (`ns_per_unit`
    /// nanoseconds each).
    pub fn set_probe(&mut self, name: &str, (ns, samples): (f64, usize), ns_per_unit: f64) {
        self.set(name, ns / ns_per_unit, samples);
    }

    /// Median duration of the spans called `span`, in the metric's unit
    /// (`ns_per_unit` nanoseconds each). Absent spans leave the metric out.
    pub fn set_from_spans(&mut self, name: &str, spans: &[Span], span: &str, ns_per_unit: f64) {
        let durations = trace::durations_of(spans, span);
        if !durations.is_empty() {
            self.set(name, stats::median(&durations) / ns_per_unit, durations.len());
        }
    }

    pub fn withhold(&mut self, name: &str) {
        let def = catalog::metric(name).unwrap_or_else(|| panic!("metric `{name}` not in catalog"));
        self.0.insert(def.name, Measured { value: None, samples: 0 });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub config: RunConfig,
    pub host: Host,
    /// Ops attempted and failed, in the untraced and the traced phase.
    pub attempted: usize,
    pub failed: usize,
    /// Ops of the untraced timed phase, which the latency metrics are over.
    pub timed_ops: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// The ops the quality sums cover.
    pub min_ops: u64,
    pub warmup_ops: u64,
    pub setups: usize,
    pub timed_wall_s: f64,
    pub metrics: Metrics,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Fills in the end-to-end metrics every workload reports from its
    /// timed phase and set-up durations.
    pub fn record_phase(&mut self, phase: &Phase, setup_s: &[f64]) {
        let latencies = phase.latencies_ms();
        let n = latencies.len();
        self.attempted = phase.attempted();
        self.failed = phase.failed();
        self.timed_ops = n;
        self.timed_wall_s = phase.wall_s;
        self.failures =
            phase.failures.iter().take(5).map(|(i, why)| format!("op {i}: {why}")).collect();
        self.setups = setup_s.len();
        let m = &mut self.metrics;
        m.set("setup_s", stats::median(setup_s), setup_s.len());
        m.set("ops_per_s", phase.ops_per_s(), n - phase.failed());
        m.set("op_ms_p50", stats::percentile(&latencies, 0.5), n);
        m.set("failed_frac", phase.failed() as f64 / n.max(1) as f64, n);
        let q = &phase.quality;
        for (name, (sum, count)) in
            [("captured_importance", q.captured), ("sim_pt_s", q.sim_pt_s), ("solve_gap", q.gap)]
        {
            if count > 0 {
                m.set(name, sum / count as f64, count as usize);
            }
        }
    }

    /// Withholds every concurrency-dependent metric on a single-core host:
    /// nothing there runs concurrently, so they would describe the scheduler.
    pub fn withhold_concurrent(&mut self) {
        if self.config.single_core {
            for def in catalog::METRICS.iter().filter(|d| d.concurrent) {
                if def.end_to_end || self.config.traced {
                    self.metrics.withhold(def.name);
                }
            }
        }
    }

    /// Metrics this workload exercises (`MetricDef::on`) that the run should
    /// have reported but did not: end-to-end ones always, per-layer ones when
    /// traced. Empty on a healthy run.
    pub fn missing(&self) -> Vec<&'static str> {
        catalog::METRICS
            .iter()
            .filter(|d| {
                d.on.contains(&self.config.workload) && (d.end_to_end || self.config.traced)
            })
            .filter(|d| d.name != "op_ms_p99" || stats::tail_supported(self.timed_ops, 0.99))
            .filter(|d| self.metrics.get(d.name).is_none())
            .map(|d| d.name)
            .collect()
    }

    /// `true` when every op succeeded and passed validation.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result file: fingerprint, op counts, and every metric with its
    /// typed unit and direction.
    pub fn to_json(&self) -> Json {
        let metrics = catalog::METRICS
            .iter()
            .filter_map(|def| self.metrics.get(def.name).map(|m| (def, m)))
            .map(|(def, m)| {
                let mut fields = def.typed();
                fields.push(("value", m.value.map_or(Json::Null, Json::num)));
                fields.push(("samples", Json::Num(m.samples as f64)));
                (def.name, Json::obj(fields))
            });
        Json::obj([
            ("workload", Json::str(self.config.workload.name())),
            ("seed", Json::Num(self.config.seed as f64)),
            ("seconds", Json::Num(self.config.seconds)),
            ("quick", Json::Bool(self.config.quick)),
            ("traced", Json::Bool(self.config.traced)),
            ("host", self.host.to_json()),
            ("correct", Json::Bool(self.correct())),
            (
                "ops",
                Json::obj([
                    ("attempted", Json::Num(self.attempted as f64)),
                    ("failed", Json::Num(self.failed as f64)),
                    ("quality_ops", Json::Num(self.min_ops as f64)),
                    ("warmup", Json::Num(self.warmup_ops as f64)),
                    ("setups", Json::Num(self.setups as f64)),
                    ("timed_wall_s", Json::num(self.timed_wall_s)),
                    ("clients", Json::Num(self.clients as f64)),
                ]),
            ),
            ("failures", Json::Arr(self.failures.iter().map(Json::str).collect())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The one-line object the acceptance driver reads from the last line of
    /// standard output: the `end_to_end` metrics of `BENCHMARK.json` for an
    /// untraced run, its `per_layer` metrics for a traced one. A metric the
    /// workload bypasses, or one withheld on a single core, reads `0`.
    pub fn driver_line(&self) -> Json {
        let listing = if self.config.traced {
            catalog::Listing::PerLayer
        } else {
            catalog::Listing::EndToEnd
        };
        let metrics = catalog::METRICS.iter().filter(|def| def.listing == listing).map(|def| {
            let value = self.metrics.get(def.name).and_then(|m| m.value).unwrap_or(0.0);
            (def.name, Json::obj([("value", Json::num(value)), ("unit", Json::str(def.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Every metric by name, with unit and sample count.
    pub fn print_table(&self) {
        let c = &self.config;
        println!(
            "== {} · seed {} · {} · {:.1} s timed · {} ops, {} failed · host_threads {} ==",
            c.workload.name(),
            c.seed,
            if c.traced { "traced" } else { "untraced" },
            self.timed_wall_s,
            self.attempted,
            self.failed,
            self.host.host_threads,
        );
        for def in catalog::METRICS {
            let Some(m) = self.metrics.get(def.name) else { continue };
            let value = m.value.map_or_else(|| "null".to_string(), |v| format!("{v:.6}"));
            println!("  {:<36} {:>18} {:<9} n={}", def.name, value, def.unit, m.samples);
        }
        for failure in &self.failures {
            println!("  FAILED {failure}");
        }
        for name in self.missing() {
            println!("  MISSING {name}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stream_rngs_are_deterministic_and_distinct() {
        let draw = |seed, stream, index| stream_rng(seed, stream, index).gen::<u64>();
        assert_eq!(draw(7, 1, 3), draw(7, 1, 3));
        let all = [draw(7, 1, 3), draw(8, 1, 3), draw(7, 2, 3), draw(7, 1, 4), draw(0, 0, 0)];
        let distinct: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn closed_loop_runs_min_ops_counts_failures_and_catches_panics() {
        let mut calls = 0;
        let phase = closed_loop(0.0, 6, (0, 1), |i| {
            calls += 1;
            match i {
                2 => OpOutcome::failed(10, "bad answer"),
                4 => panic!("worker fell over"),
                _ => {
                    let mut q = Quality::default();
                    q.add_pt(i as f64);
                    OpOutcome { latency_ns: 1_000_000 * (i + 1), verdict: Ok(()), quality: q }
                }
            }
        });
        assert_eq!((calls, phase.attempted(), phase.failed()), (6, 6, 2));
        assert!(phase.failures[1].1.contains("worker fell over"));
        // Failed ops add nothing to the quality sums: 0 + 1 + 3 + 5.
        assert_eq!(phase.quality.sim_pt_s, (9.0, 4));
        assert!(phase.latencies_ms().contains(&6.0));
    }

    #[test]
    fn quality_sums_ignore_ops_beyond_the_counted_prefix() {
        let phase = closed_loop(0.02, 2, (0, 1), |i| {
            let mut q = Quality::default();
            q.add_captured(if i < 2 { 1.0 } else { 100.0 }, 2.0);
            OpOutcome { latency_ns: 1, verdict: Ok(()), quality: q }
        });
        assert!(phase.attempted() > 2);
        assert_eq!(phase.quality.captured, (1.0, 2));
    }

    #[test]
    fn setup_repeats_at_least_three_times_untraced_and_once_traced() {
        let mut config = RunConfig {
            workload: Workload::MeshRound,
            seed: 1,
            seconds: 0.1,
            quick: true,
            traced: false,
            single_core: false,
        };
        let mut built = 0;
        let (_, durations, stages) = repeat_setup(&config, |stages| {
            built += 1;
            Ok(stages.time("edgesim.mesh.build_ms", || built))
        })
        .unwrap();
        assert_eq!((built, durations.len()), (7, 7));
        let mut metrics = Metrics::default();
        stages.report(&mut metrics);
        assert_eq!(metrics.get("edgesim.mesh.build_ms").unwrap().samples, 7);

        config.traced = true;
        let (_, durations, _) = repeat_setup(&config, |_| Ok(())).unwrap();
        assert_eq!(durations.len(), 1);
    }
}
