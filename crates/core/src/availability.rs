//! Learned per-node availability priors (the proactive-robustness model).
//!
//! PR 3's `recovery` module reacts to failure after it happens; this module
//! lets the allocator *anticipate* it. Each node carries a Beta posterior
//! over its up/down behaviour, updated online from the failure histories
//! fault-injected runs emit ([`edgesim::trace::node_exposures`]) and
//! decayed so stale history fades. The proactive allocation path folds a
//! seeded Thompson draw from the posterior into TATIM's objective as an
//! *expected retained importance* multiplier; re-dispatch scores read the
//! posterior mean.
//!
//! # Determinism contract
//!
//! Every estimate is a pure function of `(posterior state, node, seed)`:
//!
//! * Updates are **arrival-order invariant**. [`AvailabilityModel::absorb`]
//!   quantises each exposure into integer pseudo-count ticks and
//!   accumulates them with exact (commutative, associative) integer
//!   arithmetic, so any interleaving of absorb calls across any number of
//!   threads leaves bit-identical state. Floating-point folding happens
//!   only in [`AvailabilityModel::advance_round`], which the single-threaded
//!   driver calls once per round.
//! * Thompson draws use a **fresh RNG per `(seed, node)`** — no shared
//!   stream — so draw order and thread count cannot perturb them.
//! * Persistence writes exact `f64` bit patterns (the
//!   [`ImportanceCache`](crate::cache::ImportanceCache) scheme), so a
//!   save/load round-trip reconstructs the posterior bit-exactly.

use crate::persist::{self, PersistError};
use edgesim::trace::NodeExposure;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Prior pseudo-successes (up evidence) of every node's Beta posterior.
const PRIOR_ALPHA: f64 = 1.0;
/// Prior pseudo-failures (down evidence).
const PRIOR_BETA: f64 = 1.0;
/// Per-round multiplicative decay of the evidence toward the prior: each
/// [`AvailabilityModel::advance_round`] keeps this share of the older
/// rounds' evidence.
const DECAY: f64 = 0.9;
/// Seconds of observed uptime worth one pseudo-success (downtime scales
/// the same way into pseudo-failures).
const EXPOSURE_UNIT_S: f64 = 60.0;
/// Extra pseudo-failures charged per observed crash, on top of the
/// downtime the crash caused: crashes are a stronger signal than the
/// seconds they cost.
const CRASH_WEIGHT: f64 = 2.0;

/// Pseudo-count ticks per exposure unit: exposures are quantised to
/// 1/1000th of [`EXPOSURE_UNIT_S`] before accumulation so updates commute
/// exactly (integer arithmetic) across threads.
const TICKS_PER_UNIT: f64 = 1000.0;

/// How hard the proactive objective leans on learned availability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProactiveConfig {
    /// Blend weight `w` in the per-node objective multiplier
    /// `(1 − w) + w · survival`: `0` recovers the plain TATIM objective,
    /// `1` scores importance purely by expected retention. The survival
    /// is a Thompson draw ([`AvailabilityModel::thompson`]).
    pub weight: f64,
    /// Base seed for Thompson draws (mixed with the day and node).
    pub seed: u64,
}

impl Default for ProactiveConfig {
    fn default() -> Self {
        Self { weight: 0.6, seed: 0xA7A1 }
    }
}

impl ProactiveConfig {
    /// The day's Thompson draw seed for a run seeded `run_seed`
    /// ([`proactive_draw_seed`] of this config's seed mixed with it).
    pub(crate) fn draw_seed(&self, run_seed: u64, day: usize) -> u64 {
        proactive_draw_seed(self.seed ^ run_seed, day as u64)
    }

    /// The objective multiplier `(1 − w) + w · survival` of `node`, its
    /// survival drawn from `model` under `draw_seed`.
    pub(crate) fn survival_weight(
        &self,
        model: &AvailabilityModel,
        node: usize,
        draw_seed: u64,
    ) -> f64 {
        (1.0 - self.weight) + self.weight * model.thompson(node, draw_seed)
    }
}

/// One node's decayed Beta posterior plus the current round's exact
/// (integer-tick) observation buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NodeState {
    alpha: f64,
    beta: f64,
    pending_up_ticks: u64,
    pending_down_ticks: u64,
    pending_crashes: u64,
}

impl NodeState {
    const FRESH: Self = Self {
        alpha: PRIOR_ALPHA,
        beta: PRIOR_BETA,
        pending_up_ticks: 0,
        pending_down_ticks: 0,
        pending_crashes: 0,
    };
}

/// Magic first line of the on-disk format. Version-bump on any layout
/// change; old dumps are then rejected instead of misread.
const PERSIST_HEADER: &str = "dcta-availability-prior v1";

/// Per-node availability posteriors behind a shared-reference API; a
/// default model has every node at the prior.
///
/// Interior mutability (one mutex over the whole map — the map is tiny,
/// one entry per fleet node) lets a shared prepared core and concurrent
/// absorb callers share `&AvailabilityModel`. The lock recovers from
/// poisoning with [`PoisonError::into_inner`]: every critical section under
/// it is saturating integer adds, a decay fold, or one map insert, extend
/// or clear, and no caller code runs under it, so a panic can never leave
/// a posterior half-updated.
#[derive(Debug, Default)]
pub struct AvailabilityModel {
    state: Mutex<BTreeMap<usize, NodeState>>,
}

impl AvailabilityModel {
    /// The per-node state, poisoned or not (see the type's docs).
    fn state(&self) -> MutexGuard<'_, BTreeMap<usize, NodeState>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of nodes with any recorded state.
    pub fn len(&self) -> usize {
        self.state().len()
    }

    /// Whether no node has recorded state yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets all learned state (back to the prior everywhere).
    pub fn clear(&self) {
        self.state().clear();
    }

    /// Buffers one round's exposure observations.
    ///
    /// Each exposure is quantised to integer ticks *independently* and
    /// accumulated with saturating integer adds, so any partition of a
    /// round's exposures across any number of concurrent `absorb` calls —
    /// in any interleaving — produces bit-identical buffered state. The
    /// buffer only reaches the posterior through
    /// [`AvailabilityModel::advance_round`].
    pub fn absorb(&self, exposures: &[NodeExposure]) {
        if exposures.is_empty() {
            return;
        }
        let ticks = |seconds: f64| -> u64 {
            let t = (seconds.max(0.0) / EXPOSURE_UNIT_S * TICKS_PER_UNIT).round();
            if t >= u64::MAX as f64 {
                u64::MAX
            } else {
                t as u64
            }
        };
        let mut state = self.state();
        for exp in exposures {
            let entry = state.entry(exp.node.0).or_insert(NodeState::FRESH);
            entry.pending_up_ticks = entry.pending_up_ticks.saturating_add(ticks(exp.up_s));
            entry.pending_down_ticks = entry.pending_down_ticks.saturating_add(ticks(exp.down_s));
            entry.pending_crashes = entry.pending_crashes.saturating_add(exp.crashes);
        }
    }

    /// Folds the buffered observations into every posterior: decays the
    /// old evidence toward the prior, then adds the round's pseudo-counts.
    ///
    /// Call once per logical round (a simulated day) from the driving
    /// thread. Folding from concurrent threads is safe but the fold order
    /// would then be scheduler-dependent — keep it single-threaded where
    /// bit-reproducibility matters.
    pub fn advance_round(&self) {
        for node in self.state().values_mut() {
            node.alpha = PRIOR_ALPHA + DECAY * (node.alpha - PRIOR_ALPHA);
            node.beta = PRIOR_BETA + DECAY * (node.beta - PRIOR_BETA);
            node.alpha += node.pending_up_ticks as f64 / TICKS_PER_UNIT;
            node.beta += node.pending_down_ticks as f64 / TICKS_PER_UNIT
                + node.pending_crashes as f64 * CRASH_WEIGHT;
            node.pending_up_ticks = 0;
            node.pending_down_ticks = 0;
            node.pending_crashes = 0;
        }
    }

    /// `(α, β)` for a node — the prior when the node was never observed.
    /// Buffered (un-folded) observations are not included.
    pub fn posterior(&self, node: usize) -> (f64, f64) {
        self.state().get(&node).map_or((PRIOR_ALPHA, PRIOR_BETA), |s| (s.alpha, s.beta))
    }

    /// Posterior mean survival probability `α / (α + β)`.
    pub fn mean(&self, node: usize) -> f64 {
        let (a, b) = self.posterior(node);
        a / (a + b)
    }

    /// One Thompson draw from the node's Beta posterior.
    ///
    /// The draw uses a fresh generator keyed by `(seed, node)` — mix the
    /// day into `seed` for per-day refresh. Identical `(state, seed,
    /// node)` always yields the identical draw, independent of call order
    /// or thread count.
    pub fn thompson(&self, node: usize, seed: u64) -> f64 {
        let (a, b) = self.posterior(node);
        let mut rng = StdRng::seed_from_u64(mix_node_seed(seed, node));
        sample_beta(&mut rng, a, b)
    }

    /// Serialises every node's posterior (and any buffered ticks), sorted
    /// by node id. Values are exact `f64` bit patterns — persistence must
    /// not perturb a single bit.
    pub fn to_text(&self) -> String {
        let mut out = String::from(PERSIST_HEADER);
        out.push('\n');
        for (node, s) in self.state().iter() {
            out.push_str(&format!(
                "{:016x} {:016x} {:016x} {:016x} {:016x} {:016x}\n",
                node,
                s.alpha.to_bits(),
                s.beta.to_bits(),
                s.pending_up_ticks,
                s.pending_down_ticks,
                s.pending_crashes,
            ));
        }
        out
    }

    /// Merges an [`AvailabilityModel::to_text`] dump into this model
    /// (dumped nodes replace same-id state). Returns the number of node
    /// records read.
    ///
    /// # Errors
    ///
    /// [`PersistError::Parse`] on a malformed dump or a node
    /// recorded twice; nothing is merged partially — the text is validated
    /// before any insert.
    pub fn load_text(&self, text: &str) -> Result<usize, PersistError> {
        let mut parsed: BTreeMap<usize, NodeState> = BTreeMap::new();
        for record in persist::records(text, PERSIST_HEADER)? {
            let [node, alpha, beta, pending_up_ticks, pending_down_ticks, pending_crashes] =
                record.words[..]
            else {
                return Err(record.reject("expected 6 fields"));
            };
            let (alpha, beta) = (f64::from_bits(alpha), f64::from_bits(beta));
            if !(alpha.is_finite() && alpha > 0.0 && beta.is_finite() && beta > 0.0) {
                return Err(record.reject("posterior parameters must be finite and positive"));
            }
            let s =
                NodeState { alpha, beta, pending_up_ticks, pending_down_ticks, pending_crashes };
            if parsed.insert(node as usize, s).is_some() {
                return Err(record.reject("duplicate node"));
            }
        }
        let count = parsed.len();
        self.state().extend(parsed);
        Ok(count)
    }

    /// Writes the model to `path` (see [`AvailabilityModel::to_text`]).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save_file(&self, path: &Path) -> Result<(), PersistError> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Merges the dump at `path` into this model. A missing file is not an
    /// error — it simply merges nothing (first run of a sweep).
    ///
    /// # Errors
    ///
    /// See [`PersistError`] variants.
    pub fn load_file(&self, path: &Path) -> Result<usize, PersistError> {
        persist::load_file(path, |text| self.load_text(text))
    }
}

impl Clone for AvailabilityModel {
    fn clone(&self) -> Self {
        Self { state: Mutex::new(self.state().clone()) }
    }
}

/// The per-day Thompson draw seed the proactive allocation paths use:
/// every survival query of the same day shares one deterministic seed, so
/// an allocation and its re-plan see consistent draws, while distinct days
/// get decorrelated streams.
#[must_use]
pub fn proactive_draw_seed(base: u64, day: u64) -> u64 {
    base ^ (day + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// SplitMix64-style mix of the base seed and node id, so per-node draw
/// streams are decorrelated even for adjacent ids.
fn mix_node_seed(seed: u64, node: usize) -> u64 {
    let mut z = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Standard normal via Box–Muller (the vendored `rand` has no
/// distributions module).
fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen();
    // `gen` yields [0, 1); flip so the log argument is (0, 1].
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Gamma(shape, 1) via Marsaglia–Tsang squeeze (shape > 0).
fn sample_gamma(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) · U^(1/a).
        let u: f64 = rng.gen();
        return sample_gamma(rng, shape + 1.0) * (1.0 - u).powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if (1.0 - u).max(f64::MIN_POSITIVE).ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Beta(a, b) as Gamma(a) / (Gamma(a) + Gamma(b)).
fn sample_beta(rng: &mut StdRng, a: f64, b: f64) -> f64 {
    let x = sample_gamma(rng, a);
    let y = sample_gamma(rng, b);
    if x + y <= 0.0 {
        a / (a + b)
    } else {
        (x / (x + y)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::node::NodeId;

    fn exposure(node: usize, up_s: f64, down_s: f64, crashes: u64) -> NodeExposure {
        NodeExposure { node: NodeId(node), up_s, down_s, crashes }
    }

    #[test]
    fn unknown_node_sits_at_the_prior() {
        let m = AvailabilityModel::default();
        assert_eq!(m.posterior(7), (1.0, 1.0));
        assert!((m.mean(7) - 0.5).abs() < 1e-12);
        assert!(m.is_empty());
    }

    #[test]
    fn uptime_raises_and_crashes_lower_the_mean() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(1, 600.0, 0.0, 0), exposure(2, 60.0, 540.0, 3)]);
        m.advance_round();
        assert!(m.mean(1) > 0.8, "steady node should look available: {}", m.mean(1));
        assert!(m.mean(2) < 0.25, "crashy node should look fragile: {}", m.mean(2));
        assert!(m.mean(1) > m.mean(2));
    }

    #[test]
    fn decay_fades_old_evidence_toward_the_prior() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(4, 0.0, 600.0, 5)]);
        m.advance_round();
        let fresh = m.mean(4);
        for _ in 0..60 {
            m.advance_round();
        }
        let faded = m.mean(4);
        assert!(fresh < 0.2);
        assert!(faded > fresh, "decay should pull toward the prior");
        assert!((faded - 0.5).abs() < 0.01, "long decay should approach prior mean: {faded}");
    }

    #[test]
    fn absorb_commutes_exactly_over_partitions() {
        let batch: Vec<NodeExposure> = (0..40)
            .map(|i| exposure(i % 5, 13.37 * i as f64, 3.25 * (i % 7) as f64, (i % 3) as u64))
            .collect();
        let whole = AvailabilityModel::default();
        whole.absorb(&batch);
        whole.advance_round();
        let pieces = AvailabilityModel::default();
        // Reverse-order singleton absorbs: worst-case interleaving.
        for exp in batch.iter().rev() {
            pieces.absorb(std::slice::from_ref(exp));
        }
        pieces.advance_round();
        assert_eq!(whole.to_text(), pieces.to_text());
    }

    #[test]
    fn thompson_draws_are_seed_deterministic_and_in_range() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(0, 600.0, 60.0, 1)]);
        m.advance_round();
        let a = m.thompson(0, 42);
        let b = m.thompson(0, 42);
        let c = m.thompson(0, 43);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_ne!(a.to_bits(), c.to_bits());
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn thompson_tracks_the_posterior() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(0, 3600.0, 0.0, 0), exposure(1, 0.0, 3600.0, 10)]);
        m.advance_round();
        let up: f64 = (0..200).map(|s| m.thompson(0, s)).sum::<f64>() / 200.0;
        let down: f64 = (0..200).map(|s| m.thompson(1, s)).sum::<f64>() / 200.0;
        assert!(up > 0.9, "draws from a healthy posterior should be high: {up}");
        assert!(down < 0.1, "draws from a fragile posterior should be low: {down}");
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(0, 600.0, 31.4, 1), exposure(5, 59.9, 0.1, 0)]);
        m.advance_round();
        m.absorb(&[exposure(0, 10.0, 2.0, 0)]); // leave buffered ticks too
        let text = m.to_text();
        assert!(text.starts_with(PERSIST_HEADER));
        let restored = AvailabilityModel::default();
        assert_eq!(restored.load_text(&text).unwrap(), 2);
        assert_eq!(restored.to_text(), text);
        assert_eq!(restored.mean(0).to_bits(), m.mean(0).to_bits());
        assert_eq!(restored.thompson(5, 77).to_bits(), m.thompson(5, 77).to_bits());
    }

    #[test]
    fn load_rejects_malformed_dumps_without_merging() {
        let m = AvailabilityModel::default();
        assert!(matches!(m.load_text("not-a-header\n"), Err(PersistError::Parse { line: 1, .. })));
        let bad = format!("{PERSIST_HEADER}\n{:016x} {:016x} {:016x}\n", 1, 2, 3);
        assert!(matches!(m.load_text(&bad), Err(PersistError::Parse { line: 2, .. })));
        let nan = format!(
            "{PERSIST_HEADER}\n{:016x} {:016x} {:016x} {z} {z} {z}\n",
            1,
            f64::NAN.to_bits(),
            1.0f64.to_bits(),
            z = "0".repeat(16),
        );
        assert!(matches!(m.load_text(&nan), Err(PersistError::Parse { line: 2, .. })));
        assert!(m.is_empty(), "failed loads must not merge partially");
    }

    #[test]
    fn duplicate_node_is_rejected_before_any_merge() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(3, 600.0, 0.0, 0)]);
        m.advance_round();
        let text = m.to_text();
        let records: String = [(1usize, 2.0f64), (2, 3.0), (1, 4.0)]
            .iter()
            .map(|(node, alpha)| {
                let zeros = format!("{0:016x} {0:016x} {0:016x}", 0);
                format!("{node:016x} {:016x} {:016x} {zeros}\n", alpha.to_bits(), 1.0f64.to_bits())
            })
            .collect();
        let dump = format!("{PERSIST_HEADER}\n{records}");
        assert!(matches!(
            m.load_text(&dump),
            Err(PersistError::Parse { line: 4, reason: "duplicate node" })
        ));
        assert_eq!(m.to_text(), text, "contents moved");
    }

    #[test]
    fn missing_file_loads_nothing() {
        let m = AvailabilityModel::default();
        let path = std::env::temp_dir().join("dcta-availability-does-not-exist.txt");
        assert_eq!(m.load_file(&path).unwrap(), 0);
    }

    #[test]
    fn clear_resets_to_prior() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(0, 0.0, 600.0, 4)]);
        m.advance_round();
        assert!(m.mean(0) < 0.5);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.posterior(0), (1.0, 1.0));
    }

    #[test]
    fn clone_is_independent() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(0, 600.0, 0.0, 0)]);
        m.advance_round();
        let snap = m.clone();
        m.absorb(&[exposure(0, 0.0, 600.0, 9)]);
        m.advance_round();
        assert!(snap.mean(0) > m.mean(0));
    }

    #[test]
    fn a_poisoned_lock_still_answers() {
        let m = AvailabilityModel::default();
        m.absorb(&[exposure(2, 600.0, 60.0, 1)]);
        m.advance_round();
        let before = m.to_text();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = m.state.lock();
                panic!("poison the availability lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(m.state.is_poisoned());
        assert_eq!(m.to_text(), before, "the panic moved no state");
        let (alpha, beta) = m.posterior(2);
        m.absorb(&[exposure(2, 600.0, 0.0, 0)]);
        m.advance_round();
        let after = m.posterior(2);
        assert!(after.0 > alpha && after.1 < beta, "{after:?} after ({alpha}, {beta})");
        assert!(m.to_text().starts_with(PERSIST_HEADER));
    }

    #[test]
    fn model_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<AvailabilityModel>();
    }
}
