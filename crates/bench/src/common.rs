//! Shared infrastructure for the reproduction experiments: run options,
//! canonical configurations, text tables, and result snapshots.

use buildings::scenario::{Scenario, ScenarioConfig, ScenarioError};
use dcta_core::availability::AvailabilityModel;
use dcta_core::cache::ImportanceCache;
use dcta_core::pipeline::{Pipeline, PipelineConfig, PipelineError};
use dcta_core::shared::PreparedCore;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Options shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Shrinks workloads (fewer days/episodes/sweep points) for smoke runs.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self { quick: false, seed: 0xDC7A }
    }
}

impl RunOpts {
    /// Picks `full` or `quick` depending on the mode.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The canonical evaluation scenario: 50 tasks, 3 buildings (§V-B).
///
/// # Errors
///
/// Propagates scenario generation failures.
pub fn paper_scenario(opts: &RunOpts, eval_days: u32) -> Result<Scenario, ScenarioError> {
    Scenario::generate(ScenarioConfig {
        history_days: opts.pick(240, 90),
        eval_days,
        seed: opts.seed,
        ..ScenarioConfig::default()
    })
}

/// The canonical pipeline configuration used by the processing-time
/// figures (allocation overhead included in PT, as the paper's PT metric
/// covers partitioning and decision making).
pub fn paper_pipeline(opts: &RunOpts) -> PipelineConfig {
    PipelineConfig {
        env_history_days: opts.pick(6, 4),
        crl: CrlConfig {
            episodes: opts.pick(200, 30),
            dqn: DqnConfig { hidden: vec![48], ..DqnConfig::default() },
            seed: opts.seed ^ 0x17,
            ..CrlConfig::default()
        },
        include_allocation_overhead: true,
        seed: opts.seed,
        ..PipelineConfig::default()
    }
}

/// LRU capacity of the persisted importance cache. Entries are one
/// `(day, mask) -> f64` evaluation each, so this caps the on-disk snapshot
/// at a few megabytes while comfortably holding every sweep's working set.
const CACHE_CAPACITY: usize = 1 << 16;

/// Basename of the importance-cache snapshot stored next to `results/*.json`.
pub const CACHE_BASENAME: &str = "importance_cache.txt";

/// Basename of the availability-posterior snapshot persisted next to the
/// importance cache (same versioned-text scheme; see
/// `dcta_core::availability`).
pub const AVAILABILITY_BASENAME: &str = "availability_prior.txt";

static CACHE_FILE: OnceLock<Option<PathBuf>> = OnceLock::new();

/// Points the persisted importance cache at `<dir>/importance_cache.txt`.
///
/// Driver binaries call this once with their `--out` directory before any
/// experiment runs; experiments launched without a configured directory
/// (unit tests, library callers) fall back to in-memory caches. Only the
/// first call wins — the path is process-global, like the thread cap.
pub fn set_cache_dir(dir: &Path) {
    let _ = CACHE_FILE.set(Some(dir.join(CACHE_BASENAME)));
}

fn cache_file() -> Option<&'static Path> {
    CACHE_FILE.get().and_then(|p| p.as_deref())
}

fn availability_file() -> Option<PathBuf> {
    cache_file().map(|p| p.with_file_name(AVAILABILITY_BASENAME))
}

/// Persists `model`'s posterior next to the importance cache (no-op when
/// no results directory is configured). Like the cache snapshot, this is
/// an accelerator/provenance artefact: failures are reported, never fatal.
pub fn persist_availability(model: &AvailabilityModel) {
    let Some(path) = availability_file() else { return };
    match model.save_file(&path) {
        Ok(()) => {
            println!("[availability prior: {} nodes saved to {}]", model.len(), path.display())
        }
        Err(e) => eprintln!("[availability prior: could not persist {}: {e}]", path.display()),
    }
}

/// Prepares a pipeline through the persisted importance cache.
///
/// Warm-starts from the snapshot next to the results directory (when one
/// is configured and present) so repeated `reproduce` sweeps skip the
/// offline importance sweep, then persists the merged cache back after the
/// prepare pass — the phase that performs the bulk of the evaluations.
/// Snapshot I/O problems are reported but never fail the experiment: the
/// cache is a pure accelerator and results are bit-identical either way.
///
/// # Errors
///
/// Propagates pipeline preparation failures.
pub fn prepare_cached(
    config: PipelineConfig,
    scenario: &Scenario,
) -> Result<PreparedCore, PipelineError> {
    let cache = ImportanceCache::with_capacity(CACHE_CAPACITY);
    if let Some(path) = cache_file() {
        match cache.load_file(path) {
            Ok(n) if n > 0 => println!("[importance cache: {n} entries from {}]", path.display()),
            Ok(_) => {}
            Err(e) => eprintln!("[importance cache: ignoring {}: {e}]", path.display()),
        }
    }
    // The availability posterior warm-starts from the snapshot persisted
    // next to the importance cache — same versioned-text scheme, same
    // best-effort semantics. Sweeps that need per-cell independence reset
    // it explicitly (`AvailabilityModel::clear`).
    let availability = AvailabilityModel::default();
    if let Some(path) = availability_file() {
        match availability.load_file(&path) {
            Ok(n) if n > 0 => {
                println!("[availability prior: {n} nodes from {}]", path.display());
            }
            Ok(_) => {}
            Err(e) => eprintln!("[availability prior: ignoring {}: {e}]", path.display()),
        }
    }
    let prepared =
        Pipeline::builder(config).cache(cache).availability(availability).prepare(scenario)?;
    if let Some(path) = cache_file() {
        if let Err(e) = prepared.importance_cache().save_file(path) {
            eprintln!("[importance cache: could not persist {}: {e}]", path.display());
        }
    }
    Ok(prepared)
}

/// A plain-text table renderer for experiment output.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate().take(ncols) {
                let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs `f` `reps` times (at least once) and returns the best wall time in
/// milliseconds with the last run's output. Each earlier output is dropped
/// after its clock stops, so teardown is never timed.
///
/// # Errors
///
/// Returns the first error `f` returns.
pub fn best_of_ms<T, E>(reps: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    let start = Instant::now();
    let mut out = f()?;
    let mut best = start.elapsed().as_secs_f64() * 1e3;
    for _ in 1..reps {
        let start = Instant::now();
        let next = f()?;
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = next;
    }
    Ok((best, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn opts_pick() {
        let q = RunOpts { quick: true, ..Default::default() };
        let f = RunOpts { quick: false, ..Default::default() };
        assert_eq!(q.pick(10, 2), 2);
        assert_eq!(f.pick(10, 2), 10);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.4568), "45.68%");
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quick_scenario_generates() {
        let opts = RunOpts { quick: true, ..Default::default() };
        let s = paper_scenario(&opts, 6).unwrap();
        assert_eq!(s.num_tasks(), 50);
        assert_eq!(s.days().len(), 6);
    }
}
