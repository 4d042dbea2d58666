//! Order statistics for latency samples and for repeated runs.

/// Sorts a sample ascending (latencies are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Nearest-rank percentile `p ∈ (0, 1]` of an ascending sample: the
/// smallest value with at least `p · n` samples at or below it. `0.0` for an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has the ten samples beyond it that
/// make it reportable.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median with the midpoint convention for even counts (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them — the rule the acceptance
/// driver applies to repeated runs. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Interquartile range as a share of the median (`0.0` for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Median throughput over windows of consecutive completions: the sorted
/// completion offsets (seconds since the phase began) are cut into at most
/// 16 windows of equal op count and each window's `ops ÷ duration` is taken.
/// Against a plain `count ÷ wall` this discounts the multi-second slow
/// spells a shared host injects, which would otherwise move a mean by more
/// than any change under test.
pub fn windowed_rate(sorted_end_s: &[f64]) -> f64 {
    let n = sorted_end_s.len();
    if n == 0 {
        return 0.0;
    }
    let per_window = n.div_ceil(16);
    let mut rates = Vec::new();
    let mut start = 0.0;
    for chunk in sorted_end_s.chunks(per_window) {
        let end = *chunk.last().expect("chunks are non-empty");
        if end > start {
            rates.push(chunk.len() as f64 / (end - start));
        }
        start = end;
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(tail_supported(1000, 0.99) && !tail_supported(999, 0.99));
        assert!(tail_supported(20, 0.5) && !tail_supported(19, 0.5));
        assert!(tail_supported(100_000, 0.99) && !tail_supported(40, 0.99));
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_rate_ignores_a_slow_spell() {
        // 160 ops at 10/s, with ops 32..48 stretched fourfold.
        let mut t = 0.0;
        let ends: Vec<f64> = (0..160)
            .map(|i| {
                t += if (32..48).contains(&i) { 0.4 } else { 0.1 };
                t
            })
            .collect();
        assert!((windowed_rate(&ends) - 10.0).abs() < 1e-9);
        assert!(160.0 / t < 8.0);
        assert_eq!(windowed_rate(&[]), 0.0);
        assert!((windowed_rate(&[0.5]) - 2.0).abs() < 1e-12);
    }
}
