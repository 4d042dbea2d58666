//! k-nearest-neighbour lookup, classification and regression.
//!
//! CRL's *environment definition* step is literally `e = kNN(E, Z)` (§III-C):
//! find, among historical environments `E`, those whose sensing-data
//! signature is closest to the current reading `Z`. The paper's Discussion
//! (§VII) also contrasts this *online* mode against offline k-means
//! clustering; both are provided (see [`crate::kmeans`] for the latter).

use crate::linalg::euclidean_distance;
use std::fmt;

/// Reference-set size beyond which the distance scan runs on the
/// [`parallel`] crew. Below it, environment stores are a handful of daily
/// signatures and thread spawn would dominate.
pub const PARALLEL_SCAN_THRESHOLD: usize = 4096;

/// Error returned by kNN queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnnError {
    /// No reference points were supplied.
    EmptyReference,
    /// `k` was zero.
    ZeroK,
    /// The query's arity differs from the reference points'.
    ArityMismatch {
        /// Reference arity.
        expected: usize,
        /// Query arity.
        got: usize,
    },
}

impl fmt::Display for KnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnnError::EmptyReference => write!(f, "kNN reference set is empty"),
            KnnError::ZeroK => write!(f, "k must be at least 1"),
            KnnError::ArityMismatch { expected, got } => {
                write!(f, "query has {got} features, reference has {expected}")
            }
        }
    }
}

impl std::error::Error for KnnError {}

/// A brute-force kNN index over owned points.
///
/// Brute force is the right trade-off here: environment stores hold at most
/// a few thousand daily signatures and queries happen once per allocation
/// round, so index-build cost would never amortise.
///
/// # Examples
///
/// ```
/// use learn::knn::KnnIndex;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let index = KnnIndex::new(vec![vec![0.0, 0.0], vec![10.0, 10.0]])?;
/// let hits = index.nearest(&[1.0, 1.0], 1)?;
/// assert_eq!(hits[0].index, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnIndex {
    points: Vec<Vec<f64>>,
    arity: usize,
}

/// One kNN hit: which reference point, and how far away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index into the reference set.
    pub index: usize,
    /// Euclidean distance from the query.
    pub distance: f64,
}

impl KnnIndex {
    /// Builds an index over `points`.
    ///
    /// # Errors
    ///
    /// [`KnnError::EmptyReference`] when `points` is empty,
    /// [`KnnError::ArityMismatch`] when points are ragged.
    pub fn new(points: Vec<Vec<f64>>) -> Result<Self, KnnError> {
        let arity = points.first().ok_or(KnnError::EmptyReference)?.len();
        if let Some(bad) = points.iter().find(|p| p.len() != arity) {
            return Err(KnnError::ArityMismatch { expected: arity, got: bad.len() });
        }
        Ok(Self { points, arity })
    }

    /// Number of reference points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the index holds no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Feature arity of the reference points.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Reference point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn point(&self, index: usize) -> &[f64] {
        &self.points[index]
    }

    /// Appends another reference point (environments accumulate daily).
    ///
    /// # Errors
    ///
    /// [`KnnError::ArityMismatch`] when the point has the wrong arity.
    pub fn push(&mut self, point: Vec<f64>) -> Result<(), KnnError> {
        if point.len() != self.arity {
            return Err(KnnError::ArityMismatch { expected: self.arity, got: point.len() });
        }
        self.points.push(point);
        Ok(())
    }

    /// The `k` nearest reference points to `query`, closest first. When
    /// `k > len()`, every point is returned.
    ///
    /// The brute-force distance scan fans out across threads once the
    /// reference set is large enough to amortise the spawn cost (see
    /// [`PARALLEL_SCAN_THRESHOLD`]); per-point distances are independent,
    /// and the tie-breaking sort is total, so results are bit-identical to
    /// the serial scan at any thread count.
    ///
    /// # Errors
    ///
    /// [`KnnError::ZeroK`] or [`KnnError::ArityMismatch`] on invalid input.
    pub fn nearest(&self, query: &[f64], k: usize) -> Result<Vec<Neighbor>, KnnError> {
        if k == 0 {
            return Err(KnnError::ZeroK);
        }
        if query.len() != self.arity {
            return Err(KnnError::ArityMismatch { expected: self.arity, got: query.len() });
        }
        let mut hits: Vec<Neighbor> = if self.points.len() >= PARALLEL_SCAN_THRESHOLD {
            parallel::map(self.points.len(), 2, |index| Neighbor {
                index,
                distance: euclidean_distance(query, &self.points[index]),
            })
        } else {
            self.points
                .iter()
                .enumerate()
                .map(|(index, p)| Neighbor { index, distance: euclidean_distance(query, p) })
                .collect()
        };
        hits.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("finite distances")
                .then(a.index.cmp(&b.index))
        });
        hits.truncate(k);
        Ok(hits)
    }
}

/// kNN regressor: predicts the (optionally distance-weighted) mean target of
/// the `k` nearest training samples.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnRegressor {
    index: KnnIndex,
    targets: Vec<f64>,
    k: usize,
    weighted: bool,
}

impl KnnRegressor {
    /// Builds a regressor from points, targets and neighbourhood size.
    ///
    /// # Errors
    ///
    /// Propagates [`KnnError`] for empty/ragged points or `k == 0`;
    /// a point/target count mismatch reports [`KnnError::ArityMismatch`].
    pub fn new(
        points: Vec<Vec<f64>>,
        targets: Vec<f64>,
        k: usize,
        weighted: bool,
    ) -> Result<Self, KnnError> {
        if k == 0 {
            return Err(KnnError::ZeroK);
        }
        if points.len() != targets.len() {
            return Err(KnnError::ArityMismatch { expected: points.len(), got: targets.len() });
        }
        Ok(Self { index: KnnIndex::new(points)?, targets, k, weighted })
    }

    /// Predicts the target at `query`.
    ///
    /// # Errors
    ///
    /// Propagates [`KnnError::ArityMismatch`].
    pub fn predict(&self, query: &[f64]) -> Result<f64, KnnError> {
        let hits = self.index.nearest(query, self.k)?;
        if self.weighted {
            let mut num = 0.0;
            let mut den = 0.0;
            for h in &hits {
                let w = 1.0 / (h.distance + 1e-9);
                num += w * self.targets[h.index];
                den += w;
            }
            Ok(num / den)
        } else {
            Ok(hits.iter().map(|h| self.targets[h.index]).sum::<f64>() / hits.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> KnnIndex {
        KnnIndex::new(vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![5.0, 5.0]]).unwrap()
    }

    #[test]
    fn nearest_orders_by_distance() {
        let idx = grid();
        let hits = idx.nearest(&[0.1, 0.0], 3).unwrap();
        assert_eq!(hits.iter().map(|h| h.index).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(hits[0].distance < hits[1].distance);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let idx = grid();
        assert_eq!(idx.nearest(&[0.0, 0.0], 99).unwrap().len(), 4);
    }

    #[test]
    fn ties_break_by_index() {
        let idx = KnnIndex::new(vec![vec![1.0], vec![-1.0]]).unwrap();
        let hits = idx.nearest(&[0.0], 2).unwrap();
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
    }

    #[test]
    fn errors_on_invalid_input() {
        assert!(matches!(KnnIndex::new(vec![]), Err(KnnError::EmptyReference)));
        assert!(matches!(
            KnnIndex::new(vec![vec![1.0], vec![1.0, 2.0]]),
            Err(KnnError::ArityMismatch { .. })
        ));
        let idx = grid();
        assert!(matches!(idx.nearest(&[0.0, 0.0], 0), Err(KnnError::ZeroK)));
        assert!(matches!(idx.nearest(&[0.0], 1), Err(KnnError::ArityMismatch { .. })));
    }

    #[test]
    fn push_extends_reference() {
        let mut idx = grid();
        idx.push(vec![-3.0, -3.0]).unwrap();
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.nearest(&[-3.0, -3.0], 1).unwrap()[0].index, 4);
        assert!(idx.push(vec![1.0]).is_err());
    }

    #[test]
    fn regressor_unweighted_mean() {
        let reg = KnnRegressor::new(
            vec![vec![0.0], vec![1.0], vec![10.0]],
            vec![2.0, 4.0, 100.0],
            2,
            false,
        )
        .unwrap();
        assert_eq!(reg.predict(&[0.4]).unwrap(), 3.0);
    }

    #[test]
    fn regressor_weighted_prefers_closer() {
        let reg = KnnRegressor::new(vec![vec![0.0], vec![1.0]], vec![0.0, 10.0], 2, true).unwrap();
        let near_zero = reg.predict(&[0.1]).unwrap();
        assert!(near_zero < 5.0, "weighted prediction {near_zero} should lean to nearer target");
        // Exactly on a point: dominated by that point's target.
        assert!(reg.predict(&[1.0]).unwrap() > 9.9);
    }

    #[test]
    fn regressor_validates() {
        assert!(matches!(
            KnnRegressor::new(vec![vec![0.0]], vec![1.0, 2.0], 1, false),
            Err(KnnError::ArityMismatch { .. })
        ));
        assert!(matches!(
            KnnRegressor::new(vec![vec![0.0]], vec![1.0], 0, false),
            Err(KnnError::ZeroK)
        ));
    }
}
