//! Problem model for the 0-1 multiply-constrained multiple knapsack problem
//! (MCMK), the combinatorial core of TATIM (paper Theorem 1).
//!
//! Terminology maps onto the paper's reduction: an *item* is a task (weight =
//! execution time `t_j`, volume = resource demand `v_j`, profit = task
//! importance `I_j`); a *sack* is a processor (weight capacity = time limit
//! `T`, volume capacity = resource capacity `V_p`). An item may be packed
//! into at most one sack; unpacked items earn nothing.

use std::fmt;

/// One item: a (time, resource, profit) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Weight consumed in the first constraint dimension (task time `t_j`).
    pub weight: f64,
    /// Volume consumed in the second constraint dimension (resource `v_j`).
    pub volume: f64,
    /// Profit earned when packed (task importance `I_j`).
    pub profit: f64,
}

impl Item {
    /// Creates an item, validating that all components are finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::BadItem`] on negative or non-finite values.
    pub fn new(weight: f64, volume: f64, profit: f64) -> Result<Self, ProblemError> {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        if !(ok(weight) && ok(volume) && ok(profit)) {
            return Err(ProblemError::BadItem { weight, volume, profit });
        }
        Ok(Self { weight, volume, profit })
    }

    /// Profit density used by greedy heuristics: profit per unit of
    /// (normalised) combined size. Zero-size items have infinite density.
    pub fn density(&self, weight_scale: f64, volume_scale: f64) -> f64 {
        let size = self.weight / weight_scale.max(1e-12) + self.volume / volume_scale.max(1e-12);
        if size <= 1e-15 {
            f64::INFINITY
        } else {
            self.profit / size
        }
    }
}

/// One sack: capacities in both constraint dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sack {
    /// Capacity in the weight dimension (time limit `T`).
    pub weight_capacity: f64,
    /// Capacity in the volume dimension (resource capacity `V_p`).
    pub volume_capacity: f64,
}

impl Sack {
    /// Creates a sack, validating that capacities are finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::BadSack`] on negative or non-finite values.
    pub fn new(weight_capacity: f64, volume_capacity: f64) -> Result<Self, ProblemError> {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        if !(ok(weight_capacity) && ok(volume_capacity)) {
            return Err(ProblemError::BadSack { weight_capacity, volume_capacity });
        }
        Ok(Self { weight_capacity, volume_capacity })
    }
}

/// Error constructing or validating an MCMK problem.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemError {
    /// Item had a negative or non-finite component.
    BadItem {
        /// Offending weight.
        weight: f64,
        /// Offending volume.
        volume: f64,
        /// Offending profit.
        profit: f64,
    },
    /// Sack had a negative or non-finite capacity.
    BadSack {
        /// Offending weight capacity.
        weight_capacity: f64,
        /// Offending volume capacity.
        volume_capacity: f64,
    },
    /// The problem has no sacks.
    NoSacks,
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::BadItem { weight, volume, profit } => {
                write!(f, "invalid item (weight {weight}, volume {volume}, profit {profit})")
            }
            ProblemError::BadSack { weight_capacity, volume_capacity } => {
                write!(f, "invalid sack (capacities {weight_capacity}, {volume_capacity})")
            }
            ProblemError::NoSacks => write!(f, "problem has no sacks"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// An MCMK instance.
///
/// # Examples
///
/// ```
/// use knapsack::problem::{Item, Problem, Sack};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = Problem::new(
///     vec![Item::new(2.0, 1.0, 10.0)?, Item::new(3.0, 1.0, 5.0)?],
///     vec![Sack::new(4.0, 2.0)?],
/// )?;
/// assert_eq!(problem.num_items(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    items: Vec<Item>,
    sacks: Vec<Sack>,
}

impl Problem {
    /// Creates a problem instance.
    ///
    /// # Errors
    ///
    /// [`ProblemError::NoSacks`] when `sacks` is empty. (An empty item list
    /// is legal: the optimum is trivially zero.)
    pub fn new(items: Vec<Item>, sacks: Vec<Sack>) -> Result<Self, ProblemError> {
        if sacks.is_empty() {
            return Err(ProblemError::NoSacks);
        }
        Ok(Self { items, sacks })
    }

    /// The items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The sacks.
    pub fn sacks(&self) -> &[Sack] {
        &self.sacks
    }

    /// Item count.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Sack count.
    pub fn num_sacks(&self) -> usize {
        self.sacks.len()
    }

    /// Sum of all item profits — a trivial upper bound on any packing.
    pub fn total_profit(&self) -> f64 {
        self.items.iter().map(|i| i.profit).sum()
    }
}

/// A (possibly partial) packing: `placement[i]` is the sack index of item
/// `i`, or `None` when the item is left out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packing {
    placement: Vec<Option<usize>>,
}

impl Packing {
    /// An empty packing for `num_items` items.
    pub fn empty(num_items: usize) -> Self {
        Self { placement: vec![None; num_items] }
    }

    /// Builds a packing directly from a placement vector.
    pub fn from_placement(placement: Vec<Option<usize>>) -> Self {
        Self { placement }
    }

    /// The raw placement vector.
    pub fn placement(&self) -> &[Option<usize>] {
        &self.placement
    }

    /// Sack of item `i` (`None` = unpacked).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sack_of(&self, i: usize) -> Option<usize> {
        self.placement[i]
    }

    /// Assigns item `i` to `sack` (or unpacks it with `None`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn assign(&mut self, i: usize, sack: Option<usize>) {
        self.placement[i] = sack;
    }

    /// Number of packed items.
    pub fn packed_count(&self) -> usize {
        self.placement.iter().filter(|p| p.is_some()).count()
    }

    /// Total profit of packed items under `problem`, summed in item-index
    /// order. This is the one value of a packing: every solver reports it,
    /// so two solves that return the same placement report the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the packing length disagrees with the problem.
    pub fn profit(&self, problem: &Problem) -> f64 {
        assert_eq!(self.placement.len(), problem.num_items(), "packing/problem size mismatch");
        self.placement
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|_| problem.items()[i].profit))
            .sum()
    }

    /// Checks every constraint: valid sack indices, and per-sack weight and
    /// volume loads within capacity (with a tiny epsilon for float
    /// accumulation).
    ///
    /// # Panics
    ///
    /// Panics if the packing length disagrees with the problem.
    pub fn is_feasible(&self, problem: &Problem) -> bool {
        assert_eq!(self.placement.len(), problem.num_items(), "packing/problem size mismatch");
        let m = problem.num_sacks();
        let mut weight = vec![0.0; m];
        let mut volume = vec![0.0; m];
        for (i, p) in self.placement.iter().enumerate() {
            if let Some(s) = *p {
                if s >= m {
                    return false;
                }
                weight[s] += problem.items()[i].weight;
                volume[s] += problem.items()[i].volume;
            }
        }
        const EPS: f64 = 1e-9;
        problem.sacks().iter().enumerate().all(|(s, sack)| {
            weight[s] <= sack.weight_capacity + EPS && volume[s] <= sack.volume_capacity + EPS
        })
    }

    /// Remaining `(weight, volume)` headroom of each sack.
    ///
    /// # Panics
    ///
    /// Panics if the packing length disagrees with the problem.
    pub fn residual_capacities(&self, problem: &Problem) -> Vec<(f64, f64)> {
        assert_eq!(self.placement.len(), problem.num_items(), "packing/problem size mismatch");
        let mut residual: Vec<(f64, f64)> =
            problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)).collect();
        for (i, p) in self.placement.iter().enumerate() {
            if let Some(s) = *p {
                residual[s].0 -= problem.items()[i].weight;
                residual[s].1 -= problem.items()[i].volume;
            }
        }
        residual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Problem {
        Problem::new(
            vec![
                Item::new(2.0, 1.0, 10.0).unwrap(),
                Item::new(3.0, 2.0, 5.0).unwrap(),
                Item::new(1.0, 1.0, 7.0).unwrap(),
            ],
            vec![Sack::new(4.0, 2.0).unwrap(), Sack::new(2.0, 2.0).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn item_validation() {
        assert!(Item::new(-1.0, 0.0, 0.0).is_err());
        assert!(Item::new(0.0, f64::NAN, 0.0).is_err());
        assert!(Item::new(0.0, 0.0, f64::INFINITY).is_err());
        assert!(Item::new(0.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn sack_validation() {
        assert!(Sack::new(-1.0, 1.0).is_err());
        assert!(Sack::new(1.0, f64::NAN).is_err());
        assert!(Sack::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn problem_requires_sacks() {
        assert!(matches!(Problem::new(vec![], vec![]), Err(ProblemError::NoSacks)));
        assert!(Problem::new(vec![], vec![Sack::new(1.0, 1.0).unwrap()]).is_ok());
    }

    #[test]
    fn density_ordering() {
        let dense = Item::new(1.0, 1.0, 10.0).unwrap();
        let sparse = Item::new(5.0, 5.0, 10.0).unwrap();
        assert!(dense.density(1.0, 1.0) > sparse.density(1.0, 1.0));
        let free = Item::new(0.0, 0.0, 1.0).unwrap();
        assert_eq!(free.density(1.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn packing_profit_and_count() {
        let p = simple();
        let mut k = Packing::empty(3);
        assert_eq!(k.profit(&p), 0.0);
        k.assign(0, Some(0));
        k.assign(2, Some(1));
        assert_eq!(k.profit(&p), 17.0);
        assert_eq!(k.packed_count(), 2);
        k.assign(0, None);
        assert_eq!(k.profit(&p), 7.0);
    }

    #[test]
    fn feasibility_checks_both_dimensions() {
        let p = simple();
        let mut k = Packing::empty(3);
        k.assign(0, Some(0)); // w 2/4, v 1/2 — ok
        assert!(k.is_feasible(&p));
        k.assign(2, Some(0)); // w 3/4, v 2/2 — ok, tight
        assert!(k.is_feasible(&p));
        k.assign(1, Some(0)); // w 6/4 — violates weight
        assert!(!k.is_feasible(&p));
        k.assign(1, Some(1)); // sack 1: w 3/2 — violates weight there
        assert!(!k.is_feasible(&p));
        k.assign(1, None);
        assert!(k.is_feasible(&p));
    }

    #[test]
    fn feasibility_rejects_bad_sack_index() {
        let p = simple();
        let k = Packing::from_placement(vec![Some(5), None, None]);
        assert!(!k.is_feasible(&p));
    }

    #[test]
    fn residual_capacities_track_loads() {
        let p = simple();
        let mut k = Packing::empty(3);
        k.assign(0, Some(0));
        let res = k.residual_capacities(&p);
        assert_eq!(res[0], (2.0, 1.0));
        assert_eq!(res[1], (2.0, 2.0));
    }

    #[test]
    fn total_profit_is_item_sum() {
        assert_eq!(simple().total_profit(), 22.0);
    }
}
