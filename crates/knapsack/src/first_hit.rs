//! Find-first index shared by [`crate::greedy::local_search`] and the
//! branch-and-bound sack scan in [`crate::exact`].

use crate::problem::Item;

/// What a [`FirstHit`] node knows about the leaves below it: the largest
/// weight and volume headroom and the smallest profit among them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Summary {
    pub(crate) weight: f64,
    pub(crate) volume: f64,
    pub(crate) profit: f64,
}

impl Summary {
    /// A leaf no query admits (an unpacked item, or padding), and the
    /// identity of [`Summary::merge`].
    pub(crate) const NONE: Self =
        Self { weight: f64::NEG_INFINITY, volume: f64::NEG_INFINITY, profit: f64::INFINITY };

    /// A sack leaf: its residual capacity. Sacks earn nothing, and the
    /// insert test never reads `profit`.
    pub(crate) fn room((weight, volume): (f64, f64)) -> Self {
        Self { weight, volume, profit: f64::NEG_INFINITY }
    }

    fn merge(self, other: Self) -> Self {
        Self {
            weight: self.weight.max(other.weight),
            volume: self.volume.max(other.volume),
            profit: self.profit.min(other.profit),
        }
    }

    /// `item` fits this headroom: the insert test of `local_search` and the
    /// branching test of the branch-and-bound.
    pub(crate) fn fits(&self, item: &Item) -> bool {
        item.weight <= self.weight + 1e-12 && item.volume <= self.volume + 1e-12
    }

    /// The swap test of `local_search`: `item` out-earns this profit and
    /// fits this headroom.
    pub(crate) fn yields_to(&self, item: &Item) -> bool {
        item.profit > self.profit + 1e-12 && self.fits(item)
    }
}

/// A complete binary tree, stored heap-style (`nodes[1]` the root, leaf `k`
/// at `nodes[size + k]`), whose every node holds the [`Summary`] of its
/// leaves.
///
/// [`FirstHit::first_from`] returns the lowest-indexed leaf at or after a
/// start that a predicate admits. The predicates are conjunctions of
/// `x <= key + 1e-12` on the maxima and `x > key + 1e-12` on the minimum;
/// float `+`, `max` and `min` are monotone, so a leaf that passes makes
/// every ancestor pass the same test. Evaluating the leaf's own predicate on
/// a node therefore prunes only subtrees without a hit, and the left-first
/// descent ends on exactly the leaf a linear scan would stop at.
#[derive(Debug)]
pub(crate) struct FirstHit {
    size: usize,
    nodes: Vec<Summary>,
}

impl FirstHit {
    /// A tree over `len` leaves, all [`Summary::NONE`].
    pub(crate) fn new(len: usize) -> Self {
        let size = len.next_power_of_two();
        Self { size, nodes: vec![Summary::NONE; 2 * size] }
    }

    /// Overwrites leaves `0..` with `leaves` and rebuilds every summary.
    pub(crate) fn fill(&mut self, leaves: impl Iterator<Item = Summary>) {
        for (slot, leaf) in self.nodes[self.size..].iter_mut().zip(leaves) {
            *slot = leaf;
        }
        for k in (1..self.size).rev() {
            self.nodes[k] = self.nodes[2 * k].merge(self.nodes[2 * k + 1]);
        }
    }

    /// Replaces one leaf and the summaries above it.
    pub(crate) fn set(&mut self, leaf: usize, summary: Summary) {
        let mut k = self.size + leaf;
        self.nodes[k] = summary;
        while k > 1 {
            k /= 2;
            self.nodes[k] = self.nodes[2 * k].merge(self.nodes[2 * k + 1]);
        }
    }

    /// The root summary: the largest weight and the largest volume over
    /// all leaves. On a sack tree that is the largest room any sack offers.
    pub(crate) fn root(&self) -> Summary {
        self.nodes[1]
    }

    /// The lowest-indexed leaf at or after `start` that `admits` accepts.
    ///
    /// The descent starts at the largest subtree whose leftmost leaf is
    /// `start` (the root when `start` is 0) and walks the subtrees to its
    /// right in leaf order, skipping every one whose summary `admits`
    /// rejects.
    pub(crate) fn first_from(
        &self,
        start: usize,
        admits: impl Fn(&Summary) -> bool,
    ) -> Option<usize> {
        if start >= self.size {
            return None;
        }
        let mut k = self.size + start;
        while k.is_multiple_of(2) {
            k /= 2;
        }
        loop {
            if admits(&self.nodes[k]) {
                if k >= self.size {
                    return Some(k - self.size);
                }
                k *= 2;
            } else {
                // Next subtree in leaf order: the right sibling of the
                // nearest ancestor-or-self that is a left child.
                while k % 2 == 1 {
                    if k == 1 {
                        return None;
                    }
                    k /= 2;
                }
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `first_from` is the scan's first hit even when a node passes every
    /// summary test through different leaves and holds no hit itself.
    #[test]
    fn first_hit_backtracks_out_of_subtrees_without_a_hit() {
        let key = |weight, volume, profit| Summary { weight, volume, profit };
        // Leaves 0 and 1 together admit (weight 5, volume 5, profit 5);
        // neither does alone. Leaf 3 is the only hit.
        let leaves = [key(9.0, 1.0, 1.0), key(1.0, 9.0, 1.0), Summary::NONE, key(6.0, 6.0, 2.0)];
        let mut tree = FirstHit::new(leaves.len());
        tree.fill(leaves.into_iter());
        let item = Item::new(5.0, 5.0, 5.0).unwrap();
        assert!(tree.nodes[2].yields_to(&item), "the left subtree passes on summaries");
        assert_eq!(tree.first_from(0, |k| k.yields_to(&item)), Some(3));
        tree.set(3, Summary::NONE);
        assert_eq!(tree.first_from(0, |k| k.yields_to(&item)), None);
        tree.set(1, key(5.0, 9.0, 4.0));
        assert_eq!(tree.first_from(0, |k| k.yields_to(&item)), Some(1));
    }

    /// `first_from` against a linear scan over a plain copy of the leaves:
    /// random leaves (some `NONE`), every start including past the end,
    /// and again after each of a run of point updates.
    #[test]
    fn first_from_matches_a_linear_scan() {
        let mut rng = StdRng::seed_from_u64(0xF1257);
        let draw = |rng: &mut StdRng| {
            if rng.gen_range(0..5) == 0 {
                Summary::NONE
            } else {
                let w = rng.gen_range(0..6u8);
                let v = rng.gen_range(0..6u8);
                Summary::room((f64::from(w), f64::from(v)))
            }
        };
        for round in 0..200 {
            let len = rng.gen_range(1..40);
            let drawn: Vec<Summary> = (0..len).map(|_| draw(&mut rng)).collect();
            let mut leaves: Vec<(f64, f64)> = drawn.iter().map(|s| (s.weight, s.volume)).collect();
            let mut tree = FirstHit::new(len);
            tree.fill(drawn.into_iter());
            for step in 0..12 {
                let item = Item::new(
                    f64::from(rng.gen_range(0..6u8)),
                    f64::from(rng.gen_range(0..6u8)),
                    1.0,
                )
                .unwrap();
                for start in 0..len + 3 {
                    let scan = (start..len).find(|&s| {
                        item.weight <= leaves[s].0 + 1e-12 && item.volume <= leaves[s].1 + 1e-12
                    });
                    let got = tree.first_from(start, |room| room.fits(&item));
                    assert_eq!(got, scan, "round {round} step {step} start {start}");
                }
                let leaf = rng.gen_range(0..len);
                let summary = draw(&mut rng);
                leaves[leaf] = (summary.weight, summary.volume);
                tree.set(leaf, summary);
            }
        }
    }
}
