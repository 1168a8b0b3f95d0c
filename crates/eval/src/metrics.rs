//! Clustering quality metrics.
//!
//! Story identification and alignment are clustering problems, so their
//! quality against ground truth is measured with standard clustering
//! metrics: pairwise precision/recall/F1 (the paper's "F-Measure" panel
//! in Figure 7), NMI and purity. All metrics
//! are computed over the *intersection* of items present in both the
//! predicted and the reference clustering.

use std::collections::HashMap;

/// A clustering: item → cluster id. Items and clusters are opaque
/// `u64`s; callers map their typed ids in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Clustering {
    assignment: HashMap<u64, u64>,
}

impl Clustering {
    /// Empty clustering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(item, cluster)` pairs (later pairs overwrite).
    pub fn from_pairs<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Self {
        Clustering {
            assignment: pairs.into_iter().collect(),
        }
    }

    /// Assign one item.
    pub fn assign(&mut self, item: u64, cluster: u64) {
        self.assignment.insert(item, cluster);
    }

    /// The cluster of an item.
    pub fn cluster_of(&self, item: u64) -> Option<u64> {
        self.assignment.get(&item).copied()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether no items are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Number of distinct clusters.
    pub fn cluster_count(&self) -> usize {
        let set: std::collections::HashSet<u64> = self.assignment.values().copied().collect();
        set.len()
    }

    /// Iterate `(item, cluster)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.assignment.iter().map(|(&i, &c)| (i, c))
    }
}

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Scores {
    /// Precision in `[0,1]`.
    pub precision: f64,
    /// Recall in `[0,1]`.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl Scores {
    /// Build from precision and recall.
    pub fn from_pr(precision: f64, recall: f64) -> Self {
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Scores { precision, recall, f1 }
    }
}

/// Raw pairwise counts, summable across evaluation slices (used to
/// micro-average identification quality across sources).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Pairs clustered together in both prediction and truth.
    pub true_positive: u64,
    /// Pairs clustered together in the prediction.
    pub predicted_positive: u64,
    /// Pairs clustered together in the truth.
    pub actual_positive: u64,
}

impl PairCounts {
    /// Merge counts from another slice.
    pub fn add(&mut self, other: PairCounts) {
        self.true_positive += other.true_positive;
        self.predicted_positive += other.predicted_positive;
        self.actual_positive += other.actual_positive;
    }

    /// Convert to precision/recall/F1. With no positive pairs anywhere,
    /// scores are 1.0 by convention (nothing to get wrong).
    pub fn scores(&self) -> Scores {
        if self.predicted_positive == 0 && self.actual_positive == 0 {
            return Scores {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0,
            };
        }
        let p = if self.predicted_positive > 0 {
            self.true_positive as f64 / self.predicted_positive as f64
        } else {
            // Nothing predicted together: vacuously precise.
            1.0
        };
        let r = if self.actual_positive > 0 {
            self.true_positive as f64 / self.actual_positive as f64
        } else {
            1.0
        };
        Scores::from_pr(p, r)
    }
}

fn choose2(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

/// Contingency statistics of two clusterings over their shared items.
struct Contingency {
    n: u64,
    cells: HashMap<(u64, u64), u64>,
    pred_sizes: HashMap<u64, u64>,
    true_sizes: HashMap<u64, u64>,
}

fn contingency(pred: &Clustering, truth: &Clustering) -> Contingency {
    let mut cells: HashMap<(u64, u64), u64> = HashMap::new();
    let mut pred_sizes: HashMap<u64, u64> = HashMap::new();
    let mut true_sizes: HashMap<u64, u64> = HashMap::new();
    let mut n = 0u64;
    for (item, p) in pred.iter() {
        let Some(t) = truth.cluster_of(item) else { continue };
        n += 1;
        *cells.entry((p, t)).or_insert(0) += 1;
        *pred_sizes.entry(p).or_insert(0) += 1;
        *true_sizes.entry(t).or_insert(0) += 1;
    }
    Contingency {
        n,
        cells,
        pred_sizes,
        true_sizes,
    }
}

/// Raw pairwise counts of `pred` against `truth` over shared items.
pub fn pairwise_counts(pred: &Clustering, truth: &Clustering) -> PairCounts {
    let c = contingency(pred, truth);
    PairCounts {
        true_positive: c.cells.values().map(|&x| choose2(x)).sum(),
        predicted_positive: c.pred_sizes.values().map(|&x| choose2(x)).sum(),
        actual_positive: c.true_sizes.values().map(|&x| choose2(x)).sum(),
    }
}

/// Pairwise precision/recall/F1 (the paper's F-measure).
pub fn pairwise(pred: &Clustering, truth: &Clustering) -> Scores {
    pairwise_counts(pred, truth).scores()
}

/// Normalized mutual information in `[0,1]` (geometric-mean
/// normalization; 1.0 when both clusterings are the same single
/// partition by convention).
pub fn nmi(pred: &Clustering, truth: &Clustering) -> f64 {
    let c = contingency(pred, truth);
    if c.n == 0 {
        return 1.0;
    }
    let n = c.n as f64;
    let mut mi = 0.0f64;
    for (&(p, t), &nij) in &c.cells {
        let nij = nij as f64;
        let a = c.pred_sizes[&p] as f64;
        let b = c.true_sizes[&t] as f64;
        if nij > 0.0 {
            mi += (nij / n) * ((n * nij) / (a * b)).ln();
        }
    }
    let h = |sizes: &HashMap<u64, u64>| -> f64 {
        sizes
            .values()
            .map(|&s| {
                let f = s as f64 / n;
                -f * f.ln()
            })
            .sum()
    };
    let (hp, ht) = (h(&c.pred_sizes), h(&c.true_sizes));
    if hp == 0.0 && ht == 0.0 {
        return 1.0; // both trivial single-cluster partitions
    }
    if hp == 0.0 || ht == 0.0 {
        return 0.0;
    }
    (mi / (hp * ht).sqrt()).clamp(0.0, 1.0)
}

/// Purity and inverse purity.
///
/// *Purity*: every predicted cluster votes for its majority true label;
/// purity is the fraction of items covered by those majorities. High
/// purity with many tiny clusters is easy, hence *inverse purity*
/// (computed with the roles of prediction and truth swapped) as the
/// complementary measure. Returned as `(purity, inverse_purity)`.
pub fn purity(pred: &Clustering, truth: &Clustering) -> (f64, f64) {
    fn one_direction(c: &Contingency) -> f64 {
        if c.n == 0 {
            return 1.0;
        }
        // For each predicted cluster, the size of its largest cell.
        let mut best: HashMap<u64, u64> = HashMap::new();
        for (&(p, _), &nij) in &c.cells {
            let e = best.entry(p).or_insert(0);
            if nij > *e {
                *e = nij;
            }
        }
        best.values().sum::<u64>() as f64 / c.n as f64
    }
    let forward = contingency(pred, truth);
    let backward = contingency(truth, pred);
    (one_direction(&forward), one_direction(&backward))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cl(pairs: &[(u64, u64)]) -> Clustering {
        Clustering::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn identical_clusterings_score_one() {
        let a = cl(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]);
        let s = pairwise(&a, &a);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
        assert_eq!(nmi(&a, &a), 1.0);
    }

    #[test]
    fn relabeling_does_not_matter() {
        let truth = cl(&[(0, 0), (1, 0), (2, 1), (3, 1)]);
        let pred = cl(&[(0, 77), (1, 77), (2, 5), (3, 5)]);
        assert_eq!(pairwise(&pred, &truth).f1, 1.0);
        assert_eq!(nmi(&pred, &truth), 1.0);
    }

    #[test]
    fn all_singletons_have_perfect_precision_zero_recall() {
        let truth = cl(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let pred = cl(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let s = pairwise(&pred, &truth);
        assert_eq!(s.precision, 1.0); // vacuous: no predicted pairs
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.f1, 0.0);
    }

    #[test]
    fn one_big_cluster_has_perfect_recall_low_precision() {
        let truth = cl(&[(0, 0), (1, 0), (2, 1), (3, 1)]);
        let pred = cl(&[(0, 9), (1, 9), (2, 9), (3, 9)]);
        let s = pairwise(&pred, &truth);
        assert_eq!(s.recall, 1.0);
        assert!((s.precision - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn known_pairwise_value() {
        // truth: {0,1,2} {3,4}; pred: {0,1} {2,3} {4}
        let truth = cl(&[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)]);
        let pred = cl(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]);
        let s = pairwise(&pred, &truth);
        // TP = 1 ({0,1}); PP = 2; AP = 4.
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 0.25).abs() < 1e-12);
    }

    #[test]
    fn metrics_use_intersection_of_items() {
        let truth = cl(&[(0, 0), (1, 0)]);
        let pred = cl(&[(0, 0), (1, 0), (99, 5)]); // 99 missing from truth
        assert_eq!(pairwise(&pred, &truth).f1, 1.0);
    }

    #[test]
    fn empty_intersection_is_perfect_by_convention() {
        let truth = cl(&[(0, 0)]);
        let pred = cl(&[(1, 0)]);
        assert_eq!(pairwise(&pred, &truth).f1, 1.0);
        assert_eq!(nmi(&pred, &truth), 1.0);
    }

    #[test]
    fn pair_counts_merge_across_slices() {
        let truth_a = cl(&[(0, 0), (1, 0)]);
        let pred_a = cl(&[(0, 0), (1, 0)]);
        let truth_b = cl(&[(2, 0), (3, 1)]);
        let pred_b = cl(&[(2, 0), (3, 0)]);
        let mut total = pairwise_counts(&pred_a, &truth_a);
        total.add(pairwise_counts(&pred_b, &truth_b));
        assert_eq!(total.true_positive, 1);
        assert_eq!(total.predicted_positive, 2);
        assert_eq!(total.actual_positive, 1);
        let s = total.scores();
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert_eq!(s.recall, 1.0);
    }

    #[test]
    fn purity_known_values() {
        // truth: {0,1} {2,3}; pred: {0,1,2} {3}
        let truth = cl(&[(0, 0), (1, 0), (2, 1), (3, 1)]);
        let pred = cl(&[(0, 9), (1, 9), (2, 9), (3, 8)]);
        let (p, ip) = purity(&pred, &truth);
        // Cluster 9's majority is label 0 (2 of 3); cluster 8 is pure.
        assert!((p - 3.0 / 4.0).abs() < 1e-12);
        // Inverse: label 0 fully inside cluster 9 (2), label 1 splits (1+1 → 1).
        assert!((ip - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn purity_is_one_on_identical_partitions() {
        let a = cl(&[(0, 0), (1, 0), (2, 1)]);
        assert_eq!(purity(&a, &a), (1.0, 1.0));
    }

    #[test]
    fn singletons_are_pure_but_not_inverse_pure() {
        let truth = cl(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let pred = cl(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let (p, ip) = purity(&pred, &truth);
        assert_eq!(p, 1.0);
        assert!((ip - 0.25).abs() < 1e-12);
    }

    #[test]
    fn clustering_api() {
        let mut c = Clustering::new();
        assert!(c.is_empty());
        c.assign(3, 1);
        c.assign(4, 1);
        c.assign(5, 2);
        assert_eq!(c.len(), 3);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.cluster_of(3), Some(1));
        assert_eq!(c.cluster_of(9), None);
    }
}
