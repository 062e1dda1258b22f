//! Fair top-k selection: the shortlist problem.
//!
//! The paper's motivating HR scenario ranks hundreds of applicants to
//! shortlist the best `k`. This module solves the selection variant of
//! the ILP exactly: choose and order `k` of `n` items maximizing DCG@k
//! subject to P-fairness, under either
//!
//! * [`FairnessMode::Weak`] — Definition 2: only the full length-`k`
//!   prefix must satisfy the bounds, or
//! * [`FairnessMode::Strong`] — Definition 1 with threshold 1: every
//!   prefix of the shortlist satisfies the bounds.
//!
//! Both run the crate's one prefix-count DP (`prefix_dp`, shared with
//! `ilp_ranking`) for `k` layers. Strong mode passes the bound row of
//! every prefix; weak mode passes the vacuous row `[0, ℓ]` for every
//! prefix but the last, so its state space grows like `k^{g−1}` per
//! layer and is refused with [`StateSpaceTooLarge`] once it passes the
//! solver's budget of 2²⁷ states.
//!
//! [`StateSpaceTooLarge`]: crate::BaselineError::StateSpaceTooLarge

use crate::{ensure_shape, Result};
use fairness_metrics::{FairnessBounds, GroupAssignment};
use ranking_core::quality::Discount;

/// Which prefixes of the shortlist must satisfy the bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FairnessMode {
    /// Only the length-`k` prefix (Definition 2, weak k-fairness).
    Weak,
    /// Every prefix `1..=k` (Definition 1 restricted to the shortlist).
    Strong,
}

/// Exact DCG-optimal fair shortlist of `k` items (see module docs).
///
/// Returns the selected items in ranked order (a length-`k` sequence of
/// original item indices). Errors with [`Infeasible`] when no shortlist
/// satisfies the bounds and [`StateSpaceTooLarge`] when the DP would
/// exceed its state budget.
///
/// [`Infeasible`]: crate::BaselineError::Infeasible
/// [`StateSpaceTooLarge`]: crate::BaselineError::StateSpaceTooLarge
pub fn fair_top_k(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
    k: usize,
    mode: FairnessMode,
    discount: Discount,
) -> Result<Vec<usize>> {
    ensure_shape(scores.len() == groups.len(), "scores vs groups")?;
    ensure_shape(
        bounds.num_groups() == groups.num_groups(),
        "bounds vs groups",
    )?;
    ensure_shape(k <= scores.len(), "k exceeds item count")?;
    // weak mode bounds only the full shortlist: every shorter prefix
    // gets the vacuous row [0, ℓ]
    let mut tables = bounds.tables(k);
    if mode == FairnessMode::Weak {
        for l in 1..k {
            tables.min[l - 1].fill(0);
            tables.max[l - 1].fill(l);
        }
    }
    crate::ilp_ranking::max_dcg(scores, groups, &tables, discount)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineError;
    use ranking_core::Permutation;

    fn setup() -> (Vec<f64>, GroupAssignment, FairnessBounds) {
        // group 0 (items 0..5) dominates the scores
        let scores = vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5];
        let groups = GroupAssignment::binary_split(10, 5);
        let bounds = FairnessBounds::from_assignment(&groups);
        (scores, groups, bounds)
    }

    #[test]
    fn weak_selection_balances_the_shortlist() {
        let (scores, groups, bounds) = setup();
        let top = fair_top_k(
            &scores,
            &groups,
            &bounds,
            4,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .unwrap();
        assert_eq!(top.len(), 4);
        let g1 = top.iter().filter(|&&i| groups.group_of(i) == 1).count();
        assert_eq!(
            g1, 2,
            "weak 4-fairness with 50/50 bounds needs 2 from each group"
        );
    }

    #[test]
    fn weak_mode_orders_by_score_within_the_shortlist_constraint() {
        let (scores, groups, bounds) = setup();
        // DCG maximal: best items of each group first
        let top = fair_top_k(
            &scores,
            &groups,
            &bounds,
            4,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .unwrap();
        // scores of selected: 9, 8 (group 0 best) and 4, 3 (group 1 best);
        // DCG-optimal order is descending score
        assert_eq!(top, vec![0, 1, 5, 6]);
    }

    #[test]
    fn strong_mode_interleaves() {
        let (scores, groups, bounds) = setup();
        let top = fair_top_k(
            &scores,
            &groups,
            &bounds,
            6,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        let ranking = Permutation::from_order_unchecked(
            top.iter()
                .copied()
                .chain((0..10).filter(|i| !top.contains(i)))
                .collect(),
        );
        // every prefix of the shortlist satisfies the bounds
        let counts = groups.prefix_counts(ranking.as_order());
        for prefix in 1..=6 {
            for p in 0..2 {
                let c = counts[prefix - 1][p];
                assert!(c >= bounds.min_count(p, prefix));
                assert!(c <= bounds.max_count(p, prefix));
            }
        }
    }

    #[test]
    fn strong_is_at_most_as_good_as_weak() {
        let (scores, groups, bounds) = setup();
        let dcg = |items: &[usize]| -> f64 {
            items
                .iter()
                .enumerate()
                .map(|(idx, &i)| scores[i] * Discount::Log2.at(idx + 1))
                .sum()
        };
        let weak = fair_top_k(
            &scores,
            &groups,
            &bounds,
            6,
            FairnessMode::Weak,
            Discount::Log2,
        )
        .unwrap();
        let strong = fair_top_k(
            &scores,
            &groups,
            &bounds,
            6,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        assert!(dcg(&weak) + 1e-9 >= dcg(&strong));
    }

    #[test]
    fn infeasible_when_group_too_small() {
        let scores = vec![1.0, 2.0, 3.0, 4.0];
        let groups = GroupAssignment::new(vec![0, 1, 1, 1], 2).unwrap();
        // demand half of the shortlist from group 0 (one member) at k = 4
        let bounds = FairnessBounds::new(vec![0.5, 0.0], vec![1.0, 1.0]).unwrap();
        assert_eq!(
            fair_top_k(
                &scores,
                &groups,
                &bounds,
                4,
                FairnessMode::Weak,
                Discount::Log2
            ),
            Err(BaselineError::Infeasible)
        );
    }

    #[test]
    fn k_zero_and_k_equals_n() {
        let (scores, groups, bounds) = setup();
        assert!(fair_top_k(
            &scores,
            &groups,
            &bounds,
            0,
            FairnessMode::Weak,
            Discount::Log2
        )
        .unwrap()
        .is_empty());
        let full = fair_top_k(
            &scores,
            &groups,
            &bounds,
            10,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn oversized_k_rejected() {
        let (scores, groups, bounds) = setup();
        assert!(matches!(
            fair_top_k(
                &scores,
                &groups,
                &bounds,
                11,
                FairnessMode::Weak,
                Discount::Log2
            ),
            Err(BaselineError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn weak_selection_over_the_state_budget_is_refused() {
        // weak mode leaves every shorter prefix unbounded, so three
        // groups at k = n = 2000 need ~10⁹ states
        let n = 2000;
        let scores: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let groups = GroupAssignment::new((0..n).map(|i| i % 3).collect(), 3).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let out = fair_top_k(
            &scores,
            &groups,
            &bounds,
            n,
            FairnessMode::Weak,
            Discount::Log2,
        );
        match out {
            Err(BaselineError::StateSpaceTooLarge { states, limit }) => {
                assert_eq!(limit, 1 << 27);
                assert!(states > limit);
            }
            other => panic!("expected StateSpaceTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn strong_full_length_matches_full_dp() {
        // strong top-n selection solves the same problem as the full DP
        let (scores, groups, bounds) = setup();
        let tables = bounds.tables(10);
        let full_dp =
            crate::ilp_ranking::optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2)
                .unwrap();
        let topn = fair_top_k(
            &scores,
            &groups,
            &bounds,
            10,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        let dcg = |order: &[usize]| -> f64 {
            order
                .iter()
                .enumerate()
                .map(|(idx, &i)| scores[i] * Discount::Log2.at(idx + 1))
                .sum()
        };
        assert!((dcg(full_dp.as_order()) - dcg(&topn)).abs() < 1e-9);
    }
}
