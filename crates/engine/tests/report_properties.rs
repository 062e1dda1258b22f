//! The shared selection report (`registry::score_metrics`) against the
//! composition of the library metrics it replaces, bit for bit.

use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
use fairrank_engine::registry::score_metrics;
use proptest::prelude::*;
use ranking_core::quality::{self, Discount};
use ranking_core::Permutation;

/// Scores from a small palette: many ties, both zeros, negatives.
const PALETTE: [f64; 8] = [0.0, -0.0, 0.9, -1.0, 0.25, -2.5, 3.0, 0.9];

/// The report as the separate library calls compute it: NDCG and the
/// fairness terms over the selection, DCG against the pool's top-`k`
/// ideal.
fn composed(
    order: &[usize],
    scores: &[f64],
    groups: &GroupAssignment,
    tolerance: f64,
) -> Vec<(String, f64)> {
    let k = order.len();
    let sub_scores: Vec<f64> = order.iter().map(|&i| scores[i]).collect();
    let sub_groups = groups.subset(order);
    let sub_bounds = FairnessBounds::from_assignment_with_tolerance(&sub_groups, tolerance);
    let pi = Permutation::identity(k);
    let ndcg = quality::ndcg(&pi, &sub_scores).unwrap();
    let ii = infeasible::two_sided_infeasible_index(&pi, &sub_groups, &sub_bounds).unwrap();
    let pf = infeasible::pfair_percentage(&pi, &sub_groups, &sub_bounds).unwrap();
    let pool_idcg = quality::idcg_at(scores, k, Discount::Log2);
    let dcg = quality::dcg(&pi, &sub_scores).unwrap();
    let mut metrics = vec![("ndcg_within_selection".to_string(), ndcg)];
    if pool_idcg > 0.0 {
        metrics.push(("ndcg_vs_pool".to_string(), dcg / pool_idcg));
    }
    metrics.push(("infeasible_index".to_string(), ii as f64));
    metrics.push(("pfair_percentage".to_string(), pf));
    metrics
}

fn bits(metrics: &[(String, f64)]) -> Vec<(&str, u64)> {
    metrics
        .iter()
        .map(|(name, value)| (name.as_str(), value.to_bits()))
        .collect()
}

proptest! {
    #[test]
    fn score_metrics_equal_the_composed_library_metrics_bit_for_bit(
        items in prop::collection::vec((0..PALETTE.len(), 0usize..3, any::<u64>()), 1..60),
        all_zero in 0usize..4,
        tolerance_ix in 0usize..3,
    ) {
        let n = items.len();
        let scores: Vec<f64> = items
            .iter()
            .map(|&(s, _, _)| if all_zero == 0 { PALETTE[s % 2] } else { PALETTE[s] })
            .collect();
        let groups = GroupAssignment::new(items.iter().map(|&(_, g, _)| g).collect(), 3).unwrap();
        let tolerance = [0.0, 0.1, 1.0][tolerance_ix];
        // a random full ranking, then its prefixes
        let mut ranking: Vec<usize> = (0..n).collect();
        ranking.sort_by_key(|&i| items[i].2);
        for k in [0, 1, n / 2, n] {
            let order = &ranking[..k];
            let report = score_metrics(order, &scores, &groups, tolerance).unwrap();
            let oracle = composed(order, &scores, &groups, tolerance);
            prop_assert_eq!(bits(&report), bits(&oracle), "k = {}, scores {:?}", k, scores);
        }
    }
}
