//! Property-based tests for the baseline fair-ranking algorithms.

use fair_baselines::fa_ir::{mtable, mtable_failure_probability};
use fair_baselines::{
    det_const_sort, fa_ir, fair_top_k, weakly_fair_ranking, DetConstSortConfig, FaIrConfig,
    FairnessMode,
};
use fairness_metrics::{infeasible, pfair, FairnessBounds, GroupAssignment};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::quality::Discount;
use ranking_core::Permutation;

fn scores(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, n)
}

fn assignment(n: usize, g: usize) -> impl Strategy<Value = GroupAssignment> {
    prop::collection::vec(0..g, n)
        .prop_map(move |v| GroupAssignment::new(v, g).expect("groups in range"))
}

proptest! {
    #[test]
    fn mtable_is_monotone_and_feasible(k in 1usize..60, p in 0.05f64..0.95, alpha in 0.01f64..0.4) {
        let t = mtable(k, p, alpha);
        prop_assert_eq!(t.len(), k);
        prop_assert!(t.windows(2).all(|w| w[0] <= w[1]), "non-monotone m-table");
        prop_assert!(t.iter().enumerate().all(|(i, &m)| m <= i + 1), "m(i) > i");
        // adjacent prefixes can demand at most one more protected item
        prop_assert!(t.windows(2).all(|w| w[1] - w[0] <= 1));
    }

    #[test]
    fn mtable_failure_probability_is_probability(k in 1usize..30, p in 0.1f64..0.9, alpha in 0.01f64..0.4) {
        let t = mtable(k, p, alpha);
        let f = mtable_failure_probability(&t, p);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f), "failure prob {}", f);
    }

    #[test]
    fn fa_ir_output_satisfies_its_mtable(
        s in scores(12),
        groups in assignment(12, 2),
        p in 0.1f64..0.6,
    ) {
        let protected_count = groups.group_sizes()[1];
        prop_assume!(protected_count >= 6); // enough protected supply
        let cfg = FaIrConfig { min_proportion: p, significance: 0.1, adjust: false };
        let out = fa_ir(&s, &groups, 1, 12, &cfg).unwrap();
        let table = mtable(12, p, 0.1);
        let mut count = 0usize;
        for (idx, &item) in out.iter().enumerate() {
            if groups.group_of(item) == 1 {
                count += 1;
            }
            prop_assert!(count >= table[idx], "prefix {} violates m-table", idx + 1);
        }
        // output is a permutation of all items
        let mut sorted = out.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn weakly_fair_ranking_is_weakly_fair(
        s in scores(10),
        groups in assignment(10, 3),
    ) {
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = weakly_fair_ranking(&s, &groups, &bounds);
        prop_assert!(is_perm(&pi, 10));
        prop_assert!(
            pfair::is_weak_k_fair(&pi, &groups, &bounds, 10).unwrap(),
            "weakly-fair constructor violated weak fairness"
        );
    }

    #[test]
    fn det_const_sort_respects_lower_bounds(
        s in scores(12),
        groups in assignment(12, 2),
        seed in any::<u64>(),
    ) {
        let bounds = FairnessBounds::from_assignment(&groups);
        let mut rng = StdRng::seed_from_u64(seed);
        let pi = det_const_sort(&s, &groups, &bounds, &DetConstSortConfig::default(), &mut rng)
            .unwrap();
        prop_assert!(is_perm(&pi, 12));
        // DetConstSort enforces the minimum-count (lower) constraints.
        let breakdown = infeasible::infeasible_breakdown(&pi, &groups, &bounds).unwrap();
        prop_assert_eq!(breakdown.lower_violations, 0, "lower violations present");
    }

    #[test]
    fn fair_top_k_weak_is_weakly_fair_and_subset_of_items(
        s in scores(12),
        groups in assignment(12, 2),
        k in 1usize..=12,
    ) {
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.2);
        let Ok(head) = fair_top_k(&s, &groups, &bounds, k, FairnessMode::Weak, Discount::Log2)
        else {
            // infeasible bounds are legitimate for adversarial groups
            return Ok(());
        };
        prop_assert_eq!(head.len(), k);
        let mut sorted = head.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k, "duplicate items selected");
        // weak fairness at length k over the selected sub-population
        let sub = groups.subset(&head);
        for p in 0..groups.num_groups() {
            let have = sub.group_sizes()[p];
            prop_assert!(have >= bounds.min_count(p, k), "group {} below minimum", p);
            prop_assert!(have <= bounds.max_count(p, k), "group {} above maximum", p);
        }
    }

    #[test]
    fn fair_top_k_strong_dcg_no_better_than_weak(
        s in scores(10),
        groups in assignment(10, 2),
        k in 1usize..=10,
    ) {
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.2);
        let weak = fair_top_k(&s, &groups, &bounds, k, FairnessMode::Weak, Discount::Log2);
        let strong = fair_top_k(&s, &groups, &bounds, k, FairnessMode::Strong, Discount::Log2);
        if let (Ok(w), Ok(st)) = (weak, strong) {
            let dcg = |items: &[usize]| -> f64 {
                items
                    .iter()
                    .enumerate()
                    .map(|(i, &item)| s[item] * Discount::Log2.at(i + 1))
                    .sum()
            };
            // strong fairness is a stricter constraint set → optimum can
            // only be weakly worse.
            prop_assert!(dcg(&st) <= dcg(&w) + 1e-9);
        }
    }
}

fn is_perm(pi: &Permutation, n: usize) -> bool {
    let mut seen = vec![false; n];
    pi.as_order().iter().all(|&i| {
        if i < n && !seen[i] {
            seen[i] = true;
            true
        } else {
            false
        }
    })
}

/// On a pool where many group orders tie exactly, the exact DP solvers
/// must pick one parent per state by their tie rules alone (smaller
/// group id, then smallest final count vector), so repeated runs return
/// the same ranking.
#[test]
fn exact_dp_solvers_are_deterministic_on_tied_pools() {
    use fair_baselines::{optimal_fair_ranking_dp, optimal_fair_ranking_kt};
    use std::collections::BTreeSet;

    let n = 40;
    let scores = vec![0.5; n];
    let groups = GroupAssignment::new((0..n).map(|i| i % 3).collect(), 3).unwrap();
    let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.2);
    let tables = bounds.tables(n);
    // the input ranks whole groups one after another, so many fair
    // interleavings cost the same number of inversions
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (i % 3, i));
    let sigma = Permutation::from_order(order).unwrap();
    let mut dp = BTreeSet::new();
    let mut top_k = BTreeSet::new();
    let mut kt = BTreeSet::new();
    for _ in 0..20 {
        let out = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2).unwrap();
        dp.insert(out.as_order().to_vec());
        let out = fair_top_k(
            &scores,
            &groups,
            &bounds,
            20,
            FairnessMode::Strong,
            Discount::Log2,
        )
        .unwrap();
        top_k.insert(out);
        let out = optimal_fair_ranking_kt(&sigma, &groups, &tables).unwrap();
        kt.insert(out.as_order().to_vec());
    }
    assert_eq!(dp.len(), 1, "ilp DP returned {} rankings", dp.len());
    assert_eq!(
        top_k.len(),
        1,
        "top-k DP returned {} shortlists",
        top_k.len()
    );
    assert_eq!(kt.len(), 1, "exact-KT DP returned {} rankings", kt.len());
}

/// The weakly-fair constructor as it sorted its group queues before
/// the key sort: an indirect `partial_cmp` comparator with index
/// tie-break. Kept as the oracle the production key sort must match.
fn weakly_fair_comparator_oracle(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Vec<usize> {
    let n = scores.len();
    let g = groups.num_groups();
    let mut queues: Vec<Vec<usize>> = (0..g).map(|p| groups.members(p)).collect();
    for q in &mut queues {
        q.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        q.reverse();
    }
    let best_head = |queues: &[Vec<usize>], feasible: &dyn Fn(usize) -> bool| {
        let mut best: Option<(f64, usize)> = None;
        for (p, q) in queues.iter().enumerate() {
            let Some(&head) = q.last() else { continue };
            if feasible(p) && best.is_none_or(|(bs, _)| scores[head] > bs) {
                best = Some((scores[head], p));
            }
        }
        best.map(|(_, p)| p)
    };
    let mut counts = vec![0usize; g];
    let mut order = Vec::with_capacity(n);
    for k in 1..=n {
        let mut pick: Option<usize> = None;
        let mut worst_deficit = 0isize;
        for p in (0..g).filter(|&p| !queues[p].is_empty()) {
            let deficit = bounds.min_count(p, k) as isize - counts[p] as isize;
            if deficit > worst_deficit {
                worst_deficit = deficit;
                pick = Some(p);
            }
        }
        let pick = pick
            .or_else(|| best_head(&queues, &|p| counts[p] < bounds.max_count(p, k)))
            .or_else(|| best_head(&queues, &|_| true))
            .unwrap();
        order.push(queues[pick].pop().unwrap());
        counts[pick] += 1;
    }
    order
}

/// Scores from a small palette: many ties, both zeros, negatives.
const TIED_PALETTE: [f64; 8] = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300];

proptest! {
    #[test]
    fn weakly_fair_key_sort_matches_comparator_oracle(
        items in prop::collection::vec((0..TIED_PALETTE.len(), 0usize..4), 0..48),
        g in 1usize..=4,
        bounds_kind in 0usize..4,
    ) {
        let scores: Vec<f64> = items.iter().map(|&(s, _)| TIED_PALETTE[s]).collect();
        let groups = GroupAssignment::new(items.iter().map(|&(_, p)| p % g).collect(), g).unwrap();
        let bounds = match bounds_kind {
            0 => FairnessBounds::from_assignment_with_tolerance(&groups, 0.0),
            1 => FairnessBounds::from_assignment_with_tolerance(&groups, 0.1),
            2 => FairnessBounds::from_assignment_with_tolerance(&groups, 1.0),
            // every group demands 90 %: infeasible, the fallback fires
            _ => FairnessBounds::new(vec![0.9; g], vec![1.0; g]).unwrap(),
        };
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        prop_assert_eq!(
            pi.as_order(),
            weakly_fair_comparator_oracle(&scores, &groups, &bounds).as_slice()
        );
    }
}
