//! Construction of the weakly-P-fair initial ranking.
//!
//! The paper feeds every post-processing algorithm "a weakly-p-fair
//! ranking of candidates ordered by their descending score" (Sections
//! IV-A and V-C2). This greedy constructor fills positions top-down:
//!
//! 1. if some group is about to fall below its lower bound at the next
//!    prefix, the highest-scored remaining member of a deficient group is
//!    placed (most-deficient group first);
//! 2. otherwise the highest-scored remaining item whose group stays
//!    within its upper bound is placed;
//! 3. if nothing is feasible (possible under adversarial bounds), the
//!    globally highest-scored remaining item is placed — the violation is
//!    tolerated exactly like the reference implementation does.

use fairness_metrics::{FairnessBounds, GroupAssignment};
use ranking_core::Permutation;

/// Greedy weakly-fair ranking by descending score (see module docs).
///
/// Always returns a complete ranking; callers needing a fairness
/// certificate should check it with `fairness_metrics::pfair`.
///
/// # Panics
/// Panics when `scores.len() != groups.len()` or the bounds cover a
/// different number of groups — these are programming errors, not data
/// conditions.
pub fn weakly_fair_ranking(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
) -> Permutation {
    assert_eq!(scores.len(), groups.len(), "scores and groups must align");
    assert_eq!(
        bounds.num_groups(),
        groups.num_groups(),
        "bounds must cover all groups"
    );
    let n = scores.len();
    let g = groups.num_groups();

    // Per-group queues of items by descending score, ties by ascending
    // index: plain integer sorts of (key, item) pairs.
    let mut queues: Vec<Vec<(u64, usize)>> = groups
        .group_sizes()
        .into_iter()
        .map(Vec::with_capacity)
        .collect();
    for (item, &p) in groups.as_slice().iter().enumerate() {
        queues[p].push((descending_key(scores[item]), item));
    }
    for q in &mut queues {
        q.sort_unstable();
        q.reverse(); // pop() yields the best
    }

    let mut counts = vec![0usize; g];
    let mut order = Vec::with_capacity(n);

    for k in 1..=n {
        // 1. lower-bound pressure
        let mut pick: Option<usize> = None;
        let mut worst_deficit = 0isize;
        for p in 0..g {
            if queues[p].is_empty() {
                continue;
            }
            let deficit = bounds.min_count(p, k) as isize - counts[p] as isize;
            if deficit > worst_deficit {
                worst_deficit = deficit;
                pick = Some(p);
            }
        }
        // 2. best-scored feasible item, else 3. fallback: ignore bounds
        let p = pick
            .or_else(|| best_head(&queues, |p| counts[p] < bounds.max_count(p, k)))
            .or_else(|| best_head(&queues, |_| true))
            .expect("some queue is non-empty while k <= n");
        let (_, item) = queues[p].pop().expect("picked group has a head");
        counts[p] += 1;
        order.push(item);
    }
    Permutation::from_order_unchecked(order)
}

/// The group among those `eligible` admits whose queue head scores
/// highest; on a tie, the smallest group id.
fn best_head(queues: &[Vec<(u64, usize)>], eligible: impl Fn(usize) -> bool) -> Option<usize> {
    queues
        .iter()
        .enumerate()
        .filter_map(|(p, q)| Some((q.last()?.0, p)).filter(|_| eligible(p)))
        .min()
        .map(|(_, p)| p)
}

/// Sort key that orders scores descending: the IEEE-754 total order
/// with −0.0 folded into +0.0 (the two compare equal as scores),
/// inverted. Equal scores get equal keys, so the item index breaks ties.
fn descending_key(score: f64) -> u64 {
    let bits = (score + 0.0).to_bits();
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairness_metrics::{infeasible, pfair};

    #[test]
    fn balanced_two_groups_alternate() {
        // group 0 items have higher scores; fairness forces alternation
        let scores = [10.0, 9.0, 8.0, 2.0, 1.5, 1.0];
        let groups = GroupAssignment::binary_split(6, 3);
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert!(pfair::is_k_fair(&pi, &groups, &bounds, 1).unwrap());
        // within each group, order follows score
        let pos = pi.positions();
        assert!(pos[0] < pos[1] && pos[1] < pos[2]);
        assert!(pos[3] < pos[4] && pos[4] < pos[5]);
    }

    #[test]
    fn unconstrained_bounds_give_pure_score_order() {
        let scores = [0.2, 0.9, 0.5, 0.7];
        let groups = GroupAssignment::alternating(4);
        let bounds = FairnessBounds::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(
            pi.as_order(),
            Permutation::sorted_by_scores_desc(&scores).as_order()
        );
    }

    #[test]
    fn infeasible_bounds_still_return_complete_ranking() {
        // demand 90 % of both groups: impossible, fallback must fire
        let scores = [1.0, 2.0, 3.0, 4.0];
        let groups = GroupAssignment::binary_split(4, 2);
        let bounds = FairnessBounds::new(vec![0.9, 0.9], vec![1.0, 1.0]).unwrap();
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(pi.len(), 4);
    }

    #[test]
    fn output_is_zero_infeasible_for_proportional_bounds() {
        // proportional bounds on mixed sizes must be satisfiable greedily
        let scores: Vec<f64> = (0..12).map(|i| (i * 7 % 13) as f64).collect();
        let groups = GroupAssignment::new(vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2], 3).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(
            infeasible::two_sided_infeasible_index(&pi, &groups, &bounds).unwrap(),
            0
        );
    }

    #[test]
    fn single_group_degenerates_to_score_order() {
        let scores = [0.4, 0.8, 0.1];
        let groups = GroupAssignment::new(vec![0, 0, 0], 1).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let pi = weakly_fair_ranking(&scores, &groups, &bounds);
        assert_eq!(pi.as_order(), &[1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let groups = GroupAssignment::alternating(3);
        let bounds = FairnessBounds::from_assignment(&groups);
        weakly_fair_ranking(&[1.0, 2.0], &groups, &bounds);
    }
}
