//! The exact solvers against the hash-map dynamic programs they
//! replaced. The oracles below keep one `HashMap<counts, (value,
//! group)>` per layer, exactly as the production solvers once did; the
//! dense prefix-count DP must return the same orders and the same
//! errors on every instance.

use fair_baselines::{
    fair_top_k, noisy_tables, optimal_fair_ranking_dp, optimal_fair_ranking_kt, BaselineError,
    FairnessMode, Result,
};
use fairness_metrics::bounds::BoundTables;
use fairness_metrics::{FairnessBounds, GroupAssignment};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ranking_core::quality::Discount;
use ranking_core::Permutation;
use std::collections::HashMap;

/// Per-layer best value and the group placed to reach each count vector.
type Layer<V> = HashMap<Vec<usize>, (V, usize)>;

/// Group members in descending score order, index tie-break.
fn by_score(scores: &[f64], groups: &GroupAssignment) -> Vec<Vec<usize>> {
    let mut members: Vec<Vec<usize>> = (0..groups.num_groups())
        .map(|p| groups.members(p))
        .collect();
    for m in &mut members {
        m.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }
    members
}

/// Walk the back-pointers from `state` at layer `layers.len()` and
/// materialise the items.
fn reconstruct<V>(
    layers: &[Layer<V>],
    mut state: Vec<usize>,
    members: &[Vec<usize>],
) -> Vec<usize> {
    let mut pattern = vec![0usize; layers.len()];
    for l in (0..layers.len()).rev() {
        let p = layers[l][&state].1;
        pattern[l] = p;
        state[p] -= 1;
    }
    let mut taken = vec![0usize; members.len()];
    pattern
        .into_iter()
        .map(|p| {
            taken[p] += 1;
            members[p][taken[p] - 1]
        })
        .collect()
}

/// The DCG layers of the former `optimal_fair_ranking_dp` and
/// `fair_top_k`: `admits(ℓ, counts)` says whether the prefix of length
/// `ℓ + 1` with `counts` meets the bounds.
fn dcg_layers(
    scores: &[f64],
    members: &[Vec<usize>],
    len: usize,
    discount: Discount,
    admits: impl Fn(usize, &[usize]) -> bool,
) -> Result<Vec<Layer<f64>>> {
    let g = members.len();
    let start: Layer<f64> = HashMap::from([(vec![0usize; g], (0.0, 0))]);
    let mut layers: Vec<Layer<f64>> = Vec::with_capacity(len);
    for l in 0..len {
        let frontier = layers.last().unwrap_or(&start);
        let mut next: Layer<f64> = HashMap::new();
        for (state, &(value, _)) in frontier {
            for p in 0..g {
                let cnt = state[p];
                if cnt >= members[p].len() {
                    continue;
                }
                let mut new_state = state.clone();
                new_state[p] += 1;
                if !admits(l, &new_state) {
                    continue;
                }
                let v = value + scores[members[p][cnt]] * discount.at(l + 1);
                let slot = next.entry(new_state).or_insert((v, p));
                if v > slot.0 || (v == slot.0 && p < slot.1) {
                    *slot = (v, p);
                }
            }
        }
        if next.is_empty() {
            return Err(BaselineError::Infeasible);
        }
        layers.push(next);
    }
    Ok(layers)
}

fn oracle_ilp(
    scores: &[f64],
    groups: &GroupAssignment,
    tables: &BoundTables,
    discount: Discount,
) -> Result<Permutation> {
    let n = scores.len();
    if n == 0 {
        return Ok(Permutation::identity(0));
    }
    let members = by_score(scores, groups);
    let layers = dcg_layers(scores, &members, n, discount, |l, c| {
        (0..c.len()).all(|q| c[q] >= tables.min[l][q] && c[q] <= tables.max[l][q])
    })?;
    let full = groups.group_sizes();
    Ok(Permutation::from_order_unchecked(reconstruct(
        &layers, full, &members,
    )))
}

fn oracle_top_k(
    scores: &[f64],
    groups: &GroupAssignment,
    bounds: &FairnessBounds,
    k: usize,
    mode: FairnessMode,
    discount: Discount,
) -> Result<Vec<usize>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let members = by_score(scores, groups);
    let layers = dcg_layers(scores, &members, k, discount, |l, c| {
        (mode == FairnessMode::Weak && l + 1 < k)
            || (0..c.len())
                .all(|q| c[q] >= bounds.min_count(q, l + 1) && c[q] <= bounds.max_count(q, l + 1))
    })?;
    // best final state; an exact tie keeps the smallest count vector
    let state = layers[k - 1]
        .iter()
        .max_by(|a, b| {
            (a.1 .0)
                .partial_cmp(&b.1 .0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.0.cmp(a.0))
        })
        .map(|(state, _)| state.clone())
        .expect("non-empty frontier");
    Ok(reconstruct(&layers, state, &members))
}

fn oracle_kt(
    sigma: &Permutation,
    groups: &GroupAssignment,
    tables: &BoundTables,
) -> Result<Permutation> {
    let n = sigma.len();
    let g = groups.num_groups();
    let positions = sigma.positions();
    let mut members: Vec<Vec<usize>> = (0..g).map(|p| groups.members(p)).collect();
    for m in &mut members {
        m.sort_by_key(|&item| positions[item]);
    }
    let mut before = vec![vec![0usize; g]; n];
    let mut running = vec![0usize; g];
    for &item in sigma.as_order() {
        before[item].clone_from(&running);
        running[groups.group_of(item)] += 1;
    }
    let start: Layer<u64> = HashMap::from([(vec![0usize; g], (0, 0))]);
    let mut layers: Vec<Layer<u64>> = Vec::with_capacity(n);
    for k in 1..=n {
        let layer = layers.last().unwrap_or(&start);
        let mut next: Layer<u64> = HashMap::new();
        for (counts, &(cost, _)) in layer {
            for p in 0..g {
                if counts[p] >= members[p].len() {
                    continue;
                }
                let item = members[p][counts[p]];
                let added: u64 = (0..g)
                    .map(|q| (counts[q] - counts[q].min(before[item][q])) as u64)
                    .sum();
                let mut c2 = counts.clone();
                c2[p] += 1;
                if (0..g).any(|q| c2[q] < tables.min[k - 1][q] || c2[q] > tables.max[k - 1][q]) {
                    continue;
                }
                let candidate = cost + added;
                let slot = next.entry(c2).or_insert((candidate, p));
                if candidate < slot.0 || (candidate == slot.0 && p < slot.1) {
                    *slot = (candidate, p);
                }
            }
        }
        if next.is_empty() {
            return Err(BaselineError::Infeasible);
        }
        layers.push(next);
    }
    let full = members.iter().map(Vec::len).collect();
    Ok(Permutation::from_order_unchecked(reconstruct(
        &layers, full, &members,
    )))
}

/// A random pool: `g` groups (some possibly empty) and scores that are
/// continuous, or drawn from {0, 0.5, 1} so that many patterns tie.
fn pool(rng: &mut StdRng, n: usize, g: usize, tied: bool) -> (Vec<f64>, GroupAssignment) {
    let scores = (0..n)
        .map(|_| {
            if tied {
                f64::from(rng.random_range(0u32..3)) / 2.0
            } else {
                rng.random_range(0.0..1.0)
            }
        })
        .collect();
    let ids = (0..n).map(|_| rng.random_range(0..g)).collect();
    (scores, GroupAssignment::new(ids, g).unwrap())
}

/// Tables with a random tolerance, relaxed by half-normal noise on
/// about half the cases.
fn tables(rng: &mut StdRng, groups: &GroupAssignment) -> (FairnessBounds, BoundTables) {
    let tolerance = [0.0, 0.05, 0.1, 0.2][rng.random_range(0usize..4)];
    let bounds = FairnessBounds::from_assignment_with_tolerance(groups, tolerance);
    let sigma = if rng.random_range(0..2) == 0 {
        0.0
    } else {
        rng.random_range(0.1..2.0)
    };
    let tables = noisy_tables(&bounds, groups.len(), sigma, rng);
    (bounds, tables)
}

proptest! {
    #[test]
    fn ilp_matches_the_hash_map_oracle(
        seed in any::<u64>(),
        n in 0usize..=14,
        g in 1usize..=4,
        tied in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (scores, groups) = pool(&mut rng, n, g, tied);
        let (_, tables) = tables(&mut rng, &groups);
        prop_assert_eq!(
            optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2),
            oracle_ilp(&scores, &groups, &tables, Discount::Log2),
            "n={} g={} tied={}", n, g, tied
        );
    }

    #[test]
    fn fair_top_k_matches_the_hash_map_oracle(
        seed in any::<u64>(),
        n in 0usize..=12,
        g in 1usize..=4,
        tied in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (scores, groups) = pool(&mut rng, n, g, tied);
        let (bounds, _) = tables(&mut rng, &groups);
        for k in 0..=n {
            for mode in [FairnessMode::Weak, FairnessMode::Strong] {
                prop_assert_eq!(
                    fair_top_k(&scores, &groups, &bounds, k, mode, Discount::Log2),
                    oracle_top_k(&scores, &groups, &bounds, k, mode, Discount::Log2),
                    "n={} g={} k={} {:?} tied={}", n, g, k, mode, tied
                );
            }
        }
    }

    #[test]
    fn exact_kt_matches_the_hash_map_oracle(
        seed in any::<u64>(),
        n in 0usize..=14,
        g in 1usize..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, groups) = pool(&mut rng, n, g, false);
        let (_, tables) = tables(&mut rng, &groups);
        let sigma = Permutation::random(n, &mut rng);
        prop_assert_eq!(
            optimal_fair_ranking_kt(&sigma, &groups, &tables),
            oracle_kt(&sigma, &groups, &tables),
            "n={} g={} σ={}", n, g, sigma
        );
    }
}

/// Whole groups in a row make every interleaving of equal scores tie, so
/// only the tie rules decide; cover that shape explicitly.
#[test]
fn oracles_agree_on_block_ordered_tied_pools() {
    let n = 24;
    for g in 1..=4 {
        let scores = vec![0.5; n];
        let groups = GroupAssignment::new((0..n).map(|i| i % g).collect(), g).unwrap();
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.2);
        let tables = bounds.tables(n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (i % g, i));
        let sigma = Permutation::from_order(order).unwrap();
        assert_eq!(
            optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2),
            oracle_ilp(&scores, &groups, &tables, Discount::Log2)
        );
        assert_eq!(
            optimal_fair_ranking_kt(&sigma, &groups, &tables),
            oracle_kt(&sigma, &groups, &tables)
        );
        for mode in [FairnessMode::Weak, FairnessMode::Strong] {
            assert_eq!(
                fair_top_k(&scores, &groups, &bounds, 12, mode, Discount::Log2),
                oracle_top_k(&scores, &groups, &bounds, 12, mode, Discount::Log2)
            );
        }
    }
}
