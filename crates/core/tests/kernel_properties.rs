//! Property tests pinning the compiled criterion kernels to the
//! unabridged scalar reference path: for every criterion shape, seed,
//! batch split and thread count, the fast path (precompiled tables,
//! early abandon, and from n = 1024 the two-thread pipeline) must pick
//! the byte-identical winner and report the byte-identical objective.

use fair_mallows::{Criterion, FairMallowsError, MallowsFairRanker};
use fairness_metrics::{FairnessBounds, GroupAssignment};
use mallows_model::SamplerTables;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use ranking_core::Permutation;
use std::sync::Arc;

const N: usize = 12;

/// Smallest ranking length `rank_with_tables` pipelines over two threads.
const PIPELINE_N: usize = 1 << 10;

/// `rank_batched` seeds its batch `b` with
/// `base + (b + 1) · BATCH_STRIDE`, so a one-batch run on `s` replays
/// the serial loop on `StdRng::seed_from_u64(s + BATCH_STRIDE)`.
const BATCH_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

fn scores(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..10.0, n)
}

fn assignment(n: usize) -> impl Strategy<Value = GroupAssignment> {
    prop::collection::vec(0..4usize, n)
        .prop_map(|v| GroupAssignment::new(v, 4).expect("groups in range"))
}

/// Random criterion over `n` items: one of the selection criteria picked
/// by `shapes` (0 first-sample, 1 NDCG, 2 Kendall, 3 infeasible index,
/// 4 weighted mix with non-negative weights, so the abandon machinery
/// is active).
fn criterion_over(n: usize, shapes: std::ops::Range<usize>) -> impl Strategy<Value = Criterion> {
    ((scores(n), assignment(n)), shapes, 0.0f64..2.0, 0.0f64..2.0).prop_map(
        |((s, groups), shape, w1, w2)| {
            let bounds = FairnessBounds::from_assignment(&groups);
            match shape {
                0 => Criterion::FirstSample,
                1 => Criterion::MaxNdcg(s),
                2 => Criterion::MinKendallTau,
                3 => Criterion::MinInfeasibleIndex { groups, bounds },
                _ => Criterion::Weighted(vec![
                    (w1, Criterion::MaxNdcg(s)),
                    (w2, Criterion::MinInfeasibleIndex { groups, bounds }),
                    (0.25, Criterion::MinKendallTau),
                ]),
            }
        },
    )
}

/// Random criterion over `N` items, any shape.
fn criterion() -> impl Strategy<Value = Criterion> {
    criterion_over(N, 0..5)
}

/// A criterion the pipeline runs (NDCG, infeasible index or weighted)
/// over a pool of `PIPELINE_N` to `PIPELINE_N + 64` items.
fn pipelined_criterion() -> impl Strategy<Value = (usize, Criterion)> {
    // the shim has no flat_map: draw the largest pool, then cut it down
    (criterion_over(PIPELINE_N + 64, 1..5), 0usize..65).prop_map(|(criterion, cut)| {
        let n = PIPELINE_N + cut;
        (n, truncate(criterion, n))
    })
}

/// `criterion` restricted to its first `n` items.
fn truncate(criterion: Criterion, n: usize) -> Criterion {
    match criterion {
        Criterion::MaxNdcg(s) => Criterion::MaxNdcg(s[..n].to_vec()),
        Criterion::MinInfeasibleIndex { groups, .. } => {
            let groups =
                GroupAssignment::new(groups.as_slice()[..n].to_vec(), 4).expect("groups in range");
            let bounds = FairnessBounds::from_assignment(&groups);
            Criterion::MinInfeasibleIndex { groups, bounds }
        }
        Criterion::Weighted(parts) => Criterion::Weighted(
            parts
                .into_iter()
                .map(|(w, c)| (w, truncate(c, n)))
                .collect(),
        ),
        other => other,
    }
}

proptest! {
    #[test]
    fn streaming_path_matches_scalar_reference_byte_for_byte(
        criterion in criterion(),
        samples in 1usize..40,
        theta in 0.05f64..2.0,
        seed in any::<u64>(),
    ) {
        let ranker = MallowsFairRanker::new(theta, samples, criterion).unwrap();
        let center = Permutation::identity(N);
        let tables = Arc::new(SamplerTables::new(N, theta).unwrap());
        let fast = ranker
            .rank_with_tables(&center, &tables, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let reference = ranker
            .rank_with_tables_reference(&center, &tables, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(fast.ranking, reference.ranking);
        prop_assert_eq!(
            fast.criterion_value.to_bits(),
            reference.criterion_value.to_bits()
        );
        prop_assert_eq!(fast.samples_drawn, reference.samples_drawn);
    }

    #[test]
    fn batched_path_matches_per_batch_scalar_reference(
        criterion in criterion(),
        samples in 1usize..48,
        batches in 1usize..6,
        threads in 1usize..5,
        theta in 0.05f64..2.0,
        base_seed in any::<u64>(),
    ) {
        let ranker = MallowsFairRanker::new(theta, samples, criterion.clone()).unwrap();
        let center = Permutation::identity(N);
        let tables = Arc::new(SamplerTables::new(N, theta).unwrap());
        let fast = ranker
            .rank_batched(&center, &tables, base_seed, batches, threads)
            .unwrap();

        // replicate rank_batched's deterministic batch split with the
        // unabridged scalar path: same per-batch seeds, same per-batch
        // sample counts, same batch-order strict-< reduction
        let m = match criterion {
            Criterion::FirstSample => 1,
            _ => samples,
        };
        let batches = batches.clamp(1, m);
        let mut best: Option<(f64, Permutation)> = None;
        for b in 0..batches {
            let seed =
                base_seed.wrapping_add((b as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let batch_m = m / batches + usize::from(b < m % batches);
            let batch_ranker =
                MallowsFairRanker::new(theta, batch_m, criterion.clone()).unwrap();
            let out = batch_ranker
                .rank_with_tables_reference(&center, &tables, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            // recover the raw lower-is-better objective exactly as the
            // reduction sees it
            let obj = criterion
                .objective_value(&out.ranking, &center)
                .unwrap();
            if best.as_ref().is_none_or(|(cur, _)| obj < *cur) {
                best = Some((obj, out.ranking));
            }
        }
        let (_, expected) = best.expect("at least one batch");
        prop_assert_eq!(fast.ranking, expected);
    }

    #[test]
    fn batched_winner_is_thread_count_independent(
        criterion in criterion(),
        samples in 1usize..64,
        batches in 1usize..8,
        theta in 0.05f64..2.0,
        base_seed in any::<u64>(),
    ) {
        let ranker = MallowsFairRanker::new(theta, samples, criterion).unwrap();
        let center = Permutation::identity(N);
        let tables = Arc::new(SamplerTables::new(N, theta).unwrap());
        let single = ranker
            .rank_batched(&center, &tables, base_seed, batches, 1)
            .unwrap();
        for threads in [2usize, 3, 4] {
            let multi = ranker
                .rank_batched(&center, &tables, base_seed, batches, threads)
                .unwrap();
            prop_assert_eq!(&multi.ranking, &single.ranking);
            prop_assert_eq!(
                multi.criterion_value.to_bits(),
                single.criterion_value.to_bits()
            );
            prop_assert_eq!(multi.samples_abandoned, single.samples_abandoned);
        }
    }
}

proptest! {
    #[test]
    fn pipelined_path_matches_reference_and_serial_loop(
        (n, criterion) in pipelined_criterion(),
        samples in 2usize..20,
        theta in 0.05f64..2.0,
        seed in any::<u64>(),
    ) {
        let ranker = MallowsFairRanker::new(theta, samples, criterion).unwrap();
        let center = Permutation::identity(n);
        let tables = Arc::new(SamplerTables::new(n, theta).unwrap());
        let stream = seed.wrapping_add(BATCH_STRIDE);
        let mut fast_rng = StdRng::seed_from_u64(stream);
        let mut ref_rng = StdRng::seed_from_u64(stream);
        let fast = ranker.rank_with_tables(&center, &tables, &mut fast_rng).unwrap();
        let reference = ranker
            .rank_with_tables_reference(&center, &tables, &mut ref_rng)
            .unwrap();
        prop_assert_eq!(&fast.ranking, &reference.ranking);
        prop_assert_eq!(
            fast.criterion_value.to_bits(),
            reference.criterion_value.to_bits()
        );
        prop_assert_eq!(fast.samples_drawn, reference.samples_drawn);
        // the caller's RNG ends where the serial draw leaves it
        prop_assert_eq!(fast_rng.next_u64(), ref_rng.next_u64());

        // the serial streaming loop, abandon count included
        let serial = ranker.rank_batched(&center, &tables, seed, 1, 1).unwrap();
        prop_assert_eq!(&fast.ranking, &serial.ranking);
        prop_assert_eq!(
            fast.criterion_value.to_bits(),
            serial.criterion_value.to_bits()
        );
        prop_assert_eq!(fast.samples_abandoned, serial.samples_abandoned);
    }
}

#[test]
fn pipelined_shape_mismatch_errors_without_drawing() {
    let n = PIPELINE_N * 2;
    let tables = Arc::new(SamplerTables::new(n, 0.6).unwrap());
    let center = Permutation::identity(n);
    let groups = GroupAssignment::binary_split(n - 1, n / 2);
    let bounds = FairnessBounds::from_assignment(&groups);
    let criteria = [
        Criterion::MaxNdcg(vec![1.0; n + 1]),
        Criterion::MinInfeasibleIndex { groups, bounds },
        Criterion::Weighted(vec![
            (1.0, Criterion::MaxNdcg(vec![1.0; n])),
            (1.0, Criterion::MaxNdcg(vec![1.0; 3])),
        ]),
    ];
    for criterion in criteria {
        let ranker = MallowsFairRanker::new(0.6, 15, criterion).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let err = ranker
            .rank_with_tables(&center, &tables, &mut rng)
            .unwrap_err();
        assert!(
            matches!(err, FairMallowsError::CriterionShape { .. }),
            "{err:?}"
        );
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(11).next_u64());
    }
}

#[test]
fn pipelined_theta_mismatch_errors_without_drawing() {
    let n = PIPELINE_N * 2;
    let center = Permutation::identity(n);
    let ranker = MallowsFairRanker::new(0.6, 15, Criterion::MaxNdcg(vec![1.0; n])).unwrap();
    let wrong_theta = Arc::new(SamplerTables::new(n, 0.9).unwrap());
    let mut rng = StdRng::seed_from_u64(12);
    assert!(matches!(
        ranker.rank_with_tables(&center, &wrong_theta, &mut rng),
        Err(FairMallowsError::Mallows(_))
    ));
    let too_small = Arc::new(SamplerTables::new(n - 1, 0.6).unwrap());
    assert!(ranker
        .rank_with_tables(&center, &too_small, &mut rng)
        .is_err());
    assert_eq!(rng.next_u64(), StdRng::seed_from_u64(12).next_u64());
}
