//! The one exact solver behind [`optimal_fair_ranking_dp`],
//! [`fair_top_k`] and [`optimal_fair_ranking_kt`]: a dynamic program
//! over per-group prefix counts.
//!
//! Each caller fixes the order in which a group's members are placed
//! (descending score for DCG, input order for Kendall tau), so a
//! ranking prefix is determined by its group pattern and the DP state
//! after `ℓ` positions is the count vector `(c_0, …, c_{g−1})` with
//! `Σ c_p = ℓ`. Group `p`'s count is bounded by its bound row for `ℓ`,
//! by `|G_p|` and by `ℓ`; the last count is implied by the others, so
//! the states of layer `ℓ` have a dense mixed-radix index over the
//! first `g − 1` counts (group 0 most significant, so index order is
//! lexicographic over count vectors). The whole state space is
//! therefore known in `O(n·g)` before anything is allocated: one `u8`
//! back-pointer per state, plus two rolling rows of values.
//!
//! Ties are broken without looking at any container order: within a
//! layer an exact tie goes to the smaller group id, and the final state
//! is the first best one in index order.
//!
//! [`optimal_fair_ranking_dp`]: crate::optimal_fair_ranking_dp
//! [`fair_top_k`]: crate::fair_top_k
//! [`optimal_fair_ranking_kt`]: crate::optimal_fair_ranking_kt

use crate::{BaselineError, Result};
use fairness_metrics::bounds::BoundTables;
use std::ops::Add;

/// Most states the solver allocates for (one back-pointer byte each, so
/// 128 MiB); a larger instance is refused with
/// [`BaselineError::StateSpaceTooLarge`].
pub(crate) const MAX_DP_STATES: usize = 1 << 27;

/// Back-pointer of a state no fair prefix reaches.
const UNREACHABLE: u8 = u8::MAX;

/// The box of count vectors at one prefix length: group `p`'s count
/// lies in `lo[p]..=hi[p]`, and the first `g − 1` counts index the
/// layer with `stride`.
struct Layer {
    lo: Vec<usize>,
    hi: Vec<usize>,
    stride: Vec<usize>,
    /// Number of indexed states (0 when some group's range is empty).
    len: usize,
}

impl Layer {
    fn at(tables: &BoundTables, members: &[Vec<usize>], l: usize) -> Layer {
        let g = members.len();
        let (lo, hi): (Vec<usize>, Vec<usize>) = (0..g)
            .map(|p| match l {
                0 => (0, 0),
                _ => (
                    tables.min[l - 1][p],
                    tables.max[l - 1][p].min(members[p].len()).min(l),
                ),
            })
            .unzip();
        let mut stride = vec![0; g];
        let mut len = usize::from(lo[g - 1] <= hi[g - 1]);
        for p in (0..g - 1).rev() {
            stride[p] = len;
            len = len.saturating_mul((hi[p] + 1).saturating_sub(lo[p]));
        }
        Layer {
            lo,
            hi,
            stride,
            len,
        }
    }

    /// Index of the state whose first `g − 1` counts are those of
    /// `counts`, if they lie in the box.
    fn index(&self, counts: &[usize]) -> Option<usize> {
        let mut idx = 0;
        for p in 0..counts.len() - 1 {
            if counts[p] < self.lo[p] || counts[p] > self.hi[p] {
                return None;
            }
            idx += (counts[p] - self.lo[p]) * self.stride[p];
        }
        Some(idx)
    }

    /// Write the counts of state `idx` at prefix length `l` into
    /// `counts`; false when the implied last count is out of its range.
    fn decode(&self, mut idx: usize, l: usize, counts: &mut [usize]) -> bool {
        let last = counts.len() - 1;
        for p in 0..last {
            counts[p] = self.lo[p] + idx / self.stride[p];
            idx %= self.stride[p];
        }
        // a head summing past `l` wraps far above `hi[last]`
        counts[last] = l.wrapping_sub(counts[..last].iter().sum());
        (self.lo[last]..=self.hi[last]).contains(&counts[last])
    }
}

/// Best group pattern of length `tables.len()`, returned as items:
/// the `t`-th pick from group `p` is `members[p][t]`.
///
/// `step(ℓ, counts, p)` is the value of placing group `p`'s next member
/// at 0-based position `ℓ` after `counts`; the solver maximises the sum.
/// Errors with [`BaselineError::Infeasible`] when no pattern meets the
/// bounds and [`BaselineError::StateSpaceTooLarge`] above
/// [`MAX_DP_STATES`] states or 255 groups (the back-pointer range).
pub(crate) fn solve<V>(
    members: &[Vec<usize>],
    tables: &BoundTables,
    mut step: impl FnMut(usize, &[usize], usize) -> V,
) -> Result<Vec<usize>>
where
    V: Copy + Default + PartialOrd + Add<Output = V>,
{
    let (g, n) = (members.len(), tables.len());
    if n == 0 {
        return Ok(Vec::new());
    }
    let layer = |l| Layer::at(tables, members, l);
    let states = match g {
        256.. => usize::MAX,
        _ => (0..=n).fold(0usize, |sum, l| sum.saturating_add(layer(l).len)),
    };
    if states > MAX_DP_STATES {
        return Err(BaselineError::StateSpaceTooLarge {
            states,
            limit: MAX_DP_STATES,
        });
    }

    // back[off + idx]: the group placed last on the best path to state
    // `idx` of the layer stored at `off`
    let mut back = vec![UNREACHABLE; states];
    back[0] = 0; // the empty prefix
    let (mut prev, mut prev_value, mut off) = (layer(0), vec![V::default()], 0);
    let mut counts = vec![0usize; g];
    for l in 1..=n {
        let cur = layer(l);
        let mut value = vec![V::default(); cur.len];
        let base = off + prev.len;
        for idx in 0..cur.len {
            if !cur.decode(idx, l, &mut counts) {
                continue;
            }
            // ascending p with a strict `>` keeps the smaller group on a tie
            let mut best: Option<(V, usize)> = None;
            for p in 0..g {
                if counts[p] == 0 {
                    continue;
                }
                counts[p] -= 1;
                if let Some(j) = prev
                    .index(&counts)
                    .filter(|&j| back[off + j] != UNREACHABLE)
                {
                    let v = prev_value[j] + step(l - 1, &counts, p);
                    if best.is_none_or(|(b, _)| v > b) {
                        best = Some((v, p));
                    }
                }
                counts[p] += 1;
            }
            if let Some((v, p)) = best {
                (value[idx], back[base + idx]) = (v, p as u8);
            }
        }
        if back[base..base + cur.len].iter().all(|&b| b == UNREACHABLE) {
            return Err(BaselineError::Infeasible);
        }
        (prev, prev_value, off) = (cur, value, base);
    }

    // Walk back from the first best final state in index order.
    let mut idx = usize::MAX;
    for i in (0..prev.len).filter(|&i| back[off + i] != UNREACHABLE) {
        if idx == usize::MAX || prev_value[i] > prev_value[idx] {
            idx = i;
        }
    }
    prev.decode(idx, n, &mut counts);
    let mut order = vec![0usize; n];
    for l in (1..=n).rev() {
        let p = usize::from(back[off + idx]);
        counts[p] -= 1;
        order[l - 1] = members[p][counts[p]];
        if l > 1 {
            let below = layer(l - 1);
            off -= below.len;
            idx = below
                .index(&counts)
                .expect("a reached state lies in its layer's box");
        }
    }
    Ok(order)
}
