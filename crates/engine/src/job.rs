//! Job and result types flowing through the engine.
//!
//! A [`RankJob`] is a fully self-contained request: algorithm name,
//! input data and parameters (including the RNG seed, so re-running a
//! job is bit-reproducible). The FNV-1a hash of a job's binary
//! encoding ([`RankJob::digest`]) keys the result cache.

use crate::json::Json;
use std::fmt::Write as _;

/// Input payload of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobInput {
    /// A candidate pool: per-item utility scores and (optionally) a
    /// protected-group id per item. An empty `groups` means "single
    /// group" (fairness metrics degenerate gracefully).
    Scores {
        /// Utility score per item.
        scores: Vec<f64>,
        /// Group id per item (dense, 0-based), or empty.
        groups: Vec<usize>,
    },
    /// A vote profile: each vote is a full ranking (permutation of
    /// `0..n`), plus an optional group id per item.
    Votes {
        /// One permutation of `0..n` per voter.
        votes: Vec<Vec<usize>>,
        /// Group id per item (dense, 0-based), or empty.
        groups: Vec<usize>,
    },
}

impl JobInput {
    /// Number of items being ranked.
    pub fn len(&self) -> usize {
        match self {
            JobInput::Scores { scores, .. } => scores.len(),
            JobInput::Votes { votes, .. } => votes.first().map_or(0, Vec::len),
        }
    }

    /// True when there is nothing to rank.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The group assignment column (may be empty).
    pub fn groups(&self) -> &[usize] {
        match self {
            JobInput::Scores { groups, .. } | JobInput::Votes { groups, .. } => groups,
        }
    }
}

/// Tunable parameters of a job. Every field has the same default as
/// the `fairrank` CLI, so a job submitted over HTTP with no parameters
/// behaves exactly like the equivalent CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct JobParams {
    /// Mallows dispersion θ.
    pub theta: f64,
    /// Mallows best-of-`m` sample count.
    pub samples: usize,
    /// Fairness proportion tolerance.
    pub tolerance: f64,
    /// Constraint-noise standard deviation σ for the noise-robustness
    /// scenarios (`detconstsort`, `ipf` and `ilp` perturb their
    /// fairness constraints by N(0, σ²) when σ > 0).
    pub noise_sd: f64,
    /// Shortlist size (None = rank everything).
    pub k: Option<usize>,
    /// Deterministic RNG seed for this job.
    pub seed: u64,
    /// Aggregation stage name (pipeline jobs).
    pub method: String,
    /// Post-processing stage name (pipeline jobs).
    pub post: String,
    /// Protected group id (FA*IR).
    pub protected: usize,
    /// Minimum protected proportion (FA*IR; None = pool share).
    pub proportion: Option<f64>,
    /// Significance level α (FA*IR).
    pub alpha: f64,
}

impl Default for JobParams {
    fn default() -> Self {
        JobParams {
            theta: 1.0,
            samples: 15,
            tolerance: 0.1,
            noise_sd: 0.0,
            k: None,
            seed: 42,
            method: "kemeny".to_string(),
            post: "mallows".to_string(),
            protected: 0,
            proportion: None,
            alpha: 0.1,
        }
    }
}

/// One unit of work: run `algorithm` on `input` with `params`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankJob {
    /// Registry name of the algorithm.
    pub algorithm: String,
    /// Input payload.
    pub input: JobInput,
    /// Parameters (seed included).
    pub params: JobParams,
}

impl RankJob {
    /// Cache key: FNV-1a over a tagged, length-prefixed little-endian
    /// encoding of every field — the algorithm name, each [`JobParams`]
    /// field in declaration order (an `Option` as a discriminant byte
    /// plus its value), then the input's variant tag, scores as
    /// `f64::to_bits`, votes and group ids. The encoding is injective,
    /// so equal digests mean (up to hash collisions) behaviourally
    /// identical jobs. The hash runs byte by byte: folding whole words
    /// with xor-multiply alone would leave bit 63 of each word unmixed,
    /// so pools differing only in the signs of two scores would collide.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        let p = &self.params;
        h.str(&self.algorithm);
        h.u64(p.theta.to_bits());
        h.u64(p.samples as u64);
        h.u64(p.tolerance.to_bits());
        h.u64(p.noise_sd.to_bits());
        h.bytes(&[u8::from(p.k.is_some())]);
        h.u64(p.k.unwrap_or(0) as u64);
        h.u64(p.seed);
        h.str(&p.method);
        h.str(&p.post);
        h.u64(p.protected as u64);
        h.bytes(&[u8::from(p.proportion.is_some())]);
        h.u64(p.proportion.unwrap_or(0.0).to_bits());
        h.u64(p.alpha.to_bits());
        match &self.input {
            JobInput::Scores { scores, .. } => {
                h.bytes(&[0]);
                h.u64(scores.len() as u64);
                scores.iter().for_each(|x| h.u64(x.to_bits()));
            }
            JobInput::Votes { votes, .. } => {
                h.bytes(&[1]);
                h.u64(votes.len() as u64);
                for vote in votes {
                    h.u64(vote.len() as u64);
                    vote.iter().for_each(|&i| h.u64(i as u64));
                }
            }
        }
        let groups = self.input.groups();
        h.u64(groups.len() as u64);
        groups.iter().for_each(|&g| h.u64(g as u64));
        h.0
    }
}

/// 64-bit FNV-1a, fed one byte at a time.
struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Output of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct RankResult {
    /// Algorithm that produced the result.
    pub algorithm: String,
    /// The (fair) ranking: item ids in rank order.
    pub ranking: Vec<usize>,
    /// The pre-post-processing consensus, for pipeline jobs.
    pub consensus: Option<Vec<usize>>,
    /// Named metrics, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl RankResult {
    /// Look up one metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Serialize the response body directly into `out`, byte-identical
    /// to `to_json().to_string()` but without building the intermediate
    /// [`Json`] tree — the HTTP workers call this with a reusable
    /// buffer so a warm request serializes with zero allocations.
    pub fn write_json(&self, out: &mut String) {
        fn write_index_array(indices: &[usize], out: &mut String) {
            out.push('[');
            for (i, idx) in indices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{idx}");
            }
            out.push(']');
        }

        out.push_str("{\"algorithm\":");
        crate::json::write_string(&self.algorithm, out);
        match &self.consensus {
            Some(consensus) => {
                out.push_str(",\"consensus\":");
                write_index_array(consensus, out);
                out.push_str(",\"fair_ranking\":");
                write_index_array(&self.ranking, out);
            }
            None => {
                out.push_str(",\"ranking\":");
                write_index_array(&self.ranking, out);
            }
        }
        out.push_str(",\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::write_string(name, out);
            out.push(':');
            crate::json::write_number(*value, out);
        }
        out.push_str("}}");
    }

    /// JSON body served for this result. Pipeline results carry both
    /// `consensus` and `fair_ranking`; plain jobs carry `ranking`.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![(
            "algorithm".to_string(),
            Json::String(self.algorithm.clone()),
        )];
        match &self.consensus {
            Some(consensus) => {
                fields.push(("consensus".to_string(), Json::index_array(consensus)));
                fields.push(("fair_ranking".to_string(), Json::index_array(&self.ranking)));
            }
            None => {
                fields.push(("ranking".to_string(), Json::index_array(&self.ranking)));
            }
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::Number(*v)))
            .collect();
        fields.push(("metrics".to_string(), Json::Object(metrics)));
        Json::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seed: u64) -> RankJob {
        RankJob {
            algorithm: "mallows".to_string(),
            input: JobInput::Scores {
                scores: vec![0.9, 0.5, 0.1],
                groups: vec![0, 1, 0],
            },
            params: JobParams {
                seed,
                ..JobParams::default()
            },
        }
    }

    #[test]
    fn digest_is_stable_and_seed_sensitive() {
        assert_eq!(job(1).digest(), job(1).digest());
        assert_ne!(job(1).digest(), job(2).digest());
    }

    #[test]
    fn digest_sees_input_changes() {
        let a = job(1);
        let mut b = job(1);
        if let JobInput::Scores { scores, .. } = &mut b.input {
            scores[0] = 0.91;
        }
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sees_algorithm_changes() {
        let a = job(1);
        let mut b = job(1);
        b.algorithm = "detconstsort".to_string();
        assert_ne!(a.digest(), b.digest());
    }

    fn pool(scores: Vec<f64>, groups: Vec<usize>) -> RankJob {
        RankJob {
            input: JobInput::Scores { scores, groups },
            ..job(1)
        }
    }

    #[test]
    fn digest_sees_sign_flips() {
        // xor-multiply over whole words would cancel two flips of bit 63
        let a = pool(vec![0.9, 0.5, 0.1, 0.3], vec![]);
        let b = pool(vec![-0.9, 0.5, -0.1, 0.3], vec![]);
        let c = pool(vec![0.9, -0.5, 0.1, -0.3], vec![]);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(b.digest(), c.digest());
        let zero = pool(vec![0.0, 1.0], vec![]);
        let negative_zero = pool(vec![-0.0, 1.0], vec![]);
        assert_ne!(zero.digest(), negative_zero.digest());
    }

    #[test]
    fn digest_sees_swapped_neighbours() {
        let a = pool(vec![0.9, 0.5, 0.1], vec![0, 1, 0]);
        let b = pool(vec![0.5, 0.9, 0.1], vec![0, 1, 0]);
        let c = pool(vec![0.9, 0.5, 0.1], vec![1, 0, 0]);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_tells_absent_options_from_zero() {
        let mut a = job(1);
        let mut b = job(1);
        a.params.k = None;
        b.params.k = Some(0);
        assert_ne!(a.digest(), b.digest());
        a.params.proportion = None;
        b.params = a.params.clone();
        b.params.proportion = Some(0.0);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sees_values_moved_between_columns() {
        // without length prefixes both encode as bits(1), bits(2), 7
        let a = pool(vec![1.0, 2.0], vec![7]);
        let b = pool(vec![1.0], vec![2.0f64.to_bits() as usize, 7]);
        assert_ne!(a.digest(), b.digest());
        let mut c = job(1);
        let mut d = job(1);
        c.params.method = "ab".into();
        c.params.post = "c".into();
        d.params.method = "a".into();
        d.params.post = "bc".into();
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn result_json_shapes() {
        let plain = RankResult {
            algorithm: "borda".into(),
            ranking: vec![2, 0, 1],
            consensus: None,
            metrics: vec![("ndcg".into(), 0.9)],
        };
        let text = plain.to_json().to_string();
        assert!(text.contains("\"ranking\":[2,0,1]"), "{text}");
        assert!(!text.contains("fair_ranking"), "{text}");

        let pipe = RankResult {
            algorithm: "pipeline".into(),
            ranking: vec![1, 0],
            consensus: Some(vec![0, 1]),
            metrics: vec![],
        };
        let text = pipe.to_json().to_string();
        assert!(text.contains("\"consensus\":[0,1]"), "{text}");
        assert!(text.contains("\"fair_ranking\":[1,0]"), "{text}");
    }

    #[test]
    fn write_json_matches_to_json_exactly() {
        let results = [
            RankResult {
                algorithm: "borda".into(),
                ranking: vec![2, 0, 1],
                consensus: None,
                metrics: vec![("ndcg".into(), 0.9321), ("count".into(), 4.0)],
            },
            RankResult {
                algorithm: "pipeline".into(),
                ranking: vec![1, 0],
                consensus: Some(vec![0, 1]),
                metrics: vec![],
            },
            RankResult {
                algorithm: "weird \"name\"".into(),
                ranking: vec![],
                consensus: None,
                metrics: vec![("nan".into(), f64::NAN)],
            },
        ];
        for result in &results {
            let mut direct = String::from("junk"); // appends, never clears
            result.write_json(&mut direct);
            assert_eq!(direct[4..], result.to_json().to_string());
        }
    }

    #[test]
    fn votes_canonical_distinguishes_vote_boundaries() {
        let a = RankJob {
            algorithm: "borda".into(),
            input: JobInput::Votes {
                votes: vec![vec![0, 1], vec![1, 0]],
                groups: vec![],
            },
            params: JobParams::default(),
        };
        let b = RankJob {
            algorithm: "borda".into(),
            input: JobInput::Votes {
                votes: vec![vec![0, 1, 1, 0]],
                groups: vec![],
            },
            params: JobParams::default(),
        };
        assert_ne!(a.digest(), b.digest());
    }
}
