//! The seeded input generator. Every workload's requests, CSV files and
//! `/jobs` batch specs are a pure function of the `--seed` argument and
//! the request's index, so a run can regenerate any request for its
//! output checks instead of holding them all.

use experiments::credit_pipeline::{cell_job, Algorithm, Panel};
use fair_datasets::GermanCredit;
use fairrank_engine::job::{JobInput, JobParams, RankJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Mallows dispersion θ of the `large_pool` requests.
pub const THETA: f64 = 1.0;
/// Fairness tolerance of the `large_pool` requests.
pub const TOLERANCE: f64 = 0.1;
/// `large_pool` pool sizes: `LARGE_N ± LARGE_SPREAD`, distinct per request.
pub const LARGE_N: usize = 100_000;
/// Half-width of the `large_pool` size band.
pub const LARGE_SPREAD: usize = 1_000;
/// The paper's best-of-m sample count.
pub const BEST_OF: usize = 15;
/// Sweep repetitions per `/jobs` batch (240 chunks): long enough that
/// the 5 ms poll interval is a small share of a batch's latency.
pub const SWEEP_REPS_PER_BATCH: usize = 2;
/// `paper_sweep` sizes (the paper's 10, 20, …, 100).
pub const SWEEP_SIZES: [usize; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
/// `paper_sweep` panels: θ ∈ {0.5, 1} without constraint noise (the
/// noisy panels can make the exact ILP infeasible, which fails a chunk).
pub const SWEEP_PANELS: [Panel; 2] = [
    Panel {
        theta: 0.5,
        noise_sd: 0.0,
    },
    Panel {
        theta: 1.0,
        noise_sd: 0.0,
    },
];

/// One generated `/rank` request.
pub struct Request {
    /// The job the body encodes.
    pub job: RankJob,
    /// The `POST /rank` body.
    pub body: String,
    /// A second protected attribute, never sent: the benchmark scores
    /// the returned ranking against it (the paper's unknown attribute).
    pub hidden: Vec<usize>,
}

impl Request {
    /// Candidate scores.
    pub fn scores(&self) -> &[f64] {
        match &self.job.input {
            JobInput::Scores { scores, .. } => scores,
            JobInput::Votes { .. } => &[],
        }
    }

    /// Known (sent) group ids.
    pub fn known(&self) -> &[usize] {
        self.job.input.groups()
    }

    /// The candidate CSV `fairrank rank --input` reads for this pool.
    pub fn csv(&self) -> String {
        let mut out = String::from("id,score,group\n");
        for (i, (s, g)) in self.scores().iter().zip(self.known()).enumerate() {
            let _ = writeln!(out, "c{i},{s},g{g}");
        }
        out
    }

    /// `fairrank rank` arguments reproducing this job on `input`.
    pub fn cli_args(&self, input: &str) -> Vec<String> {
        let p = &self.job.params;
        let mut args = vec![
            "rank".to_string(),
            "--input".to_string(),
            input.to_string(),
            "--algorithm".to_string(),
            self.job.algorithm.clone(),
            "--tolerance".to_string(),
            p.tolerance.to_string(),
            "--theta".to_string(),
            p.theta.to_string(),
            "--samples".to_string(),
            p.samples.to_string(),
            "--seed".to_string(),
            p.seed.to_string(),
        ];
        if self.job.algorithm == "mallows" {
            args.extend(["--criterion".to_string(), "ndcg".to_string()]);
        }
        args
    }
}

/// SplitMix64 finaliser: independent streams per `(seed, stream, index)`.
pub fn stream_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A job seed the engine's JSON number parser carries exactly.
fn job_seed(rng: &mut StdRng) -> u64 {
    rng.random::<u64>() >> 33
}

/// A scored pool of `n` candidates: a known two-valued attribute (35 %
/// minority, scored lower on average, so fairness post-processing has
/// work to do) and a hidden three-valued attribute correlated with it.
/// Items 0 and 1 pin both known groups and items 0–2 all hidden groups,
/// so group counts never depend on the draw.
fn pool(rng: &mut StdRng, n: usize) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
    let mut scores = Vec::with_capacity(n);
    let mut known = Vec::with_capacity(n);
    let mut hidden = Vec::with_capacity(n);
    for i in 0..n {
        let g = match i {
            0 => 0,
            1 => 1,
            _ => usize::from(rng.random::<f64>() < 0.35),
        };
        let u: f64 = rng.random();
        let h = match i {
            0..=2 => i,
            _ if g == 1 => usize::from(u >= 0.6) + usize::from(u >= 0.8),
            _ => usize::from(u >= 0.2) + usize::from(u >= 0.6),
        };
        let raw = rng.random::<f64>() - 0.15 * g as f64 - 0.1 * f64::from(u8::from(h == 2));
        scores.push((raw.max(0.0) * 1e6).round() / 1e6);
        known.push(g);
        hidden.push(h);
    }
    (scores, known, hidden)
}

fn push_array<T: std::fmt::Display>(out: &mut String, values: &[T]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// The JSON object encoding a score job (a `/rank` body or a `/jobs`
/// chunk): scores, groups, θ, samples, tolerance and seed, plus
/// `noise_sd` when it is not zero.
pub fn job_body(job: &RankJob) -> String {
    let JobInput::Scores { scores, groups } = &job.input else {
        unreachable!("the benchmark only generates score jobs");
    };
    let p = &job.params;
    let mut out = String::with_capacity(scores.len() * 12 + 128);
    let _ = write!(out, "{{\"algorithm\":\"{}\",\"scores\":", job.algorithm);
    push_array(&mut out, scores);
    out.push_str(",\"groups\":");
    push_array(&mut out, groups);
    let _ = write!(
        out,
        ",\"theta\":{},\"samples\":{},\"tolerance\":{},\"seed\":{}",
        p.theta, p.samples, p.tolerance, p.seed
    );
    if p.noise_sd != 0.0 {
        let _ = write!(out, ",\"noise_sd\":{}", p.noise_sd);
    }
    out.push('}');
    out
}

/// `large_pool` request `i`: mallows best-of-15 on a fresh pool whose
/// size and seed differ per request, so neither the result cache nor
/// the sampler-table cache can hit.
pub fn large_request(seed: u64, i: usize) -> Request {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 1, i as u64));
    let n = LARGE_N - LARGE_SPREAD + rng.random_range(0..=2 * LARGE_SPREAD);
    let seed = job_seed(&mut rng);
    let (scores, known, hidden) = pool(&mut rng, n);
    let job = RankJob {
        algorithm: "mallows".to_string(),
        input: JobInput::Scores {
            scores,
            groups: known,
        },
        params: JobParams {
            theta: THETA,
            samples: BEST_OF,
            tolerance: TOLERANCE,
            seed,
            ..JobParams::default()
        },
    };
    Request {
        body: job_body(&job),
        job,
        hidden,
    }
}

/// The synthetic German Credit data every sweep batch samples from.
pub fn credit_data(seed: u64) -> GermanCredit {
    GermanCredit::generate(&mut StdRng::seed_from_u64(stream_seed(seed, 7, 0)))
}

/// `paper_sweep` batch `b`: `SWEEP_REPS_PER_BATCH` repetitions of the
/// German Credit sweep — every panel × size × `credit_pipeline`
/// algorithm — as chunks whose known attribute is Sex-Age and whose
/// hidden one is Housing.
pub fn sweep_batch(data: &GermanCredit, seed: u64, b: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 8, b as u64));
    let amounts = data.credit_amounts();
    let sex_age = data.sex_age_groups();
    let housing = data.housing_groups();
    let mut chunks = Vec::new();
    for panel in (0..SWEEP_REPS_PER_BATCH).flat_map(|_| SWEEP_PANELS) {
        for n in SWEEP_SIZES {
            let idx = data.sample_indices(n, &mut rng);
            let scores: Vec<f64> = idx.iter().map(|&i| amounts[i]).collect();
            let known = sex_age.subset(&idx).as_slice().to_vec();
            let hidden = housing.subset(&idx).as_slice().to_vec();
            for alg in Algorithm::all() {
                let job = cell_job(
                    alg,
                    scores.clone(),
                    known.clone(),
                    panel,
                    BEST_OF,
                    job_seed(&mut rng),
                );
                chunks.push(Request {
                    body: job_body(&job),
                    job,
                    hidden: hidden.clone(),
                });
            }
        }
    }
    chunks
}

/// The `POST /jobs` body carrying `chunks`.
pub fn batch_body(chunks: &[Request]) -> String {
    let mut out = String::from("{\"chunks\":[");
    for (i, c) in chunks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&c.body);
    }
    out.push_str("]}");
    out
}
