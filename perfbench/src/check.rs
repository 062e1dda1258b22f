//! Output checks. No response counts towards a metric before it passes:
//!
//! * every `/rank` body and `/jobs` chunk result equals, byte for byte,
//!   an in-process `Registry::standard()` run of the same `RankJob`
//!   (and the server-side digest of the sent body equals the job's, so
//!   the generator and the server agree on what was asked);
//! * the response's `ndcg_vs_pool`, `infeasible_index` and
//!   `pfair_percentage` match a recomputation from the returned ranking;
//! * each `fairrank rank` output is a permutation of the input ids and
//!   its footer matches a recomputation.

use crate::gen::Request;
use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
use fairrank_engine::json::{Json, JsonArena};
use fairrank_engine::registry::Registry;
use fairrank_engine::server::ring_key;
use fairrank_engine::tables::ExecContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::quality::{self, Discount};
use ranking_core::Permutation;

/// The quality of one checked ranking.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    /// NDCG against the pool's ideal ordering.
    pub ndcg: f64,
    /// P-fair positions (%) for the known, sent attribute.
    pub pfair_known: f64,
    /// P-fair positions (%) for the hidden attribute.
    pub pfair_unknown: f64,
}

/// Dense group assignment as the engine builds it (`max + 1` groups).
pub fn assignment(groups: &[usize]) -> GroupAssignment {
    let num = groups.iter().max().map_or(1, |&g| g + 1);
    GroupAssignment::new(groups.to_vec(), num).expect("ids below max + 1")
}

/// The engine's response metrics recomputed for `order`:
/// `(ndcg_within_selection, ndcg_vs_pool, infeasible_index, pfair_percentage)`.
pub fn response_metrics(
    order: &[usize],
    scores: &[f64],
    groups: &[usize],
    tolerance: f64,
) -> (f64, Option<f64>, usize, f64) {
    let sub_scores: Vec<f64> = order.iter().map(|&i| scores[i]).collect();
    let sub_groups = assignment(groups).subset(order);
    let bounds = FairnessBounds::from_assignment_with_tolerance(&sub_groups, tolerance);
    let pi = Permutation::identity(order.len());
    let within = quality::ndcg(&pi, &sub_scores).unwrap_or(f64::NAN);
    let mut ideal = scores.to_vec();
    ideal.sort_by(|a, b| b.total_cmp(a));
    let gain = |v: &[f64]| -> f64 {
        v.iter()
            .take(order.len())
            .enumerate()
            .map(|(i, s)| s * Discount::Log2.at(i + 1))
            .sum()
    };
    let pool_idcg = gain(&ideal);
    let vs_pool = (pool_idcg > 0.0).then(|| gain(&sub_scores) / pool_idcg);
    let ii =
        infeasible::two_sided_infeasible_index(&pi, &sub_groups, &bounds).unwrap_or(usize::MAX);
    let pf = infeasible::pfair_percentage(&pi, &sub_groups, &bounds).unwrap_or(f64::NAN);
    (within, vs_pool, ii, pf)
}

/// P-fair positions (%) of `order` for `groups` at `tolerance`.
pub fn pfair(order: &[usize], groups: &[usize], tolerance: f64) -> f64 {
    let ga = assignment(groups);
    let bounds = FairnessBounds::from_assignment_with_tolerance(&ga, tolerance);
    let pi = Permutation::from_order(order.to_vec()).expect("checked permutation");
    infeasible::pfair_percentage(&pi, &ga, &bounds).unwrap_or(f64::NAN)
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn is_permutation(order: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order
            .iter()
            .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// Reference runs and checks, one per checking thread.
pub struct Checker {
    registry: Registry,
    ctx: ExecContext,
    arena: JsonArena,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            registry: Registry::standard(),
            ctx: ExecContext::default(),
            arena: JsonArena::new(),
        }
    }
}

impl Checker {
    /// The in-process response body for `req` (what the server must send).
    pub fn reference(&self, req: &Request) -> Result<String, String> {
        let algorithm = self
            .registry
            .get(&req.job.algorithm)
            .ok_or_else(|| format!("unknown algorithm {}", req.job.algorithm))?;
        let mut rng = StdRng::seed_from_u64(req.job.params.seed);
        let result = algorithm
            .run(&req.job, &self.ctx, &mut rng)
            .map_err(|e| format!("reference run failed: {e}"))?;
        let mut out = String::new();
        result.write_json(&mut out);
        Ok(out)
    }

    /// Check one sync `/rank` response (status 200 plus
    /// [`Checker::check_result`]).
    pub fn check_rank(
        &mut self,
        req: &Request,
        status: u16,
        body: &str,
    ) -> Result<Quality, String> {
        if status != 200 {
            return Err(format!("status {status}: {body}"));
        }
        let expected = self.reference(req)?;
        self.check_result(req, body, &expected)
    }

    /// Check one result body against the reference body `expected`.
    pub fn check_result(
        &mut self,
        req: &Request,
        body: &str,
        expected: &str,
    ) -> Result<Quality, String> {
        if ring_key("/rank", req.body.as_bytes(), &mut self.arena) != Some(req.job.digest()) {
            return Err("server-side digest of the body differs from the job's".to_string());
        }
        if body != expected {
            return Err(format!(
                "{} n={}: body differs from the in-process registry run",
                req.job.algorithm,
                req.scores().len()
            ));
        }
        let doc = Json::parse(body).map_err(|e| format!("bad response json: {e}"))?;
        let order: Vec<usize> = doc
            .get("ranking")
            .and_then(Json::as_array)
            .ok_or("response has no ranking")?
            .iter()
            .map(|v| v.as_usize().ok_or("ranking entry is not an index"))
            .collect::<Result<_, _>>()?;
        let scores = req.scores();
        if !is_permutation(&order, scores.len()) {
            return Err("ranking is not a permutation of the pool".to_string());
        }
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
        };
        let (_, vs_pool, ii, pf) =
            response_metrics(&order, scores, req.known(), req.job.params.tolerance);
        let sent_vs_pool = metric("ndcg_vs_pool");
        let ok = match (vs_pool, sent_vs_pool) {
            (Some(a), Some(b)) => close(a, b),
            (None, None) => true,
            _ => false,
        } && metric("infeasible_index").is_some_and(|v| close(v, ii as f64))
            && metric("pfair_percentage").is_some_and(|v| close(v, pf));
        if !ok {
            return Err("response metrics differ from their recomputation".to_string());
        }
        Ok(Quality {
            ndcg: vs_pool.unwrap_or(1.0),
            pfair_known: pf,
            pfair_unknown: pfair(&order, &req.hidden, req.job.params.tolerance),
        })
    }

    /// Check a finished `/jobs/{id}` status body: every chunk result is
    /// byte-identical to its reference run.
    pub fn check_batch(
        &mut self,
        id: u64,
        chunks: &[Request],
        body: &str,
    ) -> Result<Vec<Quality>, String> {
        let mut references = Vec::with_capacity(chunks.len());
        for c in chunks {
            references.push(self.reference(c)?);
        }
        let n = chunks.len();
        let expected = format!(
            "{{\"id\":{id},\"status\":\"done\",\"chunks_total\":{n},\"chunks_done\":{n},\"results\":[{}]}}",
            references.join(",")
        );
        if body != expected {
            return Err(format!(
                "batch {id}: status body differs from the reference runs"
            ));
        }
        chunks
            .iter()
            .zip(&references)
            .map(|(c, r)| self.check_result(c, r, r))
            .collect()
    }
}

/// Check one `fairrank rank` stdout for `req`: the rows are a
/// permutation of the input ids and the footer matches a recomputation.
pub fn check_cli(req: &Request, stdout: &str) -> Result<(), String> {
    let mut order = Vec::with_capacity(req.scores().len());
    let mut footer = Vec::new();
    for line in stdout.lines().skip(1) {
        if let Some(rest) = line.strip_prefix("# ") {
            footer.push(rest.to_string());
            continue;
        }
        let id = line.split(',').nth(1).ok_or("row without an id")?;
        let index = id
            .strip_prefix('c')
            .and_then(|i| i.parse::<usize>().ok())
            .ok_or_else(|| format!("unknown id {id}"))?;
        order.push(index);
    }
    if !is_permutation(&order, req.scores().len()) {
        return Err("CLI output is not a permutation of the input ids".to_string());
    }
    let (within, vs_pool, ii, pf) =
        response_metrics(&order, req.scores(), req.known(), req.job.params.tolerance);
    let mut expected = vec![format!("ndcg_within_selection,{within:.6}")];
    if let Some(v) = vs_pool {
        expected.push(format!("ndcg_vs_pool,{v:.6}"));
    }
    expected.push(format!("infeasible_index,{ii}"));
    expected.push(format!("pfair_percentage,{pf:.2}"));
    let abandoned = footer
        .iter()
        .position(|l| l.starts_with("criterion_samples_abandoned,"));
    if let Some(at) = abandoned {
        let count = footer.remove(at);
        if req.job.algorithm != "mallows" || count[28..].parse::<u64>().is_err() {
            return Err(format!("unexpected footer line {count}"));
        }
    }
    if footer != expected {
        return Err(format!(
            "CLI footer {footer:?} differs from recomputation {expected:?}"
        ));
    }
    Ok(())
}
