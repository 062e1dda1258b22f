//! The traced run: the per-layer split of one workload.
//!
//! It runs apart from the timed run and adds no tracing inside the
//! program. Spans are recorded here, around in-process calls of each
//! layer's public functions on the workload's own inputs, and the
//! server-side layers are read from outside as `/stats` and `/metrics`
//! deltas around a short replay of the workload. The replay runs twice
//! on fresh replicas — once plain, once with the span recording and
//! scrapes on — and the difference of the two medians is the tracing
//! overhead.

use crate::check::{assignment, response_metrics};
use crate::gen::{self, Request};
use crate::http::{self, Conn};
use crate::procs::{nproc, router_args, serve_args, Proc};
use crate::run::{self, Ctx, Report};
use crate::stats::{median, tail};
use fair_baselines::{
    approx_multi_valued_ipf, det_const_sort, optimal_fair_ranking_dp, weakly_fair_ranking,
    DetConstSortConfig, IpfConfig,
};
use fair_mallows::{Criterion, MallowsFairRanker};
use fairness_metrics::FairnessBounds;
use fairrank_cli::csv::CandidateTable;
use fairrank_engine::cache::ShardedLru;
use fairrank_engine::job::RankResult;
use fairrank_engine::json::{Json, JsonArena};
use fairrank_engine::registry::Registry;
use fairrank_engine::server::{ring_key, write_response_into};
use fairrank_engine::tables::{ExecContext, TableCache};
use fairrank_router::ring::HashRing;
use mallows_model::tables::SamplerTables;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::quality::Discount;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine's switch to batched parallel sampling (mirrors the
/// private `PARALLEL_SAMPLE_THRESHOLD` of `engine::registry`).
const PARALLEL_SAMPLE_THRESHOLD: usize = 64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` once: its result (through `black_box`, so the work cannot be
/// optimised away) and its wall time in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, ms(t0.elapsed()))
}

/// Per-layer samples of the in-process pass (milliseconds unless the
/// name says otherwise).
#[derive(Default)]
struct Layers {
    parse: Vec<f64>,
    digest: Vec<f64>,
    run: Vec<f64>,
    write_json: Vec<f64>,
    response: Vec<f64>,
    centre: Vec<f64>,
    tables: Vec<f64>,
    mallows: Vec<f64>,
    unattributed: Vec<f64>,
    samples_drawn: u64,
    samples_abandoned: u64,
    ring_key_us: Vec<f64>,
    lookup_us: Vec<f64>,
    write_response_us: Vec<f64>,
    read: Vec<f64>,
    render: Vec<f64>,
}

/// The requests the in-process pass and the replay use.
fn job_set(ctx: &Ctx, workload: &str) -> Vec<Request> {
    match workload {
        "large_pool" => (0..5).map(|i| gen::large_request(ctx.seed, i)).collect(),
        _ => gen::sweep_batch(&gen::credit_data(ctx.seed), ctx.seed, 0),
    }
}

/// Time every layer on every job of `jobs`, in-process.
fn in_process(ctx: &Ctx, jobs: &[Request], fresh_tables: bool) -> Result<Layers, String> {
    let registry = Registry::standard();
    let shared = ExecContext::default();
    let mut arena = JsonArena::new();
    let ring = HashRing::build(&["127.0.0.1:1"]);
    let cache = ShardedLru::new(1024, ShardedLru::auto_shards(1024));
    let mut l = Layers::default();
    let mut results: Vec<(u64, Arc<RankResult>)> = Vec::new();
    let mut frame = Vec::new();
    for req in jobs {
        let job = &req.job;
        let (parsed, t) = timed(|| arena.parse(&req.body).map(|_| ()));
        parsed.map_err(|e| format!("parse: {e}"))?;
        l.parse.push(t);
        let (key, t) = timed(|| job.digest());
        l.digest.push(t);

        let exec = if fresh_tables {
            ExecContext::new(Arc::new(TableCache::new(64)))
        } else {
            shared.clone()
        };
        let misses = exec.tables.misses();
        let algorithm = registry.get(&job.algorithm).ok_or("unknown algorithm")?;
        let mut rng = StdRng::seed_from_u64(job.params.seed);
        let (result, run_ms) = timed(|| algorithm.run(job, &exec, &mut rng));
        let result = result.map_err(|e| format!("run: {e}"))?;
        let table_missed = exec.tables.misses() > misses;
        l.run.push(run_ms);
        let mut body = String::new();
        let ((), t) = timed(|| result.write_json(&mut body));
        l.write_json.push(t);
        let ((), t) = timed(|| write_response_into(&mut frame, 200, &body, true, None));
        std::hint::black_box(&frame);
        l.write_response_us.push(t * 1e3);
        let (_, response_ms) = timed(|| {
            response_metrics(
                &result.ranking,
                req.scores(),
                req.known(),
                job.params.tolerance,
            )
        });
        l.response.push(response_ms);
        let (owner, t) = timed(|| {
            ring_key("/rank", req.body.as_bytes(), &mut arena)
                .and_then(|k| ring.owner(k).map(str::len))
        });
        owner.ok_or("ring_key found no owner")?;
        l.ring_key_us.push(t * 1e3);

        if job.algorithm == "mallows" {
            let p = &job.params;
            let scores = req.scores();
            let groups = assignment(req.known());
            let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, p.tolerance);
            let (center, centre_ms) = timed(|| weakly_fair_ranking(scores, &groups, &bounds));
            let (tables, tables_ms) = timed(|| SamplerTables::new(scores.len(), p.theta));
            let tables = Arc::new(tables.map_err(|e| e.to_string())?);
            let ranker =
                MallowsFairRanker::new(p.theta, p.samples, Criterion::MaxNdcg(scores.to_vec()))
                    .map_err(|e| e.to_string())?;
            let (out, rank_ms) = timed(|| {
                if p.samples >= PARALLEL_SAMPLE_THRESHOLD {
                    ranker.rank_batched(
                        &center,
                        &tables,
                        p.seed,
                        p.samples.div_ceil(16).min(8),
                        nproc(),
                    )
                } else {
                    ranker.rank_with_tables(&center, &tables, &mut StdRng::seed_from_u64(p.seed))
                }
            });
            let out = out.map_err(|e| e.to_string())?;
            l.samples_drawn += out.samples_drawn as u64;
            l.samples_abandoned += out.samples_abandoned;
            l.centre.push(centre_ms);
            l.tables.push(tables_ms);
            l.mallows.push(rank_ms);
            let built = if table_missed { tables_ms } else { 0.0 };
            l.unattributed
                .push(run_ms - centre_ms - built - rank_ms - response_ms);
        }
        let result = Arc::new(result);
        cache.insert(key, Arc::clone(&result));
        results.push((key, result));
    }
    for (key, _) in &results {
        let (hit, t) = timed(|| cache.get(*key));
        hit.ok_or("cache lost an entry")?;
        l.lookup_us.push(t * 1e3);
    }
    // CLI ingest and rendering on (up to) 30 of the pools
    let path = ctx.work.join("layer.csv");
    let path_str = path.to_string_lossy().into_owned();
    for (req, (_, result)) in jobs.iter().zip(&results).take(30) {
        std::fs::write(&path, req.csv()).map_err(|e| e.to_string())?;
        let (table, t) = timed(|| CandidateTable::read_with_jobs(&path_str, 0));
        let table = table.map_err(|e| e.to_string())?;
        l.read.push(t);
        let (_, t) = timed(|| table.render_ranking(&result.ranking));
        l.render.push(t);
    }
    Ok(l)
}

/// Median per-call time (µs) of DetConstSort, IPF and the ILP DP on the
/// sweep's cells (sizes 10–100), called directly.
fn baselines(seed: u64) -> Result<[f64; 3], String> {
    let cells = gen::sweep_batch(&gen::credit_data(seed), seed, 0);
    let mut us = [Vec::new(), Vec::new(), Vec::new()];
    for c in &cells {
        let p = &c.job.params;
        let scores = c.scores();
        let groups = assignment(c.known());
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, p.tolerance);
        let mut rng = StdRng::seed_from_u64(p.seed);
        let t = match c.job.algorithm.as_str() {
            "detconstsort" => {
                let cfg = DetConstSortConfig {
                    noise_sd: p.noise_sd,
                };
                let (r, t) = timed(|| det_const_sort(scores, &groups, &bounds, &cfg, &mut rng));
                r.map_err(|e| e.to_string())?;
                (0, t)
            }
            "ipf" => {
                let sigma = weakly_fair_ranking(scores, &groups, &bounds);
                let cfg = IpfConfig {
                    noise_sd: p.noise_sd,
                };
                let (r, t) =
                    timed(|| approx_multi_valued_ipf(&sigma, &groups, &bounds, &cfg, &mut rng));
                r.map_err(|e| e.to_string())?;
                (1, t)
            }
            "ilp" => {
                let tables = bounds.tables(scores.len());
                let (r, t) =
                    timed(|| optimal_fair_ranking_dp(scores, &groups, &tables, Discount::Log2));
                r.map_err(|e| e.to_string())?;
                (2, t)
            }
            _ => continue,
        };
        us[t.0].push(t.1 * 1e3);
    }
    Ok([median(&us[0]), median(&us[1]), median(&us[2])])
}

/// Sum of a counter or all matching histogram buckets in a Prometheus
/// text body: `name{labels…}` lines whose labels contain `filter`.
fn scrape(text: &str, name: &str, filter: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let rest = key.strip_prefix(name)?;
            (rest.is_empty() || rest.starts_with('{'))
                .then_some(())
                .filter(|()| rest.contains(filter))?;
            Some((rest.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn counter(text: &str, name: &str) -> f64 {
    scrape(text, name, "").iter().map(|(_, v)| v).sum()
}

/// Cumulative bucket counts by `le` and the `_sum`, summed over the
/// routes matching `route` (empty = every route), as the delta
/// `after − before`.
fn hist_delta(before: &str, after: &str, family: &str, route: &str) -> (Vec<(f64, f64)>, f64) {
    let filter = if route.is_empty() {
        String::new()
    } else {
        format!("route=\"{route}\"")
    };
    let collect = |text: &str| {
        let mut by_le: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for (labels, v) in scrape(text, &format!("{family}_bucket"), &filter) {
            let le = labels
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap_or("+Inf");
            let bound = if le == "+Inf" {
                u64::MAX
            } else {
                le.parse().unwrap_or(u64::MAX)
            };
            *by_le.entry(bound).or_default() += v;
        }
        by_le
    };
    let (b, a) = (collect(before), collect(after));
    let sum = |text: &str| -> f64 {
        scrape(text, &format!("{family}_sum"), &filter)
            .iter()
            .map(|(_, v)| v)
            .sum()
    };
    let cumulative = a
        .iter()
        .map(|(le, v)| (*le as f64, v - b.get(le).copied().unwrap_or(0.0)))
        .collect();
    (cumulative, sum(after) - sum(before))
}

/// The value at cumulative rank `rank` of a cumulative histogram,
/// interpolated inside its bucket.
fn hist_at(cumulative: &[(f64, f64)], rank: f64) -> f64 {
    let mut prev = (0.0, 0.0);
    for &(le, cum) in cumulative {
        if cum >= rank && cum > prev.1 {
            let hi = if le == u64::MAX as f64 {
                prev.0 * 2.0
            } else {
                le
            };
            return prev.0 + (hi - prev.0) * ((rank - prev.1) / (cum - prev.1));
        }
        prev = (le, cum);
    }
    prev.0
}

/// Median and tail (as in [`crate::stats::tail`]) of a histogram delta.
/// When every sample fell in one bucket the buckets cannot tell them
/// apart, and both are the exact mean (`_sum / count`).
fn hist_p50_tail((cumulative, sum): &(Vec<(f64, f64)>, f64)) -> (f64, f64) {
    let total = cumulative.last().map_or(0.0, |c| c.1);
    if total <= 0.0 {
        return (0.0, 0.0);
    }
    if cumulative.iter().map(|c| c.1).find(|&cum| cum > 0.0) == Some(total) {
        return (sum / total, sum / total);
    }
    let tail_rank = if total > 10.0 { total - 10.0 } else { total };
    (
        hist_at(cumulative, total / 2.0),
        hist_at(cumulative, tail_rank),
    )
}

fn get_text(addr: &str, path: &str) -> Result<String, String> {
    http::get(addr, path)
        .map(|r| r.text())
        .map_err(|e| e.to_string())
}

/// Share of `--seconds` each of the two replays runs for.
const REPLAY_SHARE: f64 = 0.3;

/// Replay the workload against `entry` for `REPLAY_SHARE` of the run
/// (at least 5 requests or 2 batches): per-request latencies (ms),
/// every response checked. With `spans`, each request's client span
/// (index, start, end; seconds from the replay's start) is kept in
/// memory as well.
fn replay(
    ctx: &Ctx,
    workload: &str,
    entry: &str,
    mut spans: Option<&mut Vec<(usize, f64, f64)>>,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let mut latencies = Vec::new();
    let origin = Instant::now();
    let at = |t: Instant| (t - origin).as_secs_f64();
    let budget = REPLAY_SHARE * ctx.seconds;
    let mut conn = Conn::connect(entry).map_err(|e| e.to_string())?;
    let mut checker = crate::check::Checker::default();
    if workload == "large_pool" {
        let mut i = 0;
        while i < 5 || at(Instant::now()) < budget {
            let req = gen::large_request(ctx.seed, i);
            let t0 = Instant::now();
            let r = conn.request("POST", "/rank", req.body.as_bytes());
            let t1 = Instant::now();
            if let Some(s) = spans.as_deref_mut() {
                s.push((i, at(t0), at(t1)));
            }
            let r = r.map_err(|e| e.to_string())?;
            latencies.push(ms(t1 - t0));
            report.outcome(&checker.check_rank(&req, r.status, &r.text()));
            i += 1;
        }
    } else {
        let data = gen::credit_data(ctx.seed);
        let mut b = 0;
        while b < 2 || at(Instant::now()) < budget {
            let chunks = gen::sweep_batch(&data, ctx.seed, b);
            let t0 = Instant::now();
            let (id, latency, body) = run::run_batch(&mut conn, &gen::batch_body(&chunks))?;
            if let Some(s) = spans.as_deref_mut() {
                s.push((b, at(t0), at(Instant::now())));
            }
            latencies.push(latency);
            let checked = checker.check_batch(id, &chunks, &body);
            report.outcome(&checked);
            report.attempted += chunks.len() as u64 - 1;
            b += 1;
        }
    }
    Ok(latencies)
}

/// Median round trip (µs) of `runs` sends of an already cached body.
fn cached_rtt_us(addr: &str, body: &str, runs: usize) -> Result<f64, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = conn
            .request("POST", "/rank", body.as_bytes())
            .map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        if r.status != 200 {
            return Err(format!("cached request answered {}", r.status));
        }
    }
    Ok(median(&times))
}

/// The traced run of `workload`.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let jobs = job_set(ctx, workload);
    // the first pass warms allocator and caches; the second is reported
    in_process(ctx, &jobs, workload == "large_pool")?;
    let l = in_process(ctx, &jobs, workload == "large_pool")?;
    let [dcs_us, ipf_us, ilp_us] = baselines(ctx.seed)?;

    // untraced replay on a fresh replica
    let untraced = {
        let (server, _) = run::start_server(ctx)?;
        replay(ctx, workload, &server.addr, None, &mut report)?
    };

    // traced replay on a replica with a router in front for the hop
    // probe. An I/O thread serves one keep-alive connection at a time,
    // so the replica gets one more than `nproc` for the router's
    // `/readyz` probe: without it the probe times out while the
    // router's pooled connections hold every thread, and the router
    // marks its only replica down (measured under load from `nproc`
    // client connections: 89 % of routed requests answered 503).
    let server = Proc::start(&ctx.fairrank, &serve_args(nproc() + 1))?;
    let router = Proc::start(&ctx.fairrank, &router_args(&server.addr))?;
    let stats0 = get_text(&server.addr, "/stats")?;
    let metrics0 = get_text(&server.addr, "/metrics")?;
    let mut spans = Vec::new();
    let traced = replay(ctx, workload, &server.addr, Some(&mut spans), &mut report)?;
    let stats1 = get_text(&server.addr, "/stats")?;
    if workload == "large_pool" {
        // a batch of requests the replay did not send, so its chunks
        // miss the result cache and reach the worker pool
        let chunks: Vec<Request> = (0..2)
            .map(|i| gen::large_request(ctx.seed, 1_000 + i))
            .collect();
        let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
        let (id, _, body) = run::run_batch(&mut conn, &gen::batch_body(&chunks))?;
        let mut checker = crate::check::Checker::default();
        let checked = checker.check_batch(id, &chunks, &body);
        report.outcome(&checked);
        report.attempted += chunks.len() as u64 - 1;
    }
    let metrics1 = get_text(&server.addr, "/metrics")?;

    let hit_body = &jobs[0].body;
    let hit_runs = if workload == "large_pool" { 5 } else { 200 };
    let direct_us = cached_rtt_us(&server.addr, hit_body, hit_runs)?;
    let router_metrics0 = get_text(&router.addr, "/metrics")?;
    let routed_us = cached_rtt_us(&router.addr, hit_body, hit_runs)?;
    let router_metrics1 = get_text(&router.addr, "/metrics")?;
    let probe_req = gen::large_request(ctx.seed, 1_000_000);
    let (probe, expect_ms) = timed(|| {
        Conn::connect(&server.addr)
            .and_then(|mut c| c.request_expect_continue("/rank", probe_req.body.as_bytes()))
    });
    report.outcome(&probe.map_err(|e| e.to_string()).and_then(|r| {
        (r.status == 200)
            .then_some(())
            .ok_or(format!("expect probe answered {}", r.status))
    }));
    drop(router);
    drop(server);

    let stat = |text: &str, key: &str| {
        Json::parse(text)
            .ok()
            .and_then(|j| j.get(key).and_then(Json::as_f64))
            .unwrap_or(0.0)
    };
    let delta = |key: &str| stat(&stats1, key) - stat(&stats0, key);
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let (queue_p50, queue_tail) = hist_p50_tail(&hist_delta(
        &metrics0,
        &metrics1,
        "fairrank_queue_wait_us",
        "",
    ));
    let (batch_wait_p50, _) = hist_p50_tail(&hist_delta(
        &metrics0,
        &metrics1,
        "fairrank_queue_wait_us",
        "batch",
    ));
    let (batch_service_p50, _) = hist_p50_tail(&hist_delta(
        &metrics0,
        &metrics1,
        "fairrank_service_us",
        "batch",
    ));

    let untraced_p50 = median(&untraced);
    let traced_p50 = median(&traced);
    let layer_rows = [
        median(&l.parse),
        median(&l.digest),
        median(&l.tables) * f64::from(u8::from(workload == "large_pool")),
        median(&l.centre),
        median(&l.mallows),
        median(&l.response),
        median(&l.unattributed),
        median(&l.write_json),
        median(&l.write_response_us) / 1e3,
    ];
    let layer_sum: f64 = layer_rows.iter().sum();
    report.note("spans_recorded", spans.len().to_string());
    report.note("replay_requests", traced.len().to_string());
    report.note("traced_tail_ms", format!("{}", tail(&traced).0));
    report.note(
        "layer_sum_vs_latency",
        format!(
            "{{\"layer_sum_ms\":{layer_sum},\"latency_p50_ms\":{untraced_p50},\"gap_ms\":{}}}",
            untraced_p50 - layer_sum
        ),
    );

    let m = |r: &mut Report, name: &'static str, unit: &'static str, v: f64, s: &[f64]| {
        r.metric(name, unit, v, s.to_vec());
    };
    m(
        &mut report,
        "json.parse_ms",
        "ms",
        median(&l.parse),
        &l.parse,
    );
    m(
        &mut report,
        "job.digest_ms",
        "ms",
        median(&l.digest),
        &l.digest,
    );
    m(
        &mut report,
        "job.write_json_ms",
        "ms",
        median(&l.write_json),
        &l.write_json,
    );
    m(
        &mut report,
        "tables.build_ms",
        "ms",
        median(&l.tables),
        &l.tables,
    );
    m(
        &mut report,
        "tables.hit_ratio",
        "ratio",
        ratio(delta("sampler_table_hits"), delta("sampler_table_misses")),
        &[],
    );
    m(
        &mut report,
        "centre.build_ms",
        "ms",
        median(&l.centre),
        &l.centre,
    );
    m(
        &mut report,
        "mallows.rank_ms",
        "ms",
        median(&l.mallows),
        &l.mallows,
    );
    m(
        &mut report,
        "mallows.samples_drawn",
        "count",
        l.samples_drawn as f64,
        &[],
    );
    m(
        &mut report,
        "mallows.abandon_ratio",
        "ratio",
        l.samples_abandoned as f64 / (l.samples_drawn.max(1)) as f64,
        &[],
    );
    m(
        &mut report,
        "metrics.response_ms",
        "ms",
        median(&l.response),
        &l.response,
    );
    m(&mut report, "registry.run_ms", "ms", median(&l.run), &l.run);
    m(
        &mut report,
        "registry.unattributed_ms",
        "ms",
        median(&l.unattributed),
        &l.unattributed,
    );
    m(&mut report, "server.hit_rtt_us", "us", direct_us, &[]);
    m(
        &mut report,
        "server.write_response_us",
        "us",
        median(&l.write_response_us),
        &l.write_response_us,
    );
    m(
        &mut report,
        "server.expect_continue_ms",
        "ms",
        expect_ms,
        &[],
    );
    m(
        &mut report,
        "cache.hit_ratio",
        "ratio",
        ratio(delta("cache_hits"), delta("cache_misses")),
        &[],
    );
    m(
        &mut report,
        "cache.lookup_us",
        "us",
        median(&l.lookup_us),
        &l.lookup_us,
    );
    m(&mut report, "pool.queue_wait_p50_us", "us", queue_p50, &[]);
    m(
        &mut report,
        "pool.queue_wait_tail_us",
        "us",
        queue_tail,
        &[],
    );
    m(
        &mut report,
        "pool.rejections",
        "count",
        counter(&metrics1, "fairrank_queue_rejections_total")
            - counter(&metrics0, "fairrank_queue_rejections_total"),
        &[],
    );
    m(
        &mut report,
        "batch.chunk_service_p50_us",
        "us",
        batch_service_p50,
        &[],
    );
    m(
        &mut report,
        "batch.queue_wait_p50_us",
        "us",
        batch_wait_p50,
        &[],
    );
    m(&mut report, "baselines.detconstsort_us", "us", dcs_us, &[]);
    m(&mut report, "baselines.ipf_us", "us", ipf_us, &[]);
    m(&mut report, "baselines.ilp_us", "us", ilp_us, &[]);
    m(
        &mut report,
        "dataset.read_ms",
        "ms",
        median(&l.read),
        &l.read,
    );
    m(
        &mut report,
        "cli.render_ms",
        "ms",
        median(&l.render),
        &l.render,
    );
    m(
        &mut report,
        "router.ring_key_us",
        "us",
        median(&l.ring_key_us),
        &l.ring_key_us,
    );
    m(
        &mut report,
        "router.hop_us",
        "us",
        routed_us - direct_us,
        &[],
    );
    m(
        &mut report,
        "router.retries",
        "count",
        counter(&router_metrics1, "fairrank_router_retries_total")
            - counter(&router_metrics0, "fairrank_router_retries_total"),
        &[],
    );
    m(
        &mut report,
        "trace.untraced_p50_ms",
        "ms",
        untraced_p50,
        &untraced,
    );
    m(
        &mut report,
        "trace.latency_p50_ms",
        "ms",
        traced_p50,
        &traced,
    );
    m(
        &mut report,
        "trace.overhead_pct",
        "%",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        &[],
    );
    m(
        &mut report,
        "trace.layer_sum_ms",
        "ms",
        layer_sum,
        &layer_rows,
    );
    m(
        &mut report,
        "trace.gap_ms",
        "ms",
        untraced_p50 - layer_sum,
        &[],
    );
    Ok(report)
}
