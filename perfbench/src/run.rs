//! The timed (untraced) runs of the two workloads.

use crate::check::{check_cli, Checker, Quality};
use crate::gen::{self, Request};
use crate::http::Conn;
use crate::procs::{nproc, serve_args, Proc};
use crate::stats::{mean, median, tail, windowed};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `paper_sweep` batch latencies are summarised per window of this
/// many batches.
const SWEEP_WINDOW: usize = 40;
/// CLI times are summarised per window of this many runs.
pub const CLI_WINDOW: usize = 50;
/// Share of a `large_pool` run spent on the CLI leg.
const LARGE_CLI_SHARE: f64 = 0.4;
/// Share of a `paper_sweep` run spent on the CLI leg.
const SWEEP_CLI_SHARE: f64 = 0.15;
/// Fresh replicas started (and stopped) per run to sample set-up time.
pub const SETUP_RUNS: usize = 20;
/// Batches every `paper_sweep` run completes; the quality metrics are
/// means over exactly these (16 repetitions, the paper's 15 rounded up
/// to whole batches), and `peak_rss_mb` is read when they are done.
pub const SWEEP_QUALITY_BATCHES: usize = 8;
/// `large_pool` requests (by index) its quality metrics average over;
/// `peak_rss_mb` is read when they are done.
pub const LARGE_QUALITY_PREFIX: usize = 8;

/// Everything a run needs from the command line.
pub struct Ctx {
    /// Path of the release `fairrank` binary.
    pub fairrank: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Working directory for temporary files, inside the checkout.
    pub work: PathBuf,
}

/// One reported metric with the samples behind it.
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// The samples the value summarises (may be just the value).
    pub samples: Vec<f64>,
}

/// A run's result.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (requests, chunks, CLI runs).
    pub attempted: u64,
    /// Operations that failed, were refused or failed a check.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Extra record fields (`key`, raw JSON value).
    pub notes: Vec<(String, String)>,
    /// First few failure messages, for the record.
    pub errors: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: Vec<f64>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Add a record field.
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }

    /// Count one operation.
    pub fn outcome<T>(&mut self, result: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Report `p50` and `tail` of `samples` (in time order) as medians
    /// over windows of `window` samples (one window when fewer than two
    /// fit), recording the window size, count and tail percentile.
    fn windowed(
        &mut self,
        what: &str,
        p50: &'static str,
        tail_name: &'static str,
        samples: &[f64],
        window: usize,
    ) {
        let (m, t) = windowed(samples, window);
        let per_window = if samples.len() >= 2 * window {
            window
        } else {
            samples.len()
        };
        let (_, pct) = tail(&vec![0.0; per_window]);
        self.note(&format!("{what}_samples"), samples.len().to_string());
        self.note(&format!("{what}_window"), per_window.to_string());
        self.note(&format!("{what}_tail_percentile"), format!("{pct:.2}"));
        self.metric(p50, "ms", m, samples.to_vec());
        self.metric(tail_name, "ms", t, samples.to_vec());
    }

    fn quality(&mut self, q: &[Quality]) {
        let pick = |f: fn(&Quality) -> f64| q.iter().map(f).collect::<Vec<_>>();
        self.note("quality_rankings", q.len().to_string());
        for (name, unit, values) in [
            ("ndcg_mean", "ratio", pick(|q| q.ndcg)),
            ("pfair_known_pct", "%", pick(|q| q.pfair_known)),
            ("pfair_unknown_pct", "%", pick(|q| q.pfair_unknown)),
        ] {
            self.metric(name, unit, mean(&values), values);
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Start a `fairrank serve` replica with `nproc` workers and I/O
/// threads: the process and its set-up time (spawn to the first
/// `GET /readyz` 200) in seconds.
pub fn start_server(ctx: &Ctx) -> Result<(Proc, f64), String> {
    let started = Instant::now();
    let server = Proc::start(&ctx.fairrank, &serve_args(nproc()))?;
    Ok((server, secs(started.elapsed())))
}

/// Set-up times of `SETUP_RUNS / 2` fresh replicas, each stopped at
/// once (a run samples half before and half after its measurements).
fn setup_half(ctx: &Ctx) -> Result<Vec<f64>, String> {
    (0..SETUP_RUNS / 2)
        .map(|_| start_server(ctx).map(|(_, s)| s))
        .collect()
}

/// Run `items` through `f` on `nproc` checking threads, each with its
/// own [`Checker`]; results come back in item order.
pub fn par_check<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&mut Checker, &T) -> R + Sync,
) -> Vec<R> {
    let threads = nproc().min(items.len()).max(1);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut checker = Checker::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(&mut checker, item);
                    out.lock().expect("results lock").push((i, r));
                }
            });
        }
    });
    let mut out = out.into_inner().expect("results lock");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The CLI leg: `fairrank rank` runs on the workload's pools, each
/// output checked; interleaved with the HTTP measurements so both
/// sample the whole run.
struct CliLeg {
    input: std::path::PathBuf,
    /// Runs attempted (the next run's pool index).
    runs: usize,
    times: Vec<f64>,
    busy: f64,
}

impl CliLeg {
    fn new(ctx: &Ctx) -> CliLeg {
        CliLeg {
            input: ctx.work.join("pool.csv"),
            runs: 0,
            times: Vec::new(),
            busy: 0.0,
        }
    }

    /// One checked `fairrank rank` run on `req` (writing its CSV is
    /// not timed).
    fn run(&mut self, ctx: &Ctx, req: &Request, report: &mut Report) {
        let started = Instant::now();
        self.runs += 1;
        let input = self.input.to_string_lossy().into_owned();
        let result = std::fs::write(&self.input, req.csv())
            .map_err(|e| format!("cannot write {input}: {e}"))
            .and_then(|()| {
                let t0 = Instant::now();
                let out = Command::new(&ctx.fairrank)
                    .args(req.cli_args(&input))
                    .stdin(Stdio::null())
                    .stderr(Stdio::null())
                    .output()
                    .map_err(|e| format!("cannot run fairrank rank: {e}"))?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if !out.status.success() {
                    return Err(format!("fairrank rank exited with {}", out.status));
                }
                check_cli(req, &String::from_utf8_lossy(&out.stdout))?;
                Ok(ms)
            });
        report.outcome(&result);
        if let Ok(ms) = result {
            self.times.push(ms);
        }
        self.busy += secs(started.elapsed());
    }

    fn finish(self, report: &mut Report) {
        report.windowed("cli", "cli_p50_ms", "cli_tail_ms", &self.times, CLI_WINDOW);
    }
}

/// `large_pool`: one client, closed loop, mallows best-of-15 at n≈10⁵
/// over HTTP, interleaved with `fairrank rank` on the same pools
/// (`LARGE_CLI_SHARE` of the time).
pub fn large_pool(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = setup_half(ctx)?;
    let (server, s) = start_server(ctx)?;
    setup.push(s);
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut cli = CliLeg::new(ctx);
    let started = Instant::now();
    let mut http_busy = 0.0;
    let mut responses = Vec::new();
    let mut latencies = Vec::new();
    let mut peak_rss = 0.0;
    let mut i = 0;
    while i < LARGE_QUALITY_PREFIX || cli.runs < 11 || secs(started.elapsed()) < ctx.seconds {
        if cli.busy * (1.0 - LARGE_CLI_SHARE) < http_busy * LARGE_CLI_SHARE {
            let req = gen::large_request(ctx.seed, cli.runs);
            cli.run(ctx, &req, &mut report);
            continue;
        }
        let req = gen::large_request(ctx.seed, i);
        let t0 = Instant::now();
        let resp = conn.request("POST", "/rank", req.body.as_bytes());
        let elapsed = t0.elapsed();
        http_busy += secs(elapsed);
        match resp {
            Ok(r) => {
                latencies.push(elapsed.as_secs_f64() * 1e3);
                responses.push((i, r.status, r.text()));
            }
            Err(e) => report.outcome::<()>(&Err(e.to_string())),
        }
        i += 1;
        if i == LARGE_QUALITY_PREFIX {
            peak_rss = server.peak_rss_mb();
        }
    }
    drop(conn);
    drop(server);
    setup.extend(setup_half(ctx)?);
    report.metric("setup_s", "s", median(&setup), setup);

    let checked = par_check(&responses, |c, (i, status, body)| {
        c.check_rank(&gen::large_request(ctx.seed, *i), *status, body)
    });
    let mut quality = Vec::new();
    let mut ok = 0usize;
    for ((i, _, _), result) in responses.iter().zip(&checked) {
        report.outcome(result);
        if let Ok(q) = result {
            ok += 1;
            if *i < LARGE_QUALITY_PREFIX {
                quality.push(*q);
            }
        }
    }
    drop(responses);
    report.windowed(
        "latency",
        "latency_p50_ms",
        "latency_tail_ms",
        &latencies,
        latencies.len(),
    );
    report.metric("chunks_per_s", "1/s", ok as f64 / http_busy, vec![]);
    report.metric("peak_rss_mb", "MiB", peak_rss, vec![]);
    report.quality(&quality);
    cli.finish(&mut report);
    Ok(report)
}

/// Pause between `GET /jobs/{id}` polls: each poll is a request the
/// server's I/O thread answers while the batch runs.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Longest a batch may take before the run counts it as failed.
const BATCH_TIMEOUT: Duration = Duration::from_secs(60);

/// Submit one batch and poll it until terminal: `(id, latency_ms, body)`.
pub fn run_batch(conn: &mut Conn, body: &str) -> Result<(u64, f64, String), String> {
    let t0 = Instant::now();
    let r = conn
        .request("POST", "/jobs", body.as_bytes())
        .map_err(|e| e.to_string())?;
    if r.status != 202 {
        return Err(format!("POST /jobs answered {}: {}", r.status, r.text()));
    }
    let text = r.text();
    let id: u64 = text
        .strip_prefix("{\"id\":")
        .and_then(|rest| rest.split(',').next()?.parse().ok())
        .ok_or_else(|| format!("no job id in {text}"))?;
    let path = format!("/jobs/{id}");
    loop {
        let r = conn.request("GET", &path, b"").map_err(|e| e.to_string())?;
        let text = r.text();
        if text.contains("\"results\":") {
            return Ok((id, t0.elapsed().as_secs_f64() * 1e3, text));
        }
        if t0.elapsed() > BATCH_TIMEOUT {
            return Err(format!("batch {id} unfinished after {BATCH_TIMEOUT:?}"));
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// `paper_sweep`: sweep repetitions as `/jobs` batches in a closed loop
/// (at least `SWEEP_QUALITY_BATCHES`), interleaved with CLI runs on
/// sweep pools (`SWEEP_CLI_SHARE` of the time).
pub fn paper_sweep(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = setup_half(ctx)?;
    let (server, s) = start_server(ctx)?;
    setup.push(s);
    let data = gen::credit_data(ctx.seed);
    let cli_pools: Vec<Request> = (0..2)
        .flat_map(|k| gen::sweep_batch(&data, ctx.seed, 100_000 + k))
        .filter(|c| c.scores().len() == 100)
        .collect();
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut cli = CliLeg::new(ctx);
    let started = Instant::now();
    let mut batch_busy = 0.0;
    let mut batches = Vec::new();
    let mut latencies = Vec::new();
    let mut peak_rss = 0.0;
    let mut b = 0;
    while b < SWEEP_QUALITY_BATCHES || secs(started.elapsed()) < ctx.seconds {
        if cli.busy * (1.0 - SWEEP_CLI_SHARE) < batch_busy * SWEEP_CLI_SHARE {
            let req = &cli_pools[cli.runs % cli_pools.len()];
            cli.run(ctx, req, &mut report);
            continue;
        }
        let chunks = gen::sweep_batch(&data, ctx.seed, b);
        match run_batch(&mut conn, &gen::batch_body(&chunks)) {
            Ok((id, ms, body)) => {
                batch_busy += ms / 1e3;
                latencies.push(ms);
                batches.push((b, id, body));
            }
            Err(e) => report.outcome::<()>(&Err(e)),
        }
        b += 1;
        if b == SWEEP_QUALITY_BATCHES {
            peak_rss = server.peak_rss_mb();
        }
    }
    drop(conn);
    drop(server);
    setup.extend(setup_half(ctx)?);
    report.metric("setup_s", "s", median(&setup), setup);

    let checked = par_check(&batches, |c, (b, id, body)| {
        let chunks = gen::sweep_batch(&data, ctx.seed, *b);
        c.check_batch(*id, &chunks, body).map(|q| (chunks.len(), q))
    });
    let mut quality = Vec::new();
    let mut chunks_done = 0usize;
    for ((b, _, _), result) in batches.iter().zip(checked) {
        match result {
            Ok((n, q)) => {
                report.attempted += n as u64;
                chunks_done += n;
                if *b < SWEEP_QUALITY_BATCHES {
                    quality.extend(q);
                }
            }
            Err(e) => report.outcome::<()>(&Err(e)),
        }
    }
    report.windowed(
        "latency",
        "latency_p50_ms",
        "latency_tail_ms",
        &latencies,
        SWEEP_WINDOW,
    );
    report.metric(
        "chunks_per_s",
        "1/s",
        chunks_done as f64 / batch_busy,
        vec![],
    );
    report.metric("peak_rss_mb", "MiB", peak_rss, vec![]);
    report.quality(&quality);
    cli.finish(&mut report);
    Ok(report)
}

/// Remove a temporary directory tree (best effort).
pub fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}
