//! fairrank's benchmark harness.
//!
//! ```text
//! perfbench --fairrank <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the release `fairrank` binaries (`serve`,
//! `rank`) on the named workload's seeded inputs, checks
//! every output and reports the end-to-end metrics. With `--trace 1` it
//! calls each layer's public functions in-process on the same inputs
//! and reads the server's counters from outside, and reports the
//! per-layer split. The next-to-last stdout line is a JSON record
//! (host, source version, sample counts, quartiles, workload
//! parameters); the last line is the JSON result.
//! See `perfbench/WORKLOADS.md`.

#![forbid(unsafe_code)]

mod check;
mod gen;
mod http;
mod procs;
mod run;
mod stats;
mod trace;

use run::{Ctx, Report};
use std::path::Path;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["large_pool", "paper_sweep"];

struct Args {
    fairrank: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        fairrank: String::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--fairrank" => args.fairrank = value,
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !Path::new(&args.fairrank).is_file() {
        return Err(format!("no fairrank binary at {:?}", args.fairrank));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// FNV-1a digest of the sources the binaries are built from, so a
/// record names the code it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for dir in ["src", "crates", "shims"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_short_hash() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(args: &Args, report: &Report) -> Result<(), String> {
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    let summaries: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let samples = if m.samples.is_empty() {
                vec![m.value]
            } else {
                m.samples.clone()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit),
                stats::summary_json(&samples)
            )
        })
        .collect();
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    let errors: Vec<String> = report.errors.iter().map(|e| json_string(e)).collect();
    println!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"git\":{},\"source_digest\":{},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"errors\":[{}],\"metrics\":{{{}}},\"notes\":{{{}}}}}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procs::nproc(),
        json_string(&git_short_hash()),
        json_string(&source_digest()),
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        errors.join(","),
        summaries.join(","),
        notes.join(",")
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = Path::new(".bench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        fairrank: args.fairrank.clone(),
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let result = if args.trace {
        trace::run(&ctx, &args.workload)
    } else {
        match args.workload.as_str() {
            "large_pool" => run::large_pool(&ctx),
            _ => run::paper_sweep(&ctx),
        }
    };
    run::remove_dir(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result.and_then(|report| print_report(&args, &report)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
