//! Spawning, readiness-waiting and stopping `fairrank serve` and
//! `fairrank router` processes.

use crate::http;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `fairrank` server process; killed and reaped on drop.
pub struct Proc {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Proc {
    /// Spawn `fairrank <args>` (which must announce `… on http://ADDR …`
    /// on its first stdout line) and wait until `/readyz` answers 200.
    pub fn start(fairrank: &str, args: &[String]) -> Result<Proc, String> {
        let started = Instant::now();
        let mut child = Command::new(fairrank)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {fairrank}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let proc = Proc {
            child,
            addr: addr.clone().unwrap_or_default(),
        };
        if read.is_err() || addr.is_none() {
            return Err(format!(
                "`fairrank {}` announced no address: {line:?}",
                args.join(" ")
            ));
        }
        let deadline = started + Duration::from_secs(30);
        loop {
            if let Ok(r) = http::get(&proc.addr, "/readyz") {
                if r.status == 200 {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err(format!("{} never became ready", proc.addr));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(proc)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Worker, I/O-thread and connection cap: the host's CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Arguments of `fairrank serve` as the benchmark runs it: `nproc`
/// workers and `io_threads` keep-alive I/O threads.
pub fn serve_args(io_threads: usize) -> Vec<String> {
    [
        "serve",
        "--port",
        "0",
        "--workers",
        &nproc().to_string(),
        "--io-threads",
        &io_threads.to_string(),
        "--max-conn-requests",
        "1000000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Arguments of `fairrank router` in front of one backend.
pub fn router_args(backend: &str) -> Vec<String> {
    [
        "router",
        "--port",
        "0",
        "--backend",
        backend,
        "--probe-ms",
        "20",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}
