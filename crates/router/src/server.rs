//! The router's own HTTP front.
//!
//! Thread-per-connection with keep-alive: the router is I/O-bound (it
//! holds a connection open while a backend computes), so a blocked
//! thread per client connection is the right shape — unlike the
//! engine's reactor, there is no CPU work to protect. Buffers are
//! per-connection and reused across requests.
//!
//! Every response carries `x-trace-id` (the router's own id for the
//! hop). Forwarded responses add `x-backend` (the owning replica) and
//! `x-backend-trace-id` (the replica's `x-trace-id`), so a trace can
//! be joined across tiers. Bodies are forwarded byte-for-byte.

use crate::{jobs, metrics, ForwardOutcome, RouterCore};
use fairrank_engine::json::JsonArena;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request body (matches a generous batch submit).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// Keep-alive requests served per client connection.
const MAX_CONN_REQUESTS: usize = 1024;

/// Keep-alive idle timeout on client connections.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound, not-yet-serving router front.
pub struct RouterServer {
    core: Arc<RouterCore>,
    listener: TcpListener,
}

/// Handle to a running router: address, stop flag, service threads.
pub struct RouterHandle {
    core: Arc<RouterCore>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterServer {
    pub fn bind(addr: &str, core: Arc<RouterCore>) -> std::io::Result<RouterServer> {
        Ok(RouterServer {
            core,
            listener: TcpListener::bind(addr)?,
        })
    }

    /// Start the accept loop and the `/readyz` prober.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        let prober_core = Arc::clone(&self.core);
        let prober_stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            // the first round runs immediately so the ring fills as
            // soon as backends answer, not one interval later
            while !prober_stop.load(Ordering::SeqCst) {
                prober_core.probe_once();
                let interval = prober_core.config.probe_interval;
                let mut slept = Duration::ZERO;
                // sleep in small slices so shutdown stays prompt
                while slept < interval && !prober_stop.load(Ordering::SeqCst) {
                    let slice = Duration::from_millis(20).min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        }));

        let accept_core = Arc::clone(&self.core);
        let accept_stop = Arc::clone(&stop);
        let listener = self.listener;
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let core = Arc::clone(&accept_core);
                let stop = Arc::clone(&accept_stop);
                std::thread::spawn(move || handle_connection(&core, stream, &stop));
            }
        }));

        Ok(RouterHandle {
            core: self.core,
            addr,
            stop,
            threads,
        })
    }
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn core(&self) -> &Arc<RouterCore> {
        &self.core
    }

    /// Stop accepting and probing, then join the service threads.
    /// Connections mid-request finish their current response and
    /// close (the keep-alive loop re-checks the stop flag).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Per-connection reusable buffers.
struct ConnBuffers {
    input: Vec<u8>,
    response: Vec<u8>,
    scratch: Vec<u8>,
    arena: JsonArena,
}

fn handle_connection(core: &Arc<RouterCore>, mut stream: TcpStream, stop: &Arc<AtomicBool>) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() {
        return;
    }
    let mut buffers = ConnBuffers {
        input: Vec::with_capacity(4096),
        response: Vec::with_capacity(4096),
        scratch: Vec::with_capacity(4096),
        arena: JsonArena::new(),
    };
    for served in 0..MAX_CONN_REQUESTS {
        let Some(request) = read_request(&mut stream, &mut buffers.input) else {
            return;
        };
        let keep_alive =
            request.keep_alive && served + 1 < MAX_CONN_REQUESTS && !stop.load(Ordering::SeqCst);
        let answer = dispatch(core, &request, &mut buffers);
        let trace_id = next_trace_id();
        buffers.response.clear();
        write_response(&mut buffers.response, &answer, trace_id, keep_alive);
        if stream.write_all(&buffers.response).is_err() {
            return;
        }
        let consumed = request.consumed;
        buffers.input.drain(..consumed);
        if !keep_alive {
            return;
        }
    }
}

/// A parsed client request (borrowing nothing: the front copies the
/// few strings it needs so the input buffer can be drained).
struct Request {
    method: String,
    path: String,
    body_start: usize,
    body_len: usize,
    consumed: usize,
    keep_alive: bool,
}

impl Request {
    fn body<'a>(&self, input: &'a [u8]) -> &'a [u8] {
        &input[self.body_start..self.body_start + self.body_len]
    }
}

/// Read one `content-length`-framed request. `None` ends the
/// connection (EOF, timeout, malformed head, oversized body).
fn read_request(stream: &mut TcpStream, input: &mut Vec<u8>) -> Option<Request> {
    let head_end = loop {
        if let Some(pos) = input.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if input.len() > 64 * 1024 {
            return None;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => input.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&input[..head_end]).ok()?;
    let mut lines = head.lines();
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let mut content_length = 0usize;
    let mut keep_alive = true;
    let mut expect_continue = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("expect") {
            expect_continue = value.eq_ignore_ascii_case("100-continue");
        }
    }
    if content_length > MAX_BODY {
        return None;
    }
    if expect_continue && input.len() < head_end + content_length {
        // the client holds the body back until told to send it (or
        // until its own timeout, about a second for curl); only reached
        // once the size check above has passed
        stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").ok()?;
    }
    while input.len() < head_end + content_length {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => input.extend_from_slice(&chunk[..n]),
        }
    }
    Some(Request {
        method,
        path,
        body_start: head_end,
        body_len: content_length,
        consumed: head_end + content_length,
        keep_alive,
    })
}

/// A fully decided response, ready for framing.
struct Answer {
    status: u16,
    body: Vec<u8>,
    content_type: &'static str,
    backend: Option<String>,
    backend_trace: Option<String>,
    retry_after: Option<u64>,
}

impl Answer {
    fn json(status: u16, body: String) -> Answer {
        Answer {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            backend: None,
            backend_trace: None,
            retry_after: None,
        }
    }

    fn no_backends() -> Answer {
        Answer::json(503, "{\"error\":\"no backends ready\"}".to_string())
    }
}

fn dispatch(core: &Arc<RouterCore>, request: &Request, buffers: &mut ConnBuffers) -> Answer {
    let body = request.body(&buffers.input);
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => Answer::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"backends_configured\":{},\"backends_ready\":{}}}",
                core.backends().len(),
                core.ready_count()
            ),
        ),
        ("GET", "/readyz") => {
            let ready = core.ready_count();
            if ready > 0 {
                Answer::json(
                    200,
                    format!("{{\"status\":\"ready\",\"backends_ready\":{ready}}}"),
                )
            } else {
                Answer::json(
                    503,
                    "{\"status\":\"unready\",\"backends_ready\":0}".to_string(),
                )
            }
        }
        ("GET", "/metrics") => {
            let mut out = String::new();
            metrics::render(core, &mut out, &mut buffers.scratch);
            Answer {
                status: 200,
                body: out.into_bytes(),
                content_type: "text/plain; version=0.0.4",
                backend: None,
                backend_trace: None,
                retry_after: None,
            }
        }
        ("POST", "/rank" | "/aggregate" | "/pipeline") => {
            let key = request_key(path, body, &mut buffers.arena);
            match core.forward(method, path, body, key, &mut buffers.scratch) {
                ForwardOutcome::NoBackends => Answer::no_backends(),
                ForwardOutcome::Forwarded { backend, response } => Answer {
                    status: response.status,
                    content_type: content_type_static(&response.content_type),
                    retry_after: response.retry_after,
                    body: response.body,
                    backend: Some(backend),
                    backend_trace: response.trace_id,
                },
            }
        }
        ("POST", "/jobs") => {
            let key = request_key(path, body, &mut buffers.arena);
            answer_from_job(jobs::submit(core, body, key, &mut buffers.scratch))
        }
        ("GET", _) if path.starts_with("/jobs/") => answer_from_job(jobs::poll(
            core,
            &path["/jobs/".len()..],
            "GET",
            &mut buffers.scratch,
        )),
        ("DELETE", _) if path.starts_with("/jobs/") => answer_from_job(jobs::poll(
            core,
            &path["/jobs/".len()..],
            "DELETE",
            &mut buffers.scratch,
        )),
        ("GET" | "POST" | "DELETE", _) => {
            Answer::json(404, "{\"error\":\"no such route\"}".to_string())
        }
        _ => Answer::json(405, "{\"error\":\"method not allowed\"}".to_string()),
    }
}

fn answer_from_job(answer: jobs::JobAnswer) -> Answer {
    Answer {
        status: answer.status,
        body: answer.body,
        content_type: "application/json",
        backend: answer.backend,
        backend_trace: answer.backend_trace,
        retry_after: None,
    }
}

/// The ring key for a request: the engine's cache digest when the
/// body parses, a raw-byte FNV otherwise (the request is forwarded
/// either way — the backend owns the error response).
fn request_key(path: &str, body: &[u8], arena: &mut JsonArena) -> u64 {
    fairrank_engine::server::ring_key(path, body, arena).unwrap_or_else(|| {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in body {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    })
}

/// Map a backend content-type onto the router's static strings (the
/// engine only ever serves these two).
fn content_type_static(content_type: &str) -> &'static str {
    if content_type.starts_with("text/plain") {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    }
}

fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_response(out: &mut Vec<u8>, answer: &Answer, trace_id: u64, keep_alive: bool) {
    use std::fmt::Write as _;
    let mut head = String::with_capacity(256);
    let _ = write!(
        head,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nx-trace-id: {trace_id}\r\n",
        answer.status,
        reason(answer.status),
        answer.content_type,
        answer.body.len()
    );
    if let Some(backend) = &answer.backend {
        let _ = write!(head, "x-backend: {backend}\r\n");
    }
    if let Some(backend_trace) = &answer.backend_trace {
        let _ = write!(head, "x-backend-trace-id: {backend_trace}\r\n");
    }
    if let Some(secs) = answer.retry_after {
        let _ = write!(head, "retry-after: {secs}\r\n");
    }
    if !keep_alive {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&answer.body);
}
