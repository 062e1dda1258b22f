//! A minimal keep-alive HTTP/1.1 client: `content-length` framing
//! only, which is all `fairrank serve` and `fairrank router` speak.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One response.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text (lossy; the servers only send UTF-8).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection that redials when the server closes it.
pub struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    out: Vec<u8>,
}

const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn dial(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

impl Conn {
    /// Connect to `host:port`.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        Ok(Conn {
            addr: addr.to_string(),
            stream: Some(dial(addr)?),
            buf: Vec::with_capacity(1 << 16),
            out: Vec::with_capacity(1 << 16),
        })
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            self.buf.clear();
            self.stream = Some(dial(&self.addr)?);
        }
        Ok(self.stream.as_mut().expect("dialled above"))
    }

    fn write_head(&mut self, method: &str, path: &str, body_len: usize, expect: bool) {
        self.out.clear();
        let _ = write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {body_len}\r\n",
            self.addr
        );
        if expect {
            self.out.extend_from_slice(b"expect: 100-continue\r\n");
        }
        self.out.extend_from_slice(b"\r\n");
    }

    /// Send one request and read its response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.write_head(method, path, body.len(), false);
        self.out.extend_from_slice(body);
        let result = self.exchange();
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self) -> io::Result<Response> {
        let out = std::mem::take(&mut self.out);
        let written = self.stream()?.write_all(&out);
        self.out = out;
        written?;
        self.read_response()
    }

    /// Send a request the way curl sends bodies over 1 KiB: headers
    /// with `Expect: 100-continue`, then wait up to one second for an
    /// interim `100 Continue` before sending the body anyway.
    pub fn request_expect_continue(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.write_head("POST", path, body.len(), true);
        let head = std::mem::take(&mut self.out);
        let stream = self.stream()?;
        stream.write_all(&head)?;
        self.out = head;
        let stream = self.stream()?;
        stream.set_read_timeout(Some(Duration::from_secs(1)))?;
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut chunk = [0u8; 4096];
        while Instant::now() < deadline && find_head_end(&self.buf).is_none() {
            match self.stream.as_mut().expect("dialled").read(&mut chunk) {
                Ok(0) => return Err(io::Error::other("closed while awaiting 100")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
        let stream = self.stream.as_mut().expect("dialled");
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.write_all(body)?;
        let result = self.read_response();
        self.stream = None;
        result
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.as_mut().expect("dialled").read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        loop {
            let head_end = loop {
                if let Some(end) = find_head_end(&self.buf) {
                    break end;
                }
                self.fill()?;
            };
            let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
            let status: u16 = head
                .get(9..12)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| io::Error::other(format!("bad status line: {head:?}")))?;
            let mut content_length = 0usize;
            let mut close = false;
            for line in head.lines().skip(1) {
                if let Some((name, value)) = line.split_once(':') {
                    let value = value.trim();
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value
                            .parse()
                            .map_err(|_| io::Error::other("bad content-length"))?;
                    } else if name.eq_ignore_ascii_case("connection") {
                        close = value.eq_ignore_ascii_case("close");
                    }
                }
            }
            if status == 100 {
                self.buf.drain(..head_end);
                continue;
            }
            while self.buf.len() < head_end + content_length {
                self.fill()?;
            }
            let body = self.buf[head_end..head_end + content_length].to_vec();
            self.buf.drain(..head_end + content_length);
            if close {
                self.stream = None;
            }
            return Ok(Response { status, body });
        }
    }
}

/// One request on a fresh connection (probes and scrapes).
pub fn get(addr: &str, path: &str) -> io::Result<Response> {
    Conn::connect(addr)?.request("GET", path, b"")
}
