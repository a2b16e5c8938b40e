//! The load generator's own HTTP/1.1 client.
//!
//! Each request is handed to a `TCP_NODELAY` socket as one buffer, the
//! response is read by `Content-Length` (never to EOF, so the client
//! does not wait for whatever the server does after answering), and
//! the connection is kept for the next request whenever the response
//! allows it. A polling connection never sleeps in the kernel: its
//! socket is non-blocking and it yields the CPU between attempts.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Why a request failed; each kind is counted on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The TCP connect failed.
    Connect,
    /// Sending or receiving failed, or the server closed early.
    Io,
    /// The server answered with a status other than 200.
    Status(u16),
    /// The response was not valid HTTP or its body was not the
    /// expected JSON.
    Unparsable,
}

/// Points in time of one request, for the client's spans.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    pub start: Instant,
    /// After connect (equal to `start` on a reused connection).
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

impl Marks {
    fn new() -> Marks {
        let now = Instant::now();
        Marks {
            start: now,
            connected: now,
            sent: now,
            first_byte: now,
            done: now,
        }
    }
}

/// Renders a complete request (head and body) as one buffer.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One client connection slot.
pub struct Conn {
    addr: SocketAddr,
    spin: bool,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connections opened through this slot.
    pub connects: u64,
}

struct Head {
    status: u16,
    content_length: usize,
    keep_alive: bool,
    body_start: usize,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn::with_spin(addr, false)
    }

    /// A connection that polls its socket (yielding the CPU between
    /// polls) instead of blocking in the kernel.
    pub fn with_spin(addr: SocketAddr, spin: bool) -> Conn {
        Conn {
            addr,
            spin,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            connects: 0,
        }
    }

    /// Sends `request` and returns the response body of a `200`.
    pub fn request(&mut self, request: &[u8]) -> (Result<Vec<u8>, Failure>, Marks) {
        let mut marks = Marks::new();
        let reused = self.stream.is_some();
        let result = match self.exchange(request, &mut marks) {
            // A kept-alive connection the server has since closed fails
            // before any byte of the answer: retry once on a fresh one.
            Err(Failure::Io) if reused && self.buf.is_empty() => {
                marks = Marks::new();
                self.exchange(request, &mut marks)
            }
            other => other,
        };
        marks.done = Instant::now();
        if result.is_err() {
            self.stream = None;
        }
        (result, marks)
    }

    fn exchange(&mut self, request: &[u8], marks: &mut Marks) -> Result<Vec<u8>, Failure> {
        self.buf.clear();
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|_| Failure::Connect)?;
            stream.set_nodelay(true).map_err(|_| Failure::Connect)?;
            stream
                .set_nonblocking(self.spin)
                .map_err(|_| Failure::Connect)?;
            self.connects += 1;
            self.stream = Some(stream);
        }
        marks.connected = Instant::now();
        let stream = self.stream.as_mut().expect("connected above");
        let mut at = 0;
        while at < request.len() {
            match stream.write(&request[at..]) {
                Ok(0) => {
                    self.stream = None;
                    return Err(Failure::Io);
                }
                Ok(n) => at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.stream = None;
                    return Err(Failure::Io);
                }
            }
        }
        marks.sent = Instant::now();

        let mut chunk = [0u8; 16 * 1024];
        let head = loop {
            let n = match read_some(stream, &mut chunk) {
                Ok(0) | Err(_) => {
                    self.stream = None;
                    return Err(Failure::Io);
                }
                Ok(n) => n,
            };
            if self.buf.is_empty() {
                marks.first_byte = Instant::now();
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(head) = parse_head(&self.buf)? {
                break head;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(Failure::Unparsable);
            }
        };
        let total = head.body_start + head.content_length;
        while self.buf.len() < total {
            let n = match read_some(stream, &mut chunk) {
                Ok(0) | Err(_) => {
                    self.stream = None;
                    return Err(Failure::Io);
                }
                Ok(n) => n,
            };
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() > total {
            // Bytes beyond the declared body: the framing is broken.
            self.stream = None;
            return Err(Failure::Unparsable);
        }
        if !head.keep_alive {
            self.stream = None;
        }
        if head.status != 200 {
            return Err(Failure::Status(head.status));
        }
        Ok(self.buf[head.body_start..].to_vec())
    }
}

/// One `read`, retried while a non-blocking socket has nothing yet.
fn read_some(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match stream.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Parses the response head once it is complete; `Ok(None)` while more
/// bytes are needed.
fn parse_head(buf: &[u8]) -> Result<Option<Head>, Failure> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| Failure::Unparsable)?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or_default();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(Failure::Unparsable)?;
    let mut content_length = None;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| Failure::Unparsable)?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = if value.eq_ignore_ascii_case("close") {
                false
            } else {
                keep_alive || value.eq_ignore_ascii_case("keep-alive")
            };
        }
    }
    Ok(Some(Head {
        status,
        content_length: content_length.ok_or(Failure::Unparsable)?,
        keep_alive,
        body_start: end + 4,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_reads_length_and_connection() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc";
        let head = parse_head(raw).unwrap().unwrap();
        assert_eq!((head.status, head.content_length), (200, 3));
        assert!(!head.keep_alive);
        assert_eq!(&raw[head.body_start..], b"abc");
        let kept = parse_head(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(kept.keep_alive);
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n").unwrap().is_none());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
