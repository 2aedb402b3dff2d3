//! A minimal blocking HTTP/1.1 client over `TcpStream`.
//!
//! Shared by `dice-serve-loadgen`, the fabric coordinator and the
//! integration tests; it speaks exactly the dialect the server emits
//! (`Connection: close`, explicit `Content-Length`). Header and
//! chunked-body decoding are shared with the server codec in
//! [`crate::http`] rather than duplicated here.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use dice_obs::Json;

use crate::http::{read_chunked_body, read_header_lines};
use crate::sse::sse_data_lines;

/// Default socket read/write timeout for client requests.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Case-insensitive header lookup (name must be given lower-case).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// `GET path` against `addr` (`host:port`).
///
/// # Errors
///
/// Propagates connect/transport failures and malformed responses.
pub fn http_get(addr: &str, path: &str) -> io::Result<ClientResponse> {
    request(addr, "GET", path, None, DEFAULT_TIMEOUT)
}

/// `POST path` with a JSON body against `addr` (`host:port`).
///
/// # Errors
///
/// Propagates connect/transport failures and malformed responses.
pub fn http_post(addr: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body), DEFAULT_TIMEOUT)
}

/// Follows `GET /v1/sweeps/:id/events` until the stream closes and
/// returns the state its final `end` record names (`done`, `failed`,
/// `cancelled`), or `None` if the stream closed without one.
///
/// # Errors
///
/// [`io::ErrorKind::TimedOut`] if the stream is still open after
/// `budget`; otherwise propagates connect/transport failures and
/// malformed responses.
pub fn wait_sweep_end(addr: &str, id: &str, budget: Duration) -> io::Result<Option<String>> {
    let stream = send(
        addr,
        "GET",
        &format!("/v1/sweeps/{id}/events"),
        None,
        budget,
    )?;
    let at = Instant::now() + budget;
    let events = read_response(&mut BufReader::new(Deadline { stream, at }))?;
    let last = sse_data_lines(&events.text()).pop();
    Ok(last.and_then(|line| {
        let end = Json::parse(&line)
            .ok()
            .filter(|doc| doc.get("event").and_then(Json::as_str) == Some("end"))?;
        Some(end.get("state")?.as_str()?.to_owned())
    }))
}

/// `GET path` with an explicit socket timeout (connect, read and write).
///
/// # Errors
///
/// Propagates connect/transport failures and malformed responses.
pub fn http_get_timeout(addr: &str, path: &str, timeout: Duration) -> io::Result<ClientResponse> {
    request(addr, "GET", path, None, timeout)
}

/// `POST path` with an explicit socket timeout (connect, read and write).
/// The fabric coordinator uses this to bound how long a scattered cell
/// may hold a worker connection before the node is declared dead.
///
/// # Errors
///
/// Propagates connect/transport failures and malformed responses.
pub fn http_post_timeout(
    addr: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body), timeout)
}

/// Why a health probe failed — the distinction the coordinator's
/// breaker logic runs on.
///
/// A plain `io::Error` conflates two very different worlds: a
/// **connection refused** means the kernel answered for a process that
/// is gone (declare the node dead), while a **timeout** means something
/// is there but slow (keep the breaker open and try again later).
/// `http_probe` splits the connect and read phases so the two cannot be
/// confused, and names each failure for the
/// `fabric.probe.failed.{refused,connect_timeout,read_timeout,other}`
/// counters.
#[derive(Debug)]
pub enum ProbeError {
    /// The kernel refused the connection — no process is listening.
    Refused,
    /// The TCP connect did not complete within the connect timeout
    /// (unreachable host, wedged accept queue).
    ConnectTimeout,
    /// Connected, but the response did not arrive within the read
    /// timeout — the process is alive but slow.
    ReadTimeout,
    /// Any other transport or parse failure.
    Other(io::Error),
}

impl ProbeError {
    /// The metric-label spelling of this failure class.
    #[must_use]
    pub fn kind_str(&self) -> &'static str {
        match self {
            ProbeError::Refused => "refused",
            ProbeError::ConnectTimeout => "connect_timeout",
            ProbeError::ReadTimeout => "read_timeout",
            ProbeError::Other(_) => "other",
        }
    }
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::Refused => write!(f, "connection refused"),
            ProbeError::ConnectTimeout => write!(f, "connect timed out"),
            ProbeError::ReadTimeout => write!(f, "read timed out"),
            ProbeError::Other(e) => write!(f, "{e}"),
        }
    }
}

/// `GET path` with split connect and read timeouts, classifying every
/// failure as a [`ProbeError`].
///
/// # Errors
///
/// Returns [`ProbeError::Refused`] when nothing is listening,
/// [`ProbeError::ConnectTimeout`] / [`ProbeError::ReadTimeout`] for the
/// respective phase timeouts, and [`ProbeError::Other`] for everything
/// else.
pub fn http_probe(
    addr: &str,
    path: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<ClientResponse, ProbeError> {
    let sock = addr
        .to_socket_addrs()
        .map_err(ProbeError::Other)?
        .next()
        .ok_or_else(|| {
            ProbeError::Other(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        })?;
    let mut stream =
        TcpStream::connect_timeout(&sock, connect_timeout).map_err(|e| match e.kind() {
            io::ErrorKind::ConnectionRefused => ProbeError::Refused,
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ProbeError::ConnectTimeout,
            _ => ProbeError::Other(e),
        })?;
    let classify_read = |e: io::Error| match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ProbeError::ReadTimeout,
        _ => ProbeError::Other(e),
    };
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(ProbeError::Other)?;
    stream
        .set_write_timeout(Some(read_timeout))
        .map_err(ProbeError::Other)?;
    stream.set_nodelay(true).map_err(ProbeError::Other)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .map_err(classify_read)?;
    stream.flush().map_err(classify_read)?;
    read_response(&mut BufReader::new(stream)).map_err(classify_read)
}

/// A stream whose reads fail with [`io::ErrorKind::TimedOut`] once the
/// wall-clock deadline `at` passes, however the bytes trickle in.
struct Deadline {
    stream: TcpStream,
    at: Instant,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
            _ => e,
        })
    }
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let stream = send(addr, method, path, body, timeout)?;
    read_response(&mut BufReader::new(stream))
}

/// Connects and writes one request; the response is left unread.
fn send(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{body}",
        body.len(),
        if body.is_empty() {
            ""
        } else {
            "Content-Type: application/json\r\n"
        },
    )?;
    stream.flush()?;
    Ok(stream)
}

fn malformed(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Parses one response off `reader` (status line, headers,
/// `Content-Length` body, chunked body, or read-to-EOF).
///
/// # Errors
///
/// Propagates transport failures; malformed responses become
/// `InvalidData`.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed("bad status line"))?;

    let headers = read_header_lines(reader)?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let mut body = Vec::new();
    if chunked {
        read_chunked_body(reader, &mut body)?;
    } else {
        match content_length {
            Some(len) => {
                body.resize(len, 0);
                reader.read_exact(&mut body)?;
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_chunked_bodies() {
        let raw: &[u8] = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                           5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n";
        let resp = read_response(&mut BufReader::new(raw)).expect("valid");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "hello, world");
    }

    #[test]
    fn parses_response() {
        let raw: &[u8] =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 5\r\n\r\nhello";
        let resp = read_response(&mut BufReader::new(raw)).expect("valid");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.text(), "hello");
    }

    #[test]
    fn reads_to_eof_without_content_length() {
        let raw: &[u8] = b"HTTP/1.1 200 OK\r\n\r\nrest";
        let resp = read_response(&mut BufReader::new(raw)).expect("valid");
        assert_eq!(resp.body, b"rest");
    }

    #[test]
    fn rejects_garbage() {
        let raw: &[u8] = b"not http at all";
        assert!(read_response(&mut BufReader::new(raw)).is_err());
    }

    #[test]
    fn probe_classifies_refused() {
        // Bind then drop: the port is provably ours and provably closed.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);
        match http_probe(
            &addr,
            "/healthz",
            Duration::from_secs(2),
            Duration::from_secs(2),
        ) {
            Err(ProbeError::Refused) => {}
            other => panic!("expected Refused, got {other:?}"),
        }
    }

    #[test]
    fn probe_classifies_read_timeout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // Accept, then go silent: alive but unresponsive.
        let holder = std::thread::spawn(move || {
            let conn = listener.accept();
            std::thread::sleep(Duration::from_millis(400));
            drop(conn);
        });
        match http_probe(
            &addr,
            "/healthz",
            Duration::from_secs(2),
            Duration::from_millis(100),
        ) {
            Err(ProbeError::ReadTimeout) => {}
            other => panic!("expected ReadTimeout, got {other:?}"),
        }
        holder.join().expect("holder thread");
    }

    #[test]
    fn probe_error_kinds_are_stable_labels() {
        assert_eq!(ProbeError::Refused.kind_str(), "refused");
        assert_eq!(ProbeError::ConnectTimeout.kind_str(), "connect_timeout");
        assert_eq!(ProbeError::ReadTimeout.kind_str(), "read_timeout");
        let other = ProbeError::Other(io::Error::new(io::ErrorKind::BrokenPipe, "x"));
        assert_eq!(other.kind_str(), "other");
    }
}
