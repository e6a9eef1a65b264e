//! A deliberately small HTTP/1.1 reader/writer over `std::net`.
//!
//! The workspace is offline, so there is no hyper/tokio: requests are
//! parsed from a `BufReader<TcpStream>` — request line, headers,
//! `Content-Length`-delimited body — and responses are written with
//! explicit lengths so connections can be kept alive. Only the features
//! the service needs exist: `GET`/`POST`, keep-alive, a body-size cap,
//! and a read-timeout-driven idle signal so workers can notice shutdown
//! while parked on an open connection.
//!
//! Both directions are deadline-bounded so a hostile or broken peer can
//! never park a worker forever:
//!
//! * **Reads** distinguish *idle* (no byte of a request yet — the
//!   caller keeps polling and can shut down) from *in progress* (the
//!   first byte arrived). From that first byte, the entire request —
//!   line, headers, body — must complete within the caller's request
//!   timeout; a slowloris client trickling one header byte per poll
//!   gets [`ReadOutcome::TimedOut`] (mapped to `408`) instead of a
//!   worker held hostage. Partial lines survive timeout polls: bytes
//!   already drained from the socket accumulate across attempts.
//! * **Writes** go out in bounded chunks under a short socket write
//!   timeout; a stalled reader (a peer that stops draining its receive
//!   buffer) makes [`write_response`] abort with `TimedOut` once the
//!   write deadline passes, instead of blocking in `write_all`.

use hm_engine::limits::Deadline;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest accepted request body; longer bodies get `413`.
pub(crate) const MAX_BODY: usize = 1 << 20;

/// Largest accepted request line or header line; longer is `400`. Keeps
/// a newline-free byte blast from growing a line buffer without bound
/// while the request deadline is still running.
const MAX_LINE: usize = MAX_BODY + 8 * 1024;

/// Upper bound on one socket write attempt, so the write deadline is
/// consulted at least this often while a response drains slowly.
const WRITE_CHUNK: usize = 16 * 1024;

/// Poll quantum for deadline-bounded socket writes.
const WRITE_POLL: Duration = Duration::from_millis(100);

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    /// `GET`, `POST`, … (uppercased by the client).
    pub method: String,
    /// The request target, e.g. `/query` or `/stats?window=60s`.
    pub path: String,
    /// The body (empty when no `Content-Length` was sent).
    pub body: String,
    /// `false` when the client asked for `Connection: close`.
    pub keep_alive: bool,
}

/// What [`read_request`] found on the wire.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The read timed out before the first byte: the connection is idle.
    /// The caller decides whether to keep waiting (and can check for
    /// shutdown in between).
    Idle,
    /// The peer closed the connection (clean EOF before a request line).
    Closed,
    /// The declared body exceeds [`MAX_BODY`].
    TooLarge,
    /// A request started arriving but did not complete within the
    /// request deadline (slow header or body trickle); answer `408` and
    /// close.
    TimedOut,
    /// Unparseable request line or headers; the connection should be
    /// answered with `400` and closed.
    Malformed(String),
}

/// `true` for the error kinds a socket read/write timeout surfaces as.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What one deadline-bounded line read produced.
enum LineRead {
    /// A complete line (newline-terminated) is in the buffer.
    Line,
    /// EOF before the newline; whatever arrived is in the buffer.
    Eof,
    /// The request deadline passed mid-line.
    TimedOut,
    /// The line outgrew [`MAX_LINE`] before its newline arrived.
    TooLong,
}

/// Reads one `\n`-terminated line into `buf`, checking `deadline`
/// *per buffered chunk* — not merely per socket timeout. This matters:
/// a peer trickling bytes at just under the socket poll interval never
/// produces a timeout error at all, so any implementation that only
/// consults the deadline on `WouldBlock` hands that peer a worker for
/// as long as it cares to keep dribbling. Bytes are decoded lossily
/// (invalid UTF-8 becomes U+FFFD and fails request parsing later).
fn read_line_by(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
    deadline: Deadline,
) -> io::Result<LineRead> {
    loop {
        if deadline.expired() {
            return Ok(LineRead::TimedOut);
        }
        if buf.len() > MAX_LINE {
            return Ok(LineRead::TooLong);
        }
        match reader.fill_buf() {
            Ok([]) => return Ok(LineRead::Eof),
            Ok(bytes) => {
                let newline = bytes.iter().position(|&b| b == b'\n');
                let take = newline.map_or(bytes.len(), |p| p + 1);
                buf.push_str(&String::from_utf8_lossy(&bytes[..take]));
                reader.consume(take);
                if newline.is_some() {
                    return Ok(LineRead::Line);
                }
            }
            Err(e) if is_timeout(&e) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Discards what the peer is still sending, until it closes, `cap`
/// bytes have gone, `deadline` passes or the socket fails. Closing a
/// socket with unread input makes the kernel answer with a reset, which
/// can destroy a response the peer has not read yet; a caller that
/// refuses a request before reading its body shuts down its write half
/// and drains here first.
pub(crate) fn drain_input(reader: &mut BufReader<TcpStream>, deadline: Deadline, mut cap: usize) {
    while cap > 0 && !deadline.expired() {
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(bytes) => {
                let n = bytes.len().min(cap);
                reader.consume(n);
                cap -= n;
            }
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Reads one request, honouring the stream's read timeout.
///
/// Before the first byte, every timeout poll returns
/// [`ReadOutcome::Idle`] so the caller can check for shutdown. From the
/// first byte on, the whole request must arrive within
/// `request_timeout`.
pub(crate) fn read_request(
    reader: &mut BufReader<TcpStream>,
    request_timeout: Duration,
) -> ReadOutcome {
    // Wait (idle) for the first byte without consuming it; its arrival
    // anchors the deadline that governs the rest of the request.
    let deadline;
    loop {
        match reader.fill_buf() {
            Ok([]) => return ReadOutcome::Closed,
            Ok(_) => {
                deadline = Deadline::after(request_timeout);
                break;
            }
            Err(e) if is_timeout(&e) => return ReadOutcome::Idle,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    let mut line = String::new();
    match read_line_by(reader, &mut line, deadline) {
        Ok(LineRead::Line) => {}
        Ok(LineRead::Eof) => return ReadOutcome::Malformed("truncated request line".to_string()),
        Ok(LineRead::TimedOut) => return ReadOutcome::TimedOut,
        Ok(LineRead::TooLong) => {
            return ReadOutcome::Malformed("request line too long".to_string())
        }
        Err(_) => return ReadOutcome::Closed,
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return ReadOutcome::Malformed("bad request line".to_string());
    };
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut content_length = 0usize;
    let mut keep_alive = true;
    loop {
        let mut header = String::new();
        match read_line_by(reader, &mut header, deadline) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::Eof) => return ReadOutcome::Closed,
            Ok(LineRead::TimedOut) => return ReadOutcome::TimedOut,
            Ok(LineRead::TooLong) => {
                return ReadOutcome::Malformed("header line too long".to_string())
            }
            Err(_) => return ReadOutcome::Malformed("unreadable header".to_string()),
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return ReadOutcome::Malformed(format!("bad header `{header}`"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return ReadOutcome::Malformed("bad content-length".to_string()),
            }
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    if content_length > MAX_BODY {
        return ReadOutcome::TooLarge;
    }
    // Body, deadline-bounded: `read_exact` is unusable under socket
    // timeouts (how much it read before an error is unspecified), so
    // fill the buffer by hand.
    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        // Checked per chunk, not per timeout: a body trickling in at
        // just under the socket poll interval must still hit the wall.
        if deadline.expired() {
            return ReadOutcome::TimedOut;
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => return ReadOutcome::Malformed("truncated body".to_string()),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Malformed("unreadable body".to_string()),
        }
    }
    let Ok(body) = String::from_utf8(body) else {
        return ReadOutcome::Malformed("body is not utf-8".to_string());
    };
    ReadOutcome::Request(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// The reason phrase for the status codes the service emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes `buf` in bounded chunks, aborting once `deadline` passes.
///
/// The socket write timeout is re-armed per attempt from the deadline's
/// remaining time, so a stalled reader costs at most one poll quantum
/// past the deadline — never a worker parked in `write_all` forever.
fn write_all_by(stream: &mut TcpStream, mut buf: &[u8], deadline: Deadline) -> io::Result<()> {
    while !buf.is_empty() {
        stream.set_write_timeout(Some(deadline.io_timeout(WRITE_POLL)))?;
        let chunk = &buf[..buf.len().min(WRITE_CHUNK)];
        match stream.write(chunk) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if is_timeout(&e) => {
                if deadline.expired() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "response write stalled past the write deadline",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one JSON response with an explicit `Content-Length`, bounded
/// by `write_timeout`. `retry_after` adds a `Retry-After: <seconds>`
/// header (shed and quarantine answers carry one).
///
/// # Errors
///
/// Propagates socket errors; a peer that stops reading surfaces as
/// [`io::ErrorKind::TimedOut`] once the deadline passes.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after: Option<u64>,
    write_timeout: Duration,
) -> io::Result<()> {
    let deadline = Deadline::after(write_timeout);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let retry = match retry_after {
        Some(secs) => format!("retry-after: {secs}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n{retry}connection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    );
    write_all_by(stream, head.as_bytes(), deadline)?;
    write_all_by(stream, body.as_bytes(), deadline)?;
    stream.flush()
}

/// A one-shot HTTP client: sends `method path` with `body` and returns
/// `(status, response body)`. Used by `--selftest`, the benchmark
/// driver, and the CI smoke — and handy for scripting against a local
/// server without curl.
///
/// # Errors
///
/// Propagates connection and read errors; a malformed status line or
/// missing `Content-Length` surfaces as [`io::ErrorKind::InvalidData`].
pub fn http_call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    http_call_headers(addr, method, path, body).map(|(status, _, body)| (status, body))
}

/// Like [`http_call`], but also returns the response headers as
/// lower-cased `(name, value)` pairs — for callers that need
/// `Retry-After` or `Connection` semantics (the overload tests and the
/// shed-aware load generators).
///
/// # Errors
///
/// As for [`http_call`].
pub fn http_call_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    send_request(&mut writer, method, path, body, false)?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// Writes one request (`Content-Length`-framed) on an open connection.
/// With `keep_alive` the connection can carry further requests; the
/// overload and drain tests use this to park a server worker on a live
/// keep-alive socket.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\
         connection: {connection}\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes())?;
    stream.flush()
}

/// A decoded client-side response: status code, lower-cased
/// `(name, value)` header pairs, and the body.
pub type Response = (u16, Vec<(String, String)>, String);

/// Reads one response off an open connection: status, lower-cased
/// header pairs, and the `Content-Length`-delimited body.
///
/// # Errors
///
/// Propagates read errors; a malformed status line or missing
/// `Content-Length` surfaces as [`io::ErrorKind::InvalidData`].
pub fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<Response> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line `{}`", status_line.trim_end()),
            )
        })?;
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse::<usize>().ok();
            }
            headers.push((name, value));
        }
    }
    let n = content_length
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing content-length"))?;
    let mut body = vec![0u8; n];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf-8 body"))?;
    Ok((status, headers, body))
}
