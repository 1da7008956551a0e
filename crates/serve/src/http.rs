//! The one HTTP/1.1 reader of this crate, for both directions, and the
//! response writer, over blocking std I/O. The server reads requests with
//! [`read_request_into`] under the limits of [`crate::ServeConfig`] or
//! [`crate::RouterConfig`]; [`crate::HttpClient`] (every router → backend
//! call) and the router's health probe read responses with
//! [`read_response`] under the fixed [`RESPONSE_LIMITS`]. Both share one
//! head reader and one header loop, so both hold the same bounds: the
//! head is read a line at a time and never past `max_head_bytes` (431),
//! a `Content-Length` over `max_body_bytes` is refused (413), a body's
//! buffer grows only as its bytes arrive, and `Transfer-Encoding` is
//! refused (501). Std-only and deliberately tiny — a few JSON endpoints,
//! not a web framework. Unsupported on purpose: chunked transfer
//! encoding, HTTP/2, TLS (terminate upstream), multipart.

use std::io::{BufRead, ErrorKind, Read, Write};

/// Parsing limits: from [`crate::ServeConfig`] for requests,
/// [`RESPONSE_LIMITS`] for responses.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of start line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (`Content-Length`).
    pub max_body_bytes: usize,
}

/// The limits every response is read under. The largest answer a legal
/// request can ask for is an `/v1/infer_batch` of the shortest records
/// (`{"readings":[{"mac":1,"rssi":0}]}`, 35 bytes with its comma), each
/// answering in at most 132 bytes: 31.7 MB at the router's default 8 MiB
/// request limit. A unit test in `router.rs` keeps both servers' default
/// limits inside the 32 MiB body limit, and the router splits its own
/// backend batches to fit it. Response heads are under 200 bytes.
pub const RESPONSE_LIMITS: Limits = Limits {
    max_head_bytes: 8 * 1024,
    max_body_bytes: 32 << 20,
};

/// One parsed HTTP request. Designed for reuse: a worker keeps one
/// `Request` per connection and refills it via [`read_request_into`],
/// so the head, method, path, and body buffers are allocated once per
/// connection instead of once per request.
#[derive(Debug, Default)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The path component as sent (query strings are not split off; the
    /// API routes on exact paths).
    pub path: String,
    /// The request body (empty if no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The `Authorization` header verbatim, if the client sent one
    /// (empty = absent; reused like the other buffers).
    pub authorization: String,
    /// Reused buffer for the raw request line + headers.
    head: Vec<u8>,
}

impl Request {
    /// Fresh reusable buffers.
    #[must_use]
    pub fn new() -> Self {
        Request::default()
    }
}

/// One parsed HTTP response, from [`read_response`].
#[derive(Debug)]
pub struct Response {
    /// The final status code (interim `1xx` responses are skipped).
    pub status: u16,
    /// The response body (empty if no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the server keeps the connection open after this response
    /// (`false` after `Connection: close` or an HTTP/1.0 answer).
    pub keep_alive: bool,
}

/// Why a request or response could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed, failed or timed out mid-message — nothing to
    /// answer. Holds the io error: `UnexpectedEof` for a message torn by
    /// EOF, the socket's own error (a timeout, a reset) otherwise.
    Closed(std::io::Error),
    /// Start line + headers exceed [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// `Content-Length` exceeds [`Limits::max_body_bytes`].
    BodyTooLarge(usize),
    /// Syntactically invalid message.
    Malformed(String),
    /// Syntactically valid but unsupported (e.g. chunked encoding).
    Unsupported(String),
}

impl HttpError {
    /// The `(status, message)` to answer a bad request with, or `None`
    /// when the connection is already gone.
    #[must_use]
    pub fn response(&self) -> Option<(u16, String)> {
        match self {
            HttpError::Closed(_) => None,
            HttpError::HeadTooLarge => Some((431, "request head too large".to_owned())),
            HttpError::BodyTooLarge(limit) => {
                Some((413, format!("request body exceeds the {limit}-byte limit")))
            }
            HttpError::Malformed(m) => Some((400, format!("malformed request: {m}"))),
            HttpError::Unsupported(m) => Some((501, format!("unsupported: {m}"))),
        }
    }
}

impl From<HttpError> for std::io::Error {
    /// [`HttpError::Closed`] gives back its io error. Every other variant
    /// is a message that arrived whole enough to judge but cannot be
    /// used, and becomes `InvalidData`, which [`crate::HttpClient`] never
    /// retries: resending cannot fix it.
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Closed(e) => e,
            other => std::io::Error::new(ErrorKind::InvalidData, format!("{other:?}")),
        }
    }
}

/// Reads one request off a keep-alive connection into caller-owned
/// buffers: `req`'s head, method, path, and body are cleared and refilled,
/// so a keep-alive connection parses every request into the same
/// allocations. `Ok(false)` means the peer closed the connection
/// *between* requests — a clean end of the connection, nothing to answer.
/// An idle connection that reaches its read timeout ends with
/// [`HttpError::Closed`], also with nothing to answer.
///
/// `writer` is needed for the interim `100 Continue` response: clients
/// like `curl` pause before sending larger bodies until the server waves
/// them on.
///
/// # Errors
///
/// See [`HttpError`]; [`HttpError::response`] maps each variant to the
/// status to answer with.
pub fn read_request_into<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    limits: &Limits,
    req: &mut Request,
) -> Result<bool, HttpError> {
    let mut head = std::mem::take(&mut req.head);
    let result = match read_head(reader, limits.max_head_bytes, &mut head) {
        Ok(true) => parse_request(&head, reader, writer, limits, req).map(|()| true),
        other => other,
    };
    req.head = head;
    result
}

/// Parses one raw request head (+ reads the body) into `req`'s reused
/// fields.
fn parse_request<R: BufRead, W: Write>(
    head: &[u8],
    reader: &mut R,
    writer: &mut W,
    limits: &Limits,
    req: &mut Request,
) -> Result<(), HttpError> {
    let mut lines = head_lines(head)?;
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    req.authorization.clear();
    let framing = parse_headers(lines, version, limits, Some(&mut req.authorization))?;
    if framing.expect_continue && framing.content_length > 0 {
        let _ = writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        let _ = writer.flush();
    }
    read_body(reader, framing.content_length, &mut req.body)?;
    req.method.clear();
    req.method.push_str(method);
    req.path.clear();
    req.path.push_str(path);
    req.keep_alive = framing.keep_alive;
    Ok(())
}

/// Reads one response, skipping interim `1xx` responses. `Ok(None)`
/// means the peer closed the connection before the first byte: the
/// request may never have been seen.
///
/// # Errors
///
/// See [`HttpError`]. A response torn after its first byte is
/// [`HttpError::Closed`] with `UnexpectedEof`, never a short success.
pub fn read_response<R: BufRead>(
    reader: &mut R,
    limits: &Limits,
) -> Result<Option<Response>, HttpError> {
    let mut head = Vec::new();
    let mut interim = false;
    loop {
        if !read_head(reader, limits.max_head_bytes, &mut head)? {
            // After an interim response, EOF tears the real one.
            return if interim { Err(torn()) } else { Ok(None) };
        }
        let mut lines = head_lines(&head)?;
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        let (Some(version), Some(Ok(status @ 100..=999))) =
            (parts.next(), parts.next().map(str::parse::<u16>))
        else {
            return Err(HttpError::Malformed(format!(
                "bad status line {status_line:?}"
            )));
        };
        let framing = parse_headers(lines, version, limits, None)?;
        if status < 200 {
            interim = true;
            continue;
        }
        let mut body = Vec::new();
        read_body(reader, framing.content_length, &mut body)?;
        return Ok(Some(Response {
            status,
            body,
            keep_alive: framing.keep_alive,
        }));
    }
}

/// What the headers say about framing the body and the connection.
struct Framing {
    content_length: usize,
    keep_alive: bool,
    expect_continue: bool,
}

/// The head's lines: the start line first, then one per header.
fn head_lines(head: &[u8]) -> Result<std::str::Split<'_, &'static str>, HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("head is not UTF-8".to_owned()))?;
    Ok(head.split("\r\n"))
}

/// The one header loop, for both directions. `version` sets the
/// keep-alive default; `authorization`, when given, receives that
/// header verbatim. A `Content-Length` over `limits` is refused here,
/// before the body is read.
fn parse_headers<'h>(
    lines: impl Iterator<Item = &'h str>,
    version: &str,
    limits: &Limits,
    mut authorization: Option<&mut String>,
) -> Result<Framing, HttpError> {
    let mut framing = Framing {
        content_length: 0,
        keep_alive: match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            other => return Err(HttpError::Unsupported(format!("version {other:?}"))),
        },
        expect_continue: false,
    };
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                framing.content_length = value
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("content-length {value:?}")))?;
            }
            "transfer-encoding" => {
                return Err(HttpError::Unsupported(
                    "transfer-encoding (send Content-Length)".to_owned(),
                ));
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    framing.keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    framing.keep_alive = true;
                }
            }
            "expect" => framing.expect_continue = value.eq_ignore_ascii_case("100-continue"),
            "authorization" => {
                if let Some(out) = authorization.as_deref_mut() {
                    out.push_str(value);
                }
            }
            _ => {}
        }
    }
    if framing.content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge(limits.max_body_bytes));
    }
    Ok(framing)
}

/// Reads exactly `len` body bytes (already checked against the limit)
/// into the reused `body` buffer, which grows only as bytes arrive: a
/// `Content-Length` that the peer never sends costs nothing.
fn read_body<R: BufRead>(reader: &mut R, len: usize, body: &mut Vec<u8>) -> Result<(), HttpError> {
    body.clear();
    reader
        .take(len as u64)
        .read_to_end(body)
        .map_err(HttpError::Closed)?;
    if body.len() < len {
        Err(torn())
    } else {
        Ok(())
    }
}

fn torn() -> HttpError {
    HttpError::Closed(ErrorKind::UnexpectedEof.into())
}

/// Reads the start line and headers, up to and including the
/// `\r\n\r\n` terminator, into the reused `head` buffer (cleared
/// first), a line at a time and never more than one byte past `max`.
/// `Ok(false)` on EOF before the first byte.
fn read_head<R: BufRead>(
    reader: &mut R,
    max: usize,
    head: &mut Vec<u8>,
) -> Result<bool, HttpError> {
    head.clear();
    while !head.ends_with(b"\r\n\r\n") {
        let room = (max.saturating_add(1) - head.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', head) {
            Ok(0) if head.is_empty() => return Ok(false),
            Ok(0) => return Err(torn()),
            Ok(_) if head.len() > max => return Err(HttpError::HeadTooLarge),
            Ok(_) => {}
            Err(e) => return Err(HttpError::Closed(e)),
        }
    }
    Ok(true)
}

/// The reason phrase for the statuses this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Writes one JSON response (status line, minimal headers, body).
///
/// # Errors
///
/// Propagates the underlying IO error (the connection is then dropped).
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_extra(writer, status, "application/json", &[], body, keep_alive)
}

/// [`write_response`] with an explicit `Content-Type` (the `/metrics`
/// endpoint answers plaintext) and extra response headers, each a
/// `(name, value)` pair — e.g. the `Retry-After` hint on a 429.
///
/// # Errors
///
/// Propagates the underlying IO error (the connection is then dropped).
pub fn write_response_extra<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const LIMITS: Limits = Limits {
        max_head_bytes: 1024,
        max_body_bytes: 64,
    };

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        let mut sink = Vec::new();
        let mut req = Request::new();
        let mut reader = Cursor::new(raw.as_bytes().to_vec());
        Ok(read_request_into(&mut reader, &mut sink, &LIMITS, &mut req)?.then_some(req))
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /v1/infer HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer");
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn rejects_oversized_body_and_head() {
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 65\r\n\r\n"),
            Err(HttpError::BodyTooLarge(64))
        ));
        let huge = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(2048));
        assert!(matches!(parse(&huge), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn rejects_malformed_and_unsupported() {
        assert!(matches!(
            parse("nonsense\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::Unsupported(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Unsupported(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn captures_authorization_header() {
        let req = parse("GET /v1/stat HTTP/1.1\r\nAuthorization: Bearer sesame\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.authorization, "Bearer sesame");
        let req = parse("GET /v1/stat HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(req.authorization.is_empty());
    }

    #[test]
    fn extra_headers_are_emitted() {
        let mut out = Vec::new();
        write_response_extra(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "1")],
            "{}",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    /// Two keep-alive requests parse into the same reused `Request`
    /// without leaking state from the first into the second.
    #[test]
    fn request_buffers_are_reused_across_requests() {
        let raw = "POST /v1/absorb HTTP/1.1\r\nContent-Length: 9\r\n\r\nfirstbody\
                   GET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = Cursor::new(raw.as_bytes().to_vec());
        let mut sink = Vec::new();
        let mut req = Request::new();
        assert!(read_request_into(&mut reader, &mut sink, &LIMITS, &mut req).unwrap());
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/absorb")
        );
        assert_eq!(req.body, b"firstbody");
        assert!(read_request_into(&mut reader, &mut sink, &LIMITS, &mut req).unwrap());
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(req.body.is_empty(), "body cleared between requests");
        assert!(!read_request_into(&mut reader, &mut sink, &LIMITS, &mut req).unwrap());
    }

    #[test]
    fn response_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }
}
