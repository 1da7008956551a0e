//! A minimal HTTP/1.1 layer over blocking std TCP: request parsing with
//! hard size limits, keep-alive bookkeeping, `Expect: 100-continue`, and
//! response writing. Deliberately tiny — the API surface is six JSON
//! endpoints served by a worker pool, not a general web framework — and
//! std-only, because this build environment vendors every dependency.
//!
//! Unsupported on purpose: chunked transfer encoding (501), HTTP/2,
//! TLS (terminate upstream), multipart. Oversized heads and bodies are
//! rejected with 431/413 *before* any allocation proportional to the
//! claimed size beyond the limit.

use std::io::{BufRead, ErrorKind, Write};

/// Parsing limits, from [`crate::ServeConfig`].
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of request body (`Content-Length`).
    pub max_body_bytes: usize,
}

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

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed (or timed out) mid-request — nothing to answer.
    Closed,
    /// Request line + headers exceed [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// `Content-Length` exceeds [`Limits::max_body_bytes`].
    BodyTooLarge(usize),
    /// Syntactically invalid request.
    Malformed(String),
    /// Syntactically valid but unsupported (e.g. chunked encoding).
    Unsupported(String),
}

impl RequestError {
    /// The `(status, message)` to answer with, or `None` when the
    /// connection is already gone.
    #[must_use]
    pub fn response(&self) -> Option<(u16, String)> {
        match self {
            RequestError::Closed => None,
            RequestError::HeadTooLarge => Some((431, "request head too large".to_owned())),
            RequestError::BodyTooLarge(limit) => {
                Some((413, format!("request body exceeds the {limit}-byte limit")))
            }
            RequestError::Malformed(m) => Some((400, format!("malformed request: {m}"))),
            RequestError::Unsupported(m) => Some((501, format!("unsupported: {m}"))),
        }
    }
}

/// Reads one request off a keep-alive connection into caller-owned
/// buffers: `req`'s head, method, path, and body are cleared and refilled,
/// so a keep-alive connection parses every request into the same
/// allocations. `Ok(false)` means the peer closed (or went idle past the
/// read timeout) *between* requests — a clean end of the connection,
/// nothing to answer.
///
/// `writer` is needed for the interim `100 Continue` response: clients
/// like `curl` pause before sending larger bodies until the server waves
/// them on.
///
/// # Errors
///
/// See [`RequestError`]; [`RequestError::response`] maps each variant to
/// the status to answer with.
pub fn read_request_into<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    limits: &Limits,
    req: &mut Request,
) -> Result<bool, RequestError> {
    let mut head = std::mem::take(&mut req.head);
    if !read_head(reader, limits.max_head_bytes, &mut head)? {
        req.head = head;
        return Ok(false);
    }
    let result = parse_into(&head, reader, writer, limits, req);
    req.head = head;
    result.map(|()| true)
}

/// Parses one raw head (+ streams the body) into `req`'s reused fields.
fn parse_into<R: BufRead, W: Write>(
    head: &[u8],
    reader: &mut R,
    writer: &mut W,
    limits: &Limits,
    req: &mut Request,
) -> Result<(), RequestError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| RequestError::Malformed("head is not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    if parts.next().is_some() {
        return Err(RequestError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(RequestError::Unsupported(format!("version {other:?}")));
        }
    };

    let mut content_length = 0usize;
    let mut keep_alive = http11;
    let mut expect_continue = false;
    req.authorization.clear();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| RequestError::Malformed(format!("content-length {value:?}")))?;
            }
            "transfer-encoding" => {
                return Err(RequestError::Unsupported(
                    "transfer-encoding (send Content-Length)".to_owned(),
                ));
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            "expect" => expect_continue = value.eq_ignore_ascii_case("100-continue"),
            "authorization" => req.authorization.push_str(value),
            _ => {}
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(RequestError::BodyTooLarge(limits.max_body_bytes));
    }

    req.body.clear();
    req.body.resize(content_length, 0);
    if content_length > 0 {
        if expect_continue {
            let _ = writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            let _ = writer.flush();
        }
        reader
            .read_exact(&mut req.body)
            .map_err(|_| RequestError::Closed)?;
    }
    req.method.clear();
    req.method.push_str(method);
    req.path.clear();
    req.path.push_str(path);
    req.keep_alive = keep_alive;
    Ok(())
}

/// Reads bytes up to and including the `\r\n\r\n` head terminator into
/// the reused `head` buffer (cleared first). `Ok(false)` on EOF/timeout
/// before the first byte.
fn read_head<R: BufRead>(
    reader: &mut R,
    max: usize,
    head: &mut Vec<u8>,
) -> Result<bool, RequestError> {
    head.clear();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return if head.is_empty() {
                    Ok(false)
                } else {
                    Err(RequestError::Closed)
                };
            }
            Ok(_) => {
                if head.len() >= max {
                    return Err(RequestError::HeadTooLarge);
                }
                head.push(byte[0]);
                if head.ends_with(b"\r\n\r\n") {
                    return Ok(true);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if head.is_empty()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                // Idle keep-alive connection hit the read timeout.
                return Ok(false);
            }
            Err(_) => return Err(RequestError::Closed),
        }
    }
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

    fn parse(raw: &str) -> Result<Option<Request>, RequestError> {
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
            Err(RequestError::BodyTooLarge(64))
        ));
        let huge = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(2048));
        assert!(matches!(parse(&huge), Err(RequestError::HeadTooLarge)));
    }

    #[test]
    fn rejects_malformed_and_unsupported() {
        assert!(matches!(
            parse("nonsense\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/2\r\n\r\n"),
            Err(RequestError::Unsupported(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::Unsupported(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(RequestError::Malformed(_))
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
