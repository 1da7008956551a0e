//! A minimal blocking HTTP/1.1 client over one keep-alive connection —
//! enough to drive the server from tests, the router's backend calls,
//! benchmarks and operator scripts without any external dependency. Not
//! a general client: no redirects, no TLS, no chunked responses (the
//! server never sends them).
//!
//! Responses are read by the crate's one HTTP reader,
//! [`http::read_response`], under the fixed [`http::RESPONSE_LIMITS`]
//! (8 KiB of head, 32 MiB of body), so no backend answer can abort or
//! exhaust the process. Each request is formatted into one reused buffer
//! and sent in one write, so a failed write leaves nothing buffered.
//! After a `Connection: close` response, or any failed request, the next
//! request opens a fresh connection; that reconnect is not a retry.
//!
//! The client is hardened for flaky links: every socket carries read
//! *and* write timeouts, and **idempotent** requests (`GET` anything,
//! `POST /v1/infer*`, `/v1/stat`, `/healthz`, `/metrics`) that die on a
//! transport error are retried over a fresh connection with exponential
//! backoff plus jitter. The io error kind tells a transport error from
//! a bad answer: EOF before the first response byte is
//! `ConnectionAborted`, a response torn after it is `UnexpectedEof`, a
//! timeout stays a timeout, and a malformed, over-limit or chunked
//! response is `InvalidData`, which is never retried. `/v1/absorb` and
//! `/v1/publish` are **never** retried — a response lost after the
//! server processed the request would make a blind resend absorb the
//! record twice.

use crate::http;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime};

/// One keep-alive connection to a `grafics-serve` endpoint, with
/// reconnect-and-retry on idempotent requests.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    /// Reused buffer each request is formatted into before its one send.
    request: Vec<u8>,
    /// The connection must not carry another request: the last response
    /// said `Connection: close`, or the last request failed.
    closed: bool,
    addr: SocketAddr,
    read_timeout: Duration,
    write_timeout: Duration,
    /// Retry attempts allowed per idempotent request (0 disables).
    max_retries: u32,
    /// Base of the exponential backoff between retries.
    backoff_base: Duration,
    /// Reconnect-and-retry attempts actually performed (for tests and
    /// diagnostics).
    retries_performed: u64,
    /// Bearer token attached to every request (write endpoints require
    /// it when the server is token-protected).
    auth_token: Option<String>,
}

impl HttpClient {
    /// Connects to `addr` with the default hardening: 30 s read timeout,
    /// 10 s write timeout, up to 3 retries on idempotent requests with
    /// 25 ms base backoff.
    ///
    /// # Errors
    ///
    /// Propagates the resolve/connect error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let read_timeout = Duration::from_secs(30);
        let write_timeout = Duration::from_secs(10);
        Ok(HttpClient {
            reader: Self::open(addr, read_timeout, write_timeout)?,
            request: Vec::new(),
            closed: false,
            addr,
            read_timeout,
            write_timeout,
            max_retries: 3,
            backoff_base: Duration::from_millis(25),
            retries_performed: 0,
            auth_token: None,
        })
    }

    /// Attaches `Authorization: Bearer <token>` to every request
    /// (`None` stops sending the header).
    pub fn set_auth_token(&mut self, token: Option<String>) {
        self.auth_token = token;
    }

    /// Adjusts the socket timeouts (applied to the live connection and
    /// every reconnect).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_timeouts(&mut self, read: Duration, write: Duration) -> std::io::Result<()> {
        self.read_timeout = read;
        self.write_timeout = write;
        self.reader.get_ref().set_read_timeout(Some(read))?;
        self.reader.get_ref().set_write_timeout(Some(write))
    }

    /// Adjusts the retry policy for idempotent requests: up to
    /// `max_retries` reconnect-and-resend attempts, exponentially backed
    /// off from `base` (plus jitter). `max_retries == 0` disables
    /// retrying entirely.
    pub fn set_retry_policy(&mut self, max_retries: u32, base: Duration) {
        self.max_retries = max_retries;
        self.backoff_base = base;
    }

    /// Reconnect-and-retry attempts this client has performed.
    #[must_use]
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    fn open(
        addr: SocketAddr,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> std::io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        Ok(BufReader::new(stream))
    }

    /// `true` if a transport failure may be blindly resent: the request
    /// cannot have mutated fleet state. Absorb/publish are excluded — a
    /// lost *response* does not mean an unprocessed *request*.
    fn idempotent(method: &str, path: &str) -> bool {
        method == "GET" || path.starts_with("/v1/infer")
    }

    /// Exponential backoff with jitter: `base << attempt`, capped, plus
    /// up to ~25% random skew so a fleet of clients does not retry in
    /// lockstep. Jitter is seeded from the subsecond clock — no RNG
    /// dependency for the client.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.backoff_base.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << attempt.min(10));
        let capped = exp.min(Duration::from_secs(2));
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap_or_default()
            .subsec_nanos();
        let jitter = capped.as_micros() as u64 / 4;
        let skew = if jitter == 0 {
            0
        } else {
            u64::from(nanos) % jitter
        };
        capped + Duration::from_micros(skew)
    }

    /// Sends one request and reads the response; returns
    /// `(status, body)`. The connection stays open for the next call.
    /// Idempotent requests that die on a transport error are retried on
    /// a fresh connection (bounded, backed off); everything else fails
    /// fast.
    ///
    /// # Errors
    ///
    /// IO errors (after retries, where allowed), or `InvalidData` on a
    /// malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let retries = if Self::idempotent(method, path) {
            self.max_retries
        } else {
            0
        };
        let mut attempt = 0u32;
        loop {
            match self.request_once(method, path, body) {
                Ok(resp) => return Ok(resp),
                // A malformed-but-received response is a server bug, not
                // a transport flake: resending cannot help.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => return Err(e),
                Err(e) => {
                    if attempt >= retries {
                        return Err(e);
                    }
                    // The failed request left the connection closed, so
                    // the resend reconnects first; a dead reconnect target
                    // still counts down the attempts.
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                    self.retries_performed += 1;
                }
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        if self.closed {
            self.reader = Self::open(self.addr, self.read_timeout, self.write_timeout)?;
        }
        // Until a whole keep-alive response is read, the connection is in
        // an unknown state and must not carry the next request.
        self.closed = true;
        let body = body.unwrap_or("");
        let request = &mut self.request;
        request.clear();
        write!(
            request,
            "{method} {path} HTTP/1.1\r\nHost: grafics\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
            body.len(),
        )?;
        if let Some(token) = &self.auth_token {
            write!(request, "Authorization: Bearer {token}\r\n")?;
        }
        request.extend_from_slice(b"\r\n");
        request.extend_from_slice(body.as_bytes());
        let sent = self.reader.get_mut().write_all(request);
        // A pooled client keeps no large body's copy between requests.
        request.clear();
        request.shrink_to(8 * 1024);
        sent?;
        let Some(resp) = http::read_response(&mut self.reader, &http::RESPONSE_LIMITS)? else {
            // Clean EOF before a status line: the server closed the
            // keep-alive connection (idle timeout, drain). Retryable.
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "connection closed before response",
            ));
        };
        self.closed = !resp.keep_alive;
        let body = String::from_utf8(resp.body)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "body not UTF-8"))?;
        Ok((resp.status, body))
    }

    /// Convenience: `POST` with a JSON body.
    ///
    /// # Errors
    ///
    /// Same as [`HttpClient::request`].
    pub fn post(&mut self, path: &str, json: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, Some(json))
    }

    /// Convenience: `GET`.
    ///
    /// # Errors
    ///
    /// Same as [`HttpClient::request`].
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, None)
    }
}
