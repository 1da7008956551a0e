//! HTTP at the trust boundary: request heads and bodies come from
//! clients, and response heads and bodies come from backends (the
//! router's calls, its health probes, any `HttpClient`). Both go through
//! the one reader in `grafics_serve::http`, which must turn any bytes
//! into a message or a typed `HttpError` without panicking and without
//! holding more heap than its limits allow — never a claimed size.
//!
//! Inputs, each as a request and as a response: a valid message cut at
//! every byte, `Content-Length` of `u64::MAX`, 1 TiB and non-numeric
//! values, a header flood and an endless line past `max_head_bytes`, a
//! non-UTF-8 head, `Transfer-Encoding: chunked`, and random bytes. Then
//! `HttpClient` against stub backends: a 1 TiB `Content-Length`, an
//! endless status line, a `Connection: close` answer, and the exact
//! request bytes it sends.
//!
//! This file is its own test binary because it installs a counting
//! global allocator.

use grafics_serve::http::{
    read_request_into, read_response, HttpError, Limits, Request, Response, RESPONSE_LIMITS,
};
use grafics_serve::HttpClient;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Duration;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// The system allocator, counting live bytes per thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received (see the impl comment).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received (see the impl comment).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak bytes it held at once
/// on this thread (the result included).
fn peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, usize::try_from(peak).unwrap_or(0))
}

const LIMITS: Limits = Limits {
    max_head_bytes: 1024,
    max_body_bytes: 4096,
};

/// The most heap one read may hold under `limits`: the head buffer at
/// twice the head limit (it grows by doubling), an error message quoting
/// a head line with every byte escaped (at most 6 bytes each, in a
/// string that also grows by doubling), the body at its limit, and a
/// page to spare. Never a claimed size.
fn allowed(limits: &Limits) -> usize {
    2 * limits.max_head_bytes + 12 * limits.max_head_bytes + limits.max_body_bytes + 4096
}

/// Reads `bytes` as a request under [`LIMITS`]; asserts the peak heap.
fn request(bytes: &[u8]) -> Result<bool, HttpError> {
    let mut req = Request::new();
    let mut sink = Vec::new();
    let (result, held) =
        peak(|| read_request_into(&mut Cursor::new(bytes), &mut sink, &LIMITS, &mut req));
    assert!(
        held <= allowed(&LIMITS),
        "request read held {held} B: {:?}",
        String::from_utf8_lossy(&bytes[..bytes.len().min(120)])
    );
    result
}

/// Reads `bytes` as a response under [`LIMITS`]; asserts the peak heap.
fn response(bytes: &[u8]) -> Result<Option<Response>, HttpError> {
    let (result, held) = peak(|| read_response(&mut Cursor::new(bytes), &LIMITS));
    assert!(
        held <= allowed(&LIMITS),
        "response read held {held} B: {:?}",
        String::from_utf8_lossy(&bytes[..bytes.len().min(120)])
    );
    result
}

const REQUEST: &[u8] =
    b"POST /v1/absorb HTTP/1.1\r\nHost: grafics\r\nContent-Length: 11\r\n\r\n{\"seed\":42}";
const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
      Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}";

/// A request and a response that share `headers` and `body`.
fn both(headers: &str, body: &[u8]) -> [Vec<u8>; 2] {
    ["POST /v1/infer HTTP/1.1", "HTTP/1.1 200 OK"].map(|start| {
        let mut bytes = format!("{start}\r\n{headers}\r\n").into_bytes();
        bytes.extend_from_slice(body);
        bytes
    })
}

fn is_torn(e: &HttpError) -> bool {
    matches!(e, HttpError::Closed(io) if io.kind() == ErrorKind::UnexpectedEof)
}

#[test]
fn whole_messages_parse() {
    assert!(request(REQUEST).unwrap());
    let resp = response(RESPONSE).unwrap().unwrap();
    assert_eq!(
        (resp.status, resp.body.as_slice()),
        (200, &b"{\"ok\":true}"[..])
    );
    assert!(resp.keep_alive);

    // An interim 100 is skipped; `Connection: close` and HTTP/1.0 end
    // keep-alive; an empty reason phrase is still a status line.
    let resp = response(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 503 \r\nConnection: close\r\n\r\n")
        .unwrap()
        .unwrap();
    assert_eq!(resp.status, 503);
    assert!(!resp.keep_alive && resp.body.is_empty());
    assert!(
        !response(b"HTTP/1.0 200 OK\r\n\r\n")
            .unwrap()
            .unwrap()
            .keep_alive
    );
    // EOF after the interim response tears the real one.
    assert!(is_torn(
        &response(b"HTTP/1.1 100 Continue\r\n\r\n").unwrap_err()
    ));
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    assert!(!request(b"").unwrap(), "EOF before the first byte");
    assert!(
        response(b"").unwrap().is_none(),
        "EOF before the first byte"
    );
    for cut in 1..REQUEST.len() {
        let e = request(&REQUEST[..cut]).unwrap_err();
        assert!(is_torn(&e), "request cut at byte {cut}: {e:?}");
    }
    for cut in 1..RESPONSE.len() {
        let e = response(&RESPONSE[..cut]).unwrap_err();
        assert!(is_torn(&e), "response cut at byte {cut}: {e:?}");
    }
}

#[test]
fn huge_or_non_numeric_content_length_is_refused_before_allocating() {
    for length in [u64::MAX, 1 << 40, 4097] {
        let [req, resp] = both(&format!("Content-Length: {length}\r\n"), b"");
        let (r, held) = peak(|| request(&req));
        assert!(matches!(r, Err(HttpError::BodyTooLarge(4096))), "{r:?}");
        assert!(held < 4 * LIMITS.max_head_bytes, "held {held} B");
        let (r, held) = peak(|| response(&resp));
        assert!(matches!(r, Err(HttpError::BodyTooLarge(4096))), "{r:?}");
        assert!(held < 4 * LIMITS.max_head_bytes, "held {held} B");
    }
    for length in ["many", "-1", "18446744073709551616", ""] {
        let [req, resp] = both(&format!("Content-Length: {length}\r\n"), b"");
        assert!(matches!(request(&req), Err(HttpError::Malformed(_))));
        assert!(matches!(response(&resp), Err(HttpError::Malformed(_))));
    }
}

/// A body claimed at the limit but never sent tears the message and
/// costs only the bytes that arrived, not the claimed size.
#[test]
fn a_claimed_body_that_never_arrives_is_not_allocated() {
    let limits = Limits {
        max_head_bytes: 1024,
        max_body_bytes: 64 << 20,
    };
    let [req, resp] = both("Content-Length: 67108864\r\n", b"{\"ok\"");
    let (r, held) = peak(|| {
        read_request_into(
            &mut Cursor::new(&req),
            &mut Vec::new(),
            &limits,
            &mut Request::new(),
        )
    });
    assert!(is_torn(&r.unwrap_err()));
    assert!(held < 4 * limits.max_head_bytes, "held {held} B");
    let (r, held) = peak(|| read_response(&mut Cursor::new(&resp), &limits));
    assert!(is_torn(&r.unwrap_err()));
    assert!(held < 4 * limits.max_head_bytes, "held {held} B");
}

#[test]
fn header_floods_and_endless_lines_stop_at_the_head_limit() {
    let flood = "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(40_000);
    let [req, resp] = both(&flood, b"");
    assert!(matches!(request(&req), Err(HttpError::HeadTooLarge)));
    assert!(matches!(response(&resp), Err(HttpError::HeadTooLarge)));

    let endless = vec![b'a'; 1 << 20];
    for start in [&b"GET /"[..], b"HTTP/1.1 200 "] {
        let line = [start, &endless].concat();
        assert!(matches!(request(&line), Err(HttpError::HeadTooLarge)));
        assert!(matches!(response(&line), Err(HttpError::HeadTooLarge)));
    }
}

#[test]
fn non_utf8_heads_are_malformed() {
    for headers in [&b"X-Name: \xff\xfe\r\n"[..], b"X-\xc3\x28: 1\r\n"] {
        let [mut req, mut resp] = both("", b"");
        for bytes in [&mut req, &mut resp] {
            let at = bytes.len() - 2;
            bytes.splice(at..at, headers.iter().copied());
        }
        assert!(matches!(request(&req), Err(HttpError::Malformed(_))));
        assert!(matches!(response(&resp), Err(HttpError::Malformed(_))));
    }
}

#[test]
fn chunked_transfer_encoding_is_unsupported() {
    let [req, resp] = both("Transfer-Encoding: chunked\r\n", b"2\r\n{}\r\n0\r\n\r\n");
    assert!(matches!(request(&req), Err(HttpError::Unsupported(_))));
    assert!(matches!(response(&resp), Err(HttpError::Unsupported(_))));
}

#[test]
fn bad_start_lines_are_typed_errors() {
    for line in ["nonsense", "GET /x", "GET /x HTTP/1.1 extra", ""] {
        let req = format!("{line}\r\n\r\n");
        assert!(
            matches!(request(req.as_bytes()), Err(HttpError::Malformed(_))),
            "{line:?}"
        );
    }
    for line in [
        "HTTP/1.1",
        "HTTP/1.1 2000 OK",
        "HTTP/1.1 099 x",
        "HTTP/1.1 abc OK",
    ] {
        let resp = format!("{line}\r\n\r\n");
        assert!(
            matches!(response(resp.as_bytes()), Err(HttpError::Malformed(_))),
            "{line:?}"
        );
    }
    assert!(matches!(
        response(b"HTTP/2 200 OK\r\n\r\n"),
        Err(HttpError::Unsupported(_))
    ));
}

/// The client's view of each refusal: `InvalidData`, never retried; a
/// closed or torn connection keeps its own io error kind.
#[test]
fn refusals_become_invalid_data_and_closes_keep_their_kind() {
    let refusals = [
        HttpError::HeadTooLarge,
        HttpError::BodyTooLarge(1),
        HttpError::Malformed("x".to_owned()),
        HttpError::Unsupported("x".to_owned()),
    ];
    for e in refusals {
        assert_eq!(std::io::Error::from(e).kind(), ErrorKind::InvalidData);
    }
    for kind in [
        ErrorKind::UnexpectedEof,
        ErrorKind::TimedOut,
        ErrorKind::WouldBlock,
    ] {
        let e = HttpError::Closed(std::io::Error::new(kind, "x"));
        assert_eq!(std::io::Error::from(e).kind(), kind);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_bytes_never_panic(seed in any::<u64>(), len in 0usize..160) {
        const TOKENS: [&[u8]; 10] = [
            b"HTTP/1.1 ", b"GET / ", b"\r\n", b"\r\n\r\n", b": ", b"Content-Length: ",
            b"Connection: close", b"Transfer-Encoding: ", b"200 ", b"9",
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bytes = Vec::new();
        while bytes.len() < len {
            if rng.gen_bool(0.5) {
                bytes.extend_from_slice(TOKENS[rng.gen_range(0..TOKENS.len())]);
            } else {
                bytes.push(rng.gen());
            }
        }
        let _ = request(&bytes);
        let _ = response(&bytes);
    }
}

/// A stand-in backend on an ephemeral port. It answers each accepted
/// connection from `script` in turn: it reads one request with the
/// crate's reader, writes the next raw answer, and closes the
/// connection after an answer that says `Connection: close`. Once the
/// script is spent the thread ends and returns how many connections it
/// accepted.
fn stub(script: Vec<&'static [u8]>) -> (SocketAddr, JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let limits = Limits {
        max_head_bytes: 8192,
        max_body_bytes: 1 << 20,
    };
    let stub = std::thread::spawn(move || {
        let mut script = script.into_iter();
        let mut accepted = 0;
        while script.len() > 0 {
            let (stream, _) = listener.accept().unwrap();
            accepted += 1;
            let mut reader = BufReader::new(&stream);
            let mut req = Request::new();
            while let Ok(true) =
                read_request_into(&mut reader, &mut std::io::sink(), &limits, &mut req)
            {
                let answer = script.next().unwrap();
                (&stream).write_all(answer).unwrap();
                if script.len() == 0 || answer.windows(17).any(|w| w == b"Connection: close") {
                    break;
                }
            }
        }
        accepted
    });
    (addr, stub)
}

fn client(addr: SocketAddr) -> HttpClient {
    let mut client = HttpClient::connect(addr).unwrap();
    client
        .set_timeouts(Duration::from_secs(10), Duration::from_secs(10))
        .unwrap();
    client
}

/// A backend claiming a 1 TiB body is refused from the head alone: no
/// allocation of the claimed size (which aborts the process), and no
/// retry, since resending cannot fix the answer.
#[test]
fn client_refuses_a_terabyte_content_length() {
    let (addr, stub) = stub(vec![
        b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n",
    ]);
    let mut client = client(addr);
    let (result, held) = peak(|| client.get("/v1/stat"));
    assert_eq!(result.unwrap_err().kind(), ErrorKind::InvalidData);
    assert_eq!(client.retries_performed(), 0);
    assert!(held < 64 * 1024, "held {held} B");
    assert_eq!(stub.join().unwrap(), 1);
}

/// A status line that never ends is cut off once it passes the response
/// head limit, instead of being buffered whole.
#[test]
fn client_stops_an_endless_status_line_at_the_head_limit() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sender = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut request = [0u8; 256];
        let _ = stream.read(&mut request);
        let chunk = [b'a'; 64 * 1024];
        let mut sent = stream.write(b"HTTP/1.1 200 ").unwrap_or(0);
        while sent < 64 << 20 {
            match stream.write(&chunk) {
                Ok(n) if n > 0 => sent += n,
                _ => break,
            }
        }
        sent
    });
    let mut client = client(addr);
    let (result, held) = peak(|| client.get("/healthz"));
    assert_eq!(result.unwrap_err().kind(), ErrorKind::InvalidData);
    assert_eq!(client.retries_performed(), 0);
    assert!(
        held < 4 * RESPONSE_LIMITS.max_head_bytes,
        "held {held} B for a {} B head limit",
        RESPONSE_LIMITS.max_head_bytes
    );
    drop(client);
    let sent = sender.join().unwrap();
    assert!(sent > RESPONSE_LIMITS.max_head_bytes, "sent {sent} B");
}

/// After an answer with `Connection: close` the server is closing the
/// socket; the next request goes out on a new connection. Reconnecting
/// before the send is not a retry, so even a never-retried absorb lands.
#[test]
fn client_reconnects_after_connection_close() {
    let (addr, stub) = stub(vec![
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}",
    ]);
    let mut client = client(addr);
    assert_eq!(client.get("/v1/stat").unwrap(), (200, "{}".to_owned()));
    let (status, body) = client.post("/v1/absorb", "{\"record\":{}}").unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    assert_eq!(client.retries_performed(), 0);
    // A keep-alive answer keeps the connection.
    assert_eq!(client.get("/healthz").unwrap().0, 200);
    assert_eq!(stub.join().unwrap(), 2, "connections accepted");
}

/// The exact bytes of the client's requests. The benchmark's
/// `raw_request` replays the first shape, so it must not drift.
#[test]
fn client_request_bytes_are_pinned() {
    const EXPECTED: [&str; 3] = [
        "POST /v1/infer HTTP/1.1\r\nHost: grafics\r\nContent-Type: application/json\r\n\
         Content-Length: 10\r\nConnection: keep-alive\r\n\r\n{\"seed\":7}",
        "GET /healthz HTTP/1.1\r\nHost: grafics\r\nContent-Type: application/json\r\n\
         Content-Length: 0\r\nConnection: keep-alive\r\n\r\n",
        "POST /v1/absorb HTTP/1.1\r\nHost: grafics\r\nContent-Type: application/json\r\n\
         Content-Length: 2\r\nConnection: keep-alive\r\nAuthorization: Bearer tok\r\n\r\n{}",
    ];
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let recorder = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        EXPECTED.map(|expected| {
            let mut seen = vec![0u8; expected.len()];
            stream.read_exact(&mut seen).unwrap();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
            String::from_utf8(seen).unwrap()
        })
    });
    let mut client = client(addr);
    assert_eq!(client.post("/v1/infer", "{\"seed\":7}").unwrap().0, 200);
    assert_eq!(client.get("/healthz").unwrap().0, 200);
    client.set_auth_token(Some("tok".to_owned()));
    assert_eq!(client.post("/v1/absorb", "{}").unwrap().0, 200);
    assert_eq!(recorder.join().unwrap(), EXPECTED);
}
