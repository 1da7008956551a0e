//! A flood of idle client connections cannot grow the router's thread
//! count past its fixed worker pool, and shutdown still drains them at
//! once. Its own test binary: the check counts every thread of the
//! process, so no other test may spawn threads alongside it.

#![cfg(target_os = "linux")]

use grafics_core::{BackendSpec, RouterManifest};
use grafics_serve::{router, RouterConfig, RouterServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A loopback address nothing listens on: the router's backend probes
/// are refused at once, which is all this test needs of a backend.
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

/// One `Connection: close` request; `true` once the router answered.
fn answers(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text.starts_with("HTTP/1.1 ")
}

#[test]
fn idle_connection_flood_stays_within_the_worker_cap() {
    let mut manifest = RouterManifest::default();
    manifest.backends.push(BackendSpec {
        name: "dead".to_owned(),
        addr: dead_addr().to_string(),
    });
    let config = RouterConfig {
        manifest,
        ..RouterConfig::default()
    };
    let running = RouterServer::bind(config, "127.0.0.1:0")
        .unwrap()
        .spawn()
        .unwrap();
    // An answer means the accept loop runs, so the pool is up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !answers(running.addr()) {
        assert!(Instant::now() < deadline, "router never answered");
        std::thread::sleep(Duration::from_millis(20));
    }
    let before = threads();

    let flood: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(running.addr()).unwrap())
        .collect();
    // Give the accept loop time to take every connection. A reading
    // taken too early can only under-count, so the wait bounds the
    // test's sensitivity, never its pass condition.
    std::thread::sleep(Duration::from_millis(500));
    let grown = threads().saturating_sub(before);
    assert!(
        grown <= router::WORKERS,
        "40 idle connections grew the router by {grown} threads (cap {})",
        router::WORKERS
    );

    let start = Instant::now();
    running.shutdown().unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited {took:?} on idle connections"
    );
    drop(flood);
}
