//! JSON at the trust boundary: request bodies and WAL lines come from
//! clients and disks, so the decoder must turn any text into a typed
//! `serde_json::Error` without panicking, overflowing the stack, or
//! allocating out of proportion to the input.
//!
//! Inputs: random bytes, a valid infer body and a valid WAL line cut at
//! every byte, nesting far past `MAX_DEPTH` (also inside an unknown,
//! skipped field), a 10^6-digit number and a 1 MB string. For each one,
//! every target type must decode to a value or an `Error`, and the peak
//! heap the decode allocates on its thread must stay within a small
//! multiple of the input's size class.
//!
//! This file is its own test binary because it installs a counting
//! global allocator.

use grafics_core::wal::WalEntry;
use grafics_serve::api::{AbsorbRequest, InferBatchRequest, InferRequest};
use grafics_types::{MacAddr, Reading, Rssi, SignalRecord};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Deserialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Decodes `text` as `T`, returning whether it decoded and the peak
/// bytes the decode held at once on this thread (the result included).
fn peak_decode<T: Deserialize>(text: &str) -> (bool, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let decoded = serde_json::from_str::<T>(text).is_ok();
    let peak = PEAK.with(Cell::get) - base;
    (decoded, usize::try_from(peak).unwrap_or(0))
}

/// Every trust-boundary type on one input: a value or a typed error,
/// and at most four times the input's size class (its length rounded up
/// to a power of two) plus a page of heap. Returns which decoded, in the
/// order infer, absorb, batch, WAL entry.
fn fuzz_one(text: &str) -> [bool; 4] {
    let allowed = 4 * text.len().next_power_of_two() + 4096;
    let results = [
        peak_decode::<InferRequest>(text),
        peak_decode::<AbsorbRequest>(text),
        peak_decode::<InferBatchRequest>(text),
        peak_decode::<WalEntry>(text),
    ];
    for (decoded, peak) in results {
        assert!(
            peak <= allowed,
            "decode held {peak} B for a {} B input (allowed {allowed}, decoded {decoded}): {:?}",
            text.len(),
            &text[..text.len().min(200)]
        );
    }
    results.map(|(decoded, _)| decoded)
}

fn record() -> SignalRecord {
    SignalRecord::new(
        (0..40u32)
            .map(|i| {
                let rssi = Rssi::new(-90.0 + f64::from(i) * 1.37).unwrap();
                Reading::new(MacAddr::from_u64(0xa4_5602_0000 + u64::from(i)), rssi)
            })
            .collect(),
    )
    .unwrap()
}

fn infer_body() -> String {
    format!(
        r#"{{"record":{},"seed":7,"index":3}}"#,
        serde_json::to_string(&record()).unwrap()
    )
}

fn wal_line() -> String {
    let entry = WalEntry {
        seq: 9,
        rng: 41,
        seed: 4242,
        record: record(),
    };
    serde_json::to_string(&entry).unwrap()
}

#[test]
fn truncation_at_every_byte_is_an_error() {
    for whole in [infer_body(), wal_line()] {
        assert!(fuzz_one(&whole)[0], "the whole text decodes");
        // The counter sees the decoded record's readings.
        assert!(peak_decode::<InferRequest>(&whole).1 >= 40 * 16);
        for cut in 0..whole.len() {
            assert_eq!(fuzz_one(&whole[..cut]), [false; 4], "cut at byte {cut}");
        }
    }
}

#[test]
fn nesting_past_the_limit_is_an_error() {
    let body = infer_body();
    let deep = |open: &str, n: usize| open.repeat(n);
    for n in [129, 1_000, 200_000] {
        assert_eq!(fuzz_one(&deep("[", n)), [false; 4]);
        assert_eq!(fuzz_one(&deep("{\"record\":", n)), [false; 4]);
        // Inside an unknown field that a typed read skips.
        let hidden = format!(r#"{{"zz":{}{},{}"#, deep("[", n), deep("]", n), &body[1..]);
        assert_eq!(fuzz_one(&hidden), [false; 4], "depth {n}");
    }
    // Up to the limit, a skipped field still decodes.
    let ok = format!(
        r#"{{"zz":{}{},{}"#,
        deep("[", 127),
        deep("]", 127),
        &body[1..]
    );
    assert!(fuzz_one(&ok)[0]);
}

#[test]
fn huge_numbers_and_strings_are_bounded() {
    let body = infer_body();
    let digits = "7".repeat(1_000_000);
    let string = "x".repeat(1 << 20);
    let escaped = "\\n".repeat(1 << 19);
    let cases = [
        format!(r#"{{"seed":{digits},{}"#, &body[1..]),
        format!(r#"{{"seed":-{digits}.5e3,{}"#, &body[1..]),
        format!(r#"{{"zz":{digits},{}"#, &body[1..]),
        format!(r#"{{"zz":"{string}",{}"#, &body[1..]),
        format!(r#"{{"zz":"{escaped}",{}"#, &body[1..]),
        format!(r#"{{"{string}":1,{}"#, &body[1..]),
        format!(r#"{{"record":"{escaped}"}}"#),
        format!(r#"{{"record":{{"readings":[{{"mac":{digits},"rssi":-50}}]}}}}"#),
    ];
    // A skipped huge number or string leaves the infer body decodable;
    // one in a typed field is a shape error.
    let decodes = [false, false, true, true, true, true, false, false];
    for (text, want) in cases.iter().zip(decodes) {
        assert_eq!(fuzz_one(text)[0], want, "{}", &text[..60]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_bytes_never_panic(seed in any::<u64>(), len in 0usize..96) {
        const JSONISH: &[u8] = b"{}[]:,\"\\-+.0123456789eEnulltrfa \n";
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    JSONISH[rng.gen_range(0..JSONISH.len())]
                } else {
                    rng.gen()
                }
            })
            .collect();
        fuzz_one(&String::from_utf8_lossy(&bytes));
    }
}
