//! Peak live heap of a batch run.
//!
//! A `Mode::Batch` run over a text log holds the corpus once: records go
//! from the parser straight into the ranker's per-node staging queues,
//! and each queue gives its memory back as it drains. This pins that
//! with a global allocator that tracks live bytes and their high-water
//! mark. A consumer that collects the parsed records and then regroups
//! them per node holds two copies of the corpus at once, which reads
//! ≥ 2 here by construction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use precisetracer::prelude::*;

struct PeakAlloc;

/// Bytes currently allocated, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees under the `GlobalAlloc` contract are exactly
// the ones `System` needs; the byte counting touches only atomics.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received (see the impl).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received (see the impl).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static A: PeakAlloc = PeakAlloc;

/// Front ends, each its own node.
const HOSTS: usize = 4;
/// Requests per front end.
const REQUESTS: usize = 2_047;
/// Response chunks per request: one END vertex however many there are,
/// so the output stays small next to the staged records.
const CHUNKS: usize = 15;

/// `HOSTS × REQUESTS` one-tier requests, each a RECEIVE and `CHUNKS`
/// SENDs: 32,752 records per node and 131,008 in all, both just under a
/// power of two, so no vector's capacity slack blurs the reading.
fn corpus() -> String {
    let mut log = String::new();
    for i in 0..REQUESTS {
        for h in 0..HOSTS {
            let ts = i as u64 * 100_000 + h as u64;
            let client = format!("192.168.{h}.9:{}", 1024 + i);
            let server = format!("10.0.0.{}:80", h + 1);
            log.push_str(&format!(
                "{ts} web{h} httpd 1 1 RECEIVE {client}-{server} 100\n"
            ));
            for k in 1..=CHUNKS {
                log.push_str(&format!(
                    "{} web{h} httpd 1 1 SEND {server}-{client} 1000\n",
                    ts + k as u64 * 1_000
                ));
            }
        }
    }
    log
}

#[test]
fn batch_run_holds_the_corpus_once() {
    let log = corpus();
    let n = HOSTS * REQUESTS * (1 + CHUNKS);
    let ips = (1..=HOSTS).map(|h| format!("10.0.0.{h}").parse().unwrap());
    let pipeline = Pipeline::new(PipelineConfig::new(AccessPointSpec::new([80], ips))).unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = pipeline.run(Source::text(&log)).unwrap();
    let peak = PEAK.load(Ordering::Relaxed);

    assert_eq!(out.metrics.records_in, n as u64);
    assert_eq!(out.cags.len(), HOSTS * REQUESTS);
    // `before` includes the log text, so this is the run's own heap.
    let units = (peak - before) as f64 / (n * std::mem::size_of::<Activity>()) as f64;
    println!("peak live heap above the log: {units:.2} x records x size_of::<Activity>()");
    assert!(
        units < 1.5,
        "a batch run peaked at {units:.2} staged copies of the corpus"
    );
}
