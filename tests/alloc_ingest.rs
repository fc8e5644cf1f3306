//! Allocation accounting for the zero-copy ingest path.
//!
//! The tentpole claim: parsing a TCP_TRACE log through
//! [`parse_log_iter`] + interning performs **no per-record string
//! allocations** — hostnames and programs are shared `Arc<str>`s, and
//! the borrowed [`RawRecordRef`] path allocates nothing at all. This
//! test pins that with a counting global allocator: allocation counts
//! on the hot path must stay orders of magnitude below the record
//! count, while the historical per-line owned parse allocates multiple
//! times per record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use precisetracer::prelude::*;

struct CountingAlloc;

/// Every allocation in the process, whichever thread made it.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without
    /// a destructor, so reading it inside the allocator never allocates
    /// or registers anything itself.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Serializes entire tests: the `*_parallel` tests count process-wide,
/// so concurrently running tests (one thread per core by default) would
/// count each other's allocations — including their setup — into an
/// open measurement window. Every test takes this guard first.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocations `f` makes on the calling thread. The guard above cannot
/// keep libtest itself quiet — it spawns the next test's thread and
/// prints results while a measurement is open — so single-threaded
/// assertions with a tight ceiling count on the measuring thread only.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let r = f();
    (THREAD_ALLOCS.with(Cell::get) - before, r)
}

/// Allocations the whole process makes while `f` runs: for code that
/// spawns its own worker threads. Includes libtest's few, which the
/// callers' ceilings absorb.
fn process_allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

const LINES: usize = 10_000;

/// A log with the realistic shape: few distinct hostnames/programs,
/// many records.
fn synthetic_log() -> String {
    let mut s = String::with_capacity(LINES * 64);
    for i in 0..LINES {
        let (host, prog, port) = match i % 3 {
            0 => ("web1", "httpd", 80),
            1 => ("app1", "java", 8009),
            _ => ("db1", "mysqld", 3306),
        };
        s.push_str(&format!(
            "{} {host} {prog} {} {} SEND 10.0.0.1:{port}-10.0.0.2:9000 {}\n",
            1_000_000 + i as u64,
            1000 + (i % 7),
            2000 + (i % 13),
            100 + (i % 900),
        ));
    }
    s
}

#[test]
fn borrowed_iteration_allocates_nothing_per_record() {
    let _serial = serial();
    let text = synthetic_log();
    let (allocs, parsed) = allocs_during(|| {
        parse_log_iter(&text)
            .map(|r| r.expect("valid line").size)
            .sum::<u64>()
    });
    assert!(parsed > 0);
    assert!(
        allocs < 16,
        "borrowed parse of {LINES} records performed {allocs} allocations"
    );
}

#[test]
fn interned_parse_log_allocation_count_is_sublinear() {
    let _serial = serial();
    let text = synthetic_log();
    let (allocs, records) = allocs_during(|| parse_log(&text).expect("valid log"));
    assert_eq!(records.len(), LINES);
    // Vec growth is O(log n) reallocations; the interner allocates once
    // per distinct string (6 here). Everything else is shared.
    assert!(
        allocs < LINES / 10,
        "interned parse of {LINES} records performed {allocs} allocations \
         — the hot path must not allocate per record"
    );
    // The interning is real: equal names share one backing allocation.
    assert!(std::sync::Arc::ptr_eq(
        &records[0].hostname,
        &records[3].hostname
    ));
}

#[test]
fn per_line_owned_parse_allocates_per_record_as_baseline() {
    let _serial = serial();
    // Sanity-check the counter: the naive line-at-a-time owned parse
    // (a fresh interner per line, as `RawRecord::parse_line` must —
    // it has no session state) allocates at least once per record.
    let text = synthetic_log();
    let (allocs, total) = allocs_during(|| {
        text.lines()
            .filter(|l| !l.is_empty())
            .map(|l| RawRecord::parse_line(l).expect("valid").size)
            .sum::<u64>()
    });
    assert!(total > 0);
    assert!(
        allocs >= LINES,
        "expected the owned per-line path to allocate per record, got {allocs}"
    );
}

#[test]
fn parallel_borrowed_scan_allocates_no_strings() {
    let _serial = serial();
    // The borrowed variant allocates only the per-chunk record vectors
    // and thread machinery: bounded, far below the record count.
    let text = synthetic_log();
    let (allocs, refs) =
        process_allocs_during(|| parse_refs_parallel(&text, 4).expect("valid log"));
    assert_eq!(refs.len(), LINES);
    assert!(
        allocs < 256,
        "borrowed parallel scan of {LINES} records performed {allocs} allocations"
    );
}

#[test]
fn classify_ref_ingest_allocates_only_on_first_sight() {
    let _serial = serial();
    let text = synthetic_log();
    let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
    let classifier = precisetracer::tracer::access::Classifier::new(access);
    let mut interner = Interner::new();
    // Warm the interner with the first few records.
    for r in parse_log_iter(&text).take(10) {
        let _ = classifier.classify_ref(&r.unwrap(), &mut interner);
    }
    let (allocs, n) = allocs_during(|| {
        parse_log_iter(&text)
            .skip(10)
            .map(|r| classifier.classify_ref(&r.unwrap(), &mut interner))
            .count()
    });
    assert_eq!(n, LINES - 10);
    assert!(
        allocs < 16,
        "steady-state classify_ref performed {allocs} allocations over {n} records"
    );
}
