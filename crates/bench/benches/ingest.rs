//! `ingest` bench: the parallel scan front-end against the sequential
//! parse, one-billion-row-challenge style — same rendered TCP_TRACE
//! text, chunked across worker threads on record boundaries, no
//! per-field allocation.
//!
//! The interesting numbers (also recorded per-commit by
//! `repro --quick --json scale` into `BENCH_baseline.json` as the
//! `scale.ingest_*` and `scale.binary_*` keys): records/s for the
//! borrowed parallel scan, the interning parallel parse, the
//! sequential baseline, and the PTBIN binary encode/decode paths. On a
//! multi-core socket the parallel scan should approach memory
//! bandwidth; on one core it must still clear 5x the batch
//! correlation rate so ingest is never the pipeline's bottleneck; the
//! fixed-width PTBIN decode should beat the text scan by well over 2x.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use multitier::ExperimentConfig;
use tracer_core::binfmt;
use tracer_core::raw::parse_log;
use tracer_core::{parse_log_parallel, parse_refs_parallel};

const INGEST_THREADS: usize = 4;

fn bench(c: &mut Criterion) {
    let out = multitier::run(ExperimentConfig::scale());
    let mut text = String::with_capacity(out.records.len() * 72);
    for r in &out.records {
        text.push_str(&r.to_string());
        text.push('\n');
    }
    let records = out.records.len();
    drop(out);

    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(records as u64));

    g.bench_function("parse_log_seq", |b| {
        b.iter(|| parse_log(&text).expect("valid log").len())
    });

    g.bench_function("parse_log_parallel_x4", |b| {
        b.iter(|| {
            parse_log_parallel(&text, INGEST_THREADS)
                .expect("valid log")
                .len()
        })
    });

    g.bench_function("parse_refs_parallel_x4", |b| {
        b.iter(|| {
            parse_refs_parallel(&text, INGEST_THREADS)
                .expect("valid log")
                .len()
        })
    });

    // PTBIN: the fixed-width binary form of the same corpus. Decode
    // skips text scanning entirely, so the decode legs should sit well
    // above even the parallel text scan.
    let bin = binfmt::encode_text(&text, INGEST_THREADS).expect("valid log");

    g.bench_function("ptbin_encode_x4", |b| {
        b.iter(|| {
            binfmt::encode_text(&text, INGEST_THREADS)
                .expect("valid log")
                .len()
        })
    });

    g.bench_function("ptbin_decode_seq", |b| {
        b.iter(|| binfmt::decode_refs(&bin).expect("valid stream").len())
    });

    g.bench_function("ptbin_decode_x4", |b| {
        b.iter(|| {
            binfmt::decode_refs_parallel(&bin, INGEST_THREADS)
                .expect("valid stream")
                .len()
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
