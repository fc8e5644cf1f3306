//! The traced pass: the harness calls each `tracer-core` module the way
//! the pipeline does, from outside, and records a span around every
//! call. Its numbers say which layer a change moved; end-to-end metrics
//! never come from here.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tracer_core::access::Classifier;
use tracer_core::binfmt::{decode_refs, decode_refs_parallel, encode_refs, read_binary_file};
use tracer_core::dot::cag_to_dot;
use tracer_core::ingest::read_log_file;
use tracer_core::prelude::*;
use tracer_core::ranker::{RankStep, RankerCounters};
use tracer_core::raw::IngestDecision;
use tracer_core::{Engine, Ranker, SpillFile};

use crate::legs::{Bench, Offline, OFFLINE_WINDOW, PACED_RATE, SERVE_POLL, SERVE_WINDOW};
use crate::run::Reading;
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::Res;

/// Rounds over all layers: one, then as many as the run's seconds allow.
const MAX_ROUNDS: usize = 5;
/// Pages of the spill micro-loop, 1 KiB each.
const SPILL_PAGES: usize = 10_000;

struct Row {
    name: &'static str,
    unit: &'static str,
    /// A count reads the same every round and reports its last
    /// reading; a timing reports the median of its rounds.
    count: bool,
    values: Vec<f64>,
}

/// The spans plus the per-layer readings taken from them.
struct Ledger {
    tracer: Tracer,
    rows: Vec<Row>,
    /// The workload's record count: what every `/rec` divides by.
    records: f64,
}

impl Ledger {
    fn put(&mut self, name: &'static str, unit: &'static str, count: bool, value: f64) {
        match self.rows.iter_mut().find(|r| r.name == name) {
            Some(row) => row.values.push(value),
            None => self.rows.push(Row {
                name,
                unit,
                count,
                values: vec![value],
            }),
        }
    }

    fn timing(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.put(name, unit, false, value);
    }

    fn count(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.put(name, unit, true, value);
    }

    fn per_rec(&mut self, name: &'static str, d: Duration) {
        self.timing(name, "ns/rec", d.as_nanos() as f64 / self.records);
    }

    /// The latest reading of `name`.
    fn latest(&self, name: &str) -> f64 {
        let row = self.rows.iter().find(|r| r.name == name);
        row.and_then(|r| r.values.last().copied())
            .unwrap_or(f64::NAN)
    }

    /// Times one call into a layer as a span.
    fn time<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.tracer.enter(span);
        let out = f();
        (out, self.tracer.exit(id))
    }

    fn readings(&self) -> Vec<Reading> {
        let reading = |r: &Row| match r.count {
            true => Reading::exact(r.name, r.unit, *r.values.last().expect("rows hold a value")),
            false => Reading::timed(r.name, r.unit, &r.values),
        };
        self.rows.iter().map(reading).collect()
    }
}

pub fn traced_pass(bench: &mut Bench<'_>, seconds: f64) -> Res<Vec<Reading>> {
    let started = Instant::now();
    let mut l = Ledger {
        tracer: Tracer::new(),
        rows: Vec::new(),
        records: bench.corpus.manifest.records as f64,
    };
    let mut round = 0;
    let mut round_s = 0.0;
    // Another round only if, at the last one's length, it ends in time.
    while round == 0 || (round < MAX_ROUNDS && started.elapsed().as_secs_f64() + round_s < seconds)
    {
        let id = l.tracer.enter("round");
        let admitted = front_end(bench, &mut l)?;
        candidate_selection(bench, &mut l, admitted)?;
        router(bench, &mut l)?;
        pipeline_facade(bench, &mut l)?;
        distributed(bench, &mut l)?;
        spill_tier(bench, &mut l)?;
        output_side(bench, &mut l)?;
        daemon(bench, &mut l)?;
        round_s = l.tracer.exit(id).as_secs_f64();
        round += 1;
    }
    twins(bench, &mut l)?;
    let path = crate::out_dir().join(format!("trace-{}.jsonl", bench.workload.name));
    l.tracer.write_jsonl(&path, bench.workload.name)?;
    println!(
        "  {} spans over {round} round(s) written to {}",
        l.tracer.spans().len(),
        path.display()
    );
    Ok(l.readings())
}

fn expect_records(what: &str, got: usize, bench: &Bench<'_>) -> Res<()> {
    if got as u64 == bench.corpus.manifest.records {
        Ok(())
    } else {
        Err(format!(
            "{what} yields {got} records, the corpus holds {}",
            bench.corpus.manifest.records
        )
        .into())
    }
}

/// ingest, binfmt, dedup, classify, filter: everything a record passes
/// before candidate selection. Returns the admitted activities.
fn front_end(bench: &Bench<'_>, l: &mut Ledger) -> Res<Vec<Activity>> {
    let (c, p) = (bench.corpus, bench.p);

    let (text, d) = l.time("ingest.read", || read_log_file(&c.text_path));
    let text = text?;
    l.per_rec("ingest.read_ns_per_rec", d);
    let (owned, d) = l.time("ingest.parse_owned", || parse_log(&text));
    expect_records("parse_log", owned?.len(), bench)?;
    l.per_rec("ingest.parse_owned_ns_per_rec", d);
    let (refs, d) = l.time("ingest.parse_refs", || parse_refs_parallel(&text, 1));
    expect_records("parse_refs_parallel(1)", refs?.len(), bench)?;
    l.per_rec("ingest.parse_refs_ns_per_rec", d);
    let (refs, d) = l.time("ingest.parse_par", || parse_refs_parallel(&text, p));
    let refs = refs?;
    expect_records("parse_refs_parallel(P)", refs.len(), bench)?;
    l.per_rec("ingest.parse_par_ns_per_rec", d);
    l.count(
        "ingest.text_bytes_per_rec",
        "B/rec",
        text.len() as f64 / l.records,
    );

    let buf = read_binary_file(&c.ptbin_path)?;
    let (decoded, d) = l.time("binfmt.decode", || decode_refs(&buf));
    if decoded? != refs {
        return Err("decode_refs differs from the text parse".into());
    }
    l.per_rec("binfmt.decode_ns_per_rec", d);
    let (decoded, d) = l.time("binfmt.decode_par", || decode_refs_parallel(&buf, p));
    if decoded? != refs {
        return Err("decode_refs_parallel differs from the text parse".into());
    }
    l.per_rec("binfmt.decode_par_ns_per_rec", d);
    let (encoded, d) = l.time("binfmt.encode", || encode_refs(&refs));
    if encoded? != buf {
        return Err("encode_refs differs from the set-up's PTBIN file".into());
    }
    l.per_rec("binfmt.encode_ns_per_rec", d);
    l.count(
        "binfmt.bytes_per_rec",
        "B/rec",
        buf.len() as f64 / l.records,
    );

    let mut dedup = RangeDedup::new();
    let (dropped, d) = l.time("dedup.decide", || {
        let drops = refs
            .iter()
            .filter(|r| dedup.decide(r) == IngestDecision::Drop);
        drops.count()
    });
    l.per_rec("dedup.decide_ns_per_rec", d);
    l.count("dedup.dropped", "count", dropped as f64);
    l.count("dedup.seq_gaps", "count", dedup.seq_gaps as f64);
    l.count("dedup.cover_bytes", "B", dedup.approx_bytes() as f64);

    let classifier = Classifier::new(c.access.clone());
    let mut interner = Interner::new();
    let (classified, d) = l.time("classify", || {
        let acts = refs
            .iter()
            .map(|r| classifier.classify_ref(r, &mut interner));
        acts.collect::<Vec<Activity>>()
    });
    l.per_rec("classify.ns_per_rec", d);
    // Untimed: the activities the dedup stage lets through, as the
    // pipeline would hand them on.
    let mut dedup = RangeDedup::new();
    let admit = |(r, mut a): (&RawRecordRef<'_>, Activity)| match dedup.decide(r) {
        IngestDecision::Drop => None,
        IngestDecision::Admit(size) => {
            a.size = size;
            Some(a)
        }
    };
    let admitted: Vec<Activity> = refs.iter().zip(classified).filter_map(admit).collect();

    // Every leg runs with the empty set; the rule is the paper's §4.3
    // attribute filter, which no leg configures.
    let empty = FilterSet::new();
    let (kept, d) = l.time("filter.empty", || {
        admitted.iter().filter(|a| empty.admits(a)).count()
    });
    black_box(kept);
    l.per_rec("filter.empty_ns_per_rec", d);
    let rule = FilterSet::new().drop_program("sshd");
    let (kept, d) = l.time("filter.rule", || {
        admitted.iter().filter(|a| rule.admits(a)).count()
    });
    l.per_rec("filter.rule_ns_per_rec", d);
    l.count("filter.dropped", "count", (admitted.len() - kept) as f64);
    Ok(admitted)
}

/// What one pass of the manual `Ranker` → `Engine` loop produced.
#[derive(Default)]
struct LoopOutcome {
    finished: usize,
    unfinished: usize,
    candidates: Vec<Activity>,
    counters: RankerCounters,
    rank_busy: Duration,
    rank_calls: u64,
    deliver_busy: Duration,
}

/// The batch drain, spelled out over the public `Ranker` and `Engine`:
/// rank, deliver, seal at every sampling boundary. With `per_call` each
/// `rank` and `deliver` is timed on its own.
fn rank_deliver_loop(cfg: &CorrelatorConfig, mut ranker: Ranker, per_call: bool) -> LoopOutcome {
    let mut engine = Engine::new(cfg.engine.clone());
    let every = cfg.mem_sample_every.max(1);
    let mut out = LoopOutcome::default();
    let (mut since_sample, mut pruned_at) = (0u64, 0usize);
    loop {
        let started = per_call.then(Instant::now);
        let step = ranker.rank(&engine);
        out.rank_busy += started.map_or(Duration::ZERO, |t| t.elapsed());
        out.rank_calls += 1;
        match step {
            RankStep::Candidate(a) => {
                out.candidates.push(a.clone());
                let started = per_call.then(Instant::now);
                engine.deliver(a);
                out.deliver_busy += started.map_or(Duration::ZERO, |t| t.elapsed());
                since_sample += 1;
                if since_sample >= every {
                    since_sample = 0;
                    out.finished += engine.take_sealed(None).len();
                    if engine.context_count() >= pruned_at + 1_024 {
                        engine.prune_stale_contexts();
                        pruned_at = engine.context_count();
                    }
                }
            }
            RankStep::Noise(_) => {}
            RankStep::NeedInput | RankStep::Exhausted => break,
        }
    }
    out.finished += engine.take_finished().len();
    out.unfinished = engine.take_unfinished().len();
    out.counters = *ranker.counters();
    out
}

/// ranker and engine, and what the spans themselves cost.
fn candidate_selection(bench: &Bench<'_>, l: &mut Ledger, admitted: Vec<Activity>) -> Res<()> {
    let cfg = bench.offline_config().correlator;
    // Per host, by local time: the batch drain's first-round sort.
    let mut streams: Vec<(Arc<str>, Vec<Activity>)> = Vec::new();
    for a in admitted {
        match streams.iter_mut().find(|(h, _)| *h == a.ctx.hostname) {
            Some((_, acts)) => acts.push(a),
            None => streams.push((Arc::clone(&a.ctx.hostname), vec![a])),
        }
    }
    for (_, acts) in &mut streams {
        acts.sort_by_key(|a| a.ts);
    }

    let untraced_streams = streams.clone();
    let id = l.tracer.enter("manual_loop");
    let (ranker, staged) = l.time("ranker.from_streams", || {
        Ranker::from_streams(cfg.ranker, streams)
    });
    let started = l.tracer.now();
    let traced = rank_deliver_loop(&cfg, ranker, true);
    let (busy, calls) = (traced.rank_busy, traced.rank_calls);
    l.tracer.accumulated("ranker.rank", started, busy, calls);
    let delivered = traced.candidates.len() as u64;
    l.tracer
        .accumulated("engine.deliver", started, traced.deliver_busy, delivered);
    let traced_wall = l.tracer.exit(id);
    if traced.finished as u64 != bench.reference_paths {
        return Err(format!(
            "the manual Ranker→Engine loop yields {} paths, the batch leg {}",
            traced.finished, bench.reference_paths
        )
        .into());
    }

    let ((), untraced_wall) = l.time("manual_loop_untraced", || {
        let ranker = Ranker::from_streams(cfg.ranker, untraced_streams);
        black_box(rank_deliver_loop(&cfg, ranker, false).finished);
    });

    l.per_rec("ranker.rank_ns_per_rec", staged + traced.rank_busy);
    let k = traced.counters;
    l.count("ranker.candidates", "count", k.candidates as f64);
    l.count("ranker.noise_discards", "count", k.noise_discards as f64);
    l.count("ranker.swaps", "count", k.swaps as f64);
    let per_candidate = k.swaps as f64 / (k.candidates as f64).max(1.0);
    l.count("ranker.swaps_per_candidate", "ratio", per_candidate);
    l.count("ranker.fetch_boosts", "count", k.fetch_boosts as f64);
    l.count("ranker.peak_buffered", "count", k.peak_buffered as f64);

    // The engine alone: the same candidates into a fresh engine, no
    // ranker consulting it in between and no per-call clock.
    let every = cfg.mem_sample_every.max(1);
    let (replayed, d) = l.time("engine.replay", || {
        let mut engine = Engine::new(cfg.engine.clone());
        let (mut since_sample, mut finished) = (0u64, 0usize);
        for a in traced.candidates {
            engine.deliver(a);
            since_sample += 1;
            if since_sample >= every {
                since_sample = 0;
                finished += engine.take_sealed(None).len();
            }
        }
        finished + engine.take_finished().len()
    });
    if replayed != traced.finished {
        return Err(format!(
            "replay yields {replayed} paths, the loop {}",
            traced.finished
        )
        .into());
    }
    l.per_rec("engine.deliver_ns_per_rec", d);
    l.count("engine.cags_finished", "count", traced.finished as f64);
    l.count("engine.cags_unfinished", "count", traced.unfinished as f64);

    let overhead =
        (traced_wall.as_secs_f64() - untraced_wall.as_secs_f64()) / untraced_wall.as_secs_f64();
    l.timing("trace.overhead_share", "share", overhead);
    Ok(())
}

/// shard: the reader-side session router alone.
fn router(bench: &Bench<'_>, l: &mut Ledger) -> Res<()> {
    let cfg = bench.offline_config().correlator;
    let records = bench.corpus.records.clone();
    let (routed, d) = l.time("shard.route", || {
        tracer_core::shard::route_records(&cfg, bench.p, records)
    });
    let routed = routed?;
    l.per_rec("shard.route_ns_per_rec", d);
    l.count("shard.activities_out", "count", routed.len() as f64);
    let mut load = vec![0u64; bench.p];
    for (_, shard) in &routed {
        load[*shard as usize] += 1;
    }
    let mean = routed.len() as f64 / bench.p as f64;
    let max = load.iter().copied().max().unwrap_or(0) as f64;
    l.count("shard.skew", "ratio", max / mean.max(1.0));
    Ok(())
}

/// pipeline: `Pipeline::run` over records already in memory, so no
/// parse — each mode's correlation alone — and what of the batch run no
/// public call accounts for.
fn pipeline_facade(bench: &mut Bench<'_>, l: &mut Ledger) -> Res<()> {
    let modes = [
        ("pipeline.batch_ns_per_rec", Mode::Batch),
        ("pipeline.streaming_ns_per_rec", Mode::Streaming),
        ("pipeline.sharded1_ns_per_rec", Mode::Sharded(1)),
        ("pipeline.sharded_ns_per_rec", Mode::Sharded(bench.p)),
    ];
    for (name, mode) in modes {
        let cfg = bench.offline_config().with_mode(mode);
        let id = l.tracer.enter(name);
        let rep = bench.run_pipeline(name, cfg, Source::records(bench.corpus.records.clone()));
        l.tracer.exit(id);
        let rep = rep?;
        l.timing(name, "ns/rec", rep.wall_s * 1e9 / l.records);
        if mode == Mode::Sharded(bench.p) {
            let m = rep.metrics.expect("pipeline legs carry metrics");
            l.count("shard.orphan_dropped", "count", m.orphan_dropped as f64);
            l.count("shard.aged_settles", "count", m.ranker.aged_settles as f64);
        }
    }
    let layers = [
        "dedup.decide_ns_per_rec",
        "classify.ns_per_rec",
        "filter.empty_ns_per_rec",
        "ranker.rank_ns_per_rec",
        "engine.deliver_ns_per_rec",
    ];
    let attributed: f64 = layers.iter().map(|name| l.latest(name)).sum();
    let unattributed = 1.0 - attributed / l.latest("pipeline.batch_ns_per_rec");
    l.timing("pipeline.unattributed_share", "share", unattributed);
    Ok(())
}

/// Bytes through, and time blocked in, one router's connection.
#[derive(Default)]
struct Wire {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    blocked_ns: AtomicU64,
}

struct Counted<'a> {
    stream: TcpStream,
    wire: &'a Wire,
}

impl Counted<'_> {
    fn note(&self, bytes: &AtomicU64, n: usize, started: Instant) {
        bytes.fetch_add(n as u64, Ordering::Relaxed);
        let blocked = started.elapsed().as_nanos() as u64;
        self.wire.blocked_ns.fetch_add(blocked, Ordering::Relaxed);
    }
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let started = Instant::now();
        let n = self.stream.read(buf)?;
        self.note(&self.wire.bytes_in, n, started);
        Ok(n)
    }
}

impl Write for Counted<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let started = Instant::now();
        let n = self.stream.write(buf)?;
        self.note(&self.wire.bytes_out, n, started);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// dist: the distributed leg again, its routers now threads of the
/// harness behind loopback listeners, so the bytes and the waiting on
/// each connection can be counted.
fn distributed(bench: &mut Bench<'_>, l: &mut Ledger) -> Res<()> {
    let sharded = bench.run_offline(Offline::Sharded)?;
    let listeners = [
        TcpListener::bind("127.0.0.1:0")?,
        TcpListener::bind("127.0.0.1:0")?,
    ];
    let addrs = listeners
        .iter()
        .map(|s| s.local_addr().map(|a| a.to_string()))
        .collect::<std::io::Result<Vec<String>>>()?;
    let wires = [Wire::default(), Wire::default()];
    let cfg = bench
        .config_of(Offline::Dist)
        .with_router_transport(RouterTransport::Connect {
            addrs: addrs.clone(),
        });
    let id = l.tracer.enter("dist.connect_run");
    let (rep, router_walls) = std::thread::scope(|scope| {
        let routers: Vec<_> = listeners
            .iter()
            .zip(&wires)
            .map(|(listener, wire)| {
                scope.spawn(move || -> Result<Duration, String> {
                    let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
                    let started = Instant::now();
                    let reader = Counted {
                        stream: stream.try_clone().map_err(|e| e.to_string())?,
                        wire,
                    };
                    serve_router(reader, Counted { stream, wire }).map_err(|e| e.to_string())?;
                    Ok(started.elapsed())
                })
            })
            .collect();
        let source = Source::path(&bench.corpus.text_path);
        let rep = bench.run_pipeline("dist.connect", cfg, source);
        if rep.is_err() {
            // Release routers the coordinator never reached.
            for addr in &addrs {
                drop(TcpStream::connect(addr));
            }
        }
        let walls: Vec<_> = routers
            .into_iter()
            .map(|r| r.join().expect("router thread panicked"))
            .collect();
        (rep, walls)
    });
    l.tracer.exit(id);
    let rep = rep?;
    let mut router_wall = Duration::ZERO;
    for wall in router_walls {
        router_wall += wall?;
    }
    let sum = |f: fn(&Wire) -> &AtomicU64| -> f64 {
        wires
            .iter()
            .map(|w| f(w).load(Ordering::Relaxed))
            .sum::<u64>() as f64
    };
    let (to, from) = (sum(|w| &w.bytes_in), sum(|w| &w.bytes_out));
    let wait_s = sum(|w| &w.blocked_ns) / 1e9;
    l.count("dist.bytes_to_routers", "B", to);
    l.count("dist.bytes_from_routers", "B", from);
    l.count("dist.bytes_per_rec", "B/rec", (to + from) / l.records);
    l.timing(
        "dist.router_busy_s",
        "s",
        router_wall.as_secs_f64() - wait_s,
    );
    l.timing("dist.router_wait_s", "s", wait_s);
    l.timing("dist.wall_vs_sharded", "ratio", rep.wall_s / sharded.wall_s);
    Ok(())
}

/// spill: the page store on its own, then the budget leg's counters.
fn spill_tier(bench: &mut Bench<'_>, l: &mut Ledger) -> Res<()> {
    let file = SpillFile::create(&bench.dir)?;
    let ((), d) = l.time("spill.page_roundtrip", || {
        let extents: Vec<_> = (0..SPILL_PAGES)
            .map(|i| file.put(vec![i as u8; 1024]))
            .collect();
        for ext in &extents {
            black_box(file.get(*ext));
        }
        for ext in extents {
            file.free(ext);
        }
    });
    drop(file);
    let per_page_us = d.as_secs_f64() * 1e6 / SPILL_PAGES as f64;
    l.timing("spill.page_roundtrip_us", "us", per_page_us);

    let batch = bench.run_offline(Offline::Batch)?;
    let id = l.tracer.enter("spill.budget_run");
    let budget = bench.run_offline(Offline::Budget);
    l.tracer.exit(id);
    let budget = budget?;
    let m = budget.metrics.expect("pipeline legs carry metrics");
    let spilled = m.engine.spilled_cags + m.engine.spilled_orphans + m.spilled_dedup_entries;
    let faults = m.engine.spill_faults + m.spill_dedup_faults;
    l.count("spill.spilled", "count", spilled as f64);
    l.count("spill.faults", "count", faults as f64);
    l.count(
        "spill.faults_per_krec",
        "1/krec",
        faults as f64 * 1e3 / l.records,
    );
    l.count("spill.pages_written", "count", m.spill_pages_written as f64);
    l.count("spill.pages_read", "count", m.spill_pages_read as f64);
    l.count("spill.queue_hits", "count", m.spill_queue_hits as f64);
    l.timing("spill.wall_vs_batch", "ratio", budget.wall_s / batch.wall_s);
    Ok(())
}

/// merge, pattern, analysis, dot: what happens to paths once they
/// exist.
fn output_side(bench: &Bench<'_>, l: &mut Ledger) -> Res<()> {
    // An emission-order output, as an incremental session hands it on.
    let cfg = bench.offline_config().with_mode(Mode::Streaming);
    let mut session = Pipeline::new(cfg)?.session()?;
    let mut cags = Vec::new();
    for (i, rec) in bench.corpus.records.iter().cloned().enumerate() {
        session.push(rec)?;
        if i % 4096 == 0 {
            cags.extend(session.poll()?);
        }
    }
    let mut out = session.finish()?;
    cags.append(&mut out.cags);
    out.cags = cags;
    let paths = out.cags.len().max(1) as f64;

    let ((), d) = l.time("merge.canonicalize", || out.canonicalize());
    l.timing(
        "merge.canonicalize_ns_per_cag",
        "ns/cag",
        d.as_nanos() as f64 / paths,
    );
    let (patterns, d) = l.time("pattern.aggregate", || {
        PatternAggregator::from_cags(&out.cags)
    });
    l.timing(
        "pattern.aggregate_ns_per_cag",
        "ns/cag",
        d.as_nanos() as f64 / paths,
    );
    l.count("pattern.count", "count", patterns.len() as f64);
    let (breakdown, d) = l.time("analysis.breakdown", || {
        BreakdownReport::dominant(&out.cags)
    });
    black_box(breakdown);
    l.timing("analysis.breakdown_us", "us", d.as_secs_f64() * 1e6);
    let (bytes, d) = l.time("dot.render", || {
        out.cags.iter().map(|c| cag_to_dot(c).len()).sum::<usize>()
    });
    black_box(bytes);
    l.timing(
        "dot.render_ns_per_cag",
        "ns/cag",
        d.as_nanos() as f64 / paths,
    );
    Ok(())
}

/// serve: one paced run, read through the daemon's report, its KPI
/// samples and the generator's own clock. A live run does not repeat
/// exactly, so these read as medians over the rounds.
fn daemon(bench: &mut Bench<'_>, l: &mut Ledger) -> Res<()> {
    let id = l.tracer.enter("serve.paced_run");
    let run = bench.run_serve("serve.paced", true);
    l.tracer.exit(id);
    let run = run?;
    let r = &run.report;
    let live = r.cags_sealed as f64 / (r.total_cags() as f64).max(1.0);
    l.timing("serve.live_sealed_share", "share", live);
    l.timing("serve.correct_share", "share", run.correct_share);

    // Where the daemon stood when the generator wrote its last record.
    let before = run.kpis.iter().take_while(|(at, _)| *at <= run.gen.wall);
    let ingested = before.last().map_or(0, |(_, k)| k.records_in);
    l.timing(
        "serve.backlog_end_records",
        "records",
        l.records - ingested as f64,
    );
    // At each KPI sample: bytes the generator had written, less the
    // bytes of the records ingested by then (at the corpus's mean line
    // length — the report has no per-sample read offsets).
    let bytes_per_rec = bench.corpus.manifest.text_bytes as f64 / l.records;
    let mut behind: Vec<f64> = run
        .kpis
        .iter()
        .map(|(at, k)| {
            let written = run.gen.progress.iter().take_while(|p| p.at <= *at);
            let written = written.last().map_or(0, |p| p.bytes) as f64;
            (written - k.records_in as f64 * bytes_per_rec).max(0.0)
        })
        .collect();
    behind.sort_by(f64::total_cmp);
    let read_lag = if behind.is_empty() {
        0.0
    } else {
        quantile(&behind, 0.99)
    };
    l.timing("serve.read_lag_p99_bytes", "B", read_lag);
    let torn: u64 = r.sources.iter().map(|s| s.torn_retries).sum();
    l.timing("serve.torn_retries", "count", torn as f64);
    l.count("serve.shed_records", "count", r.shed_records() as f64);
    l.timing("serve.peak_state_bytes", "B", r.peak_state_bytes as f64);
    l.timing(
        "serve.seal_lag_p99_records",
        "records",
        r.p99_seal_lag as f64,
    );
    l.timing("serve.gen_late_p99_ms", "ms", run.gen_late_p99_ms());
    Ok(())
}

/// The findings the end-to-end corpora leave out so that no request
/// fails on them, each read on a twin of the workload — the same
/// session captured another way — and scored by the twin's own tags.
fn twins(bench: &Bench<'_>, l: &mut Ledger) -> Res<()> {
    let seed = bench.corpus.manifest.seed;
    let offline = |out: &multitier::ExperimentOutput, mode| {
        let cfg = PipelineConfig::new(out.access_spec())
            .with_window(OFFLINE_WINDOW)
            .with_mode(mode);
        out.correlate_pipeline(cfg).map(|(_, acc)| acc.recall())
    };

    // Captured as TCP_TRACE v2 under 50 ms of clock skew, nothing
    // dropped: what the session router still traces of it, and what a
    // streaming session does that receives it the way the daemon's
    // per-host tailers deliver it.
    let mut skewed = bench.workload.experiment(seed, bench.size);
    skewed.spec = skewed.spec.with_skew_ms(50).with_sniffer_capture(0.0);
    let skewed = multitier::run(skewed);
    let (recall, _) = l.time("shard.v2_skew_twin", || {
        offline(&skewed, Mode::Sharded(bench.p))
    });
    l.count("shard.v2_skew_recall", "share", recall?);
    let (recall, _) = l.time("serve.v2_split_twin", || split_feed_recall(&skewed));
    l.count("serve.v2_split_recall", "share", recall?);

    // Captured by a sniffer that misses 2 % of the segments: what batch
    // mode still traces across the gaps.
    let mut gapped = bench.workload.experiment(seed, bench.size);
    gapped.spec = gapped.spec.with_sniffer_capture(0.02);
    let gapped = multitier::run(gapped);
    let (recall, _) = l.time("engine.v2_gap_twin", || offline(&gapped, Mode::Batch));
    l.count("engine.v2_gap_recall", "share", recall?);
    Ok(())
}

/// Recall of a streaming session at the serve window that is handed the
/// corpus one host at a time — as many records each as one poll interval
/// brings at the paced rate — and polled after every hand-over: the
/// daemon's ingest without its threads, so the reading repeats exactly.
fn split_feed_recall(out: &multitier::ExperimentOutput) -> Res<f64> {
    let mut hosts: Vec<(&str, Vec<&RawRecord>)> = Vec::new();
    for r in &out.records {
        match hosts.iter_mut().find(|(h, _)| *h == &*r.hostname) {
            Some((_, recs)) => recs.push(r),
            None => hosts.push((&r.hostname, vec![r])),
        }
    }
    let per_poll = PACED_RATE * SERVE_POLL.as_secs_f64();
    let chunk = (per_poll as usize / hosts.len().max(1)).max(1);
    let cfg = PipelineConfig::new(out.access_spec())
        .with_window(SERVE_WINDOW)
        .with_mode(Mode::Streaming);
    let mut session = Pipeline::new(cfg)?.session()?;
    let mut cags = Vec::new();
    let longest = hosts.iter().map(|(_, recs)| recs.len()).max().unwrap_or(0);
    for from in (0..longest).step_by(chunk) {
        for (_, recs) in &hosts {
            for &r in recs.iter().skip(from).take(chunk) {
                session.push(r.clone())?;
            }
            cags.extend(session.poll()?);
        }
    }
    cags.append(&mut session.finish()?.cags);
    Ok(out.truth.evaluate(&cags).recall())
}
