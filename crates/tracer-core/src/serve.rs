//! Online serving: an always-on correlation daemon over live sources.
//!
//! [`Server`] tails N record sources — growing files or FIFO pipes,
//! `TCP_TRACE` text or PTBIN, auto-sniffed — concurrently, feeds them
//! through a [`crate::pipeline::Pipeline`] session, and continuously
//! emits sealed CAGs, pattern updates and latency KPIs to a
//! [`ServeSink`]. This is the online-tracing service of the authors'
//! follow-up work, built on the offline correlator's machinery.
//!
//! # Bounded state
//!
//! Nothing in the daemon grows with stream length:
//!
//! * correlation state is bounded by the configured
//!   [`crate::correlator::CorrelatorConfig::memory_budget`] (cold
//!   state pages out to the disk spill tier, keeping recall intact)
//!   and the ranker's sliding window; the drain removes every spill
//!   artifact the process created;
//! * sharded router state is bounded by the bounded-age settle rule
//!   and the channel-idle GC, both fixed at 65,536 records (see
//!   [`crate::shard`]);
//! * ingest state is one torn element per source (carry buffer or
//!   [`crate::binfmt::StreamDecoder`] fragment);
//! * the source → correlator queue is a bounded channel with an
//!   explicit [`ShedPolicy`]: block the tailer (lossless) or drop and
//!   count batches under sustained pressure;
//! * KPI state (seal-lag checkpoints and lag samples) lives in fixed
//!   rings.
//!
//! # Fault tolerance
//!
//! Each source is supervised independently: a missing file (`ENOENT`)
//! is retried with exponential backoff; a shrunk file is treated as a
//! source restart (offset rewinds to zero, decode state resets, the
//! restart is counted — rewound timestamps are the correlator's
//! problem and merely deform affected paths); torn tails at a live EOF
//! are carried and retried, never errors; malformed text lines are
//! counted and skipped. A clean stop (the `stop` flag, wired to
//! SIGINT/SIGTERM by the `pt serve` binary) drains what is sealable
//! and reports everything shed or dropped.

use std::io::Read;
use std::os::unix::fs::FileTypeExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::time::{Duration, Instant};

use crate::binfmt::{is_ptbin, StreamDecoder};
use crate::cag::Cag;
use crate::correlator::CorrelationOutput;
use crate::error::TraceError;
use crate::ingest::split_complete_lines;
use crate::intern::Interner;
use crate::pattern::PatternAggregator;
use crate::pipeline::{Mode, Pipeline, PipelineConfig};
use crate::raw::{parse_log_iter, RawRecord};

/// How a source's byte stream is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Sniff the first bytes: PTBIN magic → binary, else text.
    Auto,
    /// `TCP_TRACE` text lines.
    Text,
    /// PTBIN binary segments ([`crate::binfmt`]).
    Ptbin,
}

/// One record source to tail: a growing file or a FIFO pipe.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Path to the file or FIFO.
    pub path: PathBuf,
    /// Decode as text, binary, or sniff ([`SourceKind::Auto`]).
    pub kind: SourceKind,
}

impl SourceSpec {
    /// A source with auto-sniffed format.
    pub fn auto(path: impl Into<PathBuf>) -> Self {
        SourceSpec {
            path: path.into(),
            kind: SourceKind::Auto,
        }
    }
}

/// What to do when the bounded source → correlator queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Block the tailer until the correlator catches up (lossless; the
    /// source file keeps growing meanwhile, so no data is lost either
    /// way — ingest just lags). The default.
    #[default]
    Block,
    /// Drop the newest decoded batch and count its records in
    /// [`SourceReport::shed_records`]. Keeps ingest latency flat under
    /// sustained overload at the price of recall.
    Drop,
}

/// Configuration for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The correlation pipeline (mode, window, budgets). Batch mode is
    /// rejected — it buffers the whole stream.
    pub pipeline: PipelineConfig,
    /// Sources to tail concurrently.
    pub sources: Vec<SourceSpec>,
    /// Tail poll cadence for quiet regular files.
    pub poll_interval: Duration,
    /// Initial retry backoff for a missing source (doubles up to
    /// [`ServeConfig::max_backoff`]).
    pub retry_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// A regular-file source counts as ended after this much quiet
    /// (no growth); `None` follows forever (until the stop flag).
    /// FIFO sources end at writer hang-up regardless.
    pub idle_end: Option<Duration>,
    /// Queue-full policy (see [`ShedPolicy`]).
    pub shed: ShedPolicy,
    /// Bounded queue depth in decoded batches (across all sources).
    pub queue_batches: usize,
    /// Emit a KPI sample to the sink every this many records
    /// (`0` = only the final report).
    pub kpi_every_records: u64,
    /// Seal-lag checkpoint granularity in records.
    pub checkpoint_every: u64,
}

impl ServeConfig {
    /// Defaults: 20ms poll, 50ms→2s backoff, follow forever, lossless
    /// shed policy, 64-batch queue, KPI every 50k records.
    pub fn new(pipeline: PipelineConfig, sources: Vec<SourceSpec>) -> Self {
        ServeConfig {
            pipeline,
            sources,
            poll_interval: Duration::from_millis(20),
            retry_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            idle_end: None,
            shed: ShedPolicy::Block,
            queue_batches: 64,
            kpi_every_records: 50_000,
            checkpoint_every: 256,
        }
    }
}

/// Per-source ingest counters, as of the final report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceReport {
    /// The source path, as configured.
    pub path: String,
    /// Raw bytes read.
    pub bytes_read: u64,
    /// Records decoded and forwarded.
    pub records: u64,
    /// Malformed text lines counted and skipped.
    pub malformed_lines: u64,
    /// Torn-tail events carried across a read boundary and retried.
    pub torn_retries: u64,
    /// Source restarts (file shrank or was replaced; offset rewound).
    pub restarts: u64,
    /// Open retries while the source was missing (`ENOENT` backoff).
    pub open_retries: u64,
    /// Decoded records dropped by the [`ShedPolicy::Drop`] policy.
    pub shed_records: u64,
    /// A torn element still pending at the source's final EOF
    /// (truncated tail: mid-cell in binary, mid-line in text).
    pub truncated_eof: u64,
    /// Fatal decode errors (malformed PTBIN framing); the source stops
    /// at the first one.
    pub decode_errors: u64,
}

#[derive(Debug, Default)]
struct SourceCounters {
    bytes_read: AtomicU64,
    records: AtomicU64,
    malformed_lines: AtomicU64,
    torn_retries: AtomicU64,
    restarts: AtomicU64,
    open_retries: AtomicU64,
    shed_records: AtomicU64,
    truncated_eof: AtomicU64,
    decode_errors: AtomicU64,
}

impl SourceCounters {
    fn report(&self, path: &std::path::Path) -> SourceReport {
        SourceReport {
            path: path.display().to_string(),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            malformed_lines: self.malformed_lines.load(Ordering::Relaxed),
            torn_retries: self.torn_retries.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            open_retries: self.open_retries.load(Ordering::Relaxed),
            shed_records: self.shed_records.load(Ordering::Relaxed),
            truncated_eof: self.truncated_eof.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// A periodic KPI sample pushed to the sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeKpi {
    /// Records pushed into the correlator so far.
    pub records_in: u64,
    /// CAGs sealed and emitted so far (excludes the final drain).
    pub cags_sealed: u64,
    /// Distinct causal-path patterns observed so far.
    pub patterns: usize,
    /// p99 seal lag over the recent window, in pushed records between
    /// a CAG's newest-vertex checkpoint and its emission (streaming
    /// mode; `0` when nothing sealed yet).
    pub p99_seal_lag: u64,
    /// Approximate resident bytes of the correlation state.
    pub state_bytes: usize,
    /// Resident set size of the process, if the platform exposes it.
    pub rss_bytes: Option<u64>,
    /// Records shed so far by the queue-full policy, across sources.
    pub shed_records: u64,
    /// Objects (CAGs, orphan chains, dedup coverage) paged out by the
    /// spill tier so far (streaming mode; sharded workers report only
    /// in the final drain).
    pub spilled: u64,
    /// Spilled objects faulted back from disk so far.
    pub spill_faults: u64,
}

/// Receives the daemon's continuous output. All methods default to
/// no-ops, so `&mut ()` is a valid sink.
pub trait ServeSink {
    /// Called with each batch of newly sealed CAGs, in emission order.
    fn on_sealed(&mut self, _cags: &[Cag]) {}
    /// Called every [`ServeConfig::kpi_every_records`] records.
    fn on_kpi(&mut self, _kpi: &ServeKpi) {}
}

impl ServeSink for () {}

/// The final report of a serve run.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-source ingest counters.
    pub sources: Vec<SourceReport>,
    /// Records pushed into the correlator.
    pub records_in: u64,
    /// CAGs sealed and emitted while live (before the final drain).
    pub cags_sealed: u64,
    /// The final drain's output: remaining CAGs, metrics, noise
    /// samples. `output.metrics` carries every correlator-side shed
    /// counter (budget evictions, aged settles, noise discards …).
    pub output: CorrelationOutput,
    /// Distinct causal-path patterns across live and drained CAGs.
    pub patterns: usize,
    /// p99 seal lag over the recent window, in pushed records.
    pub p99_seal_lag: u64,
    /// Peak approximate correlation-state bytes observed.
    pub peak_state_bytes: usize,
    /// Peak resident set size observed, if the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl ServeReport {
    /// Total records shed by the queue-full policy.
    pub fn shed_records(&self) -> u64 {
        self.sources.iter().map(|s| s.shed_records).sum()
    }

    /// Total CAGs emitted (live + final drain).
    pub fn total_cags(&self) -> u64 {
        self.cags_sealed + self.output.cags.len() as u64
    }

    /// The machine-parseable final stats line: every shed/dropped
    /// count a consumer needs to judge the run, one `key=value` pair
    /// per field.
    pub fn stats_line(&self) -> String {
        let s = |f: fn(&SourceReport) -> u64| self.sources.iter().map(f).sum::<u64>();
        let m = &self.output.metrics;
        format!(
            "serve: records={} sealed={} drained={} patterns={} shed={} malformed={} \
             torn={} truncated={} restarts={} open_retries={} decode_errors={} \
             spilled={} spill_faults={} aged_settles={} noise={} \
             p99_seal_lag={} peak_state={}B peak_rss={}B wall={:.3}s",
            self.records_in,
            self.cags_sealed,
            self.output.cags.len(),
            self.patterns,
            self.shed_records(),
            s(|r| r.malformed_lines),
            s(|r| r.torn_retries),
            s(|r| r.truncated_eof),
            s(|r| r.restarts),
            s(|r| r.open_retries),
            s(|r| r.decode_errors),
            m.engine.spilled_cags + m.engine.spilled_orphans + m.spilled_dedup_entries,
            m.engine.spill_faults + m.spill_dedup_faults,
            m.ranker.aged_settles,
            m.ranker.noise_discards,
            self.p99_seal_lag,
            self.peak_state_bytes,
            self.peak_rss_bytes.unwrap_or(0),
            self.wall.as_secs_f64(),
        )
    }
}

/// Resident set size from `/proc/self/status` (linux; `None`
/// elsewhere or on any read/parse failure).
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Capacity of the seal-lag checkpoint ring.
const CHECKPOINT_CAP: usize = 4096;
/// Capacity of the seal-lag sample ring (the "recent window").
const LAG_WINDOW: usize = 8192;
/// Read chunk size for tailers.
const READ_CHUNK: usize = 64 * 1024;

/// Seal-lag tracker: checkpoints `(pushed records, max record ts)` at
/// a fixed cadence; a CAG whose newest vertex has timestamp `T`,
/// emitted after `P` records were pushed, has lag `P - P'` where `P'`
/// is the earliest checkpoint that had already seen `T`. Both rings
/// are fixed-size, so the tracker's memory is constant.
#[derive(Debug)]
struct SealLag {
    every: u64,
    checkpoints: std::collections::VecDeque<(u64, u64)>,
    lags: Vec<u64>,
    next: usize,
    max_ts: u64,
    since: u64,
}

impl SealLag {
    fn new(every: u64) -> Self {
        SealLag {
            every: every.max(1),
            checkpoints: std::collections::VecDeque::new(),
            lags: Vec::new(),
            next: 0,
            max_ts: 0,
            since: 0,
        }
    }

    fn on_push(&mut self, pushed: u64, ts: u64) {
        self.max_ts = self.max_ts.max(ts);
        self.since += 1;
        if self.since >= self.every {
            self.since = 0;
            if self.checkpoints.len() == CHECKPOINT_CAP {
                self.checkpoints.pop_front();
            }
            self.checkpoints.push_back((pushed, self.max_ts));
        }
    }

    fn on_sealed(&mut self, pushed: u64, cag: &Cag) {
        let newest = cag
            .vertices
            .iter()
            .map(|v| v.ts_last.as_nanos())
            .max()
            .unwrap_or(0);
        // Checkpoints are monotone in both fields: binary-search the
        // earliest one that had seen the CAG's newest timestamp.
        let i = self.checkpoints.partition_point(|&(_, ts)| ts < newest);
        let at = self
            .checkpoints
            .get(i)
            .map(|&(p, _)| p)
            .unwrap_or(pushed.saturating_sub(self.since));
        let lag = pushed.saturating_sub(at);
        if self.lags.len() < LAG_WINDOW {
            self.lags.push(lag);
        } else {
            self.lags[self.next] = lag;
            self.next = (self.next + 1) % LAG_WINDOW;
        }
    }

    fn p99(&self) -> u64 {
        if self.lags.is_empty() {
            return 0;
        }
        let mut sorted = self.lags.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) * 99 / 100]
    }
}

enum Event {
    Batch(Vec<RawRecord>),
    Ended,
    Fatal(usize, String),
}

/// The long-running tracing daemon. Construct with [`Server::new`],
/// then [`Server::run`] until the sources end or the stop flag rises.
#[derive(Debug)]
pub struct Server {
    config: ServeConfig,
}

impl Server {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when no source is configured,
    /// the pipeline mode is batch (it buffers the whole stream), or
    /// the pipeline configuration itself is invalid.
    pub fn new(config: ServeConfig) -> Result<Self, TraceError> {
        if config.sources.is_empty() {
            return Err(TraceError::config("serve: no sources configured"));
        }
        if config.pipeline.mode == Mode::Batch {
            return Err(TraceError::config(
                "serve: batch mode buffers the whole stream; use streaming or sharded",
            ));
        }
        // Surface config errors now, not at run time.
        Pipeline::new(config.pipeline.clone())?;
        Ok(Server { config })
    }

    /// Runs the daemon: tails every source until all of them end (see
    /// [`ServeConfig::idle_end`]) or `stop` becomes true, then drains
    /// the correlator and reports.
    ///
    /// Sealed CAGs stream to the sink continuously in streaming mode;
    /// a sharded session correlates online but emits its CAGs in the
    /// final drain (the merge is global), so its sink only sees KPIs
    /// until the end.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when the correlator fails
    /// mid-run (e.g. a shard worker died).
    pub fn run(
        &self,
        sink: &mut dyn ServeSink,
        stop: &AtomicBool,
    ) -> Result<ServeReport, TraceError> {
        let started = Instant::now();
        let mut session = Pipeline::new(self.config.pipeline.clone())?.session()?;
        let counters: Vec<SourceCounters> = self
            .config
            .sources
            .iter()
            .map(|_| SourceCounters::default())
            .collect();

        let mut live = LiveState {
            sink,
            patterns: PatternAggregator::new(),
            lag: SealLag::new(self.config.checkpoint_every),
            records_in: 0,
            cags_sealed: 0,
            peak_state: 0,
            peak_rss: current_rss_bytes(),
            next_kpi: self.config.kpi_every_records,
        };

        let result: Result<(), TraceError> = std::thread::scope(|scope| {
            let (tx, rx) = sync_channel::<Event>(self.config.queue_batches.max(1));
            for (idx, spec) in self.config.sources.iter().enumerate() {
                let tx = tx.clone();
                let counters = &counters[idx];
                let cfg = &self.config;
                scope.spawn(move || tail_source(idx, spec, cfg, counters, tx, stop));
            }
            drop(tx);
            let mut ended = 0usize;
            let mut first_error: Option<TraceError> = None;
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match rx.recv_timeout(self.config.poll_interval) {
                    Ok(Event::Batch(records)) => {
                        if let Err(e) = live.ingest(&mut session, &counters, records, &self.config)
                        {
                            first_error = Some(e);
                            break;
                        }
                    }
                    Ok(Event::Ended) => {
                        ended += 1;
                        if ended == self.config.sources.len() {
                            break;
                        }
                    }
                    Ok(Event::Fatal(idx, msg)) => {
                        // The source stops; the daemon keeps serving
                        // the others. The error is counted per-source.
                        let _ = (idx, msg);
                        ended += 1;
                        if ended == self.config.sources.len() {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // Drain whatever the tailers already queued, then hang up
            // (unblocks tailers waiting on a full queue).
            while let Ok(ev) = rx.try_recv() {
                if let Event::Batch(records) = ev {
                    if first_error.is_none() {
                        if let Err(e) = live.ingest(&mut session, &counters, records, &self.config)
                        {
                            first_error = Some(e);
                        }
                    }
                }
            }
            drop(rx);
            match first_error {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        result?;

        let mut output = session.finish()?;
        // Release the spill tier (dropping the session runs every
        // `SpillFile` destructor, which unlinks its file), then sweep
        // the spill dir for any artifact this process still left
        // behind — e.g. a sharded worker torn down without running
        // destructors. A drain must not leak temp files.
        drop(session);
        let cc = &self.config.pipeline.correlator;
        if cc.memory_budget.is_some() {
            let dir = cc.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            crate::spill::sweep_process_spill_files(&dir);
        }
        output.canonicalize();
        live.patterns.add_all(output.cags.iter());
        let report = ServeReport {
            sources: self
                .config
                .sources
                .iter()
                .zip(&counters)
                .map(|(s, c)| c.report(&s.path))
                .collect(),
            records_in: live.records_in,
            cags_sealed: live.cags_sealed,
            patterns: live.patterns.len(),
            p99_seal_lag: live.lag.p99(),
            peak_state_bytes: live.peak_state,
            peak_rss_bytes: live.peak_rss.max(current_rss_bytes()),
            wall: started.elapsed(),
            output,
        };
        Ok(report)
    }
}

/// Main-loop mutable state, factored out so `run` can borrow the
/// session and the counters separately.
struct LiveState<'a> {
    sink: &'a mut dyn ServeSink,
    patterns: PatternAggregator,
    lag: SealLag,
    records_in: u64,
    cags_sealed: u64,
    peak_state: usize,
    peak_rss: Option<u64>,
    next_kpi: u64,
}

impl LiveState<'_> {
    fn ingest(
        &mut self,
        session: &mut crate::pipeline::PipelineSession,
        counters: &[SourceCounters],
        records: Vec<RawRecord>,
        cfg: &ServeConfig,
    ) -> Result<(), TraceError> {
        for rec in records {
            self.records_in += 1;
            let ts = rec.ts.as_nanos();
            session.push(rec)?;
            self.lag.on_push(self.records_in, ts);
        }
        let sealed = session.poll()?;
        if !sealed.is_empty() {
            self.cags_sealed += sealed.len() as u64;
            for cag in &sealed {
                self.lag.on_sealed(self.records_in, cag);
                self.patterns.add(cag);
            }
            self.sink.on_sealed(&sealed);
        }
        self.peak_state = self.peak_state.max(session.approx_bytes());
        if cfg.kpi_every_records > 0 && self.records_in >= self.next_kpi {
            self.next_kpi += cfg.kpi_every_records;
            let rss = current_rss_bytes();
            self.peak_rss = self.peak_rss.max(rss);
            let (spilled, spill_faults) = session.spill_counters();
            let kpi = ServeKpi {
                records_in: self.records_in,
                cags_sealed: self.cags_sealed,
                patterns: self.patterns.len(),
                p99_seal_lag: self.lag.p99(),
                state_bytes: session.approx_bytes(),
                rss_bytes: rss,
                shed_records: counters
                    .iter()
                    .map(|c| c.shed_records.load(Ordering::Relaxed))
                    .sum(),
                spilled,
                spill_faults,
            };
            self.sink.on_kpi(&kpi);
        }
        Ok(())
    }
}

/// Per-source decode state: the format (once sniffed) plus the torn
/// element carried across read boundaries.
enum Decode {
    Sniffing(Vec<u8>),
    Text { carry: Vec<u8>, interner: Interner },
    Bin(StreamDecoder),
}

impl Decode {
    fn for_kind(kind: SourceKind) -> Decode {
        match kind {
            SourceKind::Auto => Decode::Sniffing(Vec::new()),
            SourceKind::Text => Decode::Text {
                carry: Vec::new(),
                interner: Interner::new(),
            },
            SourceKind::Ptbin => Decode::Bin(StreamDecoder::new()),
        }
    }

    /// Feeds raw bytes, returning decoded records. `final_input`
    /// additionally settles the carry (a text log's unterminated final
    /// line is a complete record; a pending binary fragment is a
    /// truncated tail).
    fn feed(
        &mut self,
        bytes: &[u8],
        final_input: bool,
        c: &SourceCounters,
    ) -> Result<Vec<RawRecord>, String> {
        match self {
            Decode::Sniffing(buf) => {
                buf.extend_from_slice(bytes);
                if buf.len() < crate::binfmt::MAGIC.len() && !final_input {
                    return Ok(Vec::new());
                }
                let sniffed = std::mem::take(buf);
                *self = if is_ptbin(&sniffed) {
                    Decode::Bin(StreamDecoder::new())
                } else {
                    Decode::Text {
                        carry: Vec::new(),
                        interner: Interner::new(),
                    }
                };
                self.feed(&sniffed, final_input, c)
            }
            Decode::Text { carry, interner } => {
                carry.extend_from_slice(bytes);
                let (done, torn) = split_complete_lines(carry);
                let (done, torn) = if final_input {
                    // The writer is gone: the unterminated final line
                    // is the complete final record (or torn garbage —
                    // parse decides, and a failure counts below).
                    (&carry[..], &carry[..0])
                } else {
                    (done, torn)
                };
                let mut out = Vec::new();
                let mut parse = |text: &str| {
                    for r in parse_log_iter(text) {
                        match r {
                            Ok(r) => out.push(r.to_owned_interned(interner)),
                            Err(_) => {
                                c.malformed_lines.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                };
                match std::str::from_utf8(done) {
                    Ok(text) => parse(text),
                    // Undecodable bytes cost only the lines holding them:
                    // each is one bad line, its neighbours still parse.
                    Err(_) => {
                        for line in done.split(|&b| b == b'\n') {
                            match std::str::from_utf8(line) {
                                Ok(line) => parse(line),
                                Err(_) => {
                                    c.malformed_lines.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
                if !torn.is_empty() {
                    c.torn_retries.fetch_add(1, Ordering::Relaxed);
                }
                let rest = torn.to_vec();
                *carry = rest;
                c.records.fetch_add(out.len() as u64, Ordering::Relaxed);
                Ok(out)
            }
            Decode::Bin(dec) => {
                dec.push(bytes);
                let had_pending = dec.pending_bytes() > 0;
                let out = dec.drain().map_err(|e| e.to_string())?;
                if dec.pending_bytes() > 0 && had_pending {
                    c.torn_retries.fetch_add(1, Ordering::Relaxed);
                }
                if final_input && !dec.is_clean() {
                    c.truncated_eof.fetch_add(1, Ordering::Relaxed);
                }
                c.records.fetch_add(out.len() as u64, Ordering::Relaxed);
                Ok(out)
            }
        }
    }
}

/// Sends one decoded batch subject to the shed policy.
fn send_batch(
    batch: Vec<RawRecord>,
    tx: &SyncSender<Event>,
    shed: ShedPolicy,
    c: &SourceCounters,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    match shed {
        ShedPolicy::Block => tx.send(Event::Batch(batch)).is_ok(),
        ShedPolicy::Drop => match tx.try_send(Event::Batch(batch)) {
            Ok(()) => true,
            Err(TrySendError::Full(Event::Batch(b))) => {
                c.shed_records.fetch_add(b.len() as u64, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) => true,
            Err(TrySendError::Disconnected(_)) => false,
        },
    }
}

/// The per-source tailer: supervises open/reopen with backoff, detects
/// restarts (shrunk files), carries torn tails, decodes, and ships
/// batches. Exits when the source ends, a fatal decode error occurs,
/// the stop flag rises, or the consumer hangs up.
fn tail_source(
    idx: usize,
    spec: &SourceSpec,
    cfg: &ServeConfig,
    c: &SourceCounters,
    tx: SyncSender<Event>,
    stop: &AtomicBool,
) {
    let mut backoff = cfg.retry_backoff;
    let mut decode = Decode::for_kind(spec.kind);
    let mut file: Option<std::fs::File> = None;
    let mut offset: u64 = 0;
    let mut is_fifo = false;
    let mut quiet = Instant::now();
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Some(f) = file.as_mut() else {
            match std::fs::File::open(&spec.path) {
                Ok(f) => {
                    is_fifo = f.metadata().is_ok_and(|m| m.file_type().is_fifo());
                    file = Some(f);
                    backoff = cfg.retry_backoff;
                    quiet = Instant::now();
                }
                Err(_) => {
                    c.open_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(cfg.max_backoff);
                }
            }
            continue;
        };
        // Restart detection (regular files): the path shrank below our
        // offset or was replaced — rewind and re-sniff.
        if !is_fifo {
            match std::fs::metadata(&spec.path) {
                Ok(m) if m.len() < offset => {
                    c.restarts.fetch_add(1, Ordering::Relaxed);
                    file = None;
                    offset = 0;
                    decode = Decode::for_kind(spec.kind);
                    continue;
                }
                Ok(_) => {}
                Err(_) => {
                    // Deleted mid-run: fall back to the open/backoff
                    // path; a reappearing file is a restart.
                    c.restarts.fetch_add(1, Ordering::Relaxed);
                    file = None;
                    offset = 0;
                    decode = Decode::for_kind(spec.kind);
                    continue;
                }
            }
        }
        match f.read(&mut buf) {
            Ok(0) => {
                if is_fifo {
                    // Writer hung up: a FIFO's EOF is final.
                    finish_source(&mut decode, c, &tx, cfg.shed);
                    return;
                }
                if cfg.idle_end.is_some_and(|d| quiet.elapsed() >= d) {
                    finish_source(&mut decode, c, &tx, cfg.shed);
                    return;
                }
                std::thread::sleep(cfg.poll_interval);
            }
            Ok(n) => {
                offset += n as u64;
                quiet = Instant::now();
                c.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                match decode.feed(&buf[..n], false, c) {
                    Ok(batch) => {
                        if !send_batch(batch, &tx, cfg.shed, c) {
                            return; // consumer hung up
                        }
                    }
                    Err(_) => {
                        c.decode_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = tx.send(Event::Fatal(idx, "malformed PTBIN stream".into()));
                        return;
                    }
                }
            }
            Err(_) => {
                // Transient read error: retry through the open path.
                c.open_retries.fetch_add(1, Ordering::Relaxed);
                file = None;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cfg.max_backoff);
            }
        }
    }
    // Stopped: settle the carry so a complete unterminated final line
    // still counts, then report.
    finish_source(&mut decode, c, &tx, cfg.shed);
}

/// Settles a source's carried state at its end and sends the final
/// batch + `Ended`.
fn finish_source(
    decode: &mut Decode,
    c: &SourceCounters,
    tx: &SyncSender<Event>,
    shed: ShedPolicy,
) {
    match decode.feed(&[], true, c) {
        Ok(batch) => {
            send_batch(batch, tx, shed, c);
        }
        Err(_) => {
            c.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    let _ = tx.send(Event::Ended);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPointSpec;
    use std::io::Write;
    use std::sync::atomic::AtomicBool;

    fn access() -> AccessPointSpec {
        AccessPointSpec::new(
            [80],
            [
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
                "10.0.0.3".parse().unwrap(),
            ],
        )
    }

    fn session_log() -> String {
        let mut log = String::new();
        for (i, base) in (0..20u64).map(|i| (i, i * 10_000)) {
            let client = format!("192.168.0.9:{}", 5000 + i);
            let port = 4001 + i;
            for line in [
                format!(
                    "{} web httpd 7 {} RECEIVE {client}-10.0.0.1:80 120",
                    1000 + base,
                    7 + i
                ),
                format!(
                    "{} web httpd 7 {} SEND 10.0.0.1:{port}-10.0.0.2:8009 64",
                    2000 + base,
                    7 + i
                ),
                format!(
                    "{} app java 9 {} RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64",
                    2500 + base,
                    21 + i
                ),
                format!(
                    "{} app java 9 {} SEND 10.0.0.2:8009-10.0.0.1:{port} 256",
                    3000 + base,
                    21 + i
                ),
                format!(
                    "{} web httpd 7 {} RECEIVE 10.0.0.2:8009-10.0.0.1:{port} 256",
                    4500 + base,
                    7 + i
                ),
                format!(
                    "{} web httpd 7 {} SEND 10.0.0.1:80-{client} 512",
                    5000 + base,
                    7 + i
                ),
            ] {
                log.push_str(&line);
                log.push('\n');
            }
        }
        log
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pt-serve-test-{}-{name}", std::process::id()))
    }

    struct Collect {
        sealed: usize,
        kpis: usize,
    }
    impl ServeSink for Collect {
        fn on_sealed(&mut self, cags: &[Cag]) {
            self.sealed += cags.len();
        }
        fn on_kpi(&mut self, _k: &ServeKpi) {
            self.kpis += 1;
        }
    }

    fn quick_config(sources: Vec<SourceSpec>) -> ServeConfig {
        let pipeline = PipelineConfig::new(access()).with_mode(Mode::Streaming);
        let mut cfg = ServeConfig::new(pipeline, sources);
        cfg.poll_interval = Duration::from_millis(2);
        // Wide idle margin: writer threads pause ~10ms between chunks,
        // but on a loaded single-core machine a thread can be starved
        // for well over 100ms — the margin must absorb that or the
        // server declares the source ended mid-write.
        cfg.idle_end = Some(Duration::from_millis(400));
        cfg.kpi_every_records = 16;
        cfg
    }

    #[test]
    fn an_undecodable_line_costs_only_itself() {
        let valid = "1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42";
        let mut bytes = format!("{valid}\n").into_bytes();
        bytes.extend_from_slice(b"\xff junk\n");
        bytes.extend_from_slice(format!("{valid}\n").as_bytes());
        let c = SourceCounters::default();
        let out = Decode::for_kind(SourceKind::Text)
            .feed(&bytes, false, &c)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(c.malformed_lines.load(Ordering::Relaxed), 1);
        assert_eq!(c.records.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn serves_a_growing_text_file_to_the_end() {
        let log = session_log();
        let path = tmp("grow.log");
        let (head, tail) = log.split_at(log.len() / 2);
        std::fs::write(&path, head).unwrap();
        let cfg = quick_config(vec![SourceSpec::auto(&path)]);
        let server = Server::new(cfg).unwrap();
        // Append the rest (cut mid-line) from a writer thread while
        // the server tails.
        let writer = {
            let path = path.clone();
            let tail = tail.to_owned();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                let cut = tail.len() / 3;
                f.write_all(&tail.as_bytes()[..cut]).unwrap();
                f.sync_all().unwrap();
                std::thread::sleep(Duration::from_millis(10));
                f.write_all(&tail.as_bytes()[cut..]).unwrap();
            })
        };
        let stop = AtomicBool::new(false);
        let mut sink = Collect { sealed: 0, kpis: 0 };
        let report = server.run(&mut sink, &stop).unwrap();
        writer.join().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.records_in, 120, "{}", report.stats_line());
        assert_eq!(report.total_cags(), 20, "{}", report.stats_line());
        assert_eq!(report.shed_records(), 0);
        assert!(sink.kpis > 0);
        assert!(report.stats_line().starts_with("serve: records=120"));
    }

    #[test]
    fn serves_two_sources_binary_and_text() {
        let log = session_log();
        // Split by host: web lines to a PTBIN source, app lines text.
        let web: String =
            log.lines()
                .filter(|l| l.contains(" web "))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        let app: String =
            log.lines()
                .filter(|l| l.contains(" app "))
                .fold(String::new(), |mut acc, l| {
                    acc.push_str(l);
                    acc.push('\n');
                    acc
                });
        let bin = crate::binfmt::encode_text(&web, 1).unwrap();
        let p_bin = tmp("web.ptbin");
        let p_txt = tmp("app.log");
        std::fs::write(&p_bin, &bin).unwrap();
        std::fs::write(&p_txt, &app).unwrap();
        let cfg = quick_config(vec![SourceSpec::auto(&p_bin), SourceSpec::auto(&p_txt)]);
        let server = Server::new(cfg).unwrap();
        let stop = AtomicBool::new(false);
        let report = server.run(&mut (), &stop).unwrap();
        std::fs::remove_file(&p_bin).ok();
        std::fs::remove_file(&p_txt).ok();
        assert_eq!(report.records_in, 120, "{}", report.stats_line());
        assert_eq!(report.total_cags(), 20, "{}", report.stats_line());
        assert_eq!(report.sources[0].records, 80);
        assert_eq!(report.sources[1].records, 40);
    }

    #[test]
    fn missing_source_is_retried_and_restart_is_detected() {
        let log = session_log();
        let path = tmp("late.log");
        std::fs::remove_file(&path).ok();
        let mut cfg = quick_config(vec![SourceSpec::auto(&path)]);
        cfg.retry_backoff = Duration::from_millis(2);
        let server = Server::new(cfg).unwrap();
        let writer = {
            let path = path.clone();
            let log = log.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                // Appears late, then restarts (shrinks) mid-run: the
                // replacement is strictly shorter than what was read,
                // so the rewind is detected at the next poll.
                std::fs::write(&path, &log).unwrap();
                std::thread::sleep(Duration::from_millis(40));
                std::fs::write(&path, &log[log.len() / 2..]).unwrap();
            })
        };
        let stop = AtomicBool::new(false);
        let report = Server::run(&server, &mut (), &stop).unwrap();
        writer.join().unwrap();
        std::fs::remove_file(&path).ok();
        let s = &report.sources[0];
        assert!(s.open_retries > 0, "{}", report.stats_line());
        assert!(s.restarts >= 1, "{}", report.stats_line());
        // The restart replays the first half: dedup/noise handling may
        // deform, but every original record was read at least once.
        assert!(report.records_in >= 120, "{}", report.stats_line());
    }

    #[test]
    fn stop_flag_drains_cleanly() {
        let log = session_log();
        let path = tmp("stop.log");
        std::fs::write(&path, &log).unwrap();
        let mut cfg = quick_config(vec![SourceSpec::auto(&path)]);
        cfg.idle_end = None; // follow forever; only the flag ends it
        let server = Server::new(cfg).unwrap();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stopper = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(80));
                stop.store(true, Ordering::Relaxed);
            })
        };
        let report = server.run(&mut (), &stop).unwrap();
        stopper.join().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.records_in, 120, "{}", report.stats_line());
        assert_eq!(report.total_cags(), 20, "{}", report.stats_line());
    }

    #[test]
    fn rejects_batch_mode_and_empty_sources() {
        let p = PipelineConfig::new(access());
        assert!(Server::new(ServeConfig::new(p.clone(), vec![])).is_err());
        let cfg = ServeConfig::new(
            p.with_mode(Mode::Batch),
            vec![SourceSpec::auto("/dev/null")],
        );
        assert!(Server::new(cfg).is_err());
    }

    #[test]
    fn sharded_mode_emits_at_drain() {
        let log = session_log();
        let path = tmp("sharded.log");
        std::fs::write(&path, &log).unwrap();
        let mut cfg = quick_config(vec![SourceSpec::auto(&path)]);
        cfg.pipeline = PipelineConfig::new(access()).with_mode(Mode::Sharded(2));
        let server = Server::new(cfg).unwrap();
        let stop = AtomicBool::new(false);
        let report = server.run(&mut (), &stop).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.cags_sealed, 0, "sharded seals at the final drain");
        assert_eq!(report.total_cags(), 20, "{}", report.stats_line());
    }
}
