//! The unified correlation pipeline — the **one** public entry point.
//!
//! The paper's tool is a single pipeline: probe records in, CAGs and
//! performance analysis out. Earlier revisions of this crate exposed
//! that pipeline through three divergent entry points (an offline
//! `Correlator`, an incremental `StreamingCorrelator` and a parallel
//! `ShardedCorrelator`) that every caller had to wire up by hand.
//! [`Pipeline`] replaces all three: one [`PipelineConfig`] — a
//! superset of [`CorrelatorConfig`] plus a [`Mode`] — and one
//! [`Source`] abstraction over owned records, record iterators,
//! zero-copy text ingest and [`crate::binfmt`] PTBIN binary streams,
//! consumed by a single `builder → run(source) → CorrelationOutput`
//! path.
//!
//! ```text
//!            ┌───────────────── Pipeline ─────────────────┐
//! Source ──→ │ ingest (range dedup, classify, filter) ──→ │ ──→ CorrelationOutput
//!            │   mode: Batch | Streaming | Sharded(n)     │
//!            │         | Distributed { routers, .. }      │
//!            └────────────────────────────────────────────┘
//! ```
//!
//! [`Pipeline::run`] is one path whatever the mode and source: the
//! source resolves to owned records, borrowed text or a borrowed PTBIN
//! buffer (a path source is one whole-buffer read), every record is
//! staged in source order into the session the mode opens — straight
//! from the parser, zero-copy, sequentially or in parallel by
//! `ingest_threads` with the same record sequence — the file buffer is
//! dropped, and the session finishes. The single-instance modes stage
//! into one ranked correlator, the routed modes into the session router.
//!
//! * [`Mode::Batch`] — the paper's offline evaluation setup: nothing is
//!   ranked before the end of input; the ranker sorts each node's staged
//!   records by local time and drains them. CAG ids follow the
//!   canonical root order ([`CorrelationOutput::canonicalize`]).
//! * [`Mode::Streaming`] — records are pushed in arrival order and the
//!   output streams out with bounded memory; on a complete source this
//!   is byte-identical to `Batch` whenever ranking starts with the
//!   input staged (pinned by the golden tests). For true online use,
//!   open an incremental handle with [`Pipeline::session`].
//! * [`Mode::Sharded`]`(n)` — the routed front-end (the reader-side
//!   session router, see [`crate::shard`]) feeding `n` worker threads,
//!   merged into canonical root order; output is byte-identical for
//!   every shard count.
//! * [`Mode::Distributed`] — the same front-end feeding router peers
//!   over PTDC (see [`crate::dist`]); output is byte-identical to
//!   `Sharded` with the same total worker count.
//!
//! The old three entry-point types went through one release as
//! deprecated shims and have been removed; the engines they named now
//! run only behind this facade (see the README's migration table).
//!
//! # Examples
//!
//! ```
//! use tracer_core::prelude::*;
//!
//! # fn main() -> Result<(), TraceError> {
//! let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
//! let log = "\
//! 1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120
//! 2000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512
//! ";
//! let pipeline = Pipeline::new(PipelineConfig::new(access).with_mode(Mode::Sharded(4)))?;
//! let out = pipeline.run(Source::text(log))?;
//! assert_eq!(out.cags.len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::access::AccessPointSpec;
use crate::activity::Nanos;
use crate::cag::Cag;
use crate::correlator::{
    CorrelationOutput, CorrelatorConfig, EngineOptions, RankerOptions, StreamingCorrelator,
};
use crate::dist::RouterTransport;
use crate::error::TraceError;
use crate::filter::FilterSet;
use crate::raw::{parse_log_iter, RawRecord, RawRecordRef};
use crate::shard::RoutedCorrelator;

/// How the pipeline executes a correlation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Offline batch (the paper's evaluation setup): the complete
    /// record set is staged in source order and ranked only at the end
    /// of input, each node's records sorted by local time. The default.
    #[default]
    Batch,
    /// Single-instance streaming: records are pushed in source order
    /// and correlate with bounded memory as they arrive.
    Streaming,
    /// Parallel sharded correlation with this many worker threads
    /// (`0` = one per CPU core, capped): reader-side session routing,
    /// canonical deterministic merge — byte-identical output for every
    /// shard count.
    Sharded(usize),
    /// Multi-process distributed correlation (see [`crate::dist`]):
    /// `routers` router peers of `workers_per_router` shard workers
    /// each, reached over [`PipelineConfig::router_transport`]. Output
    /// is byte-identical to `Sharded(routers × workers_per_router)` on
    /// every corpus.
    Distributed {
        /// Router peer count (processes, TCP peers or threads).
        routers: usize,
        /// Shard workers hosted by each router peer (`0` = 1).
        workers_per_router: usize,
    },
}

/// Full pipeline configuration: everything [`CorrelatorConfig`] holds
/// plus the execution [`Mode`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// The correlation knobs shared by every mode (access points,
    /// filters, window policy, memory budget, sealing SLO).
    pub correlator: CorrelatorConfig,
    /// Which execution strategy [`Pipeline::run`] uses.
    pub mode: Mode,
    /// Parser threads for text and path sources: `1` (the default)
    /// parses sequentially, `0` uses one thread per core, anything
    /// else that many threads. The parallel scanner
    /// ([`crate::ingest`]) produces a record sequence byte-identical
    /// to the sequential parser, so this knob only changes speed.
    pub ingest_threads: usize,
    /// How [`Mode::Distributed`] reaches its router peers: threads of
    /// this process on Unix socketpairs (the default), spawned
    /// `pt router --stdio` children on socketpairs, or TCP connections
    /// to `pt router --listen` processes — the same PTDC stream on
    /// each. Ignored by the other modes.
    pub router_transport: RouterTransport,
}

impl PipelineConfig {
    /// A default (batch-mode) configuration for a service with the
    /// given access spec.
    pub fn new(access: AccessPointSpec) -> Self {
        CorrelatorConfig::new(access).into()
    }

    /// Sets the execution mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the router transport for [`Mode::Distributed`].
    pub fn with_router_transport(mut self, transport: RouterTransport) -> Self {
        self.router_transport = transport;
        self
    }

    /// Sets the parser thread count for text/path sources (`0` = one
    /// per core, `1` = sequential).
    pub fn with_ingest_threads(mut self, threads: usize) -> Self {
        self.ingest_threads = threads;
        self
    }

    /// Sets the sliding time window.
    pub fn with_window(mut self, window: Nanos) -> Self {
        self.correlator = self.correlator.with_window(window);
        self
    }

    /// Enables adaptive windowing (`p99 × 4` clamped to `[1 ms, 10 s]`).
    pub fn with_adaptive_window(mut self) -> Self {
        self.correlator = self.correlator.with_adaptive_window();
        self
    }

    /// Sets the explicit resident-memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.correlator = self.correlator.with_memory_budget(bytes);
        self
    }

    /// Sets the spill tier's directory (see
    /// [`CorrelatorConfig::spill_dir`]).
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.correlator = self.correlator.with_spill_dir(dir);
        self
    }

    /// Bounds the sealing latency of finished CAGs (see
    /// [`CorrelatorConfig::max_seal_lag`]).
    pub fn with_max_seal_lag(mut self, lag: u64) -> Self {
        self.correlator = self.correlator.with_max_seal_lag(lag);
        self
    }

    /// Sets the attribute filters.
    pub fn with_filters(mut self, filters: FilterSet) -> Self {
        self.correlator = self.correlator.with_filters(filters);
        self
    }

    /// Sets the ranker options wholesale.
    pub fn with_ranker(mut self, ranker: RankerOptions) -> Self {
        self.correlator = self.correlator.with_ranker(ranker);
        self
    }

    /// Sets the engine options wholesale.
    pub fn with_engine(mut self, engine: EngineOptions) -> Self {
        self.correlator = self.correlator.with_engine(engine);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when the window is zero, no access
    /// point is configured, or a sharded shard count is out of range.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.correlator.validate()?;
        match self.mode {
            Mode::Sharded(n) => {
                if n > crate::shard::MAX_SHARDS {
                    return Err(TraceError::config(format!(
                        "shard count {n} exceeds the maximum of {}",
                        crate::shard::MAX_SHARDS
                    )));
                }
            }
            Mode::Distributed {
                routers,
                workers_per_router,
            } => {
                if routers == 0 {
                    return Err(TraceError::config(
                        "distributed mode needs at least 1 router",
                    ));
                }
                if routers > crate::dist::MAX_ROUTERS {
                    return Err(TraceError::config(format!(
                        "router count {routers} exceeds the maximum of {}",
                        crate::dist::MAX_ROUTERS
                    )));
                }
                let total = routers * workers_per_router.max(1);
                if total > crate::shard::MAX_SHARDS {
                    return Err(TraceError::config(format!(
                        "{routers} routers x {} workers = {total} shards exceeds the maximum of {}",
                        workers_per_router.max(1),
                        crate::shard::MAX_SHARDS
                    )));
                }
                if let RouterTransport::Connect { addrs } = &self.router_transport {
                    if addrs.len() != routers {
                        return Err(TraceError::config(format!(
                            "{} router addresses for {routers} routers",
                            addrs.len()
                        )));
                    }
                }
            }
            Mode::Batch | Mode::Streaming => {}
        }
        Ok(())
    }
}

impl From<CorrelatorConfig> for PipelineConfig {
    /// Wraps an existing correlator configuration in batch mode — the
    /// one-line migration path from the removed legacy entry points.
    fn from(correlator: CorrelatorConfig) -> Self {
        PipelineConfig {
            correlator,
            mode: Mode::Batch,
            ingest_threads: 1,
            router_transport: RouterTransport::default(),
        }
    }
}

/// One source of TCP_TRACE records, unifying the three ingest shapes
/// the old entry points each exposed differently.
#[derive(Debug)]
pub enum Source<'a> {
    /// Owned, already-parsed records (any order; each node's records
    /// are sorted by local time before they are ranked).
    Records(Vec<RawRecord>),
    /// A TCP_TRACE text log, ingested **zero-copy** in every mode
    /// (borrowed [`crate::raw::RawRecordRef`] parsing, interned
    /// strings).
    Text(&'a str),
    /// A TCP_TRACE log file, read as one whole buffer at
    /// [`Pipeline::run`] and scanned with
    /// `PipelineConfig::ingest_threads` parser threads (see
    /// [`crate::ingest`]). Behaves exactly like [`Source::Text`] over
    /// the file's contents.
    Path(std::path::PathBuf),
    /// A PTBIN binary record file (see [`crate::binfmt`]), read as one
    /// whole buffer at [`Pipeline::run`] and decoded with
    /// `PipelineConfig::ingest_threads` workers — text parsing is
    /// skipped entirely, and sharded mode stages the decoded records
    /// zero-copy (strings borrowed from the file buffer). Correlating
    /// a converted log is byte-identical to correlating the text
    /// original.
    BinaryPath(std::path::PathBuf),
}

impl Source<'_> {
    /// A source over owned records.
    pub fn records(records: Vec<RawRecord>) -> Source<'static> {
        Source::Records(records)
    }

    /// A source over a TCP_TRACE text log.
    pub fn text(text: &str) -> Source<'_> {
        Source::Text(text)
    }

    /// A source over a TCP_TRACE log file, whole-buffer-read at run
    /// time.
    pub fn path(path: impl Into<std::path::PathBuf>) -> Source<'static> {
        Source::Path(path.into())
    }

    /// A source over a PTBIN binary record file (the output of
    /// `pt convert` / [`crate::binfmt`] encoding), whole-buffer-read
    /// and decoded at run time without any text parsing.
    pub fn binary_path(path: impl Into<std::path::PathBuf>) -> Source<'static> {
        Source::BinaryPath(path.into())
    }
}

impl<'a> From<&'a str> for Source<'a> {
    fn from(text: &'a str) -> Self {
        Source::Text(text)
    }
}

/// The unified correlation pipeline facade. See the module docs.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Builds a pipeline, validating the configuration up front.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when
    /// [`PipelineConfig::validate`] fails.
    pub fn new(config: PipelineConfig) -> Result<Self, TraceError> {
        config.validate()?;
        Ok(Pipeline { config })
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs one complete correlation: ingests the source (duplicate
    /// byte ranges are deduplicated — v2 `seq=` arithmetic or the v1
    /// `retrans` marker — then records classify and filter), correlates
    /// it in the configured [`Mode`], and returns the output.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed text sources and propagates
    /// configuration errors.
    pub fn run(&self, source: Source<'_>) -> Result<CorrelationOutput, TraceError> {
        // A path source is one whole-buffer read, dropped at the end of
        // this statement: once its records are staged, before any
        // ranking or routing.
        let mut session = match source {
            Source::Records(r) => self.staged(Input::Records(r))?,
            Source::Text(t) => self.staged(Input::Text(t))?,
            Source::Path(p) => self.staged(Input::Text(&crate::ingest::read_log_file(&p)?))?,
            Source::BinaryPath(p) => {
                self.staged(Input::Binary(&crate::binfmt::read_binary_file(&p)?))?
            }
        };
        let mut out = session.finish()?;
        if self.config.mode == Mode::Streaming {
            // A full run returns everything at once, so the canonical
            // cross-mode order applies here too; only incremental
            // sessions keep emission order.
            out.canonicalize();
        }
        Ok(out)
    }

    /// A session holding the whole input, staged without ranking or
    /// routing yet.
    fn staged(&self, input: Input<'_>) -> Result<PipelineSession, TraceError> {
        let mut session = self.session()?;
        input.stage_into(&mut session.inner, self.config.ingest_threads)?;
        Ok(session)
    }

    /// Opens an incremental session: push records (or raw log lines) as
    /// they arrive, poll for sealed CAGs, finish for the final output.
    /// The mode decides the machinery underneath — a batch session
    /// stages everything and ranks at finish; a streaming session
    /// correlates online with bounded memory; a sharded session routes
    /// to its workers as records arrive.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn session(&self) -> Result<PipelineSession, TraceError> {
        let cfg = &self.config.correlator;
        let inner = match self.config.mode {
            Mode::Batch | Mode::Streaming => SessionInner::Single {
                sc: StreamingCorrelator::new(cfg.clone())?,
                batch: self.config.mode == Mode::Batch,
            },
            Mode::Sharded(n) => SessionInner::Routed(RoutedCorrelator::sharded(cfg, n)?),
            Mode::Distributed {
                routers,
                workers_per_router,
            } => SessionInner::Routed(crate::dist::distributed(
                cfg,
                routers,
                workers_per_router,
                &self.config.router_transport,
            )?),
        };
        Ok(PipelineSession { inner })
    }
}

/// A resolved [`Source`]: path sources are read, nothing is parsed yet.
enum Input<'a> {
    Records(Vec<RawRecord>),
    Text(&'a str),
    /// A PTBIN buffer. Its decoded record sequence is exactly what text
    /// parsing of the converted log produces (the format round-trips
    /// losslessly), so output is byte-identical to the text run.
    Binary(&'a [u8]),
}

impl Input<'_> {
    /// Stages the whole input in source order. Zero-copy: refs borrow
    /// their strings straight from the text or file buffer, and the
    /// sequential parsers stream into the stage without an intermediate
    /// `Vec`.
    fn stage_into(self, into: &mut SessionInner, threads: usize) -> Result<(), TraceError> {
        match self {
            Input::Records(records) => records
                .iter()
                .try_for_each(|r| into.stage_ref(&r.as_record_ref())),
            Input::Text(t) if threads == 1 => {
                parse_log_iter(t).try_for_each(|r| into.stage_ref(&r?))
            }
            Input::Text(t) => crate::ingest::parse_refs_parallel(t, threads)?
                .iter()
                .try_for_each(|r| into.stage_ref(r)),
            Input::Binary(b) if threads == 1 => crate::binfmt::Reader::new(b)?
                .iter()
                .try_for_each(|r| into.stage_ref(&r?)),
            Input::Binary(b) => crate::binfmt::decode_refs_parallel(b, threads)?
                .iter()
                .try_for_each(|r| into.stage_ref(r)),
        }
    }
}

#[allow(clippy::large_enum_variant)] // one session per run; size is irrelevant
#[derive(Debug)]
enum SessionInner {
    /// [`Mode::Batch`] or [`Mode::Streaming`]: one ranked correlator. A
    /// batch session ranks nothing before `finish`.
    Single {
        sc: StreamingCorrelator,
        batch: bool,
    },
    Routed(RoutedCorrelator),
}

impl SessionInner {
    /// Takes one record without ranking or routing it yet.
    fn stage_ref(&mut self, r: &RawRecordRef<'_>) -> Result<(), TraceError> {
        match self {
            SessionInner::Single { sc, .. } => sc.push_ref(r),
            SessionInner::Routed(rc) => {
                rc.stage_ref(r);
                Ok(())
            }
        }
    }
}

/// An incremental pipeline run opened by [`Pipeline::session`]. After
/// [`PipelineSession::finish`] the session is spent: every further call
/// returns [`TraceError::Finished`].
#[derive(Debug)]
pub struct PipelineSession {
    inner: SessionInner,
}

impl PipelineSession {
    /// Pushes one raw record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`].
    pub fn push(&mut self, rec: RawRecord) -> Result<(), TraceError> {
        self.push_ref(&rec.as_record_ref())
    }

    /// Parses and pushes one TCP_TRACE log line (zero-copy).
    ///
    /// # Errors
    ///
    /// Returns a parse error for a malformed line, and
    /// [`TraceError::Finished`] after [`Self::finish`].
    pub fn push_line(&mut self, line: &str) -> Result<(), TraceError> {
        self.push_ref(&RawRecordRef::parse_line(line)?)
    }

    fn push_ref(&mut self, r: &RawRecordRef<'_>) -> Result<(), TraceError> {
        match &mut self.inner {
            SessionInner::Routed(rc) => rc.push_ref(r),
            single => single.stage_ref(r),
        }
    }

    /// Returns the CAGs sealed since the last poll. Batch sessions
    /// correlate only at [`Self::finish`] and always return an empty
    /// vector; sharded sessions flush their worker batches and emit at
    /// finish.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`].
    pub fn poll(&mut self) -> Result<Vec<Cag>, TraceError> {
        match &mut self.inner {
            SessionInner::Single { sc, batch: true } => sc.guard().map(|()| Vec::new()),
            SessionInner::Single { sc, .. } => sc.poll(),
            SessionInner::Routed(rc) => {
                rc.flush()?;
                Ok(Vec::new())
            }
        }
    }

    /// Current approximate resident bytes of the session's correlation
    /// state: window buffers + engine state for the single-instance
    /// modes (a batch session has ranked nothing before finish, and
    /// staged records are not counted, so it reports little), and
    /// reader-side router state for the routed ones.
    pub fn approx_bytes(&self) -> usize {
        match &self.inner {
            SessionInner::Single { sc, .. } => sc.approx_bytes(),
            SessionInner::Routed(rc) => rc.approx_router_bytes(),
        }
    }

    /// Live spill-tier counters `(objects spilled, faults)` of the
    /// session's correlation state. Single-instance sessions report
    /// their correlator's counters (a batch session's stay `(0, 0)`
    /// until finish); sharded workers own their state privately until
    /// the final drain, so routed sessions report `(0, 0)` here (the
    /// drain metrics carry the totals).
    pub fn spill_counters(&self) -> (u64, u64) {
        match &self.inner {
            SessionInner::Single { sc, .. } => sc.spill_counters(),
            SessionInner::Routed(_) => (0, 0),
        }
    }

    /// Ends the input and returns the final output (remaining finished
    /// CAGs plus deformed paths). The session is spent afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] when called twice.
    pub fn finish(&mut self) -> Result<CorrelationOutput, TraceError> {
        match &mut self.inner {
            SessionInner::Single { sc, batch } => {
                let mut out = sc.finish()?;
                if *batch {
                    out.canonicalize();
                }
                Ok(out)
            }
            SessionInner::Routed(rc) => rc.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::parse_log;
    use crate::shard::tests::access;

    /// Every execution mode, the routed ones over four shards.
    const MODES: [Mode; 4] = [
        Mode::Batch,
        Mode::Streaming,
        Mode::Sharded(2),
        Mode::Distributed {
            routers: 2,
            workers_per_router: 2,
        },
    ];

    /// A full three-tier request (same fixture as the correlator
    /// tests).
    fn three_tier_log() -> &'static str {
        "\
        1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120\n\
        2000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:8009 64\n\
        500900 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:8009 64\n\
        501500 app java 9 21 SEND 10.0.0.2:4101-10.0.0.3:3306 32\n\
        901900 db mysqld 5 55 RECEIVE 10.0.0.2:4101-10.0.0.3:3306 32\n\
        903000 db mysqld 5 55 SEND 10.0.0.3:3306-10.0.0.2:4101 800\n\
        503600 app java 9 21 RECEIVE 10.0.0.3:3306-10.0.0.2:4101 800\n\
        504000 app java 9 21 SEND 10.0.0.2:8009-10.0.0.1:4001 256\n\
        4500 web httpd 7 7 RECEIVE 10.0.0.2:8009-10.0.0.1:4001 256\n\
        5000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512\n\
        "
    }

    fn render(out: &CorrelationOutput) -> String {
        format!("{:?}|{:?}", out.cags, out.unfinished)
    }

    #[test]
    fn every_mode_correlates_the_three_tier_request() {
        for mode in MODES {
            let p = Pipeline::new(PipelineConfig::new(access()).with_mode(mode)).unwrap();
            let out = p.run(Source::text(three_tier_log())).unwrap();
            assert_eq!(out.cags.len(), 1, "{mode:?}");
            assert_eq!(out.cags[0].vertices.len(), 10, "{mode:?}");
            out.cags[0].validate().expect("valid CAG");
        }
    }

    /// A v2 capture of the three-tier request with what the ingest
    /// stage decides: a v1 `retrans` duplicate of the client request, a
    /// duplicate `seq=` range on the app tier, and `sshd` chatter whose
    /// second record starts above the channel's covered bytes (a
    /// capture gap) — dedup runs before the filter that drops it.
    fn v2_ingest_log() -> &'static str {
        "\
        1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120\n\
        1100 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120 retrans\n\
        2000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:8009 64 seq=0\n\
        2500 web sshd 3 3 RECEIVE 192.168.7.7:6000-10.0.0.1:22 48 seq=0\n\
        2600 web sshd 3 3 RECEIVE 192.168.7.7:6000-10.0.0.1:22 48 seq=96\n\
        500900 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:8009 64 seq=0\n\
        501000 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:8009 64 seq=0\n\
        501500 app java 9 21 SEND 10.0.0.2:4101-10.0.0.3:3306 32 seq=0\n\
        901900 db mysqld 5 55 RECEIVE 10.0.0.2:4101-10.0.0.3:3306 32 seq=0\n\
        903000 db mysqld 5 55 SEND 10.0.0.3:3306-10.0.0.2:4101 800 seq=0\n\
        503600 app java 9 21 RECEIVE 10.0.0.3:3306-10.0.0.2:4101 800 seq=0\n\
        504000 app java 9 21 SEND 10.0.0.2:8009-10.0.0.1:4001 256 seq=0\n\
        4500 web httpd 7 7 RECEIVE 10.0.0.2:8009-10.0.0.1:4001 256 seq=0\n\
        5000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512\n\
        "
    }

    /// The CAGs and the ingest stage's counters.
    fn render_with_ingest(out: &CorrelationOutput) -> String {
        let m = &out.metrics;
        format!(
            "{} in={} filtered={} retrans={} seq_dedup={} v2={} gaps={}",
            render(out),
            m.records_in,
            m.filtered_out,
            m.retrans_dropped,
            m.seq_dedup_ranges,
            m.v2_records,
            m.seq_gaps
        )
    }

    #[test]
    fn source_shapes_are_equivalent() {
        for log in [three_tier_log(), v2_ingest_log()] {
            let records = parse_log(log).unwrap();
            for mode in [
                Mode::Batch,
                Mode::Streaming,
                Mode::Sharded(3),
                Mode::Distributed {
                    routers: 3,
                    workers_per_router: 1,
                },
            ] {
                let p = Pipeline::new(
                    PipelineConfig::new(access())
                        .with_mode(mode)
                        .with_filters(FilterSet::new().drop_program("sshd")),
                )
                .unwrap();
                let session = |push: &dyn Fn(&mut PipelineSession) -> Result<(), TraceError>| {
                    let mut s = p.session().unwrap();
                    push(&mut s).unwrap();
                    let mut out = s.finish().unwrap();
                    out.canonicalize();
                    render_with_ingest(&out)
                };
                let from_text = p.run(Source::text(log)).unwrap();
                assert_eq!(from_text.cags.len(), 1, "{mode:?}");
                let want = render_with_ingest(&from_text);
                let shapes = [
                    (
                        "records",
                        render_with_ingest(&p.run(Source::records(records.clone())).unwrap()),
                    ),
                    (
                        "push",
                        session(&|s| records.iter().try_for_each(|r| s.push(r.clone()))),
                    ),
                    (
                        "push_line",
                        session(&|s| log.lines().try_for_each(|l| s.push_line(l.trim()))),
                    ),
                ];
                for (shape, got) in shapes {
                    assert_eq!(got, want, "{mode:?} {shape}");
                }
                if log == v2_ingest_log() {
                    let m = &from_text.metrics;
                    let counts = (m.records_in, m.filtered_out, m.retrans_dropped);
                    assert_eq!(counts, (14, 2, 2), "{mode:?}");
                    let v2 = (m.seq_dedup_ranges, m.v2_records, m.seq_gaps);
                    assert_eq!(v2, (1, 11, 1), "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn binary_source_matches_text_source_in_every_mode() {
        let bin = crate::binfmt::encode_text(three_tier_log(), 1).unwrap();
        let path = std::env::temp_dir().join(format!(
            "pt_pipeline_binary_source_{}.ptbin",
            std::process::id()
        ));
        std::fs::write(&path, &bin).unwrap();
        let text_path = path.with_extension("log");
        std::fs::write(&text_path, three_tier_log()).unwrap();
        let records = parse_log(three_tier_log()).unwrap();
        let batch = Pipeline::new(PipelineConfig::new(access())).unwrap();
        let want = render(&batch.run(Source::text(three_tier_log())).unwrap());
        for mode in MODES {
            for threads in [1, 2, 3] {
                let p = Pipeline::new(
                    PipelineConfig::new(access())
                        .with_mode(mode)
                        .with_ingest_threads(threads),
                )
                .unwrap();
                let from_text = p.run(Source::text(three_tier_log())).unwrap();
                // Every source shape of the resolver, against the
                // sequential text run.
                for (shape, source) in [
                    ("records", Source::records(records.clone())),
                    ("path", Source::path(&text_path)),
                    ("binary", Source::binary_path(&path)),
                ] {
                    assert_eq!(
                        render(&p.run(source).unwrap()),
                        render(&from_text),
                        "{mode:?} threads={threads} {shape}"
                    );
                }
                assert_eq!(render(&from_text), want, "{mode:?} threads={threads}");
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&text_path).ok();
    }

    #[test]
    fn sessions_reach_the_batch_output_in_every_mode() {
        let p = Pipeline::new(PipelineConfig::new(access())).unwrap();
        let want = render(&p.run(Source::text(three_tier_log())).unwrap());
        let records = parse_log(three_tier_log()).unwrap();
        for mode in MODES {
            // Sessions parse nothing themselves, so the thread count
            // must not matter; lines and owned records must agree.
            for (threads, by_line) in [(1, true), (2, true), (1, false), (2, false)] {
                let p = Pipeline::new(
                    PipelineConfig::new(access())
                        .with_mode(mode)
                        .with_ingest_threads(threads),
                )
                .unwrap();
                let mut s = p.session().unwrap();
                let mut cags = Vec::new();
                for (line, rec) in three_tier_log().lines().zip(&records) {
                    if by_line {
                        s.push_line(line.trim()).unwrap();
                    } else {
                        s.push(rec.clone()).unwrap();
                    }
                    cags.extend(s.poll().unwrap());
                }
                let mut out = s.finish().unwrap();
                cags.extend(std::mem::take(&mut out.cags));
                assert_eq!(out.metrics.records_in, 10, "{mode:?}");
                out.cags = cags;
                out.canonicalize();
                assert_eq!(render(&out), want, "{mode:?} threads={threads}");
                // Spent after finish, across all modes.
                assert_eq!(s.poll(), Err(TraceError::Finished), "{mode:?}");
                assert!(matches!(s.finish(), Err(TraceError::Finished)), "{mode:?}");
            }
        }
    }

    #[test]
    fn reversed_source_reaches_the_sorted_bytes_in_both_single_instance_modes() {
        // 20k back-to-back three-tier requests (200k records) fed newest
        // first: each node's staging queue is sorted once, not by
        // insertion, and both modes give the bytes of the run over the
        // same records stably pre-sorted by timestamp.
        let one = parse_log(three_tier_log()).unwrap();
        let mut records: Vec<RawRecord> = (0..20_000u64)
            .flat_map(|i| {
                one.iter().map(move |r| RawRecord {
                    ts: crate::activity::LocalTime::from_nanos(r.ts.as_nanos() + i * 10_000),
                    ..r.clone()
                })
            })
            .collect();
        records.reverse();
        let run = |mode, records| {
            Pipeline::new(PipelineConfig::new(access()).with_mode(mode))
                .unwrap()
                .run(Source::records(records))
                .unwrap()
        };
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.ts);
        let want = run(Mode::Batch, sorted);
        assert_eq!(want.cags.len(), 20_000);
        for mode in [Mode::Batch, Mode::Streaming] {
            let got = run(mode, records.clone());
            assert!(got.cags == want.cags, "{mode:?}");
            assert!(got.unfinished == want.unfinished, "{mode:?}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let no_access = PipelineConfig::new(AccessPointSpec::default());
        assert!(Pipeline::new(no_access).is_err());
        let bad_shards =
            PipelineConfig::new(access()).with_mode(Mode::Sharded(crate::shard::MAX_SHARDS + 1));
        assert!(Pipeline::new(bad_shards).is_err());
        let zero_window = PipelineConfig::new(access()).with_window(Nanos::ZERO);
        assert!(Pipeline::new(zero_window).is_err());
        let zero_routers = PipelineConfig::new(access()).with_mode(Mode::Distributed {
            routers: 0,
            workers_per_router: 1,
        });
        assert!(Pipeline::new(zero_routers).is_err());
        let too_many_routers = PipelineConfig::new(access()).with_mode(Mode::Distributed {
            routers: crate::dist::MAX_ROUTERS + 1,
            workers_per_router: 1,
        });
        assert!(Pipeline::new(too_many_routers).is_err());
        let too_many_workers = PipelineConfig::new(access()).with_mode(Mode::Distributed {
            routers: 2,
            workers_per_router: crate::shard::MAX_SHARDS,
        });
        assert!(Pipeline::new(too_many_workers).is_err());
        let addr_mismatch = PipelineConfig::new(access())
            .with_mode(Mode::Distributed {
                routers: 2,
                workers_per_router: 1,
            })
            .with_router_transport(RouterTransport::Connect {
                addrs: vec!["127.0.0.1:1".into()],
            });
        assert!(Pipeline::new(addr_mismatch).is_err());
    }

    #[test]
    fn config_builders_delegate() {
        let cfg = PipelineConfig::new(access())
            .with_window(Nanos::from_millis(5))
            .with_memory_budget(1 << 20)
            .with_spill_dir("/tmp/pt-spill-test")
            .with_max_seal_lag(64)
            .with_adaptive_window()
            .with_ingest_threads(4)
            .with_mode(Mode::Sharded(0));
        assert_eq!(cfg.correlator.ranker.window, Nanos::from_millis(5));
        assert_eq!(cfg.correlator.memory_budget, Some(1 << 20));
        assert_eq!(
            cfg.correlator.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/pt-spill-test"))
        );
        assert_eq!(cfg.correlator.max_seal_lag, Some(64));
        assert_eq!(
            cfg.correlator.ranker.window_policy,
            crate::ranker::WindowPolicy::Adaptive
        );
        assert_eq!(cfg.ingest_threads, 4);
        assert_eq!(cfg.mode, Mode::Sharded(0));
    }
}
