//! The PreciseTracer facade: configuration and the streaming-first
//! correlation pipeline.
//!
//! `StreamingCorrelator` is the one correlation path of the
//! single-instance modes: records are pushed incrementally (`push_ref` →
//! `poll` → `finish`), candidates flow through the
//! [`crate::ranker::Ranker`]/[`crate::engine::Engine`] loop, and
//! completed CAGs stream out with bounded memory. The paper's offline
//! evaluation setup ("all experiments are done offline") is the same
//! path with nothing ranked before `finish`: records are pushed in
//! source order and the ranker sorts each node's staged records by local
//! time (the "first round" sort) before it fetches from them. Batch and
//! online correlation therefore can never diverge.
//!
//! Sealed CAGs are extracted at fixed candidate-count boundaries (every
//! [`CorrelatorConfig::mem_sample_every`] candidates), **not** at poll
//! boundaries, so emission is a function of the candidate sequence
//! alone, never of poll cadence. The candidate sequence itself is
//! arrival-independent whenever ranking starts with the input staged
//! (push everything, then poll/finish — what the batch drain does):
//! that mode is byte-identical to batch for any log. Polling *between*
//! pushes of overlapping multi-host traffic can reorder emission —
//! an online ranker cannot see records that have not arrived — but the
//! produced CAGs are the same (pinned by the streaming property tests).
//!
//! Everything after candidate selection — sampling boundaries,
//! sealing, the context GC, the memory budget and the spill tier — is
//! an `EngineRunner`. A shard worker of the routed modes is one on its
//! own: its candidates arrive already selected.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::access::AccessPointSpec;
use crate::activity::{Activity, Nanos};
use crate::cag::Cag;
use crate::engine::Engine;
use crate::error::TraceError;
use crate::filter::FilterSet;
use crate::ingest::IngestStage;
use crate::metrics::CorrelatorMetrics;
use crate::ranker::{RankStep, Ranker};
use crate::raw::RawRecordRef;
use crate::spill::SpillFile;

pub use crate::engine::EngineOptions;
pub use crate::ranker::{RankerOptions, WindowPolicy};

/// Full correlator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatorConfig {
    /// Access points: frontend ports + internal IPs (§3.1).
    pub access: AccessPointSpec,
    /// Attribute-based noise filters (§4.3 way 1).
    pub filters: FilterSet,
    /// Ranker options, including the sliding time window.
    pub ranker: RankerOptions,
    /// Engine options, including ablation switches.
    pub engine: EngineOptions,
    /// Sample the memory gauge (and extract sealed CAGs / enforce the
    /// memory budget) once every this many candidates.
    pub mem_sample_every: u64,
    /// Explicit resident-memory budget in bytes for the correlation
    /// state (window buffers + engine maps, per `approx_bytes`). When
    /// exceeded at a sampling point, cold state is paged out to the
    /// spill tier (recall is unaffected, see
    /// [`CorrelatorConfig::spill_dir`]), surfaced in
    /// [`crate::engine::EngineCounters`]. `None` disables budget
    /// enforcement.
    pub memory_budget: Option<usize>,
    /// Directory for the spill tier's temp file (deleted on drop).
    /// `None` uses the platform temp directory. Only consulted when a
    /// memory budget is set — the spill tier pages cold unfinished
    /// CAGs, orphan chains and range-dedup coverage to disk and faults
    /// them back on touch, so a budgeted run stays byte-identical to an
    /// unbounded one.
    pub spill_dir: Option<PathBuf>,
    /// Sealing-latency bound (SLO) for streaming consumers: a finished
    /// CAG normally leaves the engine only once its context moves on
    /// (so trailing END chunks can still amend it), which under
    /// keep-alive lulls can lag arbitrarily. With `Some(lag)`, any
    /// finished CAG older than `lag` delivered candidates is
    /// force-sealed at the next sampling boundary, surfaced in
    /// [`crate::engine::EngineCounters::forced_seals`]. `None` (the
    /// default) waits indefinitely — the only mode whose emission is
    /// timing-independent, so goldens use it.
    pub max_seal_lag: Option<u64>,
}

impl CorrelatorConfig {
    /// A default configuration for a service with the given access spec.
    pub fn new(access: AccessPointSpec) -> Self {
        CorrelatorConfig {
            access,
            filters: FilterSet::new(),
            ranker: RankerOptions::default(),
            engine: EngineOptions::default(),
            mem_sample_every: 64,
            memory_budget: None,
            spill_dir: None,
            max_seal_lag: None,
        }
    }

    /// Sets the sliding time window.
    pub fn with_window(mut self, window: Nanos) -> Self {
        self.ranker.window = window;
        self
    }

    /// Enables adaptive windowing ([`WindowPolicy::Adaptive`]: `p99 × 4`
    /// clamped to `[1 ms, 10 s]`).
    pub fn with_adaptive_window(mut self) -> Self {
        self.ranker.window_policy = WindowPolicy::Adaptive;
        self
    }

    /// Sets the explicit resident-memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the spill tier's directory (see
    /// [`CorrelatorConfig::spill_dir`]).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Bounds the sealing latency of finished CAGs to `lag` delivered
    /// candidates (see [`CorrelatorConfig::max_seal_lag`]).
    pub fn with_max_seal_lag(mut self, lag: u64) -> Self {
        self.max_seal_lag = Some(lag);
        self
    }

    /// Sets the attribute filters.
    pub fn with_filters(mut self, filters: FilterSet) -> Self {
        self.filters = filters;
        self
    }

    /// Sets the ranker options wholesale.
    pub fn with_ranker(mut self, ranker: RankerOptions) -> Self {
        self.ranker = ranker;
        self
    }

    /// Sets the engine options wholesale.
    pub fn with_engine(mut self, engine: EngineOptions) -> Self {
        self.engine = engine;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when the static window is zero or
    /// no access point is configured.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.ranker.window_policy == WindowPolicy::Static && self.ranker.window == Nanos::ZERO {
            return Err(TraceError::config("sliding time window must be > 0"));
        }
        if self.access.is_empty() {
            return Err(TraceError::config(
                "no frontend port configured; no request would ever BEGIN",
            ));
        }
        Ok(())
    }

    /// The fields an [`EngineRunner`] reads.
    pub(crate) fn worker(&self) -> WorkerConfig {
        WorkerConfig {
            engine: self.engine.clone(),
            mem_sample_every: self.mem_sample_every,
            memory_budget: self.memory_budget,
            spill_dir: self.spill_dir.clone(),
            max_seal_lag: self.max_seal_lag,
        }
    }
}

/// The part of a [`CorrelatorConfig`] that drives an engine, and the
/// whole configuration a shard worker gets (a PTDC router's Hello
/// carries exactly this): routed candidates arrive already selected,
/// so access points, filters and ranker options stay with the
/// front-end. See the [`CorrelatorConfig`] field of the same name for
/// each.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkerConfig {
    pub(crate) engine: EngineOptions,
    pub(crate) mem_sample_every: u64,
    pub(crate) memory_budget: Option<usize>,
    pub(crate) spill_dir: Option<PathBuf>,
    pub(crate) max_seal_lag: Option<u64>,
}

/// The result of a correlation run.
#[derive(Debug, Clone, Default)]
pub struct CorrelationOutput {
    /// Completed causal paths, in completion order.
    pub cags: Vec<Cag>,
    /// Deformed paths still open when input ended (lost activities).
    pub unfinished: Vec<Cag>,
    /// Counters, memory gauge and wall time.
    pub metrics: CorrelatorMetrics,
    /// The first few activities discarded by `is_noise` (diagnostics;
    /// the full count is in `metrics.ranker.noise_discards`).
    pub noise_samples: Vec<Activity>,
}

impl CorrelationOutput {
    /// Renumbers and reorders CAGs into the canonical root order the
    /// sharded merge uses (sort key: root BEGIN timestamp, context,
    /// channel, size, vertex count — see `ReaderCore::merge`).
    ///
    /// [`Pipeline::run`](crate::pipeline::Pipeline::run) applies this
    /// to batch and streaming results so every mode emits the same
    /// bytes; incremental sessions keep emission order (ids are fixed
    /// the moment a CAG is polled) and may call this on a collected
    /// output to compare against a batch run.
    ///
    /// On well-ordered corpora the engine already seals in root order
    /// and this is the identity; on gap-damaged corpora lost records
    /// shuffle BEGIN-delivery order, and without it single-instance ids
    /// and emission order would deviate from every sharded run.
    pub fn canonicalize(&mut self) {
        let key = |c: &Cag| {
            let r = &c.vertices[0];
            (r.ts, r.ctx.clone(), r.channel, r.size, c.vertices.len())
        };
        // The sharded merge ranks the union [cags..., unfinished...]
        // with a stable sort and assigns ids by rank; mirror that exactly.
        let keys: Vec<_> = self
            .cags
            .iter()
            .chain(self.unfinished.iter())
            .map(key)
            .collect();
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let mut ids = vec![0u64; keys.len()];
        for (rank, &i) in order.iter().enumerate() {
            ids[i] = rank as u64;
        }
        for (i, c) in self
            .cags
            .iter_mut()
            .chain(self.unfinished.iter_mut())
            .enumerate()
        {
            c.id = ids[i];
        }
        // Emission order follows the ids (ranks are unique, so this is the
        // same stable order the sharded merge emits).
        self.cags.sort_by_key(|c| c.id);
        self.unfinished.sort_by_key(|c| c.id);
    }
}

/// How many noise victims are kept for diagnostics.
const NOISE_SAMPLE_CAP: usize = 32;

/// How many new `cmap` entries accumulate between periodic
/// stale-context sweeps (each sweep is O(contexts)).
const CMAP_GC_GROWTH: usize = 1_024;

/// Correlation state kept beside an engine, which the memory budget
/// counts together with it: a `StreamingCorrelator`'s window buffers
/// and range-dedup coverage. A shard worker keeps none (`()`).
pub(crate) trait Beside {
    /// Bytes of the ranker's window buffers, which the memory gauge
    /// counts.
    fn window_bytes(&self) -> usize {
        0
    }
    /// Bytes of state that pages out once the engine has nothing cold
    /// left; the budget counts them, the gauge does not.
    fn spillable_bytes(&self) -> usize {
        0
    }
    /// Pages one entry of that state out; `false` when none is resident.
    fn spill_one(&mut self) -> bool {
        false
    }
}

impl Beside for () {}

/// An engine and what drives it between candidates: sampling
/// boundaries, sealing, the context GC, the memory budget and the spill
/// tier. A shard worker is exactly this; a `StreamingCorrelator` puts
/// ingest and a ranker in front of one.
#[derive(Debug)]
pub(crate) struct EngineRunner {
    pub(crate) engine: Engine,
    /// Spill tier backing file (present iff a memory budget is set);
    /// shared with the engine.
    spill_file: Option<Arc<SpillFile>>,
    mem_sample_every: u64,
    memory_budget: Option<usize>,
    max_seal_lag: Option<u64>,
    since_sample: u64,
    /// Context count after the last context GC, so the O(contexts)
    /// sweep only reruns once enough new entries piled up.
    last_prune_contexts: usize,
    /// Sealed CAGs extracted at sampling boundaries, awaiting the next
    /// `poll`/`finish`.
    ready: Vec<Cag>,
    cags_finished: u64,
    peak_bytes: usize,
    started: Instant,
}

impl EngineRunner {
    /// A runner over a fresh engine; with a memory budget, also the
    /// spill file it pages into.
    ///
    /// # Errors
    ///
    /// Returns a configuration error when the spill file cannot be
    /// created.
    pub(crate) fn new(config: &WorkerConfig) -> Result<Self, TraceError> {
        let mut engine = Engine::new(config.engine.clone());
        let mut spill_file = None;
        if config.memory_budget.is_some() {
            let dir = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            let file = Arc::new(SpillFile::create(&dir).map_err(|e| {
                TraceError::config(format!(
                    "cannot create spill file in {}: {e}",
                    dir.display()
                ))
            })?);
            engine.enable_spill(Arc::clone(&file));
            spill_file = Some(file);
        }
        Ok(EngineRunner {
            engine,
            spill_file,
            mem_sample_every: config.mem_sample_every,
            memory_budget: config.memory_budget,
            max_seal_lag: config.max_seal_lag,
            since_sample: 0,
            last_prune_contexts: 0,
            ready: Vec::new(),
            cags_finished: 0,
            peak_bytes: 0,
            started: Instant::now(),
        })
    }

    /// Delivers one candidate; every `mem_sample_every`-th one ends at
    /// a sampling boundary.
    pub(crate) fn deliver(&mut self, a: Activity, beside: &mut impl Beside) {
        self.engine.deliver(a);
        self.since_sample += 1;
        if self.since_sample >= self.mem_sample_every.max(1) {
            self.since_sample = 0;
            self.sample(beside);
        }
    }

    /// One sampling boundary: extract sealed CAGs (completed paths
    /// stream out, so the memory gauge measures the *working* state the
    /// window bounds), enforce the memory budget, update the gauge.
    fn sample(&mut self, beside: &mut impl Beside) {
        let sealed = self.engine.take_sealed(self.max_seal_lag);
        self.cags_finished += sealed.len() as u64;
        self.ready.extend(sealed);
        if self.memory_budget.is_none()
            && self.engine.context_count() >= self.last_prune_contexts + CMAP_GC_GROWTH
        {
            // Periodic context GC outside budget mode: endless-input
            // runs without a budget must not grow dead cmap entries
            // (behavior-neutral — only Stale entries are dropped —
            // and surfaced in `EngineCounters::pruned_contexts`).
            self.engine.prune_stale_contexts();
            self.last_prune_contexts = self.engine.context_count();
        }
        if let Some(budget) = self.memory_budget {
            self.spill_to_budget(budget, beside);
        }
        let cur = beside.window_bytes() + self.engine.approx_bytes();
        self.peak_bytes = self.peak_bytes.max(cur);
    }

    /// Budget enforcement: page cold state out (unfinished CAGs, orphan
    /// chains, then the state beside the engine) until resident state
    /// fits. Nothing is dropped — output stays byte-identical to an
    /// unbounded run; only faults pay latency.
    fn spill_to_budget(&mut self, budget: usize, beside: &mut impl Beside) {
        while beside.window_bytes() + self.engine.approx_bytes() + beside.spillable_bytes() > budget
        {
            if self.engine.spill_one() || beside.spill_one() {
                continue;
            }
            // The resident floor (window buffers, mmap/cmap) remains;
            // reclaim dead contexts, then accept being over.
            if self.engine.context_count() >= self.last_prune_contexts + CMAP_GC_GROWTH {
                self.engine.prune_stale_contexts();
                self.last_prune_contexts = self.engine.context_count();
            }
            break;
        }
        // New sampling boundary: the CAGs touched by the next batch of
        // candidates are the working set and stay pinned.
        self.engine.spill_checkpoint();
    }

    /// Ends the run: every CAG sealed so far, then the ones still held
    /// for a trailing END, then the deformed paths, with the engine's
    /// metrics.
    pub(crate) fn finish(&mut self, beside: &impl Beside) -> CorrelationOutput {
        let mut cags = std::mem::take(&mut self.ready);
        // Flush CAGs still held for potential trailing-END amendment.
        let flushed = self.engine.take_finished();
        self.cags_finished += flushed.len() as u64;
        cags.extend(flushed);
        let unfinished = self.engine.take_unfinished();
        let final_bytes = beside.window_bytes() + self.engine.approx_bytes();
        let mut metrics = CorrelatorMetrics {
            cags_finished: self.cags_finished,
            cags_unfinished: unfinished.len() as u64,
            engine: *self.engine.counters(),
            peak_bytes: self.peak_bytes.max(final_bytes),
            final_bytes,
            wall: self.started.elapsed(),
            ..CorrelatorMetrics::default()
        };
        if let Some(file) = &self.spill_file {
            let st = file.stats();
            metrics.spill_pages_written = st.pages_written;
            metrics.spill_pages_read = st.pages_read;
            metrics.spill_queue_hits = st.queue_hits;
        }
        CorrelationOutput {
            cags,
            unfinished,
            metrics,
            noise_samples: Vec::new(),
        }
    }
}

/// Online correlation: push records as they arrive, poll finished CAGs.
///
/// This is the correlation path of both single-instance modes; a batch
/// run is the same push sequence with no poll before `finish`. Sealed
/// CAGs leave the engine at fixed candidate-count boundaries, so poll
/// cadence never affects emission; pushing the whole input before the
/// first poll reproduces the batch output byte-for-byte, and interleaved
/// polling yields the same CAGs (possibly emitted in a different order —
/// see the module docs).
///
/// After [`StreamingCorrelator::finish`] the correlator is spent:
/// every further `push_ref`/`poll`/`finish` returns
/// [`TraceError::Finished`].
///
/// This is the engine behind [`crate::pipeline::Mode::Streaming`];
/// callers reach it through [`crate::pipeline::Pipeline::session`]
/// (push/poll/finish map one-to-one).
#[derive(Debug)]
pub(crate) struct StreamingCorrelator {
    front: Front,
    runner: EngineRunner,
    noise_samples: Vec<Activity>,
    /// Set by `finish`; all further calls return `TraceError::Finished`.
    finished: bool,
}

/// What a [`StreamingCorrelator`] keeps in front of its engine: the
/// ingest stage and candidate selection.
#[derive(Debug)]
struct Front {
    ingest: IngestStage,
    ranker: Ranker,
}

impl Beside for Front {
    fn window_bytes(&self) -> usize {
        self.ranker.approx_bytes()
    }

    /// The v2 range-dedup coverage (empty on v1 streams).
    fn spillable_bytes(&self) -> usize {
        self.ingest.coverage_bytes()
    }

    fn spill_one(&mut self) -> bool {
        self.ingest.spill_one()
    }
}

impl StreamingCorrelator {
    /// Creates a streaming correlator.
    ///
    /// # Errors
    ///
    /// Returns a configuration error when [`CorrelatorConfig::validate`]
    /// fails or the spill file cannot be created.
    pub fn new(config: CorrelatorConfig) -> Result<Self, TraceError> {
        config.validate()?;
        let runner = EngineRunner::new(&config.worker())?;
        let mut ranker = Ranker::new(config.ranker);
        // Under the adaptive policy the budget additionally caps the
        // window itself — window buffers cannot spill, so their ceiling
        // must scale with what the budget can hold.
        ranker.set_adaptive_budget(config.memory_budget);
        Ok(StreamingCorrelator {
            front: Front {
                ingest: IngestStage::new(&config, runner.spill_file.clone()),
                ranker,
            },
            runner,
            noise_samples: Vec::new(),
            finished: false,
        })
    }

    /// `Err(Finished)` once [`Self::finish`] ran.
    pub(crate) fn guard(&self) -> Result<(), TraceError> {
        if self.finished {
            Err(TraceError::Finished)
        } else {
            Ok(())
        }
    }

    /// Pushes one record through the ingest stage into its node's
    /// queue.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`].
    pub fn push_ref(&mut self, r: &RawRecordRef<'_>) -> Result<(), TraceError> {
        self.guard()?;
        if let Some(act) = self.front.ingest.admit(r) {
            self.front.ranker.push(act);
        }
        Ok(())
    }

    /// Runs the correlation loop until more input is needed, returning
    /// the CAGs sealed at sampling boundaries in the meantime.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`].
    pub fn poll(&mut self) -> Result<Vec<Cag>, TraceError> {
        self.guard()?;
        self.pump();
        Ok(std::mem::take(&mut self.runner.ready))
    }

    /// Drives the ranker/engine loop until it needs input or the
    /// sources are exhausted. Sealed CAGs are extracted — and the memory
    /// budget enforced — only at candidate-count sampling boundaries, so
    /// the emitted sequence does not depend on poll cadence.
    fn pump(&mut self) {
        loop {
            match self.front.ranker.rank(&self.runner.engine) {
                RankStep::Candidate(a) => self.runner.deliver(a, &mut self.front),
                RankStep::Noise(a) => {
                    if self.noise_samples.len() < NOISE_SAMPLE_CAP {
                        self.noise_samples.push(a);
                    }
                }
                RankStep::NeedInput | RankStep::Exhausted => break,
            }
        }
    }

    /// Current approximate resident bytes (window buffers + engine
    /// state + the v2 range-dedup coverage, which is empty on v1
    /// streams) — the online-memory guarantee of the streaming mode.
    pub fn approx_bytes(&self) -> usize {
        self.front.window_bytes() + self.runner.engine.approx_bytes() + self.front.spillable_bytes()
    }

    /// Live spill-tier counters `(objects spilled so far, faults so
    /// far)` across CAGs, orphan chains and dedup coverage — `(0, 0)`
    /// when the spill tier is off. For KPI streams; the final metrics
    /// carry the full breakdown.
    pub fn spill_counters(&self) -> (u64, u64) {
        let e = self.runner.engine.counters();
        let (spilled, faults) = self.front.ingest.spill_counters();
        (
            e.spilled_cags + e.spilled_orphans + spilled,
            e.spill_faults + faults,
        )
    }

    /// The current base sliding window (static, or the latest adaptive
    /// estimate).
    #[cfg(test)]
    pub fn current_window(&self) -> Nanos {
        self.front.ranker.current_window()
    }

    /// Closes all streams, drains everything and returns the final
    /// output (remaining finished CAGs plus deformed paths). The
    /// correlator is spent afterwards: every further call returns
    /// [`TraceError::Finished`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] when called twice.
    pub fn finish(&mut self) -> Result<CorrelationOutput, TraceError> {
        self.guard()?;
        self.finished = true;
        self.front.ranker.close_all();
        self.pump();
        let mut out = self.runner.finish(&self.front);
        let mut front = self.front.ingest.metrics();
        front.ranker = *self.front.ranker.counters();
        // The front's counters and the runner's are disjoint fields, so
        // folding one into the other is their union.
        out.metrics.absorb(&front);
        out.noise_samples = std::mem::take(&mut self.noise_samples);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, Source};
    use crate::raw::{parse_log, RawRecord};

    impl StreamingCorrelator {
        /// Pushes an owned record as its borrowed view.
        fn push(&mut self, rec: RawRecord) -> Result<(), TraceError> {
            self.push_ref(&rec.as_record_ref())
        }
    }

    /// A [`crate::pipeline::Mode::Batch`] run over owned records.
    fn batch(
        cfg: CorrelatorConfig,
        records: Vec<RawRecord>,
    ) -> Result<CorrelationOutput, TraceError> {
        Pipeline::new(cfg.into())?.run(Source::records(records))
    }

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

    /// A full three-tier request in TCP_TRACE format, interleaved across
    /// nodes with skewed clocks.
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

    #[test]
    fn offline_three_tier_roundtrip() {
        let records = parse_log(three_tier_log()).unwrap();
        let out = batch(CorrelatorConfig::new(access()), records).unwrap();
        assert_eq!(out.cags.len(), 1);
        assert!(out.unfinished.is_empty());
        let cag = &out.cags[0];
        cag.validate().expect("valid");
        assert_eq!(cag.vertices.len(), 10);
        assert_eq!(out.metrics.cags_finished, 1);
        assert_eq!(out.metrics.ranker.noise_discards, 0);
    }

    #[test]
    fn rejects_zero_window() {
        let cfg = CorrelatorConfig::new(access()).with_window(Nanos::ZERO);
        assert!(batch(cfg, Vec::new()).is_err());
    }

    #[test]
    fn rejects_missing_access_points() {
        let cfg = CorrelatorConfig::new(AccessPointSpec::default());
        assert!(batch(cfg, Vec::new()).is_err());
    }

    #[test]
    fn unsorted_input_is_sorted_per_node() {
        let mut records = parse_log(three_tier_log()).unwrap();
        records.reverse();
        let out = batch(CorrelatorConfig::new(access()), records).unwrap();
        assert_eq!(out.cags.len(), 1);
        out.cags[0].validate().expect("valid");
    }

    #[test]
    fn tiny_window_still_correct_under_skew() {
        // Window 1ns, node clocks skewed by ~0.5ms and ~0.9ms: the window
        // is per-node local time, so correctness is unaffected (§4.1).
        let records = parse_log(three_tier_log()).unwrap();
        let cfg = CorrelatorConfig::new(access()).with_window(Nanos(1));
        let out = batch(cfg, records).unwrap();
        assert_eq!(out.cags.len(), 1);
        out.cags[0].validate().expect("valid");
    }

    #[test]
    fn noise_from_untraced_peer_is_discarded() {
        let mut log = three_tier_log().to_owned();
        // A MySQL client on an untraced host talks to the database; the
        // mysqld-side receive has no matching traced send.
        log.push_str("902000 db mysqld 5 77 RECEIVE 172.16.9.9:6000-10.0.0.3:3306 48\n");
        log.push_str("902500 db mysqld 5 77 SEND 10.0.0.3:3306-172.16.9.9:6000 99\n");
        let out = batch(CorrelatorConfig::new(access()), parse_log(&log).unwrap()).unwrap();
        assert_eq!(out.cags.len(), 1);
        assert_eq!(out.cags[0].vertices.len(), 10);
        assert_eq!(out.metrics.ranker.noise_discards, 1);
        assert_eq!(out.metrics.engine.orphan_vertices, 1);
        // The real path is untouched by the noise.
        assert_eq!(out.metrics.cags_unfinished, 0);
    }

    #[test]
    fn attribute_filter_removes_program_noise() {
        let mut log = three_tier_log().to_owned();
        log.push_str("600 web sshd 99 99 RECEIVE 172.16.9.9:7000-10.0.0.1:22 500\n");
        log.push_str("700 web sshd 99 99 SEND 10.0.0.1:22-172.16.9.9:7000 500\n");
        let cfg =
            CorrelatorConfig::new(access()).with_filters(FilterSet::new().drop_program("sshd"));
        let out = batch(cfg, parse_log(&log).unwrap()).unwrap();
        assert_eq!(out.metrics.filtered_out, 2);
        assert_eq!(out.cags.len(), 1);
    }

    #[test]
    fn lost_end_yields_unfinished_cag() {
        let log: String = three_tier_log()
            .lines()
            .filter(|l| !l.contains("10.0.0.1:80-192.168.0.9:5000"))
            .map(|l| format!("{l}\n"))
            .collect();
        let out = batch(CorrelatorConfig::new(access()), parse_log(&log).unwrap()).unwrap();
        assert_eq!(out.cags.len(), 0);
        assert_eq!(out.unfinished.len(), 1);
        assert_eq!(out.unfinished[0].vertices.len(), 9);
    }

    #[test]
    fn streaming_matches_offline() {
        let records = parse_log(three_tier_log()).unwrap();
        let offline = batch(CorrelatorConfig::new(access()), records.clone()).unwrap();
        let mut sc = StreamingCorrelator::new(CorrelatorConfig::new(access())).unwrap();
        let mut streamed = Vec::new();
        for r in records {
            sc.push(r).unwrap();
            streamed.extend(sc.poll().unwrap());
        }
        let done = sc.finish().unwrap();
        streamed.extend(done.cags);
        assert_eq!(streamed.len(), offline.cags.len());
        assert_eq!(streamed[0].sorted_tags(), offline.cags[0].sorted_tags());
        assert_eq!(streamed[0].vertices.len(), offline.cags[0].vertices.len());
    }

    #[test]
    fn streaming_memory_stays_bounded() {
        // Push many sequential requests; with a 10ms window the resident
        // set must not grow with the request count.
        let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
        let mut sc = StreamingCorrelator::new(CorrelatorConfig::new(access)).unwrap();
        let mut peak = 0usize;
        for i in 0..1_000u64 {
            let t0 = i * 1_000_000;
            sc.push(
                format!(
                    "{} web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 100",
                    t0
                )
                .parse()
                .unwrap(),
            )
            .unwrap();
            sc.push(
                format!(
                    "{} web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 200",
                    t0 + 500
                )
                .parse()
                .unwrap(),
            )
            .unwrap();
            let _ = sc.poll().unwrap();
            peak = peak.max(sc.approx_bytes());
        }
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.records_in, 2_000);
        assert!(peak < 64 * 1024, "resident {peak} bytes should stay small");
    }

    #[test]
    fn poll_cadence_does_not_change_output() {
        // The tentpole guarantee: any chunking of the same input yields
        // byte-identical results. Compare per-record polling against one
        // big push with a single finish.
        let records = parse_log(three_tier_log()).unwrap();
        let batch = batch(CorrelatorConfig::new(access()), records.clone()).unwrap();
        let mut sc = StreamingCorrelator::new(CorrelatorConfig::new(access())).unwrap();
        let mut streamed = Vec::new();
        for r in records {
            sc.push(r).unwrap();
            streamed.extend(sc.poll().unwrap());
        }
        let done = sc.finish().unwrap();
        streamed.extend(done.cags);
        let fmt = |cags: &[Cag]| {
            cags.iter()
                .map(|c| format!("{}:{:?}", c.id, c.sorted_tags()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fmt(&streamed), fmt(&batch.cags));
        assert_eq!(done.unfinished.len(), batch.unfinished.len());
    }

    #[test]
    fn api_after_finish_returns_finished_error() {
        let mut sc = StreamingCorrelator::new(CorrelatorConfig::new(access())).unwrap();
        sc.push(
            "1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120"
                .parse()
                .unwrap(),
        )
        .unwrap();
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.records_in, 1);
        // Every entry point is consistently poisoned — no consume-by-move
        // footgun, no panic.
        let rec: RawRecord = "2000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512"
            .parse()
            .unwrap();
        assert_eq!(sc.push(rec), Err(TraceError::Finished));
        assert_eq!(sc.poll(), Err(TraceError::Finished));
        let line = "2000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512";
        let r = RawRecordRef::parse_line(line).unwrap();
        assert_eq!(sc.push_ref(&r), Err(TraceError::Finished));
        assert!(matches!(sc.finish(), Err(TraceError::Finished)));
    }

    #[test]
    fn close_host_on_unknown_host_is_a_noop() {
        let mut sc = StreamingCorrelator::new(CorrelatorConfig::new(access())).unwrap();
        assert!(!sc.front.ranker.close_host("nonexistent"));
        sc.push(
            "1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120"
                .parse()
                .unwrap(),
        )
        .unwrap();
        assert!(sc.front.ranker.close_host("web"));
        assert!(!sc.front.ranker.close_host("still-unknown"));
        // Closing an unknown host must not fabricate an empty open queue
        // that would wedge the drain.
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.records_in, 1);
    }

    #[test]
    fn without_budget_the_same_load_grows_past_it() {
        // Sanity check for the spill test below: paging out is what
        // keeps the resident set near the budget.
        let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
        let mut cfg = CorrelatorConfig::new(access);
        cfg.mem_sample_every = 8;
        let mut sc = StreamingCorrelator::new(cfg).unwrap();
        for i in 0..2_000u64 {
            sc.push(
                format!(
                    "{} web httpd 7 7 RECEIVE 192.168.0.9:{}-10.0.0.1:80 100",
                    i * 1_000_000,
                    5_000 + (i % 50_000),
                )
                .parse()
                .unwrap(),
            )
            .unwrap();
            let _ = sc.poll().unwrap();
        }
        assert!(sc.approx_bytes() > 16 * 1024);
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.engine.spilled_cags, 0);
    }

    #[test]
    fn spill_tier_bounds_memory_without_losing_recall() {
        // Many never-ending requests (BEGIN, no END) under a budget:
        // cold CAGs page out to the spill file and every one of them
        // comes back as a deformed path at finish — bounded memory,
        // recall 1.00.
        let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
        let mut cfg = CorrelatorConfig::new(access).with_memory_budget(8 * 1024);
        cfg.mem_sample_every = 8;
        let mut sc = StreamingCorrelator::new(cfg).unwrap();
        for i in 0..2_000u64 {
            sc.push(
                format!(
                    "{} web httpd 7 7 RECEIVE 192.168.0.9:{}-10.0.0.1:80 100",
                    i * 1_000_000,
                    5_000 + (i % 50_000),
                )
                .parse()
                .unwrap(),
            )
            .unwrap();
            let _ = sc.poll().unwrap();
        }
        assert!(
            sc.approx_bytes() <= 16 * 1024,
            "resident {} bytes far exceeds the 8 KiB budget",
            sc.approx_bytes()
        );
        let out = sc.finish().unwrap();
        assert!(out.metrics.engine.spilled_cags > 0, "nothing spilled");
        assert!(out.metrics.engine.spill_faults > 0, "nothing faulted");
        assert_eq!(out.unfinished.len(), 2_000, "spill must not cost recall");
        assert_eq!(out.metrics.cags_unfinished, 2_000);
    }

    #[test]
    fn budget_that_never_binds_spills_nothing() {
        // The spill test's load as a v2 capture (dedup coverage grows
        // with every connection), under a budget far above its state:
        // no object may leave, so no spill bookkeeping is ever built.
        let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
        let mut cfg = CorrelatorConfig::new(access).with_memory_budget(16 << 20);
        cfg.mem_sample_every = 8;
        let mut sc = StreamingCorrelator::new(cfg).unwrap();
        for i in 0..2_000u64 {
            sc.push(
                format!(
                    "{} web httpd 7 7 RECEIVE 192.168.0.9:{}-10.0.0.1:80 100 seq=0",
                    i * 1_000_000,
                    5_000 + i,
                )
                .parse()
                .unwrap(),
            )
            .unwrap();
            let _ = sc.poll().unwrap();
            assert_eq!(sc.spill_counters(), (0, 0));
        }
        let out = sc.finish().unwrap();
        assert_eq!(out.unfinished.len(), 2_000);
        assert_eq!(out.metrics.spill_pages_written, 0);
        assert_eq!(out.metrics.spill_pages_read, 0);
    }

    #[test]
    fn adaptive_window_tracks_observed_latency() {
        // 2000 two-tier requests with ~2ms backend round trips: the
        // adaptive window must record RTT samples, recompute itself, and
        // stay within its clamp bounds while correlating perfectly.
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()],
        );
        let cfg = CorrelatorConfig::new(access).with_adaptive_window();
        let mut sc = StreamingCorrelator::new(cfg).unwrap();
        for i in 0..2_000u64 {
            let t0 = i * 10_000_000;
            for line in [
                format!(
                    "{} web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 100",
                    t0
                ),
                format!(
                    "{} web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:9000 64",
                    t0 + 100_000
                ),
                format!(
                    "{} app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:9000 64",
                    t0 + 200_000
                ),
                format!(
                    "{} app java 9 21 SEND 10.0.0.2:9000-10.0.0.1:4001 256",
                    t0 + 1_900_000
                ),
                format!(
                    "{} web httpd 7 7 RECEIVE 10.0.0.2:9000-10.0.0.1:4001 256",
                    t0 + 2_100_000
                ),
                format!(
                    "{} web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512",
                    t0 + 2_200_000
                ),
            ] {
                sc.push(line.parse().unwrap()).unwrap();
            }
            let _ = sc.poll().unwrap();
        }
        let w = sc.current_window();
        let out = sc.finish().unwrap();
        assert!(
            out.metrics.ranker.window_updates > 0,
            "window never adapted"
        );
        assert!(out.metrics.ranker.rtt_samples > 1_000);
        assert!(
            w >= Nanos::from_millis(1) && w <= Nanos::from_secs(10),
            "window {w} escaped its clamp"
        );
        assert_eq!(out.metrics.cags_finished, 2_000);
        assert_eq!(out.metrics.cags_unfinished, 0);
    }

    #[test]
    fn memory_budget_clamps_adaptive_window() {
        // The same two-tier corpus correlated twice under the adaptive
        // policy: folding a memory budget in must settle the window at
        // or below the unbudgeted settle (window buffers cannot spill,
        // so their ceiling scales with the budget), count the clamps,
        // and still account for every request.
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()],
        );
        let run = |budget: Option<usize>| {
            let mut cfg = CorrelatorConfig::new(access.clone()).with_adaptive_window();
            if let Some(b) = budget {
                cfg = cfg.with_memory_budget(b);
            }
            let mut sc = StreamingCorrelator::new(cfg).unwrap();
            for i in 0..2_000u64 {
                let t0 = i * 10_000_000;
                for line in [
                    format!(
                        "{} web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 100",
                        t0
                    ),
                    format!(
                        "{} web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:9000 64",
                        t0 + 100_000
                    ),
                    format!(
                        "{} app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:9000 64",
                        t0 + 200_000
                    ),
                    format!(
                        "{} app java 9 21 SEND 10.0.0.2:9000-10.0.0.1:4001 256",
                        t0 + 1_900_000
                    ),
                    format!(
                        "{} web httpd 7 7 RECEIVE 10.0.0.2:9000-10.0.0.1:4001 256",
                        t0 + 2_100_000
                    ),
                    format!(
                        "{} web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512",
                        t0 + 2_200_000
                    ),
                ] {
                    sc.push(line.parse().unwrap()).unwrap();
                }
                let _ = sc.poll().unwrap();
            }
            let w = sc.current_window();
            (w, sc.finish().unwrap())
        };
        let (free_w, free) = run(None);
        let (tight_w, tight) = run(Some(2 << 10));
        assert_eq!(free.metrics.ranker.window_clamps, 0);
        assert!(
            tight.metrics.ranker.window_clamps > 0,
            "a 2 KiB budget must bind the adaptive window"
        );
        assert!(
            tight_w <= free_w,
            "budgeted window {tight_w} settled above unbudgeted {free_w}"
        );
        assert!(tight.metrics.ranker.adaptive_window_ns > 0);
        assert_eq!(
            tight.metrics.cags_finished + tight.metrics.cags_unfinished,
            2_000,
            "the clamp must not lose requests"
        );
    }

    #[test]
    fn max_seal_lag_bounds_streaming_emission_latency() {
        // One request completes, then its web thread goes idle while a
        // long keep-alive lull of other traffic flows. Without the lag
        // bound the sealed CAG only leaves at finish; with it, a poll
        // mid-lull already returns it, counted in forced_seals.
        let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
        let run = |lag: Option<u64>| {
            let mut cfg = CorrelatorConfig::new(access.clone());
            cfg.mem_sample_every = 8;
            cfg.max_seal_lag = lag;
            let mut sc = StreamingCorrelator::new(cfg).unwrap();
            sc.push(
                "1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120"
                    .parse()
                    .unwrap(),
            )
            .unwrap();
            sc.push(
                "2000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512"
                    .parse()
                    .unwrap(),
            )
            .unwrap();
            // The lull: another client's endless requests.
            let mut early = 0usize;
            for i in 0..200u64 {
                let t = 10_000 + i * 2_000;
                sc.push(
                    format!("{t} web httpd 8 8 RECEIVE 192.168.0.7:6000-10.0.0.1:80 64")
                        .parse()
                        .unwrap(),
                )
                .unwrap();
                sc.push(
                    format!(
                        "{} web httpd 8 8 SEND 10.0.0.1:80-192.168.0.7:6000 64",
                        t + 500
                    )
                    .parse()
                    .unwrap(),
                )
                .unwrap();
                early += sc
                    .poll()
                    .unwrap()
                    .iter()
                    .filter(|c| c.vertices[0].ctx.tid == 7)
                    .count();
            }
            let out = sc.finish().unwrap();
            (early, out.metrics.engine.forced_seals)
        };
        let (early_unbounded, forced_unbounded) = run(None);
        assert_eq!(early_unbounded, 0, "idle ctx must hold its CAG");
        assert_eq!(forced_unbounded, 0);
        let (early_bounded, forced_bounded) = run(Some(16));
        assert_eq!(early_bounded, 1, "lag bound must emit within the SLO");
        assert!(forced_bounded >= 1);
    }

    #[test]
    fn periodic_context_gc_runs_without_memory_budget() {
        // Endless churn: one reused web thread (whose next BEGIN seals
        // the previous CAG) and a fresh backend thread per request.
        // Once a CAG streams out, the backend thread's cmap entry is
        // dead; without a budget, the periodic GC must reclaim them.
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()],
        );
        let mut cfg = CorrelatorConfig::new(access);
        cfg.mem_sample_every = 16;
        let mut sc = StreamingCorrelator::new(cfg).unwrap();
        for i in 0..4_000u64 {
            let t0 = i * 1_000_000;
            let port = 5_000 + (i % 50_000);
            let tid = 100 + i;
            for line in [
                format!("{t0} web httpd 7 7 RECEIVE 192.168.0.9:{port}-10.0.0.1:80 100"),
                format!(
                    "{} web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:9000 64",
                    t0 + 100
                ),
                format!(
                    "{} app java 9 {tid} RECEIVE 10.0.0.1:4001-10.0.0.2:9000 64",
                    t0 + 200
                ),
                format!(
                    "{} app java 9 {tid} SEND 10.0.0.2:9000-10.0.0.1:4001 32",
                    t0 + 300
                ),
                format!(
                    "{} web httpd 7 7 RECEIVE 10.0.0.2:9000-10.0.0.1:4001 32",
                    t0 + 400
                ),
                format!(
                    "{} web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:{port} 200",
                    t0 + 500
                ),
            ] {
                sc.push(line.parse().unwrap()).unwrap();
            }
            let _ = sc.poll().unwrap();
        }
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.cags_finished, 4_000);
        assert!(
            out.metrics.engine.pruned_contexts > 0,
            "periodic GC must reclaim dead contexts: {:?}",
            out.metrics.engine
        );
    }

    #[test]
    fn metrics_wall_time_is_measured() {
        let records = parse_log(three_tier_log()).unwrap();
        let out = batch(CorrelatorConfig::new(access()), records).unwrap();
        // Wall time is nonzero-ish; just check the field is plumbed.
        assert!(out.metrics.wall.as_nanos() > 0);
    }
}
