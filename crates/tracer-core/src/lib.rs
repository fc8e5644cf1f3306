//! # tracer-core — the PreciseTracer correlation engine
//!
//! This crate implements the primary contribution of *"Precise Request
//! Tracing and Performance Debugging for Multi-tier Services of Black
//! Boxes"* (Zhang et al., DSN 2009): a **precise** (non-probabilistic)
//! request tracing algorithm for multi-tier services treated as black
//! boxes, together with the **component activity graph (CAG)**
//! abstraction used for end-to-end performance debugging.
//!
//! The tracer consumes only *application-independent* knowledge — local
//! timestamps, end-to-end TCP channels and process/thread contexts — as
//! produced by a kernel-level probe (the paper's `TCP_TRACE` SystemTap
//! module). Records in the exact `TCP_TRACE` text format are parsed by
//! [`raw::RawRecord`]; a byte-accurate simulated probe lives in the
//! companion `multitier` crate.
//!
//! Unix only: the spill tier and the distributed transport use
//! `std::os::unix` (positional file I/O, socketpairs).
//!
//! ## Pipeline
//!
//! ```text
//! Source ─→ ingest (range dedup) ─→ access::Classifier ─→ filter::FilterSet ─→ Ranker ─→ Engine ─→ CAGs
//!            (v2 seq= arithmetic)   (§3.1 transformation) (noise attr filters)  (§4.1)     (§4.2)   (§3.2)
//! ```
//!
//! The public entry point is [`pipeline::Pipeline`]: one
//! [`pipeline::PipelineConfig`] (correlation knobs + a
//! [`pipeline::Mode`]: batch, streaming or sharded) and one
//! [`pipeline::Source`] (owned records, zero-copy text, a text log
//! path, or a [`binfmt`] PTBIN binary path), run through a single
//! `builder → run(source)` path. The legacy `Correlator` /
//! `StreamingCorrelator` / `ShardedCorrelator` shims have been
//! removed; the same engines now run only behind the pipeline facade.
//!
//! * [`ranker::Ranker`] — per-node queues sorted by local clocks, a
//!   sliding time window, candidate selection Rules 1 & 2 with the
//!   `BEGIN < SEND < END < RECEIVE` priority, `is_noise` discarding and
//!   concurrency-disturbance head swapping (§4.1, §4.3).
//! * [`engine::Engine`] — CAG construction with the `mmap`/`cmap` index
//!   maps, n-to-n SEND/RECEIVE segment merging by message size, and the
//!   thread-reuse same-CAG check (§4.2, Fig. 3/4).
//! * [`pattern`] — isomorphism classes of CAGs (causal path patterns) and
//!   averaged causal paths (§3.2).
//! * [`analysis`] — latency percentages of components and differential
//!   diagnosis, the quantities plotted in Figs. 15 and 17.
//!
//! ## Quick example
//!
//! ```
//! use tracer_core::prelude::*;
//!
//! # fn main() -> Result<(), TraceError> {
//! // Two nodes: a front end (10.0.0.1:80) and a backend (10.0.0.2:9000).
//! let log = "\
//! 1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120
//! 2000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:9000 64
//! 2500 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:9000 64
//! 4000 app java 9 21 SEND 10.0.0.2:9000-10.0.0.1:4001 256
//! 4400 web httpd 7 7 RECEIVE 10.0.0.2:9000-10.0.0.1:4001 256
//! 5000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512
//! ";
//! let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap(),
//!                                          "10.0.0.2".parse().unwrap()]);
//! let output = Pipeline::new(PipelineConfig::new(access))?.run(Source::text(log))?;
//! assert_eq!(output.cags.len(), 1);
//! assert_eq!(output.cags[0].vertices.len(), 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod activity;
pub mod analysis;
pub mod binfmt;
pub mod cag;
pub mod correlator;
pub mod dist;
pub mod dot;
pub mod engine;
pub mod error;
pub mod fasthash;
pub mod filter;
pub mod ingest;
pub mod intern;
pub mod metrics;
pub mod pattern;
pub mod pipeline;
pub mod ranker;
pub mod raw;
pub mod serve;
pub mod shard;
pub mod spill;

pub use access::AccessPointSpec;
pub use activity::{Activity, ActivityType, Channel, ContextId, EndpointV4, LocalTime, Nanos};
pub use analysis::{BreakdownReport, Diagnosis, DiffReport, SuspectKind};
pub use cag::{Cag, Component, EdgeKind, Vertex};
pub use correlator::{
    CorrelationOutput, CorrelatorConfig, EngineOptions, RankerOptions, WindowPolicy,
};
pub use dist::{serve_router, RouterTransport, MAX_ROUTERS};
pub use engine::Engine;
pub use error::TraceError;
pub use filter::{FilterRule, FilterSet};
pub use ingest::parse_refs_parallel;
pub use intern::Interner;
pub use metrics::CorrelatorMetrics;
pub use pattern::{AveragePath, PatternAggregator, PatternKey};
pub use pipeline::{Mode, Pipeline, PipelineConfig, PipelineSession, Source};
pub use ranker::Ranker;
pub use raw::{
    dedup_retransmissions, parse_log, parse_log_iter, RangeDedup, RawOp, RawRecord, RawRecordRef,
};
pub use serve::{
    ServeConfig, ServeKpi, ServeReport, ServeSink, Server, ShedPolicy, SourceKind, SourceReport,
    SourceSpec,
};
pub use spill::{sweep_process_spill_files, SpillFile, SpillFileStats, SPILL_FILE_PREFIX};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::access::AccessPointSpec;
    pub use crate::activity::{
        Activity, ActivityType, Channel, ContextId, EndpointV4, LocalTime, Nanos,
    };
    pub use crate::analysis::{BreakdownReport, Diagnosis, DiffReport, SuspectKind};
    pub use crate::cag::{Cag, Component, EdgeKind, Vertex};
    pub use crate::correlator::{
        CorrelationOutput, CorrelatorConfig, EngineOptions, RankerOptions, WindowPolicy,
    };
    pub use crate::dist::{serve_router, RouterTransport};
    pub use crate::error::TraceError;
    pub use crate::filter::{FilterRule, FilterSet};
    pub use crate::ingest::parse_refs_parallel;
    pub use crate::intern::Interner;
    pub use crate::metrics::CorrelatorMetrics;
    pub use crate::pattern::{AveragePath, PatternAggregator, PatternKey};
    pub use crate::pipeline::{Mode, Pipeline, PipelineConfig, PipelineSession, Source};
    pub use crate::raw::{
        dedup_retransmissions, parse_log, parse_log_iter, RangeDedup, RawOp, RawRecord,
        RawRecordRef,
    };
    pub use crate::serve::{
        ServeConfig, ServeKpi, ServeReport, ServeSink, Server, ShedPolicy, SourceKind,
        SourceReport, SourceSpec,
    };
}
