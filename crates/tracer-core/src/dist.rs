//! Multi-process distributed correlation: the routed front-end over
//! router peers on sockets.
//!
//! [`Mode::Sharded`](crate::pipeline::Mode::Sharded) scales correlation
//! to one machine's cores; this module scales it past one process. The
//! topology mirrors the follow-up paper's distributed tracer (Sang et
//! al., arXiv:1007.4057) and MiSeRTrace's per-node collectors:
//!
//! ```text
//!  coordinator process                router processes (N peers)
//!  ───────────────────                ───────────────────────────
//!  parse → dedup → classify           ┌ router 0: worker 0..W ┐
//!  → filter → SessionRouter ──claims──┤ router 1: worker 0..W ├──outputs──→ canonical
//!  (the ONE sequential reader)        └ router N-1: …         ┘            merge
//! ```
//!
//! * The **coordinator** is the sharded pipeline's own front-end
//!   (`shard::RoutedCorrelator`) with a different `ShardSink`: the
//!   sequential session router assigns every activity to one of
//!   `routers × workers_per_router` **global shards**, and where the
//!   thread sink hands a full batch to a channel, the `Cluster` sink
//!   writes it as a Claim frame — the session-assignment *claims* are
//!   what travels on the wire, never raw unrouted records, and they
//!   leave as the routing pass produces them.
//! * Each **router peer** (a spawned child process, a TCP-connected
//!   remote `pt router --listen`, or an in-process thread) hosts a
//!   `WorkerBlock` of `workers_per_router` shard workers — the very
//!   sink `Mode::Sharded` runs — and feeds it the claim batches.
//! * At end of input the cluster collects every worker's
//!   [`CorrelationOutput`] in global shard order for the front-end's
//!   canonical merge (sort by CAG root, renumber) — so cluster output
//!   is **byte-identical** to single-process `Mode::Sharded` with the
//!   same total shard count, on every corpus and over every transport.
//!
//! ## Wire protocol (PTDC v2)
//!
//! Length-prefixed binary frames in PTBIN style (little-endian,
//! length-prefixed strings, incremental interning):
//!
//! ```text
//!  frame   := type:u8 len:u32 payload[len]
//!  Hello   := magic:u32 version:u32 router:u32 workers:u32 config
//!  Claim   := worker:u32 count:u32 msg[count]     (coordinator → router)
//!  Finish  := (empty)                             (coordinator → router)
//!  Output  := worker:u32 correlation-output       (router → coordinator)
//!  Error   := message:str                         (router → coordinator)
//!  msg     := 0 act | 1 forget-ctx
//! ```
//!
//! Context strings in Claim frames use **incremental interning**: the
//! first occurrence of a hostname/program travels as
//! `u32::MAX + len + bytes` and enters both sides' tables; every later
//! occurrence is a 4-byte table id. The per-connection tables make the
//! steady-state claim cost independent of string length, like PTBIN's
//! string table but built online.
//!
//! ## Supervision
//!
//! A router peer that dies mid-run surfaces as one clear
//! [`TraceError::Router`] carrying the exit status and stderr tail —
//! never a hang: writes to a half-closed socket fail with broken-pipe
//! (Rust ignores `SIGPIPE`), reads see EOF. Spawned children are
//! killed and reaped, and per-router spill directories removed, when
//! the cluster drops — after the drain, or on any error before it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use crate::correlator::{CorrelationOutput, CorrelatorConfig};
use crate::error::TraceError;
use crate::shard::{
    worker_config, RoutedCorrelator, ShardMsg, ShardSink, WorkerBlock, BATCH_RECORDS, MAX_SHARDS,
};

/// Bounded in-process duplex pipe capacity, in write chunks.
const PIPE_CHUNKS: usize = 64;

/// Hard cap on router peers: each is a process (or thread) plus a
/// frame connection, and the coordinator's single reader cannot feed
/// more anyway.
pub const MAX_ROUTERS: usize = 64;

/// How much of a child router's stderr is retained for the error
/// message when it fails.
const STDERR_TAIL: usize = 4096;

/// How the coordinator reaches its router peers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RouterTransport {
    /// Router peers run as background threads inside this process,
    /// connected over in-memory duplex pipes that carry the full wire
    /// protocol. The default: no deployment needed, still exercises
    /// every encode/decode path.
    #[default]
    InProcess,
    /// Spawn `exe router --stdio` child processes, connected over a
    /// Unix socketpair bridged to the child's stdin/stdout (plain
    /// pipes on non-Unix platforms).
    Spawn {
        /// Router executable, typically `std::env::current_exe()`.
        exe: PathBuf,
    },
    /// Connect over TCP to already-running `pt router --listen`
    /// processes. One address per router, `host:port`.
    Connect {
        /// Router addresses, in router-index order.
        addrs: Vec<String>,
    },
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

pub(crate) mod wire {
    use super::*;
    use crate::activity::{Activity, ContextId, LocalTime};
    use crate::cag::Cag;
    use crate::engine::{EngineCounters, EngineOptions};
    use crate::metrics::CorrelatorMetrics;
    use crate::ranker::{RankerCounters, RankerOptions, WindowPolicy};
    use crate::spill::codec::{get_channel, put_channel, put_str, put_u32, put_u64, put_u8, Dec};
    use crate::spill::{decode_cag_from, encode_cag};

    pub const MAGIC: u32 = 0x5054_4443; // "PTDC"
    pub const VERSION: u32 = 2;

    pub const FRAME_HELLO: u8 = 1;
    pub const FRAME_CLAIM: u8 = 2;
    pub const FRAME_FINISH: u8 = 3;
    pub const FRAME_OUTPUT: u8 = 4;
    pub const FRAME_ERROR: u8 = 5;

    /// Sanity bound on incoming frame length (a corrupt header must
    /// not trigger a multi-gigabyte allocation).
    const MAX_FRAME: u32 = 1 << 30;

    /// Buffered frame writer: payload is built in a reusable scratch
    /// buffer, then shipped as `type + len + payload`.
    pub struct FrameWriter<W: Write> {
        w: W,
        buf: Vec<u8>,
    }

    impl<W: Write> FrameWriter<W> {
        pub fn new(w: W) -> Self {
            FrameWriter { w, buf: Vec::new() }
        }

        pub fn send(&mut self, ty: u8, build: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
            self.buf.clear();
            build(&mut self.buf);
            let mut head = [0u8; 5];
            head[0] = ty;
            head[1..5].copy_from_slice(&(self.buf.len() as u32).to_le_bytes());
            self.w.write_all(&head)?;
            self.w.write_all(&self.buf)
        }

        pub fn flush(&mut self) -> io::Result<()> {
            self.w.flush()
        }
    }

    /// Reads one frame into `buf`, returning its type. `Ok(None)` is a
    /// clean EOF (peer closed between frames); EOF inside a frame is an
    /// error.
    pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<u8>> {
        let mut head = [0u8; 5];
        let mut filled = 0;
        while filled < head.len() {
            match r.read(&mut head[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let ty = head[0];
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds protocol bound"),
            ));
        }
        buf.resize(len as usize, 0);
        r.read_exact(buf)?;
        Ok(Some(ty))
    }

    /// Sentinel marking a string's first occurrence (inline bytes
    /// follow; both sides append it to their table).
    const STR_NEW: u32 = u32::MAX;

    /// Sender side of the incremental string table.
    #[derive(Default)]
    pub struct StrEnc {
        ids: HashMap<Arc<str>, u32>,
    }

    impl StrEnc {
        pub fn put(&mut self, buf: &mut Vec<u8>, s: &Arc<str>) {
            if let Some(&id) = self.ids.get(s) {
                put_u32(buf, id);
            } else {
                let id = self.ids.len() as u32;
                debug_assert!(id < STR_NEW);
                self.ids.insert(Arc::clone(s), id);
                put_u32(buf, STR_NEW);
                put_str(buf, s);
            }
        }
    }

    /// Receiver side of the incremental string table.
    #[derive(Default)]
    pub struct StrDec {
        table: Vec<Arc<str>>,
    }

    impl StrDec {
        pub fn get(&mut self, d: &mut Dec<'_>) -> io::Result<Arc<str>> {
            let id = d.u32();
            if id == STR_NEW {
                let s: Arc<str> = Arc::from(d.str());
                self.table.push(Arc::clone(&s));
                Ok(s)
            } else {
                self.table.get(id as usize).cloned().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("claim references unknown string id {id}"),
                    )
                })
            }
        }
    }

    fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
        match v {
            Some(v) => {
                put_u8(buf, 1);
                put_u64(buf, v);
            }
            None => put_u8(buf, 0),
        }
    }

    fn get_opt_u64(d: &mut Dec<'_>) -> Option<u64> {
        (d.u8() != 0).then(|| d.u64())
    }

    fn put_ctx(buf: &mut Vec<u8>, enc: &mut StrEnc, ctx: &ContextId) {
        enc.put(buf, &ctx.hostname);
        enc.put(buf, &ctx.program);
        put_u32(buf, ctx.pid);
        put_u32(buf, ctx.tid);
    }

    fn get_ctx(d: &mut Dec<'_>, dec: &mut StrDec) -> io::Result<ContextId> {
        let hostname = dec.get(d)?;
        let program = dec.get(d)?;
        let pid = d.u32();
        let tid = d.u32();
        Ok(ContextId {
            hostname,
            program,
            pid,
            tid,
        })
    }

    fn put_act(buf: &mut Vec<u8>, enc: &mut StrEnc, a: &Activity) {
        put_u8(buf, crate::spill::activity_type_code(a.ty));
        put_u64(buf, a.ts.0);
        put_ctx(buf, enc, &a.ctx);
        put_channel(buf, a.channel);
        put_u64(buf, a.size);
        put_u64(buf, a.tag);
        put_opt_u64(buf, a.seq);
    }

    fn get_act(d: &mut Dec<'_>, dec: &mut StrDec) -> io::Result<Activity> {
        let ty = crate::spill::activity_type_from_code(d.u8());
        let ts = LocalTime(d.u64());
        let ctx = get_ctx(d, dec)?;
        let channel = get_channel(d);
        let size = d.u64();
        let tag = d.u64();
        let seq = get_opt_u64(d);
        Ok(Activity {
            ty,
            ts,
            ctx,
            channel,
            size,
            tag,
            seq,
        })
    }

    pub fn put_msg(buf: &mut Vec<u8>, enc: &mut StrEnc, msg: &ShardMsg) {
        match msg {
            ShardMsg::Act(a) => {
                put_u8(buf, 0);
                put_act(buf, enc, a);
            }
            ShardMsg::ForgetCtx(ctx) => {
                put_u8(buf, 1);
                put_ctx(buf, enc, ctx);
            }
        }
    }

    pub fn get_msg(d: &mut Dec<'_>, dec: &mut StrDec) -> io::Result<ShardMsg> {
        match d.u8() {
            0 => Ok(ShardMsg::Act(get_act(d, dec)?)),
            1 => Ok(ShardMsg::ForgetCtx(get_ctx(d, dec)?)),
            c => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown claim message code {c}"),
            )),
        }
    }

    /// Noise-sample activities travel plain (low volume, own frame).
    fn put_act_plain(buf: &mut Vec<u8>, a: &Activity) {
        put_u8(buf, crate::spill::activity_type_code(a.ty));
        put_u64(buf, a.ts.0);
        put_str(buf, &a.ctx.hostname);
        put_str(buf, &a.ctx.program);
        put_u32(buf, a.ctx.pid);
        put_u32(buf, a.ctx.tid);
        put_channel(buf, a.channel);
        put_u64(buf, a.size);
        put_u64(buf, a.tag);
        put_opt_u64(buf, a.seq);
    }

    fn get_act_plain(d: &mut Dec<'_>) -> Activity {
        let ty = crate::spill::activity_type_from_code(d.u8());
        let ts = LocalTime(d.u64());
        let hostname = d.str().to_owned();
        let program = d.str().to_owned();
        let pid = d.u32();
        let tid = d.u32();
        Activity {
            ty,
            ts,
            ctx: ContextId::new(hostname, program, pid, tid),
            channel: get_channel(d),
            size: d.u64(),
            tag: d.u64(),
            seq: get_opt_u64(d),
        }
    }

    /// Serializes the per-worker correlator config for the Hello
    /// frame. Exhaustive destructuring everywhere in this module: a
    /// new config or counter field fails compilation here instead of
    /// silently diverging between coordinator and router.
    pub fn put_config(buf: &mut Vec<u8>, cfg: &CorrelatorConfig) {
        let CorrelatorConfig {
            access,
            filters: _, // workers receive pre-filtered activities
            ranker,
            engine,
            mem_sample_every,
            memory_budget,
            spill_dir,
            max_seal_lag,
            channel_idle_horizon,
            lane_settle_depth,
        } = cfg;
        let ports: Vec<u16> = access.frontend_ports().collect();
        put_u32(buf, ports.len() as u32);
        for p in ports {
            put_u32(buf, u32::from(p));
        }
        let ips: Vec<std::net::Ipv4Addr> = access.internal_ips().collect();
        put_u32(buf, ips.len() as u32);
        for ip in ips {
            put_u32(buf, u32::from(ip));
        }
        let RankerOptions {
            window,
            window_policy,
            swap,
            fetch_boost,
            noise_discard,
        } = ranker;
        put_u64(buf, window.0);
        match *window_policy {
            WindowPolicy::Static => put_u8(buf, 0),
            WindowPolicy::Adaptive { slack, min, max } => {
                put_u8(buf, 1);
                put_u32(buf, slack);
                put_u64(buf, min.0);
                put_u64(buf, max.0);
            }
        }
        put_u8(buf, *swap as u8);
        put_u32(buf, *fetch_boost);
        put_u8(buf, *noise_discard as u8);
        let EngineOptions {
            merge_segments,
            thread_reuse_check,
            amend_finished,
            pending_cap,
            orphan_cap,
            unfinished_cap,
        } = engine;
        put_u8(buf, *merge_segments as u8);
        put_u8(buf, *thread_reuse_check as u8);
        put_u8(buf, *amend_finished as u8);
        put_u64(buf, *pending_cap as u64);
        put_u64(buf, *orphan_cap as u64);
        put_u64(buf, *unfinished_cap as u64);
        put_u64(buf, *mem_sample_every);
        put_opt_u64(buf, memory_budget.map(|v| v as u64));
        match spill_dir {
            Some(p) => {
                put_u8(buf, 1);
                put_str(buf, &p.to_string_lossy());
            }
            None => put_u8(buf, 0),
        }
        put_opt_u64(buf, *max_seal_lag);
        put_opt_u64(buf, *channel_idle_horizon);
        put_opt_u64(buf, *lane_settle_depth);
    }

    pub fn get_config(d: &mut Dec<'_>) -> CorrelatorConfig {
        use crate::access::AccessPointSpec;
        use crate::activity::Nanos;
        let n_ports = d.u32() as usize;
        let ports: Vec<u16> = (0..n_ports).map(|_| d.u32() as u16).collect();
        let n_ips = d.u32() as usize;
        let ips: Vec<std::net::Ipv4Addr> = (0..n_ips)
            .map(|_| std::net::Ipv4Addr::from(d.u32()))
            .collect();
        let mut cfg = CorrelatorConfig::new(AccessPointSpec::new(ports, ips));
        cfg.ranker.window = Nanos(d.u64());
        cfg.ranker.window_policy = match d.u8() {
            0 => WindowPolicy::Static,
            _ => WindowPolicy::Adaptive {
                slack: d.u32(),
                min: Nanos(d.u64()),
                max: Nanos(d.u64()),
            },
        };
        cfg.ranker.swap = d.u8() != 0;
        cfg.ranker.fetch_boost = d.u32();
        cfg.ranker.noise_discard = d.u8() != 0;
        cfg.engine.merge_segments = d.u8() != 0;
        cfg.engine.thread_reuse_check = d.u8() != 0;
        cfg.engine.amend_finished = d.u8() != 0;
        cfg.engine.pending_cap = d.u64() as usize;
        cfg.engine.orphan_cap = d.u64() as usize;
        cfg.engine.unfinished_cap = d.u64() as usize;
        cfg.mem_sample_every = d.u64();
        cfg.memory_budget = get_opt_u64(d).map(|v| v as usize);
        cfg.spill_dir = (d.u8() != 0).then(|| PathBuf::from(d.str()));
        cfg.max_seal_lag = get_opt_u64(d);
        cfg.channel_idle_horizon = get_opt_u64(d);
        cfg.lane_settle_depth = get_opt_u64(d);
        cfg
    }

    fn put_ranker_counters(buf: &mut Vec<u8>, c: &RankerCounters) {
        let RankerCounters {
            enqueued,
            candidates,
            rule1,
            rule2,
            swaps,
            fetch_boosts,
            noise_discards,
            aged_settles,
            forced_deliveries,
            peak_buffered,
            rtt_samples,
            window_updates,
            window_clamps,
            adaptive_window_ns,
        } = c;
        for v in [
            *enqueued,
            *candidates,
            *rule1,
            *rule2,
            *swaps,
            *fetch_boosts,
            *noise_discards,
            *aged_settles,
            *forced_deliveries,
            *peak_buffered as u64,
            *rtt_samples,
            *window_updates,
            *window_clamps,
            *adaptive_window_ns,
        ] {
            put_u64(buf, v);
        }
    }

    fn get_ranker_counters(d: &mut Dec<'_>) -> RankerCounters {
        RankerCounters {
            enqueued: d.u64(),
            candidates: d.u64(),
            rule1: d.u64(),
            rule2: d.u64(),
            swaps: d.u64(),
            fetch_boosts: d.u64(),
            noise_discards: d.u64(),
            aged_settles: d.u64(),
            forced_deliveries: d.u64(),
            peak_buffered: d.u64() as usize,
            rtt_samples: d.u64(),
            window_updates: d.u64(),
            window_clamps: d.u64(),
            adaptive_window_ns: d.u64(),
        }
    }

    fn put_engine_counters(buf: &mut Vec<u8>, c: &EngineCounters) {
        let EngineCounters {
            delivered,
            cags_opened,
            cags_finished,
            send_merges,
            begin_merges,
            end_amends,
            partial_receives,
            unmatched_receives,
            cross_message_receives,
            unmatched_ends,
            reuse_suppressed_edges,
            orphan_vertices,
            evicted_pendings,
            evicted_orphans,
            abandoned_cags,
            pruned_contexts,
            forced_seals,
            gap_retired_pendings,
            spilled_cags,
            spilled_orphans,
            spill_faults,
            spilled_bytes,
        } = c;
        for v in [
            *delivered,
            *cags_opened,
            *cags_finished,
            *send_merges,
            *begin_merges,
            *end_amends,
            *partial_receives,
            *unmatched_receives,
            *cross_message_receives,
            *unmatched_ends,
            *reuse_suppressed_edges,
            *orphan_vertices,
            *evicted_pendings,
            *evicted_orphans,
            *abandoned_cags,
            *pruned_contexts,
            *forced_seals,
            *gap_retired_pendings,
            *spilled_cags,
            *spilled_orphans,
            *spill_faults,
            *spilled_bytes,
        ] {
            put_u64(buf, v);
        }
    }

    fn get_engine_counters(d: &mut Dec<'_>) -> EngineCounters {
        EngineCounters {
            delivered: d.u64(),
            cags_opened: d.u64(),
            cags_finished: d.u64(),
            send_merges: d.u64(),
            begin_merges: d.u64(),
            end_amends: d.u64(),
            partial_receives: d.u64(),
            unmatched_receives: d.u64(),
            cross_message_receives: d.u64(),
            unmatched_ends: d.u64(),
            reuse_suppressed_edges: d.u64(),
            orphan_vertices: d.u64(),
            evicted_pendings: d.u64(),
            evicted_orphans: d.u64(),
            abandoned_cags: d.u64(),
            pruned_contexts: d.u64(),
            forced_seals: d.u64(),
            gap_retired_pendings: d.u64(),
            spilled_cags: d.u64(),
            spilled_orphans: d.u64(),
            spill_faults: d.u64(),
            spilled_bytes: d.u64(),
        }
    }

    fn put_metrics(buf: &mut Vec<u8>, m: &CorrelatorMetrics) {
        let CorrelatorMetrics {
            records_in,
            filtered_out,
            retrans_dropped,
            seq_dedup_ranges,
            v2_records,
            seq_gaps,
            orphan_dropped,
            ranker,
            engine,
            cags_finished,
            cags_unfinished,
            spilled_dedup_entries,
            spill_dedup_faults,
            spill_pages_written,
            spill_pages_read,
            spill_queue_hits,
            peak_bytes,
            final_bytes,
            wall,
        } = m;
        for v in [
            *records_in,
            *filtered_out,
            *retrans_dropped,
            *seq_dedup_ranges,
            *v2_records,
            *seq_gaps,
            *orphan_dropped,
            *cags_finished,
            *cags_unfinished,
            *spilled_dedup_entries,
            *spill_dedup_faults,
            *spill_pages_written,
            *spill_pages_read,
            *spill_queue_hits,
            *peak_bytes as u64,
            *final_bytes as u64,
            wall.as_nanos() as u64,
        ] {
            put_u64(buf, v);
        }
        put_ranker_counters(buf, ranker);
        put_engine_counters(buf, engine);
    }

    fn get_metrics(d: &mut Dec<'_>) -> CorrelatorMetrics {
        let mut m = CorrelatorMetrics {
            records_in: d.u64(),
            filtered_out: d.u64(),
            retrans_dropped: d.u64(),
            seq_dedup_ranges: d.u64(),
            v2_records: d.u64(),
            seq_gaps: d.u64(),
            orphan_dropped: d.u64(),
            cags_finished: d.u64(),
            cags_unfinished: d.u64(),
            spilled_dedup_entries: d.u64(),
            spill_dedup_faults: d.u64(),
            spill_pages_written: d.u64(),
            spill_pages_read: d.u64(),
            spill_queue_hits: d.u64(),
            peak_bytes: d.u64() as usize,
            final_bytes: d.u64() as usize,
            wall: std::time::Duration::from_nanos(d.u64()),
            ..CorrelatorMetrics::default()
        };
        m.ranker = get_ranker_counters(d);
        m.engine = get_engine_counters(d);
        m
    }

    fn put_cags(buf: &mut Vec<u8>, cags: &[Cag]) {
        put_u32(buf, cags.len() as u32);
        for c in cags {
            encode_cag(c, buf);
        }
    }

    fn get_cags(d: &mut Dec<'_>) -> Vec<Cag> {
        let n = d.u32() as usize;
        (0..n).map(|_| decode_cag_from(d)).collect()
    }

    pub fn put_output(buf: &mut Vec<u8>, worker: u32, out: &CorrelationOutput) {
        let CorrelationOutput {
            cags,
            unfinished,
            metrics,
            noise_samples,
        } = out;
        put_u32(buf, worker);
        put_cags(buf, cags);
        put_cags(buf, unfinished);
        put_metrics(buf, metrics);
        put_u32(buf, noise_samples.len() as u32);
        for a in noise_samples {
            put_act_plain(buf, a);
        }
    }

    pub fn get_output(d: &mut Dec<'_>) -> (u32, CorrelationOutput) {
        let worker = d.u32();
        let cags = get_cags(d);
        let unfinished = get_cags(d);
        let metrics = get_metrics(d);
        let n = d.u32() as usize;
        let noise_samples = (0..n).map(|_| get_act_plain(d)).collect();
        (
            worker,
            CorrelationOutput {
                cags,
                unfinished,
                metrics,
                noise_samples,
            },
        )
    }
}

// ---------------------------------------------------------------------
// In-process duplex pipe (the InProcess transport's "socket")
// ---------------------------------------------------------------------

/// Write half of a bounded in-memory byte pipe.
struct PipeWriter {
    tx: SyncSender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe peer hung up"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Read half of a bounded in-memory byte pipe. Sender drop is EOF.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    chunk: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.pos >= self.chunk.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = (self.chunk.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = sync_channel(PIPE_CHUNKS);
    (
        PipeWriter { tx },
        PipeReader {
            rx,
            chunk: Vec::new(),
            pos: 0,
        },
    )
}

// ---------------------------------------------------------------------
// Router peer (server side)
// ---------------------------------------------------------------------

/// Serves one coordinator connection: `Hello` configures the worker
/// block, `Claim` frames stream in, `Finish` drains, `Output` frames
/// stream back. Used by `pt router` (child process / TCP listener) and
/// by the in-process transport's threads.
///
/// # Errors
///
/// Returns a [`TraceError`] when the connection breaks or carries an
/// out-of-protocol frame; a best-effort `Error` frame is sent to the
/// coordinator first so the failure is visible on both sides.
pub fn serve_router<R: Read, W: Write>(r: R, w: W) -> Result<(), TraceError> {
    let mut fw = wire::FrameWriter::new(io::BufWriter::new(w));
    match serve_inner(r, &mut fw) {
        Ok(()) => Ok(()),
        Err(e) => {
            let msg = e.to_string();
            let _ = fw.send(wire::FRAME_ERROR, |buf| {
                crate::spill::codec::put_str(buf, &msg);
            });
            let _ = fw.flush();
            Err(e)
        }
    }
}

fn serve_inner<R: Read, W: Write>(
    r: R,
    fw: &mut wire::FrameWriter<io::BufWriter<W>>,
) -> Result<(), TraceError> {
    let mut r = io::BufReader::new(r);
    let mut buf = Vec::new();
    let proto = |reason: String| TraceError::config(format!("router protocol: {reason}"));

    // Hello: validate, build the worker block.
    let ty = wire::read_frame(&mut r, &mut buf)
        .map_err(|e| proto(format!("reading hello: {e}")))?
        .ok_or_else(|| proto("coordinator closed before hello".into()))?;
    if ty != wire::FRAME_HELLO {
        return Err(proto(format!("expected hello, got frame type {ty}")));
    }
    let mut d = crate::spill::codec::Dec::new(&buf);
    if d.u32() != wire::MAGIC {
        return Err(proto("bad magic (not a PTDC coordinator)".into()));
    }
    let version = d.u32();
    if version != wire::VERSION {
        return Err(proto(format!(
            "protocol version {version} (this router speaks {})",
            wire::VERSION
        )));
    }
    d.u32(); // the router's index: only the coordinator's errors name it
    let workers = d.u32() as usize;
    if workers == 0 || workers > MAX_SHARDS {
        return Err(proto(format!("worker count {workers} out of range")));
    }
    let cfg = wire::get_config(&mut d);
    if let Some(dir) = &cfg.spill_dir {
        std::fs::create_dir_all(dir).map_err(|e| {
            TraceError::config(format!("cannot create spill dir {}: {e}", dir.display()))
        })?;
    }

    let mut block = WorkerBlock::spawn(&cfg, workers)?;

    // Claim stream until Finish.
    let mut dec = wire::StrDec::default();
    loop {
        let ty = wire::read_frame(&mut r, &mut buf)
            .map_err(|e| proto(format!("reading claims: {e}")))?
            .ok_or_else(|| proto("coordinator hung up before finish".into()))?;
        match ty {
            wire::FRAME_CLAIM => {
                let mut d = crate::spill::codec::Dec::new(&buf);
                let worker = d.u32() as usize;
                if worker >= workers {
                    return Err(proto(format!("claim for worker {worker} of {workers}")));
                }
                let count = d.u32() as usize;
                // Every encoded message takes at least one byte: a
                // count its own frame cannot hold is a lie, and must
                // not size an allocation.
                if count > buf.len() {
                    return Err(proto(format!(
                        "claim of {count} messages in a {}-byte frame",
                        buf.len()
                    )));
                }
                let mut batch = Vec::with_capacity(count.min(BATCH_RECORDS));
                for _ in 0..count {
                    batch.push(
                        wire::get_msg(&mut d, &mut dec)
                            .map_err(|e| proto(format!("decoding claim: {e}")))?,
                    );
                }
                if !d.is_empty() {
                    return Err(proto("trailing bytes in claim frame".into()));
                }
                block.send(worker, batch)?;
            }
            wire::FRAME_FINISH => break,
            ty => return Err(proto(format!("unexpected frame type {ty} in claim stream"))),
        }
    }

    // Drain: ship outputs in local worker order (the coordinator
    // relies on it for the global shard order of the canonical merge).
    for (i, out) in block.collect()?.into_iter().enumerate() {
        fw.send(wire::FRAME_OUTPUT, |buf| {
            wire::put_output(buf, i as u32, &out);
        })
        .map_err(|e| proto(format!("writing output: {e}")))?;
    }
    fw.flush()
        .map_err(|e| proto(format!("flushing outputs: {e}")))?;
    // Drain-path backstop, exactly like serve's shutdown: our workers'
    // spill files self-delete on drop, and the sweep is pid-scoped so
    // sibling routers sharing the directory are untouched.
    if let Some(dir) = &cfg.spill_dir {
        crate::spill::sweep_process_spill_files(dir);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Captures the tail of a child router's stderr on a drainer thread
/// (bounded; prevents pipe-full deadlock and feeds the error message).
#[derive(Clone)]
struct StderrTail(Arc<Mutex<Vec<u8>>>);

impl StderrTail {
    fn capture(stderr: std::process::ChildStderr) -> Self {
        let tail = StderrTail(Arc::new(Mutex::new(Vec::new())));
        let sink = Arc::clone(&tail.0);
        std::thread::spawn(move || {
            let mut stderr = stderr;
            let mut chunk = [0u8; 1024];
            while let Ok(n) = stderr.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                let mut sink = sink.lock().expect("stderr tail lock");
                sink.extend_from_slice(&chunk[..n]);
                let excess = sink.len().saturating_sub(STDERR_TAIL);
                if excess > 0 {
                    sink.drain(..excess);
                }
            }
        });
        tail
    }

    fn get(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("stderr tail lock")).into_owned()
    }
}

enum PeerKind {
    /// In-process router thread.
    Thread(Option<std::thread::JoinHandle<Result<(), TraceError>>>),
    /// Spawned child process.
    Child {
        child: std::process::Child,
        stderr: StderrTail,
    },
    /// TCP connection to an external router.
    Tcp { addr: String },
}

struct Peer {
    writer: wire::FrameWriter<Box<dyn Write + Send>>,
    reader: io::BufReader<Box<dyn Read + Send>>,
    /// This connection's claim string table.
    enc: wire::StrEnc,
    kind: PeerKind,
    /// Set once this peer's failure has been diagnosed (avoid
    /// double-reaping in Drop).
    failed: bool,
}

impl Peer {
    /// Turns an I/O failure on this peer's connection into the single
    /// clear error: reaps a child for its exit status and stderr tail,
    /// joins a thread for its own `TraceError`.
    fn diagnose(&mut self, index: usize, io_err: &io::Error) -> TraceError {
        self.failed = true;
        match &mut self.kind {
            PeerKind::Thread(handle) => match handle.take().map(|h| h.join()) {
                Some(Ok(Err(e))) => TraceError::router(index, e.to_string()),
                Some(Err(_)) => TraceError::router(index, "router thread panicked"),
                _ => TraceError::router(index, io_err.to_string()),
            },
            PeerKind::Child { child, stderr } => {
                // The pipe broke, so the child is dead or dying; kill
                // covers the half-closed case, then reap.
                let _ = child.kill();
                let status = child.wait();
                let tail = stderr.get();
                let mut reason = match status {
                    Ok(s) => format!("router process exited with {s}"),
                    Err(e) => format!("router process unreachable ({e})"),
                };
                if !tail.trim().is_empty() {
                    reason.push_str(&format!("; stderr: {}", tail.trim()));
                } else {
                    reason.push_str(&format!(" ({io_err})"));
                }
                TraceError::router(index, reason)
            }
            PeerKind::Tcp { addr } => {
                TraceError::router(index, format!("connection to {addr} failed: {io_err}"))
            }
        }
    }
}

/// The distributed pipeline — the engine behind
/// [`Mode::Distributed`](crate::pipeline::Mode::Distributed): the
/// routed front-end over a [`Cluster`] of `routers` peers. The topology
/// must already be validated ([`crate::pipeline::PipelineConfig::validate`]).
///
/// # Errors
///
/// Returns a [`TraceError::Router`] when a peer cannot be reached.
pub(crate) fn distributed(
    config: &CorrelatorConfig,
    routers: usize,
    workers_per_router: usize,
    transport: &RouterTransport,
) -> Result<RoutedCorrelator, TraceError> {
    let wpr = workers_per_router.max(1);
    // Workers get the same budget split as Mode::Sharded(total) — a
    // precondition of byte-identical spill behavior.
    let total = routers * wpr;
    let cluster = Cluster::connect(&worker_config(config, total), routers, wpr, transport)?;
    Ok(RoutedCorrelator::new(config, total, Box::new(cluster)))
}

/// The PTDC sink: global shard `s` lives on router `s / wpr` as local
/// worker `s % wpr` (contiguous blocks), so collecting peer by peer IS
/// global shard order. Owns the peers, their string tables and the
/// per-router spill directories; dropping it — on any path, including a
/// failed [`Cluster::connect`] — kills and reaps what it started and
/// removes what it created.
struct Cluster {
    peers: Vec<Peer>,
    workers_per_router: usize,
    /// Per-router spill subdirectories this coordinator created.
    spill_dirs: Vec<PathBuf>,
}

impl Cluster {
    /// Connects `routers` peers over `transport` and sends each its
    /// Hello with `worker_cfg`.
    fn connect(
        worker_cfg: &CorrelatorConfig,
        routers: usize,
        workers_per_router: usize,
        transport: &RouterTransport,
    ) -> Result<Self, TraceError> {
        // Per-router spill namespace: router i pages into its own
        // subdirectory (named with the coordinator pid, so concurrent
        // clusters sharing --spill-dir cannot collide).
        let spill_base = worker_cfg.memory_budget.is_some().then(|| {
            worker_cfg
                .spill_dir
                .clone()
                .unwrap_or_else(std::env::temp_dir)
        });
        let mut cluster = Cluster {
            peers: Vec::with_capacity(routers),
            workers_per_router,
            spill_dirs: Vec::new(),
        };
        for i in 0..routers {
            let mut rc = worker_cfg.clone();
            if let Some(base) = &spill_base {
                let dir = base.join(format!("pt-dist-{}-r{i}", std::process::id()));
                std::fs::create_dir_all(&dir).map_err(|e| {
                    TraceError::config(format!(
                        "cannot create router spill dir {}: {e}",
                        dir.display()
                    ))
                })?;
                cluster.spill_dirs.push(dir.clone());
                rc.spill_dir = Some(dir);
            }
            cluster.peers.push(connect_peer(transport, i)?);
            let peer = &mut cluster.peers[i];
            peer.writer
                .send(wire::FRAME_HELLO, |buf| {
                    use crate::spill::codec::put_u32;
                    put_u32(buf, wire::MAGIC);
                    put_u32(buf, wire::VERSION);
                    put_u32(buf, i as u32);
                    put_u32(buf, workers_per_router as u32);
                    wire::put_config(buf, &rc);
                })
                .map_err(|e| peer.diagnose(i, &e))?;
        }
        Ok(cluster)
    }
}

impl ShardSink for Cluster {
    fn send(&mut self, shard: usize, batch: Vec<ShardMsg>) -> Result<(), TraceError> {
        let router = shard / self.workers_per_router;
        let worker = (shard % self.workers_per_router) as u32;
        let peer = &mut self.peers[router];
        let Peer { writer, enc, .. } = peer;
        writer
            .send(wire::FRAME_CLAIM, |buf| {
                use crate::spill::codec::put_u32;
                put_u32(buf, worker);
                put_u32(buf, batch.len() as u32);
                for msg in &batch {
                    wire::put_msg(buf, enc, msg);
                }
            })
            .map_err(|e| peer.diagnose(router, &e))
    }

    fn flush(&mut self) -> Result<(), TraceError> {
        for (i, peer) in self.peers.iter_mut().enumerate() {
            peer.writer.flush().map_err(|e| peer.diagnose(i, &e))?;
        }
        Ok(())
    }

    /// Sends `Finish` to every peer and collects all worker outputs in
    /// global shard order.
    fn collect(&mut self) -> Result<Vec<CorrelationOutput>, TraceError> {
        for (i, peer) in self.peers.iter_mut().enumerate() {
            let sent = peer
                .writer
                .send(wire::FRAME_FINISH, |_| {})
                .and_then(|()| peer.writer.flush());
            sent.map_err(|e| peer.diagnose(i, &e))?;
        }
        // Peer by peer, in router order; within a peer, outputs arrive
        // in local worker order.
        let mut outputs = Vec::with_capacity(self.peers.len() * self.workers_per_router);
        let mut buf = Vec::new();
        for (i, peer) in self.peers.iter_mut().enumerate() {
            for expected in 0..self.workers_per_router {
                let early = || io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed early");
                let ty = wire::read_frame(&mut peer.reader, &mut buf)
                    .and_then(|ty| ty.ok_or_else(early))
                    .map_err(|e| peer.diagnose(i, &e))?;
                match ty {
                    wire::FRAME_OUTPUT => {
                        let mut d = crate::spill::codec::Dec::new(&buf);
                        let (worker, out) = wire::get_output(&mut d);
                        if worker as usize != expected || !d.is_empty() {
                            return Err(TraceError::router(
                                i,
                                format!("malformed output frame (worker {worker})"),
                            ));
                        }
                        outputs.push(out);
                    }
                    wire::FRAME_ERROR => {
                        let mut d = crate::spill::codec::Dec::new(&buf);
                        let msg = d.str().to_owned();
                        peer.failed = true;
                        return Err(TraceError::router(i, msg));
                    }
                    ty => {
                        return Err(TraceError::router(
                            i,
                            format!("unexpected frame type {ty} in output stream"),
                        ))
                    }
                }
            }
        }
        // Reap cleanly: a spawned child should now exit zero; a
        // nonzero exit after successful outputs still fails the run
        // (its spill cleanup is unverified).
        for (i, peer) in self.peers.iter_mut().enumerate() {
            if let PeerKind::Child { child, stderr } = &mut peer.kind {
                peer.failed = true; // reaped here either way
                match child.wait() {
                    Ok(s) if s.success() => {}
                    Ok(s) => {
                        let tail = stderr.get();
                        return Err(TraceError::router(
                            i,
                            format!("router process exited with {s}; stderr: {}", tail.trim()),
                        ));
                    }
                    Err(e) => {
                        return Err(TraceError::router(i, format!("cannot reap router: {e}")))
                    }
                }
            }
            if let PeerKind::Thread(handle) = &mut peer.kind {
                match handle.take().map(|h| h.join()) {
                    Some(Ok(Ok(()))) | None => {}
                    Some(Ok(Err(e))) => return Err(TraceError::router(i, e.to_string())),
                    Some(Err(_)) => return Err(TraceError::router(i, "router thread panicked")),
                }
            }
        }
        Ok(outputs)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Hang up, kill and reap abandoned peers so nothing blocks or
        // leaks; then remove the per-router spill namespaces.
        for peer in &mut self.peers {
            let _ = peer.writer.flush();
        }
        for peer in self.peers.drain(..) {
            let Peer {
                writer,
                reader,
                kind,
                failed,
                ..
            } = peer;
            drop(writer);
            drop(reader);
            match kind {
                PeerKind::Thread(Some(handle)) => {
                    let _ = handle.join();
                }
                PeerKind::Thread(None) => {}
                PeerKind::Child { mut child, .. } => {
                    if !failed {
                        let _ = child.kill();
                    }
                    let _ = child.wait();
                }
                PeerKind::Tcp { .. } => {}
            }
        }
        for dir in self.spill_dirs.drain(..) {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Establishes one peer connection for the given transport.
fn connect_peer(transport: &RouterTransport, index: usize) -> Result<Peer, TraceError> {
    match transport {
        RouterTransport::InProcess => {
            let (coord_w, router_r) = pipe();
            let (router_w, coord_r) = pipe();
            let handle = std::thread::spawn(move || serve_router(router_r, router_w));
            Ok(Peer {
                writer: wire::FrameWriter::new(Box::new(coord_w)),
                reader: io::BufReader::new(Box::new(coord_r) as Box<dyn Read + Send>),
                enc: wire::StrEnc::default(),
                kind: PeerKind::Thread(Some(handle)),
                failed: false,
            })
        }
        RouterTransport::Spawn { exe } => spawn_child_peer(exe, index),
        RouterTransport::Connect { addrs } => {
            let addr = &addrs[index];
            let stream = std::net::TcpStream::connect(addr)
                .map_err(|e| TraceError::router(index, format!("cannot connect to {addr}: {e}")))?;
            let _ = stream.set_nodelay(true);
            let read_half = stream.try_clone().map_err(|e| {
                TraceError::router(index, format!("cannot clone socket to {addr}: {e}"))
            })?;
            Ok(Peer {
                writer: wire::FrameWriter::new(Box::new(io::BufWriter::new(stream))),
                reader: io::BufReader::new(Box::new(read_half) as Box<dyn Read + Send>),
                enc: wire::StrEnc::default(),
                kind: PeerKind::Tcp { addr: addr.clone() },
                failed: false,
            })
        }
    }
}

/// Spawns `exe router --stdio` bridged over a Unix socketpair: both
/// the child's stdin and stdout are ends of the same bidirectional
/// socket, so the child talks the protocol through plain
/// `stdin()`/`stdout()` without any fd juggling.
#[cfg(unix)]
fn spawn_child_peer(exe: &std::path::Path, index: usize) -> Result<Peer, TraceError> {
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    let err = |what: &str, e: io::Error| TraceError::router(index, format!("{what}: {e}"));
    let (mine, theirs) = UnixStream::pair().map_err(|e| err("cannot create socketpair", e))?;
    let theirs_out = theirs
        .try_clone()
        .map_err(|e| err("cannot clone socketpair", e))?;
    let mut child = std::process::Command::new(exe)
        .args(["router", "--stdio"])
        .stdin(std::process::Stdio::from(OwnedFd::from(theirs)))
        .stdout(std::process::Stdio::from(OwnedFd::from(theirs_out)))
        .stderr(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| err(&format!("cannot spawn {}", exe.display()), e))?;
    let stderr = StderrTail::capture(child.stderr.take().expect("piped stderr"));
    let read_half = mine
        .try_clone()
        .map_err(|e| err("cannot clone socketpair", e))?;
    Ok(Peer {
        writer: wire::FrameWriter::new(Box::new(io::BufWriter::new(mine))),
        reader: io::BufReader::new(Box::new(read_half) as Box<dyn Read + Send>),
        enc: wire::StrEnc::default(),
        kind: PeerKind::Child { child, stderr },
        failed: false,
    })
}

/// Non-Unix fallback: plain stdin/stdout pipes (same wire protocol,
/// two unidirectional pipes instead of one socketpair).
#[cfg(not(unix))]
fn spawn_child_peer(exe: &std::path::Path, index: usize) -> Result<Peer, TraceError> {
    let err = |what: &str, e: io::Error| TraceError::router(index, format!("{what}: {e}"));
    let mut child = std::process::Command::new(exe)
        .args(["router", "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| err(&format!("cannot spawn {}", exe.display()), e))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = StderrTail::capture(child.stderr.take().expect("piped stderr"));
    Ok(Peer {
        writer: wire::FrameWriter::new(Box::new(io::BufWriter::new(stdin))),
        reader: io::BufReader::new(Box::new(stdout) as Box<dyn Read + Send>),
        enc: wire::StrEnc::default(),
        kind: PeerKind::Child { child, stderr },
        failed: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Activity, ActivityType, Channel, ContextId, LocalTime, Nanos};
    use crate::pipeline::{Mode, Pipeline, PipelineConfig, Source};
    use crate::shard::tests::{access, cluster_log, sharded};

    fn render(out: &CorrelationOutput) -> String {
        // Wall time is the one legitimately nondeterministic metric.
        let mut m = out.metrics.clone();
        m.wall = std::time::Duration::ZERO;
        format!("{:?}|{:?}|{m:?}", out.cags, out.unfinished)
    }

    /// A whole-log run of the distributed pipeline.
    fn correlate_text(
        cfg: CorrelatorConfig,
        routers: usize,
        workers_per_router: usize,
        transport: &RouterTransport,
        text: &str,
    ) -> CorrelationOutput {
        let mode = Mode::Distributed {
            routers,
            workers_per_router,
        };
        let cfg = PipelineConfig::from(cfg).with_mode(mode);
        Pipeline::new(cfg.with_router_transport(transport.clone()))
            .unwrap()
            .run(Source::text(text))
            .unwrap()
    }

    fn sharded_reference(shards: usize, text: &str) -> String {
        let cfg = CorrelatorConfig::new(access());
        render(&sharded(cfg, shards, Source::text(text)))
    }

    #[test]
    fn in_process_cluster_matches_sharded_bytes() {
        let log = cluster_log(6);
        for (routers, wpr) in [(1, 1), (1, 4), (2, 2), (4, 1), (3, 2)] {
            let cfg = CorrelatorConfig::new(access());
            let out = correlate_text(cfg, routers, wpr, &RouterTransport::InProcess, &log);
            assert_eq!(
                render(&out),
                sharded_reference(routers * wpr, &log),
                "routers={routers} wpr={wpr}"
            );
        }
    }

    #[test]
    fn tcp_cluster_matches_sharded_bytes() {
        let log = cluster_log(5);
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(l.local_addr().unwrap().to_string());
            handles.push(std::thread::spawn(move || {
                let (stream, _) = l.accept().unwrap();
                let r = stream.try_clone().unwrap();
                serve_router(r, stream)
            }));
        }
        let cfg = CorrelatorConfig::new(access());
        let out = correlate_text(cfg, 2, 2, &RouterTransport::Connect { addrs }, &log);
        assert_eq!(render(&out), sharded_reference(4, &log));
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    /// Fails to build a budgeted one-router cluster over `transport`:
    /// the error must name router 0, and the spill directory must be
    /// left as empty as it was found.
    fn fails_leaving_nothing_behind(tag: &str, transport: RouterTransport) {
        let dir = std::env::temp_dir().join(format!("pt-dist-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = CorrelatorConfig::new(access())
            .with_memory_budget(1 << 20)
            .with_spill_dir(&dir);
        let err = distributed(&cfg, 1, 1, &transport).expect_err("no router to reach");
        assert!(
            matches!(err, TraceError::Router { router: 0, .. }),
            "{err:?}"
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn connect_to_dead_address_is_a_clear_router_error() {
        // Bind-then-drop gives a port with nothing listening.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        fails_leaving_nothing_behind("dead-addr", RouterTransport::Connect { addrs: vec![addr] });
    }

    #[cfg(unix)]
    #[test]
    fn child_crash_is_diagnosed_not_hung() {
        // `false` accepts our `router --stdio` args, exits 1 without
        // speaking the protocol: the coordinator must turn the EOF /
        // broken pipe into a Router error carrying the exit status.
        let cfg = CorrelatorConfig::new(access());
        let transport = RouterTransport::Spawn {
            exe: PathBuf::from("/bin/false"),
        };
        let err = match distributed(&cfg, 1, 1, &transport) {
            Err(e) => e,
            Ok(mut dc) => {
                let mut last = dc.flush().err();
                if last.is_none() {
                    last = dc.finish().err();
                }
                last.expect("a crashed router must fail the run")
            }
        };
        match &err {
            TraceError::Router { router: 0, reason } => {
                assert!(
                    reason.contains("exited") || reason.contains("unreachable"),
                    "reason should carry the child's fate: {reason}"
                );
            }
            other => panic!("expected Router error, got {other:?}"),
        }
    }

    #[test]
    fn spawn_with_missing_exe_fails_fast() {
        let exe = PathBuf::from("/nonexistent/pt-router-binary");
        fails_leaving_nothing_behind("missing-exe", RouterTransport::Spawn { exe });
    }

    /// A Hello frame for router 0 with one worker, as `version` sends it.
    fn hello(version: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::FrameWriter::new(&mut bytes)
            .send(wire::FRAME_HELLO, |buf| {
                use crate::spill::codec::put_u32;
                put_u32(buf, wire::MAGIC);
                put_u32(buf, version);
                put_u32(buf, 0);
                put_u32(buf, 1);
                wire::put_config(buf, &CorrelatorConfig::new(access()));
            })
            .unwrap();
        bytes
    }

    #[test]
    fn router_refuses_what_it_cannot_trust() {
        // A v1 coordinator's config carries fields v2 dropped: refuse at
        // the version word, before parsing it.
        let v1 = hello(1);
        // 13 bytes: a Claim for worker 0 announcing u32::MAX messages
        // and carrying none. Sizing the batch by it aborts the process.
        let mut hostile_claim = hello(wire::VERSION);
        wire::FrameWriter::new(&mut hostile_claim)
            .send(wire::FRAME_CLAIM, |buf| {
                use crate::spill::codec::put_u32;
                put_u32(buf, 0);
                put_u32(buf, u32::MAX);
            })
            .unwrap();
        for (bytes, want) in [
            (
                v1,
                "router protocol: protocol version 1 (this router speaks 2)",
            ),
            (
                hostile_claim,
                "router protocol: claim of 4294967295 messages",
            ),
        ] {
            let mut out = Vec::new();
            let err = serve_router(&bytes[..], &mut out)
                .expect_err(want)
                .to_string();
            assert!(err.contains(want), "{err}");
            // The coordinator is told, in an Error frame.
            let mut frame = Vec::new();
            let ty = wire::read_frame(&mut &out[..], &mut frame).unwrap();
            assert_eq!(ty, Some(wire::FRAME_ERROR), "{want}");
            assert_eq!(crate::spill::codec::Dec::new(&frame).str(), err);
        }
    }

    #[test]
    fn spill_dirs_are_namespaced_and_cleaned() {
        let base = std::env::temp_dir().join(format!("pt-dist-test-spill-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        // A foreign process's live spill file in the shared base must
        // survive the distributed drain untouched.
        let foreign = base.join("pt-spill-999999-0.bin");
        std::fs::write(&foreign, b"other process's live state").unwrap();

        let log = cluster_log(6);
        let mut cfg = CorrelatorConfig::new(access());
        cfg.memory_budget = Some(1); // force constant spilling
        cfg.spill_dir = Some(base.clone());
        let out = correlate_text(cfg, 2, 2, &RouterTransport::InProcess, &log);
        assert_eq!(out.cags.len(), 6);

        let leftovers: Vec<String> = std::fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            leftovers,
            vec!["pt-spill-999999-0.bin".to_string()],
            "per-router dirs must be gone, the foreign file untouched"
        );
        std::fs::remove_file(&foreign).unwrap();
        std::fs::remove_dir(&base).unwrap();
    }

    #[test]
    fn distributed_spill_matches_unbounded_output() {
        // Many cold single-record sessions: under a tight budget the
        // workers must page CAGs to their per-router spill dirs and
        // still return every one at finish — identical to unbounded.
        let mut log = String::new();
        for i in 0..800u64 {
            log.push_str(&format!(
                "{} web httpd 7 7 RECEIVE 192.168.0.9:{}-10.0.0.1:80 100\n",
                i * 1_000_000,
                5_000 + i,
            ));
        }
        let unbounded = {
            let cfg = CorrelatorConfig::new(access());
            correlate_text(cfg, 2, 2, &RouterTransport::InProcess, &log)
        };
        let base =
            std::env::temp_dir().join(format!("pt-dist-test-spill-eq-{}", std::process::id()));
        let mut cfg = CorrelatorConfig::new(access());
        cfg.memory_budget = Some(32 * 1024);
        cfg.mem_sample_every = 8;
        cfg.spill_dir = Some(base.clone());
        let spilled = correlate_text(cfg, 2, 2, &RouterTransport::InProcess, &log);
        assert_eq!(
            format!("{:?}|{:?}", unbounded.cags, unbounded.unfinished),
            format!("{:?}|{:?}", spilled.cags, spilled.unfinished)
        );
        assert!(spilled.metrics.engine.spilled_cags > 0, "nothing spilled");
        assert_eq!(spilled.unfinished.len(), 800);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn claim_interning_roundtrips_and_amortizes() {
        let ctx = ContextId::new("web-frontend-01", "httpd", 7, 7);
        let channel = Channel::new(
            "10.0.0.1:4001".parse().unwrap(),
            "10.0.0.2:8009".parse().unwrap(),
        );
        let act = |ts: u64| {
            ShardMsg::Act(Activity {
                ty: ActivityType::Send,
                ts: LocalTime(ts),
                ctx: ctx.clone(),
                channel,
                size: 64,
                tag: 3,
                seq: Some(9000),
            })
        };
        let mut enc = wire::StrEnc::default();
        let mut first = Vec::new();
        wire::put_msg(&mut first, &mut enc, &act(1));
        let mut second = Vec::new();
        wire::put_msg(&mut second, &mut enc, &act(2));
        assert!(
            second.len() < first.len(),
            "second occurrence must use table ids ({} vs {})",
            second.len(),
            first.len()
        );
        let mut forget = Vec::new();
        wire::put_msg(&mut forget, &mut enc, &ShardMsg::ForgetCtx(ctx.clone()));

        let mut dec = wire::StrDec::default();
        for (bytes, want) in [(&first, act(1)), (&second, act(2))] {
            let mut d = crate::spill::codec::Dec::new(bytes);
            let got = wire::get_msg(&mut d, &mut dec).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert!(d.is_empty());
        }
        let mut d = crate::spill::codec::Dec::new(&forget);
        match wire::get_msg(&mut d, &mut dec).unwrap() {
            ShardMsg::ForgetCtx(c) => assert_eq!(c, ctx),
            other => panic!("wrong msg: {other:?}"),
        }
    }

    #[test]
    fn config_survives_the_wire_exhaustively() {
        let mut cfg = CorrelatorConfig::new(access());
        cfg.ranker.window = Nanos::from_millis(7);
        cfg.ranker.window_policy = crate::ranker::WindowPolicy::Adaptive {
            slack: 3,
            min: Nanos(1_000),
            max: Nanos(9_000_000),
        };
        cfg.ranker.swap = false;
        cfg.ranker.fetch_boost = 9;
        cfg.ranker.noise_discard = false;
        cfg.engine.merge_segments = false;
        cfg.engine.pending_cap = 77;
        cfg.mem_sample_every = 17;
        cfg.memory_budget = Some(1 << 22);
        cfg.spill_dir = Some(PathBuf::from("/tmp/pt-dist-wire-test"));
        cfg.max_seal_lag = Some(33);
        cfg.channel_idle_horizon = Some(44);
        cfg.lane_settle_depth = Some(55);

        let mut buf = Vec::new();
        wire::put_config(&mut buf, &cfg);
        let mut d = crate::spill::codec::Dec::new(&buf);
        let back = wire::get_config(&mut d);
        assert!(d.is_empty());
        // Filters are deliberately not shipped (workers see
        // pre-filtered activities); everything else must survive.
        let strip = |c: &CorrelatorConfig| {
            let mut c = c.clone();
            c.filters = crate::filter::FilterSet::new();
            format!("{c:?}")
        };
        assert_eq!(strip(&cfg), strip(&back));
    }

    #[test]
    fn output_frame_roundtrips() {
        let log = cluster_log(3);
        let out = sharded(CorrelatorConfig::new(access()), 2, Source::text(&log));
        let mut buf = Vec::new();
        wire::put_output(&mut buf, 5, &out);
        let mut d = crate::spill::codec::Dec::new(&buf);
        let (worker, back) = wire::get_output(&mut d);
        assert!(d.is_empty());
        assert_eq!(worker, 5);
        assert_eq!(render(&out), render(&back));
        assert_eq!(out.metrics.wall, back.metrics.wall);
        // A decoded CAG shares its hostname/program strings, as the
        // original did: one allocation per distinct name, not per vertex.
        for cag in &back.cags {
            let first = &cag.vertices[0].ctx;
            for v in cag.vertices.iter().map(|v| &v.ctx) {
                assert!(v.hostname != first.hostname || Arc::ptr_eq(&v.hostname, &first.hostname));
                assert!(v.program != first.program || Arc::ptr_eq(&v.program, &first.program));
            }
        }
    }

    #[test]
    fn frame_reader_rejects_truncation_and_accepts_clean_eof() {
        let mut buf = Vec::new();
        // Clean EOF before any header byte.
        assert_eq!(
            wire::read_frame(&mut io::Cursor::new(&[][..]), &mut buf).unwrap(),
            None
        );
        // EOF mid-header and mid-payload are hard errors.
        let mut full = vec![wire::FRAME_CLAIM];
        full.extend_from_slice(&4u32.to_le_bytes());
        full.extend_from_slice(&[1, 2, 3, 4]);
        for cut in [1, 3, full.len() - 1] {
            let err = wire::read_frame(&mut io::Cursor::new(&full[..cut]), &mut buf)
                .expect_err("truncated frame must error");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut={cut}");
        }
        let ty = wire::read_frame(&mut io::Cursor::new(&full[..]), &mut buf)
            .unwrap()
            .unwrap();
        assert_eq!(ty, wire::FRAME_CLAIM);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn session_router_owns_straddling_sessions() {
        // One session whose records interleave with five others: every
        // vertex of each session must land in exactly one worker's
        // output (no session split across routers), which the identity
        // with the single-reader sharded merge already guarantees —
        // here we additionally pin the claim counts.
        let log = cluster_log(6);
        let cfg = CorrelatorConfig::new(access());
        let out = correlate_text(cfg, 3, 1, &RouterTransport::InProcess, &log);
        assert_eq!(out.cags.len(), 6);
        for cag in &out.cags {
            cag.validate().expect("valid CAG");
            assert_eq!(cag.vertices.len(), 6);
        }
    }
}
