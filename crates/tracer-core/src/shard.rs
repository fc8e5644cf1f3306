//! Routed parallel correlation (the follow-up paper's "online at
//! scale" requirement): one sequential front-end, many workers.
//!
//! Candidate selection is inherently sequential *within* one
//! access-point session, but sessions are independent: every activity
//! of a request — its BEGIN at the access point, the internal
//! SEND/RECEIVE cascade, the final END — belongs to exactly one client
//! session. The routed front-end (`RoutedCorrelator`) exploits that:
//!
//! ```text
//!            front-end (one reader)            ShardSink (workers)
//!  text ─→ parse (zero-copy) ─→ classify ─→ ┌─ shard 0: EngineRunner ─┐
//!            + filter + route                ├─ shard 1: EngineRunner ─┤─→ merge
//!            (session affinity)              ├─ ...                    │  (canonical
//!                                            └─ shard N-1 ─────────────┘   re-sequence)
//! ```
//!
//! * The **front-end** parses borrowed [`RawRecordRef`]s (no per-record
//!   string allocations; hostnames/programs are interned), classifies
//!   and filters them, and routes each surviving activity to a shard by
//!   **client session**: the `src ip:port` of the BEGIN at the access
//!   point, consistent-hashed over the shard count. Internal activities
//!   follow their session through channel/context affinity tracking
//!   (the reader is sequential, so the routing is deterministic). It
//!   batches each shard's messages and hands every full batch — exactly
//!   4,096 messages — to its `ShardSink` from inside the routing pass.
//! * The **sink** is the only thing `Mode::Sharded` and
//!   `Mode::Distributed` differ in. `WorkerBlock` gives each shard a
//!   worker thread owning an engine runner, fed through a bounded SPSC
//!   channel (back-pressure bounds memory), which correlates its
//!   shard's sessions while the reader keeps parsing. The router has
//!   already selected every candidate — causal order, Rule-1 byte
//!   coverage, noise removed — so a worker holds no ranker, classifier,
//!   filter or dedup state: it delivers, seals, spills and counts.
//!   The PTDC cluster of [`crate::dist`] writes the same batches as
//!   Claim frames to router peers — each of which runs a `WorkerBlock`.
//! * The **merge** stage re-sequences the union of all sealed CAGs into
//!   a canonical deterministic order — sorted by CAG root (the BEGIN's
//!   timestamp, context and channel), ids renumbered sequentially — so
//!   the output is byte-identical **regardless of shard count, sink or
//!   thread interleaving**: `--shards 1` and `--shards 64` produce the
//!   same bytes. (One exception: a [`CorrelatorConfig::max_seal_lag`]
//!   bound is evaluated against each shard's private candidate counter,
//!   so *whether* a lulled path gets force-sealed before a trailing END
//!   chunk arrives can depend on the partition — the SLO knob trades
//!   cross-shard-count invariance for emission latency. Output for a
//!   **fixed** shard count stays fully deterministic.)
//!
//! ## Relation to the single-shard paths
//!
//! Per-CAG *content* (vertices, edges, sizes, tags, latencies — and
//! therefore every pattern/analysis result) is identical to the
//! single-threaded [`Mode::Batch`](crate::pipeline::Mode::Batch) run: a
//! session's records meet exactly the same ranker/engine state whether
//! or not unrelated sessions share the instance. Two well-understood
//! presentation differences remain, both pinned by tests:
//!
//! * **Stream order**: the batch path emits CAGs in *seal* order, which
//!   depends on where 64-candidate sampling boundaries fall in the
//!   global candidate sequence — a quantity that only exists when all
//!   sessions share one correlator. The sharded path instead emits in
//!   the canonical root order above. On single-frontend-host logs the
//!   renumbered ids coincide with the batch ids (both are BEGIN order),
//!   so sorting the batch output by id yields the sharded bytes.
//! * **Cross-session counters**: diagnostics counting interactions
//!   *between* sessions (`reuse_suppressed_edges` when a pool thread's
//!   previous session lives in another shard) can differ from the
//!   single-shard run; additive per-session counters (records, CAGs,
//!   merges, noise discards) sum exactly.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::activity::{Activity, ActivityType, ContextId, EndpointV4};
use crate::cag::Cag;
use crate::correlator::{CorrelationOutput, CorrelatorConfig, EngineRunner, WorkerConfig};
use crate::error::TraceError;
use crate::fasthash::{FxBuildHasher, FxHashMap};
use crate::ingest::IngestStage;
use crate::raw::{RawRecord, RawRecordRef};

/// Activities per shard batch — one channel message or one Claim frame
/// (amortizes synchronization and framing).
pub(crate) const BATCH_RECORDS: usize = 4_096;

/// Bounded channel capacity, in batches, per worker (back-pressure: the
/// reader blocks instead of buffering unboundedly ahead of a slow
/// worker).
const CHANNEL_BATCHES: usize = 8;

/// Upper bound for `shards = 0` (auto): beyond this the reader is the
/// bottleneck and more workers only cost memory.
const AUTO_SHARD_CAP: usize = 16;

/// Hard cap on explicit shard counts: each shard is an OS thread plus
/// a full correlator, and the single reader cannot feed more than this
/// anyway. Requests beyond it are a configuration error, not a spawn
/// storm.
pub const MAX_SHARDS: usize = 256;

/// How many reader-side noise victims are kept for diagnostics.
const NOISE_SAMPLE_CAP: usize = 32;

/// Channel-idle GC horizon: the router forgets a channel's claim and
/// role entries once the channel has been fully drained (no queued
/// claims, no staged sends, no waiting receives) for this many staged
/// records — a record-count horizon, so it needs no clock. Routing stays
/// correct; an evicted channel merely forgets its drift fallback and
/// shared-role history, which rebuild on its next activity.
/// Conservative: orders of magnitude beyond any real keep-alive lull at
/// typical record rates, so endless streams stay bounded while
/// reconnecting channels keep their fallback.
const CHANNEL_IDLE_HORIZON: u64 = 65_536;

/// Bounded-age settle depth: a lane whose head receive cannot be routed
/// yet (its send bytes are still in flight on another lane) parks until
/// the matching send stages, which on a stream that never delivers that
/// send (a dead peer, a dropped capture) would buffer the lane forever.
/// Once this many records buffer behind the undecidable head, it is
/// settled as if the stream had ended — routed on the drift/affinity
/// fallback or discarded as noise — and counted in
/// [`crate::ranker::RankerCounters::aged_settles`]. Conservative: a
/// healthy lane clears its head as soon as the matching send stages,
/// which is bounded by the capture's reordering skew, not by traffic
/// volume.
const LANE_SETTLE_DEPTH: u64 = 65_536;

/// Google's jump consistent hash: maps `key` to a bucket in `[0, n)`
/// such that growing `n` only moves ~`1/n` of the keys — resharding a
/// live deployment migrates the minimum number of sessions.
fn jump_hash(mut key: u64, n: u32) -> u32 {
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(n) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = (((b.wrapping_add(1)) as f64) * ((1u64 << 31) as f64)
            / (((key >> 33).wrapping_add(1)) as f64)) as i64;
    }
    b as u32
}

/// An undirected connection key: both directions of a TCP connection
/// map to the same entry, so chatter with no session affinity routes
/// both its directions to one shard.
type ConnKey = (EndpointV4, EndpointV4);

fn conn_key(src: EndpointV4, dst: EndpointV4) -> ConnKey {
    if (src.ip, src.port) <= (dst.ip, dst.port) {
        (src, dst)
    } else {
        (dst, src)
    }
}

/// One pending send's byte claim on a directed channel.
#[derive(Debug, Clone, Copy)]
struct ClaimEntry {
    /// Shard of the session that produced the send.
    shard: u32,
    /// True when the send producing this claim was an orphan-chain
    /// record dropped reader-side (never shipped to its shard). The
    /// claim still occupies its FIFO slot so byte accounting stays
    /// identical; a receive consuming only dropped claims is dropped
    /// too.
    dropped: bool,
    /// Unreceived bytes remaining of this claim.
    bytes: u64,
    /// `TCP_TRACE v2`: the claim's remaining stream byte range
    /// `[start, end)`. When both sides of a channel carry `seq=`
    /// offsets, receives match claims by range overlap instead of
    /// blind FIFO byte counting — robust to records lost by a
    /// partial-capture sniffer, which would otherwise permanently
    /// shift the FIFO.
    range: Option<(u64, u64)>,
}

/// Per-directed-channel claim state — the router's miniature `mmap`,
/// fused with the staged-send census so the hot path touches one map.
#[derive(Debug, Default)]
struct Claims {
    /// FIFO of per-send claims; TCP delivers bytes in order per
    /// direction, so a RECEIVE belongs to the shard of the front claim
    /// (the same soundness argument as the engine's size-based
    /// SEND/RECEIVE matching).
    queue: VecDeque<ClaimEntry>,
    /// SEND activities staged but not yet routed: the future claims a
    /// deferring RECEIVE may wait for.
    staged: u32,
    /// Shard of the most recent send on this channel, kept after the
    /// queue drains so byte-count drift (coalesced or forced receives)
    /// still routes follow-up records to the shard holding the
    /// channel's engine state. `None` until a send is first routed.
    last: Option<u32>,
    /// Highest stream offset any **staged or routed** send has ever
    /// reached. Send offsets on a channel are monotone, so every
    /// future send starts at or above this — which lets a receive
    /// prove that a coverage deficit below it is **permanent** (the
    /// send records were lost to partial capture) and resolve
    /// immediately instead of deferring into a lane-graph deadlock.
    max_seq_end: u64,
    /// Router record count when the channel was last touched (staged
    /// send, routed send, or decided receive) — the idle-GC clock.
    last_touch: u64,
}

/// Which lanes stage a given endpoint role (sender / receiver) of a
/// directed channel. Almost every channel has exactly one entity per
/// role (`order: None`, the fast path); connection pooling breaks that
/// — many httpd processes send on one pooled channel, and consecutive
/// requests are read by different connector threads. Claims must then
/// be produced and consumed in the endpoint host's local-time order
/// (TCP's byte order), not in lane-drain order, or one session's bytes
/// would be claimed for another's shard.
#[derive(Debug)]
struct RoleOrder {
    /// The single lane seen staging this role so far (exclusive mode).
    lane: usize,
    /// Shared mode: multiset of staged `(local time, lane)` activities
    /// of this role; only the minimum may produce/consume claims.
    order: Option<BTreeMap<(crate::activity::LocalTime, usize), u32>>,
}

/// One message of a shard's ordered input stream. Routing is not just
/// partitioning: the batch engine's context map follows each execution
/// entity *across* sessions, so when an entity's records migrate to a
/// different shard the old shard must drop its now-stale binding —
/// otherwise a later record landing there by hash could resolve (and
/// merge into) a context chain the batch engine already moved past.
#[derive(Debug, Clone)]
pub(crate) enum ShardMsg {
    /// A routed activity.
    Act(Activity),
    /// Drop the engine's `cmap` binding for this entity: its next
    /// record went to a different shard (or into a reader-side-dropped
    /// orphan chain), exactly when the batch engine would re-bind.
    ForgetCtx(ContextId),
}

/// Routing decision for one RECEIVE.
enum RecvDecision {
    /// Route to this shard. `binds` mirrors whether the engine will
    /// re-bind the receiving entity's context to a new vertex: a
    /// receive that only trims the front claim (a partial segment of a
    /// larger message) merges tags into the existing vertex and leaves
    /// the context map untouched.
    Shard { shard: u32, binds: bool },
    /// Every claim this receive consumed was a dropped orphan-chain
    /// send: the batch engine would merge this receive into the same
    /// never-emitted orphan chain, so it is dropped reader-side too.
    /// The shard is kept for the lane's affinity bookkeeping.
    Orphan(u32),
    /// Wait for the claiming send to be routed.
    Defer,
    /// No traced send on this channel exists anywhere: `is_noise`.
    Noise,
}

/// One execution entity's staged (not yet routed) activities, in the
/// thread's own serial order.
#[derive(Debug)]
struct CtxLane {
    buf: VecDeque<Activity>,
    /// Shard of the session this entity is currently working for.
    affinity: Option<u32>,
    /// Shard whose engine holds this entity's live `cmap` binding (its
    /// last *dispatched, binding* record). `None` when no engine holds
    /// one — fresh lane, or the entity's chain went into a reader-side
    /// dropped orphan chain. Differs from `affinity` exactly when the
    /// last record did not re-bind the context (partial receive, or a
    /// dropped record). Migrating the binding to another shard emits
    /// [`ShardMsg::ForgetCtx`] to the old one.
    bound: Option<u32>,
    /// This entity currently extends an orphan chain (its last routed
    /// record was dropped reader-side) — the reader's mirror of the
    /// engine's `cmap = Orphan` state. Cleared by any dispatched
    /// record (a BEGIN/END, or a receive consuming real claims).
    noise: bool,
    /// Key this lane is registered under in the runnable set (the head
    /// timestamp at enqueue time), `None` when not enqueued. Staging
    /// can insert a record *before* the current head, so the key must
    /// be re-derived whenever the head changes.
    qkey: Option<crate::activity::LocalTime>,
    /// Channel this lane is currently registered as a waiter on, so
    /// repeated wake→re-defer cycles do not grow the waiter lists.
    waiting_on: Option<crate::activity::Channel>,
}

/// Deterministic session router: a lightweight message-matching
/// pre-pass that assigns every activity to the shard owning its client
/// session, using only reader-side sequential state. It subsumes
/// candidate selection for the sharded pipeline — workers deliver its
/// output straight to their engines:
///
/// * A BEGIN/END names its session directly: the client endpoint at
///   the access point, consistent-hashed to a shard.
/// * A SEND inherits its thread's current session (claimed by the
///   BEGIN, or by the RECEIVE that handed the request to the thread)
///   and *claims* its channel's bytes for that shard.
/// * A RECEIVE resolves only when previously routed claims fully cover
///   it (Rule 1's byte-exactness), consuming them FIFO; otherwise it
///   **defers** — a per-channel census of staged sends distinguishes
///   "claim still coming" from genuine noise, which is discarded
///   reader-side exactly like the ranker's `is_noise`.
///
/// Staged activities queue per **execution entity** (context), not per
/// host: a thread's activities are causally serial, and threads depend
/// on each other only through send→receive edges, which real traffic
/// cannot make cyclic. Deferral therefore follows the causal DAG and —
/// unlike host-level FIFO — cannot deadlock or head-of-line block
/// independent threads; a deferred lane resumes when the claim it
/// waits for is routed. Assignments are a pure function of the
/// per-entity sequences and per-channel FIFOs, independent of
/// push/pump interleaving.
#[derive(Debug)]
struct SessionRouter {
    shards: u32,
    hasher: FxBuildHasher,
    lanes: Vec<CtxLane>,
    by_ctx: FxHashMap<crate::activity::ContextId, usize>,
    /// Lanes with potentially routable heads, a min-heap on `(head
    /// timestamp, lane)`. The pump always steps the lane whose head is
    /// globally earliest and routes **one** activity per step — the
    /// same global time order the batch ranker delivers in — so a
    /// thread's late same-thread SEND can never reach a worker engine
    /// before another lane's earlier RECEIVE/END seals the session
    /// (the bulk-mix seal-order divergence). Lane index breaks ties
    /// deterministically (lane creation order). Entries are
    /// invalidated lazily: a popped entry is live only if it matches
    /// the lane's current `qkey` — cheaper than keyed removal on the
    /// per-record hot path.
    runnable: std::collections::BinaryHeap<std::cmp::Reverse<(crate::activity::LocalTime, usize)>>,
    /// Channel → lanes whose head RECEIVE waits for a claim on it.
    waiters: FxHashMap<crate::activity::Channel, Vec<usize>>,
    /// Directed channel → claim FIFO + staged-send census.
    claims: FxHashMap<crate::activity::Channel, Claims>,
    /// `(channel, is_send)` → which lanes stage that endpoint role
    /// (shared-channel time ordering; see [`RoleOrder`]).
    roles: FxHashMap<(crate::activity::Channel, bool), RoleOrder>,
    /// True once any channel role went shared: until then `in_turn` /
    /// `untrack` skip their map lookups entirely (the common,
    /// unpooled case pays one stage-time lookup per send/receive).
    any_shared: bool,
    /// Staged activity count across lanes.
    staged: usize,
    /// Channel-idle GC horizon in staged records
    /// ([`CHANNEL_IDLE_HORIZON`]; `None`, in tests only, never evicts).
    idle_horizon: Option<u64>,
    /// Bounded-age settle rule: force-settle a lane's undecidable head
    /// receive once this many records buffer behind it
    /// ([`LANE_SETTLE_DEPTH`]; `None`, in tests only, settles at end of
    /// input alone).
    settle_depth: Option<u64>,
    /// Heads settled early by the bounded-age rule (diagnostics).
    aged_settles: u64,
    /// Total records ever staged — the idle-GC clock.
    records_staged: u64,
    /// Record count at the last idle sweep.
    last_sweep: u64,
    /// Idle channels evicted by the GC (diagnostics).
    idle_evicted: u64,
    /// Receives force-routed by the drift fallback (diagnostics; zero
    /// on causally consistent input).
    forced_routes: u64,
    /// Receives discarded reader-side because their channel never
    /// carries a traced send — precisely the ranker's `is_noise`
    /// condition (no match in any `mmap`, no match in any buffer), so
    /// they are dropped before ever being ranked.
    noise_discards: u64,
    /// First few noise victims, for diagnostics.
    noise_samples: Vec<Activity>,
    /// Route orphan-chain records instead of dropping them:
    /// [`route_records`] introspection shows every activity's
    /// assignment. The pipeline never sets it.
    route_orphans: bool,
    /// Orphan-chain records dropped reader-side (never dispatched).
    orphan_dropped: u64,
    /// Channels evicted by the idle GC since the owner last drained
    /// this list; the owner evicts the same channels from its
    /// [`crate::raw::RangeDedup`] so dedup coverage is shed at the
    /// same horizon as router claims.
    evicted: Vec<crate::activity::Channel>,
}

impl SessionRouter {
    fn new(shards: u32) -> Self {
        SessionRouter {
            shards,
            hasher: FxBuildHasher::default(),
            lanes: Vec::new(),
            by_ctx: FxHashMap::default(),
            runnable: std::collections::BinaryHeap::new(),
            waiters: FxHashMap::default(),
            claims: FxHashMap::default(),
            roles: FxHashMap::default(),
            any_shared: false,
            staged: 0,
            idle_horizon: Some(CHANNEL_IDLE_HORIZON),
            settle_depth: Some(LANE_SETTLE_DEPTH),
            aged_settles: 0,
            records_staged: 0,
            last_sweep: 0,
            idle_evicted: 0,
            forced_routes: 0,
            noise_discards: 0,
            noise_samples: Vec::new(),
            route_orphans: false,
            orphan_dropped: 0,
            evicted: Vec::new(),
        }
    }

    /// Takes the channels evicted by the idle GC since the last call,
    /// so the owner can shed matching [`crate::raw::RangeDedup`] state.
    fn take_evicted(&mut self) -> Vec<crate::activity::Channel> {
        std::mem::take(&mut self.evicted)
    }

    fn hash_to_shard<T: std::hash::Hash>(&self, key: &T) -> u32 {
        use std::hash::BuildHasher;
        jump_hash(self.hasher.hash_one(key), self.shards)
    }

    /// Approximate resident bytes of the router's staging state: the
    /// deferred/noise lanes (activities waiting for their claims or for
    /// end-of-input noise settlement), the per-channel claim FIFOs and
    /// waiter lists, and the noise samples. This is the state the
    /// ROADMAP's "sharded streaming endurance" item bounds; an endless
    /// noisy stream grows exactly these numbers.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let lanes: usize = self
            .lanes
            .iter()
            .map(|l| size_of::<CtxLane>() + l.buf.len() * size_of::<Activity>())
            .sum();
        let claims: usize = self
            .claims
            .values()
            .map(|c| {
                size_of::<crate::activity::Channel>()
                    + size_of::<Claims>()
                    + c.queue.len() * size_of::<ClaimEntry>()
            })
            .sum();
        let waiters: usize = self
            .waiters
            .values()
            .map(|w| size_of::<crate::activity::Channel>() + w.len() * size_of::<usize>())
            .sum();
        let roles: usize = self
            .roles
            .values()
            .map(|t| {
                size_of::<(crate::activity::Channel, bool)>()
                    + size_of::<RoleOrder>()
                    + t.order.as_ref().map_or(0, |m| {
                        m.len() * size_of::<((crate::activity::LocalTime, usize), u32)>()
                    })
            })
            .sum();
        lanes
            + claims
            + waiters
            + roles
            + self.by_ctx.len() * size_of::<(crate::activity::ContextId, usize)>()
            + self.noise_samples.len() * size_of::<Activity>()
    }

    /// Stages one classified, filter-admitted activity on its entity's
    /// lane. Small local-time inversions (e.g. concatenated per-CPU
    /// buffers) are tolerated by insertion — O(1) for sorted input —
    /// so callers can stage records in plain arrival order with no
    /// grouping or sorting pass.
    fn stage(&mut self, a: Activity) {
        self.records_staged += 1;
        if a.ty == ActivityType::Send {
            let now = self.records_staged;
            let c = self.claims.entry(a.channel).or_default();
            c.staged += 1;
            if let Some(seq) = a.seq {
                c.max_seq_end = c.max_seq_end.max(seq + a.size.max(1));
            }
            c.last_touch = now;
        }
        if let Some(horizon) = self.idle_horizon {
            if self.records_staged - self.last_sweep >= horizon.max(1) {
                self.sweep_idle_channels(horizon);
            }
        }
        let lane = match self.by_ctx.get(&a.ctx) {
            Some(&i) => i,
            None => {
                let i = self.lanes.len();
                self.lanes.push(CtxLane {
                    buf: VecDeque::new(),
                    affinity: None,
                    bound: None,
                    noise: false,
                    qkey: None,
                    waiting_on: None,
                });
                self.by_ctx.insert(a.ctx.clone(), i);
                i
            }
        };
        if matches!(a.ty, ActivityType::Send | ActivityType::Receive) {
            self.track_stage(lane, &a);
        }
        let buf = &mut self.lanes[lane].buf;
        match buf.back() {
            Some(last) if last.ts > a.ts => {
                let pos = buf
                    .iter()
                    .rposition(|x| x.ts <= a.ts)
                    .map(|p| p + 1)
                    .unwrap_or(0);
                buf.insert(pos, a);
            }
            _ => buf.push_back(a),
        }
        self.staged += 1;
        self.enqueue(lane);
    }

    /// (Re-)registers a lane in the runnable heap under its current
    /// head timestamp; deregisters it when the lane is empty.
    /// Idempotent, and free when the key is unchanged. A superseded
    /// heap entry is not removed here — the pump discards entries whose
    /// key no longer matches the lane's `qkey`.
    fn enqueue(&mut self, lane: usize) {
        let head_ts = self.lanes[lane].buf.front().map(|a| a.ts);
        match (self.lanes[lane].qkey, head_ts) {
            (Some(k), Some(ts)) if k == ts => {}
            (_, new) => {
                if let Some(ts) = new {
                    self.runnable.push(std::cmp::Reverse((ts, lane)));
                }
                self.lanes[lane].qkey = new;
            }
        }
    }

    /// Channel-idle GC (ROADMAP "sharded streaming endurance"): evicts
    /// per-channel `claims` and `roles` entries whose channel has been
    /// idle — nothing queued, nothing staged, nobody waiting — for more
    /// than `horizon` staged records. On an endless stream these maps
    /// otherwise grow one entry per channel for the stream's lifetime.
    /// Eviction only forgets the drained channel's `last`-shard drift
    /// fallback and its shared-role history; both rebuild on the next
    /// activity, so live traffic is never affected.
    fn sweep_idle_channels(&mut self, horizon: u64) {
        self.last_sweep = self.records_staged;
        let now = self.records_staged;
        let evict: Vec<crate::activity::Channel> = self
            .claims
            .iter()
            .filter(|(ch, c)| {
                c.queue.is_empty()
                    && c.staged == 0
                    && now.saturating_sub(c.last_touch) > horizon
                    && !self.waiters.contains_key(*ch)
                    && [true, false].iter().all(|&s| {
                        self.roles
                            .get(&(**ch, s))
                            .is_none_or(|t| t.order.as_ref().is_none_or(|m| m.is_empty()))
                    })
            })
            .map(|(ch, _)| *ch)
            .collect();
        for ch in evict {
            self.claims.remove(&ch);
            self.roles.remove(&(ch, true));
            self.roles.remove(&(ch, false));
            self.idle_evicted += 1;
            self.evicted.push(ch);
        }
    }

    fn wake(&mut self, channel: crate::activity::Channel) {
        if self.waiters.is_empty() {
            return;
        }
        if let Some(ws) = self.waiters.remove(&channel) {
            for lane in ws {
                // The registration is consumed; a re-defer must
                // re-register.
                self.lanes[lane].waiting_on = None;
                self.enqueue(lane);
            }
        }
    }

    /// Records a staged SEND/RECEIVE in its channel role's order
    /// tracker; the first time a second lane appears in one role, the
    /// role upgrades to shared mode and the exclusive lane's staged
    /// activities are indexed.
    fn track_stage(&mut self, lane: usize, a: &Activity) {
        let key = (a.channel, a.ty == ActivityType::Send);
        match self.roles.get_mut(&key) {
            None => {
                self.roles.insert(key, RoleOrder { lane, order: None });
            }
            Some(t) => {
                if t.order.is_none() {
                    if t.lane == lane {
                        return;
                    }
                    let mut m = BTreeMap::new();
                    for act in &self.lanes[t.lane].buf {
                        if act.channel == a.channel && act.ty == a.ty {
                            *m.entry((act.ts, t.lane)).or_insert(0u32) += 1;
                        }
                    }
                    t.order = Some(m);
                    self.any_shared = true;
                }
                *t.order
                    .as_mut()
                    .expect("just upgraded")
                    .entry((a.ts, lane))
                    .or_insert(0) += 1;
            }
        }
    }

    /// True when `a` is allowed to produce/consume claims now: on a
    /// shared channel role, only the staged activity that is earliest
    /// in the endpoint host's local time may act (TCP handed the bytes
    /// over in that order).
    fn in_turn(&self, lane: usize, a: &Activity) -> bool {
        if !self.any_shared {
            return true;
        }
        match self.roles.get(&(a.channel, a.ty == ActivityType::Send)) {
            Some(RoleOrder { order: Some(m), .. }) => {
                m.first_key_value().is_none_or(|(&k, _)| k == (a.ts, lane))
            }
            _ => true,
        }
    }

    /// Removes a consumed (routed, discarded or force-routed)
    /// SEND/RECEIVE from its role's order tracker.
    fn untrack(&mut self, lane: usize, a: &Activity) {
        if !self.any_shared || !matches!(a.ty, ActivityType::Send | ActivityType::Receive) {
            return;
        }
        if let Some(RoleOrder { order: Some(m), .. }) =
            self.roles.get_mut(&(a.channel, a.ty == ActivityType::Send))
        {
            if let Some(c) = m.get_mut(&(a.ts, lane)) {
                *c -= 1;
                if *c == 0 {
                    m.remove(&(a.ts, lane));
                }
            }
        }
    }

    /// Routes a SEND: session from the thread's affinity (noise chains
    /// fall back to their channel's shard or hash), then claims the
    /// channel's bytes for that shard. The second return is true when
    /// the send opens or extends an orphan chain and was marked
    /// dropped: the batch engine would bury it in a never-emitted
    /// orphan chain, so (unless [`SessionRouter::route_orphans`] asks
    /// to see it) there is no point shipping it to a worker. Claim
    /// bookkeeping is identical either way — dropped claims still
    /// occupy their FIFO slot so routing decisions do not shift.
    fn route_send(&mut self, lane: usize, a: &Activity) -> (u32, bool) {
        let s = match self.lanes[lane].affinity {
            Some(s) => s,
            // A send by an unclaimed thread opens a noise chain (or
            // continues one on its connection).
            None => match self.claims.get(&a.channel).and_then(|c| c.last) {
                Some(s) => s,
                None => self.hash_to_shard(&conn_key(a.channel.src, a.channel.dst)),
            },
        };
        let dropped =
            !self.route_orphans && (self.lanes[lane].noise || self.lanes[lane].affinity.is_none());
        let now = self.records_staged;
        let c = self.claims.entry(a.channel).or_default();
        c.staged -= 1;
        let bytes = a.size.max(1);
        c.queue.push_back(ClaimEntry {
            shard: s,
            dropped,
            bytes,
            range: a.seq.map(|s0| (s0, s0 + bytes)),
        });
        c.last = Some(s);
        c.last_touch = now;
        self.wake(a.channel);
        (s, dropped)
    }

    /// Decides a RECEIVE against its channel's claim FIFO. Until input
    /// ends, it resolves **only** when the claimed bytes cover it —
    /// Rule 1's byte-exactness, mirrored: the remaining segments of
    /// its message may simply not have arrived yet, and consuming a
    /// half-present message would permanently shift the FIFO and hand
    /// a later session's bytes to the wrong shard. With `final_input`,
    /// partial coverage is consumed as-is (genuinely lost segments; the
    /// engine counts the deformation the same way in every mode),
    /// drained channels fall back to their last shard, and claimless
    /// channels are noise.
    ///
    /// When the receive and the front claim both carry `TCP_TRACE v2`
    /// `seq=` offsets, matching is by **stream-range overlap** instead
    /// of byte counting: claims entirely below the receive's range are
    /// retired (their receive records were lost to partial capture),
    /// uncovered head bytes (lost send records) are forgiven, and
    /// trims are offset-exact — capture gaps can never shift the FIFO.
    fn decide_receive(&mut self, a: &Activity, final_input: bool) -> RecvDecision {
        let now = self.records_staged;
        let Some(c) = self.claims.get_mut(&a.channel) else {
            return if final_input {
                RecvDecision::Noise
            } else {
                RecvDecision::Defer
            };
        };
        c.last_touch = now;
        if let Some(r0) = a.seq {
            let r1 = r0 + a.size.max(1);
            // Retire claims whose range lies entirely below the
            // receive's: their matching receive records were lost by
            // the capture; receive offsets on a channel are monotone,
            // so those bytes can never be claimed again.
            while matches!(
                c.queue.front(),
                Some(e) if e.range.is_some_and(|(_, end)| end <= r0)
            ) {
                c.queue.pop_front();
            }
            if let Some(&ClaimEntry {
                shard,
                range: Some((fs, _)),
                ..
            }) = c.queue.front()
            {
                if fs < r1 {
                    // Overlap with the front claim: this receive
                    // belongs to the front claim's session. Bytes of
                    // [r0, fs) have no claim (their send records were
                    // lost) and never will — only the part from `fs`
                    // up must be covered before consuming.
                    let need_from = r0.max(fs);
                    let covered: u64 = c
                        .queue
                        .iter()
                        .map_while(|e| e.range)
                        .map(|(s, en)| en.min(r1).saturating_sub(s.max(need_from)))
                        .sum();
                    if covered < r1 - need_from
                        && r1 > c.max_seq_end
                        && (!final_input || c.staged > 0)
                    {
                        // The tail segments' sends are still in flight
                        // (or staged on another lane): consuming now
                        // would shift later sessions' bytes. When
                        // `r1 <= max_seq_end` the deficit is instead
                        // *permanent* — send offsets are monotone, so
                        // no future claim can land below `r1`; the
                        // missing send records were lost to partial
                        // capture and waiting would only deadlock the
                        // lane graph — consume what exists now.
                        return RecvDecision::Defer;
                    }
                    // Consume [r0, r1) by offset: pop claims ending
                    // within it, trim the one that extends past it.
                    let (mut any, mut real, mut popped) = (false, false, false);
                    while let Some(e) = c.queue.front_mut() {
                        let Some((s, en)) = e.range else { break };
                        if s >= r1 {
                            break;
                        }
                        any = true;
                        real |= !e.dropped;
                        if en <= r1 {
                            c.queue.pop_front();
                            popped = true;
                        } else {
                            e.bytes = e.bytes.saturating_sub(r1 - s);
                            e.range = Some((r1, en));
                            break;
                        }
                    }
                    return if any && !real {
                        RecvDecision::Orphan(shard)
                    } else {
                        RecvDecision::Shard {
                            shard,
                            binds: popped,
                        }
                    };
                }
                // The front claim starts at or beyond the receive's
                // end: every send record of this receive's bytes was
                // lost, and stream offsets are monotone, so no future
                // claim can land below it either. The batch ranker
                // finds no match in any mmap or buffer and discards
                // such a receive as noise; routing it instead would
                // poison the worker engine's thread state and absorb
                // the thread's later records into an orphan chain.
                let _ = shard;
                return RecvDecision::Noise;
            }
            // No usable range on the front claim (empty queue, or a
            // mixed v1 sender): fall through to byte counting.
        }
        let Some(&ClaimEntry {
            shard: front_shard, ..
        }) = c.queue.front()
        else {
            return if final_input && c.staged == 0 {
                // Drained by byte drift; stay with the channel's shard
                // (an entry with nothing staged has routed ≥ 1 send).
                // The engine finds no pending there, so no re-binding.
                RecvDecision::Shard {
                    shard: c.last.unwrap_or(0),
                    binds: false,
                }
            } else {
                RecvDecision::Defer
            };
        };
        if a.size > c.queue.iter().map(|f| f.bytes).sum::<u64>() && (!final_input || c.staged > 0) {
            // Partial coverage: the remaining segments either have not
            // arrived yet or are staged on another lane and will route
            // (waking this one). Consuming now would permanently shift
            // the FIFO. Only when input is over AND no send is staged
            // are the missing segments genuinely lost — then consume
            // what exists, like the engine's forced-delivery path.
            return RecvDecision::Defer;
        }
        let mut need = a.size;
        let (mut any, mut real, mut popped) = (false, false, false);
        while need > 0 {
            match c.queue.front_mut() {
                Some(f) if f.bytes > need => {
                    any = true;
                    real |= !f.dropped;
                    f.bytes -= need;
                    if let Some((s, en)) = f.range {
                        f.range = Some(((s + need).min(en), en));
                    }
                    need = 0;
                }
                Some(f) => {
                    any = true;
                    real |= !f.dropped;
                    need -= f.bytes;
                    c.queue.pop_front();
                    popped = true;
                }
                None => break,
            }
        }
        if any && !real {
            RecvDecision::Orphan(front_shard)
        } else {
            RecvDecision::Shard {
                shard: front_shard,
                binds: popped,
            }
        }
    }

    /// Decides a RECEIVE, applying the bounded-age settle rule on
    /// deferral: once [`SessionRouter::settle_depth`] records have
    /// buffered behind an undecidable head (the lane was popped, so
    /// `buf` holds exactly the records behind it), the head is
    /// re-decided under end-of-input semantics — claimless channels
    /// discard as noise, drift leftovers route to their channel's
    /// shard, partial coverage is consumed as-is. A head whose claim is
    /// *staged on another lane* still defers (that lane is live and
    /// will wake this one), so the rule only fires where waiting could
    /// last forever: the send never existed or was lost by the capture.
    /// Like [`crate::correlator::CorrelatorConfig::max_seal_lag`], the
    /// exact firing point depends on push/pump interleaving; the
    /// conservative default keeps it out of reach of causally
    /// consistent captures, where deferrals resolve within the
    /// reordering skew.
    fn decide_with_settle(&mut self, lane: usize, a: &Activity, final_input: bool) -> RecvDecision {
        let d = self.decide_receive(a, final_input);
        if !matches!(d, RecvDecision::Defer) || final_input {
            return d;
        }
        let deep = self
            .settle_depth
            .is_some_and(|n| self.lanes[lane].buf.len() as u64 >= n);
        if !deep {
            return RecvDecision::Defer;
        }
        match self.decide_receive(a, true) {
            // The claim is staged on a live lane: progress is
            // guaranteed, parking stays bounded.
            RecvDecision::Defer => RecvDecision::Defer,
            settled => {
                self.aged_settles += 1;
                settled
            }
        }
    }

    /// Routes the lane's head activity — **one step** of the global
    /// time-ordered schedule. Returns `true` when the lane parked
    /// (deferred head or shared-channel turn waiting): a parked lane is
    /// re-enqueued by [`SessionRouter::wake`], not by the pump.
    fn step_lane(
        &mut self,
        lane: usize,
        final_input: bool,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<bool, TraceError> {
        let Some(a) = self.lanes[lane].buf.pop_front() else {
            return Ok(false);
        };
        // Shared-channel time ordering: out of several entities
        // staging the same channel role, only the earliest may
        // act; later ones park until the channel's turn passes to
        // them (consumptions wake the channel's waiters).
        if matches!(a.ty, ActivityType::Send | ActivityType::Receive) && !self.in_turn(lane, &a) {
            if self.lanes[lane].waiting_on != Some(a.channel) {
                self.waiters.entry(a.channel).or_default().push(lane);
                self.lanes[lane].waiting_on = Some(a.channel);
            }
            self.lanes[lane].buf.push_front(a);
            return Ok(true);
        }
        let (shard, binds) = match a.ty {
            // The session identity itself: the client endpoint at the
            // access point (BEGIN: src is the client).
            ActivityType::Begin => (self.hash_to_shard(&a.channel.src), true),
            // The engine resolves an END through the thread's context
            // chain (`cmap`), not the endpoint — so it must go wherever
            // this entity's live binding is. That is normally the
            // session's own shard (identical to hashing the client
            // endpoint in `dst`), but under partial capture a receive
            // can byte-match another session's claim and re-bind the
            // thread there, exactly as the batch engine's cmap would.
            ActivityType::End => {
                let l = &self.lanes[lane];
                (
                    l.bound
                        .or(l.affinity)
                        .unwrap_or_else(|| self.hash_to_shard(&a.channel.dst)),
                    true,
                )
            }
            ActivityType::Send => {
                self.untrack(lane, &a);
                let (s, dropped) = self.route_send(lane, &a);
                if dropped {
                    // Orphan-chain send: claim recorded, record
                    // dropped. The lane keeps the chain's shard as
                    // affinity so follow-up records stay coherent,
                    // and is marked noise so they drop too. The batch
                    // engine re-binds the context into the orphan
                    // chain, so any shard still holding a live binding
                    // for this entity must drop it.
                    self.staged -= 1;
                    self.orphan_dropped += 1;
                    self.unbind(lane, &a.ctx, dispatch)?;
                    self.lanes[lane].affinity = Some(s);
                    self.lanes[lane].noise = true;
                    return Ok(false);
                }
                (s, true)
            }
            ActivityType::Receive => match self.decide_with_settle(lane, &a, final_input) {
                RecvDecision::Shard { shard, binds } => {
                    self.untrack(lane, &a);
                    self.wake(a.channel);
                    (shard, binds)
                }
                RecvDecision::Orphan(s) => {
                    // Every consumed claim was a dropped orphan
                    // send: the batch engine would merge this
                    // receive into the same never-emitted chain
                    // (re-binding the context to it).
                    self.untrack(lane, &a);
                    self.wake(a.channel);
                    self.staged -= 1;
                    self.orphan_dropped += 1;
                    self.unbind(lane, &a.ctx, dispatch)?;
                    self.lanes[lane].affinity = Some(s);
                    self.lanes[lane].noise = true;
                    return Ok(false);
                }
                RecvDecision::Defer => {
                    // The claiming send is staged (or may still
                    // arrive): wait for it. Register once per
                    // channel — wake→re-defer cycles must not grow
                    // the waiter list.
                    if self.lanes[lane].waiting_on != Some(a.channel) {
                        self.waiters.entry(a.channel).or_default().push(lane);
                        self.lanes[lane].waiting_on = Some(a.channel);
                    }
                    self.lanes[lane].buf.push_front(a);
                    return Ok(true);
                }
                RecvDecision::Noise => {
                    // Discarded before dispatch; the entity's
                    // session affinity stays untouched, like the
                    // engine's `cmap` would be.
                    self.untrack(lane, &a);
                    self.wake(a.channel);
                    self.staged -= 1;
                    self.noise_discards += 1;
                    if self.noise_samples.len() < NOISE_SAMPLE_CAP {
                        self.noise_samples.push(a);
                    }
                    return Ok(false);
                }
            },
        };
        self.staged -= 1;
        self.lanes[lane].affinity = Some(shard);
        self.lanes[lane].noise = false;
        if binds {
            self.rebind(lane, shard, &a.ctx, dispatch)?;
        }
        dispatch(ShardMsg::Act(a), shard)?;
        Ok(false)
    }

    /// Moves the lane's live context binding to `shard`, telling the
    /// shard that held it before (if any, and different) to forget it —
    /// the mirror of the batch engine overwriting the entity's `cmap`
    /// entry.
    fn rebind(
        &mut self,
        lane: usize,
        shard: u32,
        ctx: &ContextId,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if let Some(old) = self.lanes[lane].bound {
            if old != shard {
                dispatch(ShardMsg::ForgetCtx(ctx.clone()), old)?;
            }
        }
        self.lanes[lane].bound = Some(shard);
        Ok(())
    }

    /// Drops the lane's live context binding entirely: the entity's
    /// chain continued into a reader-side-dropped orphan chain, which
    /// the batch engine re-binds `cmap` to — so no shard may keep a
    /// resolvable binding.
    fn unbind(
        &mut self,
        lane: usize,
        ctx: &ContextId,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if let Some(old) = self.lanes[lane].bound.take() {
            dispatch(ShardMsg::ForgetCtx(ctx.clone()), old)?;
        }
        Ok(())
    }

    /// Routes every currently routable staged activity, calling
    /// `dispatch` for each `(activity, shard)` in a deterministic
    /// **global time order**: each iteration steps the runnable lane
    /// whose head has the earliest local timestamp (ties by lane
    /// creation order) and routes exactly one activity — the order the
    /// batch ranker delivers in, so a session's records reach their
    /// worker engine in the same relative order batch does and seal
    /// order cannot diverge. With `final_input`, remaining deferred
    /// receives are settled (noise discarded; byte-drift leftovers
    /// routed to their channel's shard), so the staging area fully
    /// drains.
    fn pump(
        &mut self,
        final_input: bool,
        dispatch: &mut dyn FnMut(ShardMsg, u32) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if final_input {
            // Lanes that deferred mid-stream are waiting on claims that
            // may never come; with input closed they must all re-decide
            // under final semantics (noise discard, drift fallback).
            for lane in 0..self.lanes.len() {
                if !self.lanes[lane].buf.is_empty() {
                    self.enqueue(lane);
                }
            }
        }
        loop {
            while let Some(std::cmp::Reverse((ts, lane))) = self.runnable.pop() {
                // Lazy invalidation: the lane's head moved (or the lane
                // parked) since this entry was pushed.
                if self.lanes[lane].qkey != Some(ts) {
                    continue;
                }
                self.lanes[lane].qkey = None;
                // Step this lane for as long as it holds the global
                // minimum: the common case is a run of consecutive
                // records on one entity, which costs no heap traffic
                // at all. A stale peeked entry can only yield early —
                // it is discarded on its own pop and the lane resumes.
                loop {
                    if self.step_lane(lane, final_input, dispatch)? {
                        break; // parked; wake() re-enqueues
                    }
                    let Some(head) = self.lanes[lane].buf.front().map(|a| a.ts) else {
                        break; // drained
                    };
                    if let Some(&std::cmp::Reverse(next)) = self.runnable.peek() {
                        if next < (head, lane) {
                            self.runnable.push(std::cmp::Reverse((head, lane)));
                            self.lanes[lane].qkey = Some(head);
                            break; // another lane is globally earlier
                        }
                    }
                }
            }
            if !final_input || self.staged == 0 {
                return Ok(());
            }
            // Input is complete yet a lane still waits: byte drift or
            // capture gaps detached a receive from its claim. Force the
            // stuck head with the earliest local timestamp (ties by
            // lane creation order) onto its channel's shard and resume:
            // that is the order the batch ranker delivers in, so gap
            // cascades resolve identically — each forced record routes
            // after the records that precede it in batch and before the
            // ones that follow, landing on the shard whose engine holds
            // the matching channel state.
            let Some(lane) = (0..self.lanes.len())
                .filter(|&l| !self.lanes[l].buf.is_empty())
                .min_by_key(|&l| (self.lanes[l].buf[0].ts, l))
            else {
                return Ok(());
            };
            let a = self.lanes[lane].buf.pop_front().expect("nonempty");
            self.staged -= 1;
            self.forced_routes += 1;
            self.untrack(lane, &a);
            let shard = match a.ty {
                ActivityType::Send => {
                    let (s, dropped) = self.route_send(lane, &a);
                    if dropped {
                        self.orphan_dropped += 1;
                        self.unbind(lane, &a.ctx, dispatch)?;
                        self.lanes[lane].affinity = Some(s);
                        self.lanes[lane].noise = true;
                        self.enqueue(lane);
                        continue;
                    }
                    s
                }
                _ => match self.claims.get(&a.channel).and_then(|c| c.last) {
                    Some(s) => s,
                    None => self.hash_to_shard(&conn_key(a.channel.src, a.channel.dst)),
                },
            };
            self.wake(a.channel);
            self.lanes[lane].affinity = Some(shard);
            self.lanes[lane].noise = false;
            self.rebind(lane, shard, &a.ctx, dispatch)?;
            dispatch(ShardMsg::Act(a), shard)?;
            self.enqueue(lane);
        }
    }
}

/// The reader-side core of the routed front-end: the ingest stage
/// (dedup → filter → classify), then routing through the one sequential
/// [`SessionRouter`], plus the canonical merge. Everything the
/// correlation algorithm needs exactly **once** per run lives here,
/// whatever [`ShardSink`] sits behind it: the routing/dispatch sequence
/// — and therefore the merged output — is a pure function of the input,
/// not of the execution topology.
#[derive(Debug)]
struct ReaderCore {
    ingest: IngestStage,
    router: SessionRouter,
}

impl ReaderCore {
    /// Builds the front-end routing over `shards` downstream workers.
    /// The config must already be validated.
    fn new(config: &CorrelatorConfig, shards: u32) -> Self {
        ReaderCore {
            ingest: IngestStage::new(config, None),
            router: SessionRouter::new(shards),
        }
    }

    /// Admits one record and stages its activity without routing yet.
    fn stage_ref(&mut self, r: &RawRecordRef<'_>) {
        if let Some(act) = self.ingest.admit(r) {
            self.router.stage(act);
            self.evict_dedup();
        }
    }

    /// Sheds range-dedup coverage for channels the router's idle GC
    /// just evicted, so dedup state obeys the same horizon as router
    /// claims instead of growing for the stream's lifetime.
    fn evict_dedup(&mut self) {
        if !self.router.evicted.is_empty() {
            for ch in self.router.take_evicted() {
                self.ingest.evict_channel(ch);
            }
        }
    }

    /// Approximate resident bytes of the reader-side routing state:
    /// deferred/noise lanes, per-channel claim FIFOs, waiter lists and
    /// dedup coverage.
    fn approx_bytes(&self) -> usize {
        self.router.approx_bytes() + self.ingest.coverage_bytes()
    }

    /// Canonical deterministic merge: the union of all shards' CAGs,
    /// finished and unfinished alike, sorted by their root BEGIN
    /// (timestamp, context, channel) and renumbered sequentially — the
    /// same id a single-shard run assigns on single-frontend-host logs,
    /// where BEGIN delivery order is BEGIN timestamp order. `outputs`
    /// must arrive in global shard order so capped diagnostics (noise
    /// samples) truncate identically for every topology.
    fn merge(&mut self, outputs: Vec<CorrelationOutput>, started: Instant) -> CorrelationOutput {
        let mut all: Vec<Cag> = Vec::new();
        let mut metrics = self.ingest.metrics();
        // Reader-side noise discards join the ranker count so the
        // merged total matches a single-shard run.
        metrics.ranker.noise_discards = self.router.noise_discards;
        metrics.ranker.aged_settles = self.router.aged_settles;
        metrics.orphan_dropped = self.router.orphan_dropped;
        let mut noise_samples = std::mem::take(&mut self.router.noise_samples);
        for mut out in outputs {
            all.append(&mut out.cags);
            all.append(&mut out.unfinished);
            metrics.absorb(&out.metrics);
            noise_samples.append(&mut out.noise_samples);
            noise_samples.truncate(NOISE_SAMPLE_CAP);
        }
        all.sort_by(|a, b| {
            let key = |c: &Cag| {
                let r = &c.vertices[0];
                (r.ts, r.ctx.clone(), r.channel, r.size, c.vertices.len())
            };
            key(a).cmp(&key(b))
        });
        let mut cags = Vec::with_capacity(all.len());
        let mut unfinished = Vec::new();
        for (i, mut cag) in all.into_iter().enumerate() {
            cag.id = i as u64;
            if cag.finished {
                cags.push(cag);
            } else {
                unfinished.push(cag);
            }
        }
        metrics.wall = started.elapsed();
        CorrelationOutput {
            cags,
            unfinished,
            metrics,
            noise_samples,
        }
    }
}

/// Derives the per-worker config for a cluster of `n` workers: a
/// configured memory budget splits evenly so the configured total still
/// bounds resident correlation state.
pub(crate) fn worker_config(config: &CorrelatorConfig, n: usize) -> WorkerConfig {
    let mut wc = config.worker();
    if let Some(b) = wc.memory_budget {
        wc.memory_budget = Some((b / n).max(1));
    }
    wc
}

/// One shard worker's drain loop: deliver batches as they arrive,
/// finish when the feeding side hangs up.
fn run_worker(mut runner: EngineRunner, rx: Receiver<Vec<ShardMsg>>) -> CorrelationOutput {
    for batch in rx {
        for msg in batch {
            match msg {
                ShardMsg::Act(a) => runner.deliver(a, &mut ()),
                ShardMsg::ForgetCtx(ctx) => runner.engine.forget_ctx(&ctx),
            }
        }
    }
    let mut out = runner.finish(&());
    // Candidate selection happened in the router: one candidate per
    // delivered activity.
    let delivered = out.metrics.engine.delivered;
    out.metrics.ranker.enqueued = delivered;
    out.metrics.ranker.candidates = delivered;
    out
}

/// Where routed shard batches go — the single point of variation
/// between the sharded and the distributed pipeline. The front-end
/// ([`RoutedCorrelator`]) hands a sink each shard's messages in routing
/// order, in batches of exactly [`BATCH_RECORDS`] (a shorter one only on
/// a flush), so every sink's workers see the same input at the same
/// boundaries. `Send`, so a session can move between threads.
pub(crate) trait ShardSink: Send {
    /// Delivers the next batch of `shard`'s input.
    fn send(&mut self, shard: usize, batch: Vec<ShardMsg>) -> Result<(), TraceError>;
    /// Pushes everything sent so far towards the workers.
    fn flush(&mut self) -> Result<(), TraceError>;
    /// Ends the input and returns every worker's output, in global
    /// shard order (which the canonical merge requires).
    fn collect(&mut self) -> Result<Vec<CorrelationOutput>, TraceError>;
}

/// The thread sink: one engine runner per shard, each on its own thread
/// behind a bounded channel. [`Mode::Sharded`] runs one
/// block; a distributed router peer ([`crate::dist::serve_router`])
/// runs one for its slice of the global shards.
///
/// [`Mode::Sharded`]: crate::pipeline::Mode::Sharded
#[derive(Debug)]
pub(crate) struct WorkerBlock {
    txs: Vec<SyncSender<Vec<ShardMsg>>>,
    workers: Vec<JoinHandle<CorrelationOutput>>,
}

impl WorkerBlock {
    /// Spawns `n` workers running `worker_cfg` (see [`worker_config`]).
    pub(crate) fn spawn(worker_cfg: &WorkerConfig, n: usize) -> Result<Self, TraceError> {
        let mut block = WorkerBlock {
            txs: Vec::with_capacity(n),
            workers: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let runner = EngineRunner::new(worker_cfg)?;
            let (tx, rx) = sync_channel(CHANNEL_BATCHES);
            block.txs.push(tx);
            block
                .workers
                .push(std::thread::spawn(move || run_worker(runner, rx)));
        }
        Ok(block)
    }
}

impl ShardSink for WorkerBlock {
    fn send(&mut self, shard: usize, batch: Vec<ShardMsg>) -> Result<(), TraceError> {
        self.txs[shard]
            .send(batch)
            .map_err(|_| TraceError::config("shard worker terminated unexpectedly"))
    }

    fn flush(&mut self) -> Result<(), TraceError> {
        Ok(())
    }

    fn collect(&mut self) -> Result<Vec<CorrelationOutput>, TraceError> {
        // Hang up: workers drain their queues and finish. Every one is
        // joined before the first failure is reported.
        self.txs.clear();
        let joined: Vec<_> = self.workers.drain(..).map(JoinHandle::join).collect();
        joined
            .into_iter()
            .map(|out| out.map_err(|_| TraceError::config("shard worker panicked")))
            .collect()
    }
}

impl Drop for WorkerBlock {
    fn drop(&mut self) {
        // Hang up so abandoned workers terminate instead of blocking
        // forever on their receive loops.
        self.txs.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The routed correlation pipeline — the engine behind
/// [`Mode::Sharded`] and [`Mode::Distributed`]; callers reach it
/// through [`crate::pipeline::Pipeline`]. One [`ReaderCore`] routes,
/// one [`ShardSink`] carries the routed batches to the workers; see the
/// module docs for the architecture and the output-order contract.
///
/// [`Mode::Sharded`]: crate::pipeline::Mode::Sharded
/// [`Mode::Distributed`]: crate::pipeline::Mode::Distributed
pub(crate) struct RoutedCorrelator {
    core: ReaderCore,
    /// Per-shard batch under construction.
    pending: Vec<Vec<ShardMsg>>,
    sink: Box<dyn ShardSink>,
    started: Instant,
    finished: bool,
}

impl std::fmt::Debug for RoutedCorrelator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedCorrelator")
            .field("shards", &self.pending.len())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl RoutedCorrelator {
    /// The front-end over `shards` global shards whose batches go to
    /// `sink`. The config must already be validated.
    pub(crate) fn new(config: &CorrelatorConfig, shards: usize, sink: Box<dyn ShardSink>) -> Self {
        RoutedCorrelator {
            core: ReaderCore::new(config, shards as u32),
            pending: vec![Vec::with_capacity(BATCH_RECORDS); shards],
            sink,
            started: Instant::now(),
            finished: false,
        }
    }

    /// The sharded pipeline: `shards` worker threads (`0` = auto from
    /// [`std::thread::available_parallelism`], capped at 16). A
    /// configured [`CorrelatorConfig::memory_budget`] is split evenly
    /// across them.
    pub(crate) fn sharded(config: &CorrelatorConfig, shards: usize) -> Result<Self, TraceError> {
        let n = match shards {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(AUTO_SHARD_CAP),
            n => n,
        };
        let block = WorkerBlock::spawn(&worker_config(config, n), n)?;
        Ok(Self::new(config, n, Box::new(block)))
    }

    /// Approximate resident bytes of the reader-side routing state:
    /// deferred/noise lanes, per-channel claim FIFOs, waiter lists and
    /// undelivered shard batches. Worker-side correlation state is
    /// bounded separately (per-shard memory budget); this gauge covers
    /// the part only the router holds — the state that grows on an
    /// endless stream with heavy untraced-peer noise.
    pub fn approx_router_bytes(&self) -> usize {
        self.core.approx_bytes()
            + self
                .pending
                .iter()
                .map(|b| b.len() * std::mem::size_of::<ShardMsg>())
                .sum::<usize>()
    }

    fn guard(&self) -> Result<(), TraceError> {
        if self.finished {
            Err(TraceError::Finished)
        } else {
            Ok(())
        }
    }

    /// Routes everything currently routable, handing each shard's
    /// batch to the sink the moment it fills. `final_input`
    /// additionally breaks stuck states so the staging area fully
    /// drains.
    fn pump(&mut self, final_input: bool) -> Result<(), TraceError> {
        let RoutedCorrelator {
            core,
            pending,
            sink,
            ..
        } = self;
        core.router.pump(final_input, &mut |m, shard| {
            let shard = shard as usize;
            pending[shard].push(m);
            if pending[shard].len() >= BATCH_RECORDS {
                let batch =
                    std::mem::replace(&mut pending[shard], Vec::with_capacity(BATCH_RECORDS));
                sink.send(shard, batch)?;
            }
            Ok(())
        })
    }

    /// Hands every partial batch to the sink.
    fn send_partial_batches(&mut self) -> Result<(), TraceError> {
        for (shard, batch) in self.pending.iter_mut().enumerate() {
            if !batch.is_empty() {
                let batch = std::mem::replace(batch, Vec::with_capacity(BATCH_RECORDS));
                self.sink.send(shard, batch)?;
            }
        }
        Ok(())
    }

    /// Admits and stages one record without routing yet. Staging a
    /// complete record set before [`Self::finish`] accepts it in **any**
    /// order: the router's per-entity lanes re-sort it by local time,
    /// like the ranker's per-node sort.
    pub(crate) fn stage_ref(&mut self, r: &RawRecordRef<'_>) {
        self.core.stage_ref(r);
    }

    /// Routes one record into the pipeline, streaming everything
    /// currently routable to the workers.
    ///
    /// Records of one host must arrive in local-timestamp order (small
    /// inversions are re-sorted, like the ranker's staging queues);
    /// cross-host interleaving is free. For wholly unordered input
    /// [`Self::stage_ref`] the complete set first.
    ///
    /// Mid-stream, a RECEIVE whose channel has no known send yet
    /// defers inside the router — including untraced-peer noise,
    /// because a not-yet-arrived send is indistinguishable from one
    /// that never existed. Such heads settle at [`Self::finish`], or
    /// earlier under the bounded-age settle rule ([`LANE_SETTLE_DEPTH`]),
    /// which keeps router state bounded on endless noisy streams.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`], or the
    /// sink's error when a worker or router peer died.
    pub(crate) fn push_ref(&mut self, r: &RawRecordRef<'_>) -> Result<(), TraceError> {
        self.guard()?;
        self.stage_ref(r);
        self.pump(false)
    }

    /// Flushes all partial batches to the workers (they keep
    /// correlating; use before a lull to bound shard input latency).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] after [`Self::finish`].
    pub fn flush(&mut self) -> Result<(), TraceError> {
        self.guard()?;
        self.send_partial_batches()?;
        self.sink.flush()
    }

    /// Closes the pipeline: drains the router (with input closed,
    /// deferred receives resolve and stuck states break by promotion),
    /// sends every remaining batch, collects the workers' outputs and
    /// merges them into the canonical deterministic order (see the
    /// module docs). The correlator is spent afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Finished`] when called twice and the
    /// sink's error when a worker or router peer failed.
    pub fn finish(&mut self) -> Result<CorrelationOutput, TraceError> {
        self.guard()?;
        self.pump(true)?;
        self.send_partial_batches()?;
        self.finished = true;
        let outputs = self.sink.collect()?;
        Ok(self.core.merge(outputs, self.started))
    }
}

/// Routing introspection for diagnostics and tests: runs only the
/// reader-side front-end over a complete record set (staged whole, like
/// a batch run) and returns each activity with its shard assignment, in
/// dispatch order.
#[doc(hidden)]
pub fn route_records(
    config: &CorrelatorConfig,
    shards: usize,
    records: Vec<RawRecord>,
) -> Result<Vec<(Activity, u32)>, TraceError> {
    route(config, shards, &records, false)
}

/// [`route_records`]; with `pump_each_record` the router pumps after
/// every record, mirroring the streaming `push` flow — for
/// per-host-ordered input it must produce identical assignments.
fn route(
    config: &CorrelatorConfig,
    shards: usize,
    records: &[RawRecord],
    pump_each_record: bool,
) -> Result<Vec<(Activity, u32)>, TraceError> {
    config.validate()?;
    let mut core = ReaderCore::new(config, shards.max(1) as u32);
    core.router.route_orphans = true;
    let mut out = Vec::new();
    let mut dispatch = |m: ShardMsg, shard: u32| -> Result<(), TraceError> {
        if let ShardMsg::Act(a) = m {
            out.push((a, shard));
        }
        Ok(())
    };
    for rec in records {
        core.stage_ref(&rec.as_record_ref());
        if pump_each_record {
            core.router.pump(false, &mut dispatch)?;
        }
    }
    core.router.pump(true, &mut dispatch)?;
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::access::{AccessPointSpec, Classifier};
    use crate::filter::FilterSet;
    use crate::pipeline::{Mode, Pipeline, PipelineConfig, Source};
    use crate::raw::parse_log;

    /// Owned records and lines enter as borrowed views.
    impl RoutedCorrelator {
        fn stage(&mut self, rec: RawRecord) {
            self.stage_ref(&rec.as_record_ref());
        }

        fn push(&mut self, rec: RawRecord) -> Result<(), TraceError> {
            self.push_ref(&rec.as_record_ref())
        }

        fn push_line(&mut self, line: &str) -> Result<(), TraceError> {
            self.push_ref(&RawRecordRef::parse_line(line)?)
        }
    }

    pub(crate) fn access() -> AccessPointSpec {
        AccessPointSpec::new(
            [80],
            [
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
                "10.0.0.3".parse().unwrap(),
            ],
        )
    }

    impl SessionRouter {
        /// A router without idle GC or bounded-age settling that routes
        /// orphan chains too.
        fn bare(shards: u32) -> Self {
            let mut router = SessionRouter::new(shards);
            router.idle_horizon = None;
            router.settle_depth = None;
            router.route_orphans = true;
            router
        }
    }

    /// A sharded run over `log`'s records, staged whole, with `tune`
    /// applied to the session router first.
    fn sharded_with(
        tune: impl FnOnce(&mut SessionRouter),
        shards: usize,
        log: &str,
    ) -> CorrelationOutput {
        let mut rc = RoutedCorrelator::sharded(&CorrelatorConfig::new(access()), shards).unwrap();
        tune(&mut rc.core.router);
        for rec in parse_log(log).unwrap() {
            rc.stage(rec);
        }
        rc.finish().unwrap()
    }

    /// A whole-source run of the sharded pipeline.
    pub(crate) fn sharded(
        config: CorrelatorConfig,
        shards: usize,
        source: Source<'_>,
    ) -> CorrelationOutput {
        Pipeline::new(PipelineConfig::from(config).with_mode(Mode::Sharded(shards)))
            .unwrap()
            .run(source)
            .unwrap()
    }

    /// Two interleaved three-tier requests from different clients plus
    /// untraced-peer noise.
    fn two_session_log() -> String {
        let mut log = String::new();
        for (client, base) in [("192.168.0.9:5000", 0u64), ("192.168.0.10:6000", 300)] {
            let port = 4001 + base;
            for line in [
                format!(
                    "{} web httpd 7 {} RECEIVE {client}-10.0.0.1:80 120",
                    1000 + base,
                    7 + base
                ),
                format!(
                    "{} web httpd 7 {} SEND 10.0.0.1:{port}-10.0.0.2:8009 64",
                    2000 + base,
                    7 + base
                ),
                format!(
                    "{} app java 9 {} RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64",
                    500900 + base,
                    21 + base
                ),
                format!(
                    "{} app java 9 {} SEND 10.0.0.2:8009-10.0.0.1:{port} 256",
                    504000 + base,
                    21 + base
                ),
                format!(
                    "{} web httpd 7 {} RECEIVE 10.0.0.2:8009-10.0.0.1:{port} 256",
                    4500 + base,
                    7 + base
                ),
                format!(
                    "{} web httpd 7 {} SEND 10.0.0.1:80-{client} 512",
                    5000 + base,
                    7 + base
                ),
            ] {
                log.push_str(&line);
                log.push('\n');
            }
        }
        log.push_str("902000 db mysqld 5 77 RECEIVE 172.16.9.9:6000-10.0.0.3:3306 48\n");
        log.push_str("902500 db mysqld 5 77 SEND 10.0.0.3:3306-172.16.9.9:6000 99\n");
        log
    }

    /// Interleaved three-tier requests from several clients plus
    /// untraced-peer noise, enough sessions to spread across shards.
    pub(crate) fn cluster_log(clients: usize) -> String {
        let mut log = String::new();
        for c in 0..clients as u64 {
            let base = c * 250;
            let port = 4001 + c;
            let tid = 7 + c;
            for line in [
                format!(
                    "{} web httpd 7 {tid} RECEIVE 192.168.0.9:{}-10.0.0.1:80 120",
                    1000 + base,
                    5000 + c
                ),
                format!(
                    "{} web httpd 7 {tid} SEND 10.0.0.1:{port}-10.0.0.2:8009 64",
                    2000 + base
                ),
                format!(
                    "{} app java 9 {} RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64",
                    500_900 + base,
                    21 + c
                ),
                format!(
                    "{} app java 9 {} SEND 10.0.0.2:8009-10.0.0.1:{port} 256",
                    504_000 + base,
                    21 + c
                ),
                format!(
                    "{} web httpd 7 {tid} RECEIVE 10.0.0.2:8009-10.0.0.1:{port} 256",
                    4500 + base
                ),
                format!(
                    "{} web httpd 7 {tid} SEND 10.0.0.1:80-192.168.0.9:{} 512",
                    5000 + base,
                    5000 + c
                ),
            ] {
                log.push_str(&line);
                log.push('\n');
            }
        }
        log
    }

    /// Content fingerprint that ignores stream order and ids.
    fn fingerprint(out: &CorrelationOutput) -> Vec<String> {
        let mut v: Vec<String> = out
            .cags
            .iter()
            .map(|c| {
                format!(
                    "{:?}|{}",
                    c.sorted_tags(),
                    c.vertices
                        .iter()
                        .map(|x| format!(
                            "{} {} {} {} {:?} {:?};",
                            x.ty, x.ts, x.channel, x.size, x.ctx_parent, x.msg_parent
                        ))
                        .collect::<String>()
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn sharded_matches_batch_content_for_any_shard_count() {
        let log = two_session_log();
        let records = parse_log(&log).unwrap();
        let batch = Pipeline::new(CorrelatorConfig::new(access()).into())
            .unwrap()
            .run(Source::records(records.clone()))
            .unwrap();
        for shards in [1, 2, 3, 4, 8] {
            let out = sharded(
                CorrelatorConfig::new(access()),
                shards,
                Source::records(records.clone()),
            );
            assert_eq!(out.cags.len(), batch.cags.len(), "shards={shards}");
            assert_eq!(fingerprint(&out), fingerprint(&batch), "shards={shards}");
            assert_eq!(out.metrics.records_in, batch.metrics.records_in);
            assert_eq!(out.metrics.cags_finished, batch.metrics.cags_finished);
            assert_eq!(
                out.metrics.ranker.noise_discards,
                batch.metrics.ranker.noise_discards
            );
            // Canonical order: ids are sequential in stream order.
            let ids: Vec<u64> = out.cags.iter().map(|c| c.id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "shards={shards}");
            for cag in &out.cags {
                cag.validate().expect("valid sharded CAG");
            }
        }
    }

    #[test]
    fn shard_count_does_not_change_bytes() {
        let log = two_session_log();
        let base = sharded(CorrelatorConfig::new(access()), 1, Source::text(&log));
        for shards in [2, 4, 7] {
            let out = sharded(CorrelatorConfig::new(access()), shards, Source::text(&log));
            assert_eq!(
                format!("{:?}", out.cags),
                format!("{:?}", base.cags),
                "shards={shards}"
            );
            assert_eq!(out.unfinished.len(), base.unfinished.len());
        }
    }

    #[test]
    fn text_and_record_ingest_agree() {
        let log = two_session_log();
        let records = parse_log(&log).unwrap();
        let a = sharded(CorrelatorConfig::new(access()), 3, Source::text(&log));
        let b = sharded(CorrelatorConfig::new(access()), 3, Source::records(records));
        assert_eq!(format!("{:?}", a.cags), format!("{:?}", b.cags));
        assert_eq!(a.metrics.records_in, b.metrics.records_in);
    }

    #[test]
    fn filters_apply_in_the_reader() {
        let mut log = two_session_log();
        log.push_str("600 web sshd 99 99 RECEIVE 172.16.9.9:7000-10.0.0.1:22 500\n");
        let cfg =
            CorrelatorConfig::new(access()).with_filters(FilterSet::new().drop_program("sshd"));
        let out = sharded(cfg, 4, Source::text(&log));
        assert_eq!(out.metrics.filtered_out, 1);
        assert_eq!(out.cags.len(), 2);
    }

    #[test]
    fn api_after_finish_returns_finished_error() {
        let mut sc = RoutedCorrelator::sharded(&CorrelatorConfig::new(access()), 2).unwrap();
        sc.push_line("1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120")
            .unwrap();
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.records_in, 1);
        assert_eq!(out.unfinished.len(), 1);
        let rec: RawRecord = "2000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512"
            .parse()
            .unwrap();
        assert_eq!(sc.push(rec), Err(TraceError::Finished));
        assert_eq!(sc.flush(), Err(TraceError::Finished));
        assert!(matches!(sc.finish(), Err(TraceError::Finished)));
    }

    #[test]
    fn zero_shards_resolves_to_auto() {
        let sc = RoutedCorrelator::sharded(&CorrelatorConfig::new(access()), 0).unwrap();
        assert!((1..=AUTO_SHARD_CAP).contains(&sc.pending.len()));
    }

    /// A sink that only records what the front-end hands it: no
    /// threads, no sockets.
    #[derive(Clone, Default)]
    struct Recording(std::sync::Arc<std::sync::Mutex<Vec<String>>>);

    impl ShardSink for Recording {
        fn send(&mut self, shard: usize, batch: Vec<ShardMsg>) -> Result<(), TraceError> {
            let mut log = self.0.lock().unwrap();
            log.push(format!("send {shard} x{}", batch.len()));
            log.extend(batch.iter().map(|m| format!("{shard}: {m:?}")));
            Ok(())
        }

        fn flush(&mut self) -> Result<(), TraceError> {
            Ok(())
        }

        fn collect(&mut self) -> Result<Vec<CorrelationOutput>, TraceError> {
            self.0.lock().unwrap().push("collect".into());
            Ok(Vec::new())
        }
    }

    #[test]
    fn every_feed_hands_the_sink_the_same_exact_chunks() {
        // 6 messages per client over 2 shards: both shards pass 4,096.
        // Sorted by timestamp the log is per-host ordered, so staging
        // it whole, pushing it line by line and pushing owned records
        // must route identically.
        let mut lines: Vec<String> = cluster_log(1_600).lines().map(str::to_owned).collect();
        lines.sort_by_key(|l| l.split(' ').next().unwrap().parse::<u64>().unwrap());
        let config = CorrelatorConfig::new(access());
        let feed = |each: &mut dyn FnMut(&mut RoutedCorrelator, &str)| {
            let sink = Recording::default();
            let mut rc = RoutedCorrelator::new(&config, 2, Box::new(sink.clone()));
            for line in &lines {
                each(&mut rc, line);
            }
            rc.finish().unwrap();
            let log = std::mem::take(&mut *sink.0.lock().unwrap());
            log
        };
        let staged = feed(&mut |rc, l| rc.stage_ref(&RawRecordRef::parse_line(l).unwrap()));
        let by_line = feed(&mut |rc, l| rc.push_line(l).unwrap());
        let by_record = feed(&mut |rc, l| rc.push(l.parse().unwrap()).unwrap());
        assert!(staged == by_line, "push_line fed the sink differently");
        assert!(staged == by_record, "push fed the sink differently");

        let sends: Vec<&String> = staged.iter().filter(|l| l.starts_with("send")).collect();
        for shard in 0..2 {
            let sizes: Vec<&str> = sends
                .iter()
                .filter_map(|l| l.strip_prefix(&format!("send {shard} x")))
                .collect();
            let (last, full) = sizes.split_last().unwrap();
            assert!(!full.is_empty(), "shard {shard} never filled a batch");
            assert!(
                full.iter().all(|&n| n == "4096"),
                "shard {shard}: {sizes:?}"
            );
            assert!(last.parse::<usize>().unwrap() <= BATCH_RECORDS);
        }
        // Full batches leave during the routing pass, not after it:
        // whole-file staging routes only inside `finish`, and still the
        // sink has its first batch before `collect`.
        let first_send = staged.iter().position(|l| l.starts_with("send")).unwrap();
        let collect = staged.iter().position(|l| l == "collect").unwrap();
        assert!(first_send < collect && collect == staged.len() - 1);
    }

    fn fmt_routed(v: &[(Activity, u32)]) -> Vec<String> {
        let mut s: Vec<String> = v.iter().map(|(a, sh)| format!("{a} -> {sh}")).collect();
        s.sort();
        s
    }

    #[test]
    fn routing_is_independent_of_pump_interleaving() {
        // The routing contract: for per-host-ordered input, assignments
        // are a pure function of the per-entity sequences and
        // per-channel claim FIFOs — staging everything before one
        // final pump and pumping after every record must produce
        // identical (activity, shard) streams.
        let log = two_session_log();
        let config = CorrelatorConfig::new(access());
        let records = parse_log(&log).unwrap();
        let batch = route_records(&config, 4, records.clone()).unwrap();
        let streaming = route(&config, 4, &records, true).unwrap();
        assert_eq!(fmt_routed(&batch), fmt_routed(&streaming));
    }

    #[test]
    fn stage_all_routing_absorbs_arbitrary_input_order() {
        // The batch entry point stages the complete set first, so even
        // fully reversed input (every lane built by insertion sort)
        // routes identically to the in-order run.
        let log = two_session_log();
        let config = CorrelatorConfig::new(access());
        let records = parse_log(&log).unwrap();
        let in_order = route_records(&config, 4, records.clone()).unwrap();
        let mut reversed = records;
        reversed.reverse();
        let rev = route_records(&config, 4, reversed).unwrap();
        assert_eq!(fmt_routed(&in_order), fmt_routed(&rev));
    }

    #[test]
    fn router_memory_grows_and_shrinks_across_deferred_claims() {
        // A RECEIVE whose claiming SEND has not arrived defers on its
        // lane; the router's memory gauge must reflect the deferred
        // state and fall back once the claim routes it.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let mut router = SessionRouter::bare(4);
        let mut sink = |_m: ShardMsg, _s: u32| -> Result<(), TraceError> { Ok(()) };
        let mut feed = |router: &mut SessionRouter, line: String| {
            let rec: RawRecord = line.parse().unwrap();
            router.stage(classifier.classify(&rec));
            router
                .pump(false, &mut sink)
                .expect("dispatch cannot fail here");
        };
        let send = |i: u64, t: u64| {
            format!(
                "{t} web httpd 7 {} SEND 10.0.0.1:{}-10.0.0.2:8009 64",
                7 + i,
                4001 + i
            )
        };
        let recv = |i: u64, t: u64| {
            format!(
                "{t} app java 9 {} RECEIVE 10.0.0.1:{}-10.0.0.2:8009 64",
                21 + i,
                4001 + i
            )
        };

        // Warm-up: one routed round per channel creates the lanes and
        // claim entries that persist by design.
        for i in 0..3u64 {
            feed(&mut router, send(i, 1_000 + i));
            feed(&mut router, recv(i, 2_000 + i));
        }
        let base = router.approx_bytes();

        // A second round of receives arrives before its sends: each
        // defers on its lane, growing router memory monotonically.
        let mut grow = vec![base];
        for i in 0..3u64 {
            feed(&mut router, recv(i, 10_000 + i));
            grow.push(router.approx_bytes());
        }
        assert!(
            grow.windows(2).all(|w| w[0] < w[1]),
            "deferred claims must grow router memory: {grow:?}"
        );
        let deferred = *grow.last().unwrap();

        // The claiming sends arrive: deferred lanes drain and the
        // gauge returns exactly to the warmed-up baseline.
        for i in 0..3u64 {
            feed(&mut router, send(i, 9_000 + i));
        }
        let drained = router.approx_bytes();
        assert!(
            drained < deferred,
            "routed claims must shrink router memory: {deferred} -> {drained}"
        );
        assert_eq!(drained, base, "drained router returns to its baseline");
        assert_eq!(router.staged, 0, "nothing may stay staged");
    }

    #[test]
    fn channel_idle_gc_reclaims_drained_channels() {
        // Many one-shot channels (one send + one covering receive
        // each): without a horizon the router keeps one claims entry
        // per channel forever; with one, drained channels are evicted
        // once idle past the horizon and the memory gauge shrinks.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let run = |horizon: Option<u64>| {
            let mut router = SessionRouter::bare(4);
            router.idle_horizon = horizon;
            let mut sink = |_m: ShardMsg, _s: u32| -> Result<(), TraceError> { Ok(()) };
            let mut grow_peak = 0usize;
            for i in 0..400u64 {
                let port = 4001 + i;
                let t = 1_000 + i * 10;
                for line in [
                    format!("{t} web httpd 7 7 SEND 10.0.0.1:{port}-10.0.0.2:8009 64"),
                    format!(
                        "{} app java 9 21 RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64",
                        t + 5
                    ),
                ] {
                    let rec: RawRecord = line.parse().unwrap();
                    router.stage(classifier.classify(&rec));
                    router.pump(false, &mut sink).unwrap();
                }
                grow_peak = grow_peak.max(router.approx_bytes());
            }
            (router, grow_peak)
        };
        let (no_gc, _) = run(None);
        let (gc, gc_peak) = run(Some(64));
        assert_eq!(no_gc.claims.len(), 400, "without GC every channel persists");
        assert!(
            gc.claims.len() < 64,
            "idle channels must be evicted: {} entries left",
            gc.claims.len()
        );
        assert!(
            gc.idle_evicted > 300,
            "evictions counted: {}",
            gc.idle_evicted
        );
        assert!(
            gc.approx_bytes() < no_gc.approx_bytes(),
            "GC router resident {} must undercut {}",
            gc.approx_bytes(),
            no_gc.approx_bytes()
        );
        // Grow-then-shrink: the gauge grew past its final value.
        assert!(gc_peak > gc.approx_bytes());
    }

    #[test]
    fn channel_idle_gc_does_not_change_output_on_live_traffic() {
        // Channels that stay active within the horizon are never
        // evicted, so output is byte-identical with and without GC.
        let log = two_session_log();
        let base = sharded(CorrelatorConfig::new(access()), 3, Source::text(&log));
        let gc = sharded_with(|r| r.idle_horizon = Some(4), 3, &log);
        assert_eq!(format!("{:?}", gc.cags), format!("{:?}", base.cags));
        assert_eq!(gc.unfinished.len(), base.unfinished.len());
        assert_eq!(
            gc.metrics.ranker.noise_discards,
            base.metrics.ranker.noise_discards
        );
    }

    #[test]
    fn bounded_age_settle_caps_an_always_deferred_lane() {
        // Pathological lane: a thread that only ever RECEIVEs on a
        // channel whose SEND side is never captured (dead or untraced
        // peer). Mid-stream such a head is undecidable — the send may
        // still arrive — so without a settle depth the lane parks and
        // buffers every later record forever. With one, the head is
        // settled as noise once `depth` records pile up behind it, so
        // the lane's resident depth is capped at the knob.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let run = |depth: Option<u64>| {
            let mut router = SessionRouter::bare(4);
            router.settle_depth = depth;
            let mut sink = |_m: ShardMsg, _s: u32| -> Result<(), TraceError> { Ok(()) };
            for i in 0..200u64 {
                let line = format!(
                    "{} app java 9 21 RECEIVE 10.0.0.1:6001-10.0.0.2:8009 64",
                    1_000 + i
                );
                let rec: RawRecord = line.parse().unwrap();
                router.stage(classifier.classify(&rec));
                router.pump(false, &mut sink).unwrap();
            }
            router
        };
        let parked = run(None);
        assert_eq!(parked.staged, 200, "without the rule every record parks");
        assert_eq!(parked.aged_settles, 0);
        let settled = run(Some(8));
        assert!(
            settled.staged <= 8,
            "the lane must stay within the settle depth: {} staged",
            settled.staged
        );
        assert_eq!(
            settled.aged_settles, 192,
            "each record past the depth settles one head"
        );
        assert_eq!(
            settled.noise_discards, settled.aged_settles,
            "claimless settled heads are discarded exactly like end-of-input noise"
        );
        assert!(
            settled.approx_bytes() < parked.approx_bytes() / 4,
            "settling must cap router memory: {} vs {}",
            settled.approx_bytes(),
            parked.approx_bytes()
        );
    }

    #[test]
    fn bounded_age_settle_waits_for_claims_staged_on_live_lanes() {
        // The rule must NOT fire when the head's claim is merely staged
        // on another lane (shared-channel turn ordering parks the send
        // behind an earlier stager): progress is guaranteed, and an
        // early settle would mis-route the receive. A depth of 1 makes
        // the settle maximally eager, yet output must match the
        // default run byte-for-byte on a live log.
        let log = two_session_log();
        let base = sharded(CorrelatorConfig::new(access()), 3, Source::text(&log));
        let eager = sharded_with(|r| r.settle_depth = Some(1), 3, &log);
        assert_eq!(format!("{:?}", eager.cags), format!("{:?}", base.cags));
        assert_eq!(eager.unfinished.len(), base.unfinished.len());
    }

    #[test]
    fn orphan_chain_records_drop_reader_side() {
        // The untraced-peer noise pair in `two_session_log` can never
        // reach an emitted CAG: the engine would park it on an orphan
        // chain and throw it away at finish. The reader drops such
        // records before dispatch (counted in `orphan_dropped`), and the
        // output bytes are those of the batch run, whose one engine
        // sees every record.
        let log = two_session_log();
        let drop_out = sharded(CorrelatorConfig::new(access()), 3, Source::text(&log));
        let batch_out = Pipeline::new(PipelineConfig::new(access()))
            .unwrap()
            .run(Source::text(&log))
            .unwrap();
        assert!(
            drop_out.metrics.orphan_dropped > 0,
            "the noise pair must be dropped reader-side"
        );
        assert_eq!(batch_out.metrics.orphan_dropped, 0);
        assert_eq!(
            format!("{:?}{:?}", drop_out.cags, drop_out.unfinished),
            format!("{:?}{:?}", batch_out.cags, batch_out.unfinished),
            "dropping orphan chains must not change emitted bytes"
        );
        assert_eq!(
            drop_out.metrics.ranker.noise_discards,
            batch_out.metrics.ranker.noise_discards
        );
    }

    #[test]
    fn range_dedup_coverage_follows_channel_idle_gc() {
        // Many one-shot v2 channels: without a horizon the reader keeps
        // one `RangeDedup` coverage entry per (channel, op) forever;
        // with one, a drained channel's coverage is evicted together
        // with its router claims, and the memory gauge shrinks.
        let run = |horizon: Option<u64>| {
            let mut sc = RoutedCorrelator::sharded(&CorrelatorConfig::new(access()), 2).unwrap();
            sc.core.router.idle_horizon = horizon;
            let mut peak = 0usize;
            for i in 0..400u64 {
                let port = 4001 + i;
                let t = 1_000 + i * 10;
                sc.push_line(&format!(
                    "{t} web httpd 7 7 SEND 10.0.0.1:{port}-10.0.0.2:8009 64 seq=0"
                ))
                .unwrap();
                sc.push_line(&format!(
                    "{} app java 9 21 RECEIVE 10.0.0.1:{port}-10.0.0.2:8009 64 seq=0",
                    t + 5
                ))
                .unwrap();
                peak = peak.max(sc.approx_router_bytes());
            }
            (sc.approx_router_bytes(), peak)
        };
        let (no_gc, _) = run(None);
        let (gc, gc_peak) = run(Some(64));
        assert!(
            gc < no_gc,
            "evicting drained channels' coverage must shrink the reader: {gc} vs {no_gc}"
        );
        // Grow-then-shrink: the gauge grew past its final value.
        assert!(gc_peak > gc, "gauge must have peaked above {gc}: {gc_peak}");
    }

    #[test]
    fn range_claims_survive_send_record_gaps() {
        // A v2 channel where the tail send chunk's record was lost to
        // partial capture: the receive's range proves the deficit is
        // permanent (a later send is already staged), so it resolves
        // mid-stream to the right shard instead of deadlocking the
        // lane until finish.
        let config = CorrelatorConfig::new(access());
        let classifier = Classifier::new(config.access.clone());
        let mut router = SessionRouter::bare(4);
        let mut routed: Vec<(Activity, u32)> = Vec::new();
        let feed = |router: &mut SessionRouter, line: &str, out: &mut Vec<(Activity, u32)>| {
            let rec: RawRecord = line.parse().unwrap();
            router.stage(classifier.classify(&rec));
            let mut sink = |m: ShardMsg, s: u32| -> Result<(), TraceError> {
                if let ShardMsg::Act(a) = m {
                    out.push((a, s));
                }
                Ok(())
            };
            router.pump(false, &mut sink).unwrap();
        };
        // Send chunks [0,4096) and — LOST — [4096,4360); the next
        // message's send [4360,8456) is staged before the receive
        // resolves.
        feed(
            &mut router,
            "1000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:8009 4096 seq=0",
            &mut routed,
        );
        feed(
            &mut router,
            "1200 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:8009 4096 seq=4360",
            &mut routed,
        );
        let sends_shard = routed[0].1;
        assert_eq!(routed.len(), 2);
        // The receive covers [0,4360): 264 bytes have no claim and
        // never will (max staged send offset is already 8456).
        feed(
            &mut router,
            "2000 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:8009 4360 seq=0",
            &mut routed,
        );
        assert_eq!(routed.len(), 3, "gapped receive must resolve mid-stream");
        assert_eq!(routed[2].1, sends_shard, "and to the claiming send's shard");
        assert_eq!(router.staged, 0);
        assert_eq!(router.forced_routes, 0, "no stuck-breaker involved");
    }

    #[test]
    fn sharded_reader_drops_retrans_like_the_streaming_path() {
        let mut log = two_session_log();
        log.push_str("4600 web httpd 7 7 RECEIVE 10.0.0.2:8009-10.0.0.1:4001 256 retrans\n");
        let records = parse_log(&log).unwrap();
        let batch = Pipeline::new(CorrelatorConfig::new(access()).into())
            .unwrap()
            .run(Source::records(records.clone()))
            .unwrap();
        let sharded = sharded(CorrelatorConfig::new(access()), 3, Source::records(records));
        assert_eq!(batch.metrics.retrans_dropped, 1);
        assert_eq!(sharded.metrics.retrans_dropped, 1);
        assert_eq!(sharded.cags.len(), batch.cags.len());
        assert_eq!(fingerprint(&sharded), fingerprint(&batch));
    }

    #[test]
    fn approx_router_bytes_is_exposed() {
        let mut sc = RoutedCorrelator::sharded(&CorrelatorConfig::new(access()), 2).unwrap();
        let base = sc.approx_router_bytes();
        // An orphan receive on an unclaimed channel defers in the
        // router until finish.
        sc.push_line("902000 db mysqld 5 77 RECEIVE 172.16.9.9:6000-10.0.0.3:3306 48")
            .unwrap();
        assert!(sc.approx_router_bytes() > base);
        let out = sc.finish().unwrap();
        assert_eq!(out.metrics.ranker.noise_discards, 1);
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let cfg = CorrelatorConfig::new(AccessPointSpec::default());
        assert!(Pipeline::new(PipelineConfig::from(cfg).with_mode(Mode::Sharded(4))).is_err());
    }

    #[test]
    fn jump_hash_is_stable_and_in_range() {
        for key in 0..200u64 {
            let b4 = jump_hash(key, 4);
            let b5 = jump_hash(key, 5);
            assert!(b4 < 4);
            assert!(b5 < 5);
            // Consistency: growing the shard count either keeps the
            // bucket or moves the key to the new bucket range.
            if b5 != b4 {
                assert_eq!(b5, 4, "key {key} moved to an old bucket");
            }
        }
        assert_eq!(jump_hash(42, 1), 0);
    }

    #[test]
    fn memory_budget_splits_across_shards() {
        // A tiny budget still bounds each shard: both halves of it
        // bind, cold paths page out (counted in the merged metrics) and
        // every one of them comes back at finish.
        let access = AccessPointSpec::new([80], ["10.0.0.1".parse().unwrap()]);
        let mut cfg = CorrelatorConfig::new(access).with_memory_budget(16 * 1024);
        cfg.mem_sample_every = 8;
        let mut sc = RoutedCorrelator::sharded(&cfg, 2).unwrap();
        for i in 0..4_000u64 {
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
        }
        let out = sc.finish().unwrap();
        assert!(out.metrics.engine.spilled_cags > 0);
        assert_eq!(out.unfinished.len(), 4_000, "spill must not cost recall");
        assert_eq!(out.metrics.cags_unfinished, 4_000);
    }
}
