//! Candidate selection — the ranker (§4.1, §4.3).
//!
//! Activities logged on different nodes are fetched into per-node queues
//! when their local timestamps fall within a **sliding time window**.
//! Because every queue is ordered by its own node's clock, the window is
//! independent of clock skew: each queue simply holds at most a
//! window's worth of *its own* local time, and the algorithm never
//! compares timestamps across nodes for correctness (§4.1: the window
//! "could be any value larger than 0").
//!
//! The ranker then repeatedly picks a *candidate* among the queue heads:
//!
//! * **Rule 1** — a RECEIVE head whose matching unmatched SEND is already
//!   in the engine's `mmap` is the candidate.
//! * **Rule 2** — otherwise the head with the lowest type priority
//!   (`BEGIN < SEND < END < RECEIVE`) is the candidate.
//!
//! When every head is a RECEIVE and none matches (`Rule 1` failed), the
//! ranker is *stuck*. Two disturbances cause this (§4.3):
//!
//! * **concurrency disturbance** — on multi-processor nodes the matching
//!   SEND can be queued *behind* another head RECEIVE; the ranker swaps
//!   the blocking head with its successor (Fig. 6) until the SEND
//!   surfaces;
//! * **noise** — a RECEIVE from an untraced peer has no matching SEND at
//!   all; after optionally extending the fetch window
//!   ([`RankerOptions::fetch_boost`]) the ranker discards it, which is
//!   exactly the paper's `is_noise` predicate (no match in `mmap`, no
//!   match in the ranker buffer). Once every queue is closed the
//!   predicate is decidable in O(1) — no pending send in the engine, no
//!   SEND on the channel anywhere in the remaining input — and is
//!   decided *before* the swap search; while a queue is open the SEND
//!   may still arrive, so the ranker searches, then waits.

use std::collections::{BTreeSet, VecDeque};
use std::mem::size_of;
use std::net::Ipv4Addr;
use std::sync::Arc;

use crate::activity::{Activity, ActivityType, Channel, ContextId, LocalTime, Nanos};
use crate::fasthash::FxHashMap;

/// Lets the ranker ask the engine about the `mmap` state (Rule 1 /
/// `is_noise`).
pub trait MatchOracle {
    /// True when `X -m> a` holds for an unmatched SEND `X` already in
    /// the `mmap` — i.e. the front pending send on `a`'s channel has at
    /// least `a.size` unreceived bytes. The byte condition matters with
    /// chunked messages (Fig. 4): popping a RECEIVE whose bytes span a
    /// SEND segment that has not been delivered yet would break the
    /// size-based matching, so such a RECEIVE must wait for Rule 2 to
    /// pop the remaining SEND segments first.
    fn rule1_matches(&self, a: &Activity) -> bool;

    /// True when *any* unmatched send exists on `a`'s channel —
    /// `is_noise` is only true when there is none at all.
    fn has_any_pending(&self, a: &Activity) -> bool;
}

/// A [`MatchOracle`] that never matches; useful for tests and for running
/// the ranker standalone.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOracle;

impl MatchOracle for NoOracle {
    fn rule1_matches(&self, _a: &Activity) -> bool {
        false
    }

    fn has_any_pending(&self, _a: &Activity) -> bool {
        false
    }
}

/// How the sliding time window is chosen.
///
/// `Static` uses [`RankerOptions::window`] verbatim (the paper's fixed
/// `--window-ms` knob, swept by hand in Fig. 10). `Adaptive` derives the
/// window online from observed per-channel round-trip latencies: each
/// node's SEND→RECEIVE round trip on a channel pair is measured in that
/// node's *own* local time (so clock skew cancels), aggregated per
/// `(src ip, dst ip)` pair, and the window tracks
/// `p99 × slack`, clamped to `[min, max]`. This automates the §4.3
/// accuracy-vs-memory trade-off: the window follows the service's
/// in-flight span instead of being a hand-tuned constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Fixed window from [`RankerOptions::window`].
    Static,
    /// Window follows observed per-channel latency quantiles.
    Adaptive {
        /// Multiplier applied to the p99 round-trip latency.
        slack: u32,
        /// Lower clamp (also the starting window before any samples).
        min: Nanos,
        /// Upper clamp.
        max: Nanos,
    },
}

impl WindowPolicy {
    /// The default adaptive policy: `p99 × 4`, clamped to
    /// `[1ms, 10s]`.
    pub const fn adaptive_default() -> Self {
        WindowPolicy::Adaptive {
            slack: 4,
            min: Nanos::from_millis(1),
            max: Nanos::from_secs(10),
        }
    }
}

/// Ranker tunables and ablation switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankerOptions {
    /// Sliding time window (per-node local time span held in the buffer).
    pub window: Nanos,
    /// How the effective window is derived (static knob vs adaptive
    /// latency tracking). `Static` preserves `window` as-is.
    pub window_policy: WindowPolicy,
    /// Enable concurrency-disturbance head swapping (§4.3, Fig. 6).
    /// Disabling is the EXT-2 "no swap" ablation.
    pub swap: bool,
    /// Maximum number of window doublings when stuck, before declaring
    /// the blocking RECEIVE noise. The boosted window must be able to
    /// cover the service's in-flight span (roughly its worst response
    /// time), or matchable receives behind a noise blocker could be
    /// misdeclared noise; 2^16 x window is ample for any practical
    /// window. 0 reproduces the paper's strict buffer-only `is_noise`.
    pub fetch_boost: u32,
    /// Discard unmatched RECEIVEs (`is_noise`). When disabled they are
    /// delivered to the engine, which counts them as unmatched.
    pub noise_discard: bool,
}

impl Default for RankerOptions {
    fn default() -> Self {
        RankerOptions {
            window: Nanos::from_millis(10),
            window_policy: WindowPolicy::Static,
            swap: true,
            fetch_boost: 16,
            noise_discard: true,
        }
    }
}

/// Counters describing the ranker's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankerCounters {
    /// Activities accepted into per-node queues.
    pub enqueued: u64,
    /// Candidates handed to the engine.
    pub candidates: u64,
    /// Candidates chosen by Rule 1.
    pub rule1: u64,
    /// Candidates chosen by Rule 2.
    pub rule2: u64,
    /// Head swaps performed for concurrency disturbances.
    pub swaps: u64,
    /// Window extensions performed while stuck.
    pub fetch_boosts: u64,
    /// RECEIVEs discarded as noise (`is_noise`).
    pub noise_discards: u64,
    /// Sharded mode: parked lane heads force-settled by the
    /// bounded-age settle rule
    /// ([`crate::correlator::CorrelatorConfig::lane_settle_depth`])
    /// before end of input.
    pub aged_settles: u64,
    /// Blocked RECEIVEs force-delivered although their pending send had
    /// too few bytes (lost SEND records; produces a deformed CAG rather
    /// than silently dropping the path).
    pub forced_deliveries: u64,
    /// High-water mark of buffered activities across all queues.
    pub peak_buffered: usize,
    /// Round-trip latency samples observed for adaptive windowing.
    pub rtt_samples: u64,
    /// Times the adaptive window was recomputed from the quantiles.
    pub window_updates: u64,
    /// Adaptive updates where the memory-budget clamp bound the window
    /// below the latency-derived target (see
    /// [`Ranker::set_adaptive_budget`]).
    pub window_clamps: u64,
    /// The adaptive window after the last update, in nanoseconds
    /// (a gauge: `absorb` takes the max; `0` under the static policy).
    pub adaptive_window_ns: u64,
}

impl RankerCounters {
    /// Folds another counter set into this one: event counts are sums,
    /// `peak_buffered` (a high-water mark of concurrently resident
    /// state) is summed too — per-shard rankers are resident at the
    /// same time, so the worst case is additive.
    pub fn absorb(&mut self, other: &RankerCounters) {
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
        } = other;
        self.enqueued += enqueued;
        self.candidates += candidates;
        self.rule1 += rule1;
        self.rule2 += rule2;
        self.swaps += swaps;
        self.fetch_boosts += fetch_boosts;
        self.noise_discards += noise_discards;
        self.aged_settles += aged_settles;
        self.forced_deliveries += forced_deliveries;
        self.peak_buffered += peak_buffered;
        self.rtt_samples += rtt_samples;
        self.window_updates += window_updates;
        self.window_clamps += window_clamps;
        self.adaptive_window_ns = self.adaptive_window_ns.max(*adaptive_window_ns);
    }
}

/// One step of ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankStep {
    /// The next candidate activity for the engine.
    Candidate(Activity),
    /// An unmatched RECEIVE discarded by `is_noise`.
    Noise(Activity),
    /// Streaming mode: a queue is still open and the ranker cannot
    /// safely decide; push more input or close the sources.
    NeedInput,
    /// All sources are closed and drained.
    Exhausted,
}

/// Seq-number origin for window buffers. Sequence numbers increase at
/// the back of a buffer and *decrease* below the current front when a
/// stuck-resolution promotion moves an activity to the head, so the
/// origin leaves ample room on both sides.
const SEQ_BASE: u64 = 1 << 40;

/// Approximate resident bytes per buffered activity (the `(seq,
/// Activity)` slot plus, for sends, the per-channel index entry).
const PER_BUFFERED_BYTES: usize = size_of::<(u64, Activity)>() + 40;

#[derive(Debug)]
struct NodeQueue {
    host: Arc<str>,
    /// Activities inside the sliding window, ordered by local time, each
    /// tagged with a buffer sequence number. Sequence numbers are
    /// strictly increasing front-to-back at all times: refills append
    /// with increasing seqs and promotions re-enter at `front seq - 1`,
    /// so `seq` order always equals buffer-position order.
    buf: VecDeque<(u64, Activity)>,
    /// Staged activities not yet fetched (the "log on disk").
    incoming: VecDeque<Activity>,
    /// An activity was appended out of local-time order since the last
    /// sort: `incoming` is stably sorted before the next fetch.
    unsorted: bool,
    /// No more input will ever arrive for this node.
    closed: bool,
    /// Next sequence number for a back append.
    next_seq: u64,
    /// Tombstones: seqs promoted out of the middle of `buf` that the
    /// front has not yet advanced past. Needed to map a live seq to its
    /// current buffer index in O(log n + promotions-in-flight).
    removed: BTreeSet<u64>,
}

impl NodeQueue {
    fn head(&self) -> Option<&Activity> {
        self.buf.front().map(|(_, a)| a)
    }

    fn front_seq(&self) -> Option<u64> {
        self.buf.front().map(|(s, _)| *s)
    }

    /// Current buffer index of a live seq: its rank among live seqs.
    fn position_of(&self, seq: u64) -> usize {
        let front = self.front_seq().expect("position in non-empty buffer");
        (seq - front) as usize - self.removed.range(front..seq).count()
    }

    /// True when an activity of `ctx` is buffered ahead of position `k`
    /// (same-context activities are causally ordered; crossing one in a
    /// swap would fabricate a causal inversion). O(k), but only ever run
    /// on an actual promotion candidate — never on the failed-scan path.
    fn ctx_blocked(&self, ctx: &ContextId, k: usize) -> bool {
        self.buf.iter().take(k).any(|(_, p)| p.ctx == *ctx)
    }
}

/// How deep the stuck-resolution fallback scan looks into each queue for
/// deliverable RECEIVE/BEGIN/END activities buried behind blockers.
/// (Matching SENDs are found at any depth via the per-channel index.)
const SWAP_SCAN_DEPTH: usize = 64;

/// A staging queue keeps at least this many slots however far it
/// drains (shrinking costs a copy; a small queue is not worth it).
const SHRINK_MIN_SLOTS: usize = 4_096;

/// How far from the back of a staging queue `push` looks for an
/// out-of-order activity's place: records of concurrent threads
/// interleave a few slots out of order, and placing them costs less
/// than re-sorting a queue that a stalled stream keeps growing. An
/// activity that belongs further back is appended and the queue sorted
/// before the next fetch.
const PLACE_SCAN: usize = 16;

/// Cap on in-flight round-trip measurements kept for adaptive windowing.
const RTT_OPEN_CAP: usize = 65_536;

/// Cap on distinct `(src ip, dst ip)` latency histograms; pairs beyond
/// it are simply not tracked (bounds memory under internal-IP churn).
const HIST_PAIR_CAP: usize = 1_024;

/// Recompute the adaptive window once per this many RTT samples.
const ADAPT_EVERY: u64 = 256;

/// Online latency-quantile tracking for [`WindowPolicy::Adaptive`].
///
/// Round trips are measured per node in that node's own local time
/// (SEND ts on a channel → RECEIVE ts on the reversed channel), so the
/// estimate is skew-free, and aggregated into power-of-two histograms
/// per `(src ip, dst ip)` pair.
#[derive(Debug, Default)]
struct AdaptiveState {
    /// Open round trips: outbound channel → local SEND timestamp.
    rtt_open: FxHashMap<Channel, LocalTime>,
    /// Latency histograms (bucket i counts samples < 2^i ns).
    hists: FxHashMap<(Ipv4Addr, Ipv4Addr), [u64; 64]>,
    /// Samples seen since the last window recomputation.
    since_update: u64,
    /// The current adaptive window (clamped p99 × slack).
    current: Nanos,
    /// Memory budget folded into the clamp (see
    /// [`Ranker::set_adaptive_budget`]); `None` leaves the policy's
    /// static `max` as the only ceiling.
    budget: Option<usize>,
    /// High-water mark of buffered activities since the last window
    /// update — the density sample the budget clamp divides by.
    interval_peak: usize,
    /// High-water buffer density (activities per window-nanosecond)
    /// across all updates. A high-water, not a recent sample: buffer
    /// pressure is bursty, and a clamp derived from a quiet interval
    /// would let the window stretch right before the next burst.
    peak_density: f64,
}

impl AdaptiveState {
    /// p99 of one histogram, as a power-of-two upper bound.
    fn p99_of(hist: &[u64; 64]) -> Option<u64> {
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return None;
        }
        let threshold = (total * 99).div_ceil(100);
        let mut seen = 0u64;
        for (bucket, &n) in hist.iter().enumerate() {
            seen += n;
            if seen >= threshold {
                return Some(1u64 << bucket.min(62));
            }
        }
        None
    }

    /// The window target: the largest per-link request round trip.
    ///
    /// Each *directed* `(src ip, dst ip)` pair holds homogeneous
    /// samples, but only one direction of a link measures a true
    /// request→response round trip; the opposite direction pairs a
    /// node's response SEND with its RECEIVE of the *next* request on a
    /// persistent connection — an inter-request idle gap, which under
    /// light load is the think time, not a latency. The smaller
    /// directed p99 of a link is therefore the request RTT (a gap is
    /// bounded below by the RTT it straddles); the window takes the max
    /// of those minima across links.
    fn worst_p99(&self) -> Option<Nanos> {
        let mut worst: Option<u64> = None;
        for (&(a, b), hist) in &self.hists {
            let Some(p) = Self::p99_of(hist) else {
                continue;
            };
            let rtt = match self.hists.get(&(b, a)).and_then(Self::p99_of) {
                Some(q) => p.min(q),
                None => p,
            };
            worst = Some(worst.map_or(rtt, |w| w.max(rtt)));
        }
        worst.map(Nanos)
    }
}

/// The ranker: per-node queues plus the candidate-selection rules.
#[derive(Debug)]
pub struct Ranker {
    opts: RankerOptions,
    queues: Vec<NodeQueue>,
    by_host: FxHashMap<Arc<str>, usize>,
    /// Queue indexes in lexicographic host order: every cross-queue scan
    /// and tie-break uses this order, so candidate selection does not
    /// depend on the order in which hosts first appeared in the input
    /// (batch and streaming ingestion agree byte-for-byte).
    order: Vec<usize>,
    boost_level: u32,
    counters: RankerCounters,
    buffered: usize,
    /// Count of SEND activities per channel anywhere in the ranker
    /// (staged or buffered), so the stuck path can decide `is_noise` in
    /// O(1): a RECEIVE whose channel has no pending send in the engine
    /// *and* no send anywhere in the remaining input can never match.
    send_index: FxHashMap<Channel, u32>,
    /// Time-ordered index of *buffered* SENDs per channel: `(queue, seq)`
    /// pairs, where within a queue seq order equals buffer-position (and
    /// local-time) order. Lets the stuck path jump straight to a blocked
    /// head's matching SEND in O(log n) instead of scanning a window's
    /// worth of buffered activities.
    buf_sends: FxHashMap<Channel, BTreeSet<(u32, u64)>>,
    /// Latency tracking for the adaptive window policy.
    adaptive: AdaptiveState,
    /// Scratch buffers reused across `try_swap` calls (the stuck path
    /// runs once per noise discard; per-call allocations add up).
    scratch_channels: Vec<Channel>,
    scratch_cands: Vec<usize>,
}

impl Ranker {
    /// Creates an empty streaming ranker; queues appear as hosts are
    /// first pushed.
    pub fn new(opts: RankerOptions) -> Self {
        let current = match opts.window_policy {
            WindowPolicy::Static => opts.window,
            WindowPolicy::Adaptive { min, .. } => min,
        };
        Ranker {
            opts,
            queues: Vec::new(),
            by_host: FxHashMap::default(),
            order: Vec::new(),
            boost_level: 0,
            counters: RankerCounters::default(),
            buffered: 0,
            send_index: FxHashMap::default(),
            buf_sends: FxHashMap::default(),
            adaptive: AdaptiveState {
                current,
                ..AdaptiveState::default()
            },
            scratch_channels: Vec::new(),
            scratch_cands: Vec::new(),
        }
    }

    /// Creates an offline ranker over complete per-node streams (in any
    /// order; hosts are ordered deterministically by name).
    pub fn from_streams(opts: RankerOptions, mut streams: Vec<(Arc<str>, Vec<Activity>)>) -> Self {
        streams.sort_by(|a, b| a.0.cmp(&b.0));
        let mut r = Ranker::new(opts);
        for (host, acts) in streams {
            for a in acts {
                r.push(a);
            }
            r.close_host(&host);
        }
        r.close_all();
        r
    }

    /// The ranker's counters.
    pub fn counters(&self) -> &RankerCounters {
        &self.counters
    }

    /// Approximate resident bytes of all queue buffers and their indexes
    /// (the quantity the sliding window bounds; staged input is "the log
    /// on disk" and is not counted).
    pub fn approx_bytes(&self) -> usize {
        // Per buffered activity: the (seq, Activity) slot plus (for
        // sends) the per-channel index entry.
        self.buffered * PER_BUFFERED_BYTES
            + self.adaptive.rtt_open.len() * (size_of::<Channel>() + size_of::<LocalTime>() + 16)
            + self.adaptive.hists.len() * (size_of::<(Ipv4Addr, Ipv4Addr)>() + 512 + 16)
    }

    /// Folds a memory budget into the adaptive-window clamp: under
    /// [`WindowPolicy::Adaptive`] the window's ceiling additionally
    /// scales with what the budget can hold, so a noisy latency tail
    /// cannot settle the window far above what the resident buffers
    /// afford (window buffers cannot spill — they are the working set).
    /// The estimate divides the ranker's share of the budget by the
    /// observed buffer density; both inputs derive from record content,
    /// never from timing, so ranking stays deterministic. No-op under
    /// [`WindowPolicy::Static`].
    pub fn set_adaptive_budget(&mut self, bytes: Option<usize>) {
        self.adaptive.budget = bytes;
    }

    /// The current base sliding window (before any stuck-state boost):
    /// the static knob, or the latest adaptive estimate.
    pub fn current_window(&self) -> Nanos {
        match self.opts.window_policy {
            WindowPolicy::Static => self.opts.window,
            WindowPolicy::Adaptive { .. } => self.adaptive.current,
        }
    }

    /// Number of activities currently inside the window buffers.
    pub fn buffered_len(&self) -> usize {
        self.buffered
    }

    /// Hostnames with a queue, in queue order.
    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.queues.iter().map(|q| &*q.host)
    }

    /// Stages one activity (routed by its context's hostname). A host's
    /// input may arrive in any order: its staging queue is kept in
    /// stable local-time order (equal timestamps keep their arrival
    /// order), by placing an activity a few slots from the back or by
    /// sorting the queue before the next fetch.
    pub fn push(&mut self, a: Activity) {
        let qi = self.queue_index(&a.ctx.hostname);
        if a.ty == ActivityType::Send {
            *self.send_index.entry(a.channel).or_insert(0) += 1;
        }
        let q = &mut self.queues[qi];
        // Stable: behind the last of the nearest `PLACE_SCAN` staged
        // activities that is not later than `a`.
        let len = q.incoming.len();
        match q
            .incoming
            .iter()
            .rev()
            .take(PLACE_SCAN)
            .position(|x| x.ts <= a.ts)
        {
            Some(0) => q.incoming.push_back(a),
            Some(k) => q.incoming.insert(len - k, a),
            None if len <= PLACE_SCAN => q.incoming.push_front(a),
            None => {
                q.unsorted = true;
                q.incoming.push_back(a);
            }
        }
        self.counters.enqueued += 1;
    }

    /// Declares a host's stream complete. Returns `false` when no
    /// activity of that host was ever pushed (nothing to close).
    pub fn close_host(&mut self, host: &str) -> bool {
        match self.by_host.get(host) {
            Some(&qi) => {
                self.queues[qi].closed = true;
                true
            }
            None => false,
        }
    }

    /// Declares every stream complete (offline mode).
    pub fn close_all(&mut self) {
        for q in &mut self.queues {
            q.closed = true;
        }
    }

    fn queue_index(&mut self, host: &Arc<str>) -> usize {
        if let Some(&qi) = self.by_host.get(host) {
            return qi;
        }
        let qi = self.queues.len();
        self.queues.push(NodeQueue {
            host: Arc::clone(host),
            buf: VecDeque::new(),
            incoming: VecDeque::new(),
            unsorted: false,
            closed: false,
            next_seq: SEQ_BASE,
            removed: BTreeSet::new(),
        });
        self.by_host.insert(Arc::clone(host), qi);
        // Keep the scan order sorted by host name, independent of
        // arrival order.
        let pos = self
            .order
            .partition_point(|&i| self.queues[i].host < self.queues[qi].host);
        self.order.insert(pos, qi);
        qi
    }

    fn effective_window(&self) -> Nanos {
        Nanos(
            self.current_window()
                .0
                .saturating_mul(1u64 << self.boost_level.min(40)),
        )
    }

    /// Moves staged activities into the window buffer, indexing each one.
    fn refill(&mut self) {
        let w = self.effective_window();
        let mut moved = 0usize;
        for (qi, q) in self.queues.iter_mut().enumerate() {
            if std::mem::take(&mut q.unsorted) {
                // Step 1 (§4): the per-node sort by local time.
                q.incoming.make_contiguous().sort_by_key(|a| a.ts);
            }
            while let Some(next) = q.incoming.front() {
                let fits = match q.head() {
                    None => true,
                    Some(front) => next.ts.saturating_since(front.ts) <= w,
                };
                if !fits {
                    break;
                }
                let a = q.incoming.pop_front().expect("peeked");
                let seq = q.next_seq;
                q.next_seq += 1;
                if a.ty == ActivityType::Send {
                    self.buf_sends
                        .entry(a.channel)
                        .or_default()
                        .insert((qi as u32, seq));
                }
                q.buf.push_back((seq, a));
                moved += 1;
            }
            let cap = q.incoming.capacity();
            if cap > SHRINK_MIN_SLOTS && q.incoming.len() < cap / 4 {
                // Give staged memory back as the queue drains.
                q.incoming.shrink_to(q.incoming.len() * 2);
            }
        }
        self.buffered += moved;
        self.counters.peak_buffered = self.counters.peak_buffered.max(self.buffered);
    }

    /// Drops a buffered send from the per-channel index.
    fn unindex_send(&mut self, qi: usize, channel: Channel, seq: u64) {
        if let Some(set) = self.buf_sends.get_mut(&channel) {
            set.remove(&(qi as u32, seq));
            if set.is_empty() {
                self.buf_sends.remove(&channel);
            }
        }
    }

    fn pop(&mut self, qi: usize) -> Activity {
        let (seq, a) = self.queues[qi].buf.pop_front().expect("head exists");
        if a.ty == ActivityType::Send {
            self.unindex_send(qi, a.channel, seq);
            if let Some(n) = self.send_index.get_mut(&a.channel) {
                *n -= 1;
                if *n == 0 {
                    self.send_index.remove(&a.channel);
                }
            }
        }
        // Tombstones behind the new front are spent.
        let q = &mut self.queues[qi];
        if !q.removed.is_empty() {
            match q.front_seq() {
                Some(front) => q.removed = q.removed.split_off(&front),
                None => q.removed.clear(),
            }
        }
        self.buffered -= 1;
        self.boost_level = 0;
        self.observe(&a);
        a
    }

    /// Feeds one popped candidate into the adaptive-window latency
    /// tracker: a SEND opens a round trip on its channel, the RECEIVE on
    /// the reversed channel closes it (both timestamps are local to the
    /// same node, so skew cancels).
    fn observe(&mut self, a: &Activity) {
        if self.opts.window_policy == WindowPolicy::Static {
            return;
        }
        self.adaptive.interval_peak = self.adaptive.interval_peak.max(self.buffered);
        match a.ty {
            ActivityType::Send => {
                if self.adaptive.rtt_open.len() >= RTT_OPEN_CAP
                    && !self.adaptive.rtt_open.contains_key(&a.channel)
                {
                    // One-shot channels whose reversed-channel RECEIVE
                    // never arrives would otherwise fill the map and
                    // freeze the tracker for the rest of the session;
                    // dropping the stale set loses at most one sample
                    // per live channel, which traffic replenishes.
                    self.adaptive.rtt_open.clear();
                }
                self.adaptive.rtt_open.insert(a.channel, a.ts);
            }
            ActivityType::Receive => {
                let out = a.channel.reversed();
                if let Some(t0) = self.adaptive.rtt_open.remove(&out) {
                    let key = (out.src.ip, out.dst.ip);
                    if self.adaptive.hists.len() >= HIST_PAIR_CAP
                        && !self.adaptive.hists.contains_key(&key)
                    {
                        return;
                    }
                    let rtt = a.ts.saturating_since(t0);
                    let bucket = (64 - rtt.0.leading_zeros() as usize).min(63);
                    let hist = self.adaptive.hists.entry(key).or_insert([0u64; 64]);
                    hist[bucket] += 1;
                    self.counters.rtt_samples += 1;
                    self.adaptive.since_update += 1;
                    if self.adaptive.since_update >= ADAPT_EVERY {
                        self.adaptive.since_update = 0;
                        self.update_adaptive_window();
                    }
                }
            }
            ActivityType::Begin | ActivityType::End => {}
        }
    }

    /// Recomputes the adaptive window from the per-pair p99 quantiles,
    /// then applies the memory-budget ceiling (see
    /// [`Ranker::set_adaptive_budget`]).
    fn update_adaptive_window(&mut self) {
        let WindowPolicy::Adaptive { slack, min, max } = self.opts.window_policy else {
            return;
        };
        let peak = std::mem::take(&mut self.adaptive.interval_peak);
        let span = self.adaptive.current.0.max(1);
        self.adaptive.peak_density = self.adaptive.peak_density.max(peak as f64 / span as f64);
        if let Some(p99) = self.adaptive.worst_p99() {
            let want = p99.0.saturating_mul(u64::from(slack.max(1)));
            let mut hi = max.0;
            if let Some(budget) = self.adaptive.budget {
                if self.adaptive.peak_density > 0.0 {
                    // Project the span whose buffers would fill the
                    // ranker's half of the budget at the worst density
                    // seen so far, and cap the window there.
                    let allow = (budget / 2 / PER_BUFFERED_BYTES).max(1) as f64;
                    let cap = (allow / self.adaptive.peak_density) as u64;
                    if cap < hi {
                        hi = cap;
                        if want > cap {
                            self.counters.window_clamps += 1;
                        }
                    }
                }
            }
            self.adaptive.current = Nanos(want.clamp(min.0, hi.max(min.0)));
            self.counters.window_updates += 1;
        }
        self.counters.adaptive_window_ns = self.adaptive.current.0;
    }

    /// Chooses the next candidate (§4.1 Rules 1 and 2, §4.3 disturbance
    /// handling). `oracle` is the engine's `mmap` view.
    pub fn rank(&mut self, oracle: &dyn MatchOracle) -> RankStep {
        let mut swap_budget = self.buffered + 64;
        loop {
            self.refill();
            // Rule 1: a RECEIVE head whose SEND is already in the mmap.
            // Queues are scanned in host-name order so the choice is
            // independent of input arrival order.
            let mut any_head = false;
            let mut rule1_pick: Option<usize> = None;
            for &qi in &self.order {
                if let Some(h) = self.queues[qi].head() {
                    any_head = true;
                    if h.ty == ActivityType::Receive && oracle.rule1_matches(h) {
                        rule1_pick = Some(qi);
                        break;
                    }
                }
            }
            if let Some(qi) = rule1_pick {
                self.counters.rule1 += 1;
                self.counters.candidates += 1;
                return RankStep::Candidate(self.pop(qi));
            }
            if !any_head {
                if self
                    .queues
                    .iter()
                    .all(|q| q.closed && q.incoming.is_empty())
                {
                    return RankStep::Exhausted;
                }
                // Some queue is open but empty; try fetching again later.
                return RankStep::NeedInput;
            }
            // Rule 2: the head with the lowest priority wins; ties break
            // on local timestamp then host order for determinism.
            let (qi, head_ty) = self
                .order
                .iter()
                .filter_map(|&qi| self.queues[qi].head().map(|h| (qi, h)))
                .min_by_key(|(_, h)| (h.ty.priority(), h.ts))
                .map(|(qi, h)| (qi, h.ty))
                .expect("some head exists");
            if head_ty != ActivityType::Receive {
                self.counters.rule2 += 1;
                self.counters.candidates += 1;
                return RankStep::Candidate(self.pop(qi));
            }
            // Stuck: every head is an unmatched RECEIVE. Could the winner
            // ever match? Only if the engine holds a partial pending for
            // its channel or a SEND on its channel still exists somewhere
            // in the input.
            let h = self.queues[qi].head().expect("the winner is a head");
            let winner_has_pending = oracle.has_any_pending(h);
            let winner_matchable = winner_has_pending || self.send_index.contains_key(&h.channel);
            // Once every queue is closed the input is complete, so an
            // unmatchable winner is decided now: no swap can surface a
            // SEND that does not exist, and searching first costs a scan
            // and a promotion per deliverable activity buffered behind it.
            let decided = !winner_matchable && self.queues.iter().all(|q| q.closed);
            if !decided && self.opts.swap && swap_budget > 0 && self.try_swap(oracle) {
                swap_budget -= 1;
                continue;
            }
            // A matchable winner: extend the window until its send
            // surfaces. For noise, boosting would be wasted work.
            if winner_matchable && self.boost_fetch() {
                continue;
            }
            // Open queues mean "wait for more input" — the missing
            // SEND may still arrive.
            if self.queues.iter().any(|q| !q.closed) {
                return RankStep::NeedInput;
            }
            let victim = self.pop(qi);
            if winner_has_pending {
                // A pending send exists but cannot cover this receive:
                // its remaining SEND segments were lost. Force-deliver
                // so the engine produces a (deformed) path instead of
                // silently losing it.
                self.counters.forced_deliveries += 1;
                self.counters.candidates += 1;
                return RankStep::Candidate(victim);
            }
            // is_noise: no match in mmap (Rule 1 failed) and no match in
            // the ranker (no SEND on the channel, or try_swap found none).
            if self.opts.noise_discard {
                self.counters.noise_discards += 1;
                return RankStep::Noise(victim);
            }
            self.counters.rule2 += 1;
            self.counters.candidates += 1;
            return RankStep::Candidate(victim);
        }
    }

    /// Resolves a stuck state by bubbling a *deliverable* buffered
    /// activity to its queue head (the Fig. 6 swap).
    ///
    /// Deliverable means: a SEND matching a blocked head RECEIVE's
    /// channel, a RECEIVE that already matches the `mmap` (Rule 1), or a
    /// BEGIN/END (which never wait on a message relation). The swap is
    /// only legal past a predecessor from a **different execution
    /// entity**: activities of the same context are causally ordered by
    /// their queue position (the per-CPU reordering of Fig. 6 can only
    /// interleave different threads), so swapping within a context would
    /// fabricate a causal inversion.
    ///
    /// Matching SENDs are located through the per-channel `buf_sends`
    /// index in O(log n) instead of scanning a window's worth of
    /// buffered activities; RECEIVE/BEGIN/END deliverables surface as
    /// blockers ahead of them are resolved, so a bounded
    /// [`SWAP_SCAN_DEPTH`] look-ahead suffices for them. Queues are
    /// visited in host order and, within a queue, candidates in buffer
    /// position order — the same promotion the former full scan chose.
    fn try_swap(&mut self, oracle: &dyn MatchOracle) -> bool {
        let mut head_channels = std::mem::take(&mut self.scratch_channels);
        head_channels.clear();
        head_channels.extend(
            self.order
                .iter()
                .filter_map(|&qi| self.queues[qi].head())
                .filter(|h| h.ty == ActivityType::Receive)
                .map(|h| h.channel),
        );
        // Is any blocked head's SEND in the ranker at all? The count
        // index makes the common noise case (no match anywhere) O(1).
        let any_send = head_channels
            .iter()
            .any(|ch| self.send_index.contains_key(ch));
        let mut cands = std::mem::take(&mut self.scratch_cands);
        let mut promoted: Option<(usize, usize)> = None;
        'queues: for oi in 0..self.order.len() {
            let qi = self.order[oi];
            let q = &self.queues[qi];
            let len = q.buf.len();
            if len < 2 {
                continue;
            }
            cands.clear();
            // Candidate positions, ascending. Sends first from the
            // index (seq order == position order within a queue) ...
            if any_send {
                for ch in &head_channels {
                    if let Some(set) = self.buf_sends.get(ch) {
                        let lo = (qi as u32, u64::MIN);
                        let hi = (qi as u32, u64::MAX);
                        cands.extend(set.range(lo..=hi).map(|(_, seq)| q.position_of(*seq)));
                    }
                }
            }
            // ... then the bounded look-ahead for the other types.
            for (k, (_, a)) in q
                .buf
                .iter()
                .enumerate()
                .take(len.min(SWAP_SCAN_DEPTH))
                .skip(1)
            {
                match a.ty {
                    ActivityType::Receive if oracle.rule1_matches(a) => cands.push(k),
                    ActivityType::Begin | ActivityType::End => cands.push(k),
                    _ => {}
                }
            }
            cands.sort_unstable();
            cands.dedup();
            for &k in &cands {
                if k == 0 {
                    continue;
                }
                let (_, a) = &q.buf[k];
                if !q.ctx_blocked(&a.ctx, k) {
                    promoted = Some((qi, k));
                    break 'queues;
                }
            }
        }
        self.scratch_channels = head_channels;
        self.scratch_cands = cands;
        match promoted {
            Some((qi, k)) => {
                self.promote(qi, k);
                true
            }
            None => false,
        }
    }

    /// Moves the buffered activity at position `k` of queue `qi` to the
    /// queue head (the net effect of the paper's repeated adjacent
    /// swaps), re-tagging it with a fresh front sequence number and
    /// leaving a tombstone at its old seq.
    fn promote(&mut self, qi: usize, k: usize) {
        let q = &mut self.queues[qi];
        let (seq, a) = q.buf.remove(k).expect("index in bounds");
        let is_send = a.ty == ActivityType::Send;
        let channel = a.channel;
        if is_send {
            self.unindex_send(qi, channel, seq);
        }
        let q = &mut self.queues[qi];
        let new_seq = q.front_seq().expect("stuck queue has a head") - 1;
        q.removed.insert(seq);
        q.buf.push_front((new_seq, a));
        if is_send {
            self.buf_sends
                .entry(channel)
                .or_default()
                .insert((qi as u32, new_seq));
        }
        self.counters.swaps += k as u64;
    }

    /// Repeatedly doubles the effective window and refetches until
    /// something new enters a buffer or the boost cap is reached.
    fn boost_fetch(&mut self) -> bool {
        if self.queues.iter().all(|q| q.incoming.is_empty()) {
            // Nothing to fetch no matter the window.
            return false;
        }
        while self.boost_level < self.opts.fetch_boost {
            self.boost_level += 1;
            self.counters.fetch_boosts += 1;
            let before = self.buffered;
            self.refill();
            if self.buffered > before {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Channel, ContextId, EndpointV4, LocalTime};

    fn ep(s: &str) -> EndpointV4 {
        s.parse().unwrap()
    }

    fn act(ty: ActivityType, ts: u64, host: &str, src: &str, dst: &str) -> Activity {
        act_tid(ty, ts, host, 1, src, dst)
    }

    /// Like `act` but on an explicit thread (Fig. 6 concurrency involves
    /// different execution entities on different CPUs).
    fn act_tid(ty: ActivityType, ts: u64, host: &str, tid: u32, src: &str, dst: &str) -> Activity {
        Activity {
            ty,
            ts: LocalTime::from_nanos(ts),
            ctx: ContextId::new(host, "prog", 1, tid),
            channel: Channel::new(ep(src), ep(dst)),
            size: 100,
            tag: 0,
            seq: None,
        }
    }

    /// Oracle backed by a set of channels with pending sends (assumed to
    /// fully cover any receive).
    struct SetOracle(std::collections::HashSet<Channel>);

    impl MatchOracle for SetOracle {
        fn rule1_matches(&self, a: &Activity) -> bool {
            self.0.contains(&a.channel)
        }

        fn has_any_pending(&self, a: &Activity) -> bool {
            self.0.contains(&a.channel)
        }
    }

    fn drain(r: &mut Ranker, oracle: &dyn MatchOracle) -> Vec<RankStep> {
        let mut out = Vec::new();
        loop {
            let s = r.rank(oracle);
            let stop = matches!(s, RankStep::Exhausted | RankStep::NeedInput);
            out.push(s);
            if stop {
                return out;
            }
        }
    }

    #[test]
    fn rule2_priority_orders_heads() {
        // Three queues with BEGIN / SEND / RECEIVE heads: BEGIN pops first,
        // then SEND, and the unmatched RECEIVE is eventually noise.
        let streams = vec![
            (
                Arc::from("a"),
                vec![act(
                    ActivityType::Begin,
                    100,
                    "a",
                    "9.9.9.9:1",
                    "10.0.0.1:80",
                )],
            ),
            (
                Arc::from("b"),
                vec![act(ActivityType::Send, 50, "b", "10.0.0.2:1", "10.0.0.3:2")],
            ),
            (
                Arc::from("c"),
                vec![act(
                    ActivityType::Receive,
                    10,
                    "c",
                    "8.8.8.8:1",
                    "10.0.0.3:9",
                )],
            ),
        ];
        let mut r = Ranker::from_streams(RankerOptions::default(), streams);
        let steps = drain(&mut r, &NoOracle);
        let tys: Vec<String> = steps.iter().map(|s| format!("{s:?}")).collect();
        assert!(tys[0].contains("Begin"), "{tys:?}");
        assert!(tys[1].contains("Send"), "{tys:?}");
        assert!(matches!(steps[2], RankStep::Noise(_)), "{tys:?}");
        assert!(matches!(steps[3], RankStep::Exhausted));
    }

    #[test]
    fn rule1_pops_matched_receive_before_lower_priority_heads() {
        let recv = act(ActivityType::Receive, 10, "b", "10.0.0.1:5", "10.0.0.2:6");
        let streams = vec![
            (
                Arc::from("a"),
                vec![act(ActivityType::Begin, 1, "a", "9.9.9.9:1", "10.0.0.1:80")],
            ),
            (Arc::from("b"), vec![recv.clone()]),
        ];
        let mut r = Ranker::from_streams(RankerOptions::default(), streams);
        let oracle = SetOracle([recv.channel].into_iter().collect());
        // Rule 1 beats the BEGIN even though BEGIN has lower priority.
        match r.rank(&oracle) {
            RankStep::Candidate(a) => assert_eq!(a.ty, ActivityType::Receive),
            other => panic!("expected candidate, got {other:?}"),
        }
        assert_eq!(r.counters().rule1, 1);
    }

    #[test]
    fn within_queue_order_is_preserved() {
        let streams = vec![(
            Arc::from("a"),
            vec![
                act(ActivityType::Send, 10, "a", "10.0.0.1:1", "10.0.0.2:2"),
                act(ActivityType::Send, 20, "a", "10.0.0.1:3", "10.0.0.2:4"),
            ],
        )];
        let mut r = Ranker::from_streams(RankerOptions::default(), streams);
        let a = match r.rank(&NoOracle) {
            RankStep::Candidate(a) => a,
            o => panic!("{o:?}"),
        };
        assert_eq!(a.ts, LocalTime::from_nanos(10));
    }

    #[test]
    fn concurrency_disturbance_resolved_by_swap() {
        // Fig. 6: two 2-CPU nodes, each head RECEIVE blocked on the SEND
        // behind the other queue's head; the concurrent activities run
        // in different threads (CPUs).
        let n1r = act_tid(
            ActivityType::Receive,
            100,
            "n1",
            10,
            "10.0.0.2:9",
            "10.0.0.1:8",
        );
        let n1s = act_tid(
            ActivityType::Send,
            101,
            "n1",
            11,
            "10.0.0.1:8",
            "10.0.0.2:9",
        );
        let n2r = act_tid(
            ActivityType::Receive,
            200,
            "n2",
            20,
            "10.0.0.1:8",
            "10.0.0.2:9",
        );
        let n2s = act_tid(
            ActivityType::Send,
            201,
            "n2",
            21,
            "10.0.0.2:9",
            "10.0.0.1:8",
        );
        // Wire up channels so each receive matches the other node's send:
        // n1's receive r01,2-style ← n2's send; n2's receive ← n1's send.
        let streams = vec![
            (Arc::from("n1"), vec![n1r.clone(), n1s.clone()]),
            (Arc::from("n2"), vec![n2r.clone(), n2s.clone()]),
        ];
        let mut r = Ranker::from_streams(RankerOptions::default(), streams);
        let mut sent: std::collections::HashSet<Channel> = Default::default();
        let mut order = Vec::new();
        loop {
            let step = r.rank(&SetOracle(sent.clone()));
            match step {
                RankStep::Candidate(a) => {
                    if a.ty == ActivityType::Send {
                        sent.insert(a.channel);
                    }
                    order.push(a);
                }
                RankStep::Noise(a) => panic!("false noise discard of {a}"),
                RankStep::Exhausted => break,
                RankStep::NeedInput => panic!("offline ranker asked for input"),
            }
        }
        assert_eq!(order.len(), 4);
        assert!(r.counters().swaps >= 1, "swap must have fired");
        // Every receive must come after its matching send.
        for (i, a) in order.iter().enumerate() {
            if a.ty == ActivityType::Receive {
                assert!(
                    order[..i]
                        .iter()
                        .any(|b| b.ty == ActivityType::Send && b.channel == a.channel),
                    "receive before its send"
                );
            }
        }
    }

    #[test]
    fn swap_disabled_falls_back_to_noise() {
        let n1r = act_tid(
            ActivityType::Receive,
            100,
            "n1",
            10,
            "10.0.0.2:9",
            "10.0.0.1:8",
        );
        let n1s = act_tid(
            ActivityType::Send,
            101,
            "n1",
            11,
            "10.0.0.1:8",
            "10.0.0.2:9",
        );
        let n2r = act_tid(
            ActivityType::Receive,
            200,
            "n2",
            20,
            "10.0.0.1:8",
            "10.0.0.2:9",
        );
        let n2s = act_tid(
            ActivityType::Send,
            201,
            "n2",
            21,
            "10.0.0.2:9",
            "10.0.0.1:8",
        );
        let streams = vec![
            (Arc::from("n1"), vec![n1r, n1s]),
            (Arc::from("n2"), vec![n2r, n2s]),
        ];
        let opts = RankerOptions {
            swap: false,
            ..RankerOptions::default()
        };
        let mut r = Ranker::from_streams(opts, streams);
        let steps = drain(&mut r, &NoOracle);
        assert!(
            steps.iter().any(|s| matches!(s, RankStep::Noise(_))),
            "without swap the deadlock breaks by (wrongly) discarding: {steps:?}"
        );
    }

    #[test]
    fn window_bounds_buffer() {
        // 1000 activities spaced 1ms, window 10ms → buffer stays small.
        let acts: Vec<Activity> = (0..1000)
            .map(|i| {
                act(
                    ActivityType::Send,
                    i * 1_000_000,
                    "a",
                    "10.0.0.1:1",
                    "10.0.0.2:2",
                )
            })
            .collect();
        let mut r = Ranker::from_streams(
            RankerOptions {
                window: Nanos::from_millis(10),
                ..Default::default()
            },
            vec![(Arc::from("a"), acts)],
        );
        let mut n = 0;
        while let RankStep::Candidate(_) = r.rank(&NoOracle) {
            n += 1;
        }
        assert_eq!(n, 1000);
        assert!(
            r.counters().peak_buffered <= 12,
            "peak {} too large",
            r.counters().peak_buffered
        );
    }

    #[test]
    fn larger_window_buffers_more() {
        let mk = |w: Nanos| {
            let acts: Vec<Activity> = (0..1000)
                .map(|i| {
                    act(
                        ActivityType::Send,
                        i * 1_000_000,
                        "a",
                        "10.0.0.1:1",
                        "10.0.0.2:2",
                    )
                })
                .collect();
            let mut r = Ranker::from_streams(
                RankerOptions {
                    window: w,
                    ..Default::default()
                },
                vec![(Arc::from("a"), acts)],
            );
            while let RankStep::Candidate(_) = r.rank(&NoOracle) {}
            r.counters().peak_buffered
        };
        assert!(mk(Nanos::from_millis(100)) > mk(Nanos::from_millis(10)));
    }

    #[test]
    fn streaming_need_input_then_progress() {
        let mut r = Ranker::new(RankerOptions::default());
        r.push(act(ActivityType::Send, 10, "a", "10.0.0.1:1", "10.0.0.2:2"));
        // One activity, host open: the ranker can pop it (it's a SEND).
        match r.rank(&NoOracle) {
            RankStep::Candidate(a) => assert_eq!(a.ty, ActivityType::Send),
            o => panic!("{o:?}"),
        }
        // Nothing left but the host is open → NeedInput.
        assert_eq!(r.rank(&NoOracle), RankStep::NeedInput);
        r.close_all();
        assert_eq!(r.rank(&NoOracle), RankStep::Exhausted);
    }

    #[test]
    fn stuck_receive_waits_for_open_queue() {
        // A receive whose send may still arrive on an open queue must not
        // be discarded as noise.
        let mut r = Ranker::new(RankerOptions::default());
        let recv = act(ActivityType::Receive, 10, "b", "10.0.0.1:5", "10.0.0.2:6");
        r.push(recv.clone());
        r.close_host("b");
        let send = act(ActivityType::Send, 500, "a", "10.0.0.1:5", "10.0.0.2:6");
        r.push(send.clone());
        // Queue "a" open: the ranker pops the send (Rule 2).
        match r.rank(&NoOracle) {
            RankStep::Candidate(a) => assert_eq!(a.ty, ActivityType::Send),
            o => panic!("{o:?}"),
        }
        // Now the receive matches via the oracle.
        let oracle = SetOracle([recv.channel].into_iter().collect());
        match r.rank(&oracle) {
            RankStep::Candidate(a) => assert_eq!(a.ty, ActivityType::Receive),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn out_of_order_push_is_resorted() {
        let mut r = Ranker::new(RankerOptions::default());
        r.push(act(
            ActivityType::Send,
            100,
            "a",
            "10.0.0.1:1",
            "10.0.0.2:2",
        ));
        r.push(act(ActivityType::Send, 50, "a", "10.0.0.1:3", "10.0.0.2:4"));
        r.close_all();
        let first = match r.rank(&NoOracle) {
            RankStep::Candidate(a) => a.ts,
            o => panic!("{o:?}"),
        };
        assert_eq!(first, LocalTime::from_nanos(50));
    }

    #[test]
    fn reversed_input_is_sorted_once_and_released_as_it_drains() {
        // 200k activities of one host pushed newest first, two per
        // timestamp: one stable sort orders them (an unbounded
        // back-scan insertion costs ~2·10^10 comparisons here), equal
        // timestamps keep their arrival order, and the drained staging
        // queue gives its memory back.
        const N: u64 = 200_000;
        let pushed: Vec<Activity> = (0..N)
            .rev()
            .map(|i| Activity {
                tag: i,
                ..act(
                    ActivityType::Send,
                    i / 2 * 1_000,
                    "a",
                    "10.0.0.1:1",
                    "10.0.0.2:2",
                )
            })
            .collect();
        let mut r = Ranker::new(RankerOptions::default());
        for a in pushed.iter().cloned() {
            r.push(a);
        }
        r.close_all();
        let mut sorted = pushed;
        sorted.sort_by_key(|a| a.ts);
        let want: Vec<u64> = sorted.iter().map(|a| a.tag).collect();
        let mut got = Vec::with_capacity(N as usize);
        while let RankStep::Candidate(a) = r.rank(&NoOracle) {
            got.push(a.tag);
        }
        assert_eq!(got, want);
        assert!(r.queues[0].incoming.capacity() <= SHRINK_MIN_SLOTS);
    }

    #[test]
    fn fetch_boost_finds_send_beyond_window() {
        // Mutually blocked receives whose matching sends sit far beyond
        // the 1ms window behind them (heavy skew): only the bounded
        // window boost can surface the sends.
        let streams = vec![
            (
                Arc::from("a"),
                vec![
                    act_tid(
                        ActivityType::Receive,
                        1_000_000,
                        "a",
                        10,
                        "10.0.0.2:7",
                        "10.0.0.1:6",
                    ),
                    act_tid(
                        ActivityType::Send,
                        40_000_000,
                        "a",
                        11,
                        "10.0.0.1:6",
                        "10.0.0.2:7",
                    ),
                ],
            ),
            (
                Arc::from("b"),
                vec![
                    act_tid(
                        ActivityType::Receive,
                        900_000,
                        "b",
                        20,
                        "10.0.0.1:6",
                        "10.0.0.2:7",
                    ),
                    act_tid(
                        ActivityType::Send,
                        30_000_000,
                        "b",
                        21,
                        "10.0.0.2:7",
                        "10.0.0.1:6",
                    ),
                ],
            ),
        ];
        let opts = RankerOptions {
            window: Nanos::from_millis(1),
            ..Default::default()
        };
        let mut r = Ranker::from_streams(opts, streams);
        // Drive with a stateful oracle simulating the engine.
        let mut sent: std::collections::HashSet<Channel> = Default::default();
        let mut got = Vec::new();
        loop {
            match r.rank(&SetOracle(sent.clone())) {
                RankStep::Candidate(a) => {
                    if a.ty == ActivityType::Send {
                        sent.insert(a.channel);
                    }
                    got.push(a);
                }
                RankStep::Noise(a) => panic!("false noise: {a}"),
                RankStep::Exhausted => break,
                RankStep::NeedInput => panic!("offline NeedInput"),
            }
        }
        assert_eq!(got.len(), 4);
        assert!(r.counters().fetch_boosts > 0);
    }

    #[test]
    fn noise_discard_can_be_disabled() {
        let streams = vec![(
            Arc::from("c"),
            vec![act(
                ActivityType::Receive,
                10,
                "c",
                "8.8.8.8:1",
                "10.0.0.3:9",
            )],
        )];
        let opts = RankerOptions {
            noise_discard: false,
            ..Default::default()
        };
        let mut r = Ranker::from_streams(opts, streams);
        match r.rank(&NoOracle) {
            RankStep::Candidate(a) => assert_eq!(a.ty, ActivityType::Receive),
            o => panic!("{o:?}"),
        }
    }

    /// Two queues stuck on unmatched RECEIVEs: `a`'s head (the Rule-2
    /// winner, lowest timestamp) is from an untraced peer — no SEND on
    /// its channel anywhere — with a BEGIN of another thread behind it.
    fn noise_blocks_begin(opts: RankerOptions, close_b: bool) -> Ranker {
        let mut r = Ranker::new(opts);
        r.push(act_tid(
            ActivityType::Receive,
            10,
            "a",
            1,
            "8.8.8.8:1",
            "10.0.0.1:9",
        ));
        r.push(act_tid(
            ActivityType::Begin,
            11,
            "a",
            2,
            "9.9.9.9:1",
            "10.0.0.1:80",
        ));
        r.push(act_tid(
            ActivityType::Receive,
            20,
            "b",
            3,
            "8.8.4.4:1",
            "10.0.0.2:9",
        ));
        r.close_host("a");
        if close_b {
            r.close_host("b");
        }
        r
    }

    fn step_types(steps: &[RankStep]) -> Vec<(&'static str, Option<ActivityType>)> {
        steps
            .iter()
            .map(|s| match s {
                RankStep::Candidate(a) => ("candidate", Some(a.ty)),
                RankStep::Noise(a) => ("noise", Some(a.ty)),
                RankStep::NeedInput => ("need-input", None),
                RankStep::Exhausted => ("exhausted", None),
            })
            .collect()
    }

    #[test]
    fn closed_input_decides_noise_before_the_swap_search() {
        let mut r = noise_blocks_begin(RankerOptions::default(), true);
        let steps = drain(&mut r, &NoOracle);
        // A search-first ranker promotes the BEGIN over the blocker
        // (1 swap) and delivers it ahead of the discard.
        assert_eq!(
            step_types(&steps),
            [
                ("noise", Some(ActivityType::Receive)),
                ("candidate", Some(ActivityType::Begin)),
                ("noise", Some(ActivityType::Receive)),
                ("exhausted", None),
            ]
        );
        assert_eq!(r.counters().swaps, 0);
        assert_eq!(r.counters().noise_discards, 2);
    }

    #[test]
    fn open_queue_keeps_the_swap_search_and_never_discards() {
        // The SEND may still arrive on `b`: nothing is decidable, so the
        // BEGIN is promoted and delivered and the ranker then waits.
        let mut r = noise_blocks_begin(RankerOptions::default(), false);
        let steps = drain(&mut r, &NoOracle);
        assert_eq!(
            step_types(&steps),
            [
                ("candidate", Some(ActivityType::Begin)),
                ("need-input", None),
            ]
        );
        assert_eq!(r.counters().swaps, 1);
        assert_eq!(r.counters().noise_discards, 0);
    }

    #[test]
    fn noise_discard_off_delivers_the_decided_receive_by_rule2() {
        let opts = RankerOptions {
            noise_discard: false,
            ..RankerOptions::default()
        };
        let mut r = noise_blocks_begin(opts, true);
        match r.rank(&NoOracle) {
            RankStep::Candidate(a) => {
                assert_eq!(
                    (a.ty, a.ts),
                    (ActivityType::Receive, LocalTime::from_nanos(10))
                );
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(r.counters().rule2, 1);
        assert_eq!(r.counters().swaps, 0);
    }

    #[test]
    fn staged_send_keeps_a_blocked_receive_out_of_the_noise_path() {
        // `a`'s head waits on a SEND staged 50 ms behind `b`'s noise
        // head, beyond the 1 ms window: closed queues or not, it is
        // matchable, so it is boosted in and swapped up as before.
        let streams = vec![
            (
                Arc::from("a"),
                vec![act_tid(
                    ActivityType::Receive,
                    10,
                    "a",
                    1,
                    "10.0.0.2:7",
                    "10.0.0.1:6",
                )],
            ),
            (
                Arc::from("b"),
                vec![
                    act_tid(
                        ActivityType::Receive,
                        20,
                        "b",
                        20,
                        "8.8.8.8:1",
                        "10.0.0.2:9",
                    ),
                    act_tid(
                        ActivityType::Send,
                        50_000_000,
                        "b",
                        21,
                        "10.0.0.2:7",
                        "10.0.0.1:6",
                    ),
                ],
            ),
        ];
        let opts = RankerOptions {
            window: Nanos::from_millis(1),
            ..RankerOptions::default()
        };
        let mut r = Ranker::from_streams(opts, streams);
        let mut sent: std::collections::HashSet<Channel> = Default::default();
        let mut steps = Vec::new();
        loop {
            let step = r.rank(&SetOracle(sent.clone()));
            if let RankStep::Candidate(a) = &step {
                if a.ty == ActivityType::Send {
                    sent.insert(a.channel);
                }
            }
            let done = step == RankStep::Exhausted;
            steps.push(step);
            if done {
                break;
            }
        }
        assert_eq!(
            step_types(&steps),
            [
                ("candidate", Some(ActivityType::Send)),
                ("candidate", Some(ActivityType::Receive)),
                ("noise", Some(ActivityType::Receive)),
                ("exhausted", None),
            ]
        );
        assert!(r.counters().fetch_boosts > 0);
        assert_eq!(r.counters().swaps, 1);
        assert_eq!(r.counters().rule1, 1);
    }

    #[test]
    fn partial_pending_is_force_delivered_not_discarded() {
        // The engine holds a send on the channel that cannot cover the
        // receive (its other segments were lost).
        struct Partial;
        impl MatchOracle for Partial {
            fn rule1_matches(&self, _a: &Activity) -> bool {
                false
            }
            fn has_any_pending(&self, _a: &Activity) -> bool {
                true
            }
        }
        let mut r = noise_blocks_begin(RankerOptions::default(), true);
        // Matchable, so the search still runs first (the BEGIN).
        let steps = drain(&mut r, &Partial);
        assert_eq!(
            step_types(&steps),
            [
                ("candidate", Some(ActivityType::Begin)),
                ("candidate", Some(ActivityType::Receive)),
                ("candidate", Some(ActivityType::Receive)),
                ("exhausted", None),
            ]
        );
        assert_eq!(r.counters().forced_deliveries, 2);
        assert_eq!(r.counters().noise_discards, 0);
    }

    #[test]
    fn approx_bytes_tracks_buffered() {
        let mut r = Ranker::new(RankerOptions::default());
        assert_eq!(r.approx_bytes(), 0);
        r.push(act(ActivityType::Send, 10, "a", "10.0.0.1:1", "10.0.0.2:2"));
        r.close_all();
        // Not yet fetched into the buffer; rank() fetches then pops.
        let _ = r.rank(&NoOracle);
        assert_eq!(r.buffered_len(), 0);
    }
}
