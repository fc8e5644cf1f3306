//! The correlation engine (§4.2, Fig. 3).
//!
//! The engine consumes *candidate* activities chosen by the
//! [`Ranker`](crate::ranker::Ranker) and assembles them into CAGs using
//! two index maps:
//!
//! * **mmap** — message identifier (directed channel) → unmatched SEND
//!   vertices with their remaining unreceived byte counts. TCP delivers
//!   bytes FIFO per direction, so a per-channel FIFO of pending sends is
//!   the faithful generalization of the paper's single-entry description.
//! * **cmap** — context identifier → the latest activity observed in that
//!   execution entity.
//!
//! SEND/RECEIVE matching is n-to-n (Fig. 4): consecutive same-channel
//! SEND segments merge into one vertex accumulating bytes, and RECEIVE
//! segments decrement the pending byte count, materializing the RECEIVE
//! vertex when it reaches zero.
//!
//! The thread-reuse hazard (§4.2 lines 29-32) is handled by adding the
//! context edge into a RECEIVE only when message parent and context
//! parent belong to the same CAG; [`EngineOptions::thread_reuse_check`]
//! can disable the check to reproduce the failure mode as an ablation.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::mem::size_of;
use std::sync::Arc;

use crate::activity::{Activity, ActivityType, Channel, ContextId};
use crate::cag::{Cag, Vertex};
use crate::fasthash::FxHashMap;
use crate::intern::Interner;
use crate::ranker::MatchOracle;
use crate::spill::{self, codec, PageExtent, SpillFile};

/// Tunables and ablation switches for the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOptions {
    /// Merge consecutive same-channel SEND (and BEGIN/END) segments into
    /// one vertex by message size (§4.2, Fig. 4). Disabling this is the
    /// EXT-2 "no segment merging" ablation.
    pub merge_segments: bool,
    /// Add the context edge into a RECEIVE only when both parents are in
    /// the same CAG (§4.2 lines 29-32). Disabling reproduces the
    /// thread-pool mis-correlation the paper warns about.
    pub thread_reuse_check: bool,
    /// Merge trailing END segments into the already-output CAG.
    pub amend_finished: bool,
    /// Maximum unmatched pending sends retained in `mmap` before the
    /// oldest are evicted (bounds memory under send-side noise).
    pub pending_cap: usize,
    /// Maximum orphan (non-CAG) vertices retained for context chains.
    pub orphan_cap: usize,
    /// Maximum unfinished CAGs retained before the oldest are abandoned.
    pub unfinished_cap: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            merge_segments: true,
            thread_reuse_check: true,
            amend_finished: true,
            pending_cap: 1 << 20,
            orphan_cap: 1 << 20,
            unfinished_cap: 1 << 20,
        }
    }
}

/// Counters describing everything the engine did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Candidate activities delivered to the engine.
    pub delivered: u64,
    /// CAGs opened by BEGIN activities.
    pub cags_opened: u64,
    /// CAGs closed by END activities.
    pub cags_finished: u64,
    /// SEND segments merged into an existing vertex.
    pub send_merges: u64,
    /// BEGIN segments merged into an existing root.
    pub begin_merges: u64,
    /// END segments merged into an already-finished CAG.
    pub end_amends: u64,
    /// RECEIVE segments that only decremented a pending send.
    pub partial_receives: u64,
    /// RECEIVE activities that found no pending send (should be zero
    /// when the ranker's noise handling is on).
    pub unmatched_receives: u64,
    /// RECEIVEs that consumed bytes across two pending messages
    /// (receiver coalesced across message boundaries — an assumption
    /// violation that deforms the CAG).
    pub cross_message_receives: u64,
    /// END activities with no usable context parent.
    pub unmatched_ends: u64,
    /// Context edges suppressed by the thread-reuse same-CAG check.
    pub reuse_suppressed_edges: u64,
    /// Vertices that landed in the orphan pool (noise chains).
    pub orphan_vertices: u64,
    /// Pending sends evicted by `pending_cap`.
    pub evicted_pendings: u64,
    /// Orphans evicted by `orphan_cap`.
    pub evicted_orphans: u64,
    /// Unfinished CAGs abandoned by `unfinished_cap`.
    pub abandoned_cags: u64,
    /// Dead `cmap` entries dropped by the context GC (budget pressure
    /// or the periodic no-budget sweep).
    pub pruned_contexts: u64,
    /// Finished CAGs force-sealed by the `max_seal_lag` bound before
    /// their context moved on (trailing END chunks can no longer amend
    /// them — the price of the sealing-latency SLO).
    pub forced_seals: u64,
    /// Pending sends retired by v2 stream-offset arithmetic: a later
    /// RECEIVE's `seq=` proved their own receive records were lost to
    /// partial capture (offsets on a channel are monotone), so they can
    /// never match — without this they would byte-shift the FIFO.
    pub gap_retired_pendings: u64,
    /// Unfinished CAGs paged out to the spill file under memory-budget
    /// pressure (residency changes, recall does not).
    pub spilled_cags: u64,
    /// Orphan vertices paged out to the spill file.
    pub spilled_orphans: u64,
    /// Spilled objects faulted back on touch (each fault is one CAG or
    /// one orphan chunk read back from the spill tier).
    pub spill_faults: u64,
    /// Serialized bytes written to the spill tier.
    pub spilled_bytes: u64,
}

crate::dist::counters! {
    /// Folds another counter set into this one (all fields are sums).
    /// Used to aggregate per-shard engines into one report.
    EngineCounters {
        delivered: sum,
        cags_opened: sum,
        cags_finished: sum,
        send_merges: sum,
        begin_merges: sum,
        end_amends: sum,
        partial_receives: sum,
        unmatched_receives: sum,
        cross_message_receives: sum,
        unmatched_ends: sum,
        reuse_suppressed_edges: sum,
        orphan_vertices: sum,
        evicted_pendings: sum,
        evicted_orphans: sum,
        abandoned_cags: sum,
        pruned_contexts: sum,
        forced_seals: sum,
        gap_retired_pendings: sum,
        spilled_cags: sum,
        spilled_orphans: sum,
        spill_faults: sum,
        spilled_bytes: sum,
    }
}

/// Where the latest activity of a context lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VRef {
    /// Vertex `v` of CAG `cag` (which may since have finished).
    Cag { cag: u64, v: usize },
    /// Orphan vertex (not part of any CAG).
    Orphan { id: u64 },
}

/// An unmatched (or partially matched) SEND in the mmap.
#[derive(Debug, Clone)]
struct Pending {
    vref: VRef,
    remaining: u64,
    /// Ground-truth tags of receive segments consumed so far.
    recv_tags: Vec<u64>,
    /// Stream-offset range `[start, end)` of the yet-unreceived bytes
    /// when the send records carried `TCP_TRACE v2` `seq=` offsets
    /// (`None` on v1 records or mixed chains). Lets RECEIVE matching
    /// retire pendings whose receive records were lost to partial
    /// capture instead of byte-shifting the FIFO — the same arithmetic
    /// the sharded reader applies to its claim queues, so both modes
    /// deform identically around capture gaps.
    range: Option<(u64, u64)>,
}

/// Minimal vertex data kept for orphan chains (noise traffic from traced
/// contexts, e.g. a MySQL client session sharing the database).
#[derive(Debug, Clone)]
struct Orphan {
    ty: ActivityType,
    channel: Channel,
    size: u64,
}

/// A snapshot of parent-vertex facts needed for merge decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    /// In an unfinished CAG.
    Open {
        cag: u64,
        v: usize,
        ty: ActivityType,
        channel: Channel,
    },
    /// In a finished CAG still buffered for amendment.
    Closed {
        cag: u64,
        v: usize,
        ty: ActivityType,
        channel: Channel,
    },
    /// An orphan vertex.
    Orphan {
        id: u64,
        ty: ActivityType,
        channel: Channel,
    },
    /// The reference points at evicted/drained state.
    Stale,
}

/// Oldest orphans spilled per chunk: one spill object amortizes page
/// slack across many tiny orphan records.
const ORPHAN_CHUNK: usize = 128;

/// Slack over twice the live entry count that a lazy index may reach
/// through stale items before it is dropped, to be rebuilt from its
/// source of truth when next needed.
const INDEX_SLACK: usize = 1_024;

/// Spill-tier bookkeeping: which objects are on disk, and the LRU-K
/// access history driving victim selection.
///
/// `lru` holds exactly the resident unfinished CAGs and decides every
/// victim; `victims` only finds it. The index is a lazy min-heap over
/// `lru` keys, built from `lru` on the first [`Engine::spill_one`] (a
/// budget that never binds builds nothing), so picking a victim costs
/// O(log n) instead of a scan of every resident CAG. From then on every
/// CAG in `lru` has an item whose key is at most its current key (a
/// touch only raises a key, and a CAG that enters `lru` pushes its
/// item); touches push nothing.
#[derive(Debug)]
struct SpillState {
    file: Arc<SpillFile>,
    /// Spilled unfinished CAGs by id.
    cags: FxHashMap<u64, PageExtent>,
    /// Spilled orphan chunks; a slot is freed when its chunk faults back.
    orphan_chunks: Vec<Option<PageExtent>>,
    /// The free slots of `orphan_chunks`.
    free_chunk_slots: Vec<u32>,
    /// Orphan id → chunk slot.
    orphan_index: FxHashMap<u64, u32>,
    /// LRU-K (K = 2) history of every *resident* unfinished CAG, and of
    /// no other: the two most recent touch ticks `(previous, last)` on
    /// the logical clock (`counters.delivered`). Victim = smallest
    /// `(previous, last, id)`, i.e. the CAG with the largest backward-K
    /// distance; the id tie-break keeps selection deterministic.
    lru: FxHashMap<u64, (u64, u64)>,
    /// Victim index: min-heap of `(previous, last, id)` (see the type
    /// docs), `None` until the first spill and after stale items grew it
    /// past twice `lru`. A popped item that lags its CAG's key is pushed
    /// back at the current key; one above it, or whose CAG left `lru`,
    /// is dropped.
    victims: Option<BinaryHeap<Reverse<LruKey>>>,
    /// Min-heap of spilled CAG ids, for the unfinished cap's "stalest
    /// CAG may be on disk" check; `None` until the cap first binds. An
    /// id no longer in `cags` is dropped when it surfaces.
    spilled_ids: Option<BinaryHeap<Reverse<u64>>>,
    /// CAGs with `last ≥ pin_epoch` were touched since the correlator's
    /// last sampling boundary and are pinned (spilling the working set
    /// would thrash); advanced by [`Engine::spill_checkpoint`].
    pin_epoch: u64,
    /// Hostnames and programs of faulted-back CAGs: one `Arc<str>` per
    /// distinct name for the whole run instead of fresh ones per fault.
    names: Interner,
}

/// A victim key, `(previous, last, id)`: smallest spills first.
type LruKey = (u64, u64, u64);

impl SpillState {
    /// Indexes a CAG that just entered `lru` with `key`. An index that
    /// stale items (finished, abandoned or spilled CAGs) have grown past
    /// twice `lru` is dropped instead, and rebuilt by the next pick: an
    /// endless run does not grow it.
    fn index_new(&mut self, key: LruKey) {
        if let Some(heap) = &mut self.victims {
            if heap.len() >= 2 * self.lru.len() + INDEX_SLACK {
                self.victims = None;
            } else {
                heap.push(Reverse(key));
            }
        }
    }

    /// The victim the spill tier pages out next: the smallest key among
    /// unpinned resident CAGs, else (working set fully pinned) the
    /// smallest among pinned ones. Its item leaves the index.
    fn pick_victim(&mut self) -> Option<u64> {
        let lru = &self.lru;
        let heap = self.victims.get_or_insert_with(|| {
            lru.iter()
                .map(|(&id, &(prev, last))| Reverse((prev, last, id)))
                .collect()
        });
        // Pinned candidates, popped in ascending key order.
        let mut pinned: Vec<LruKey> = Vec::new();
        let mut victim = None;
        while let Some(Reverse(item)) = heap.pop() {
            let id = item.2;
            let Some(&(prev, last)) = lru.get(&id) else {
                continue;
            };
            let key = (prev, last, id);
            if item < key {
                heap.push(Reverse(key));
            } else if item > key {
                // A duplicate: the CAG's own item is at most its key.
            } else if key.1 < self.pin_epoch {
                victim = Some(id);
                break;
            } else {
                pinned.push(key);
            }
        }
        let mut pinned = pinned.into_iter();
        if victim.is_none() {
            victim = pinned.next().map(|k| k.2);
        }
        heap.extend(pinned.map(Reverse));
        victim
    }

    /// Records a spilled CAG in the spilled-id index, dropping an index
    /// that faulted-back ids have grown past twice the spilled count.
    fn index_spilled(&mut self, id: u64) {
        if let Some(heap) = &mut self.spilled_ids {
            if heap.len() >= 2 * self.cags.len() + INDEX_SLACK {
                self.spilled_ids = None;
            } else {
                heap.push(Reverse(id));
            }
        }
    }

    /// The smallest spilled CAG id.
    fn stalest_spilled(&mut self) -> Option<u64> {
        let cags = &self.cags;
        let heap = self
            .spilled_ids
            .get_or_insert_with(|| cags.keys().map(|&id| Reverse(id)).collect());
        while let Some(&Reverse(id)) = heap.peek() {
            if cags.contains_key(&id) {
                return Some(id);
            }
            heap.pop();
        }
        None
    }
}

/// The CAG construction engine.
#[derive(Debug)]
pub struct Engine {
    opts: EngineOptions,
    unfinished: BTreeMap<u64, Cag>,
    finished: Vec<Cag>,
    /// `counters.delivered` at the moment each `finished` entry closed,
    /// index-aligned with `finished`; drives the `max_seal_lag` bound.
    finished_at: Vec<u64>,
    finished_index: FxHashMap<u64, usize>,
    mmap: FxHashMap<Channel, VecDeque<Pending>>,
    mmap_order: VecDeque<Channel>,
    pending_count: usize,
    cmap: FxHashMap<ContextId, VRef>,
    orphans: BTreeMap<u64, Orphan>,
    next_cag_id: u64,
    next_orphan_id: u64,
    counters: EngineCounters,
    /// Incremental byte accounting for Fig. 11: vertices and tags of
    /// resident unfinished CAGs, and vertices of the `finished` buffer.
    vertex_count: usize,
    tag_count: usize,
    finished_vertices: usize,
    /// Spill tier (enabled by the correlator when a memory budget is
    /// paired with a spill directory).
    spill: Option<Box<SpillState>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineOptions::default())
    }
}

impl Engine {
    /// Creates an engine with the given options.
    pub fn new(opts: EngineOptions) -> Self {
        Engine {
            opts,
            unfinished: BTreeMap::new(),
            finished: Vec::new(),
            finished_at: Vec::new(),
            finished_index: FxHashMap::default(),
            mmap: FxHashMap::default(),
            mmap_order: VecDeque::new(),
            pending_count: 0,
            cmap: FxHashMap::default(),
            orphans: BTreeMap::new(),
            next_cag_id: 0,
            next_orphan_id: 0,
            counters: EngineCounters::default(),
            vertex_count: 0,
            tag_count: 0,
            finished_vertices: 0,
            spill: None,
        }
    }

    /// The engine's activity counters.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// Number of CAGs still under construction.
    pub fn unfinished_len(&self) -> usize {
        self.unfinished.len()
    }

    /// Number of finished CAGs awaiting [`Engine::take_finished`].
    pub fn finished_len(&self) -> usize {
        self.finished.len()
    }

    /// Removes and returns all finished CAGs, oldest first.
    pub fn take_finished(&mut self) -> Vec<Cag> {
        self.finished_index.clear();
        self.finished_at.clear();
        self.finished_vertices = 0;
        std::mem::take(&mut self.finished)
    }

    /// Removes and returns only the finished CAGs that can no longer be
    /// amended by trailing END segments: a CAG is *sealed* once its END
    /// vertex is no longer the latest activity of its context (the
    /// execution entity moved on to other work). Used by the streaming
    /// correlator so that incremental polling yields the same CAGs as an
    /// offline run.
    ///
    /// `max_lag` bounds the sealing latency: a finished CAG whose
    /// context has *not* moved on is force-sealed anyway once more than
    /// `max_lag` candidates were delivered since it finished (counted
    /// in [`EngineCounters::forced_seals`]); any trailing END chunk
    /// arriving later can no longer amend it. `None` waits indefinitely
    /// (the default, and the only mode whose output is independent of
    /// emission timing).
    pub fn take_sealed(&mut self, max_lag: Option<u64>) -> Vec<Cag> {
        let finished = std::mem::take(&mut self.finished);
        let finished_at = std::mem::take(&mut self.finished_at);
        self.finished_index.clear();
        let mut out = Vec::new();
        for (cag, at) in finished.into_iter().zip(finished_at) {
            let end_idx = cag.vertices.len() - 1;
            let end = &cag.vertices[end_idx];
            let still_latest = end.ty == ActivityType::End
                && self.cmap.get(&end.ctx)
                    == Some(&VRef::Cag {
                        cag: cag.id,
                        v: end_idx,
                    });
            if still_latest {
                if max_lag.is_some_and(|lag| self.counters.delivered.saturating_sub(at) > lag) {
                    self.counters.forced_seals += 1;
                    self.finished_vertices -= cag.vertices.len();
                    out.push(cag);
                } else {
                    self.finished_index.insert(cag.id, self.finished.len());
                    self.finished.push(cag);
                    self.finished_at.push(at);
                }
            } else {
                self.finished_vertices -= cag.vertices.len();
                out.push(cag);
            }
        }
        out
    }

    /// Enables the spill tier backed by `file`. Subsequent
    /// [`Engine::spill_one`] calls page cold state out; everything
    /// faults back on touch, so output stays byte-identical to an
    /// unbounded run.
    pub fn enable_spill(&mut self, file: Arc<SpillFile>) {
        self.spill = Some(Box::new(SpillState {
            file,
            cags: FxHashMap::default(),
            orphan_chunks: Vec::new(),
            free_chunk_slots: Vec::new(),
            orphan_index: FxHashMap::default(),
            // CAGs already open have no history: they sort first.
            lru: self.unfinished.keys().map(|&id| (id, (0, 0))).collect(),
            victims: None,
            spilled_ids: None,
            pin_epoch: 0,
            names: Interner::new(),
        }));
    }

    /// Number of unfinished CAGs currently paged out.
    pub fn spilled_len(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.cags.len())
    }

    /// Marks a sampling boundary: CAGs touched at or after this point
    /// are pinned (never spill victims) until the next checkpoint. The
    /// streaming correlator calls this from its budget loop so the
    /// working set of the current batch stays resident.
    pub fn spill_checkpoint(&mut self) {
        if let Some(sp) = self.spill.as_deref_mut() {
            sp.pin_epoch = self.counters.delivered;
        }
    }

    /// Pages one unit of cold state out to the spill tier: the LRU-K
    /// victim among unpinned resident unfinished CAGs, else (working
    /// set fully pinned) the overall LRU-K victim, else a chunk of the
    /// oldest orphans. Returns `false` when nothing remains to spill —
    /// the resident floor (`mmap`/`cmap` and the window buffers) stays.
    pub fn spill_one(&mut self) -> bool {
        let Some(sp) = self.spill.as_deref_mut() else {
            return false;
        };
        if let Some(id) = sp.pick_victim() {
            let cag = self.unfinished.remove(&id).expect("victim is resident");
            self.vertex_count -= cag.vertices.len();
            self.tag_count -= cag.vertices.iter().map(|v| v.tags.len()).sum::<usize>();
            let mut buf = Vec::new();
            spill::encode_cag(&cag, &mut buf);
            self.counters.spilled_bytes += buf.len() as u64;
            let ext = sp.file.put(buf);
            sp.cags.insert(id, ext);
            sp.index_spilled(id);
            sp.lru.remove(&id);
            self.counters.spilled_cags += 1;
            return true;
        }
        // No resident CAG left: page out the oldest orphans, a chunk at
        // a time (each orphan is tiny; one object per chunk amortizes
        // page slack).
        let mut buf = Vec::new();
        let mut ids = Vec::new();
        codec::put_u32(&mut buf, 0);
        while ids.len() < ORPHAN_CHUNK {
            let Some((id, o)) = self.orphans.pop_first() else {
                break;
            };
            codec::put_u64(&mut buf, id);
            codec::put_activity_type(&mut buf, o.ty);
            codec::put_channel(&mut buf, o.channel);
            codec::put_u64(&mut buf, o.size);
            ids.push(id);
        }
        if ids.is_empty() {
            return false;
        }
        buf[..4].copy_from_slice(&(ids.len() as u32).to_le_bytes());
        self.counters.spilled_orphans += ids.len() as u64;
        self.counters.spilled_bytes += buf.len() as u64;
        let ext = sp.file.put(buf);
        let slot = sp.free_chunk_slots.pop().unwrap_or_else(|| {
            sp.orphan_chunks.push(None);
            (sp.orphan_chunks.len() - 1) as u32
        });
        sp.orphan_chunks[slot as usize] = Some(ext);
        for id in ids {
            sp.orphan_index.insert(id, slot);
        }
        true
    }

    /// Faults the object behind `vref` back in when it was spilled, and
    /// records the touch in the LRU-K history. Every resolve of a
    /// context/message parent goes through here, so spilling is purely a
    /// residency change — no decision ever sees a spilled object as
    /// absent.
    fn fault_vref(&mut self, vref: VRef) {
        if self.spill.is_none() {
            return;
        }
        match vref {
            VRef::Cag { cag, .. } => self.fault_cag(cag),
            VRef::Orphan { id } => self.fault_orphan_chunk(id),
        }
    }

    fn fault_cag(&mut self, id: u64) {
        let Some(sp) = self.spill.as_deref_mut() else {
            return;
        };
        if let Some(ext) = sp.cags.remove(&id) {
            let bytes = sp.file.get(ext);
            let cag = spill::decode_cag(&bytes, &mut sp.names);
            self.vertex_count += cag.vertices.len();
            self.tag_count += cag.vertices.iter().map(|v| v.tags.len()).sum::<usize>();
            self.unfinished.insert(id, cag);
            self.counters.spill_faults += 1;
        } else if !sp.lru.contains_key(&id) {
            // Not resident either: a context's latest vertex is usually
            // in a CAG that has finished or was drained; a touch
            // recorded for it would never be removed.
            return;
        }
        self.touch_cag(id);
    }

    fn fault_orphan_chunk(&mut self, id: u64) {
        let Some(sp) = self.spill.as_deref_mut() else {
            return;
        };
        let Some(slot) = sp.orphan_index.get(&id).copied() else {
            return;
        };
        let ext = sp.orphan_chunks[slot as usize]
            .take()
            .expect("indexed chunk is live");
        sp.free_chunk_slots.push(slot);
        let bytes = sp.file.get(ext);
        let mut d = codec::Dec::new(&bytes);
        let n = d.count(33); // id, type, channel, size
        for _ in 0..n {
            let oid = d.u64();
            let ty = d.activity_type();
            let channel = codec::get_channel(&mut d);
            let size = d.u64();
            sp.orphan_index.remove(&oid);
            self.orphans.insert(oid, Orphan { ty, channel, size });
        }
        d.finish().expect("corrupt orphan spill object");
        self.counters.spill_faults += 1;
    }

    /// Faults every spilled CAG back (end of stream: unfinished CAGs
    /// are about to be surfaced as deformed paths).
    fn fault_all_spilled_cags(&mut self) {
        let Some(sp) = self.spill.as_deref_mut() else {
            return;
        };
        let spilled: Vec<(u64, PageExtent)> = sp.cags.drain().collect();
        for (id, ext) in spilled {
            let bytes = sp.file.get(ext);
            let cag = spill::decode_cag(&bytes, &mut sp.names);
            self.vertex_count += cag.vertices.len();
            self.tag_count += cag.vertices.iter().map(|v| v.tags.len()).sum::<usize>();
            self.unfinished.insert(id, cag);
            self.counters.spill_faults += 1;
        }
    }

    /// Records a touch of CAG `id` at the current logical time,
    /// shifting its LRU-K history. A CAG new to the history joins the
    /// victim index; a touch of a known one only raises its key, which
    /// the index catches up with when the CAG's item surfaces.
    fn touch_cag(&mut self, id: u64) {
        let Some(sp) = self.spill.as_deref_mut() else {
            return;
        };
        let now = self.counters.delivered;
        match sp.lru.entry(id) {
            Entry::Occupied(e) => {
                let e = e.into_mut();
                if e.1 != now {
                    *e = (e.1, now);
                }
            }
            Entry::Vacant(e) => {
                e.insert((0, now));
                sp.index_new((0, now, id));
            }
        }
    }

    /// Whether `vref` points at spilled (alive, just not resident)
    /// state; used by the context GC to avoid pruning live bindings.
    fn is_spilled(&self, vref: VRef) -> bool {
        let Some(sp) = self.spill.as_deref() else {
            return false;
        };
        match vref {
            VRef::Cag { cag, .. } => sp.cags.contains_key(&cag),
            VRef::Orphan { id } => sp.orphan_index.contains_key(&id),
        }
    }

    /// Number of context-map entries currently held.
    pub fn context_count(&self) -> usize {
        self.cmap.len()
    }

    /// Drops the context binding for one entity, as if the entity had
    /// moved on to work this engine never sees. The sharded reader
    /// calls this when an entity's next record routes to a *different*
    /// shard (or into a reader-side-dropped orphan chain): the binding
    /// held here no longer reflects the entity's latest activity, and
    /// resolving it would merge later records into a chain the batch
    /// engine already left. Also what seals a finished CAG held only
    /// by its END still being the context's latest vertex.
    pub fn forget_ctx(&mut self, ctx: &ContextId) {
        self.cmap.remove(ctx);
    }

    /// Drops `cmap` entries that no longer resolve to live state
    /// (their CAG/orphan was drained or evicted). Behavior-neutral:
    /// every consumer treats a [`Resolved::Stale`] entry exactly like
    /// an absent one — this only reclaims the memory. Returns the
    /// number pruned; counted in [`EngineCounters::pruned_contexts`].
    pub fn prune_stale_contexts(&mut self) -> usize {
        let dead: Vec<ContextId> = self
            .cmap
            .iter()
            .filter(|&(_, &vref)| {
                // A spilled object resolves Stale only because it is not
                // resident; it is live state and its binding must stay.
                matches!(self.resolve(vref), Resolved::Stale) && !self.is_spilled(vref)
            })
            .map(|(ctx, _)| ctx.clone())
            .collect();
        for ctx in &dead {
            self.cmap.remove(ctx);
        }
        self.counters.pruned_contexts += dead.len() as u64;
        dead.len()
    }

    /// Abandons and returns all unfinished CAGs (used at end of stream to
    /// surface deformed paths caused by lost activities). Spilled CAGs
    /// fault back in first — the spill tier never costs recall.
    pub fn take_unfinished(&mut self) -> Vec<Cag> {
        self.fault_all_spilled_cags();
        if let Some(sp) = self.spill.as_deref_mut() {
            sp.lru.clear();
            sp.victims = None;
        }
        let cags: Vec<Cag> = std::mem::take(&mut self.unfinished).into_values().collect();
        self.vertex_count -= cags.iter().map(|c| c.vertices.len()).sum::<usize>();
        self.tag_count -= cags
            .iter()
            .flat_map(|c| c.vertices.iter())
            .map(|v| v.tags.len())
            .sum::<usize>();
        cags
    }

    /// Approximate resident bytes of all engine state (index maps,
    /// unfinished CAGs, buffered finished CAGs, orphans). Used for the
    /// Fig. 11 memory experiment. O(1): the correlator reads it every
    /// sampling boundary and in its budget loop.
    pub fn approx_bytes(&self) -> usize {
        self.approx_breakdown().iter().sum()
    }

    /// Approximate resident bytes split by component, in the order
    /// `(unfinished vertices+tags, pendings, cmap, orphans, finished
    /// buffer)` — diagnostics for memory-budget tuning. The pending
    /// figure includes the eviction-order queue (kept within 2× the
    /// live pending count by lazy compaction).
    pub fn approx_breakdown(&self) -> [usize; 5] {
        let vert = self.vertex_count * size_of::<Vertex>() + self.tag_count * 8;
        let pend = self.pending_count * (size_of::<Pending>() + size_of::<Channel>())
            + self.mmap_order.len() * size_of::<Channel>();
        let cmap = self.cmap.len() * (size_of::<ContextId>() + size_of::<VRef>() + 32);
        let orph = self.orphans.len() * (size_of::<Orphan>() + 16);
        let fin = self.finished_vertices * size_of::<Vertex>();
        [vert, pend, cmap, orph, fin]
    }

    fn resolve(&self, vref: VRef) -> Resolved {
        match vref {
            VRef::Cag { cag, v } => {
                if let Some(c) = self.unfinished.get(&cag) {
                    let vx = &c.vertices[v];
                    Resolved::Open {
                        cag,
                        v,
                        ty: vx.ty,
                        channel: vx.channel,
                    }
                } else if let Some(&idx) = self.finished_index.get(&cag) {
                    let vx = &self.finished[idx].vertices[v];
                    Resolved::Closed {
                        cag,
                        v,
                        ty: vx.ty,
                        channel: vx.channel,
                    }
                } else {
                    Resolved::Stale
                }
            }
            VRef::Orphan { id } => match self.orphans.get(&id) {
                Some(o) => Resolved::Orphan {
                    id,
                    ty: o.ty,
                    channel: o.channel,
                },
                None => Resolved::Stale,
            },
        }
    }

    /// Resolves a context's latest activity, faulting it back from the
    /// spill tier when needed (and recording the LRU touch).
    fn resolve_ctx(&mut self, ctx: &ContextId) -> Option<Resolved> {
        let vref = *self.cmap.get(ctx)?;
        self.fault_vref(vref);
        Some(self.resolve(vref))
    }

    fn vertex_from(a: &Activity, ctx_parent: Option<usize>, msg_parent: Option<usize>) -> Vertex {
        Vertex {
            ty: a.ty,
            ts: a.ts,
            ts_last: a.ts,
            ctx: a.ctx.clone(),
            channel: a.channel,
            size: a.size,
            tags: if a.tag != 0 { vec![a.tag] } else { Vec::new() },
            ctx_parent,
            msg_parent,
        }
    }

    fn push_vertex(&mut self, cag: u64, vertex: Vertex) -> usize {
        self.vertex_count += 1;
        self.tag_count += vertex.tags.len();
        self.touch_cag(cag);
        let c = self.unfinished.get_mut(&cag).expect("push into open CAG");
        c.vertices.push(vertex);
        c.vertices.len() - 1
    }

    fn new_orphan(&mut self, a: &Activity) -> u64 {
        let id = self.next_orphan_id;
        self.next_orphan_id += 1;
        self.orphans.insert(
            id,
            Orphan {
                ty: a.ty,
                channel: a.channel,
                size: a.size,
            },
        );
        self.counters.orphan_vertices += 1;
        while self.orphans.len() > self.opts.orphan_cap {
            self.orphans.pop_first();
            self.counters.evicted_orphans += 1;
        }
        id
    }

    /// Rebuilds `mmap_order` to hold exactly one entry per live pending.
    ///
    /// Entries are appended per SEND but the normal RECEIVE consume
    /// path drains only `mmap`, so on long streams the order queue
    /// accumulates stale entries without bound. The live pendings of a
    /// channel are its *newest* occurrences (pops consume oldest
    /// first), so a back-to-front sweep keeping the last `q.len()`
    /// occurrences per channel — order otherwise preserved — restores
    /// the oldest-first eviction order exactly. Amortized O(1): runs
    /// only when stale entries outnumber live ones.
    fn compact_mmap_order(&mut self) {
        let mut keep_left: FxHashMap<Channel, usize> = FxHashMap::default();
        for (ch, q) in &self.mmap {
            keep_left.insert(*ch, q.len());
        }
        let mut kept: VecDeque<Channel> = VecDeque::with_capacity(self.pending_count);
        while let Some(ch) = self.mmap_order.pop_back() {
            if let Some(n) = keep_left.get_mut(&ch) {
                if *n > 0 {
                    *n -= 1;
                    kept.push_front(ch);
                }
            }
        }
        self.mmap_order = kept;
    }

    fn push_pending(&mut self, channel: Channel, pending: Pending) {
        self.mmap.entry(channel).or_default().push_back(pending);
        self.mmap_order.push_back(channel);
        self.pending_count += 1;
        if self.mmap_order.len() > 2 * self.pending_count + 1_024 {
            self.compact_mmap_order();
        }
        while self.pending_count > self.opts.pending_cap {
            // Evict the globally oldest pending send.
            if let Some(ch) = self.mmap_order.pop_front() {
                if let Some(q) = self.mmap.get_mut(&ch) {
                    if q.pop_front().is_some() {
                        self.pending_count -= 1;
                        self.counters.evicted_pendings += 1;
                    }
                    if q.is_empty() {
                        self.mmap.remove(&ch);
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Processes one candidate activity — the body of the `correlate`
    /// procedure in Fig. 3.
    pub fn deliver(&mut self, a: Activity) {
        self.counters.delivered += 1;
        match a.ty {
            ActivityType::Begin => self.on_begin(a),
            ActivityType::End => self.on_end(a),
            ActivityType::Send => self.on_send(a),
            ActivityType::Receive => self.on_receive(a),
        }
    }

    fn on_begin(&mut self, a: Activity) {
        // Chunked client request: merge into the open root (line 15-16
        // applied to BEGIN, see access module docs).
        if self.opts.merge_segments {
            if let Some(Resolved::Open {
                cag,
                v,
                ty,
                channel,
            }) = self.resolve_ctx(&a.ctx)
            {
                if ty == ActivityType::Begin && channel == a.channel {
                    let vx = &mut self.unfinished.get_mut(&cag).expect("open").vertices[v];
                    vx.size += a.size;
                    vx.ts_last = a.ts;
                    if a.tag != 0 {
                        vx.tags.push(a.tag);
                        self.tag_count += 1;
                    }
                    self.counters.begin_merges += 1;
                    return;
                }
            }
        }
        let id = self.next_cag_id;
        self.next_cag_id += 1;
        let root = Self::vertex_from(&a, None, None);
        self.vertex_count += 1;
        self.tag_count += root.tags.len();
        self.unfinished.insert(
            id,
            Cag {
                id,
                vertices: vec![root],
                finished: false,
            },
        );
        self.counters.cags_opened += 1;
        self.touch_cag(id);
        self.cmap.insert(a.ctx, VRef::Cag { cag: id, v: 0 });
        // The cap counts spilled CAGs too — the spill tier bounds
        // memory, not the total amount of live state.
        while self.unfinished.len() + self.spilled_len() > self.opts.unfinished_cap {
            if let Some(stalest_spilled) = self
                .spill
                .as_deref_mut()
                .and_then(SpillState::stalest_spilled)
            {
                // CAG ids are assigned in BEGIN order, so the globally
                // stalest CAG may be on disk; fault it back so the
                // abandonment below picks it, keeping the policy
                // identical to the spill-free engine.
                if self
                    .unfinished
                    .first_key_value()
                    .is_none_or(|(&r, _)| stalest_spilled < r)
                {
                    self.fault_cag(stalest_spilled);
                }
            }
            if let Some((id, c)) = self.unfinished.pop_first() {
                self.vertex_count -= c.vertices.len();
                self.tag_count -= c.vertices.iter().map(|v| v.tags.len()).sum::<usize>();
                self.counters.abandoned_cags += 1;
                if let Some(sp) = self.spill.as_deref_mut() {
                    sp.lru.remove(&id);
                }
            } else {
                break;
            }
        }
    }

    fn on_end(&mut self, a: Activity) {
        match self.resolve_ctx(&a.ctx) {
            Some(Resolved::Open { cag, v, .. }) => {
                let vertex = Self::vertex_from(&a, Some(v), None);
                let idx = self.push_vertex(cag, vertex);
                self.cmap.insert(a.ctx, VRef::Cag { cag, v: idx });
                // Output the CAG (line 10).
                let mut done = self.unfinished.remove(&cag).expect("open");
                if let Some(sp) = self.spill.as_deref_mut() {
                    sp.lru.remove(&cag);
                }
                done.finished = true;
                self.finished_index.insert(cag, self.finished.len());
                // The vertices move from "unfinished" accounting into the
                // finished buffer, which approx_bytes counts separately.
                self.vertex_count -= done.vertices.len();
                self.tag_count -= done.vertices.iter().map(|v| v.tags.len()).sum::<usize>();
                self.finished_vertices += done.vertices.len();
                self.finished.push(done);
                self.finished_at.push(self.counters.delivered);
                self.counters.cags_finished += 1;
            }
            Some(Resolved::Closed {
                cag,
                v,
                ty,
                channel,
            }) if self.opts.amend_finished
                && self.opts.merge_segments
                && ty == ActivityType::End
                && channel == a.channel =>
            {
                // Trailing chunk of a chunked response.
                let idx = self.finished_index[&cag];
                let vx = &mut self.finished[idx].vertices[v];
                vx.size += a.size;
                vx.ts_last = a.ts;
                if a.tag != 0 {
                    vx.tags.push(a.tag);
                }
                self.counters.end_amends += 1;
            }
            _ => {
                // END with no BEGIN in its context (lost BEGIN or noise
                // send to a frontend port): keep the chain as an orphan.
                self.counters.unmatched_ends += 1;
                let id = self.new_orphan(&a);
                self.cmap.insert(a.ctx, VRef::Orphan { id });
            }
        }
    }

    fn on_send(&mut self, a: Activity) {
        let parent = self.resolve_ctx(&a.ctx);
        // Lines 15-16: consecutive same-channel sends merge by size.
        if self.opts.merge_segments {
            match parent {
                Some(Resolved::Open {
                    cag,
                    v,
                    ty,
                    channel,
                }) if ty.is_send_like() && channel == a.channel => {
                    let vx = &mut self.unfinished.get_mut(&cag).expect("open").vertices[v];
                    vx.size += a.size;
                    vx.ts_last = a.ts;
                    if a.tag != 0 {
                        vx.tags.push(a.tag);
                        self.tag_count += 1;
                    }
                    self.extend_pending(
                        a.channel,
                        VRef::Cag { cag, v },
                        a.size,
                        Self::seq_range(&a),
                    );
                    self.counters.send_merges += 1;
                    return;
                }
                Some(Resolved::Orphan { id, ty, channel })
                    if ty.is_send_like() && channel == a.channel =>
                {
                    if let Some(o) = self.orphans.get_mut(&id) {
                        o.size += a.size;
                    }
                    self.extend_pending(
                        a.channel,
                        VRef::Orphan { id },
                        a.size,
                        Self::seq_range(&a),
                    );
                    self.counters.send_merges += 1;
                    return;
                }
                _ => {}
            }
        }
        // Lines 17-20: new SEND vertex with a context edge when the
        // context parent is in an open CAG; otherwise an orphan chain.
        let vref = match parent {
            Some(Resolved::Open { cag, v, .. }) => {
                let vertex = Self::vertex_from(&a, Some(v), None);
                let idx = self.push_vertex(cag, vertex);
                VRef::Cag { cag, v: idx }
            }
            _ => VRef::Orphan {
                id: self.new_orphan(&a),
            },
        };
        self.push_pending(
            a.channel,
            Pending {
                vref,
                remaining: a.size,
                recv_tags: Vec::new(),
                range: Self::seq_range(&a),
            },
        );
        self.cmap.insert(a.ctx, vref);
    }

    /// Stream-offset range claimed by one send record (v2 only).
    fn seq_range(a: &Activity) -> Option<(u64, u64)> {
        a.seq.map(|s| (s, s + a.size.max(1)))
    }

    /// Adds `size` bytes to the pending entry of a merged send vertex, or
    /// opens a new pending when the previous bytes were fully received
    /// already (send/receive pipelining).
    fn extend_pending(&mut self, channel: Channel, vref: VRef, size: u64, rng: Option<(u64, u64)>) {
        if let Some(q) = self.mmap.get_mut(&channel) {
            if let Some(back) = q.back_mut() {
                if back.vref == vref {
                    back.remaining += size;
                    // Extend the claimed offsets; a v1 segment in a v2
                    // chain poisons the range (offset-exact matching
                    // would misattribute the untracked bytes).
                    back.range = match (back.range, rng) {
                        (Some((s, _)), Some((_, e2))) => Some((s, e2)),
                        _ => None,
                    };
                    return;
                }
            }
        }
        self.push_pending(
            channel,
            Pending {
                vref,
                remaining: size,
                recv_tags: Vec::new(),
                range: rng,
            },
        );
    }

    fn on_receive(&mut self, a: Activity) {
        let Some(q) = self.mmap.get_mut(&a.channel) else {
            self.counters.unmatched_receives += 1;
            return;
        };
        // With `TCP_TRACE v2` offsets on both sides, match by stream
        // ranges instead of byte counting — the same arithmetic the
        // sharded reader applies to its claim queues, so capture gaps
        // deform both modes identically instead of byte-shifting the
        // FIFO: pendings entirely below this receive lost their own
        // receive records (offsets are monotone — they can never match),
        // and a receive entirely below the front pending lost its send
        // records (it can never match either).
        if let Some(r0) = a.seq {
            let r1 = r0 + a.size.max(1);
            while matches!(
                q.front(),
                Some(p) if p.range.is_some_and(|(_, en)| en <= r0)
            ) {
                q.pop_front();
                self.pending_count -= 1;
                self.counters.gap_retired_pendings += 1;
            }
            if q.is_empty() {
                self.mmap.remove(&a.channel);
                self.counters.unmatched_receives += 1;
                return;
            }
            let front = q.front_mut().expect("nonempty");
            if let Some((fs, fe)) = front.range {
                if fs >= r1 {
                    self.counters.unmatched_receives += 1;
                    return;
                }
                // Overlap. Uncovered head bytes of [r0, fs) have no
                // pending (their send records were lost) and never
                // will — forgiven, like the reader forgives them.
                if fe > r1 {
                    // Partial segment of a larger message: consume
                    // [max(r0, fs), r1) offset-exactly, no vertex yet.
                    front.remaining = front.remaining.saturating_sub(r1 - r0.max(fs));
                    front.range = Some((r1, fe));
                    if a.tag != 0 {
                        front.recv_tags.push(a.tag);
                    }
                    self.counters.partial_receives += 1;
                    return;
                }
                // The front message completes; consume further pendings
                // overlapping [r0, r1) (receiver coalesced across
                // message boundaries, counted like the byte path).
                let done = q.pop_front().expect("front exists");
                self.pending_count -= 1;
                while let Some(nxt) = q.front_mut() {
                    let Some((s, en)) = nxt.range else { break };
                    if s >= r1 {
                        break;
                    }
                    self.counters.cross_message_receives += 1;
                    if en <= r1 {
                        q.pop_front();
                        self.pending_count -= 1;
                    } else {
                        nxt.remaining = nxt.remaining.saturating_sub(r1 - s);
                        nxt.range = Some((r1, en));
                        break;
                    }
                }
                if q.is_empty() {
                    self.mmap.remove(&a.channel);
                }
                self.materialize_receive(a, done);
                return;
            }
            // No usable range on the front (v1 sender or poisoned
            // chain): fall through to byte counting.
        }
        let Some(front) = q.front_mut() else {
            self.counters.unmatched_receives += 1;
            return;
        };
        // Line 25: parent_msg.size -= current.size.
        if a.size < front.remaining {
            front.remaining -= a.size;
            if a.tag != 0 {
                front.recv_tags.push(a.tag);
            }
            self.counters.partial_receives += 1;
            return;
        }
        // The receive completes (and possibly overruns) the front message.
        let mut need = a.size - front.remaining;
        let done = q.pop_front().expect("front exists");
        self.pending_count -= 1;
        while need > 0 {
            // Receiver coalesced bytes across message boundaries; consume
            // further pendings (assumption violation, counted).
            self.counters.cross_message_receives += 1;
            match q.front_mut() {
                Some(nxt) if need < nxt.remaining => {
                    nxt.remaining -= need;
                    need = 0;
                }
                Some(_) => {
                    let p = q.pop_front().expect("front exists");
                    self.pending_count -= 1;
                    need -= p.remaining;
                }
                None => {
                    self.counters.unmatched_receives += 1;
                    break;
                }
            }
        }
        if q.is_empty() {
            self.mmap.remove(&a.channel);
        }
        self.materialize_receive(a, done);
    }

    /// Lines 26-33: materialize the RECEIVE vertex. The vertex's tags
    /// are the receive segments consumed along the way plus this one
    /// (added by `vertex_from`).
    fn materialize_receive(&mut self, a: Activity, mut done: Pending) {
        let tags = std::mem::take(&mut done.recv_tags);
        self.fault_vref(done.vref);
        match self.resolve(done.vref) {
            Resolved::Open {
                cag: msg_cag,
                v: msg_v,
                ..
            } => {
                let ctx_parent = self.receive_ctx_parent(&a, msg_cag);
                match ctx_parent {
                    CtxParent::SameCag(p) | CtxParent::None(p) => {
                        let mut vertex = Self::vertex_from(&a, p, Some(msg_v));
                        let own = std::mem::take(&mut vertex.tags);
                        vertex.tags = tags;
                        vertex.tags.extend(own);
                        let idx = self.push_vertex(msg_cag, vertex);
                        self.cmap.insert(
                            a.ctx,
                            VRef::Cag {
                                cag: msg_cag,
                                v: idx,
                            },
                        );
                    }
                    CtxParent::ForeignCag { cag, v } => {
                        // Ablation only (thread_reuse_check = false):
                        // reproduce the mis-correlation by following the
                        // stale context chain instead of the message.
                        let mut vertex = Self::vertex_from(&a, Some(v), None);
                        let own = std::mem::take(&mut vertex.tags);
                        vertex.tags = tags;
                        vertex.tags.extend(own);
                        let idx = self.push_vertex(cag, vertex);
                        self.cmap.insert(a.ctx, VRef::Cag { cag, v: idx });
                    }
                }
            }
            Resolved::Orphan { id, .. } => {
                // Noise chain: the receive continues the orphan chain.
                let _ = id;
                let oid = self.new_orphan(&a);
                self.cmap.insert(a.ctx, VRef::Orphan { id: oid });
            }
            Resolved::Closed { .. } | Resolved::Stale => {
                self.counters.unmatched_receives += 1;
            }
        }
    }

    fn receive_ctx_parent(&mut self, a: &Activity, msg_cag: u64) -> CtxParent {
        match self.resolve_ctx(&a.ctx) {
            Some(Resolved::Open { cag, v, .. }) => {
                if cag == msg_cag {
                    CtxParent::SameCag(Some(v))
                } else if self.opts.thread_reuse_check {
                    // Lines 29-32: parents in different CAGs → no context
                    // edge (thread reuse in a pool).
                    self.counters.reuse_suppressed_edges += 1;
                    CtxParent::None(None)
                } else {
                    CtxParent::ForeignCag { cag, v }
                }
            }
            Some(Resolved::Closed { .. }) | Some(Resolved::Orphan { .. }) => {
                // The previous activity of this execution entity belongs
                // to an already-completed request (pool thread reused) or
                // to a noise chain: same-CAG check fails either way.
                self.counters.reuse_suppressed_edges += 1;
                CtxParent::None(None)
            }
            _ => CtxParent::None(None),
        }
    }
}

enum CtxParent {
    SameCag(Option<usize>),
    None(Option<usize>),
    ForeignCag { cag: u64, v: usize },
}

impl MatchOracle for Engine {
    fn rule1_matches(&self, a: &Activity) -> bool {
        let Some(q) = self.mmap.get(&a.channel) else {
            return false;
        };
        if let Some(r0) = a.seq {
            // Mirror `on_receive`'s v2 arithmetic: pendings wholly below
            // the receive lost their own receives and will be retired on
            // delivery. Treating them as a Rule-1 match would boost this
            // receive ahead of its true sender's SEND record and bind it
            // to a claim the offsets already disprove.
            let r1 = r0 + a.size.max(1);
            for p in q.iter() {
                match p.range {
                    Some((_, en)) if en <= r0 => continue,
                    Some((fs, _)) => return fs < r1,
                    None => return p.remaining >= a.size,
                }
            }
            return false;
        }
        q.front().is_some_and(|p| p.remaining >= a.size)
    }

    fn has_any_pending(&self, a: &Activity) -> bool {
        let Some(q) = self.mmap.get(&a.channel) else {
            return false;
        };
        if let Some(r0) = a.seq {
            q.iter().any(|p| p.range.is_none_or(|(_, en)| en > r0))
        } else {
            !q.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{EndpointV4, LocalTime};

    fn ep(s: &str) -> EndpointV4 {
        s.parse().unwrap()
    }

    #[allow(clippy::too_many_arguments)]
    fn act(
        ty: ActivityType,
        ts: u64,
        host: &str,
        prog: &str,
        tid: u32,
        src: &str,
        dst: &str,
        size: u64,
        tag: u64,
    ) -> Activity {
        Activity {
            ty,
            ts: LocalTime::from_nanos(ts),
            ctx: ContextId::new(host, prog, 1, tid),
            channel: Channel::new(ep(src), ep(dst)),
            size,
            tag,
            seq: None,
        }
    }

    const CLIENT: &str = "192.168.0.9:5000";
    const WEB_FRONT: &str = "10.0.0.1:80";
    const WEB_OUT: &str = "10.0.0.1:4001";
    const APP_IN: &str = "10.0.0.2:9000";

    fn two_tier_request(e: &mut Engine) {
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            120,
            1,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_000,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            64,
            2,
        ));
        e.deliver(act(
            ActivityType::Receive,
            2_500,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            64,
            3,
        ));
        e.deliver(act(
            ActivityType::Send,
            4_000,
            "app",
            "java",
            21,
            APP_IN,
            WEB_OUT,
            256,
            4,
        ));
        e.deliver(act(
            ActivityType::Receive,
            4_400,
            "web",
            "httpd",
            7,
            APP_IN,
            WEB_OUT,
            256,
            5,
        ));
        e.deliver(act(
            ActivityType::End,
            5_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            512,
            6,
        ));
    }

    #[test]
    fn builds_a_complete_two_tier_cag() {
        let mut e = Engine::default();
        two_tier_request(&mut e);
        assert_eq!(e.finished_len(), 1);
        assert_eq!(e.unfinished_len(), 0);
        let cags = e.take_finished();
        let cag = &cags[0];
        cag.validate().expect("valid");
        assert_eq!(cag.vertices.len(), 6);
        assert_eq!(cag.sorted_tags(), vec![1, 2, 3, 4, 5, 6]);
        // The httpd response RECEIVE has two parents.
        let recv = &cag.vertices[4];
        assert_eq!(recv.parent_count(), 2);
    }

    #[test]
    fn lru_history_holds_only_resident_unfinished_cags() {
        let mut e = Engine::default();
        let file = SpillFile::create(&std::env::temp_dir()).unwrap();
        e.enable_spill(Arc::new(file));
        for i in 0..3_000u32 {
            // The same two threads serve every request, so each BEGIN
            // resolves a context whose latest vertex is in the previous,
            // finished CAG.
            two_tier_request(&mut e);
            if i.is_multiple_of(50) {
                // A request that never completes, paged out or not.
                let (src, dst) = (format!("192.168.1.9:{}", 1024 + i), WEB_FRONT);
                e.deliver(act(
                    ActivityType::Begin,
                    1_000,
                    "web",
                    "httpd",
                    100 + i,
                    &src,
                    dst,
                    1,
                    0,
                ));
                if i.is_multiple_of(100) {
                    assert!(e.spill_one());
                }
            }
            if i.is_multiple_of(7) {
                e.take_finished();
            }
            let history = e.spill.as_ref().unwrap().lru.len();
            assert_eq!(history, e.unfinished_len(), "after request {i}");
        }
        assert_eq!(e.take_unfinished().len(), 60);
        assert!(e.spill.as_ref().unwrap().lru.is_empty());
    }

    #[test]
    fn victim_index_is_built_on_the_first_spill_and_stays_bounded() {
        let mut e = Engine::default();
        let file = SpillFile::create(&std::env::temp_dir()).unwrap();
        e.enable_spill(Arc::new(file));
        let index_len = |e: &Engine| {
            let sp = e.spill.as_ref().unwrap();
            sp.victims.as_ref().map(BinaryHeap::len)
        };
        for tid in 100..160 {
            let src = format!("192.168.1.9:{}", 1024 + tid);
            e.deliver(act(
                ActivityType::Begin,
                1_000,
                "web",
                "httpd",
                tid,
                &src,
                WEB_FRONT,
                1,
                0,
            ));
        }
        // A spill tier that never binds builds no index.
        for _ in 0..3_000 {
            two_tier_request(&mut e);
            e.take_finished();
        }
        let sp = e.spill.as_ref().unwrap();
        assert!(sp.victims.is_none() && sp.spilled_ids.is_none());
        assert!(e.spill_one());
        // One item per resident CAG, the victim's popped.
        assert_eq!(index_len(&e), Some(59));
        // Touching resident CAGs pushes nothing: the index catches up
        // when their items surface.
        for i in 0..5_000u32 {
            let tid = 101 + i % 59;
            let out = format!("10.0.0.1:{}", 20_000 + tid);
            e.deliver(act(
                ActivityType::Send,
                2_000 + u64::from(i),
                "web",
                "httpd",
                tid,
                &out,
                APP_IN,
                1,
                0,
            ));
            assert_eq!(index_len(&e), Some(59), "after touch {i}");
        }
        // Endless churn after a spill: every BEGIN pushes an item that
        // its END leaves stale, yet the index never outgrows twice the
        // resident count plus the slack.
        for i in 0..10_000u32 {
            two_tier_request(&mut e);
            if i.is_multiple_of(3) {
                e.take_finished();
            }
            let len = index_len(&e).unwrap_or(0);
            assert!(len <= 2 * 60 + INDEX_SLACK, "{len} items after request {i}");
        }
        assert!(e.spill_one());
        assert_eq!(e.spilled_len(), 2);
    }

    #[test]
    fn take_finished_drains() {
        let mut e = Engine::default();
        two_tier_request(&mut e);
        assert_eq!(e.take_finished().len(), 1);
        assert_eq!(e.take_finished().len(), 0);
    }

    #[test]
    fn merges_chunked_sends_by_size() {
        // Sender writes 900 + 544; receiver reads 512 + 512 + 420 (Fig. 4).
        let mut e = Engine::default();
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            120,
            1,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_000,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            900,
            2,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_100,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            544,
            3,
        ));
        e.deliver(act(
            ActivityType::Receive,
            2_500,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            512,
            4,
        ));
        e.deliver(act(
            ActivityType::Receive,
            2_600,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            512,
            5,
        ));
        e.deliver(act(
            ActivityType::Receive,
            2_700,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            420,
            6,
        ));
        e.deliver(act(
            ActivityType::Send,
            4_000,
            "app",
            "java",
            21,
            APP_IN,
            WEB_OUT,
            256,
            7,
        ));
        e.deliver(act(
            ActivityType::Receive,
            4_400,
            "web",
            "httpd",
            7,
            APP_IN,
            WEB_OUT,
            256,
            8,
        ));
        e.deliver(act(
            ActivityType::End,
            5_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            512,
            9,
        ));
        let cags = e.take_finished();
        assert_eq!(cags.len(), 1);
        let cag = &cags[0];
        cag.validate().expect("valid");
        // 900+544 merged into one SEND vertex; 512+512+420 into one RECEIVE.
        assert_eq!(cag.vertices.len(), 6);
        let send = &cag.vertices[1];
        assert_eq!(send.size, 1444);
        assert_eq!(send.tags, vec![2, 3]);
        let recv = &cag.vertices[2];
        assert_eq!(recv.size, 420); // size of the completing segment
        assert_eq!(recv.tags, vec![4, 5, 6]);
        assert_eq!(recv.ts, LocalTime::from_nanos(2_700)); // completion time
        assert_eq!(e.counters().send_merges, 1);
        assert_eq!(e.counters().partial_receives, 2);
    }

    #[test]
    fn thread_reuse_check_suppresses_cross_cag_context_edge() {
        let mut e = Engine::default();
        // Request 1 completes through app thread 21.
        two_tier_request(&mut e);
        // Request 2 from a different web worker reuses app thread 21.
        e.deliver(act(
            ActivityType::Begin,
            11_000,
            "web",
            "httpd",
            8,
            "192.168.0.9:5001",
            WEB_FRONT,
            120,
            11,
        ));
        e.deliver(act(
            ActivityType::Send,
            12_000,
            "web",
            "httpd",
            8,
            "10.0.0.1:4002",
            APP_IN,
            64,
            12,
        ));
        e.deliver(act(
            ActivityType::Receive,
            12_500,
            "app",
            "java",
            21,
            "10.0.0.1:4002",
            APP_IN,
            64,
            13,
        ));
        e.deliver(act(
            ActivityType::Send,
            14_000,
            "app",
            "java",
            21,
            APP_IN,
            "10.0.0.1:4002",
            256,
            14,
        ));
        e.deliver(act(
            ActivityType::Receive,
            14_400,
            "web",
            "httpd",
            8,
            APP_IN,
            "10.0.0.1:4002",
            256,
            15,
        ));
        e.deliver(act(
            ActivityType::End,
            15_000,
            "web",
            "httpd",
            8,
            WEB_FRONT,
            "192.168.0.9:5001",
            512,
            16,
        ));
        let cags = e.take_finished();
        assert_eq!(cags.len(), 2);
        for c in &cags {
            c.validate().expect("valid");
        }
        // The app RECEIVE of request 2 must not have a context edge from
        // request 1's chain.
        let r2 = &cags[1];
        let recv = &r2.vertices[2];
        assert_eq!(recv.ty, ActivityType::Receive);
        assert_eq!(recv.msg_parent, Some(1));
        assert_eq!(recv.ctx_parent, None);
        assert_eq!(e.counters().reuse_suppressed_edges, 1);
        assert_eq!(r2.sorted_tags(), vec![11, 12, 13, 14, 15, 16]);
    }

    #[test]
    fn disabling_thread_reuse_check_corrupts_paths() {
        let mut e = Engine::new(EngineOptions {
            thread_reuse_check: false,
            ..EngineOptions::default()
        });
        two_tier_request(&mut e);
        e.deliver(act(
            ActivityType::Begin,
            11_000,
            "web",
            "httpd",
            8,
            "192.168.0.9:5001",
            WEB_FRONT,
            120,
            11,
        ));
        e.deliver(act(
            ActivityType::Send,
            12_000,
            "web",
            "httpd",
            8,
            "10.0.0.1:4002",
            APP_IN,
            64,
            12,
        ));
        // app thread 21 reused: its cmap still points into CAG 1 (finished).
        e.deliver(act(
            ActivityType::Receive,
            12_500,
            "app",
            "java",
            21,
            "10.0.0.1:4002",
            APP_IN,
            64,
            13,
        ));
        // With the check disabled the receive follows the stale context
        // chain; since CAG 1 is already finished the resolve is Closed and
        // the check cannot even misfire here — exercise the in-flight case:
        // request 3 starts before request 2 finishes.
        let finished = e.take_finished().len();
        assert_eq!(finished, 1);
    }

    #[test]
    fn chunked_begin_merges_into_root() {
        let mut e = Engine::default();
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            100,
            1,
        ));
        e.deliver(act(
            ActivityType::Begin,
            1_050,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            60,
            2,
        ));
        e.deliver(act(
            ActivityType::End,
            5_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            512,
            3,
        ));
        let cags = e.take_finished();
        assert_eq!(cags.len(), 1, "chunked request must open exactly one CAG");
        assert_eq!(cags[0].vertices[0].size, 160);
        assert_eq!(e.counters().begin_merges, 1);
    }

    #[test]
    fn keep_alive_connection_opens_new_cag_after_end() {
        let mut e = Engine::default();
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            100,
            1,
        ));
        e.deliver(act(
            ActivityType::End,
            2_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            512,
            2,
        ));
        // Second request on the same connection and context.
        e.deliver(act(
            ActivityType::Begin,
            3_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            100,
            3,
        ));
        e.deliver(act(
            ActivityType::End,
            4_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            512,
            4,
        ));
        assert_eq!(e.take_finished().len(), 2);
        assert_eq!(e.counters().begin_merges, 0);
    }

    #[test]
    fn trailing_end_chunks_amend_finished_cag() {
        let mut e = Engine::default();
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            100,
            1,
        ));
        e.deliver(act(
            ActivityType::End,
            2_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            512,
            2,
        ));
        e.deliver(act(
            ActivityType::End,
            2_100,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            488,
            3,
        ));
        let cags = e.take_finished();
        assert_eq!(cags.len(), 1);
        let end = cags[0].end().unwrap();
        assert_eq!(end.size, 1000);
        assert_eq!(end.ts, LocalTime::from_nanos(2_000)); // first chunk is the STOP
        assert_eq!(end.ts_last, LocalTime::from_nanos(2_100));
        assert_eq!(e.counters().end_amends, 1);
    }

    #[test]
    fn unmatched_receive_is_counted_not_crashed() {
        let mut e = Engine::default();
        e.deliver(act(
            ActivityType::Receive,
            1_000,
            "db",
            "mysqld",
            9,
            "9.9.9.9:1000",
            "10.0.0.3:3306",
            64,
            0,
        ));
        assert_eq!(e.counters().unmatched_receives, 1);
        assert_eq!(e.unfinished_len(), 0);
    }

    #[test]
    fn noise_send_chain_stays_orphan() {
        let mut e = Engine::default();
        // A mysqld connection thread serving a noise client: sends with no
        // BEGIN context.
        e.deliver(act(
            ActivityType::Send,
            1_000,
            "db",
            "mysqld",
            99,
            "10.0.0.3:3306",
            "9.9.9.9:1000",
            64,
            0,
        ));
        e.deliver(act(
            ActivityType::Send,
            1_100,
            "db",
            "mysqld",
            99,
            "10.0.0.3:3306",
            "9.9.9.9:1000",
            64,
            0,
        ));
        assert_eq!(e.counters().orphan_vertices, 1); // second send merged
        assert_eq!(e.counters().send_merges, 1);
        assert_eq!(e.unfinished_len(), 0);
        assert_eq!(e.finished_len(), 0);
    }

    #[test]
    fn pipelined_sends_after_full_receive_reopen_pending() {
        let mut e = Engine::default();
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            100,
            1,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_000,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            64,
            2,
        ));
        e.deliver(act(
            ActivityType::Receive,
            2_500,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            64,
            3,
        ));
        // httpd sends a second chunk on the same channel *after* the first
        // was fully received; it merges into the same vertex but needs a
        // fresh pending entry.
        e.deliver(act(
            ActivityType::Send,
            2_600,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            32,
            4,
        ));
        e.deliver(act(
            ActivityType::Receive,
            2_700,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            32,
            5,
        ));
        // The second receive matched the reopened pending but its message
        // parent resolves into the same open CAG (the merged send vertex).
        e.deliver(act(
            ActivityType::Send,
            3_000,
            "app",
            "java",
            21,
            APP_IN,
            WEB_OUT,
            16,
            6,
        ));
        e.deliver(act(
            ActivityType::Receive,
            3_200,
            "web",
            "httpd",
            7,
            APP_IN,
            WEB_OUT,
            16,
            7,
        ));
        e.deliver(act(
            ActivityType::End,
            4_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            10,
            8,
        ));
        let cags = e.take_finished();
        assert_eq!(cags.len(), 1);
        cags[0].validate().expect("valid");
        assert_eq!(cags[0].sorted_tags(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn cross_message_coalescing_is_detected() {
        // Two distinct pending messages on one channel (an intervening
        // send on another channel breaks vertex merging); the receiver
        // then coalesces bytes of both into one recv() — an assumption
        // violation the engine must detect rather than mis-correlate.
        let mut e = Engine::default();
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            100,
            1,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_000,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            32,
            2,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_100,
            "web",
            "httpd",
            7,
            "10.0.0.1:4009",
            "10.0.0.9:700",
            10,
            3,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_200,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            48,
            4,
        ));
        // 40 bytes spans the 32-byte message plus 8 bytes of the next.
        e.deliver(act(
            ActivityType::Receive,
            2_700,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            40,
            5,
        ));
        assert_eq!(e.counters().cross_message_receives, 1);
    }

    #[test]
    fn pending_cap_evicts_oldest() {
        let mut e = Engine::new(EngineOptions {
            pending_cap: 2,
            ..EngineOptions::default()
        });
        for i in 0..4u64 {
            e.deliver(act(
                ActivityType::Send,
                1_000 + i,
                "db",
                "mysqld",
                90 + i as u32,
                "10.0.0.3:3306",
                "9.9.9.9:1000",
                64,
                0,
            ));
        }
        assert_eq!(e.counters().evicted_pendings, 2);
    }

    #[test]
    fn match_oracle_reflects_mmap() {
        let mut e = Engine::default();
        let recv = act(
            ActivityType::Receive,
            3_000,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            64,
            0,
        );
        assert!(!e.rule1_matches(&recv));
        assert!(!e.has_any_pending(&recv));
        e.deliver(act(
            ActivityType::Begin,
            1_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            100,
            1,
        ));
        e.deliver(act(
            ActivityType::Send,
            2_000,
            "web",
            "httpd",
            7,
            WEB_OUT,
            APP_IN,
            64,
            2,
        ));
        assert!(e.rule1_matches(&recv));
        assert!(e.has_any_pending(&recv));
        // A receive larger than the pending bytes does not qualify under
        // Rule 1 (its remaining SEND segments must pop first), but the
        // channel still has a pending send.
        let big = act(
            ActivityType::Receive,
            3_000,
            "app",
            "java",
            21,
            WEB_OUT,
            APP_IN,
            900,
            0,
        );
        assert!(!e.rule1_matches(&big));
        assert!(e.has_any_pending(&big));
    }

    #[test]
    fn take_sealed_holds_amendable_cag_until_ctx_moves() {
        let mut e = Engine::default();
        two_tier_request(&mut e);
        // The END is still the latest activity of httpd/7: unsealed.
        assert!(e.take_sealed(None).is_empty());
        assert_eq!(e.finished_len(), 1);
        // The context moves on (new request): now sealed.
        e.deliver(act(
            ActivityType::Begin,
            9_000,
            "web",
            "httpd",
            7,
            CLIENT,
            WEB_FRONT,
            1,
            0,
        ));
        assert_eq!(e.take_sealed(None).len(), 1);
        assert_eq!(e.counters().forced_seals, 0);
    }

    #[test]
    fn max_seal_lag_forces_emission_under_keep_alive_lull() {
        let mut e = Engine::default();
        two_tier_request(&mut e);
        // Unrelated traffic ages the finished CAG past the lag bound.
        for i in 0..8u64 {
            e.deliver(act(
                ActivityType::Send,
                20_000 + i,
                "db",
                "mysqld",
                90 + i as u32,
                "10.0.0.3:3306",
                "9.9.9.9:1000",
                64,
                0,
            ));
        }
        // Without a bound the CAG would still wait for its context.
        assert!(e.take_sealed(None).is_empty());
        let sealed = e.take_sealed(Some(4));
        assert_eq!(sealed.len(), 1);
        assert_eq!(e.counters().forced_seals, 1);
        // A trailing END chunk can no longer amend it: counted, orphaned.
        e.deliver(act(
            ActivityType::End,
            30_000,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            8,
            0,
        ));
        assert_eq!(e.counters().end_amends, 0);
        assert_eq!(e.counters().unmatched_ends, 1);
    }

    #[test]
    fn counters_absorb_sums_fields() {
        let mut a = EngineCounters {
            delivered: 3,
            cags_opened: 1,
            forced_seals: 1,
            ..EngineCounters::default()
        };
        let b = EngineCounters {
            delivered: 4,
            cags_opened: 2,
            orphan_vertices: 5,
            ..EngineCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.delivered, 7);
        assert_eq!(a.cags_opened, 3);
        assert_eq!(a.orphan_vertices, 5);
        assert_eq!(a.forced_seals, 1);

        // All three counter structs, field by field: metrics absorbed
        // into themselves double every sum and keep every max.
        use crate::dist::wire::Field;
        let m = crate::metrics::tests::every_field_distinct();
        let mut twice = m.clone();
        twice.absorb(&m);
        assert_eq!(twice.ranker.adaptive_window_ns, m.ranker.adaptive_window_ns);
        assert_eq!(twice.wall, m.wall);
        assert_eq!(twice.ranker.peak_buffered, 2 * m.ranker.peak_buffered);
        assert_eq!(twice.peak_bytes, 2 * m.peak_bytes);
        // Every field travels as one u64, so the encodings line up.
        let words = |m: &crate::metrics::CorrelatorMetrics| {
            let mut buf = Vec::new();
            m.put(&mut buf);
            let words = buf
                .chunks(8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
            words.collect::<Vec<_>>()
        };
        let (once, twice) = (words(&m), words(&twice));
        assert_eq!(once.len(), twice.len());
        let maxed = once.iter().zip(&twice).filter(|(a, b)| a == b).count();
        assert!(once.iter().zip(&twice).all(|(a, b)| b == a || *b == 2 * a));
        assert_eq!(maxed, 2, "only adaptive_window_ns and wall take the max");
    }

    #[test]
    fn finished_buffer_bytes_are_a_running_count() {
        let mut e = Engine::default();
        let check = |e: &Engine| {
            let walk: usize = e.finished.iter().map(|c| c.vertices.len()).sum();
            assert_eq!(e.approx_breakdown()[4], walk * size_of::<Vertex>());
            e.assert_counts_match_state();
        };
        two_tier_request(&mut e);
        check(&e);
        // A trailing END chunk amends the finished CAG in place.
        e.deliver(act(
            ActivityType::End,
            5_100,
            "web",
            "httpd",
            7,
            WEB_FRONT,
            CLIENT,
            100,
            7,
        ));
        assert_eq!(e.counters().end_amends, 1);
        check(&e);
        // Its END is still the context's latest vertex: it stays.
        assert!(e.take_sealed(None).is_empty());
        check(&e);
        // The thread serves the next request, which seals the first.
        two_tier_request(&mut e);
        assert_eq!(e.finished_len(), 2);
        assert_eq!(e.take_sealed(None).len(), 1);
        check(&e);
        // A lag bound force-seals the second.
        e.deliver(act(
            ActivityType::Send,
            6_000,
            "app",
            "java",
            99,
            "10.0.0.2:9100",
            "10.0.0.3:3306",
            1,
            0,
        ));
        assert_eq!(e.take_sealed(Some(0)).len(), 1);
        assert_eq!(e.counters().forced_seals, 1);
        check(&e);
        two_tier_request(&mut e);
        check(&e);
        assert_eq!(e.take_finished().len(), 1);
        check(&e);
        assert_eq!(e.approx_breakdown()[4], 0);
    }

    #[test]
    fn approx_bytes_grows_with_state() {
        let mut e = Engine::default();
        let empty = e.approx_bytes();
        two_tier_request(&mut e);
        assert!(e.approx_bytes() > empty);
    }

    #[test]
    fn unfinished_cap_abandons_oldest() {
        let mut e = Engine::new(EngineOptions {
            unfinished_cap: 2,
            ..EngineOptions::default()
        });
        for i in 0..4u64 {
            e.deliver(act(
                ActivityType::Begin,
                1_000 + i,
                "web",
                "httpd",
                7 + i as u32,
                "192.168.0.9:5000",
                WEB_FRONT,
                100,
                0,
            ));
        }
        assert_eq!(e.unfinished_len(), 2);
        assert_eq!(e.counters().abandoned_cags, 2);
    }

    impl Engine {
        /// The linear scan `spill_one` made over every resident CAG
        /// before it had an index: the reference the index must agree
        /// with.
        fn scan_victim(&self) -> Option<u64> {
            let sp = self.spill.as_deref()?;
            let mut best: Option<LruKey> = None;
            let mut best_pinned: Option<LruKey> = None;
            for &id in self.unfinished.keys() {
                let (prev, last) = sp.lru.get(&id).copied().unwrap_or((0, 0));
                let key = (prev, last, id);
                if key.1 < sp.pin_epoch {
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                } else if best_pinned.is_none_or(|b| key < b) {
                    best_pinned = Some(key);
                }
            }
            best.or(best_pinned).map(|k| k.2)
        }

        /// Asserts that every running count equals the sum it stands
        /// for.
        fn assert_counts_match_state(&self) {
            let resident = self.unfinished.values().flat_map(|c| &c.vertices);
            assert_eq!(self.vertex_count, resident.clone().count());
            assert_eq!(
                self.tag_count,
                resident.map(|v| v.tags.len()).sum::<usize>()
            );
            let finished: usize = self.finished.iter().map(|c| c.vertices.len()).sum();
            assert_eq!(self.finished_vertices, finished);
        }
    }

    /// One activity of the random traffic below: `kind` picks the
    /// record shape, `a` and `b` its thread and channel, from a small
    /// universe so that contexts and channels collide often (merges,
    /// chunked BEGINs and ENDs, trailing-END amends, thread reuse,
    /// orphan chains).
    fn random_activity(kind: u8, a: u8, b: u8, ts: u64) -> Activity {
        let web = 1 + u32::from(a % 4);
        let app = 1 + u32::from(a % 3);
        let client = format!("192.168.0.9:{}", 5_000 + u32::from(b % 3));
        let web_out = format!("10.0.0.1:{}", 4_000 + u32::from(b % 4));
        let (ty, host, tid, src, dst) = match kind {
            0 => (ActivityType::Begin, "web", web, client.as_str(), WEB_FRONT),
            1 => (ActivityType::Send, "web", web, web_out.as_str(), APP_IN),
            2 => (ActivityType::Receive, "app", app, web_out.as_str(), APP_IN),
            3 => (ActivityType::Send, "app", app, APP_IN, web_out.as_str()),
            4 => (ActivityType::Receive, "web", web, APP_IN, web_out.as_str()),
            _ => (ActivityType::End, "web", web, WEB_FRONT, client.as_str()),
        };
        let prog = if host == "web" { "httpd" } else { "java" };
        let size = 1 + u64::from(b % 3);
        act(ty, ts, host, prog, tid, src, dst, size, ts)
    }

    proptest::proptest! {
        /// Over seeded random BEGIN / SEND / RECEIVE / END traffic mixed
        /// with spills, sampling boundaries and drains, the victim index
        /// picks the CAG the linear scan picks at every step, and the
        /// running byte counts equal their sums. Faults happen through
        /// `resolve_ctx` and message parents; a small unfinished cap
        /// abandons CAGs, spilled ones included. The spilling engine's
        /// output equals a spill-free engine's.
        #[test]
        fn victim_index_picks_the_scan_victim_at_every_step(
            ops in proptest::collection::vec((0u8..12, 0u8..16, 0u8..16), 1..400),
            capped in 0u8..2,
        ) {
            let opts = EngineOptions {
                unfinished_cap: if capped == 1 { 6 } else { 1 << 20 },
                ..EngineOptions::default()
            };
            let mut e = Engine::new(opts.clone());
            let mut reference = Engine::new(opts);
            e.enable_spill(Arc::new(SpillFile::create(&std::env::temp_dir()).unwrap()));
            let (mut out, mut ref_out) = (Vec::new(), Vec::new());
            for (step, (kind, a, b)) in ops.into_iter().enumerate() {
                match kind {
                    0..=6 => {
                        let kind = if kind == 6 { 5 } else { kind };
                        let rec = random_activity(kind, a, b, step as u64 + 1);
                        e.deliver(rec.clone());
                        reference.deliver(rec);
                    }
                    7 | 8 => {
                        let want = e.scan_victim();
                        let spilled = e.counters.spilled_cags;
                        e.spill_one();
                        let sp = e.spill.as_ref().unwrap();
                        match want {
                            Some(id) => assert!(
                                sp.cags.contains_key(&id),
                                "step {step}: the scan picks {id}"
                            ),
                            None => assert_eq!(e.counters.spilled_cags, spilled),
                        }
                    }
                    9 => e.spill_checkpoint(),
                    10 => {
                        let lag = (b % 2 == 0).then_some(u64::from(a));
                        out.extend(e.take_sealed(lag));
                        ref_out.extend(reference.take_sealed(lag));
                    }
                    _ => {
                        out.extend(e.take_finished());
                        ref_out.extend(reference.take_finished());
                    }
                }
                e.assert_counts_match_state();
                let sp = e.spill.as_deref_mut().unwrap();
                let min = sp.cags.keys().min().copied();
                assert_eq!(sp.stalest_spilled(), min);
            }
            out.extend(e.take_finished());
            out.extend(e.take_unfinished());
            ref_out.extend(reference.take_finished());
            ref_out.extend(reference.take_unfinished());
            e.assert_counts_match_state();
            assert_eq!(out, ref_out);
        }
    }
}
