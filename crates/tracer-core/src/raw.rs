//! The raw `TCP_TRACE` record format (§3.1), versions 1 and 2.
//!
//! The paper's SystemTap module logs one line per kernel `tcp_sendmsg` /
//! `tcp_recvmsg` call:
//!
//! ```text
//! timestamp hostname program_name ProcessID ThreadID SEND/RECEIVE sender_ip:port-receiver_ip:port message_size
//! ```
//!
//! [`RawRecord`] parses and formats exactly this shape (timestamps in
//! integer nanoseconds). PreciseTracer then transforms raw records into
//! typed [`Activity`](crate::activity::Activity) tuples via
//! [`access::Classifier`](crate::access::Classifier).
//!
//! ## Format versions
//!
//! **v1** is the eight-field line above, optionally followed by the
//! `retrans` marker described below. **v2** (`TCP_TRACE v2`) adds one
//! more optional trailing attribute, `seq=<stream-byte-offset>`: the
//! zero-based offset of the record's first payload byte within its
//! directed channel's byte stream, as recovered from TCP sequence
//! numbers by a sniffer-based capture frontend. The full grammar is
//!
//! ```text
//! line    := ts host prog pid tid op chan size attr*
//! attr    := "seq=" u64 | "retrans"        (each at most once)
//! ```
//!
//! v1 lines (no `seq=`) parse unchanged; rendering emits `seq=` before
//! `retrans`, and parsing accepts the attributes in either order.
//!
//! ## Retransmission records and range-aware dedup
//!
//! The paper's probe hooks `tcp_recvmsg`, which never surfaces
//! duplicate bytes — the kernel discards retransmitted ranges before
//! the application reads. A **sniffer-based** probe (tcpdump-style)
//! sees every wire arrival instead, including duplicated byte ranges
//! from TCP retransmissions. In v1 its capture frontend performs the
//! sequence-number analysis itself and marks such records with a
//! trailing `retrans` attribute, which correlation ingest trusts
//! blindly. In v2 the frontend ships the raw `seq=` offsets instead
//! and ingest performs the analysis: a [`RangeDedup`] tracks the byte
//! ranges already seen per `(channel, direction)` and drops any record
//! whose range is entirely covered — counted in
//! [`CorrelatorMetrics::seq_dedup_ranges`](crate::metrics::CorrelatorMetrics)
//! as well as the total
//! [`CorrelatorMetrics::retrans_dropped`](crate::metrics::CorrelatorMetrics).
//! Records without `seq=` keep the v1 marker behavior, restoring the
//! byte-exactness Rule 1 depends on either way;
//! [`dedup_retransmissions`] performs the same deduplication as a
//! standalone pre-pass, on the same range logic.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use crate::activity::{Channel, ContextId, EndpointV4, LocalTime};
use crate::error::TraceError;
use crate::intern::Interner;
use crate::spill::codec;

/// Direction of a raw kernel TCP activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RawOp {
    /// `tcp_sendmsg` — the logging node is the sender.
    Send,
    /// `tcp_recvmsg` — the logging node is the receiver.
    Receive,
}

impl fmt::Display for RawOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RawOp::Send => "SEND",
            RawOp::Receive => "RECEIVE",
        })
    }
}

impl std::str::FromStr for RawOp {
    type Err = TraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "SEND" => Ok(RawOp::Send),
            "RECEIVE" => Ok(RawOp::Receive),
            other => Err(TraceError::parse(other, "expected SEND or RECEIVE")),
        }
    }
}

/// One raw probe record in the original `TCP_TRACE` format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Local timestamp (nanoseconds on the logging node's clock).
    pub ts: LocalTime,
    /// Hostname of the logging node.
    pub hostname: Arc<str>,
    /// Program (executable) name.
    pub program: Arc<str>,
    /// Process ID.
    pub pid: u32,
    /// Thread ID.
    pub tid: u32,
    /// SEND or RECEIVE.
    pub op: RawOp,
    /// Sender endpoint of the TCP channel.
    pub src: EndpointV4,
    /// Receiver endpoint of the TCP channel.
    pub dst: EndpointV4,
    /// Bytes transferred by this kernel call.
    pub size: u64,
    /// Opaque ground-truth tag (0 = untagged); not part of the text
    /// format, used only by evaluation harnesses.
    pub tag: u64,
    /// True when this record duplicates an already-captured byte range
    /// (a TCP retransmission seen by a sniffer-based probe; marked by
    /// the capture frontend with a trailing `retrans` attribute).
    pub retrans: bool,
    /// `TCP_TRACE v2`: stream byte offset of the record's first payload
    /// byte on its directed channel (the trailing `seq=` attribute),
    /// recovered from TCP sequence numbers by a sniffer-based capture
    /// frontend. `None` for v1 records.
    pub seq: Option<u64>,
}

impl RawRecord {
    /// The directed channel (sender → receiver).
    #[inline]
    pub fn channel(&self) -> Channel {
        Channel::new(self.src, self.dst)
    }

    /// The execution-entity context of the record.
    #[inline]
    pub fn context(&self) -> ContextId {
        ContextId {
            hostname: Arc::clone(&self.hostname),
            program: Arc::clone(&self.program),
            pid: self.pid,
            tid: self.tid,
        }
    }

    /// Parses one `TCP_TRACE` log line.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] when the line does not have the
    /// eight whitespace-separated fields of the TCP_TRACE format
    /// (optionally followed by the `seq=`/`retrans` v2 attributes) or a
    /// field is malformed.
    pub fn parse_line(line: &str) -> Result<Self, TraceError> {
        let mut interner = Interner::new();
        RawRecordRef::parse_line(line).map(|r| r.to_owned_interned(&mut interner))
    }

    /// A borrowed view of this record; the string fields borrow from
    /// the owned `Arc<str>` allocations.
    #[inline]
    pub fn as_record_ref(&self) -> RawRecordRef<'_> {
        RawRecordRef {
            ts: self.ts,
            hostname: &self.hostname,
            program: &self.program,
            pid: self.pid,
            tid: self.tid,
            op: self.op,
            src: self.src,
            dst: self.dst,
            size: self.size,
            tag: self.tag,
            retrans: self.retrans,
            seq: self.seq,
        }
    }
}

/// A zero-copy view of one `TCP_TRACE` log line: the string fields
/// borrow from the input text, so parsing allocates nothing.
///
/// This is the ingest-side representation: a reader thread can parse,
/// classify and filter records through `RawRecordRef` and only pay for
/// owned strings ([`RawRecord`] / [`crate::activity::Activity`]) on the
/// records that survive filtering — and even those go through an
/// [`Interner`] so each distinct hostname/program is allocated once per
/// session, not once per record.
///
/// # Examples
///
/// ```
/// use tracer_core::raw::RawRecordRef;
/// let r = RawRecordRef::parse_line(
///     "1000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 42",
/// )?;
/// assert_eq!(r.hostname, "web");
/// assert_eq!(r.size, 42);
/// # Ok::<(), tracer_core::TraceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecordRef<'a> {
    /// Local timestamp (nanoseconds on the logging node's clock).
    pub ts: LocalTime,
    /// Hostname of the logging node (borrowed from the input line).
    pub hostname: &'a str,
    /// Program (executable) name (borrowed from the input line).
    pub program: &'a str,
    /// Process ID.
    pub pid: u32,
    /// Thread ID.
    pub tid: u32,
    /// SEND or RECEIVE.
    pub op: RawOp,
    /// Sender endpoint of the TCP channel.
    pub src: EndpointV4,
    /// Receiver endpoint of the TCP channel.
    pub dst: EndpointV4,
    /// Bytes transferred by this kernel call.
    pub size: u64,
    /// Opaque ground-truth tag (0 = untagged).
    pub tag: u64,
    /// True when this record duplicates an already-captured byte range
    /// (a sniffer-visible TCP retransmission).
    pub retrans: bool,
    /// `TCP_TRACE v2` stream byte offset (`seq=`); `None` for v1 lines.
    pub seq: Option<u64>,
}

impl<'a> RawRecordRef<'a> {
    /// Parses one `TCP_TRACE` log line without allocating.
    ///
    /// A canonical line — single spaces between fields, plain decimal
    /// numbers, canonical dotted-quad addresses — is read in one
    /// forward pass; any other line is handed to the general
    /// whitespace-splitting parser, which alone decides what else is
    /// accepted and what every error says.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] when the line does not have the
    /// eight whitespace-separated fields of the TCP_TRACE format
    /// (optionally followed by the `seq=`/`retrans` v2 attributes) or a
    /// field is malformed.
    pub fn parse_line(line: &'a str) -> Result<Self, TraceError> {
        match Self::parse_canonical(line) {
            Some(r) => Ok(r),
            None => Self::parse_general(line),
        }
    }

    /// The fast path of [`RawRecordRef::parse_line`]. It accepts only
    /// lines on which the general parser yields the same record, and
    /// returns `None` for everything else: any other whitespace, a sign,
    /// an octet with a leading zero or above 255, a number that
    /// overflows its field, a repeated or unknown attribute.
    pub(crate) fn parse_canonical(line: &'a str) -> Option<Self> {
        let mut c = Cursor { s: line, i: 0 };
        let ts = c.num(u64::MAX)?;
        let hostname = c.word()?;
        let program = c.word()?;
        c.eat(b" ")?;
        let pid = c.num(u32::MAX.into())? as u32;
        c.eat(b" ")?;
        let tid = c.num(u32::MAX.into())? as u32;
        let op = if c.eat(b" SEND ").is_some() {
            RawOp::Send
        } else {
            c.eat(b" RECEIVE ")?;
            RawOp::Receive
        };
        let src = c.endpoint()?;
        c.eat(b"-")?;
        let dst = c.endpoint()?;
        c.eat(b" ")?;
        let size = c.num(u64::MAX)?;
        let mut retrans = false;
        let mut seq: Option<u64> = None;
        while c.i < line.len() {
            c.eat(b" ")?;
            if !retrans && c.eat(b"retrans").is_some() {
                retrans = true;
            } else if seq.is_none() && c.eat(b"seq=").is_some() {
                seq = Some(c.num(u64::MAX)?);
            } else {
                return None;
            }
        }
        Some(RawRecordRef {
            ts: LocalTime::from_nanos(ts),
            hostname,
            program,
            pid,
            tid,
            op,
            src,
            dst,
            size,
            tag: 0,
            retrans,
            seq,
        })
    }

    /// The general parser: splits on any ASCII whitespace and parses
    /// each field with `std`'s `FromStr`. Every error comes from here.
    pub(crate) fn parse_general(line: &'a str) -> Result<Self, TraceError> {
        let mut it = line.split_ascii_whitespace();
        let mut next = |what: &str| {
            it.next()
                .ok_or_else(|| TraceError::parse(line, format!("missing field: {what}")))
        };
        let ts: u64 = next("timestamp")?
            .parse()
            .map_err(|_| TraceError::parse(line, "bad timestamp"))?;
        let hostname = next("hostname")?;
        let program = next("program")?;
        let pid: u32 = next("pid")?
            .parse()
            .map_err(|_| TraceError::parse(line, "bad pid"))?;
        let tid: u32 = next("tid")?
            .parse()
            .map_err(|_| TraceError::parse(line, "bad tid"))?;
        let op: RawOp = next("op")?.parse()?;
        let chan = next("channel")?;
        let (src, dst) = chan
            .split_once('-')
            .ok_or_else(|| TraceError::parse(line, "channel missing '-'"))?;
        let src: EndpointV4 = src.parse()?;
        let dst: EndpointV4 = dst.parse()?;
        let size: u64 = next("size")?
            .parse()
            .map_err(|_| TraceError::parse(line, "bad size"))?;
        // Trailing v1/v2 attributes: `seq=<offset>` and `retrans`, each
        // at most once, in either order.
        let mut retrans = false;
        let mut seq: Option<u64> = None;
        for attr in it {
            match attr {
                "retrans" if !retrans => retrans = true,
                a if a.starts_with("seq=") && seq.is_none() => {
                    let v = a["seq=".len()..]
                        .parse()
                        .map_err(|_| TraceError::parse(line, "bad seq= offset"))?;
                    seq = Some(v);
                }
                _ => return Err(TraceError::parse(line, "trailing fields")),
            }
        }
        Ok(RawRecordRef {
            ts: LocalTime::from_nanos(ts),
            hostname,
            program,
            pid,
            tid,
            op,
            src,
            dst,
            size,
            tag: 0,
            retrans,
            seq,
        })
    }

    /// The directed channel (sender → receiver).
    #[inline]
    pub fn channel(&self) -> Channel {
        Channel::new(self.src, self.dst)
    }

    /// True for kernel-level sends (the logging node is the sender);
    /// BEGIN/END classification never changes this, so attribute
    /// filters can be evaluated on the borrowed record.
    #[inline]
    pub fn is_send(&self) -> bool {
        self.op == RawOp::Send
    }

    /// Converts to an owned [`RawRecord`], interning the hostname and
    /// program so repeated values share one allocation.
    pub fn to_owned_interned(&self, interner: &mut Interner) -> RawRecord {
        RawRecord {
            ts: self.ts,
            hostname: interner.intern(self.hostname),
            program: interner.intern(self.program),
            pid: self.pid,
            tid: self.tid,
            op: self.op,
            src: self.src,
            dst: self.dst,
            size: self.size,
            tag: self.tag,
            retrans: self.retrans,
            seq: self.seq,
        }
    }
}

/// A forward cursor over one line, for
/// [`RawRecordRef::parse_canonical`]. Every method returns `None` when
/// the bytes at the cursor are not the canonical form it reads.
struct Cursor<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Cursor<'a> {
    /// Consumes `tok` exactly.
    #[inline]
    fn eat(&mut self, tok: &[u8]) -> Option<()> {
        self.s.as_bytes()[self.i..]
            .starts_with(tok)
            .then(|| self.i += tok.len())
    }

    /// One or more decimal digits whose value is at most `max`.
    #[inline]
    fn num(&mut self, max: u64) -> Option<u64> {
        let b = self.s.as_bytes();
        let start = self.i;
        let mut v = 0u64;
        while let Some(d) = b
            .get(self.i)
            .map(|c| c.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            v = v.checked_mul(10)?.checked_add(u64::from(d))?;
            self.i += 1;
        }
        (self.i > start && v <= max).then_some(v)
    }

    /// A space, then a non-empty field that runs to the next ASCII
    /// whitespace byte (a character boundary, so the slice is valid).
    #[inline]
    fn word(&mut self) -> Option<&'a str> {
        self.eat(b" ")?;
        let b = self.s.as_bytes();
        let start = self.i;
        while self.i < b.len() && !b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
        (self.i > start).then(|| &self.s[start..self.i])
    }

    /// An octet as `Ipv4Addr::from_str` reads one: one to three digits,
    /// no leading zero, at most 255.
    #[inline]
    fn octet(&mut self) -> Option<u8> {
        let start = self.i;
        let v = self.num(255)?;
        let len = self.i - start;
        (len == 1 || (len <= 3 && self.s.as_bytes()[start] != b'0')).then_some(v as u8)
    }

    /// `a.b.c.d:port`.
    #[inline]
    fn endpoint(&mut self) -> Option<EndpointV4> {
        let a = self.octet()?;
        self.eat(b".")?;
        let b = self.octet()?;
        self.eat(b".")?;
        let c = self.octet()?;
        self.eat(b".")?;
        let d = self.octet()?;
        self.eat(b":")?;
        let port = self.num(u16::MAX.into())? as u16;
        Some(EndpointV4::new(Ipv4Addr::new(a, b, c, d), port))
    }
}

impl fmt::Display for RawRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_record_ref().fmt(f)
    }
}

impl fmt::Display for RawRecordRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {} {}-{} {}",
            self.ts,
            self.hostname,
            self.program,
            self.pid,
            self.tid,
            self.op,
            self.src,
            self.dst,
            self.size
        )?;
        if let Some(seq) = self.seq {
            write!(f, " seq={seq}")?;
        }
        if self.retrans {
            f.write_str(" retrans")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for RawRecord {
    type Err = TraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RawRecord::parse_line(s)
    }
}

/// Parses a whole TCP_TRACE log: one record per non-empty line; lines
/// starting with `#` are comments.
///
/// # Errors
///
/// Returns the first parse error encountered.
///
/// # Examples
///
/// ```
/// use tracer_core::raw::parse_log;
/// let recs = parse_log("# comment\n100 web httpd 1 1 SEND 10.0.0.1:80-10.0.0.9:5000 42\n")?;
/// assert_eq!(recs.len(), 1);
/// assert_eq!(recs[0].size, 42);
/// # Ok::<(), tracer_core::TraceError>(())
/// ```
pub fn parse_log(text: &str) -> Result<Vec<RawRecord>, TraceError> {
    let mut interner = Interner::new();
    parse_log_iter(text)
        .map(|r| r.map(|rr| rr.to_owned_interned(&mut interner)))
        .collect()
}

/// Zero-copy iteration over a TCP_TRACE log: yields one borrowed
/// [`RawRecordRef`] per non-empty, non-comment line, without allocating
/// per record. This is the ingest path of the sharded pipeline: the
/// reader thread parses, classifies and filters borrowed records and
/// only materializes owned activities for the survivors.
///
/// # Examples
///
/// ```
/// use tracer_core::raw::parse_log_iter;
/// let n = parse_log_iter("# comment\n100 web httpd 1 1 SEND 10.0.0.1:80-10.0.0.9:5000 42\n")
///     .filter_map(Result::ok)
///     .count();
/// assert_eq!(n, 1);
/// ```
pub fn parse_log_iter(
    text: &str,
) -> impl Iterator<Item = Result<RawRecordRef<'_>, TraceError>> + '_ {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(RawRecordRef::parse_line)
}

/// A set of covered byte ranges over one directed byte stream: a
/// contiguous high-water mark plus out-of-order held ranges, exactly
/// the state a kernel TCP receive queue keeps (and the minimum the
/// range dedup needs).
#[derive(Debug, Default)]
struct RangeSet {
    /// Everything below this offset is covered.
    hwm: u64,
    /// Disjoint, non-adjacent covered ranges above the high-water mark:
    /// start → length.
    ooo: std::collections::BTreeMap<u64, u64>,
}

impl RangeSet {
    /// Inserts `[start, start + len)` and returns how many of its bytes
    /// were **not** covered before.
    fn insert(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = start + len;
        if end <= self.hwm {
            return 0;
        }
        let start = start.max(self.hwm);
        if start == self.hwm {
            // Extends the contiguous prefix; bytes overlapping held
            // ranges were already covered. Absorb ranges that became
            // contiguous.
            let held: u64 = self
                .ooo
                .range(..end)
                .filter(|(&o, &l)| o + l > start)
                .map(|(&o, &l)| (o + l).min(end) - o.max(start))
                .sum();
            let fresh = (end - start) - held;
            self.hwm = end;
            self.drain_contiguous();
            return fresh;
        }
        // Above the prefix: clip against held ranges, merge the union
        // back in (adjacent ranges coalesce, keeping the map compact).
        let mut covered = 0u64;
        let mut merged_start = start;
        let mut merged_end = end;
        let keys: Vec<u64> = self
            .ooo
            .range(..=end)
            .filter(|(&o, &l)| o + l >= start)
            .map(|(&o, _)| o)
            .collect();
        for o in keys {
            let l = self.ooo.remove(&o).expect("key just enumerated");
            covered += (o + l).min(end).saturating_sub(o.max(start));
            merged_start = merged_start.min(o);
            merged_end = merged_end.max(o + l);
        }
        self.ooo.insert(merged_start, merged_end - merged_start);
        (end - start) - covered
    }

    /// The highest stream offset covered by any inserted range.
    fn max_end(&self) -> u64 {
        self.ooo
            .last_key_value()
            .map(|(&o, &l)| o + l)
            .unwrap_or(0)
            .max(self.hwm)
    }

    /// Promotes held ranges that became contiguous with (or fell below)
    /// the high-water mark.
    fn drain_contiguous(&mut self) {
        while let Some((&o, &l)) = self.ooo.first_key_value() {
            if o > self.hwm {
                break;
            }
            self.ooo.remove(&o);
            self.hwm = self.hwm.max(o + l);
        }
    }
}

/// One directed channel's coverage plus its last-touch tick (coldness
/// ranking for the correlator's spill tier).
#[derive(Debug, Default)]
struct CoverEntry {
    set: RangeSet,
    /// Logical time of the entry's last touch (one tick per v2 record).
    touch: u64,
}

/// `(touch, key)`: orders like the spill tier's victim rule — coldest
/// first, ties on the channel/op key (`Send` before `Receive`).
type ColdItem = Reverse<(u64, (Channel, RawOp))>;

/// What the range-aware ingest decided for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestDecision {
    /// Admit the record with this effective payload size (currently
    /// always the record's own size; carried so the ingest stage can
    /// adjust records without another API change).
    Admit(u64),
    /// Drop the record: a duplicate byte range (fully covered `seq=`
    /// range, or the v1 `retrans` marker).
    Drop,
}

/// The range-aware ingest stage of `TCP_TRACE v2` (and the v1 marker
/// fallback): decides, record by record, whether a record duplicates
/// byte ranges already seen on its directed channel.
///
/// For a v2 record (one carrying `seq=`) the decision is pure offset
/// arithmetic — the record is a duplicate exactly when every byte of
/// `[seq, seq + size)` was already covered by an earlier record of the
/// same channel and direction; the `retrans` marker is ignored. A
/// `seq` starting above the channel's covered high-water mark is a
/// **capture gap** (records a partial-capture sniffer missed; counted
/// in [`RangeDedup::seq_gaps`]) — the record itself is admitted
/// unchanged, and downstream consumers that need byte conservation
/// (the sharded session router) resolve gaps by range arithmetic on
/// the `seq` offsets instead of blind byte counting. For a v1 record
/// the capture frontend's `retrans` marker is trusted, as before.
/// Records must be presented in each host's local-time order (the
/// order every correlation path already establishes).
#[derive(Debug, Default)]
pub struct RangeDedup {
    cover: crate::fasthash::FxHashMap<(Channel, RawOp), CoverEntry>,
    /// Logical clock behind `CoverEntry::touch`.
    ticks: u64,
    /// Out-of-order ranges held over all of `cover`, kept in step with
    /// it so [`RangeDedup::approx_bytes`] is O(1).
    ooo_ranges: usize,
    /// Coldness index behind [`RangeDedup::take_coldest_entry`]: a
    /// min-heap of `(touch, key)`, in the order the spill tier picks
    /// victims. `None` until the first request, so a
    /// run that never spills coverage builds and maintains nothing.
    /// From then on every resident entry has an item whose `touch` is
    /// at most the entry's own; touching an entry does not update its
    /// item — a popped item that lags its entry is pushed back at the
    /// entry's current `touch`, one that matches no entry is dropped.
    coldest: Option<BinaryHeap<ColdItem>>,
    /// Records seen carrying a `seq=` attribute.
    pub v2_records: u64,
    /// Records dropped by offset arithmetic (subset of all drops).
    pub seq_dedup_ranges: u64,
    /// Capture gaps observed: records whose `seq=` started above the
    /// channel's covered high-water mark — evidence of records a
    /// partial-capture sniffer missed.
    pub seq_gaps: u64,
}

impl RangeDedup {
    /// An empty dedup state.
    pub fn new() -> Self {
        RangeDedup::default()
    }

    /// Decides one borrowed record.
    pub fn decide(&mut self, rec: &RawRecordRef<'_>) -> IngestDecision {
        self.decide_parts(rec.channel(), rec.op, rec.seq, rec.size, rec.retrans)
    }

    /// Decides one owned record.
    pub fn decide_owned(&mut self, rec: &RawRecord) -> IngestDecision {
        self.decide_parts(rec.channel(), rec.op, rec.seq, rec.size, rec.retrans)
    }

    fn decide_parts(
        &mut self,
        channel: Channel,
        op: RawOp,
        seq: Option<u64>,
        size: u64,
        retrans: bool,
    ) -> IngestDecision {
        match seq {
            Some(seq) => {
                self.v2_records += 1;
                self.ticks += 1;
                let entry = match self.cover.entry((channel, op)) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        if let Some(heap) = &mut self.coldest {
                            heap.push(Reverse((self.ticks, (channel, op))));
                        }
                        e.insert(CoverEntry::default())
                    }
                };
                entry.touch = self.ticks;
                let cover = &mut entry.set;
                let held = cover.ooo.len();
                if seq > cover.max_end() {
                    // A seq above every byte seen so far means the
                    // sniffer missed the records for the span in
                    // between: TCP delivered those bytes (the stream
                    // is contiguous), their records are simply absent.
                    self.seq_gaps += 1;
                }
                let fresh = cover.insert(seq, size.max(1));
                self.ooo_ranges = self.ooo_ranges + cover.ooo.len() - held;
                if fresh == 0 {
                    self.seq_dedup_ranges += 1;
                    return IngestDecision::Drop;
                }
                if retrans {
                    // A frontend-flagged duplicate whose range is not
                    // fully covered: the record(s) carrying the
                    // original bytes were themselves lost to partial
                    // capture. The marker is still authoritative
                    // evidence of duplication — admitting the record
                    // would double bytes the kernel delivered once.
                    return IngestDecision::Drop;
                }
                IngestDecision::Admit(size)
            }
            None => {
                if retrans {
                    IngestDecision::Drop
                } else {
                    IngestDecision::Admit(size)
                }
            }
        }
    }

    /// Forgets both directions' coverage for one channel. The sharded
    /// reader calls this when its idle GC evicts the channel's router
    /// claims, so dedup coverage is shed at the same horizon instead of
    /// growing for the stream's lifetime. If the channel later resumes,
    /// its coverage rebuilds from the new high-water mark (the first
    /// record after resumption may then count a spurious `seq_gaps` —
    /// the same evidence-loss tradeoff the claim eviction makes).
    pub fn evict_channel(&mut self, channel: Channel) {
        for op in [RawOp::Send, RawOp::Receive] {
            if let Some(e) = self.cover.remove(&(channel, op)) {
                self.ooo_ranges -= e.set.ooo.len();
            }
        }
    }

    /// Approximate resident bytes of the coverage state (the coldness
    /// index, 24 bytes per entry once coverage has spilled, is not
    /// counted). O(1): the correlator reads this in its budget loop and
    /// `pt serve` on every ingested batch.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cover.len() * (size_of::<(Channel, RawOp)>() + size_of::<CoverEntry>())
            + self.ooo_ranges * size_of::<(u64, u64)>()
    }

    /// Number of resident coverage entries (directed channels tracked).
    pub fn cover_len(&self) -> usize {
        self.cover.len()
    }

    /// Serializes and removes the least-recently-touched coverage entry
    /// so the correlator's spill tier can page it out; ties break on the
    /// channel/op key, keeping selection deterministic. Restoring via
    /// [`RangeDedup::restore_entry`] before the channel's next record is
    /// observationally identical to never having spilled.
    pub fn take_coldest_entry(&mut self) -> Option<((Channel, RawOp), Vec<u8>)> {
        let cover = &mut self.cover;
        let heap = self
            .coldest
            .get_or_insert_with(|| cover.iter().map(|(&k, e)| Reverse((e.touch, k))).collect());
        let (key, e) = loop {
            let Reverse((touch, key)) = heap.pop()?;
            match cover.entry(key) {
                Entry::Occupied(e) if e.get().touch == touch => break e.remove_entry(),
                Entry::Occupied(e) => heap.push(Reverse((e.get().touch, key))),
                Entry::Vacant(_) => {}
            }
        };
        self.ooo_ranges -= e.set.ooo.len();
        let mut buf = Vec::new();
        codec::put_u64(&mut buf, e.touch);
        codec::put_u64(&mut buf, e.set.hwm);
        codec::put_u32(&mut buf, e.set.ooo.len() as u32);
        for (&o, &l) in &e.set.ooo {
            codec::put_u64(&mut buf, o);
            codec::put_u64(&mut buf, l);
        }
        Some((key, buf))
    }

    /// Restores a coverage entry paged out by
    /// [`RangeDedup::take_coldest_entry`].
    pub fn restore_entry(&mut self, key: (Channel, RawOp), bytes: &[u8]) {
        let mut d = codec::Dec::new(bytes);
        let touch = d.u64();
        let hwm = d.u64();
        let n = d.count(16); // (offset, len) pairs
        let mut ooo = std::collections::BTreeMap::new();
        for _ in 0..n {
            let o = d.u64();
            let l = d.u64();
            ooo.insert(o, l);
        }
        d.finish().expect("corrupt coverage spill object");
        self.ooo_ranges += ooo.len();
        if let Some(heap) = &mut self.coldest {
            heap.push(Reverse((touch, key)));
        }
        let entry = CoverEntry {
            set: RangeSet { hwm, ooo },
            touch,
        };
        if let Some(old) = self.cover.insert(key, entry) {
            self.ooo_ranges -= old.set.ooo.len();
        }
    }
}

/// Drops the retransmitted (duplicate) byte-range records of a
/// sniffer-based capture, yielding the log a `tcp_recvmsg`-level probe
/// would have produced. v2 records (carrying `seq=`) are deduplicated
/// by offset arithmetic through [`RangeDedup`]; v1 records fall back to
/// the capture frontend's `retrans` marker. Correlation ingest performs
/// the same deduplication internally, so correlating the raw log and
/// correlating this pre-pass's output yield the same CAG set — the
/// invariance pinned by `tests/properties.rs`.
pub fn dedup_retransmissions(records: impl IntoIterator<Item = RawRecord>) -> Vec<RawRecord> {
    let mut dedup = RangeDedup::new();
    records
        .into_iter()
        .filter_map(|mut r| match dedup.decide_owned(&r) {
            IngestDecision::Drop => None,
            IngestDecision::Admit(size) => {
                r.size = size;
                Some(r)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "123456789 node2 java 4242 4250 RECEIVE 10.0.0.1:33000-10.0.0.2:8009 1448";

    #[test]
    fn parse_roundtrip() {
        let r = RawRecord::parse_line(LINE).unwrap();
        assert_eq!(r.ts, LocalTime::from_nanos(123_456_789));
        assert_eq!(&*r.hostname, "node2");
        assert_eq!(&*r.program, "java");
        assert_eq!(r.pid, 4242);
        assert_eq!(r.tid, 4250);
        assert_eq!(r.op, RawOp::Receive);
        assert_eq!(r.src.port, 33000);
        assert_eq!(r.dst.port, 8009);
        assert_eq!(r.size, 1448);
        assert_eq!(r.to_string(), LINE);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "only three fields here",
            "x node2 java 4242 4250 RECEIVE 10.0.0.1:33000-10.0.0.2:8009 1448",
            "1 node2 java nope 4250 RECEIVE 10.0.0.1:33000-10.0.0.2:8009 1448",
            "1 node2 java 1 2 RECV 10.0.0.1:33000-10.0.0.2:8009 1448",
            "1 node2 java 1 2 RECEIVE 10.0.0.1:33000+10.0.0.2:8009 1448",
            "1 node2 java 1 2 RECEIVE 10.0.0.1:33000-10.0.0.2:8009 nan",
            "1 node2 java 1 2 RECEIVE 10.0.0.1:33000-10.0.0.2:8009 1448 extra",
        ] {
            assert!(RawRecord::parse_line(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_retrans_marker_roundtrips() {
        let line = format!("{LINE} retrans");
        let r = RawRecord::parse_line(&line).unwrap();
        assert!(r.retrans);
        assert_eq!(r.to_string(), line);
        let plain = RawRecord::parse_line(LINE).unwrap();
        assert!(!plain.retrans);
        // Anything else trailing is still rejected.
        assert!(RawRecord::parse_line(&format!("{LINE} retransX")).is_err());
        assert!(RawRecord::parse_line(&format!("{LINE} retrans retrans")).is_err());
    }

    #[test]
    fn parse_v2_seq_attribute_roundtrips() {
        let line = format!("{LINE} seq=4096");
        let r = RawRecord::parse_line(&line).unwrap();
        assert_eq!(r.seq, Some(4096));
        assert!(!r.retrans);
        assert_eq!(r.to_string(), line);
        // Both attributes, canonical order seq-then-retrans.
        let both = format!("{LINE} seq=0 retrans");
        let r = RawRecord::parse_line(&both).unwrap();
        assert_eq!(r.seq, Some(0));
        assert!(r.retrans);
        assert_eq!(r.to_string(), both);
        // Reverse order parses to the same record (renders canonical).
        let rev = RawRecord::parse_line(&format!("{LINE} retrans seq=0")).unwrap();
        assert_eq!(rev, r);
        // Malformed/duplicated attributes are rejected.
        for bad in [
            format!("{LINE} seq="),
            format!("{LINE} seq=x"),
            format!("{LINE} seq=1 seq=2"),
            format!("{LINE} seq=1 retrans retrans"),
            format!("{LINE} sequence=1"),
        ] {
            assert!(
                RawRecord::parse_line(&bad).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn range_set_tracks_coverage() {
        let mut rs = RangeSet::default();
        assert_eq!(rs.insert(0, 100), 100);
        assert_eq!(rs.insert(0, 100), 0);
        assert_eq!(rs.insert(50, 100), 50);
        // Out-of-order hold, duplicate of held, then gap fill.
        assert_eq!(rs.insert(300, 50), 50);
        assert_eq!(rs.insert(300, 50), 0);
        assert_eq!(rs.insert(150, 150), 150);
        assert_eq!(rs.hwm, 350);
        assert!(rs.ooo.is_empty());
        // Spanning insert over held ranges counts only the fresh part.
        assert_eq!(rs.insert(400, 10), 10);
        assert_eq!(rs.insert(350, 100), 90);
        assert_eq!(rs.hwm, 450);
    }

    #[test]
    fn range_dedup_drops_fully_covered_v2_records() {
        let base = "node2 java 1 2 RECEIVE 10.0.0.1:33000-10.0.0.2:8009";
        let parse = |ts: u64, size: u64, attr: &str| {
            RawRecord::parse_line(&format!("{ts} {base} {size}{attr}")).unwrap()
        };
        let mut d = RangeDedup::new();
        assert_eq!(
            d.decide_owned(&parse(1, 100, " seq=0")),
            IngestDecision::Admit(100)
        );
        // Exact duplicate range: dropped by arithmetic, marker ignored.
        assert_eq!(
            d.decide_owned(&parse(2, 100, " seq=0 retrans")),
            IngestDecision::Drop
        );
        assert_eq!(
            d.decide_owned(&parse(3, 40, " seq=20")),
            IngestDecision::Drop
        );
        // Partially fresh: admitted at its own size.
        assert_eq!(
            d.decide_owned(&parse(4, 100, " seq=50")),
            IngestDecision::Admit(100)
        );
        // v1 fallback: marker is authoritative when seq is absent.
        assert_eq!(
            d.decide_owned(&parse(5, 100, " retrans")),
            IngestDecision::Drop
        );
        assert_eq!(
            d.decide_owned(&parse(6, 100, "")),
            IngestDecision::Admit(100)
        );
        assert_eq!(d.v2_records, 4);
        assert_eq!(d.seq_dedup_ranges, 2);
        assert_eq!(d.seq_gaps, 0);
        // The send direction tracks its own coverage.
        let send =
            RawRecord::parse_line("7 node1 java 1 2 SEND 10.0.0.1:33000-10.0.0.2:8009 100 seq=0")
                .unwrap();
        assert_eq!(d.decide_owned(&send), IngestDecision::Admit(100));
        assert!(d.approx_bytes() > 0);
    }

    #[test]
    fn range_dedup_observes_capture_gaps() {
        let base = "node2 java 1 2 RECEIVE 10.0.0.1:33000-10.0.0.2:8009";
        let parse = |ts: u64, size: u64, attr: &str| {
            RawRecord::parse_line(&format!("{ts} {base} {size}{attr}")).unwrap()
        };
        let mut d = RangeDedup::new();
        assert_eq!(
            d.decide_owned(&parse(1, 100, " seq=0")),
            IngestDecision::Admit(100)
        );
        // A capture gap: the record for [100, 150) was missed by the
        // sniffer. The record is admitted unchanged; the gap is counted
        // (the router resolves it by range arithmetic downstream).
        assert_eq!(
            d.decide_owned(&parse(2, 100, " seq=150")),
            IngestDecision::Admit(100)
        );
        assert_eq!(d.seq_gaps, 1);
        // The held range is dedup-visible despite the gap.
        assert_eq!(
            d.decide_owned(&parse(3, 50, " seq=150 retrans")),
            IngestDecision::Drop
        );
        assert_eq!(
            d.decide_owned(&parse(4, 50, " seq=250")),
            IngestDecision::Admit(50)
        );
        assert_eq!(d.seq_gaps, 1);
    }

    /// The linear victim scan `take_coldest_entry` used before it had an
    /// index: the reference the index must agree with.
    fn coldest_by_scan(d: &RangeDedup) -> Option<(Channel, RawOp)> {
        fn sort_key(ch: &Channel, op: RawOp) -> (u32, u16, u32, u16, u8) {
            (
                u32::from(ch.src.ip),
                ch.src.port,
                u32::from(ch.dst.ip),
                ch.dst.port,
                matches!(op, RawOp::Receive) as u8,
            )
        }
        d.cover
            .iter()
            .min_by_key(|((ch, op), e)| (e.touch, sort_key(ch, *op)))
            .map(|(k, _)| *k)
    }

    /// The walk over every channel `approx_bytes` used to make.
    fn bytes_by_walk(d: &RangeDedup) -> usize {
        use std::mem::size_of;
        d.cover.len() * (size_of::<(Channel, RawOp)>() + size_of::<CoverEntry>())
            + d.cover
                .values()
                .map(|r| r.set.ooo.len() * size_of::<(u64, u64)>())
                .sum::<usize>()
    }

    proptest::proptest! {
        /// Over random decide / take / restore / evict sequences the
        /// indexed `take_coldest_entry` picks the victims the linear
        /// scan picks, in the same order, and the running byte figure
        /// equals the walk after every step.
        #[test]
        fn coldness_index_and_byte_count_match_the_linear_reference(
            ops in proptest::collection::vec((0u8..10, 0u8..12, 0u64..3000, 1u64..500), 1..300),
        ) {
            let key_of = |c: u8| {
                let ch = Channel::new(
                    EndpointV4 { ip: [10, 0, 0, 1 + c / 4].into(), port: 80 },
                    EndpointV4 { ip: [10, 0, 0, 9].into(), port: 5000 + (c / 2) as u16 },
                );
                (ch, if c % 2 == 1 { RawOp::Receive } else { RawOp::Send })
            };
            let mut d = RangeDedup::new();
            let mut spilled: Vec<((Channel, RawOp), Vec<u8>)> = Vec::new();
            let take = |d: &mut RangeDedup, spilled: &mut Vec<_>| {
                let want = coldest_by_scan(d);
                let got = d.take_coldest_entry();
                assert_eq!(got.as_ref().map(|(k, _)| *k), want);
                spilled.extend(got);
                want.is_some()
            };
            for (kind, c, seq, size) in ops {
                let key = key_of(c);
                match kind {
                    // A record; its spilled coverage faults back first,
                    // as in `StreamingCorrelator::push` (now and then
                    // not, so that a later restore replaces an entry).
                    0..=4 => {
                        let at = spilled.iter().position(|(k, _)| *k == key);
                        if let Some(i) = at.filter(|_| seq % 8 != 0) {
                            let (k, bytes) = spilled.swap_remove(i);
                            d.restore_entry(k, &bytes);
                        }
                        d.decide_parts(key.0, key.1, Some(seq), size, false);
                    }
                    5..=7 => {
                        take(&mut d, &mut spilled);
                    }
                    8 if !spilled.is_empty() => {
                        let (k, bytes) = spilled.swap_remove(seq as usize % spilled.len());
                        d.restore_entry(k, &bytes);
                    }
                    _ => d.evict_channel(key.0),
                }
                assert_eq!(d.approx_bytes(), bytes_by_walk(&d));
            }
            while take(&mut d, &mut spilled) {
                assert_eq!(d.approx_bytes(), bytes_by_walk(&d));
            }
            assert_eq!(d.approx_bytes(), 0);
        }
    }

    #[test]
    fn coldness_index_is_not_built_before_the_first_spill_request() {
        let ep = |port| EndpointV4 {
            ip: [10, 0, 0, 1].into(),
            port,
        };
        let mut d = RangeDedup::new();
        for i in 0..100u16 {
            d.decide_parts(
                Channel::new(ep(80), ep(5000 + i)),
                RawOp::Send,
                Some(0),
                10,
                false,
            );
        }
        assert!(d.coldest.is_none());
        assert!(d.take_coldest_entry().is_some());
        assert_eq!(d.coldest.as_ref().map(BinaryHeap::len), Some(99));
    }

    #[test]
    fn dedup_retransmissions_uses_range_logic_for_v2() {
        let base = "node2 java 1 2 RECEIVE 10.0.0.1:33000-10.0.0.2:8009";
        let raw = format!("1 {base} 100 seq=0\n2 {base} 100 seq=0 retrans\n3 {base} 100 seq=100\n");
        let recs = parse_log(&raw).unwrap();
        let deduped = dedup_retransmissions(recs);
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0].seq, Some(0));
        assert_eq!(deduped[1].seq, Some(100));
    }

    #[test]
    fn dedup_retransmissions_strips_marked_records() {
        let raw = format!("{LINE}\n{LINE} retrans\n{LINE}\n");
        let recs = parse_log(&raw).unwrap();
        assert_eq!(recs.len(), 3);
        let deduped = dedup_retransmissions(recs);
        assert_eq!(deduped.len(), 2);
        assert!(deduped.iter().all(|r| !r.retrans));
    }

    #[test]
    fn parse_log_skips_comments_and_blank_lines() {
        let text = format!("# header\n\n{LINE}\n  \n{LINE}\n");
        let recs = parse_log(&text).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn context_and_channel_accessors() {
        let r = RawRecord::parse_line(LINE).unwrap();
        let ctx = r.context();
        assert_eq!(&*ctx.hostname, "node2");
        assert_eq!(ctx.tid, 4250);
        assert_eq!(r.channel().dst.port, 8009);
    }

    #[test]
    fn from_str_trait_works() {
        let r: RawRecord = LINE.parse().unwrap();
        assert_eq!(r.size, 1448);
    }

    #[test]
    fn ref_parse_matches_owned_parse() {
        let r = RawRecordRef::parse_line(LINE).unwrap();
        assert_eq!(r.hostname, "node2");
        assert_eq!(r.program, "java");
        assert!(!r.is_send());
        assert_eq!(r.channel().dst.port, 8009);
        let mut interner = Interner::new();
        assert_eq!(
            r.to_owned_interned(&mut interner),
            RawRecord::parse_line(LINE).unwrap()
        );
    }

    #[test]
    fn ref_parse_rejects_what_owned_rejects() {
        for bad in ["", "1 n p 1 2 RECV a-b 3", "1 n p 1 2 RECEIVE x 3"] {
            assert_eq!(
                RawRecordRef::parse_line(bad).is_err(),
                RawRecord::parse_line(bad).is_err(),
            );
        }
    }

    /// Variants of one line at every edge where the fast path and the
    /// general parser could part: whitespace, signs, leading zeros,
    /// overflow, attributes, odd hostnames and every truncation.
    fn mutations(line: &str) -> Vec<String> {
        let b = line.as_bytes();
        let mut out = Vec::new();
        let mut splice = |at: usize, cut: usize, with: &str| {
            out.push(format!("{}{with}{}", &line[..at], &line[at + cut..]));
        };
        for w in [" ", "\t", "\r", "\n"] {
            splice(0, 0, w);
            splice(line.len(), 0, w);
        }
        for (i, _) in line.match_indices(' ') {
            for w in ["  ", "\t", "\r", "\x0c"] {
                splice(i, 1, w);
            }
            splice(i + 1, 0, "+");
        }
        splice(0, 0, "+");
        let mut i = 0;
        while i < b.len() {
            if !b[i].is_ascii_digit() {
                i += 1;
                continue;
            }
            let run = b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
            splice(i, 0, "0");
            for v in [
                "0",
                "255",
                "256",
                "65535",
                "65536",
                "4294967295",
                "4294967296",
                "18446744073709551615",
                "18446744073709551616",
                "00000000000000000000001",
            ] {
                splice(i, run, v);
            }
            i += run;
        }
        for attr in [
            " seq=",
            " seq=1 seq=2",
            " seq=007",
            " seq=+7",
            " seq=18446744073709551616",
            " retrans retrans",
            " retransX",
            " retrans seq=7",
            " seq=7 retrans",
            " retrans seq=",
            " extra",
        ] {
            splice(line.len(), 0, attr);
        }
        let fields: Vec<(usize, &str)> = line
            .split(' ')
            .scan(0, |at, f| {
                let start = *at;
                *at += f.len() + 1;
                Some((start, f))
            })
            .collect();
        for &(at, f) in fields.iter().skip(1).take(2) {
            for name in ["w\u{e9}b", "w\u{1}b", "w\u{b}b", "w\u{a0}b", "\u{3c9}"] {
                splice(at, f.len(), name);
            }
        }
        if let Some(&(at, f)) = fields.get(5) {
            for op in ["send", "SENDX", "RECEIVED", "SEN"] {
                splice(at, f.len(), op);
            }
        }
        for i in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            out.push(line[..i].to_owned());
        }
        out
    }

    #[test]
    fn fast_path_is_invisible_on_golden_lines_and_their_mutations() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let mut corpora: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .collect();
        corpora.sort();
        assert_eq!(corpora.len(), 12);
        let check = |line: &str| {
            let got = RawRecordRef::parse_line(line);
            assert_eq!(got, RawRecordRef::parse_general(line), "line {line:?}");
            got.is_ok()
        };
        // splitmix64: every golden line gets a few seeded mutations,
        // every 16th gets all of them.
        let mut state = 0x5eed_u64;
        let mut rand = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d4_049b_b133_111b);
            z ^ (z >> 31)
        };
        let (mut records, mut accepted, mut checked) = (0, 0, 0);
        for path in &corpora {
            let text = std::fs::read_to_string(path).unwrap();
            for line in text.lines().filter(|l| !l.starts_with('#')) {
                records += 1;
                // Every golden record is canonical: the fast path reads
                // it without the fallback.
                assert!(RawRecordRef::parse_canonical(line).is_some(), "{line:?}");
                check(line);
                let variants = mutations(line);
                let picks: Vec<usize> = if records % 16 == 0 {
                    (0..variants.len()).collect()
                } else {
                    (0..6).map(|_| rand() as usize % variants.len()).collect()
                };
                for k in picks {
                    accepted += usize::from(check(&variants[k]));
                    checked += 1;
                }
            }
        }
        assert!(records > 11_000, "{records} golden records");
        // Both sides of the grammar are exercised.
        assert!(accepted > checked / 10 && accepted < checked / 2);
    }

    #[test]
    fn parse_log_interns_repeated_names() {
        let text = format!("{LINE}\n{LINE}\n");
        let recs = parse_log(&text).unwrap();
        assert!(Arc::ptr_eq(&recs[0].hostname, &recs[1].hostname));
        assert!(Arc::ptr_eq(&recs[0].program, &recs[1].program));
    }

    #[test]
    fn parse_log_iter_skips_comments_and_borrows() {
        let text = format!("# header\n\n{LINE}\n  \n{LINE}\n");
        let refs: Vec<RawRecordRef<'_>> = parse_log_iter(&text).collect::<Result<_, _>>().unwrap();
        assert_eq!(refs.len(), 2);
        // Borrowed fields point into the original text buffer.
        let start = text.as_ptr() as usize;
        let end = start + text.len();
        let p = refs[0].hostname.as_ptr() as usize;
        assert!(p >= start && p < end);
    }
}
