//! **PTBIN** — the compact binary wire form of `TCP_TRACE` records.
//!
//! The text format is what sniffer frontends emit for humans; PTBIN is
//! what they ship to a long-running correlator. It round-trips
//! `TCP_TRACE` v1/v2 losslessly (every field the text grammar can
//! express, including the optional `seq=`/`retrans` v2 attributes) at a
//! fixed 53 bytes per record, with all hostname/program strings
//! interned into a table up front so decoding is a handful of
//! little-endian loads per record and zero allocations when borrowed
//! ([`Reader::get`] / [`decode_refs`]).
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! header   magic "PTBN" (4) | version u16 (=1) | flags u16 (=0)
//! table    count u32 | count × { len u16 | UTF-8 bytes }
//! records  count u64 | count × 53-byte record
//!
//! record   ts u64 | host_idx u32 | prog_idx u32 | pid u32 | tid u32
//!          | flags u8 | src_ip [4] | src_port u16
//!          | dst_ip [4] | dst_port u16 | size u64 | seq u64
//! flags    bit0 op (0=SEND, 1=RECEIVE) | bit1 retrans | bit2 has seq=
//! ```
//!
//! `seq` is only meaningful when flag bit 2 is set (a v2 record); v1
//! records store 0 there so every record is the same width — which is
//! what lets [`decode_refs_parallel`] split the record array by index
//! with no scanning. The out-of-band ground-truth `tag` is not part of
//! the text grammar and is not carried; decoded records have `tag = 0`,
//! exactly like text parsing.
//!
//! # Examples
//!
//! ```
//! use tracer_core::binfmt;
//!
//! let text = "1000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 42\n";
//! let bin = binfmt::encode_text(text, 1)?;
//! assert!(binfmt::is_ptbin(&bin));
//! let records = binfmt::decode_refs(&bin)?;
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].hostname, "web");
//! assert_eq!(records[0].to_string().as_str(), text.trim_end());
//! # Ok::<(), tracer_core::TraceError>(())
//! ```

use std::net::Ipv4Addr;
use std::path::Path;

use crate::activity::{EndpointV4, LocalTime};
use crate::error::TraceError;
use crate::intern::Interner;
use crate::raw::{RawOp, RawRecord, RawRecordRef};

/// File magic: the first four bytes of every PTBIN stream.
pub const MAGIC: [u8; 4] = *b"PTBN";

/// Current format version (header `version` field).
pub const VERSION: u16 = 1;

/// Fixed encoded size of one record in bytes.
pub const RECORD_BYTES: usize = 53;

/// Header size in bytes: magic + version + header flags.
const HEADER_BYTES: usize = 8;

/// Record flag bit 0: operation (`0` = SEND, `1` = RECEIVE).
const FLAG_RECEIVE: u8 = 1 << 0;
/// Record flag bit 1: the `retrans` attribute was present.
const FLAG_RETRANS: u8 = 1 << 1;
/// Record flag bit 2: the `seq=` attribute was present (v2 record).
const FLAG_HAS_SEQ: u8 = 1 << 2;

fn err(reason: impl Into<String>) -> TraceError {
    TraceError::Config(format!("PTBIN: {}", reason.into()))
}

/// True when `buf` starts with the PTBIN magic (any version).
///
/// This is the sniff test `pt convert` / `pt correlate` use to pick a
/// direction; the magic bytes are not valid UTF-8-leading text for any
/// TCP_TRACE log, so the formats cannot be confused.
#[inline]
pub fn is_ptbin(buf: &[u8]) -> bool {
    buf.len() >= MAGIC.len() && buf[..MAGIC.len()] == MAGIC
}

/// Reads a PTBIN file into memory.
///
/// # Errors
///
/// Returns [`TraceError::Config`] when the file cannot be read.
pub fn read_binary_file(path: impl AsRef<Path>) -> Result<Vec<u8>, TraceError> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| err(format!("cannot read {}: {e}", path.display())))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Incremental PTBIN encoder: push records (in chunks, if the caller
/// streams), then [`finish`](Encoder::finish) to get the full stream
/// with the string table up front.
///
/// The table is built on the fly — each distinct hostname/program is
/// stored once and subsequent records reference it by index — so the
/// encoder's memory is the encoded records plus one copy of each
/// distinct string, never the input text.
#[derive(Debug, Default)]
pub struct Encoder {
    /// The string table, in first-seen order.
    names: Interner,
    records: Vec<u8>,
    count: u64,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records pushed so far.
    pub fn record_count(&self) -> u64 {
        self.count
    }

    fn intern(&mut self, s: &str) -> Result<u32, TraceError> {
        if s.len() > usize::from(u16::MAX) {
            return Err(err(format!("string longer than 65535 bytes: {:.32}...", s)));
        }
        u32::try_from(self.names.position(s))
            .map_err(|_| err("string table overflow (more than 2^32 distinct strings)"))
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when a hostname/program string
    /// exceeds the format's 65535-byte limit.
    pub fn push(&mut self, r: &RawRecordRef<'_>) -> Result<(), TraceError> {
        let host_idx = self.intern(r.hostname)?;
        let prog_idx = self.intern(r.program)?;
        let mut flags = 0u8;
        if r.op == RawOp::Receive {
            flags |= FLAG_RECEIVE;
        }
        if r.retrans {
            flags |= FLAG_RETRANS;
        }
        if r.seq.is_some() {
            flags |= FLAG_HAS_SEQ;
        }
        let out = &mut self.records;
        out.reserve(RECORD_BYTES);
        out.extend_from_slice(&r.ts.as_nanos().to_le_bytes());
        out.extend_from_slice(&host_idx.to_le_bytes());
        out.extend_from_slice(&prog_idx.to_le_bytes());
        out.extend_from_slice(&r.pid.to_le_bytes());
        out.extend_from_slice(&r.tid.to_le_bytes());
        out.push(flags);
        out.extend_from_slice(&r.src.ip.octets());
        out.extend_from_slice(&r.src.port.to_le_bytes());
        out.extend_from_slice(&r.dst.ip.octets());
        out.extend_from_slice(&r.dst.port.to_le_bytes());
        out.extend_from_slice(&r.size.to_le_bytes());
        out.extend_from_slice(&r.seq.unwrap_or(0).to_le_bytes());
        self.count += 1;
        Ok(())
    }

    /// Appends the records of `other`, re-indexing its strings into
    /// this table; strings new to this one join in `other`'s order.
    fn append(&mut self, other: Encoder) -> Result<(), TraceError> {
        let index: Vec<[u8; 4]> = other
            .names
            .strings()
            .iter()
            .map(|s| self.intern(s).map(u32::to_le_bytes))
            .collect::<Result<_, _>>()?;
        let start = self.records.len();
        self.records.extend_from_slice(&other.records);
        for cell in self.records[start..].chunks_exact_mut(RECORD_BYTES) {
            // Host and program indices sit at bytes 8..12 and 12..16.
            for at in [8, 12] {
                let i = u32::from_le_bytes(cell[at..at + 4].try_into().expect("4 bytes"));
                cell[at..at + 4].copy_from_slice(&index[i as usize]);
            }
        }
        self.count += other.count;
        Ok(())
    }

    /// Finishes the stream: header, string table, then all records.
    pub fn finish(self) -> Vec<u8> {
        let strings = self.names.strings();
        let table_bytes: usize = strings.iter().map(|s| 2 + s.len()).sum();
        let mut out = Vec::with_capacity(HEADER_BYTES + 4 + table_bytes + 8 + self.records.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // header flags: none defined yet
        out.extend_from_slice(
            &u32::try_from(strings.len())
                .unwrap_or(u32::MAX)
                .to_le_bytes(),
        );
        for s in strings {
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.records);
        out
    }
}

/// Encodes borrowed records into a complete PTBIN stream.
///
/// # Errors
///
/// Returns [`TraceError::Config`] when a string field exceeds the
/// format's 65535-byte limit.
pub fn encode_refs(records: &[RawRecordRef<'_>]) -> Result<Vec<u8>, TraceError> {
    let mut enc = Encoder::new();
    for r in records {
        enc.push(r)?;
    }
    Ok(enc.finish())
}

/// Parses `TCP_TRACE` text (with `threads` ingest workers) and encodes
/// the records as PTBIN.
///
/// Each worker parses and encodes its chunk straight into record cells
/// against a table of its own; the tables merge in chunk order, so the
/// stream is byte-identical to [`encode_refs`] over the whole parse.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] for malformed text and
/// [`TraceError::Config`] for records the format cannot express.
pub fn encode_text(text: &str, threads: usize) -> Result<Vec<u8>, TraceError> {
    let parts = crate::ingest::map_chunks(text, threads, |chunk| {
        let mut enc = Ok(Encoder::new());
        for r in crate::raw::parse_log_iter(chunk) {
            let r = r?;
            if let Ok(e) = &mut enc {
                if let Err(x) = e.push(&r) {
                    enc = Err(x);
                }
            }
        }
        Ok::<_, TraceError>(enc)
    });
    // A parse error anywhere comes before any encoding error, as when
    // the whole text is parsed before the first record is encoded.
    let mut parts = parts
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let mut enc = parts.next().transpose()?.unwrap_or_default();
    for part in parts {
        enc.append(part?)?;
    }
    Ok(enc.finish())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A validated view over a PTBIN stream: the string table is resolved
/// (and UTF-8 checked) once, after which [`get`](Reader::get) decodes
/// any record by index with plain little-endian loads — no scanning,
/// no allocation, strings borrowed straight from the input buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    strings: Vec<&'a str>,
    records: &'a [u8],
    count: usize,
}

impl<'a> Reader<'a> {
    /// Validates the header and string table of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] on bad magic, an unsupported
    /// version, unknown header flags, a truncated stream, or a string
    /// table entry that is not UTF-8.
    pub fn new(buf: &'a [u8]) -> Result<Self, TraceError> {
        if !is_ptbin(buf) {
            return Err(err("bad magic (not a PTBIN stream)"));
        }
        let take = |pos: usize, n: usize| -> Result<&'a [u8], TraceError> {
            buf.get(pos..pos + n).ok_or_else(|| err("truncated stream"))
        };
        let version = u16::from_le_bytes(take(4, 2)?.try_into().unwrap());
        if version != VERSION {
            return Err(err(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let hflags = u16::from_le_bytes(take(6, 2)?.try_into().unwrap());
        if hflags != 0 {
            return Err(err(format!("unknown header flags {hflags:#06x}")));
        }
        let nstrings = u32::from_le_bytes(take(8, 4)?.try_into().unwrap()) as usize;
        let mut pos = HEADER_BYTES + 4;
        let mut strings = Vec::with_capacity(nstrings.min(1 << 16));
        for _ in 0..nstrings {
            let len = u16::from_le_bytes(take(pos, 2)?.try_into().unwrap()) as usize;
            pos += 2;
            let s = std::str::from_utf8(take(pos, len)?)
                .map_err(|_| err("string table entry is not UTF-8"))?;
            pos += len;
            strings.push(s);
        }
        let count64 = u64::from_le_bytes(take(pos, 8)?.try_into().unwrap());
        pos += 8;
        let count = usize::try_from(count64).map_err(|_| err("record count overflow"))?;
        let need = count
            .checked_mul(RECORD_BYTES)
            .ok_or_else(|| err("record count overflow"))?;
        let records = take(pos, need)?;
        if buf.len() != pos + need {
            return Err(err(format!(
                "trailing garbage: {} bytes past the last record",
                buf.len() - (pos + need)
            )));
        }
        Ok(Reader {
            strings,
            records,
            count,
        })
    }

    /// Number of records in the stream.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the stream holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of distinct interned strings in the table.
    pub fn string_count(&self) -> usize {
        self.strings.len()
    }

    /// Decodes record `i` (zero-based), borrowing strings from the
    /// underlying buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] when `i` is out of range, a
    /// string index points past the table, or reserved flag bits are
    /// set.
    pub fn get(&self, i: usize) -> Result<RawRecordRef<'a>, TraceError> {
        if i >= self.count {
            return Err(err(format!("record {i} out of range ({})", self.count)));
        }
        let b = &self.records[i * RECORD_BYTES..(i + 1) * RECORD_BYTES];
        decode_cell(b, &|idx| self.strings.get(idx as usize).copied())
    }

    /// Iterates over all records in stream order.
    pub fn iter(&self) -> impl Iterator<Item = Result<RawRecordRef<'a>, TraceError>> + '_ {
        (0..self.count).map(move |i| self.get(i))
    }
}

/// Decodes one fixed-width record cell (`RECORD_BYTES` bytes);
/// `string` resolves a table index to its interned text.
///
/// # Errors
///
/// Returns [`TraceError::Config`] for reserved flag bits or a string
/// index past the table.
fn decode_cell<'a>(
    b: &'a [u8],
    string: &dyn Fn(u32) -> Option<&'a str>,
) -> Result<RawRecordRef<'a>, TraceError> {
    debug_assert_eq!(b.len(), RECORD_BYTES);
    let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
    let u32_at = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
    let u16_at = |o: usize| u16::from_le_bytes(b[o..o + 2].try_into().unwrap());
    let string_at = |o: usize| -> Result<&'a str, TraceError> {
        let idx = u32_at(o);
        string(idx).ok_or_else(|| err(format!("string index {idx} out of range")))
    };
    let flags = b[24];
    if flags & !(FLAG_RECEIVE | FLAG_RETRANS | FLAG_HAS_SEQ) != 0 {
        return Err(err(format!("unknown record flags {flags:#04x}")));
    }
    let seq_raw = u64_at(45);
    Ok(RawRecordRef {
        ts: LocalTime::from_nanos(u64_at(0)),
        hostname: string_at(8)?,
        program: string_at(12)?,
        pid: u32_at(16),
        tid: u32_at(20),
        op: if flags & FLAG_RECEIVE != 0 {
            RawOp::Receive
        } else {
            RawOp::Send
        },
        src: EndpointV4::new(Ipv4Addr::new(b[25], b[26], b[27], b[28]), u16_at(29)),
        dst: EndpointV4::new(Ipv4Addr::new(b[31], b[32], b[33], b[34]), u16_at(35)),
        size: u64_at(37),
        tag: 0,
        retrans: flags & FLAG_RETRANS != 0,
        seq: (flags & FLAG_HAS_SEQ != 0).then_some(seq_raw),
    })
}

/// Decodes a complete PTBIN stream into borrowed records.
///
/// # Errors
///
/// Returns [`TraceError::Config`] for any malformed stream (see
/// [`Reader::new`] / [`Reader::get`]).
pub fn decode_refs(buf: &[u8]) -> Result<Vec<RawRecordRef<'_>>, TraceError> {
    let reader = Reader::new(buf)?;
    let mut out = Vec::with_capacity(reader.len());
    for r in reader.iter() {
        out.push(r?);
    }
    Ok(out)
}

/// Decodes a complete PTBIN stream with `threads` workers, splitting
/// the fixed-width record array by index (no scanning required).
///
/// Produces exactly the same records in the same order as
/// [`decode_refs`]; `threads == 0` picks the available parallelism and
/// `threads == 1` is the sequential path.
///
/// # Errors
///
/// Returns [`TraceError::Config`] for any malformed stream; when
/// several records are malformed, the error for the earliest one in
/// stream order is returned (matching the text ingest contract).
pub fn decode_refs_parallel(
    buf: &[u8],
    threads: usize,
) -> Result<Vec<RawRecordRef<'_>>, TraceError> {
    let reader = Reader::new(buf)?;
    let n = reader.len();
    let threads = crate::ingest::resolve_threads(threads).min(n.max(1));
    if threads <= 1 {
        let mut out = Vec::with_capacity(n);
        for r in reader.iter() {
            out.push(r?);
        }
        return Ok(out);
    }
    // Even index ranges per worker; the fixed record width means no
    // boundary snapping is needed.
    let mut bounds = Vec::with_capacity(threads + 1);
    for i in 0..=threads {
        bounds.push(n * i / threads);
    }
    let reader = &reader;
    let parts: Vec<Result<Vec<RawRecordRef<'_>>, TraceError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                scope.spawn(move || {
                    let mut part = Vec::with_capacity(hi - lo);
                    for i in lo..hi {
                        part.push(reader.get(i)?);
                    }
                    Ok(part)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Incremental decoding (live tails)
// ---------------------------------------------------------------------------

/// Incremental PTBIN decoder for live sources: bytes arrive in
/// arbitrary chunks (a growing file's appends, a pipe's reads) and
/// [`drain`](StreamDecoder::drain) yields every record that is complete
/// so far. A **torn tail** — a chunk boundary mid-header, mid-table or
/// mid-record-cell — is never an error: the fragment stays buffered and
/// decoding resumes when the missing bytes arrive, so a reader polling
/// a file an encoder is still writing simply retries. Genuine
/// malformation (bad magic, unsupported version, non-UTF-8 table
/// entries, reserved flag bits) still fails hard, exactly like
/// [`Reader::new`].
///
/// After a segment's promised record count is consumed the decoder
/// expects the next bytes to start a fresh header, so concatenated
/// PTBIN streams — the natural wire form of a long-running sniffer that
/// flushes one [`Encoder`] per batch — decode as one record sequence
/// ([`segments`](StreamDecoder::segments) counts the headers).
///
/// Memory is bounded by one incomplete element (header + string table,
/// or one record cell) plus the current segment's string table —
/// consumed input bytes are dropped on every drain; the raw stream is
/// never held whole.
///
/// ```
/// use tracer_core::binfmt;
///
/// let text = "1000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 42\n";
/// let bin = binfmt::encode_text(text, 1)?;
/// let mut dec = binfmt::StreamDecoder::new();
/// dec.push(&bin[..bin.len() - 3]); // torn mid-cell
/// assert_eq!(dec.drain()?.len(), 0);
/// assert!(!dec.is_clean()); // a fragment is pending, not an error
/// dec.push(&bin[bin.len() - 3..]);
/// assert_eq!(dec.drain()?.len(), 1);
/// assert!(dec.is_clean());
/// # Ok::<(), tracer_core::TraceError>(())
/// ```
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Unconsumed input bytes (compacted on every drain).
    buf: Vec<u8>,
    /// Current segment's string table, owned so `buf` can be shed.
    strings: Vec<String>,
    /// Records the current segment's header promised but which have
    /// not been decoded yet; `None` while waiting for the next header.
    remaining: Option<u64>,
    /// Completed segment headers parsed so far.
    segments: u64,
    /// Records decoded so far, across segments.
    records: u64,
    interner: Interner,
}

impl StreamDecoder {
    /// Creates a decoder expecting the start of a PTBIN stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the source. Call
    /// [`drain`](StreamDecoder::drain) to decode.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered for a not-yet-complete element (torn tail); zero
    /// when the last drain consumed everything pushed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// True when the stream may end here cleanly: no torn fragment is
    /// buffered and no promised record is missing. At a source's final
    /// EOF, `!is_clean()` means the tail was truncated mid-element.
    pub fn is_clean(&self) -> bool {
        self.buf.is_empty() && self.remaining.is_none_or(|r| r == 0)
    }

    /// Completed segment headers decoded so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Records decoded so far, across segments.
    pub fn records_decoded(&self) -> u64 {
        self.records
    }

    /// Tries to parse a segment header (+ string table + record count)
    /// at the front of `buf`. Returns the consumed byte count and the
    /// promised record count, or `None` when more bytes are needed.
    fn try_header(&mut self) -> Result<Option<(usize, u64)>, TraceError> {
        let buf = &self.buf;
        if buf.len() < MAGIC.len() {
            return Ok(None);
        }
        if !is_ptbin(buf) {
            return Err(err("bad magic (not a PTBIN stream)"));
        }
        let Some(head) = buf.get(4..HEADER_BYTES + 4) else {
            return Ok(None);
        };
        let version = u16::from_le_bytes(head[0..2].try_into().unwrap());
        if version != VERSION {
            return Err(err(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let hflags = u16::from_le_bytes(head[2..4].try_into().unwrap());
        if hflags != 0 {
            return Err(err(format!("unknown header flags {hflags:#06x}")));
        }
        let nstrings = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
        let mut pos = HEADER_BYTES + 4;
        let mut strings = Vec::with_capacity(nstrings.min(1 << 16));
        for _ in 0..nstrings {
            let Some(len_bytes) = buf.get(pos..pos + 2) else {
                return Ok(None);
            };
            let len = u16::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            pos += 2;
            let Some(raw) = buf.get(pos..pos + len) else {
                return Ok(None);
            };
            let s = std::str::from_utf8(raw)
                .map_err(|_| err("string table entry is not UTF-8"))?
                .to_owned();
            pos += len;
            strings.push(s);
        }
        let Some(count_bytes) = buf.get(pos..pos + 8) else {
            return Ok(None);
        };
        let count = u64::from_le_bytes(count_bytes.try_into().unwrap());
        pos += 8;
        self.strings = strings;
        Ok(Some((pos, count)))
    }

    /// Decodes every record that is complete so far, consuming its
    /// bytes. A torn tail stays buffered for the next push + drain.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Config`] for genuinely malformed input —
    /// the same conditions as [`Reader::new`] / [`Reader::get`], minus
    /// truncation, which is retriable here. After an error the decoder
    /// is poisoned; recover by starting a fresh one on a fresh stream.
    pub fn drain(&mut self) -> Result<Vec<RawRecord>, TraceError> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        loop {
            match self.remaining {
                None | Some(0) => {
                    // Between segments: drop consumed bytes, then try
                    // to parse the next header at the front.
                    if pos > 0 {
                        self.buf.drain(..pos);
                        pos = 0;
                    }
                    if self.buf.is_empty() {
                        break;
                    }
                    match self.try_header()? {
                        None => break,
                        Some((consumed, count)) => {
                            self.buf.drain(..consumed);
                            self.remaining = Some(count);
                            self.segments += 1;
                        }
                    }
                }
                Some(n) => {
                    let StreamDecoder {
                        buf,
                        strings,
                        interner,
                        ..
                    } = &mut *self;
                    let Some(cell) = buf.get(pos..pos + RECORD_BYTES) else {
                        break;
                    };
                    let r =
                        decode_cell(cell, &|idx| strings.get(idx as usize).map(|s| s.as_str()))?;
                    out.push(r.to_owned_interned(interner));
                    pos += RECORD_BYTES;
                    self.remaining = Some(n - 1);
                    self.records += 1;
                }
            }
        }
        if pos > 0 {
            self.buf.drain(..pos);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{parse_log, parse_log_iter};

    const SAMPLE: &str = "\
1000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 42
1005 app java 9 12 RECEIVE 10.0.0.1:80-10.0.0.2:8009 42 seq=0
1010 app java 9 12 SEND 10.0.0.2:8009-10.0.0.1:80 17 seq=100 retrans
1020 db mysqld 3 3 RECEIVE 10.0.0.2:3306-10.0.0.3:9000 9 retrans
";

    fn sample_records() -> Vec<RawRecord> {
        parse_log(SAMPLE).unwrap()
    }

    fn sample_refs() -> Vec<RawRecordRef<'static>> {
        parse_log_iter(SAMPLE).collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn round_trips_v1_and_v2_records() {
        let refs = sample_refs();
        let bin = encode_refs(&refs).unwrap();
        assert!(is_ptbin(&bin));
        assert_eq!(decode_refs(&bin).unwrap(), refs);
    }

    #[test]
    fn round_trip_renders_byte_identical_text() {
        let bin = encode_refs(&sample_refs()).unwrap();
        let rendered: String = decode_refs(&bin)
            .unwrap()
            .iter()
            .map(|r| format!("{r}\n"))
            .collect();
        assert_eq!(rendered, SAMPLE);
    }

    #[test]
    fn encode_text_matches_encode_refs() {
        let via_text = encode_text(SAMPLE, 1).unwrap();
        let via_refs = encode_refs(&sample_refs()).unwrap();
        assert_eq!(via_text, via_refs);
        // And the parallel ingest front-end produces the same stream.
        assert_eq!(encode_text(SAMPLE, 3).unwrap(), via_refs);
    }

    #[test]
    fn string_table_interns_duplicates() {
        let bin = encode_refs(&sample_refs()).unwrap();
        let reader = Reader::new(&bin).unwrap();
        // web/httpd/app/java/db/mysqld — six distinct strings for four
        // records with eight string fields.
        assert_eq!(reader.string_count(), 6);
        assert_eq!(reader.len(), 4);
    }

    #[test]
    fn string_table_keeps_first_seen_order_when_programs_change_in_a_host_section() {
        let chan = "10.0.0.1:80-192.168.0.9:5000 42";
        let lines = [
            "web httpd",
            "web httpd",
            "web sshd",
            "web httpd",
            "web cron",
            "app java",
            "app httpd",
            "app java",
            "web cron",
            "db mysqld",
            "db web",
            "db mysqld",
        ];
        let text: String = lines
            .iter()
            .enumerate()
            .map(|(ts, hp)| format!("{ts} {hp} 7 7 SEND {chan}\n"))
            .collect();
        let refs: Vec<_> = parse_log_iter(&text).collect::<Result<_, _>>().unwrap();
        let bin = encode_refs(&refs).unwrap();
        // First-seen order over host, then program, record by record.
        let mut want: Vec<&str> = Vec::new();
        for s in lines.iter().flat_map(|hp| hp.split(' ')) {
            if !want.contains(&s) {
                want.push(s);
            }
        }
        assert_eq!(Reader::new(&bin).unwrap().strings, want);
        assert_eq!(decode_refs(&bin).unwrap(), refs);
        // Chunked encoding merges the per-chunk tables into the same
        // order, whatever the chunk count.
        for threads in 1..=8 {
            assert_eq!(
                encode_text(&text, threads).unwrap(),
                bin,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn encode_text_reports_a_parse_error_before_an_encoding_error() {
        let long = "h".repeat(usize::from(u16::MAX) + 1);
        let mut text = format!("1 {long} p 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42\n");
        for ts in 2..40 {
            text.push_str(&format!(
                "{ts} web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42\n"
            ));
        }
        assert!(matches!(encode_text(&text, 1), Err(TraceError::Config(_))));
        text.push_str("40 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 nan\n");
        for threads in 1..=4 {
            assert!(matches!(
                encode_text(&text, threads),
                Err(TraceError::Parse { .. })
            ));
        }
    }

    #[test]
    fn parallel_decode_matches_sequential_for_every_thread_count() {
        let bin = encode_refs(&sample_refs()).unwrap();
        let seq = decode_refs(&bin).unwrap();
        for threads in [0, 1, 2, 3, 4, 7] {
            let par = decode_refs_parallel(&bin, threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn empty_stream_round_trips() {
        let bin = encode_refs(&[]).unwrap();
        let reader = Reader::new(&bin).unwrap();
        assert!(reader.is_empty());
        assert_eq!(decode_refs(&bin).unwrap(), Vec::new());
    }

    #[test]
    fn rejects_bad_magic_version_flags_and_truncation() {
        let bin = encode_refs(&sample_refs()).unwrap();

        let mut bad_magic = bin.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Reader::new(&bad_magic),
            Err(TraceError::Config(m)) if m.contains("magic")
        ));

        let mut bad_version = bin.clone();
        bad_version[4] = 9;
        assert!(matches!(
            Reader::new(&bad_version),
            Err(TraceError::Config(m)) if m.contains("version")
        ));

        let mut bad_flags = bin.clone();
        bad_flags[6] = 1;
        assert!(matches!(
            Reader::new(&bad_flags),
            Err(TraceError::Config(m)) if m.contains("header flags")
        ));

        for cut in [3, HEADER_BYTES, bin.len() - 1] {
            assert!(Reader::new(&bin[..cut]).is_err(), "cut={cut}");
        }

        let mut trailing = bin.clone();
        trailing.push(0);
        assert!(matches!(
            Reader::new(&trailing),
            Err(TraceError::Config(m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn rejects_bad_record_flags_and_string_indices() {
        let bin = encode_refs(&sample_refs()[..1]).unwrap();
        let record_at = bin.len() - RECORD_BYTES;

        let mut bad_flags = bin.clone();
        bad_flags[record_at + 24] = 0x80;
        assert!(matches!(
            decode_refs(&bad_flags),
            Err(TraceError::Config(m)) if m.contains("record flags")
        ));

        let mut bad_index = bin.clone();
        bad_index[record_at + 8..record_at + 12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_refs(&bad_index),
            Err(TraceError::Config(m)) if m.contains("string index")
        ));
    }

    #[test]
    fn seq_zero_is_distinct_from_no_seq() {
        let v2 = "1000 a b 1 1 SEND 10.0.0.1:80-10.0.0.2:90 5 seq=0\n";
        let v1 = "1000 a b 1 1 SEND 10.0.0.1:80-10.0.0.2:90 5\n";
        for text in [v2, v1] {
            let bin = encode_text(text, 1).unwrap();
            let decoded = decode_refs(&bin).unwrap();
            let rendered = format!("{}\n", decoded[0]);
            assert_eq!(rendered, text);
        }
    }

    #[test]
    fn oversized_string_is_rejected() {
        let long = "h".repeat(usize::from(u16::MAX) + 1);
        let line = format!("1000 {long} b 1 1 SEND 10.0.0.1:80-10.0.0.2:90 5");
        let r = RawRecordRef::parse_line(&line).unwrap();
        assert!(encode_refs(&[r]).is_err());
    }

    #[test]
    fn stream_decoder_matches_one_shot_for_every_cut_point() {
        // The torn-tail contract, exhaustively: splitting the stream at
        // EVERY byte boundary — mid-magic, mid-table, mid-count,
        // mid-cell — and pushing the halves separately must decode the
        // exact records a one-shot parse yields, with no error at the
        // cut.
        let bin = encode_refs(&sample_refs()).unwrap();
        let one_shot = sample_records();
        for cut in 0..=bin.len() {
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            dec.push(&bin[..cut]);
            got.extend(dec.drain().unwrap_or_else(|e| panic!("cut={cut}: {e}")));
            if cut > 0 && cut < bin.len() {
                assert!(!dec.is_clean(), "cut={cut}: missing bytes must be pending");
            }
            dec.push(&bin[cut..]);
            got.extend(dec.drain().unwrap_or_else(|e| panic!("cut={cut}: {e}")));
            assert_eq!(got, one_shot, "cut={cut}");
            assert!(dec.is_clean(), "cut={cut}");
            assert_eq!(dec.pending_bytes(), 0, "cut={cut}");
        }
    }

    #[test]
    fn stream_decoder_handles_concatenated_segments_and_tiny_chunks() {
        // Two encoder flushes back to back — each with its own header
        // and (different) string table — pushed one byte at a time,
        // decode as one record sequence.
        let records = sample_records();
        let refs = sample_refs();
        let first = encode_refs(&refs[..2]).unwrap();
        let second = encode_refs(&refs[2..]).unwrap();
        let wire: Vec<u8> = [first, second].concat();
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            got.extend(dec.drain().unwrap());
        }
        assert_eq!(got, records);
        assert_eq!(dec.segments(), 2);
        assert_eq!(dec.records_decoded(), records.len() as u64);
        assert!(dec.is_clean());
    }

    #[test]
    fn stream_decoder_reports_torn_final_record() {
        let bin = encode_refs(&sample_refs()).unwrap();
        let mut dec = StreamDecoder::new();
        dec.push(&bin[..bin.len() - 1]);
        let got = dec.drain().unwrap();
        assert_eq!(got.len(), 3, "the torn final cell must not decode");
        assert!(!dec.is_clean(), "a truncated tail is pending, not clean");
        assert!(dec.pending_bytes() > 0);
    }

    #[test]
    fn stream_decoder_still_rejects_malformation() {
        let bin = encode_refs(&sample_refs()).unwrap();
        let mut bad_magic = bin.clone();
        bad_magic[0] = b'X';
        let mut dec = StreamDecoder::new();
        dec.push(&bad_magic);
        assert!(matches!(
            dec.drain(),
            Err(TraceError::Config(m)) if m.contains("magic")
        ));

        let mut bad_version = bin.clone();
        bad_version[4] = 9;
        let mut dec = StreamDecoder::new();
        dec.push(&bad_version);
        assert!(matches!(
            dec.drain(),
            Err(TraceError::Config(m)) if m.contains("version")
        ));

        let record_at = bin.len() - RECORD_BYTES;
        let mut bad_flags = bin;
        bad_flags[record_at + 24] = 0x80;
        let mut dec = StreamDecoder::new();
        dec.push(&bad_flags);
        assert!(matches!(
            dec.drain(),
            Err(TraceError::Config(m)) if m.contains("record flags")
        ));
    }

    #[test]
    fn compactness_beats_text() {
        // Header + string table amortize away: over a realistic corpus
        // the fixed 53-byte records undercut the ~60-byte text lines.
        let mut text = String::new();
        for i in 0..500u32 {
            text.push_str(&format!(
                "{} web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 {} seq={}\n",
                1_000_000 + u64::from(i) * 1_000,
                40 + i % 100,
                u64::from(i) * 64,
            ));
        }
        let bin = encode_text(&text, 1).unwrap();
        assert!(
            bin.len() < text.len(),
            "binary {} bytes vs text {} bytes",
            bin.len(),
            text.len()
        );
    }
}
