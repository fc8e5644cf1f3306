//! Spill-to-disk tier for the correlator's memory budget.
//!
//! Under a memory budget the correlator used to *shed* its stalest
//! state — counted, deterministic, but a recall loss: every shed CAG is
//! a request the trace simply forgets. This module provides the
//! buffer-pool-shaped alternative: cold state (unfinished CAGs, orphan
//! chains, `RangeDedup` coverage) is serialized into fixed-size pages
//! of a temp spill file and faulted back on touch, so pressure costs
//! latency instead of accuracy.
//!
//! Design (borrowed from classic buffer-pool managers):
//!
//! * **Page store** — the spill file is an array of [`PAGE_SIZE`]-byte
//!   pages. An object occupies one contiguous *extent* of pages
//!   ([`PageExtent`]); a free-list of extents (coalescing on free)
//!   recycles space, so a long-running `pt serve` reuses pages instead
//!   of growing the file without bound.
//! * **Synchronous positional I/O** — `put` writes the object at its
//!   extent's offset (`write_all_at`) and drops the buffer; `get` reads
//!   it back (`read_exact_at`). No thread and no queue: a spilled
//!   object's memory is released the moment it spills, and the write
//!   normally lands in the page cache (≈ 1 µs), which is less than a
//!   hand-off to another thread costs.
//! * **Victim selection** — which object to spill is the caller's
//!   policy; the engine uses LRU-K (K = 2) access history over
//!   unfinished CAGs with objects touched since the last sampling
//!   boundary treated as pinned (see `engine::SpillState`).
//!
//! The file is created in the configured spill directory with a
//! `pt-spill-` prefix and removed on drop; `pt serve` additionally
//! sweeps the prefix during drain so a kill between SIGTERM and drop
//! cannot leak artifacts.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Spill page size in bytes. Small enough that a typical unfinished CAG
/// (a dozen vertices) wastes little slack, large enough that extents
/// stay short.
pub const PAGE_SIZE: u64 = 1024;

/// Filename prefix of every spill file; `pt serve`'s drain sweep removes
/// leftovers matching it.
pub const SPILL_FILE_PREFIX: &str = "pt-spill-";

/// One allocated extent: `pages` contiguous pages starting at page
/// index `page`, holding an object of `len` serialized bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageExtent {
    /// First page index.
    pub page: u64,
    /// Number of contiguous pages.
    pub pages: u32,
    /// Serialized object length in bytes (≤ `pages * PAGE_SIZE`).
    pub len: u32,
}

/// Snapshot of a spill file's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillFileStats {
    /// Objects written out (spills).
    pub objects_out: u64,
    /// Objects read back (faults).
    pub objects_in: u64,
    /// Pages written to the spill file.
    pub pages_written: u64,
    /// Pages read back from the spill file on faults.
    pub pages_read: u64,
    /// Always 0: there is no write-behind queue to serve a fault from.
    /// The field stays because the benchmark and the PTDC metrics frame
    /// read it.
    pub queue_hits: u64,
    /// Serialized bytes spilled out.
    pub bytes_out: u64,
    /// Serialized bytes faulted back.
    pub bytes_in: u64,
}

/// Extent allocator: free extents keyed by start page, coalesced on
/// free, first-fit allocation, high-water growth.
#[derive(Debug, Default)]
struct ExtentAlloc {
    free: BTreeMap<u64, u64>,
    next_page: u64,
}

impl ExtentAlloc {
    fn alloc(&mut self, pages: u64) -> u64 {
        // First fit in page order keeps allocation deterministic.
        let fit = self
            .free
            .iter()
            .find(|(_, &n)| n >= pages)
            .map(|(&start, &n)| (start, n));
        if let Some((start, n)) = fit {
            self.free.remove(&start);
            if n > pages {
                self.free.insert(start + pages, n - pages);
            }
            return start;
        }
        let start = self.next_page;
        self.next_page += pages;
        start
    }

    fn free(&mut self, start: u64, pages: u64) {
        // An extent that is not allocated (`get` consumed it already)
        // is left alone: inserting it again would hand its pages out
        // twice.
        let end = start + pages;
        let overlaps_free = self
            .free
            .range(..end)
            .next_back()
            .is_some_and(|(&s, &n)| s + n > start);
        if end > self.next_page || overlaps_free {
            return;
        }
        let mut start = start;
        let mut pages = pages;
        // Coalesce with the predecessor…
        if let Some((&p_start, &p_n)) = self.free.range(..start).next_back() {
            if p_start + p_n == start {
                self.free.remove(&p_start);
                start = p_start;
                pages += p_n;
            }
        }
        // …and the successor.
        if let Some(&n_n) = self.free.get(&(start + pages)) {
            self.free.remove(&(start + pages));
            pages += n_n;
        }
        // Trailing free space shrinks the high-water mark instead.
        if start + pages == self.next_page {
            self.next_page = start;
        } else {
            self.free.insert(start, pages);
        }
    }
}

/// What a [`SpillFile`] mutates: the extent allocator and the counters,
/// behind one lock.
#[derive(Debug, Default)]
struct SpillInner {
    alloc: ExtentAlloc,
    stats: SpillFileStats,
}

/// A temp-file page store. See the module docs for the design; create
/// one per correlator instance (the sharded pipeline gives each worker
/// its own — one spill namespace per shard).
///
/// A failed read or write of the file panics with the file's path and
/// the OS error: the object behind it is live correlator state, and
/// carrying on without it would silently change the output.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    file: File,
    inner: Mutex<SpillInner>,
}

/// Process-wide counter making spill filenames unique across
/// correlator instances (one file per sharded worker).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillFile {
    /// Creates a spill file in `dir`. The file is removed when the last
    /// reference drops.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory is missing
    /// or not writable.
    pub fn create(dir: &Path) -> std::io::Result<SpillFile> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "{SPILL_FILE_PREFIX}{}-{}.bin",
            std::process::id(),
            seq
        ));
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        Ok(SpillFile {
            path,
            file,
            inner: Mutex::default(),
        })
    }

    /// The spill file's path (diagnostics and the serve drain sweep).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, SpillInner> {
        self.inner.lock().expect("spill file lock poisoned")
    }

    /// Spills one serialized object, returning its extent. The bytes are
    /// in the file (or the page cache) when this returns.
    pub fn put(&self, bytes: Vec<u8>) -> PageExtent {
        let len = u32::try_from(bytes.len()).expect("spill object under 4 GiB");
        let pages = (bytes.len() as u64).div_ceil(PAGE_SIZE).max(1);
        let mut inner = self.inner();
        let page = inner.alloc.alloc(pages);
        if let Err(e) = self.file.write_all_at(&bytes, page * PAGE_SIZE) {
            panic!("write spill file {}: {e}", self.path.display());
        }
        inner.stats.objects_out += 1;
        inner.stats.bytes_out += len as u64;
        inner.stats.pages_written += pages;
        PageExtent {
            page,
            pages: pages as u32,
            len,
        }
    }

    /// Faults one object back, consuming its extent (the pages return
    /// to the free list).
    pub fn get(&self, extent: PageExtent) -> Vec<u8> {
        let mut buf = vec![0u8; extent.len as usize];
        if let Err(e) = self.file.read_exact_at(&mut buf, extent.page * PAGE_SIZE) {
            panic!("read spill file {}: {e}", self.path.display());
        }
        let mut inner = self.inner();
        inner.stats.objects_in += 1;
        inner.stats.bytes_in += extent.len as u64;
        inner.stats.pages_read += extent.pages as u64;
        inner.alloc.free(extent.page, extent.pages as u64);
        buf
    }

    /// Returns an extent's pages to the free list without reading it
    /// (the object was dropped, e.g. an evicted spilled CAG). Freeing an
    /// extent that `get` already consumed does nothing.
    pub fn free(&self, extent: PageExtent) {
        self.inner().alloc.free(extent.page, extent.pages as u64);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SpillFileStats {
        self.inner().stats
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Removes every spill file this process created in `dir`
/// ([`SPILL_FILE_PREFIX`] + our pid). [`SpillFile`]'s `Drop` already
/// unlinks its own file; this sweep is the drain-path backstop for
/// files whose owner was torn down without running destructors. Files
/// of other processes (live or crashed) are left alone. Returns the
/// number of files removed.
pub fn sweep_process_spill_files(dir: &Path) -> usize {
    let mine = format!("{SPILL_FILE_PREFIX}{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&mine)
            && std::fs::remove_file(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

/// Serializes a CAG into a compact spill object (little-endian, string
/// contexts length-prefixed and re-interned on decode).
pub(crate) fn encode_cag(cag: &crate::cag::Cag, buf: &mut Vec<u8>) {
    use codec::*;
    put_u64(buf, cag.id);
    put_u8(buf, cag.finished as u8);
    put_u32(buf, cag.vertices.len() as u32);
    for v in &cag.vertices {
        put_activity_type(buf, v.ty);
        put_u64(buf, v.ts.0);
        put_u64(buf, v.ts_last.0);
        put_str(buf, &v.ctx.hostname);
        put_str(buf, &v.ctx.program);
        put_u32(buf, v.ctx.pid);
        put_u32(buf, v.ctx.tid);
        put_channel(buf, v.channel);
        put_u64(buf, v.size);
        put_u32(buf, v.tags.len() as u32);
        for &t in &v.tags {
            put_u64(buf, t);
        }
        put_u64(buf, v.ctx_parent.map_or(u64::MAX, |p| p as u64));
        put_u64(buf, v.msg_parent.map_or(u64::MAX, |p| p as u64));
    }
}

/// Decodes a CAG spill object produced by [`encode_cag`].
pub(crate) fn decode_cag(bytes: &[u8]) -> crate::cag::Cag {
    let mut d = codec::Dec::new(bytes);
    let cag = decode_cag_from(&mut d);
    d.finish().expect("corrupt CAG spill object");
    cag
}

/// Encoded size of a CAG with no vertices, and of a vertex with no
/// tags: the floor a decoded count is checked against.
pub(crate) const MIN_CAG_BYTES: usize = 13;
const MIN_VERTEX_BYTES: usize = 77;

/// Cursor-based counterpart of [`decode_cag`]: the encoding is
/// self-delimiting, so several CAGs can be concatenated in one buffer
/// (the distributed wire protocol's Output frames do exactly that).
/// Hostname and program strings are shared within the decoded CAG, as
/// they were before it was encoded. Malformed input marks `d` failed.
pub(crate) fn decode_cag_from(d: &mut codec::Dec<'_>) -> crate::cag::Cag {
    let mut names = crate::intern::Interner::new();
    let id = d.u64();
    let finished = d.u8() != 0;
    let n = d.count(MIN_VERTEX_BYTES);
    let mut vertices = Vec::with_capacity(n);
    for _ in 0..n {
        let ty = d.activity_type();
        let ts = crate::activity::LocalTime(d.u64());
        let ts_last = crate::activity::LocalTime(d.u64());
        let hostname = names.intern(d.str());
        let program = names.intern(d.str());
        let pid = d.u32();
        let tid = d.u32();
        let channel = codec::get_channel(d);
        let size = d.u64();
        let tags = (0..d.count(8)).map(|_| d.u64()).collect();
        let ctx_parent = decode_parent(d.u64());
        let msg_parent = decode_parent(d.u64());
        vertices.push(crate::cag::Vertex {
            ty,
            ts,
            ts_last,
            ctx: crate::activity::ContextId::new(hostname, program, pid, tid),
            channel,
            size,
            tags,
            ctx_parent,
            msg_parent,
        });
    }
    crate::cag::Cag {
        id,
        vertices,
        finished,
    }
}

fn decode_parent(v: u64) -> Option<usize> {
    (v != u64::MAX).then_some(v as usize)
}

/// Little-endian byte-cursor helpers for spill objects and PTDC frames.
pub(crate) mod codec {
    use std::io;

    use crate::activity::{ActivityType, Channel, EndpointV4};

    pub fn put_channel(buf: &mut Vec<u8>, ch: Channel) {
        put_u32(buf, u32::from(ch.src.ip));
        put_u32(buf, ch.src.port as u32);
        put_u32(buf, u32::from(ch.dst.ip));
        put_u32(buf, ch.dst.port as u32);
    }

    pub fn get_channel(d: &mut Dec<'_>) -> Channel {
        let src_ip = std::net::Ipv4Addr::from(d.u32());
        let src_port = d.u32() as u16;
        let dst_ip = std::net::Ipv4Addr::from(d.u32());
        let dst_port = d.u32() as u16;
        Channel::new(
            EndpointV4 {
                ip: src_ip,
                port: src_port,
            },
            EndpointV4 {
                ip: dst_ip,
                port: dst_port,
            },
        )
    }
    /// The one-byte code [`Dec::activity_type`] reads.
    pub fn put_activity_type(buf: &mut Vec<u8>, ty: ActivityType) {
        put_u8(
            buf,
            match ty {
                ActivityType::Begin => 0,
                ActivityType::Send => 1,
                ActivityType::End => 2,
                ActivityType::Receive => 3,
            },
        );
    }

    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }

    pub fn put_str(buf: &mut Vec<u8>, s: &str) {
        put_u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }

    /// A consuming read cursor over a spill object or a PTDC frame.
    /// Reads never panic: a read past the end, or a value the caller
    /// rejects ([`Dec::fail`]), marks the cursor failed, and from then
    /// on every read yields zero or empty. Decoders therefore check
    /// once, at the end of an object or frame ([`Dec::finish`]).
    pub struct Dec<'a> {
        buf: &'a [u8],
        err: Option<String>,
    }

    impl<'a> Dec<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Dec { buf, err: None }
        }

        /// Marks the cursor failed; the first reason is the one kept.
        pub fn fail(&mut self, why: impl Into<String>) {
            self.err.get_or_insert_with(|| why.into());
            self.buf = &[];
        }

        fn take<const N: usize>(&mut self) -> [u8; N] {
            match self.buf.split_first_chunk::<N>() {
                Some((head, rest)) => {
                    self.buf = rest;
                    *head
                }
                None => {
                    self.fail("truncated");
                    [0; N]
                }
            }
        }

        pub fn u64(&mut self) -> u64 {
            u64::from_le_bytes(self.take())
        }

        pub fn u32(&mut self) -> u32 {
            u32::from_le_bytes(self.take())
        }

        pub fn u8(&mut self) -> u8 {
            self.take::<1>()[0]
        }

        pub fn str(&mut self) -> &'a str {
            let len = self.u32() as usize;
            let Some((head, rest)) = self.buf.split_at_checked(len) else {
                self.fail("truncated");
                return "";
            };
            self.buf = rest;
            std::str::from_utf8(head).unwrap_or_else(|_| {
                self.fail("string is not UTF-8");
                ""
            })
        }

        /// Reads an element count. Each element takes at least
        /// `min_bytes`, so a count the bytes left cannot hold is a lie
        /// that must not size an allocation: it fails the cursor and
        /// reads as 0.
        pub fn count(&mut self, min_bytes: usize) -> usize {
            let n = self.u32() as usize;
            if n.saturating_mul(min_bytes) > self.buf.len() {
                let left = self.buf.len();
                self.fail(format!("count {n} exceeds the {left} bytes left"));
                return 0;
            }
            n
        }

        pub fn activity_type(&mut self) -> ActivityType {
            match self.u8() {
                0 => ActivityType::Begin,
                1 => ActivityType::Send,
                2 => ActivityType::End,
                3 => ActivityType::Receive,
                code => {
                    self.fail(format!("unknown activity type code {code}"));
                    ActivityType::Receive
                }
            }
        }

        /// The first failure, if any read failed so far.
        pub fn status(&self) -> io::Result<()> {
            match &self.err {
                Some(why) => Err(io::Error::new(io::ErrorKind::InvalidData, why.clone())),
                None => Ok(()),
            }
        }

        /// [`Dec::status`], and no bytes left over.
        pub fn finish(&self) -> io::Result<()> {
            self.status()?;
            if !self.buf.is_empty() {
                let left = self.buf.len();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{left} trailing bytes"),
                ));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_small_and_multi_page() {
        let sf = SpillFile::create(&std::env::temp_dir()).unwrap();
        let small = vec![7u8; 100];
        let large: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let e1 = sf.put(small.clone());
        let e2 = sf.put(large.clone());
        assert_eq!(e1.pages, 1);
        assert_eq!(e2.pages, 5);
        assert_eq!(sf.get(e2), large);
        assert_eq!(sf.get(e1), small);
        let st = sf.stats();
        assert_eq!(st.objects_out, 2);
        assert_eq!(st.objects_in, 2);
        assert_eq!(st.bytes_out, 5100);
        assert_eq!(st.bytes_in, 5100);
    }

    #[test]
    fn freed_extents_are_reused_and_coalesced() {
        let sf = SpillFile::create(&std::env::temp_dir()).unwrap();
        let a = sf.put(vec![1; 1000]); // page 0
        let b = sf.put(vec![2; 3000]); // pages 1-3
        let c = sf.put(vec![3; 1000]); // page 4
        assert_eq!((a.page, b.page, c.page), (0, 1, 4));
        sf.free(a);
        sf.free(b);
        // Pages 0-3 coalesce; a 4-page object must slot into them.
        let d = sf.put(vec![4; 4000]);
        assert_eq!(d.page, 0);
        assert_eq!(sf.get(d), vec![4; 4000]);
        assert_eq!(sf.get(c), vec![3; 1000]);
    }

    #[test]
    fn every_fault_is_a_file_round_trip() {
        let sf = SpillFile::create(&std::env::temp_dir()).unwrap();
        for i in 0..64u8 {
            let e = sf.put(vec![i; 2000]);
            // The bytes are in the file, not in a table beside it.
            let mut on_disk = vec![0u8; 2000];
            File::open(sf.path())
                .unwrap()
                .read_exact_at(&mut on_disk, e.page * PAGE_SIZE)
                .unwrap();
            assert_eq!(on_disk, vec![i; 2000]);
            assert_eq!(sf.get(e), vec![i; 2000]);
        }
        let st = sf.stats();
        assert_eq!(st.pages_written, 128);
        assert_eq!(st.pages_read, 128);
        assert_eq!(st.queue_hits, 0);
    }

    #[test]
    fn free_after_get_is_harmless() {
        let sf = SpillFile::create(&std::env::temp_dir()).unwrap();
        let extents: Vec<_> = (0..8u8).map(|i| sf.put(vec![i; 1500])).collect();
        let kept = sf.put(vec![9; 700]);
        for e in &extents {
            sf.get(*e);
        }
        // `get` consumed these; freeing them again must not hand their
        // pages out twice, nor the pages of a live extent.
        for e in extents {
            sf.free(e);
        }
        let a = sf.put(vec![1; 3000]);
        let b = sf.put(vec![2; 3000]);
        let c = sf.put(vec![3; 16 * 1024]);
        assert_eq!(sf.get(kept), vec![9; 700]);
        assert_eq!(sf.get(a), vec![1; 3000]);
        assert_eq!(sf.get(b), vec![2; 3000]);
        assert_eq!(sf.get(c), vec![3; 16 * 1024]);
    }

    #[test]
    fn file_is_removed_on_drop() {
        let sf = SpillFile::create(&std::env::temp_dir()).unwrap();
        let path = sf.path().to_path_buf();
        assert!(path.exists());
        drop(sf);
        assert!(!path.exists());
    }

    #[test]
    fn create_in_missing_dir_errors() {
        assert!(SpillFile::create(Path::new("/nonexistent-spill-dir-pt")).is_err());
    }

    #[test]
    fn alloc_first_fit_and_hwm_shrink() {
        let mut a = ExtentAlloc::default();
        assert_eq!(a.alloc(2), 0);
        assert_eq!(a.alloc(1), 2);
        a.free(0, 2);
        // 1-page object fits into the 2-page hole (first fit).
        assert_eq!(a.alloc(1), 0);
        // Freeing the tail coalesces with the free page 1 and shrinks
        // the high-water mark past both.
        a.free(2, 1);
        assert_eq!(a.next_page, 1);
        a.free(0, 1);
        assert_eq!(a.next_page, 0);
        // Freeing what is already free changes nothing.
        a.free(0, 1);
        assert_eq!(a.alloc(3), 0);
        a.free(1, 1);
        a.free(1, 1);
        assert_eq!((a.alloc(1), a.alloc(2)), (1, 3));
    }
}
