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
//! * Each **router peer** hosts a `WorkerBlock` of `workers_per_router`
//!   shard workers — the very sink `Mode::Sharded` runs — and feeds it
//!   the claim batches. Every peer is [`serve_router`] on one end of a
//!   byte stream: a thread of this process or a spawned child on a Unix
//!   socketpair, or a TCP-connected remote `pt router --listen`.
//! * At end of input the cluster collects every worker's
//!   [`CorrelationOutput`] in global shard order for the front-end's
//!   canonical merge (sort by CAG root, renumber) — so cluster output
//!   is **byte-identical** to single-process `Mode::Sharded` with the
//!   same total shard count, on every corpus and over every transport.
//!
//! ## Wire protocol (PTDC v4)
//!
//! Length-prefixed binary frames in PTBIN style (little-endian,
//! length-prefixed strings, incremental interning):
//!
//! ```text
//!  frame   := type:u8 len:u32 payload[len]
//!  Hello   := magic:u32 version:u32 router:u32 workers:u32 worker-config
//!  Claim   := worker:u32 count:u32 msg[count]     (coordinator → router)
//!  Finish  := (empty)                             (coordinator → router)
//!  Output  := worker:u32 correlation-output       (router → coordinator)
//!  Error   := message:str                         (router → coordinator)
//!  msg     := 0 act | 1 forget-ctx
//! ```
//!
//! A Hello carries only what a worker reads: the engine options, the
//! sampling period, the (per-worker) memory budget, the spill directory
//! and the sealing-lag bound. Access points, filters and ranker options
//! stay with the coordinator, whose router selects every candidate. The
//! worker config and the counters in an Output frame are encoded from
//! one field list per struct (`wire::Field`), the same list that folds
//! per-shard counters (`absorb`). Context strings use **incremental
//! interning**: the first occurrence of a hostname/program travels as
//! `u32::MAX + len + bytes` and enters both sides' tables; every later
//! occurrence is a 4-byte table id. Claim frames share one table per
//! connection, so the steady-state claim cost is independent of string
//! length; an Output frame's noise samples get a table of their own.
//!
//! Decoding never panics. A frame that is truncated, names an unknown
//! string id or activity type, or carries a count its bytes cannot
//! hold is refused before anything is sized by it: the router answers
//! `router protocol: …` in an Error frame, the coordinator fails with
//! [`TraceError::Router`].
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
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

use crate::correlator::{CorrelationOutput, CorrelatorConfig, WorkerConfig};
use crate::error::TraceError;
use crate::shard::{worker_config, RoutedCorrelator, ShardMsg, ShardSink, WorkerBlock, MAX_SHARDS};
use crate::spill::codec::Dec;

/// Hard cap on router peers: each is a process (or thread) plus a
/// frame connection, and the coordinator's single reader cannot feed
/// more anyway.
pub const MAX_ROUTERS: usize = 64;

/// How much of a child router's stderr is retained for the error
/// message when it fails.
const STDERR_TAIL: usize = 4096;

/// How the coordinator reaches its router peers. Every variant carries
/// the same PTDC byte stream to [`serve_router`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RouterTransport {
    /// Router peers run as background threads inside this process, each
    /// on one end of a Unix socketpair. The default: no deployment
    /// needed, still exercises every encode/decode path.
    #[default]
    InProcess,
    /// Spawn `exe router --stdio` child processes, each with both its
    /// stdin and stdout on one end of a Unix socketpair.
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

/// Gives a struct its one PTDC field list. Encoding destructures the
/// struct and decoding builds a struct literal, both from the list, so
/// a field missing from it is a compile error.
macro_rules! fields {
    ($ty:ident { $($f:ident),* $(,)? }) => {
        impl $crate::dist::wire::Field for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                let $ty { $($f),* } = self;
                $($crate::dist::wire::Field::put($f, buf);)*
            }
            fn get(d: &mut $crate::spill::codec::Dec<'_>) -> Self {
                $ty { $($f: $crate::dist::wire::Field::get(d)),* }
            }
        }
    };
}

/// [`fields!`] for a counter struct, plus its `absorb`, which folds
/// another shard's counters in by the rule each entry names: `sum`,
/// `max`, or `absorb` for a nested counter struct.
macro_rules! counters {
    (@fold sum, $a:expr, $b:expr) => { $a += $b };
    (@fold max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@fold absorb, $a:expr, $b:expr) => { $a.absorb(&$b) };
    ($(#[$doc:meta])* $ty:ident { $($f:ident: $rule:ident),* $(,)? }) => {
        $crate::dist::fields!($ty { $($f),* });
        impl $ty {
            $(#[$doc])*
            pub fn absorb(&mut self, other: &Self) {
                $($crate::dist::counters!(@fold $rule, self.$f, other.$f);)*
            }
        }
    };
}
pub(crate) use {counters, fields};

pub(crate) mod wire {
    use std::time::Duration;

    use super::*;
    use crate::activity::{Activity, ContextId, LocalTime};
    use crate::cag::Cag;
    use crate::engine::EngineOptions;
    use crate::spill::codec::{
        get_channel, put_activity_type, put_channel, put_str, put_u32, put_u64, put_u8,
    };
    use crate::spill::{decode_cag_from, encode_cag, MIN_CAG_BYTES};

    pub const MAGIC: u32 = 0x5054_4443; // "PTDC"
    pub const VERSION: u32 = 4;

    pub const FRAME_HELLO: u8 = 1;
    pub const FRAME_CLAIM: u8 = 2;
    pub const FRAME_FINISH: u8 = 3;
    pub const FRAME_OUTPUT: u8 = 4;
    pub const FRAME_ERROR: u8 = 5;

    /// Sanity bound on incoming frame length (a corrupt header must
    /// not trigger a multi-gigabyte allocation).
    const MAX_FRAME: u32 = 1 << 30;

    /// Encoded size floors of a claim message (a forget-ctx) and of an
    /// activity: what a decoded count is checked against.
    pub const MIN_MSG_BYTES: usize = 17;
    const MIN_ACT_BYTES: usize = 58;

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
        let [ty, len @ ..] = head;
        let len = u32::from_le_bytes(len);
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

    /// A value with one PTDC encoding. Decoding a malformed value
    /// marks the cursor failed and returns a placeholder, which the
    /// frame's [`Dec::finish`] then rejects.
    pub trait Field: Sized {
        fn put(&self, buf: &mut Vec<u8>);
        fn get(d: &mut Dec<'_>) -> Self;
    }

    /// Scalars travel as one `u64` each.
    macro_rules! scalars {
        ($($t:ty: |$v:ident| $to:expr, |$d:ident| $from:expr;)*) => {$(
            impl Field for $t {
                fn put(&self, buf: &mut Vec<u8>) {
                    let $v = *self;
                    put_u64(buf, $to);
                }
                fn get($d: &mut Dec<'_>) -> Self {
                    $from
                }
            }
        )*};
    }
    scalars! {
        u64: |v| v, |d| d.u64();
        usize: |v| v as u64, |d| narrow(d);
        bool: |v| v.into(), |d| d.u64() != 0;
        Duration: |v| v.as_nanos() as u64, |d| Duration::from_nanos(d.u64());
    }

    /// Reads a `u64` that must fit `T`.
    fn narrow<T: TryFrom<u64> + Default>(d: &mut Dec<'_>) -> T {
        let x = d.u64();
        T::try_from(x).unwrap_or_else(|_| {
            d.fail(format!("value {x} out of range"));
            T::default()
        })
    }

    impl<T: Field> Field for Option<T> {
        fn put(&self, buf: &mut Vec<u8>) {
            put_u8(buf, self.is_some() as u8);
            if let Some(v) = self {
                v.put(buf);
            }
        }
        fn get(d: &mut Dec<'_>) -> Self {
            (d.u8() != 0).then(|| T::get(d))
        }
    }

    impl Field for PathBuf {
        fn put(&self, buf: &mut Vec<u8>) {
            put_str(buf, &self.to_string_lossy());
        }
        fn get(d: &mut Dec<'_>) -> Self {
            PathBuf::from(d.str())
        }
    }

    fields!(EngineOptions {
        merge_segments,
        thread_reuse_check,
    });
    fields!(WorkerConfig {
        engine,
        mem_sample_every,
        memory_budget,
        spill_dir,
        max_seal_lag,
    });
    fields!(CorrelationOutput {
        cags,
        unfinished,
        metrics,
        noise_samples,
    });

    impl Field for Vec<Cag> {
        fn put(&self, buf: &mut Vec<u8>) {
            put_u32(buf, self.len() as u32);
            self.iter().for_each(|c| encode_cag(c, buf));
        }
        fn get(d: &mut Dec<'_>) -> Self {
            (0..d.count(MIN_CAG_BYTES))
                .map(|_| decode_cag_from(d))
                .collect()
        }
    }

    /// Noise samples, with a string table of their own.
    impl Field for Vec<Activity> {
        fn put(&self, buf: &mut Vec<u8>) {
            let mut enc = StrEnc::default();
            put_u32(buf, self.len() as u32);
            self.iter().for_each(|a| put_act(buf, &mut enc, a));
        }
        fn get(d: &mut Dec<'_>) -> Self {
            let mut dec = StrDec::default();
            (0..d.count(MIN_ACT_BYTES))
                .map(|_| get_act(d, &mut dec))
                .collect()
        }
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
        pub fn get(&mut self, d: &mut Dec<'_>) -> Arc<str> {
            match d.u32() {
                STR_NEW => {
                    let s: Arc<str> = Arc::from(d.str());
                    self.table.push(Arc::clone(&s));
                    s
                }
                id => self.table.get(id as usize).cloned().unwrap_or_else(|| {
                    d.fail(format!("unknown string id {id}"));
                    Arc::from("")
                }),
            }
        }
    }

    fn put_ctx(buf: &mut Vec<u8>, enc: &mut StrEnc, ctx: &ContextId) {
        enc.put(buf, &ctx.hostname);
        enc.put(buf, &ctx.program);
        put_u32(buf, ctx.pid);
        put_u32(buf, ctx.tid);
    }

    fn get_ctx(d: &mut Dec<'_>, dec: &mut StrDec) -> ContextId {
        ContextId {
            hostname: dec.get(d),
            program: dec.get(d),
            pid: d.u32(),
            tid: d.u32(),
        }
    }

    fn put_act(buf: &mut Vec<u8>, enc: &mut StrEnc, a: &Activity) {
        put_activity_type(buf, a.ty);
        put_u64(buf, a.ts.0);
        put_ctx(buf, enc, &a.ctx);
        put_channel(buf, a.channel);
        put_u64(buf, a.size);
        put_u64(buf, a.tag);
        a.seq.put(buf);
    }

    fn get_act(d: &mut Dec<'_>, dec: &mut StrDec) -> Activity {
        Activity {
            ty: d.activity_type(),
            ts: LocalTime(d.u64()),
            ctx: get_ctx(d, dec),
            channel: get_channel(d),
            size: d.u64(),
            tag: d.u64(),
            seq: Field::get(d),
        }
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

    pub fn get_msg(d: &mut Dec<'_>, dec: &mut StrDec) -> ShardMsg {
        match d.u8() {
            0 => ShardMsg::Act(get_act(d, dec)),
            code => {
                if code != 1 {
                    d.fail(format!("unknown claim message code {code}"));
                }
                ShardMsg::ForgetCtx(get_ctx(d, dec))
            }
        }
    }
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
/// out-of-protocol or malformed frame; a best-effort `Error` frame is
/// sent to the coordinator first so the failure is visible on both
/// sides.
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
    use wire::Field;
    let mut r = io::BufReader::new(r);
    let mut buf = Vec::new();
    let proto = |reason: String| TraceError::config(format!("router protocol: {reason}"));
    let malformed = |what: &str, e: io::Error| proto(format!("decoding {what}: {e}"));

    // Hello: validate, build the worker block.
    let ty = wire::read_frame(&mut r, &mut buf)
        .map_err(|e| proto(format!("reading hello: {e}")))?
        .ok_or_else(|| proto("coordinator closed before hello".into()))?;
    if ty != wire::FRAME_HELLO {
        return Err(proto(format!("expected hello, got frame type {ty}")));
    }
    let mut d = Dec::new(&buf);
    let (magic, version) = (d.u32(), d.u32());
    d.status().map_err(|e| malformed("hello", e))?;
    if magic != wire::MAGIC {
        return Err(proto("bad magic (not a PTDC coordinator)".into()));
    }
    if version != wire::VERSION {
        return Err(proto(format!(
            "protocol version {version} (this router speaks {})",
            wire::VERSION
        )));
    }
    d.u32(); // the router's index: only the coordinator's errors name it
    let workers = d.u32() as usize;
    let cfg = WorkerConfig::get(&mut d);
    d.finish().map_err(|e| malformed("hello", e))?;
    if workers == 0 || workers > MAX_SHARDS {
        return Err(proto(format!("worker count {workers} out of range")));
    }
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
                let mut d = Dec::new(&buf);
                let worker = d.u32() as usize;
                let count = d.count(wire::MIN_MSG_BYTES);
                let batch: Vec<_> = (0..count)
                    .map(|_| wire::get_msg(&mut d, &mut dec))
                    .collect();
                d.finish().map_err(|e| malformed("claim", e))?;
                if worker >= workers {
                    return Err(proto(format!("claim for worker {worker} of {workers}")));
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
            crate::spill::codec::put_u32(buf, i as u32);
            out.put(buf);
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
    writer: wire::FrameWriter<io::BufWriter<Box<dyn Write + Send>>>,
    reader: io::BufReader<Box<dyn Read + Send>>,
    /// This connection's claim string table.
    enc: wire::StrEnc,
    kind: PeerKind,
    /// Set once this peer's failure has been diagnosed (avoid
    /// double-reaping in Drop).
    failed: bool,
}

impl Peer {
    /// A peer speaking over `stream`, read through its clone `read_half`.
    fn new<S: Read + Write + Send + 'static>(stream: S, read_half: S, kind: PeerKind) -> Peer {
        Peer {
            writer: wire::FrameWriter::new(io::BufWriter::new(Box::new(stream) as Box<_>)),
            reader: io::BufReader::new(Box::new(read_half) as Box<_>),
            enc: wire::StrEnc::default(),
            kind,
            failed: false,
        }
    }

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
        worker_cfg: &WorkerConfig,
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
                    use wire::Field;
                    put_u32(buf, wire::MAGIC);
                    put_u32(buf, wire::VERSION);
                    put_u32(buf, i as u32);
                    put_u32(buf, workers_per_router as u32);
                    rc.put(buf);
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
        use wire::Field;
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
                let mut d = Dec::new(&buf);
                match ty {
                    wire::FRAME_OUTPUT => {
                        let worker = d.u32();
                        let out = CorrelationOutput::get(&mut d);
                        let malformed = |e: String| {
                            TraceError::router(i, format!("malformed output frame: {e}"))
                        };
                        d.finish().map_err(|e| malformed(e.to_string()))?;
                        if worker as usize != expected {
                            return Err(malformed(format!("worker {worker}, expected {expected}")));
                        }
                        outputs.push(out);
                    }
                    wire::FRAME_ERROR => {
                        peer.failed = true;
                        return Err(TraceError::router(i, d.str()));
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
    let err = |what: &str, e: io::Error| TraceError::router(index, format!("{what}: {e}"));
    match transport {
        RouterTransport::InProcess => socketpair_peer(index, |r, w| {
            let handle = std::thread::spawn(|| serve_router(r, w));
            Ok(PeerKind::Thread(Some(handle)))
        }),
        // Both the child's stdin and stdout are the same bidirectional
        // socket, so the child talks the protocol through plain
        // `stdin()`/`stdout()` without any fd juggling.
        RouterTransport::Spawn { exe } => socketpair_peer(index, |r, w| {
            let mut child = Command::new(exe)
                .args(["router", "--stdio"])
                .stdin(Stdio::from(OwnedFd::from(r)))
                .stdout(Stdio::from(OwnedFd::from(w)))
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| err(&format!("cannot spawn {}", exe.display()), e))?;
            let stderr = StderrTail::capture(child.stderr.take().expect("piped stderr"));
            Ok(PeerKind::Child { child, stderr })
        }),
        RouterTransport::Connect { addrs } => {
            let addr = &addrs[index];
            let stream = std::net::TcpStream::connect(addr)
                .map_err(|e| err(&format!("cannot connect to {addr}"), e))?;
            let _ = stream.set_nodelay(true);
            let read_half = stream
                .try_clone()
                .map_err(|e| err(&format!("cannot clone socket to {addr}"), e))?;
            let kind = PeerKind::Tcp { addr: addr.clone() };
            Ok(Peer::new(stream, read_half, kind))
        }
    }
}

/// A peer on one end of a fresh Unix socketpair; `start` runs the
/// router on the other end, handed over as a read and a write handle.
fn socketpair_peer(
    index: usize,
    start: impl FnOnce(UnixStream, UnixStream) -> Result<PeerKind, TraceError>,
) -> Result<Peer, TraceError> {
    let handles = |s: UnixStream| Ok::<_, io::Error>((s.try_clone()?, s));
    let ((mine_r, mine), (theirs_r, theirs)) = UnixStream::pair()
        .and_then(|(mine, theirs)| Ok((handles(mine)?, handles(theirs)?)))
        .map_err(|e| TraceError::router(index, format!("cannot create socketpair: {e}")))?;
    Ok(Peer::new(mine, mine_r, start(theirs_r, theirs)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Activity, ActivityType, Channel, ContextId, LocalTime};
    use crate::pipeline::{Mode, Pipeline, PipelineConfig, Source};
    use crate::shard::tests::{access, cluster_log, sharded};
    use crate::spill::codec::put_u32;
    use wire::Field;

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

    /// One frame of type `ty` around `body`.
    fn frame(ty: u8, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::FrameWriter::new(&mut bytes)
            .send(ty, |buf| buf.extend_from_slice(body))
            .unwrap();
        bytes
    }

    /// The spill directory [`hello_body`] ships; a router that accepts
    /// the Hello creates it.
    fn hello_spill_dir() -> String {
        let dir = std::env::temp_dir().join(format!("pt-dist-hello-{}", std::process::id()));
        dir.to_string_lossy().into_owned()
    }

    /// The body of a Hello for router 0 with one worker, as `version`
    /// sends it: a budgeted worker, so the spill directory is shipped.
    fn hello_body(version: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        for word in [wire::MAGIC, version, 0, 1] {
            put_u32(&mut buf, word);
        }
        let cfg = CorrelatorConfig::new(access())
            .with_memory_budget(1 << 20)
            .with_spill_dir(hello_spill_dir());
        cfg.worker().put(&mut buf);
        buf
    }

    /// The body of a Claim for worker 0 carrying one SEND.
    fn claim_body() -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 1);
        let send = ShardMsg::Act(activity(1));
        wire::put_msg(&mut buf, &mut wire::StrEnc::default(), &send);
        buf
    }

    fn activity(ts: u64) -> Activity {
        Activity {
            ty: ActivityType::Send,
            ts: LocalTime(ts),
            ctx: ContextId::new("web-frontend-01", "httpd", 7, 7),
            channel: Channel::new(
                "10.0.0.1:4001".parse().unwrap(),
                "10.0.0.2:8009".parse().unwrap(),
            ),
            size: 64,
            tag: 3,
            seq: Some(9000),
        }
    }

    /// `serve_router` over `bytes` must fail with `want` in its error
    /// and tell the coordinator the same in an Error frame.
    fn refused(bytes: &[u8], want: &str) {
        let mut out = Vec::new();
        let err = serve_router(bytes, &mut out).expect_err(want).to_string();
        assert!(err.contains(want), "{err}");
        let mut frame = Vec::new();
        let ty = wire::read_frame(&mut &out[..], &mut frame).unwrap();
        assert_eq!(ty, Some(wire::FRAME_ERROR), "{want}");
        assert_eq!(Dec::new(&frame).str(), err);
    }

    #[test]
    fn router_refuses_what_it_cannot_trust() {
        let hello = frame(wire::FRAME_HELLO, &hello_body(wire::VERSION));
        let after_hello = |ty: u8, body: &[u8]| [hello.clone(), frame(ty, body)].concat();
        // A v3 coordinator ships its whole config: refuse at the
        // version word, before parsing it.
        refused(
            &frame(wire::FRAME_HELLO, &hello_body(3)),
            "router protocol: protocol version 3 (this router speaks 4)",
        );
        // The 9-byte frame that used to panic the router: magic only.
        refused(
            b"\x01\x04\0\0\0CDTP",
            "router protocol: decoding hello: truncated",
        );
        // Every cut of a valid Hello, and of a valid one-activity Claim.
        let body = hello_body(wire::VERSION);
        for cut in 0..body.len() {
            refused(
                &frame(wire::FRAME_HELLO, &body[..cut]),
                "router protocol: decoding hello",
            );
        }
        let body = claim_body();
        for cut in 0..body.len() {
            let bytes = after_hello(wire::FRAME_CLAIM, &body[..cut]);
            refused(&bytes, "router protocol: decoding claim");
        }
        // A spill directory longer than the frame, or not UTF-8, is
        // refused; so is a worker count out of range.
        let body = hello_body(wire::VERSION);
        // The directory's length word, before its bytes and the
        // one-byte `None` of `max_seal_lag`.
        let dir_len = body.len() - 1 - hello_spill_dir().len() - 4;
        let mut lying = body.clone();
        lying[dir_len..dir_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refused(
            &frame(wire::FRAME_HELLO, &lying),
            "router protocol: decoding hello: truncated",
        );
        let mut garbled = body.clone();
        garbled[dir_len + 4] = 0xff;
        refused(
            &frame(wire::FRAME_HELLO, &garbled),
            "router protocol: decoding hello: string is not UTF-8",
        );
        let mut idle = body;
        idle[12..16].copy_from_slice(&0u32.to_le_bytes());
        refused(
            &frame(wire::FRAME_HELLO, &idle),
            "router protocol: worker count 0 out of range",
        );
        // Counts the frame cannot hold size nothing: a Claim of
        // u32::MAX messages.
        let mut lying = claim_body();
        lying[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        refused(
            &after_hello(wire::FRAME_CLAIM, &lying),
            "router protocol: decoding claim: count 4294967295 exceeds",
        );
        // A string id no earlier frame defined; an activity type byte
        // that names no type (it must not decode as RECEIVE).
        let mut unknown_id = claim_body();
        unknown_id[18..22].copy_from_slice(&5u32.to_le_bytes());
        refused(
            &after_hello(wire::FRAME_CLAIM, &unknown_id),
            "router protocol: decoding claim: unknown string id 5",
        );
        let mut unknown_ty = claim_body();
        unknown_ty[9] = 9;
        refused(
            &after_hello(wire::FRAME_CLAIM, &unknown_ty),
            "router protocol: decoding claim: unknown activity type code 9",
        );
        // The accepted Hellos created the spill directory; their workers'
        // spill files are gone.
        std::fs::remove_dir(hello_spill_dir()).unwrap();
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
        let act = |ts: u64| ShardMsg::Act(activity(ts));
        let ctx = activity(0).ctx;
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
            let mut d = Dec::new(bytes);
            let got = wire::get_msg(&mut d, &mut dec);
            d.finish().unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        let mut d = Dec::new(&forget);
        match wire::get_msg(&mut d, &mut dec) {
            ShardMsg::ForgetCtx(c) => assert_eq!(c, ctx),
            other => panic!("wrong msg: {other:?}"),
        }
        d.finish().unwrap();
    }

    #[test]
    fn worker_config_survives_the_wire_exhaustively() {
        // Every field away from its default, so a field the list drops
        // or two it swaps cannot pass unnoticed.
        let cfg = WorkerConfig {
            engine: crate::engine::EngineOptions {
                merge_segments: false,
                thread_reuse_check: false,
            },
            mem_sample_every: 17,
            memory_budget: Some(1 << 22),
            spill_dir: Some(PathBuf::from("/tmp/pt-dist-wire-test")),
            max_seal_lag: Some(33),
        };
        let mut buf = Vec::new();
        cfg.put(&mut buf);
        let mut d = Dec::new(&buf);
        let back = WorkerConfig::get(&mut d);
        d.finish().unwrap();
        assert_eq!(back, cfg);
        // The coordinator ships what the worker reads of its config,
        // with the budget split across the workers.
        let mut full = CorrelatorConfig::new(access());
        full.engine = cfg.engine.clone();
        full.mem_sample_every = 17;
        full.memory_budget = Some(4 << 22);
        full.spill_dir = cfg.spill_dir.clone();
        full.max_seal_lag = Some(33);
        assert_eq!(worker_config(&full, 4), cfg);
    }

    #[test]
    fn output_frame_roundtrips() {
        let log = cluster_log(3);
        let mut out = sharded(CorrelatorConfig::new(access()), 2, Source::text(&log));
        // A real run leaves most counters at 0, where two swapped
        // fields would pass unnoticed; noise samples share a table.
        out.metrics = crate::metrics::tests::every_field_distinct();
        out.noise_samples = vec![activity(1), activity(2)];
        let mut buf = Vec::new();
        put_u32(&mut buf, 5);
        out.put(&mut buf);
        let mut d = Dec::new(&buf);
        let (worker, back) = (d.u32(), CorrelationOutput::get(&mut d));
        d.finish().unwrap();
        assert_eq!(worker, 5);
        assert_eq!(format!("{out:?}"), format!("{back:?}"));
        // A decoded CAG shares its hostname/program strings, as the
        // original did: one allocation per distinct name, not per vertex.
        for cag in &back.cags {
            let first = &cag.vertices[0].ctx;
            for v in cag.vertices.iter().map(|v| &v.ctx) {
                assert!(v.hostname != first.hostname || Arc::ptr_eq(&v.hostname, &first.hostname));
                assert!(v.program != first.program || Arc::ptr_eq(&v.program, &first.program));
            }
        }
        // Every cut of the frame is refused, never a panic.
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            d.u32();
            CorrelationOutput::get(&mut d);
            assert!(d.finish().is_err(), "cut={cut}");
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
