//! `pt` — the PreciseTracer command-line tool.
//!
//! Mirrors the workflow of the paper's tool on real or simulated
//! TCP_TRACE logs:
//!
//! ```text
//! pt simulate --clients 100 --seconds 30 [--noise] [--seed N] --out trace.log
//! pt correlate trace.log --port 80 --internal 10.0.0.1,10.0.0.2,10.0.0.3 [--window-ms 10]
//! pt patterns  trace.log --port 80 --internal ... [--dot pattern.dot]
//! pt diff      normal.log abnormal.log --port 80 --internal ...
//! pt convert   trace.log trace.ptbin      (and back: pt convert trace.ptbin out.log)
//! ```
//!
//! `simulate` writes a log from the built-in RUBiS model; the other
//! commands work on any log in the TCP_TRACE text format, including
//! ones captured by a real SystemTap probe. `convert` translates
//! losslessly between the text format and the PTBIN binary format
//! (direction is sniffed from the input's magic bytes); `correlate`,
//! `patterns` and `diff` accept either form transparently.

use std::io::Write as _;
use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use precisetracer::prelude::*;
use precisetracer::tracer::binfmt;
use precisetracer::tracer::dot::average_path_to_dot;
use precisetracer::tracer::serve::{
    ServeConfig, ServeKpi, ServeSink, Server, ShedPolicy, SourceKind, SourceSpec,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "simulate" => simulate(rest),
        "correlate" => correlate_cmd(rest),
        "patterns" => patterns_cmd(rest),
        "diff" => diff_cmd(rest),
        "convert" => convert_cmd(rest),
        "serve" => serve_cmd(rest),
        "router" => router_cmd(rest),
        "--help" | "-h" | "help" => help(),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pt: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `println!` for a command's output. A closed stdout (its reader went
/// away, as `| head` does) ends the command quietly with exit 0; any
/// other write error is the command's error.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_failed)?
    };
}

fn stdout_failed(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    format!("stdout: {e}")
}

fn help() -> Result<(), String> {
    outln!("{USAGE}");
    Ok(())
}

const USAGE: &str = "\
pt — precise request tracing for multi-tier services of black boxes

USAGE:
  pt simulate  --clients N [--seconds S] [--seed N] [--noise] [--skew-ms N]
               [--web-replicas N] [--app-replicas N] [--db-replicas N]
               [--lb-policy rr|least-conn] [--pool N] [--loss P]
               [--capture-drop P] [--mix browse|bulk|default] --out FILE
  pt correlate FILE --port P --internal IP[,IP...] [CORRELATION OPTIONS]
  pt patterns  FILE --port P --internal IP[,IP...] [CORRELATION OPTIONS] [--dot FILE]
  pt diff      BASELINE_FILE CURRENT_FILE --port P --internal IP[,IP...] [CORRELATION OPTIONS]
  pt convert   IN_FILE OUT_FILE [--ingest-threads N]
  pt serve     SOURCE [SOURCE...] --port P --internal IP[,IP...] [SERVE OPTIONS]
  pt router    --stdio | --listen HOST:PORT

SIMULATION OPTIONS:
  --web-replicas N     web frontends behind the client load balancer
  --app-replicas N     JBoss replicas behind the web tier's balancer
  --db-replicas N      MySQL replicas behind the app tier's balancer
  --lb-policy P        rr (round-robin, default) or least-conn, applied
                       to every replicated tier
  --pool N             multiplex backend requests over N persistent
                       web->app connections shared across httpd workers
  --loss P             per-segment loss probability (TCP retransmit with
                       duplicate byte ranges; sniffer marks them retrans)
  --capture-drop P     switch to the sniffer-based TCP_TRACE v2 capture
                       lane (seq= stream offsets on every record,
                       per-message receive reassembly) and miss each
                       wire segment with probability P (0 = lossless
                       v2 capture)
  --mix NAME           workload mix: browse (read-only), bulk (large
                       multi-segment messages, stresses partial-capture
                       reassembly) or default (~15% writes)

CORRELATION OPTIONS:
  --window-ms W        static sliding window in milliseconds (default 10)
  --adaptive-window    derive the window online from per-channel latency
                       quantiles (p99 x 4, clamped to [1ms, 10s]);
                       overrides --window-ms
  --memory-budget B    resident-memory budget in bytes (suffixes k/m/g);
                       cold unfinished paths, orphan chains and dedup
                       state are spilled to disk beyond it and faulted
                       back on touch — output stays byte-identical to
                       an unbounded run
  --spill-dir DIR      directory for the spill file (default: the
                       system temp dir); the file is unlinked when the
                       run ends
  --shards N           correlate through the sharded parallel pipeline
                       with N worker threads (0 = one per CPU core);
                       output is in canonical root order, identical for
                       every shard count (unless --max-seal-lag is set)
  --max-seal-lag N     force-seal finished paths after N further
                       candidates so streaming emission meets an SLO
                       even under keep-alive lulls; with --shards the
                       bound is per-shard, so results may vary with the
                       shard count (still deterministic for a fixed N)
  --ingest-threads N   parse the log with N parallel chunk scanners
                       (0 = one per CPU core, default 1); output is
                       byte-identical to single-threaded parsing in
                       every mode — the option only changes speed
  --routers N          correlate through the distributed pipeline: N
                       router processes, each hosting a block of shard
                       workers; output is byte-identical to --shards
                       with the same total worker count. Without
                       --router-addr the routers are spawned children
                       of this binary (socketpair transport)
  --workers-per-router N
                       shard workers per router process (default 1, so
                       --routers N matches --shards N)
  --router-addr A,B,.. connect to already-running `pt router --listen`
                       peers over TCP instead of spawning children;
                       one host:port per router, in router order
  --stats              (correlate) additionally print the ingest dedup
                       counters: retrans_dropped, seq_dedup_ranges and
                       v2_records — v1 marker vs v2 range behavior at
                       a glance — and the process's peak_rss

SERVE OPTIONS:
  --format F           auto (default: sniff PTBIN magic per source),
                       text, or ptbin — applies to every source
  --idle-end-ms N      a file source counts as ended after N ms of no
                       growth (0 = follow forever, the default; FIFO
                       sources always end at writer hang-up)
  --shed P             block (default: lossless, tailers wait for the
                       correlator) or drop (drop the newest decoded
                       batch under sustained queue pressure, counted)
  --queue N            bounded queue depth in decoded batches (default 64)
  --kpi-every N        print a KPI line every N ingested records
                       (default 50000; 0 = only the final stats line)
  --poll-ms N          tail poll cadence for quiet files (default 20)
  --print-paths        print one line per sealed causal path
  plus the correlation options --window-ms, --adaptive-window,
  --memory-budget, --spill-dir, --shards and --max-seal-lag. Without
  --shards the daemon runs the streaming engine and emits each path as
  it seals; with --shards it correlates online but emits paths at the
  final drain (the merge is global). On SIGINT/SIGTERM the daemon stops
  tailing, drains what is sealable, prints the final stats line and
  exits 0.

Flags may appear before or after positional arguments; unknown flags
are rejected. The log format is the paper's TCP_TRACE text format:
  timestamp hostname program pid tid SEND|RECEIVE sip:sport-dip:dport size

`convert` translates between TCP_TRACE text and the PTBIN binary
format, both directions, sniffing the direction from IN_FILE's magic
bytes; the analysis commands accept either format transparently.";

/// A uniformly parsed argument list: positionals in order, `--name
/// value` options, and boolean switches — position-independent, with
/// unknown flags rejected up front.
struct ParsedArgs {
    positionals: Vec<String>,
    options: std::collections::HashMap<&'static str, String>,
    switches: std::collections::HashSet<&'static str>,
}

impl ParsedArgs {
    /// Parses `args` against the allowed option/switch names.
    fn parse(
        args: &[String],
        value_opts: &[&'static str],
        bool_opts: &[&'static str],
    ) -> Result<ParsedArgs, String> {
        let mut parsed = ParsedArgs {
            positionals: Vec::new(),
            options: std::collections::HashMap::new(),
            switches: std::collections::HashSet::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = value_opts.iter().find(|n| **n == a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("missing value for {name}"))?;
                parsed.options.insert(name, v.clone());
            } else if let Some(name) = bool_opts.iter().find(|n| **n == a.as_str()) {
                parsed.switches.insert(name);
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a:?}\n{USAGE}"));
            } else {
                parsed.positionals.push(a.clone());
            }
        }
        Ok(parsed)
    }

    fn opt(&self, name: &str) -> Option<&String> {
        self.options.get(name)
    }

    fn flag(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    fn positional(&self, n: usize) -> Option<&String> {
        self.positionals.get(n)
    }

    /// Parses option `name` with `parse::<T>`, reporting it by name.
    fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad {name}")),
        }
    }
}

/// The correlation options every correlating subcommand (`correlate`,
/// `patterns`, `diff`, `serve`) takes, all read by [`correlator_from`].
/// A subcommand adds its own: `--ingest-threads` for the file
/// commands, `--dot` for `patterns` and `--stats` for `correlate`, so
/// the others reject those instead of silently ignoring them.
const CORRELATION_VALUE_OPTS: &[&str] = &[
    "--port",
    "--internal",
    "--window-ms",
    "--memory-budget",
    "--spill-dir",
    "--shards",
    "--routers",
    "--workers-per-router",
    "--router-addr",
    "--max-seal-lag",
];
const CORRELATION_BOOL_OPTS: &[&str] = &["--adaptive-window"];

/// Parses a correlating subcommand's arguments: the correlation options
/// plus the subcommand's own.
fn parse_correlating(
    raw: &[String],
    value_opts: &[&'static str],
    bool_opts: &[&'static str],
) -> Result<ParsedArgs, String> {
    ParsedArgs::parse(
        raw,
        &[CORRELATION_VALUE_OPTS, value_opts].concat(),
        &[CORRELATION_BOOL_OPTS, bool_opts].concat(),
    )
}

fn access_from(args: &ParsedArgs) -> Result<AccessPointSpec, String> {
    let port: u16 = args.parse_opt("--port")?.ok_or("missing --port")?;
    let internal = args.opt("--internal").ok_or("missing --internal")?;
    let ips: Result<Vec<Ipv4Addr>, _> = internal.split(',').map(str::parse).collect();
    let ips = ips.map_err(|_| "bad --internal list")?;
    Ok(AccessPointSpec::new([port], ips))
}

/// Parses a byte count with optional k/m/g suffix (powers of 1024).
fn parse_bytes(s: &str) -> Result<usize, String> {
    let s = s.trim().to_ascii_lowercase();
    let (digits, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match s.as_bytes()[s.len() - 1] {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
        None => (s.as_str(), 1),
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("bad --memory-budget {s:?}"))
}

/// Builds the pipeline configuration from the correlation options (and
/// `--ingest-threads`, 1 when the subcommand has none), validating
/// every flag by name before anything touches the filesystem. Without
/// `--shards` or `--routers` the mode is batch.
fn correlator_from(args: &ParsedArgs) -> Result<PipelineConfig, String> {
    let access = access_from(args)?;
    let window = Nanos::from_millis(args.parse_opt("--window-ms")?.unwrap_or(10));
    let mut config = CorrelatorConfig::new(access).with_window(window);
    if args.flag("--adaptive-window") {
        config = config.with_adaptive_window();
    }
    if let Some(budget) = args.opt("--memory-budget") {
        config = config.with_memory_budget(parse_bytes(budget)?);
    }
    if let Some(dir) = args.opt("--spill-dir") {
        config = config.with_spill_dir(dir);
    }
    if let Some(lag) = args.parse_opt::<u64>("--max-seal-lag")? {
        config = config.with_max_seal_lag(lag);
    }
    let shards = args.parse_opt::<usize>("--shards")?;
    let (mode, router_transport) = mode_from(args, shards)?;
    if mode != Mode::Batch && (args.flag("--adaptive-window") || args.opt("--window-ms").is_some())
    {
        // The sharded router sequences by causal claims, not by a
        // sliding time window; workers deliver directly to engines.
        eprintln!(
            "note: --shards/--routers do not use the sliding window; \
             --window-ms/--adaptive-window only affect single-instance mode"
        );
    }
    Ok(PipelineConfig {
        correlator: config,
        mode,
        // 1 = single-threaded parse (default); 0 = one per core.
        ingest_threads: args.parse_opt::<usize>("--ingest-threads")?.unwrap_or(1),
        router_transport,
    })
}

/// Correlates one log file, text or PTBIN, in every mode through the
/// one facade: zero-copy ingest, canonical root order.
fn correlate_file(path: &str, config: &PipelineConfig) -> Result<CorrelationOutput, String> {
    let pipeline = Pipeline::new(config.clone()).map_err(|e| e.to_string())?;
    let source = if sniff_ptbin(path)? {
        Source::binary_path(path)
    } else {
        Source::path(path)
    };
    pipeline.run(source).map_err(|e| format!("{path}: {e}"))
}

/// Resolves the correlation mode from `--shards` / `--routers` /
/// `--workers-per-router` / `--router-addr`. Without `--router-addr`
/// the distributed transport spawns `pt router --stdio` children of
/// this very binary over socketpairs; with it, the coordinator
/// connects to already-running `pt router --listen` peers.
fn mode_from(args: &ParsedArgs, shards: Option<usize>) -> Result<(Mode, RouterTransport), String> {
    let routers = args.parse_opt::<usize>("--routers")?;
    let Some(routers) = routers else {
        for flag in ["--workers-per-router", "--router-addr"] {
            if args.opt(flag).is_some() {
                return Err(format!("{flag} requires --routers"));
            }
        }
        let mode = match shards {
            Some(n) => Mode::Sharded(n),
            None => Mode::Batch,
        };
        return Ok((mode, RouterTransport::default()));
    };
    if shards.is_some() {
        return Err("--routers conflicts with --shards (pick one pipeline)".into());
    }
    let workers_per_router = args
        .parse_opt::<usize>("--workers-per-router")?
        .unwrap_or(1);
    let transport = match args.opt("--router-addr") {
        Some(list) => RouterTransport::Connect {
            addrs: list.split(',').map(str::trim).map(String::from).collect(),
        },
        None => RouterTransport::Spawn {
            exe: std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?,
        },
    };
    Ok((
        Mode::Distributed {
            routers,
            workers_per_router,
        },
        transport,
    ))
}

/// Reads just the first magic-length bytes of `path` to decide whether
/// it is a PTBIN stream. A file shorter than the magic is treated as
/// text (and will fail later with a text-parse error if it is neither).
fn sniff_ptbin(path: &str) -> Result<bool, String> {
    use std::io::Read as _;
    let mut f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut magic = [0u8; 4];
    match f.read_exact(&mut magic) {
        Ok(()) => Ok(binfmt::is_ptbin(&magic)),
        Err(_) => Ok(false),
    }
}

/// `pt convert IN OUT`: translates TCP_TRACE text to PTBIN or PTBIN
/// back to text, sniffing the direction from the input's magic bytes.
/// Text output streams through a buffered writer in record-sized
/// chunks; binary output is assembled record-by-record by the interning
/// encoder.
fn convert_cmd(raw: &[String]) -> Result<(), String> {
    let args = ParsedArgs::parse(raw, &["--ingest-threads"], &[])?;
    let in_path = args.positional(0).ok_or("missing input file")?;
    let out_path = args.positional(1).ok_or("missing output file")?;
    let threads = args.parse_opt::<usize>("--ingest-threads")?.unwrap_or(1);
    if sniff_ptbin(in_path)? {
        // Binary -> text: stream one rendered line per record.
        let buf = binfmt::read_binary_file(in_path).map_err(|e| format!("{in_path}: {e}"))?;
        let reader = binfmt::Reader::new(&buf).map_err(|e| format!("{in_path}: {e}"))?;
        let file = std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        let mut n = 0usize;
        for rec in reader.iter() {
            let rec = rec.map_err(|e| format!("{in_path}: {e}"))?;
            writeln!(w, "{rec}").map_err(|e| format!("{out_path}: {e}"))?;
            n += 1;
        }
        w.flush().map_err(|e| format!("{out_path}: {e}"))?;
        outln!("wrote {n} records to {out_path} (TCP_TRACE text)");
    } else {
        // Text -> binary: parallel borrowed parse, then one interning
        // encode pass (single-threaded parse streams record-by-record).
        let text = std::fs::read_to_string(in_path).map_err(|e| format!("{in_path}: {e}"))?;
        let (bin, n) = if threads == 1 {
            let mut enc = binfmt::Encoder::new();
            for rec in parse_log_iter(&text) {
                let rec = rec.map_err(|e| format!("{in_path}: {e}"))?;
                enc.push(&rec).map_err(|e| format!("{in_path}: {e}"))?;
            }
            let n = enc.record_count();
            (enc.finish(), n)
        } else {
            let refs =
                parse_refs_parallel(&text, threads).map_err(|e| format!("{in_path}: {e}"))?;
            let n = refs.len() as u64;
            (
                binfmt::encode_refs(&refs).map_err(|e| format!("{in_path}: {e}"))?,
                n,
            )
        };
        std::fs::write(out_path, &bin).map_err(|e| format!("{out_path}: {e}"))?;
        outln!(
            "wrote {n} records to {out_path} (PTBIN, {} bytes)",
            bin.len()
        );
    }
    Ok(())
}

/// `pt router`: run one distributed-correlation router peer. With
/// `--stdio` it speaks the claim wire protocol over stdin/stdout (the
/// coordinator's `--routers N` spawn transport); with `--listen ADDR`
/// it accepts coordinators over TCP, one session at a time, until
/// SIGINT/SIGTERM.
fn router_cmd(raw: &[String]) -> Result<(), String> {
    let args = ParsedArgs::parse(raw, &["--listen"], &["--stdio"])?;
    if !args.positionals.is_empty() {
        return Err("router takes no positional arguments".into());
    }
    match (args.flag("--stdio"), args.opt("--listen")) {
        (true, Some(_)) => Err("--stdio conflicts with --listen".into()),
        (true, None) => {
            let stdin = std::io::stdin().lock();
            let stdout = std::io::stdout().lock();
            serve_router(stdin, stdout).map_err(|e| e.to_string())
        }
        (false, Some(addr)) => {
            install_stop_handlers();
            let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
            // Non-blocking accept so a stop signal between sessions is
            // honored promptly.
            listener.set_nonblocking(true).map_err(|e| e.to_string())?;
            eprintln!(
                "router: listening on {}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            while !STOP.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        stream.set_nodelay(true).ok();
                        stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                        let reader = stream.try_clone().map_err(|e| e.to_string())?;
                        eprintln!("router: session from {peer}");
                        match serve_router(reader, stream) {
                            Ok(()) => eprintln!("router: session from {peer} drained"),
                            // A coordinator that vanishes must not
                            // take the router down with it.
                            Err(e) => eprintln!("router: session from {peer} failed: {e}"),
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    Err(e) => return Err(format!("accept: {e}")),
                }
            }
            Ok(())
        }
        (false, None) => Err("router needs --stdio or --listen ADDR".into()),
    }
}

/// Rises when SIGINT or SIGTERM is delivered; `serve` polls it.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGINT and SIGTERM via `signal(2)`. The
/// handler only stores to an atomic, which is async-signal-safe.
fn install_stop_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Prints KPI lines and (optionally) one line per sealed path.
struct StdoutSink {
    print_paths: bool,
}

/// Prints one line of `pt serve`'s stream. A closed stdout raises
/// [`STOP`], so the daemon still drains and removes its spill files.
fn serve_line(args: std::fmt::Arguments<'_>) {
    if writeln!(std::io::stdout(), "{args}").is_err() {
        STOP.store(true, Ordering::Relaxed);
    }
}

impl ServeSink for StdoutSink {
    fn on_sealed(&mut self, cags: &[Cag]) {
        if !self.print_paths {
            return;
        }
        for cag in cags {
            let lat = cag
                .total_latency()
                .map(|n| format!("{:.3}ms", n.as_nanos() as f64 / 1e6))
                .unwrap_or_else(|| "unfinished".into());
            serve_line(format_args!(
                "path: root_ts={} vertices={} latency={lat}",
                cag.root().ts.as_nanos(),
                cag.vertices.len()
            ));
        }
    }

    fn on_kpi(&mut self, k: &ServeKpi) {
        serve_line(format_args!(
            "kpi: records={} sealed={} patterns={} p99_seal_lag={} state={}B rss={}B shed={} \
             spilled={} spill_faults={}",
            k.records_in,
            k.cags_sealed,
            k.patterns,
            k.p99_seal_lag,
            k.state_bytes,
            k.rss_bytes.unwrap_or(0),
            k.shed_records,
            k.spilled,
            k.spill_faults
        ));
    }
}

fn serve_cmd(raw: &[String]) -> Result<(), String> {
    let args = parse_correlating(
        raw,
        &[
            "--format",
            "--idle-end-ms",
            "--shed",
            "--queue",
            "--kpi-every",
            "--poll-ms",
        ],
        &["--print-paths"],
    )?;
    if args.positionals.is_empty() {
        return Err("missing source file(s)".into());
    }
    let mut pipeline = correlator_from(&args)?;
    if pipeline.mode == Mode::Batch {
        // A shard-less, router-less daemon runs the streaming engine.
        pipeline.mode = Mode::Streaming;
    }
    let kind = match args.opt("--format").map(String::as_str) {
        None | Some("auto") => SourceKind::Auto,
        Some("text") => SourceKind::Text,
        Some("ptbin") => SourceKind::Ptbin,
        Some(other) => return Err(format!("bad --format {other:?} (auto|text|ptbin)")),
    };
    let sources = args
        .positionals
        .iter()
        .map(|p| SourceSpec {
            path: p.into(),
            kind,
        })
        .collect();
    let mut cfg = ServeConfig::new(pipeline, sources);
    if let Some(ms) = args.parse_opt::<u64>("--idle-end-ms")? {
        cfg.idle_end = (ms != 0).then(|| std::time::Duration::from_millis(ms));
    }
    cfg.shed = match args.opt("--shed").map(String::as_str) {
        None | Some("block") => ShedPolicy::Block,
        Some("drop") => ShedPolicy::Drop,
        Some(other) => return Err(format!("bad --shed {other:?} (block|drop)")),
    };
    if let Some(q) = args.parse_opt::<usize>("--queue")? {
        cfg.queue_batches = q;
    }
    if let Some(n) = args.parse_opt::<u64>("--kpi-every")? {
        cfg.kpi_every_records = n;
    }
    if let Some(ms) = args.parse_opt::<u64>("--poll-ms")? {
        cfg.poll_interval = std::time::Duration::from_millis(ms.max(1));
    }
    let server = Server::new(cfg).map_err(|e| e.to_string())?;
    install_stop_handlers();
    let mut sink = StdoutSink {
        print_paths: args.flag("--print-paths"),
    };
    let report = server.run(&mut sink, &STOP).map_err(|e| e.to_string())?;
    outln!("{}", report.stats_line());
    Ok(())
}

fn simulate(raw: &[String]) -> Result<(), String> {
    let args = ParsedArgs::parse(
        raw,
        &[
            "--clients",
            "--seconds",
            "--seed",
            "--skew-ms",
            "--out",
            "--web-replicas",
            "--app-replicas",
            "--db-replicas",
            "--lb-policy",
            "--pool",
            "--loss",
            "--capture-drop",
            "--mix",
        ],
        &["--noise"],
    )?;
    let clients: usize = args.parse_opt("--clients")?.ok_or("missing --clients")?;
    let seconds: u64 = args.parse_opt("--seconds")?.unwrap_or(30);
    let out_path = args.opt("--out").ok_or("missing --out")?.clone();
    let mut cfg = rubis::ExperimentConfig::quick(clients, seconds);
    if let Some(seed) = args.parse_opt("--seed")? {
        cfg.seed = seed;
    }
    match args.opt("--mix").map(String::as_str) {
        None => {}
        Some("browse") => cfg.mix = rubis::Mix::browse_only(),
        Some("bulk") => cfg.mix = rubis::Mix::bulk_browse(),
        Some("default") => cfg.mix = rubis::Mix::default_mix(),
        Some(other) => return Err(format!("bad --mix {other:?} (browse|bulk|default)")),
    }
    if let Some(skew) = args.parse_opt("--skew-ms")? {
        cfg.spec = cfg.spec.with_skew_ms(skew);
    }
    let lb = match args.opt("--lb-policy").map(String::as_str) {
        None | Some("rr") => rubis::LbPolicy::RoundRobin,
        Some("least-conn") => rubis::LbPolicy::LeastConnections,
        Some(other) => return Err(format!("bad --lb-policy {other:?} (rr|least-conn)")),
    };
    for (flag, tier) in [
        ("--web-replicas", 0usize),
        ("--app-replicas", 1),
        ("--db-replicas", 2),
    ] {
        if let Some(n) = args.parse_opt::<usize>(flag)? {
            if n == 0 {
                return Err(format!("bad {flag}: a tier needs at least one node"));
            }
            if n > rubis::MAX_REPLICAS {
                return Err(format!(
                    "bad {flag}: the replica subnet scheme supports at most {} nodes per tier",
                    rubis::MAX_REPLICAS
                ));
            }
            cfg.spec = cfg.spec.with_replicas(tier, n, lb);
        }
    }
    if let Some(conns) = args.parse_opt::<usize>("--pool")? {
        if conns == 0 {
            return Err("bad --pool: a pool needs at least one connection".into());
        }
        cfg.spec = cfg.spec.with_pool(conns);
    }
    if let Some(loss) = args.parse_opt::<f64>("--loss")? {
        if !(0.0..1.0).contains(&loss) {
            return Err("bad --loss: probability must be in [0, 1)".into());
        }
        cfg.spec = cfg.spec.with_loss(loss);
    }
    if let Some(drop) = args.parse_opt::<f64>("--capture-drop")? {
        if !(0.0..1.0).contains(&drop) {
            return Err("bad --capture-drop: probability must be in [0, 1)".into());
        }
        cfg.spec = cfg.spec.with_sniffer_capture(drop);
    }
    if args.flag("--noise") {
        cfg.noise = rubis::NoiseSpec {
            ssh_msgs_per_sec: 40.0,
            mysql_msgs_per_sec: 150.0,
        };
    }
    let out = rubis::run(cfg);
    let mut text = String::new();
    for r in &out.records {
        text.push_str(&r.to_string());
        text.push('\n');
    }
    std::fs::write(&out_path, text).map_err(|e| format!("{out_path}: {e}"))?;
    let internal: Vec<String> = out
        .spec
        .internal_ips()
        .iter()
        .map(|ip| ip.to_string())
        .collect();
    outln!(
        "wrote {} records to {out_path} ({} requests completed, frontend port {}, internal {})",
        out.records.len(),
        out.service.completed,
        out.spec.web.port,
        internal.join(","),
    );
    if out.capture_dropped > 0 {
        outln!(
            "partial capture: the sniffer missed {} records entirely",
            out.capture_dropped
        );
    }
    Ok(())
}

/// The process's peak resident set size (`VmHWM` in
/// `/proc/self/status`; `None` elsewhere or on any read/parse failure).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn correlate_cmd(raw: &[String]) -> Result<(), String> {
    let args = parse_correlating(raw, &["--ingest-threads"], &["--stats"])?;
    let path = args.positional(0).ok_or("missing log file")?;
    let out = correlate_file(path, &correlator_from(&args)?)?;
    outln!(
        "correlated {} causal paths ({} deformed/unfinished)",
        out.cags.len(),
        out.unfinished.len()
    );
    outln!("{}", out.metrics.summary());
    if args.flag("--stats") {
        // Ingest counters: how duplicate byte ranges were eliminated
        // (v1 `retrans` marker vs v2 `seq=` range arithmetic), and the
        // process's peak resident set so far (0 where unknown).
        outln!(
            "ingest: retrans_dropped={} seq_dedup_ranges={} v2_records={} peak_rss={}B",
            out.metrics.retrans_dropped,
            out.metrics.seq_dedup_ranges,
            out.metrics.v2_records,
            peak_rss_bytes().unwrap_or(0)
        );
    }
    if out.metrics.orphan_dropped > 0 {
        outln!(
            "router: dropped {} orphan-chain records reader-side",
            out.metrics.orphan_dropped
        );
    }
    if out.metrics.ranker.rtt_samples > 0 {
        outln!(
            "adaptive window: {} updates over {} rtt samples",
            out.metrics.ranker.window_updates,
            out.metrics.ranker.rtt_samples
        );
    }
    if out.metrics.engine.spilled_cags > 0 || out.metrics.spilled_dedup_entries > 0 {
        outln!(
            "spill: cags={} orphans={} dedup={} faults={} bytes={} \
             pages_written={} pages_read={} queue_hits={}",
            out.metrics.engine.spilled_cags,
            out.metrics.engine.spilled_orphans,
            out.metrics.spilled_dedup_entries,
            out.metrics.engine.spill_faults + out.metrics.spill_dedup_faults,
            out.metrics.engine.spilled_bytes,
            out.metrics.spill_pages_written,
            out.metrics.spill_pages_read,
            out.metrics.spill_queue_hits
        );
    }
    if !out.noise_samples.is_empty() {
        outln!("sample noise discards:");
        for a in out.noise_samples.iter().take(5) {
            outln!("  {a}");
        }
    }
    let latencies: Vec<f64> = out
        .cags
        .iter()
        .filter_map(|c| c.total_latency())
        .map(|n| n.as_nanos() as f64 / 1e6)
        .collect();
    if !latencies.is_empty() {
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        outln!(
            "mean request latency: {mean:.2} ms over {} paths",
            latencies.len()
        );
    }
    Ok(())
}

fn patterns_cmd(raw: &[String]) -> Result<(), String> {
    let args = parse_correlating(raw, &["--ingest-threads", "--dot"], &[])?;
    let path = args.positional(0).ok_or("missing log file")?;
    let out = correlate_file(path, &correlator_from(&args)?)?;
    let agg = PatternAggregator::from_cags(&out.cags);
    outln!("{} patterns over {} paths:", agg.len(), out.cags.len());
    for p in agg.average_paths() {
        outln!(
            "\npattern {} — {} requests, mean total {}",
            p.key,
            p.count,
            p.mean_total
        );
        for (c, pct) in &p.percentages {
            outln!("  {:<22} {:>6.1}%", c.to_string(), pct);
        }
    }
    if let Some(dot_path) = args.opt("--dot") {
        let paths = agg.average_paths();
        let dom = paths.first().ok_or("no pattern to render")?;
        std::fs::write(dot_path, average_path_to_dot(dom))
            .map_err(|e| format!("{dot_path}: {e}"))?;
        outln!("\nwrote dominant average path to {dot_path}");
    }
    Ok(())
}

fn diff_cmd(raw: &[String]) -> Result<(), String> {
    let args = parse_correlating(raw, &["--ingest-threads"], &[])?;
    let base_path = args.positional(0).ok_or("missing baseline log")?;
    let cur_path = args.positional(1).ok_or("missing current log")?;
    let config = correlator_from(&args)?;
    let base = correlate_file(base_path, &config)?;
    let cur = correlate_file(cur_path, &config)?;
    let b = BreakdownReport::dominant(&base.cags).ok_or("no patterns in baseline")?;
    let c = BreakdownReport::dominant(&cur.cags).ok_or("no patterns in current")?;
    let diff = DiffReport::between(&b, &c);
    write!(std::io::stdout(), "{}", diff.format_table()).map_err(stdout_failed)?;
    match Diagnosis::localize(&diff, 8.0) {
        Some(d) => outln!("\ndiagnosis: {} — {}", d.suspect, d.explanation),
        None => outln!("\ndiagnosis: no significant change"),
    }
    Ok(())
}
