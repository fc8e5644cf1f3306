//! The end-to-end legs: each drives the public `Pipeline` / `Server`
//! API the way a user would, times that call alone, and has its output
//! scored by the oracle afterwards.

use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use tracer_core::prelude::*;
use tracer_core::{CorrelatorMetrics, ServeKpi};

use crate::generator::{generate, GenReport, Planned, Schedule};
use crate::oracle::{
    end_key, fingerprint, fnv64, output_digest, render_fingerprint, Oracle, Score,
};
use crate::workload::{Corpus, Size, Workload};
use crate::Res;

/// Sliding window of the offline legs.
pub const OFFLINE_WINDOW: Nanos = Nanos::from_millis(10);
/// Sliding window of the serve legs (the repository's soak value).
pub const SERVE_WINDOW: Nanos = Nanos::from_millis(500);
/// Fixed offered rate of the paced serve leg, records per second.
pub const PACED_RATE: f64 = 100_000.0;
/// A generator later than this at its 99th percentile did not offer the
/// schedule it claims; the paced run is then invalid.
pub const MAX_GEN_LATE: Duration = Duration::from_millis(5);
/// Quiet period after which a tailed file counts as ended. It is part
/// of every serve run and is subtracted from the drain leg's wall.
const IDLE_END: Duration = Duration::from_millis(300);
/// Lag is sampled over the requests whose END record is due in this
/// leading share of the schedule. A finite corpus releases its last
/// few seconds of paths only at the final drain, one idle-end period
/// after the input stops — an end a continuous stream never has, and
/// at the benchmark's corpus size it would be more than the last
/// hundredth of the paths, so it would be all the p99 shows.
const LAG_SHARE: f64 = 0.75;
/// Poll interval of the daemon's tailers and main loop.
pub const SERVE_POLL: Duration = Duration::from_millis(5);
const KPI_EVERY: u64 = 2_000;

/// What a workload run needs at hand for every leg.
pub struct Bench<'a> {
    pub workload: &'static Workload,
    pub size: Size,
    pub corpus: &'a Corpus,
    pub oracle: Oracle,
    /// Worker and ingest threads of the parallel legs: `min(nproc, 4)`.
    pub p: usize,
    /// Scratch directory of this run (corpus files, live serve files,
    /// spill files).
    pub dir: PathBuf,
    /// Digests of the tagged batch reference at the two windows, and
    /// how many paths it finds at the offline one.
    pub reference_offline: u64,
    pub reference_serve: u64,
    pub reference_paths: u64,
    pub schedule: Schedule,
    pub tally: Tally,
}

/// Requests attempted and failed over every scored repetition of one
/// leg.
#[derive(Debug, Default, Clone)]
pub struct LegTally {
    pub attempted: u64,
    pub failed: u64,
    /// Paths emitted that match no logged request.
    pub false_paths: u64,
    /// Whether any repetition's output differed from the reference.
    pub diverged: bool,
    /// The first emitted path the oracle did not know, rendered.
    pub unknown_path: Option<String>,
}

/// The per-leg tallies of a run, by the metric the leg feeds.
#[derive(Debug, Default)]
pub struct Tally {
    pub legs: BTreeMap<&'static str, LegTally>,
    /// Set when a leg did not ingest every record of the corpus: its
    /// counts then describe some other input, and the run cannot be
    /// trusted. Paths traced wrongly are not this. They are counted as
    /// failed and priced into goodput whichever leg they come from; on
    /// the benchmark's corpora no leg gets any wrong today, so a
    /// non-zero `failed` is a regression in itself.
    pub broken: bool,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.legs.values().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.legs.values().map(|t| t.failed).sum()
    }

    pub fn diverged(&self) -> Vec<&'static str> {
        let legs = self.legs.iter().filter(|(_, t)| t.diverged);
        legs.map(|(name, _)| *name).collect()
    }
}

impl<'a> Bench<'a> {
    /// Runs the tagged batch reference at both windows and teaches the
    /// oracle its correct paths. Fills in the manifest fields only a
    /// run can know.
    pub fn new(
        workload: &'static Workload,
        size: Size,
        corpus: &'a mut Corpus,
        p: usize,
        dir: &Path,
    ) -> Res<Bench<'a>> {
        let mut oracle = Oracle::new(&corpus.truth);
        let mut digests = [0u64; 2];
        let mut reference_paths = 0;
        for (digest, window) in digests.iter_mut().zip([OFFLINE_WINDOW, SERVE_WINDOW]) {
            let cfg = PipelineConfig::new(corpus.access.clone()).with_window(window);
            let out = Pipeline::new(cfg)?.run(Source::records(corpus.records.clone()))?;
            let acc = corpus.truth.evaluate(&out.cags);
            *digest = oracle.learn(&out);
            let own = oracle.score_output(&out);
            if (own.correct, own.false_paths) != (acc.correct_paths, acc.false_paths) {
                return Err(format!(
                    "oracle disagrees with TruthCollector::evaluate: {own:?} vs {acc:?}"
                )
                .into());
            }
            if window == OFFLINE_WINDOW {
                reference_paths = out.cags.len() as u64;
            }
            corpus.manifest.logged_requests = acc.logged_requests;
            corpus.manifest.duplicate_ranges = out.metrics.retrans_dropped;
            corpus.manifest.seq_gaps = out.metrics.seq_gaps;
        }
        let ts: Vec<u64> = corpus.records.iter().map(|r| r.ts.0).collect();
        Ok(Bench {
            workload,
            size,
            corpus,
            oracle,
            p,
            dir: dir.to_path_buf(),
            reference_offline: digests[0],
            reference_serve: digests[1],
            reference_paths,
            schedule: Schedule::new(&ts, PACED_RATE),
            tally: Tally::default(),
        })
    }

    pub fn logged(&self) -> u64 {
        self.oracle.logged()
    }

    /// Batch mode at the offline window: what every offline leg and
    /// layer starts from.
    pub fn offline_config(&self) -> PipelineConfig {
        PipelineConfig::new(self.corpus.access.clone()).with_window(OFFLINE_WINDOW)
    }

    /// Books one scored repetition; returns its correct share.
    fn book(&mut self, leg: &'static str, score: Score, as_reference: bool) -> f64 {
        let logged = self.logged();
        let t = self.tally.legs.entry(leg).or_default();
        t.attempted += logged;
        t.failed += logged - score.correct.min(logged);
        t.false_paths += score.false_paths;
        t.diverged |= !as_reference;
        score.correct as f64 / logged.max(1) as f64
    }
}

/// The offline legs, in the order one round runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// Text file → `Mode::Batch`, one ingest thread: the
    /// single-threaded baseline.
    Batch,
    /// Text file → `Mode::Sharded(P)`, `P` ingest threads.
    Sharded,
    /// PTBIN file → the same configuration.
    ShardedPtbin,
    /// Text file → two spawned router processes over socketpairs.
    Dist,
    /// The batch leg under the workload's memory budget (spill tier).
    Budget,
    /// Text file → PTBIN file: the write side of ingest.
    Convert,
}

impl Offline {
    pub const ALL: [Offline; 6] = [
        Offline::Batch,
        Offline::Sharded,
        Offline::ShardedPtbin,
        Offline::Dist,
        Offline::Budget,
        Offline::Convert,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Offline::Batch => "batch_rec_per_s",
            Offline::Sharded => "sharded_rec_per_s",
            Offline::ShardedPtbin => "sharded_ptbin_rec_per_s",
            Offline::Dist => "dist_rec_per_s",
            Offline::Budget => "budget_rec_per_s",
            Offline::Convert => "convert_rec_per_s",
        }
    }
}

/// One scored repetition of a pipeline leg.
pub struct Rep {
    /// Seconds inside the timed call.
    pub wall_s: f64,
    /// `records / wall_s × correct share`.
    pub goodput: f64,
    /// The run's own counters (`None` for the convert leg).
    pub metrics: Option<CorrelatorMetrics>,
}

impl Bench<'_> {
    pub fn config_of(&self, leg: Offline) -> PipelineConfig {
        let base = self.offline_config();
        match leg {
            Offline::Batch | Offline::Convert => base,
            Offline::Sharded | Offline::ShardedPtbin => base
                .with_mode(Mode::Sharded(self.p))
                .with_ingest_threads(self.p),
            Offline::Dist => base
                .with_mode(Mode::Distributed {
                    routers: 2,
                    workers_per_router: (self.p / 2).max(1),
                })
                .with_ingest_threads(self.p)
                .with_router_transport(RouterTransport::Spawn {
                    exe: std::env::current_exe().expect("own executable path"),
                }),
            Offline::Budget => base
                .with_memory_budget(self.workload.budget_bytes(self.size))
                .with_spill_dir(&self.dir),
        }
    }

    pub fn run_offline(&mut self, leg: Offline) -> Res<Rep> {
        if leg == Offline::Convert {
            return self.run_convert();
        }
        let source = match leg {
            Offline::ShardedPtbin => Source::binary_path(&self.corpus.ptbin_path),
            _ => Source::path(&self.corpus.text_path),
        };
        self.run_pipeline(leg.metric(), self.config_of(leg), source)
    }

    /// Times `Pipeline::run` over `source`, then scores the output. An
    /// output the oracle has not seen triggers one untimed run of the
    /// same configuration over the tagged records, so its paths are
    /// judged by their tags rather than taken for wrong.
    pub fn run_pipeline(
        &mut self,
        leg: &'static str,
        cfg: PipelineConfig,
        source: Source<'_>,
    ) -> Res<Rep> {
        let pipeline = Pipeline::new(cfg)?;
        let started = Instant::now();
        let out = pipeline.run(source)?;
        let wall_s = started.elapsed().as_secs_f64();
        let digest = output_digest(&out);
        if self.oracle.score_of(digest).is_none() {
            let tagged = pipeline.run(Source::records(self.corpus.records.clone()))?;
            self.oracle.learn(&tagged);
        }
        let score = self.oracle.score_output(&out);
        let ingested_all = out.metrics.records_in == self.corpus.manifest.records;
        self.tally.broken |= !ingested_all;
        let share = self.book(leg, score, digest == self.reference_offline && ingested_all);
        if score.false_paths > 0 {
            let unknown = out.cags.iter().find(|c| !self.oracle.knows(fingerprint(c)));
            let example = &mut self.tally.legs.entry(leg).or_default().unknown_path;
            *example = example.take().or(unknown.map(render_fingerprint));
        }
        Ok(Rep {
            wall_s,
            goodput: self.corpus.manifest.records as f64 / wall_s * share,
            metrics: Some(out.metrics),
        })
    }

    fn run_convert(&mut self) -> Res<Rep> {
        let target = self.dir.join("converted.ptbin");
        let started = Instant::now();
        let text = tracer_core::ingest::read_log_file(&self.corpus.text_path)?;
        let bin = tracer_core::binfmt::encode_text(&text, self.p)?;
        std::fs::write(&target, &bin)?;
        let wall_s = started.elapsed().as_secs_f64();
        drop((text, bin));
        // The conversion is right when it reproduces the set-up's
        // encoding byte for byte; it has no partial credit.
        let same = fnv64(&std::fs::read(&target)?) == self.corpus.ptbin_fnv64;
        let score = Score {
            correct: if same { self.logged() } else { 0 },
            false_paths: 0,
        };
        let share = self.book(Offline::Convert.metric(), score, same);
        Ok(Rep {
            wall_s,
            goodput: self.corpus.manifest.records as f64 / wall_s * share,
            metrics: None,
        })
    }

    /// Runs only the batch leg in a fresh child process and reads its
    /// peak resident set (`VmHWM`), in MiB.
    pub fn run_rss_child(&mut self) -> Res<f64> {
        let access = &self.corpus.access;
        let ports: Vec<String> = access.frontend_ports().map(|p| p.to_string()).collect();
        let ips: Vec<String> = access.internal_ips().map(|ip| ip.to_string()).collect();
        let out = std::process::Command::new(std::env::current_exe()?)
            .arg("batch-child")
            .arg(&self.corpus.text_path)
            .arg(ports.join(","))
            .arg(ips.join(","))
            .output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<u64> = stdout
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        let [hwm_kib, digest, records_in] = fields[..] else {
            return Err(format!(
                "batch child failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
            .into());
        };
        // The child cannot score; it inherits the score of the output
        // it reproduced.
        let ingested_all = records_in == self.corpus.manifest.records;
        self.tally.broken |= !ingested_all;
        let score = self.oracle.score_of(digest).unwrap_or_default();
        let as_reference = digest == self.reference_offline && ingested_all;
        self.book("batch_peak_rss_mib", score, as_reference);
        Ok(hwm_kib as f64 / 1024.0)
    }
}

/// The child side of [`Bench::run_rss_child`]: correlates one text file
/// in batch mode and prints `VmHWM-KiB digest records_in`.
pub fn batch_child(args: &[String]) -> Res<()> {
    let [path, ports, ips] = args else {
        return Err("usage: ptbench batch-child TEXT PORT,.. IP,..".into());
    };
    let ports = ports
        .split(',')
        .map(str::parse)
        .collect::<Result<Vec<u16>, _>>()?;
    let ips = ips
        .split(',')
        .map(str::parse)
        .collect::<Result<Vec<std::net::Ipv4Addr>, _>>()?;
    let cfg = PipelineConfig::new(AccessPointSpec::new(ports, ips)).with_window(OFFLINE_WINDOW);
    let out = Pipeline::new(cfg)?.run(Source::path(path))?;
    let status = std::fs::read_to_string("/proc/self/status")?;
    let hwm_kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?;
    println!(
        "{hwm_kib} {} {}",
        output_digest(&out),
        out.metrics.records_in
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Serve legs
// ---------------------------------------------------------------------

/// One path as the daemon's sink saw it.
struct Emitted {
    at: Duration,
    fingerprint: u64,
    end_key: Option<u64>,
}

impl Emitted {
    fn new(at: Duration, cag: &Cag) -> Emitted {
        Emitted {
            at,
            fingerprint: fingerprint(cag),
            end_key: end_key(cag),
        }
    }
}

struct Sink {
    origin: Instant,
    paths: Vec<Emitted>,
    kpis: Vec<(Duration, ServeKpi)>,
}

impl ServeSink for Sink {
    fn on_sealed(&mut self, cags: &[Cag]) {
        let at = self.origin.elapsed();
        self.paths.extend(cags.iter().map(|c| Emitted::new(at, c)));
    }

    fn on_kpi(&mut self, kpi: &ServeKpi) {
        self.kpis.push((self.origin.elapsed(), kpi.clone()));
    }
}

/// Everything one live run of the daemon yields.
pub struct ServeRun {
    /// First byte written → drained output, less the idle-end period.
    pub drain_wall_s: f64,
    pub correct_share: f64,
    /// Per logged request whose END record is due in the leading
    /// [`LAG_SHARE`] of the schedule: emission (live, or the final
    /// drain) of the path that END closes, minus that due time, in ms,
    /// ascending. Whether the path is also right is the goodput's
    /// business; a request whose END never came out in any path is
    /// infinite and so sorts last.
    pub lag_ms: Vec<f64>,
    pub gen: GenReport,
    pub report: ServeReport,
    /// KPI samples, stamped from the generator's start.
    pub kpis: Vec<(Duration, ServeKpi)>,
}

impl ServeRun {
    /// 99th percentile of the generator's lateness, in ms.
    pub fn gen_late_p99_ms(&self) -> f64 {
        let mut late: Vec<f64> = self
            .gen
            .late
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        if late.is_empty() {
            return 0.0;
        }
        late.sort_by(f64::total_cmp);
        crate::stats::quantile(&late, 0.99)
    }
}

impl Bench<'_> {
    /// Runs `Server::run` in streaming mode over one live file per
    /// host — or the one capture file of a sniffed corpus — while a single
    /// generator thread fills those files: on the fixed-rate schedule
    /// when `paced`, else as fast as it can.
    pub fn run_serve(&mut self, leg: &'static str, paced: bool) -> Res<ServeRun> {
        let corpus = self.corpus;
        let dir = self.dir.join("live");
        std::fs::create_dir_all(&dir)?;
        let one_file = corpus.one_capture_file;
        let paths: Vec<PathBuf> = if one_file {
            vec![dir.join("capture.log")]
        } else {
            let per_host = corpus.hosts.iter().map(|h| dir.join(format!("{h}.log")));
            per_host.collect()
        };
        let mut files = paths
            .iter()
            .map(File::create)
            .collect::<std::io::Result<Vec<File>>>()?;
        let plan: Vec<Planned> = self
            .schedule
            .order
            .iter()
            .map(|&i| {
                let i = i as usize;
                Planned {
                    due: paced.then(|| self.schedule.due(corpus.records[i].ts.0)),
                    file: if one_file {
                        0
                    } else {
                        corpus.host_of[i] as usize
                    },
                    line: corpus.line(i),
                }
            })
            .collect();

        let mut cfg = ServeConfig::new(
            PipelineConfig::new(corpus.access.clone())
                .with_window(SERVE_WINDOW)
                .with_mode(Mode::Streaming),
            paths.iter().map(SourceSpec::auto).collect(),
        );
        cfg.poll_interval = SERVE_POLL;
        cfg.idle_end = Some(IDLE_END);
        cfg.kpi_every_records = KPI_EVERY;
        let server = Server::new(cfg)?;
        let origin = Instant::now();
        let mut sink = Sink {
            origin,
            paths: Vec::new(),
            kpis: Vec::new(),
        };
        let stop = AtomicBool::new(false);
        let (report, gen) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| generate(&mut files, &plan));
            let report = server.run(&mut sink, &stop);
            (report, writer.join().expect("generator thread panicked"))
        });
        let ended = origin.elapsed();
        let (report, gen) = (report?, gen?);
        drop(files);
        std::fs::remove_dir_all(&dir)?;

        // Emission times count from the generator's first write.
        let lead = gen.started - origin;
        let final_at = ended - lead;
        for e in &mut sink.paths {
            e.at = e.at.saturating_sub(lead);
        }
        let drained = report.output.cags.iter().map(|c| Emitted::new(final_at, c));
        sink.paths.extend(drained);
        let score = self.oracle.score(sink.paths.iter().map(|e| e.fingerprint));

        let lag_horizon = self.schedule.span().mul_f64(LAG_SHARE);
        let sampled = |end_ts: u64| self.schedule.due(end_ts) <= lag_horizon;
        let mut out = HashSet::new();
        let mut lag_ms = Vec::new();
        for e in &sink.paths {
            match e.end_key.and_then(|k| self.oracle.end_of(k)) {
                Some(end) if sampled(end.ts) && out.insert(end.request) => {
                    let lag = e.at.saturating_sub(self.schedule.due(end.ts));
                    lag_ms.push(lag.as_secs_f64() * 1e3);
                }
                _ => {}
            }
        }
        lag_ms.sort_by(f64::total_cmp);
        let expected = self.oracle.ends().filter(|e| sampled(e.ts)).count();
        lag_ms.resize(expected, f64::INFINITY);
        let reference = self
            .oracle
            .score_of(self.reference_serve)
            .unwrap_or_default();
        let ingested_all =
            report.records_in == corpus.manifest.records && report.shed_records() == 0;
        self.tally.broken |= !ingested_all;
        let correct_share = self.book(leg, score, score == reference && ingested_all);
        Ok(ServeRun {
            drain_wall_s: (final_at.saturating_sub(IDLE_END)).as_secs_f64(),
            correct_share,
            lag_ms,
            kpis: sink
                .kpis
                .into_iter()
                .map(|(at, k)| (at.saturating_sub(lead), k))
                .collect(),
            gen,
            report,
        })
    }
}
