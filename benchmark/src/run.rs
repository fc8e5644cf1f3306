//! `ptbench run`: set-up, the untraced end-to-end pass or the traced
//! per-layer pass, and the report.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::legs::{Bench, Offline, Tally, MAX_GEN_LATE};
use crate::stats::{highest_supported_percentile, quantile, Summary};
use crate::workload::{Corpus, Size, Workload};
use crate::Res;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds of the offline legs: at least this many, then as many as the
/// run's seconds allow, up to the cap.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 15;
/// Repetitions of the RSS child, whose reading barely moves.
const RSS_REPS: usize = 3;
/// Attempts at a paced run whose generator kept its schedule.
const PACED_ATTEMPTS: usize = 3;

pub struct Options {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub out: Option<PathBuf>,
}

/// One metric as reported: a summary, or the reason there is none.
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Result<Summary, String>,
}

impl Reading {
    pub fn timed(name: &'static str, unit: &'static str, values: &[f64]) -> Reading {
        Reading {
            name,
            unit,
            value: if values.is_empty() {
                Err("no repetition completed".into())
            } else {
                Ok(Summary::of(values))
            },
        }
    }

    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Reading {
        Reading {
            name,
            unit,
            value: if value.is_finite() {
                Ok(Summary::exact(value))
            } else {
                Err("not a finite number".into())
            },
        }
    }

    pub fn missing(name: &'static str, unit: &'static str, reason: impl Into<String>) -> Reading {
        Reading {
            name,
            unit,
            value: Err(reason.into()),
        }
    }
}

pub struct WorkloadResult {
    pub manifest: Json,
    pub tally: Tally,
    pub readings: Vec<Reading>,
}

impl WorkloadResult {
    /// Whether the counts can be trusted (see [`Tally::broken`]).
    fn correct(&self) -> bool {
        !self.tally.broken
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.tally.attempted() as f64)),
            ("failed", Json::num(self.tally.failed() as f64)),
            (
                "metrics",
                Json::obj(self.readings.iter().map(|r| {
                    let value = r.value.as_ref().map_or(Json::Null, |s| Json::num(s.median));
                    (
                        r.name,
                        Json::obj([("value", value), ("unit", Json::str(r.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// Everything, for `--out` and `ptbench agree`.
    fn to_json(&self) -> Json {
        Json::obj([
            ("manifest", self.manifest.clone()),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.tally.attempted() as f64)),
            ("failed", Json::num(self.tally.failed() as f64)),
            (
                "diverged",
                Json::Arr(self.tally.diverged().into_iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.readings.iter().map(|r| {
                    let body = match &r.value {
                        Ok(s) => Json::obj([
                            ("value", Json::num(s.median)),
                            ("unit", Json::str(r.unit)),
                            ("min", Json::num(s.min)),
                            ("max", Json::num(s.max)),
                            ("iqr", Json::num(s.iqr)),
                            ("n", Json::num(s.n as f64)),
                        ]),
                        Err(reason) => Json::obj([
                            ("value", Json::Null),
                            ("unit", Json::str(r.unit)),
                            ("reason", Json::str(reason)),
                        ]),
                    };
                    (r.name, body)
                })),
            ),
        ])
    }

    fn print(&self) {
        println!(
            "  {:<34} {:>16} {:<6} {:>14} {:>14} {:>7} {:>3}",
            "metric", "median", "unit", "min", "max", "iqr%", "n"
        );
        for r in &self.readings {
            match &r.value {
                Ok(s) => println!(
                    "  {:<34} {:>16.4} {:<6} {:>14.4} {:>14.4} {:>7.2} {:>3}",
                    r.name,
                    s.median,
                    r.unit,
                    s.min,
                    s.max,
                    100.0 * s.iqr / s.median.abs().max(f64::MIN_POSITIVE),
                    s.n
                ),
                Err(reason) => println!("  {:<34} {:>16} {:<6} ({reason})", r.name, "null", r.unit),
            }
        }
        println!(
            "  requests attempted {} failed {}",
            self.tally.attempted(),
            self.tally.failed()
        );
        for (leg, t) in &self.tally.legs {
            if t.diverged {
                println!(
                    "  DIVERGED {leg}: output differs from the tagged batch reference; \
                     {} of {} requests failed, {} false paths",
                    t.failed, t.attempted, t.false_paths
                );
                if let Some(path) = &t.unknown_path {
                    println!("    first path the oracle does not know: {path}");
                }
            }
        }
    }
}

/// Runs every requested workload; `Ok(false)` when some metric could
/// not be measured (the process then exits non-zero).
pub fn run(opts: &Options) -> Res<bool> {
    // Thread counts follow the machine; where the threads run does not.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let p = nproc.min(4);
    let cpu = crate::pin_to_one_cpu()?;
    println!(
        "ptbench: seed {:#x}, size {}, nproc {nproc}, P {p}, all threads on CPU {cpu}, {} pass, \
         {} s per workload{}",
        opts.seed,
        opts.size.name(),
        if opts.trace {
            "traced per-layer"
        } else {
            "untraced end-to-end"
        },
        opts.seconds,
        if opts.size == Size::Bench {
            ""
        } else {
            " — NOT comparable with BENCHMARK.json runs"
        }
    );
    let mut complete = true;
    let mut results = Vec::new();
    for &workload in &opts.workloads {
        let dir = crate::out_dir().join(format!("run-{}-{}", std::process::id(), workload.name));
        std::fs::create_dir_all(&dir)?;
        let result = run_workload(opts, workload, (nproc, p), &dir);
        // Leave nothing behind, whatever happened.
        let removed = std::fs::remove_dir_all(&dir);
        let result = result?;
        removed?;
        result.print();
        complete &= result.readings.iter().all(|r| r.value.is_ok());
        println!("{}", result.contract_line());
        results.push((workload.name, result));
    }
    if let Some(path) = &opts.out {
        let doc = Json::obj([
            ("seed", Json::str(format!("{:#x}", opts.seed))),
            ("size", Json::str(opts.size.name())),
            ("trace", Json::Bool(opts.trace)),
            ("nproc", Json::num(nproc as f64)),
            ("p", Json::num(p as f64)),
            (
                "workloads",
                Json::obj(results.iter().map(|(name, r)| (*name, r.to_json()))),
            ),
        ]);
        std::fs::write(path, doc.render() + "\n")?;
    }
    Ok(complete)
}

fn run_workload(
    opts: &Options,
    workload: &'static Workload,
    (nproc, p): (usize, usize),
    dir: &std::path::Path,
) -> Res<WorkloadResult> {
    println!("\n== {} — {}", workload.name, workload.why);
    let mut setups = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        drop(corpus.take());
        let (c, secs) = Corpus::build(workload, opts.seed, opts.size, (nproc, p), dir)?;
        setups.push(secs);
        corpus = Some(c);
    }
    let mut corpus = corpus.expect("at least one set-up");
    let mut bench = Bench::new(workload, opts.size, &mut corpus, p, dir)?;
    let manifest = bench.corpus.manifest.to_json();
    println!("  manifest {}", manifest.render());

    let readings = if opts.trace {
        crate::layers::traced_pass(&mut bench, opts.seconds)?
    } else {
        let mut readings = vec![Reading::timed("setup_s", "s", &setups)];
        end_to_end(&mut bench, opts.seconds, &mut readings)?;
        readings
    };
    crate::contract::check(opts.trace, &readings)?;
    Ok(WorkloadResult {
        manifest,
        tally: bench.tally,
        readings,
    })
}

/// The untraced pass: the paced run, then rounds that interleave every
/// other leg so that a slow stretch of the machine costs each leg one
/// repetition rather than one leg all of them.
fn end_to_end(bench: &mut Bench<'_>, seconds: f64, readings: &mut Vec<Reading>) -> Res<()> {
    let started = Instant::now();
    let records = bench.corpus.manifest.records as f64;

    let mut paced = None;
    let mut late_ms = f64::NAN;
    for _ in 0..PACED_ATTEMPTS {
        let run = bench.run_serve("serve_lag_ms", true)?;
        late_ms = run.gen_late_p99_ms();
        if late_ms <= MAX_GEN_LATE.as_secs_f64() * 1e3 {
            paced = Some(run);
            break;
        }
    }

    let mut offline: Vec<Vec<f64>> = vec![Vec::new(); Offline::ALL.len()];
    let mut slowest = vec![0f64; Offline::ALL.len()];
    let (mut drain, mut rss) = (Vec::new(), Vec::new());
    let mut state_peak = 0usize;
    // A leg that takes over 2 s repeats 3 times, over 15 s once: it must
    // not eat the rounds of the others.
    let cap = |slowest: f64| match slowest {
        s if s > 15.0 => 1,
        s if s > 2.0 => 3,
        _ => MAX_ROUNDS,
    };
    let mut round = 0;
    let mut serve_s = 0.0;
    loop {
        // Another round only if, at the legs' slowest so far, it ends in
        // time.
        let due: Vec<usize> = (0..Offline::ALL.len())
            .filter(|&i| offline[i].len() < cap(slowest[i]))
            .collect();
        let next_s = serve_s + due.iter().map(|&i| slowest[i]).sum::<f64>();
        let in_time = started.elapsed().as_secs_f64() + next_s < seconds;
        if round >= MIN_ROUNDS && (round >= MAX_ROUNDS || !in_time) {
            break;
        }
        for i in due {
            let leg = Offline::ALL[i];
            let rep = bench.run_offline(leg)?;
            slowest[i] = slowest[i].max(rep.wall_s);
            offline[i].push(rep.goodput);
            if leg == Offline::Batch {
                state_peak = rep.metrics.expect("pipeline legs carry metrics").peak_bytes;
            }
        }
        let serve_started = Instant::now();
        let run = bench.run_serve("serve_drain_rec_per_s", false)?;
        drain.push(records / run.drain_wall_s * run.correct_share);
        if round < RSS_REPS {
            rss.push(bench.run_rss_child()?);
        }
        serve_s = serve_started.elapsed().as_secs_f64();
        round += 1;
    }

    for (leg, values) in Offline::ALL.into_iter().zip(&offline) {
        readings.push(Reading::timed(leg.metric(), "rec/s", values));
    }
    readings.push(Reading::timed("serve_drain_rec_per_s", "rec/s", &drain));
    match &paced {
        Some(run) if run.lag_ms.is_empty() => {
            for name in ["serve_lag_p50_ms", "serve_lag_p99_ms"] {
                readings.push(Reading::missing(name, "ms", "no logged request to sample"));
            }
        }
        Some(run) => {
            let n = run.lag_ms.len();
            println!(
                "  paced run: {n} lag samples at {} rec/s, highest supported percentile {}, \
                 generator late p99 {late_ms:.3} ms, {} of {} paths sealed live",
                crate::legs::PACED_RATE,
                highest_supported_percentile(n)
                    .map_or("none".into(), |p| format!("p{}", p * 100.0)),
                run.report.cags_sealed,
                run.report.total_cags(),
            );
            for (name, q) in [("serve_lag_p50_ms", 0.5), ("serve_lag_p99_ms", 0.99)] {
                readings.push(Reading::exact(name, "ms", quantile(&run.lag_ms, q)));
            }
        }
        None => {
            for name in ["serve_lag_p50_ms", "serve_lag_p99_ms"] {
                readings.push(Reading::missing(
                    name,
                    "ms",
                    format!(
                        "generator late p99 {late_ms:.3} ms > 5 ms in {PACED_ATTEMPTS} attempts"
                    ),
                ));
            }
        }
    }
    readings.push(Reading::timed("batch_peak_rss_mib", "MiB", &rss));
    readings.push(Reading::exact("state_peak_bytes", "B", state_peak as f64));
    readings.push(Reading::exact(
        "correct_share",
        "share",
        1.0 - bench.tally.failed() as f64 / bench.tally.attempted().max(1) as f64,
    ));
    Ok(())
}
