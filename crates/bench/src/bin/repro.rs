//! Regenerates every table and figure of the PreciseTracer evaluation
//! (§5), the two extension experiments, the paper-scale streaming
//! stress run and the fault-injected online soak.
//!
//! ```text
//! repro [--quick] [all|acc|fig8|...|fig17|ext1|ext2|scale|serve]...
//! ```
//!
//! With no id, or with `all`, every experiment runs. `--quick` shrinks
//! the sessions (smoke mode); the default regenerates at the paper's
//! session length (2 min up-ramp, 7.5 min runtime, 1 min down-ramp).
//! An unknown id or option exits 2 before anything is simulated.
//!
//! Each experiment asserts what it reproduces (accuracy, byte-equal
//! output across modes, memory bounds) and prints its table. The
//! timings in those tables are for reading the figures; speed is
//! measured by `ptbench` over the workloads `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::time::Instant;

use baseline::{evaluate, infer_paths, NestingConfig};
use multitier::Fault;
use pt_bench::{experiment, header, paper_noise, row, run_and_trace, Scale};
use simnet::Dist;
use tracer_core::{
    BreakdownReport, Cag, Component, CorrelatorConfig, Diagnosis, DiffReport, EngineOptions,
    FilterSet, Mode, Nanos, PatternAggregator, Pipeline, PipelineConfig, RankerOptions, Source,
};

const USAGE: &str = "usage: repro [--quick] [all|acc|fig8|...|fig17|ext1|ext2|scale|serve]...";

/// Every experiment id, in the order `all` runs them.
const IDS: [&str; 15] = [
    "acc", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "ext1", "ext2", "scale", "serve",
];

/// One experiment to run. Figs. 8–11 share one client sweep and
/// Figs. 12/13 one pair of runs per client count, so each family is a
/// single entry however many of its ids were named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Experiment {
    Acc,
    /// Figs. 8–11; `figs[i]` prints Fig. `8 + i`.
    Figs8To11([bool; 4]),
    Figs12And13,
    Fig14,
    Fig15,
    Fig16,
    Fig17,
    Ext1,
    Ext2,
    Scale,
    Serve,
}

/// Parses the command line (program name excluded) into the session
/// scale and the experiments to run, each once, in the order first
/// named. Every id is checked before anything runs.
fn parse_args(args: &[String]) -> Result<(Scale, Vec<Experiment>), String> {
    let mut scale = Scale::Paper;
    let mut ids: Vec<&str> = Vec::new();
    for a in args {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "all" => ids.extend(IDS),
            opt if opt.starts_with('-') => return Err(format!("unknown option: {opt}")),
            id => ids.push(id),
        }
    }
    if ids.is_empty() {
        ids.extend(IDS);
    }
    let mut experiments: Vec<Experiment> = Vec::new();
    for id in ids {
        let e = match id {
            "acc" => Experiment::Acc,
            "fig8" | "fig9" | "fig10" | "fig11" => {
                let fig: usize = id["fig".len()..].parse().expect("matched a fig id");
                let mut figs = [false; 4];
                figs[fig - 8] = true;
                if let Some(Experiment::Figs8To11(have)) = experiments
                    .iter_mut()
                    .find(|e| matches!(e, Experiment::Figs8To11(_)))
                {
                    have.iter_mut().zip(figs).for_each(|(h, f)| *h |= f);
                    continue;
                }
                Experiment::Figs8To11(figs)
            }
            "fig12" | "fig13" => Experiment::Figs12And13,
            "fig14" => Experiment::Fig14,
            "fig15" => Experiment::Fig15,
            "fig16" => Experiment::Fig16,
            "fig17" => Experiment::Fig17,
            "ext1" => Experiment::Ext1,
            "ext2" => Experiment::Ext2,
            "scale" => Experiment::Scale,
            "serve" => Experiment::Serve,
            other => return Err(format!("unknown experiment id: {other}")),
        };
        if !experiments.contains(&e) {
            experiments.push(e);
        }
    }
    Ok((scale, experiments))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, experiments) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    for e in experiments {
        match e {
            Experiment::Acc => acc(scale),
            Experiment::Figs8To11(figs) => figs8_to_11(scale, figs),
            Experiment::Figs12And13 => figs12_13(scale),
            Experiment::Fig14 => fig14(scale),
            Experiment::Fig15 => fig15(scale),
            Experiment::Fig16 => fig16(scale),
            Experiment::Fig17 => fig17(scale),
            Experiment::Ext1 => ext1(scale),
            Experiment::Ext2 => ext2(scale),
            Experiment::Scale => scale_stream(),
            Experiment::Serve => serve_soak(scale),
        }
    }
    eprintln!("\ntotal wall time: {:?}", t0.elapsed());
}

/// Order- and id-insensitive canonical fingerprint of a CAG set: one
/// sorted string per CAG covering every vertex field. The routed
/// pipelines renumber ids into canonical root order, so content
/// equality with the batch path is asserted modulo id and stream
/// position. Without `with_tags` the ground-truth `tags` are left out:
/// the live daemon re-parses records from disk, which strips them, so
/// its output is compared to the offline reference on every other
/// field.
fn cag_fingerprints(cags: &[Cag], with_tags: bool) -> Vec<String> {
    let mut v: Vec<String> = cags
        .iter()
        .map(|c| {
            c.vertices
                .iter()
                .map(|x| {
                    let tags = if with_tags {
                        format!("{:?}", x.tags)
                    } else {
                        String::new()
                    };
                    format!(
                        "{}|{}|{}|{}|{}|{}|{tags}|{:?}|{:?};",
                        x.ty, x.ts, x.ts_last, x.ctx, x.channel, x.size, x.ctx_parent, x.msg_parent
                    )
                })
                .collect()
        })
        .collect();
    v.sort();
    v
}

/// Shard count of the scale run's sharded leg; the distributed leg
/// spreads the same number of workers over two routers.
const SHARDS: usize = 4;

/// The paper-scale streaming stress run: a ≥10⁶ record session
/// correlated (a) in batch, (b) through the streaming path under an
/// explicit memory budget, (c) with the adaptive window, (e) through
/// the sharded and distributed pipelines, whose CAG content must equal
/// the batch path's; (f) and (g) walk the spill and adaptive-window
/// budget curves. Panics if accuracy degrades, output diverges, the
/// budget is exceeded, or the scenario shrinks below 10⁶ records — the
/// CI scale smoke runs exactly this.
fn scale_stream() {
    println!("\n== SCALE: 10^6-record session, streaming-first pipeline ==");
    let t = Instant::now();
    let out = multitier::run(multitier::ExperimentConfig::scale());
    let sim_secs = t.elapsed().as_secs_f64();
    let records = out.records.len();
    assert!(
        records >= 1_000_000,
        "scale scenario must produce >= 10^6 records, got {records}"
    );

    // (a) Batch drain.
    let t = Instant::now();
    let (corr, acc) = out.correlate(Nanos::from_millis(10)).expect("valid config");
    let batch_secs = t.elapsed().as_secs_f64();
    assert!(acc.is_perfect(), "batch accuracy regression: {acc:?}");

    // (e, measured back-to-back with batch) The sharded parallel
    // pipeline: reader-side session routing feeding N direct-delivery
    // engine workers, canonical merge.
    let t = Instant::now();
    let sharded = Pipeline::new(
        PipelineConfig::from(out.correlator_config(Nanos::from_millis(10)))
            .with_mode(Mode::Sharded(SHARDS)),
    )
    .expect("valid config")
    .run(Source::records(out.records.clone()))
    .expect("valid config");
    let sharded_secs = t.elapsed().as_secs_f64();
    let shacc = out.truth.evaluate(&sharded.cags);
    assert!(shacc.is_perfect(), "sharded accuracy regression: {shacc:?}");
    assert_eq!(
        sharded.cags.len(),
        corr.cags.len(),
        "sharded CAG count diverged from batch"
    );
    assert_eq!(
        cag_fingerprints(&sharded.cags, true),
        cag_fingerprints(&corr.cags, true),
        "sharded CAG content diverged from the single-threaded path"
    );
    let census = |cags: &[Cag]| {
        let agg = PatternAggregator::from_cags(cags);
        let mut p: Vec<(String, u64)> = agg
            .patterns()
            .iter()
            .map(|p| (p.key.to_string(), p.count))
            .collect();
        p.sort();
        p
    };
    assert_eq!(
        census(&sharded.cags),
        census(&corr.cags),
        "sharded pattern output diverged from the single-threaded path"
    );

    // (e'') The distributed cluster over the same corpus: router peers
    // hosting sharded workers behind the claim wire protocol, absorbed
    // by the coordinator's canonical merge.
    let (dist_routers, dist_wpr) = (2usize, SHARDS / 2);
    let t = Instant::now();
    let dist = Pipeline::new(
        PipelineConfig::from(out.correlator_config(Nanos::from_millis(10))).with_mode(
            Mode::Distributed {
                routers: dist_routers,
                workers_per_router: dist_wpr,
            },
        ),
    )
    .expect("valid config")
    .run(Source::records(out.records.clone()))
    .expect("valid config");
    let dist_secs = t.elapsed().as_secs_f64();
    let dacc = out.truth.evaluate(&dist.cags);
    assert!(
        dacc.is_perfect(),
        "distributed accuracy regression: {dacc:?}"
    );
    assert_eq!(
        cag_fingerprints(&dist.cags, true),
        cag_fingerprints(&corr.cags, true),
        "distributed CAG content diverged from the single-threaded path"
    );

    // (b) Streaming under an 8 MiB budget (well above the ~2 MiB
    // natural working set: the budget must bound, not distort).
    const BUDGET: usize = 8 << 20;
    let t = Instant::now();
    let mut sc = Pipeline::new(
        PipelineConfig::from(
            out.correlator_config(Nanos::from_millis(10))
                .with_memory_budget(BUDGET),
        )
        .with_mode(Mode::Streaming),
    )
    .expect("valid config")
    .session()
    .expect("valid config");
    let mut cags = Vec::new();
    for (i, rec) in out.records.iter().cloned().enumerate() {
        sc.push(rec).expect("not finished");
        if i % 4096 == 0 {
            cags.extend(sc.poll().expect("not finished"));
        }
    }
    let fin = sc.finish().expect("single finish");
    cags.extend(fin.cags);
    let stream_secs = t.elapsed().as_secs_f64();
    assert!(
        fin.metrics.peak_bytes <= BUDGET,
        "streaming peak {} bytes exceeds the {BUDGET} byte budget",
        fin.metrics.peak_bytes
    );
    let sacc = out.truth.evaluate(&cags);
    assert!(sacc.is_perfect(), "streaming accuracy regression: {sacc:?}");

    // (c) Adaptive window instead of the hand-tuned 10 ms knob.
    let t = Instant::now();
    let (acorr, aacc) = out
        .correlate_with(
            out.correlator_config(Nanos::from_millis(10))
                .with_adaptive_window(),
        )
        .expect("valid config");
    let adaptive_secs = t.elapsed().as_secs_f64();
    assert!(aacc.is_perfect(), "adaptive accuracy regression: {aacc:?}");
    assert!(acorr.metrics.ranker.window_updates > 0);

    // (f) The spill tier: shrink the budget and walk the
    // budget-vs-recall-vs-latency curve. Spilling only changes
    // residency — every step must stay byte-identical to the unbounded
    // batch run (recall 1.00), and the tightest step must have actually
    // paged state out and back.
    let batch_prints = cag_fingerprints(&corr.cags, true);
    let mut spill_curve = Vec::new();
    for budget in [8 << 20, 4 << 20, 2 << 20, 1 << 20usize] {
        let t = Instant::now();
        let (sp, spacc) = out
            .correlate_with(
                out.correlator_config(Nanos::from_millis(10))
                    .with_memory_budget(budget),
            )
            .expect("valid config");
        let secs = t.elapsed().as_secs_f64();
        assert!(
            spacc.is_perfect(),
            "spill at {budget} B budget lost recall: {spacc:?}"
        );
        assert_eq!(
            cag_fingerprints(&sp.cags, true),
            batch_prints,
            "spill at {budget} B budget diverged from the unbounded batch run"
        );
        let spilled = sp.metrics.engine.spilled_cags
            + sp.metrics.engine.spilled_orphans
            + sp.metrics.spilled_dedup_entries;
        let faults = sp.metrics.engine.spill_faults + sp.metrics.spill_dedup_faults;
        spill_curve.push((budget, secs, spacc.recall(), spilled, faults, sp.metrics));
    }
    let (spill_budget, spill_secs, spill_recall, spill_spilled, spill_faults, spill_metrics) =
        spill_curve.pop().expect("curve has steps");
    assert!(
        spill_faults > 0,
        "a {spill_budget} B budget must page state out and fault it back"
    );

    // (g) Adaptive window under a budget: the density clamp must keep
    // the window from settling far above the hand-tuned knob when the
    // buffer working set would not fit; accuracy per shrink step is
    // printed with the clamp count.
    let mut adaptive_steps = Vec::new();
    for budget in [4 << 20, 1 << 20, 256 << 10usize] {
        let (ac, aa) = out
            .correlate_with(
                out.correlator_config(Nanos::from_millis(10))
                    .with_adaptive_window()
                    .with_memory_budget(budget),
            )
            .expect("valid config");
        adaptive_steps.push((
            budget,
            aa.recall(),
            ac.metrics.ranker.window_clamps,
            ac.metrics.ranker.adaptive_window_ns,
        ));
    }
    let free_window_ns = acorr.metrics.ranker.adaptive_window_ns;
    let (_, _, tightest_clamps, tightest_window_ns) =
        *adaptive_steps.last().expect("steps recorded");
    assert!(tightest_clamps > 0, "the tightest budget must clamp");
    // The debt this clamp closes: unbudgeted, the noisy scale scenario
    // drives the adaptive window orders of magnitude past the
    // hand-tuned 10 ms knob. Budgeted, it must settle within 5x of it.
    assert!(
        tightest_window_ns <= 5 * Nanos::from_millis(10).as_nanos(),
        "budget-clamped adaptive window {tightest_window_ns} ns settled more \
         than 5x above the hand-tuned 10 ms window (unbudgeted: {free_window_ns} ns)"
    );

    println!(
        "{}",
        header(&["mode", "records", "corr_s", "rec/s", "peak_MB"])
    );
    let mb = |b: usize| b as f64 / 1e6;
    let sharded_label = format!("sharded_x{SHARDS}");
    for (mode, secs, peak) in [
        ("batch", batch_secs, corr.metrics.peak_bytes),
        ("stream_8MiB", stream_secs, fin.metrics.peak_bytes),
        ("adaptive", adaptive_secs, acorr.metrics.peak_bytes),
        (
            sharded_label.as_str(),
            sharded_secs,
            sharded.metrics.peak_bytes,
        ),
        ("spill_1MiB", spill_secs, spill_metrics.peak_bytes),
    ] {
        println!(
            "{}",
            row(&[
                mode.to_string(),
                records.to_string(),
                format!("{secs:.3}"),
                format!("{:.0}", records as f64 / secs),
                format!("{:.2}", mb(peak)),
            ])
        );
    }
    println!(
        "sim {sim_secs:.2}s, {} requests, {} swap crossings, {} adaptive window updates",
        out.service.completed, corr.metrics.ranker.swaps, acorr.metrics.ranker.window_updates,
    );
    println!(
        "sharded x{SHARDS}: {:.2}x batch throughput ({} reader noise discards, identical CAG/pattern output)",
        batch_secs / sharded_secs.max(1e-9),
        sharded.metrics.ranker.noise_discards,
    );
    println!(
        "distributed {dist_routers}x{dist_wpr}: {:.2}x sharded wall \
         ({:.0} rec/s through the claim wire, identical CAG output)",
        dist_secs / sharded_secs.max(1e-9),
        records as f64 / dist_secs.max(1e-9),
    );
    println!(
        "{}",
        header(&["spill_budget", "corr_s", "recall", "spilled", "faults"])
    );
    for (budget, secs, recall, spilled, faults, _) in &spill_curve {
        println!(
            "{}",
            row(&[
                format!("{:.0}MiB", *budget as f64 / (1 << 20) as f64),
                format!("{secs:.3}"),
                format!("{recall:.2}"),
                spilled.to_string(),
                faults.to_string(),
            ])
        );
    }
    println!(
        "{}",
        row(&[
            format!("{:.0}MiB", spill_budget as f64 / (1 << 20) as f64),
            format!("{spill_secs:.3}"),
            format!("{spill_recall:.2}"),
            spill_spilled.to_string(),
            spill_faults.to_string(),
        ])
    );
    println!(
        "spill x{:.2} batch wall at the {:.0} MiB floor — identical output, {} pages written / {} read",
        spill_secs / batch_secs.max(1e-9),
        spill_budget as f64 / (1 << 20) as f64,
        spill_metrics.spill_pages_written,
        spill_metrics.spill_pages_read,
    );
    for (budget, recall, clamps, window_ns) in &adaptive_steps {
        println!(
            "adaptive budget {:>4} KiB: recall {recall:.4}, {clamps} window clamps, settled at {:.2} ms \
             (unbudgeted {:.2} ms)",
            budget >> 10,
            *window_ns as f64 / 1e6,
            free_window_ns as f64 / 1e6,
        );
    }
}

/// The fault-injected online soak: a fixed-seed corpus is split into
/// per-node source files replayed at steady wall pace by fault-injecting
/// writers (a write stall, a source restart and a torn tail — three
/// distinct injections), while `tracer_core::serve` tails them live.
/// Gates: bounded memory (flat RSS, capped correlation state), p99 seal
/// lag under a bound, zero sheds under the lossless policy, and recall
/// against ground truth ≥ 0.95 (bridged through an offline reference on
/// the same corpus whose accuracy is asserted against truth directly).
fn serve_soak(scale: Scale) {
    use multitier::{write_paced, FaultPlan, SourceFault};
    use std::sync::atomic::AtomicBool;
    use tracer_core::serve::{ServeConfig, ServeKpi, ServeSink, Server, SourceSpec};

    let (clients, secs, wall_secs) = match scale {
        Scale::Quick => (10, 8, 3.0),
        Scale::Paper => (40, 20, 8.0),
    };
    let mut cfg = multitier::ExperimentConfig::quick(clients, secs);
    cfg.seed = 42;
    println!("\n== serve: fault-injected online soak ==");
    let out = multitier::run(cfg);
    let window = tracer_core::Nanos::from_millis(500);

    // Offline reference on the same corpus; its accuracy against the
    // ground truth anchors the live run's recall gate.
    let (reference, acc) = out.correlate(window).expect("valid config");
    assert!(
        acc.precision() >= 0.97 && acc.recall() >= 0.97,
        "soak reference off truth: precision {:.4} recall {:.4}",
        acc.precision(),
        acc.recall()
    );

    // Split the capture into per-node logs, the shape real probes emit.
    let mut by_host: BTreeMap<&str, Vec<(u64, String)>> = BTreeMap::new();
    for r in &out.records {
        by_host
            .entry(&r.hostname)
            .or_default()
            .push((r.ts.as_nanos(), r.to_string()));
    }
    let epoch = out
        .records
        .iter()
        .map(|r| r.ts.as_nanos())
        .min()
        .unwrap_or(0);
    let span = out
        .records
        .iter()
        .map(|r| r.ts.as_nanos())
        .max()
        .unwrap_or(0)
        .saturating_sub(epoch);
    let speedup = (span as f64 / (wall_secs * 1e9)).max(1.0);

    let dir = std::env::temp_dir().join(format!("pt-serve-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("soak temp dir");
    // One distinct fault per source: stall+resume, restart, torn tail.
    let plans = [
        FaultPlan {
            faults: vec![SourceFault::Stall {
                at: 0.35,
                millis: 300,
            }],
        },
        FaultPlan {
            faults: vec![SourceFault::Restart {
                at: 0.55,
                settle_millis: 80,
            }],
        },
        FaultPlan {
            faults: vec![SourceFault::TornTail {
                at: 0.5,
                millis: 200,
            }],
        },
    ];
    type SoakSource<'a> = (std::path::PathBuf, &'a Vec<(u64, String)>, &'a FaultPlan);
    let sources: Vec<SoakSource> = by_host
        .values()
        .enumerate()
        .map(|(i, recs)| {
            (
                dir.join(format!("node{i}.log")),
                recs,
                &plans[i % plans.len()],
            )
        })
        .collect();

    struct SoakSink {
        sealed: Vec<Cag>,
        kpis: Vec<ServeKpi>,
    }
    impl ServeSink for SoakSink {
        fn on_sealed(&mut self, cags: &[Cag]) {
            self.sealed.extend_from_slice(cags);
        }
        fn on_kpi(&mut self, kpi: &ServeKpi) {
            self.kpis.push(kpi.clone());
        }
    }

    let mut serve_cfg = ServeConfig::new(
        PipelineConfig::from(out.correlator_config(window)).with_mode(Mode::Streaming),
        sources
            .iter()
            .map(|(p, _, _)| SourceSpec::auto(p.clone()))
            .collect(),
    );
    serve_cfg.poll_interval = std::time::Duration::from_millis(5);
    serve_cfg.idle_end = Some(std::time::Duration::from_millis(900));
    serve_cfg.kpi_every_records = 250;
    let server = Server::new(serve_cfg).expect("valid serve config");

    let mut sink = SoakSink {
        sealed: Vec::new(),
        kpis: Vec::new(),
    };
    let stop = AtomicBool::new(false);
    let t = Instant::now();
    let (report, fault_logs) = std::thread::scope(|scope| {
        let writers: Vec<_> = sources
            .iter()
            .map(|(path, recs, plan)| {
                scope.spawn(move || write_paced(path, recs, epoch, speedup, plan))
            })
            .collect();
        let report = server.run(&mut sink, &stop).expect("soak serve run");
        let logs: Vec<_> = writers
            .into_iter()
            .map(|w| w.join().expect("writer thread").expect("writer io"))
            .collect();
        (report, logs)
    });
    let soak_secs = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();

    // ≥3 distinct injections actually happened, and the daemon saw them.
    let stalls: u64 = fault_logs.iter().map(|l| l.stalls).sum();
    let restarts: u64 = fault_logs.iter().map(|l| l.restarts).sum();
    let torn: u64 = fault_logs.iter().map(|l| l.torn_tails).sum();
    assert!(
        stalls >= 1 && restarts >= 1 && torn >= 1,
        "soak must inject stall+restart+torn-tail, got {stalls}/{restarts}/{torn}"
    );
    let stats = report.stats_line();
    assert!(
        report.sources.iter().map(|s| s.restarts).sum::<u64>() >= 1,
        "daemon missed the source restart: {stats}"
    );
    assert!(
        report.sources.iter().map(|s| s.torn_retries).sum::<u64>() >= 1,
        "daemon never carried a torn tail: {stats}"
    );
    // Lossless policy, lossless faults: zero sheds, zero malformed,
    // every record ingested exactly once.
    assert_eq!(report.shed_records(), 0, "unexpected sheds: {stats}");
    assert_eq!(
        report.records_in,
        out.records.len() as u64,
        "record loss through the fault schedule: {stats}"
    );

    // Bounded state: correlation state capped, RSS flat across the run.
    assert!(
        report.peak_state_bytes < 32 << 20,
        "correlation state not bounded: {stats}"
    );
    if let (Some(first), Some(last)) = (
        sink.kpis.iter().find_map(|k| k.rss_bytes),
        sink.kpis.iter().rev().find_map(|k| k.rss_bytes),
    ) {
        assert!(
            last.saturating_sub(first) < 64 << 20,
            "RSS grew {}B across the soak: {stats}",
            last.saturating_sub(first)
        );
    }
    let lag_bound = (report.records_in / 2).max(500);
    assert!(
        report.p99_seal_lag <= lag_bound,
        "p99 seal lag {} over bound {lag_bound}: {stats}",
        report.p99_seal_lag
    );

    // Recall vs ground truth, bridged through the asserted reference:
    // how many reference paths the live run reproduced shape-for-shape.
    let mut live = sink.sealed.clone();
    live.extend(report.output.cags.iter().cloned());
    let live_fps = cag_fingerprints(&live, false);
    let ref_fps = cag_fingerprints(&reference.cags, false);
    let mut matched = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < live_fps.len() && j < ref_fps.len() {
        match live_fps[i].cmp(&ref_fps[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                matched += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let recall = matched as f64 / ref_fps.len().max(1) as f64;
    assert!(
        recall >= 0.95,
        "soak recall {recall:.4} below 0.95 ({matched}/{} reference paths): {stats}",
        ref_fps.len()
    );

    println!(
        "{}",
        header(&["records", "sources", "faults", "recall", "p99_lag", "shed", "wall_s"])
    );
    println!(
        "{}",
        row(&[
            report.records_in.to_string(),
            report.sources.len().to_string(),
            (stalls + restarts + torn).to_string(),
            format!("{recall:.4}"),
            report.p99_seal_lag.to_string(),
            report.shed_records().to_string(),
            format!("{soak_secs:.2}"),
        ])
    );
    println!("{stats}");
}

/// Figs. 8–11 from one client sweep; `figs[i]` prints Fig. `8 + i`,
/// and the window sweep of Figs. 10/11 runs only when one of them is
/// printed.
fn figs8_to_11(scale: Scale, figs: [bool; 4]) {
    let [show8, show9, show10, show11] = figs;
    // One session per client count, reused by Figs. 8, 9, 10 and 11.
    let mut fig8_rows = Vec::new();
    let mut fig9_rows = Vec::new();
    let mut fig10: BTreeMap<usize, Vec<(u64, f64)>> = BTreeMap::new();
    let mut fig11: BTreeMap<usize, Vec<(u64, f64)>> = BTreeMap::new();
    let windows_ms: [u64; 6] = [1, 10, 100, 1_000, 10_000, 100_000];
    for clients in scale.client_sweep() {
        let cfg = experiment(scale, clients);
        let rt = run_and_trace(cfg, Nanos::from_millis(10));
        assert!(
            rt.accuracy.is_perfect(),
            "accuracy regression: {:?}",
            rt.accuracy
        );
        fig8_rows.push((clients, rt.out.service.completed));
        fig9_rows.push((rt.out.service.completed, rt.correlation_time.as_secs_f64()));
        if (show10 || show11) && [200, 500, 800].contains(&clients) {
            for &w in &windows_ms {
                let t = Instant::now();
                let (corr, acc) = rt.out.correlate(Nanos::from_millis(w)).expect("config");
                let secs = t.elapsed().as_secs_f64();
                assert!(acc.is_perfect(), "window {w}ms: {acc:?}");
                fig10.entry(clients).or_default().push((w, secs));
                fig11
                    .entry(clients)
                    .or_default()
                    .push((w, corr.metrics.peak_bytes as f64 / 1e6));
            }
        }
    }
    if show8 {
        println!("\n== Fig. 8: serviced requests vs concurrent clients (Browse_Only) ==");
        println!("{}", header(&["clients", "requests"]));
        for (c, n) in &fig8_rows {
            println!("{}", row(&[c.to_string(), n.to_string()]));
        }
    }
    if show9 {
        println!("\n== Fig. 9: correlation time vs serviced requests (window 10ms) ==");
        println!("{}", header(&["requests", "corr_time_s"]));
        for (n, s) in &fig9_rows {
            println!("{}", row(&[n.to_string(), format!("{s:.3}")]));
        }
    }
    if show10 {
        println!("\n== Fig. 10: correlation time vs sliding window ==");
        let mut cols = vec!["window_ms".to_string()];
        cols.extend(fig10.keys().map(|c| format!("{c}_clients_s")));
        println!(
            "{}",
            header(&cols.iter().map(|s| s.as_str()).collect::<Vec<_>>())
        );
        for (i, &w) in windows_ms.iter().enumerate() {
            let mut cells = vec![w.to_string()];
            for rows in fig10.values() {
                cells.push(format!("{:.3}", rows[i].1));
            }
            println!("{}", row(&cells));
        }
    }
    if show11 {
        println!("\n== Fig. 11: correlator peak memory vs sliding window ==");
        let mut cols = vec!["window_ms".to_string()];
        cols.extend(fig11.keys().map(|c| format!("{c}_clients_MB")));
        println!(
            "{}",
            header(&cols.iter().map(|s| s.as_str()).collect::<Vec<_>>())
        );
        for (i, &w) in windows_ms.iter().enumerate() {
            let mut cells = vec![w.to_string()];
            for rows in fig11.values() {
                cells.push(format!("{:.2}", rows[i].1));
            }
            println!("{}", row(&cells));
        }
    }
}

/// §5.2: path accuracy across clients, windows, skews, and with noise.
fn acc(scale: Scale) {
    println!("\n== §5.2: path accuracy (expect 100%, no FP, no FN) ==");
    println!(
        "{}",
        header(&["clients", "window", "skew_ms", "noise", "requests", "accuracy"])
    );
    let clients_list: &[usize] = if scale == Scale::Paper {
        &[100, 500, 1000]
    } else {
        &[50, 200]
    };
    for &clients in clients_list {
        for (window, skew_ms, noise) in [
            (Nanos::from_millis(1), 1i64, false),
            (Nanos::from_millis(10), 100, false),
            (Nanos::from_secs(10), 500, false),
            (Nanos::from_millis(2), 10, true),
        ] {
            let mut cfg = experiment(scale, clients);
            cfg.spec = cfg.spec.with_skew_ms(skew_ms);
            if noise {
                cfg.noise = paper_noise(scale);
            }
            let rt = run_and_trace(cfg, window);
            println!(
                "{}",
                row(&[
                    clients.to_string(),
                    format!("{}", window),
                    skew_ms.to_string(),
                    noise.to_string(),
                    rt.accuracy.logged_requests.to_string(),
                    format!("{:.2}%", rt.accuracy.accuracy() * 100.0),
                ])
            );
            assert!(rt.accuracy.is_perfect(), "{:?}", rt.accuracy);
        }
    }
}

/// Figs. 12/13: probe overhead on throughput and response time.
fn figs12_13(scale: Scale) {
    println!("\n== Figs. 12/13: RUBiS throughput & response time, probe enabled vs disabled ==");
    println!(
        "{}",
        header(&[
            "clients",
            "tp_off",
            "tp_on",
            "tp_ovh%",
            "rt_off_ms",
            "rt_on_ms",
            "rt_ovh%"
        ])
    );
    let mut max_tp_ovh: f64 = 0.0;
    let mut max_rt_ovh: f64 = 0.0;
    for clients in scale.client_sweep() {
        let run = |tracing: bool| {
            let mut cfg = experiment(scale, clients);
            cfg.spec = cfg.spec.with_tracing(tracing);
            multitier::run(cfg)
        };
        let off = run(false);
        let on = run(true);
        let (tp_off, tp_on) = (off.service.throughput(), on.service.throughput());
        let (rt_off, rt_on) = (
            off.service.rt_mean().as_nanos() as f64 / 1e6,
            on.service.rt_mean().as_nanos() as f64 / 1e6,
        );
        let tp_ovh = (tp_off - tp_on) / tp_off.max(1e-9) * 100.0;
        let rt_ovh = (rt_on - rt_off) / rt_off.max(1e-9) * 100.0;
        max_tp_ovh = max_tp_ovh.max(tp_ovh);
        max_rt_ovh = max_rt_ovh.max(rt_ovh);
        println!(
            "{}",
            row(&[
                clients.to_string(),
                format!("{tp_off:.1}"),
                format!("{tp_on:.1}"),
                format!("{tp_ovh:.1}"),
                format!("{rt_off:.0}"),
                format!("{rt_on:.0}"),
                format!("{rt_ovh:.1}"),
            ])
        );
    }
    println!("max throughput overhead: {max_tp_ovh:.1}% (paper: 3.7%)");
    println!("max response-time overhead: {max_rt_ovh:.1}% (paper: <30%)");
}

/// Fig. 14: correlation time with and without ~200K noise activities.
fn fig14(scale: Scale) {
    println!("\n== Fig. 14: noise tolerance (window 2ms) ==");
    println!(
        "{}",
        header(&["clients", "no_noise_s", "noise_s", "noise_records"])
    );
    let clients_list: &[usize] = if scale == Scale::Paper {
        &[100, 300, 500, 700, 900]
    } else {
        &[100, 300]
    };
    for &clients in clients_list {
        let base = {
            let cfg = experiment(scale, clients);
            run_and_trace(cfg, Nanos::from_millis(2))
        };
        let noisy = {
            let mut cfg = experiment(scale, clients);
            cfg.noise = paper_noise(scale);
            run_and_trace(cfg, Nanos::from_millis(2))
        };
        assert!(base.accuracy.is_perfect() && noisy.accuracy.is_perfect());
        println!(
            "{}",
            row(&[
                clients.to_string(),
                format!("{:.3}", base.correlation_time.as_secs_f64()),
                format!("{:.3}", noisy.correlation_time.as_secs_f64()),
                noisy.out.truth.noise_records().to_string(),
            ])
        );
    }
}

fn percent_table(title: &str, columns: Vec<(String, BreakdownReport)>) {
    println!("\n== {title} ==");
    let mut comps: Vec<Component> = Vec::new();
    for (_, b) in &columns {
        for c in b.percentages.keys() {
            if !comps.contains(c) {
                comps.push(c.clone());
            }
        }
    }
    comps.sort();
    let mut cols = vec!["component".to_string()];
    cols.extend(columns.iter().map(|(n, _)| n.clone()));
    println!(
        "{}",
        header(&cols.iter().map(|s| s.as_str()).collect::<Vec<_>>())
    );
    for c in &comps {
        let mut cells = vec![c.to_string()];
        for (_, b) in &columns {
            cells.push(format!("{:.1}%", b.pct(c)));
        }
        println!("{}", row(&cells));
    }
    for (name, b) in &columns {
        println!(
            "   [{name}] {} requests of dominant pattern, mean total {}",
            b.count, b.mean_total
        );
    }
}

/// Fig. 15: latency percentages of the dominant (ViewItem-class)
/// pattern as clients rise, MaxThreads = 40.
fn fig15(scale: Scale) {
    let clients_list: &[usize] = if scale == Scale::Paper {
        &[500, 600, 700, 800]
    } else {
        &[300, 500]
    };
    let mut cols = Vec::new();
    for &clients in clients_list {
        let rt = run_and_trace(experiment(scale, clients), Nanos::from_millis(10));
        let b = BreakdownReport::dominant(&rt.corr.cags).expect("dominant pattern");
        cols.push((format!("c{clients}"), b));
    }
    percent_table(
        "Fig. 15: latency percentages of components (MaxThreads=40)",
        cols,
    );
}

/// Fig. 16: throughput / response time for MaxThreads 40 vs 250.
fn fig16(scale: Scale) {
    println!("\n== Fig. 16: MaxThreads 40 vs 250 ==");
    println!(
        "{}",
        header(&[
            "clients",
            "TP_MT40",
            "TP_MT250",
            "RT_MT40_ms",
            "RT_MT250_ms"
        ])
    );
    for clients in scale.client_sweep() {
        let run = |mt: usize| {
            let mut cfg = experiment(scale, clients);
            cfg.spec = cfg.spec.with_max_threads(mt);
            multitier::run(cfg)
        };
        let a = run(40);
        let b = run(250);
        println!(
            "{}",
            row(&[
                clients.to_string(),
                format!("{:.1}", a.service.throughput()),
                format!("{:.1}", b.service.throughput()),
                format!("{:.0}", a.service.rt_mean().as_nanos() as f64 / 1e6),
                format!("{:.0}", b.service.rt_mean().as_nanos() as f64 / 1e6),
            ])
        );
    }
}

/// Fig. 17: latency percentages under injected faults + localization.
fn fig17(scale: Scale) {
    let clients = if scale == Scale::Paper { 500 } else { 200 };
    let cases: Vec<(&str, Vec<Fault>)> = vec![
        ("normal", vec![]),
        (
            "EJB_Delay",
            vec![Fault::EjbDelay {
                delay: Dist::Exp { mean: 60e6 },
            }],
        ),
        (
            "DataBase_Lock",
            vec![Fault::DbLock {
                hold: Dist::Exp { mean: 4e6 },
            }],
        ),
        (
            "EJB_Network",
            vec![Fault::AppNetDegrade { bps: 10_000_000 }],
        ),
    ];
    let mut cols = Vec::new();
    for (name, faults) in &cases {
        let mut cfg = experiment(scale, clients);
        for f in faults {
            cfg.spec = cfg.spec.with_fault(f.clone());
        }
        let rt = run_and_trace(cfg, Nanos::from_millis(10));
        let b = BreakdownReport::dominant(&rt.corr.cags).expect("dominant pattern");
        cols.push((name.to_string(), b));
    }
    percent_table(
        "Fig. 17: latency percentages for abnormal cases",
        cols.clone(),
    );
    // §5.4 localization on each abnormal case.
    println!("\n-- automatic localization (§5.4 reasoning) --");
    let normal = &cols[0].1;
    for (name, b) in cols.iter().skip(1) {
        let diff = DiffReport::between(normal, b);
        match Diagnosis::localize(&diff, 6.0) {
            Some(d) => println!("[{name}] suspect: {} — {}", d.suspect, d.explanation),
            None => println!("[{name}] no significant change detected"),
        }
    }
}

/// EXT-1: precise vs WAP5-style nesting accuracy as concurrency rises.
fn ext1(scale: Scale) {
    println!("\n== EXT-1: PreciseTracer vs WAP5-style nesting accuracy ==");
    println!(
        "{}",
        header(&["clients", "requests", "precise_acc", "nesting_acc"])
    );
    let clients_list: &[usize] = if scale == Scale::Paper {
        &[10, 100, 400, 800]
    } else {
        &[10, 100, 300]
    };
    for &clients in clients_list {
        let rt = run_and_trace(experiment(scale, clients), Nanos::from_millis(10));
        let inferred = infer_paths(
            &rt.out.records,
            &rt.out.access_spec(),
            &NestingConfig::default(),
        );
        let truth_sets: Vec<Vec<u64>> = rt
            .out
            .truth
            .requests()
            .filter(|r| r.completed.is_some() && !r.records.is_empty())
            .map(|r| {
                let mut v = r.records.clone();
                v.sort_unstable();
                v
            })
            .collect();
        let paths: Vec<Vec<u64>> = inferred.into_iter().map(|p| p.tags).collect();
        let nest = evaluate(&paths, &truth_sets);
        println!(
            "{}",
            row(&[
                clients.to_string(),
                rt.accuracy.logged_requests.to_string(),
                format!("{:.1}%", rt.accuracy.accuracy() * 100.0),
                format!("{:.1}%", nest.accuracy() * 100.0),
            ])
        );
    }
}

/// EXT-2: ablation of the algorithm's ingredients.
fn ext2(scale: Scale) {
    println!("\n== EXT-2: ablation (accuracy with ingredients disabled) ==");
    println!("{}", header(&["variant", "accuracy", "false_paths"]));
    let clients = if scale == Scale::Paper { 400 } else { 150 };
    let mut cfg = experiment(scale, clients);
    cfg.noise = paper_noise(scale);
    let out = multitier::run(cfg);
    let variants: Vec<(&str, CorrelatorConfig)> = {
        let base = out.correlator_config(Nanos::from_millis(2));
        vec![
            ("full algorithm", base.clone()),
            (
                "no swap (Fig.6 off)",
                base.clone().with_ranker(RankerOptions {
                    swap: false,
                    ..base.ranker
                }),
            ),
            (
                // Without merging, multi-segment receives can never be
                // Rule-1 matched, so the window boost cannot help and is
                // capped to keep the (deliberately broken) variant from
                // buffering the whole log.
                "no segment merging",
                base.clone()
                    .with_engine(EngineOptions {
                        merge_segments: false,
                        ..base.engine.clone()
                    })
                    .with_ranker(RankerOptions {
                        fetch_boost: 2,
                        ..base.ranker
                    }),
            ),
            (
                "no thread-reuse check",
                base.clone().with_engine(EngineOptions {
                    thread_reuse_check: false,
                    ..base.engine.clone()
                }),
            ),
            (
                "no noise discarding",
                base.clone().with_ranker(RankerOptions {
                    noise_discard: false,
                    ..base.ranker
                }),
            ),
        ]
    };
    for (name, vcfg) in variants {
        let t = Instant::now();
        let res =
            Pipeline::new(vcfg.into()).and_then(|p| p.run(Source::records(out.records.clone())));
        let secs = t.elapsed().as_secs_f64();
        match res {
            Ok(corr) => {
                let acc = out.truth.evaluate(&corr.cags);
                println!(
                    "{}  ({secs:.2}s)",
                    row(&[
                        name.to_string(),
                        format!("{:.1}%", acc.accuracy() * 100.0),
                        acc.false_paths.to_string(),
                    ])
                );
            }
            Err(e) => println!("{name}: error: {e}"),
        }
    }
    // Attribute filters as an extra variant: drop sshd noise up front.
    let filtered = out
        .correlator_config(Nanos::from_millis(2))
        .with_filters(FilterSet::new().drop_program("sshd"));
    let corr = Pipeline::new(filtered.into())
        .expect("config")
        .run(Source::records(out.records.clone()))
        .expect("config");
    let acc = out.truth.evaluate(&corr.cags);
    println!(
        "{}",
        row(&[
            "attr-filter sshd".to_string(),
            format!("{:.1}%", acc.accuracy() * 100.0),
            format!("filtered={}", corr.metrics.filtered_out),
        ])
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Scale, Vec<Experiment>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_id_is_an_error() {
        let err = parse(&["--quick", "acc", "nosuch"]).unwrap_err();
        assert!(err.contains("nosuch"), "{err}");
    }

    #[test]
    fn missing_id_is_an_error() {
        assert!(parse(&[""]).is_err());
        assert!(parse(&["--quick", "", "acc"]).is_err());
    }

    #[test]
    fn removed_ids_and_flags_are_rejected() {
        for args in [
            &["lb"][..],
            &["pooled"],
            &["lossy"],
            &["partial"],
            &["--json", "scale"],
            &["--shards", "4", "scale"],
            &["--experiment", "acc"],
        ] {
            assert!(parse(args).is_err(), "{args:?} was accepted");
        }
    }

    #[test]
    fn all_and_no_id_expand_to_every_family_once() {
        let (scale, all) = parse(&["all"]).unwrap();
        assert_eq!(scale, Scale::Paper);
        assert_eq!(all.len(), 11);
        assert_eq!(all[1], Experiment::Figs8To11([true; 4]));
        assert!(all.contains(&Experiment::Figs12And13));
        assert_eq!(parse(&["--quick"]).unwrap(), (Scale::Quick, all.clone()));
        assert_eq!(parse(&["scale", "all", "acc"]).unwrap().1.len(), 11);
    }

    #[test]
    fn shared_sweeps_run_once() {
        assert_eq!(
            parse(&["fig9", "acc", "fig10", "fig9"]).unwrap().1,
            [
                Experiment::Figs8To11([false, true, true, false]),
                Experiment::Acc
            ]
        );
        assert_eq!(
            parse(&["fig13", "fig12"]).unwrap().1,
            [Experiment::Figs12And13]
        );
    }
}
