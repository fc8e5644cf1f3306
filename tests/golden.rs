//! Golden-trace regression harness.
//!
//! Every `tests/golden/*.log` file is a TCP_TRACE log (hand-written or
//! captured with `pt simulate`) whose second-to-parse line is a
//! directive comment:
//!
//! ```text
//! #! port=80 internal=10.0.0.1,10.0.0.2 window_ms=10
//! ```
//!
//! The harness correlates the log and renders the full correlation
//! result — CAG count, per-CAG vertex structure, latencies, pattern
//! keys, and latency-percentage tables — into a canonical text form
//! that must match the checked-in `<case>.golden` file **byte for
//! byte**. Any change to Ranker/Engine/pattern behavior that alters a
//! correlation result fails these tests; intentional changes are
//! re-blessed with:
//!
//! ```text
//! PT_GOLDEN_REGEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use precisetracer::prelude::*;

/// Correlator settings extracted from a case's `#!` directive line.
struct Directive {
    access: AccessPointSpec,
    window: Nanos,
}

fn parse_directive(text: &str, path: &Path) -> Directive {
    let line = text
        .lines()
        .find(|l| l.starts_with("#!"))
        .unwrap_or_else(|| panic!("{}: missing #! directive line", path.display()));
    let mut port: Option<u16> = None;
    let mut internal: Vec<Ipv4Addr> = Vec::new();
    let mut window_ms: u64 = 10;
    for kv in line.trim_start_matches("#!").split_ascii_whitespace() {
        let (k, v) = kv
            .split_once('=')
            .unwrap_or_else(|| panic!("{}: bad directive token {kv:?}", path.display()));
        match k {
            "port" => port = Some(v.parse().expect("directive port")),
            "internal" => {
                internal = v
                    .split(',')
                    .map(|ip| ip.parse().expect("directive internal ip"))
                    .collect();
            }
            "window_ms" => window_ms = v.parse().expect("directive window_ms"),
            other => panic!("{}: unknown directive key {other:?}", path.display()),
        }
    }
    Directive {
        access: AccessPointSpec::new([port.expect("directive needs port=")], internal),
        window: Nanos::from_millis(window_ms),
    }
}

/// Renders a correlation result into the canonical golden text: every
/// field here is deterministic for a fixed input log (no wall-clock or
/// allocation-dependent values).
fn render(out: &CorrelationOutput) -> String {
    let mut s = String::new();
    let m = &out.metrics;
    writeln!(
        s,
        "records_in={} filtered_out={} cags={} unfinished={}",
        m.records_in,
        m.filtered_out,
        out.cags.len(),
        out.unfinished.len()
    )
    .unwrap();

    for cag in &out.cags {
        let total = cag
            .total_latency()
            .map(|n| n.as_nanos().to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            s,
            "cag id={} finished={} vertices={} total_ns={}",
            cag.id,
            cag.finished,
            cag.vertices.len(),
            total
        )
        .unwrap();
        for (i, v) in cag.vertices.iter().enumerate() {
            writeln!(
                s,
                "  v{i} {} ts={} ctx={}/{}/{}/{} chan={} size={} ctx_parent={} msg_parent={}",
                v.ty,
                v.ts,
                v.ctx.hostname,
                v.ctx.program,
                v.ctx.pid,
                v.ctx.tid,
                v.channel,
                v.size,
                v.ctx_parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
                v.msg_parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
            )
            .unwrap();
        }
        for (component, latency) in cag.component_latencies() {
            writeln!(s, "  component {component} {}ns", latency.as_nanos()).unwrap();
        }
    }

    let agg = PatternAggregator::from_cags(&out.cags);
    writeln!(s, "patterns={}", agg.len()).unwrap();
    for p in agg.average_paths() {
        writeln!(
            s,
            "pattern key={} count={} vertices={} mean_total_ns={}",
            p.key,
            p.count,
            p.exemplar.vertices.len(),
            p.mean_total.as_nanos()
        )
        .unwrap();
        writeln!(s, "  signature {}", p.signature).unwrap();
        for (component, pct) in &p.percentages {
            writeln!(s, "  {component} {pct:.4}%").unwrap();
        }
    }
    s
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run_case(name: &str) -> (String, PathBuf) {
    let log_path = golden_dir().join(format!("{name}.log"));
    let text = std::fs::read_to_string(&log_path)
        .unwrap_or_else(|e| panic!("{}: {e}", log_path.display()));
    let directive = parse_directive(&text, &log_path);
    let records = parse_log(&text).expect("golden log must parse");
    assert!(!records.is_empty(), "{name}: empty golden log");
    let config = PipelineConfig::new(directive.access).with_window(directive.window);
    let out = Pipeline::new(config)
        .expect("valid golden config")
        .run(Source::records(records))
        .expect("golden log must correlate");
    for cag in &out.cags {
        cag.validate()
            .unwrap_or_else(|e| panic!("{name}: invalid CAG {}: {e}", cag.id));
    }
    (render(&out), golden_dir().join(format!("{name}.golden")))
}

/// How a streaming golden case feeds the correlator.
enum Feed {
    /// Push one record at a time in log order, polling after every
    /// push. Byte-exact against the batch golden when requests do not
    /// overlap: the ranker never has to guess about records that exist
    /// in the log but have not arrived yet.
    PollEveryRecord,
    /// Push everything in log order (interleaved across hosts, no
    /// `close_host`), then poll, then finish. Byte-exact against the
    /// batch golden for any log: ranking starts with the same staged
    /// input the batch drain sees. For concurrent logs, polling
    /// *between* pushes can only reorder CAG *emission* (the batch
    /// ranker sees the future; an online one cannot) — content equality
    /// for that mode is pinned by the permutation property test.
    PushAllThenPoll,
}

/// Runs a golden case through the **streaming** API instead of the
/// batch drain. The output must be byte-identical to the batch golden.
fn run_case_streaming(name: &str, feed: Feed) -> (String, PathBuf) {
    let log_path = golden_dir().join(format!("{name}.log"));
    let text = std::fs::read_to_string(&log_path)
        .unwrap_or_else(|e| panic!("{}: {e}", log_path.display()));
    let directive = parse_directive(&text, &log_path);
    let records = parse_log(&text).expect("golden log must parse");
    let config = PipelineConfig::new(directive.access)
        .with_window(directive.window)
        .with_mode(Mode::Streaming);
    let mut sc = Pipeline::new(config)
        .expect("valid streaming config")
        .session()
        .expect("valid streaming config");
    let mut cags = Vec::new();
    for rec in records {
        sc.push(rec).expect("push before finish");
        if matches!(feed, Feed::PollEveryRecord) {
            cags.extend(sc.poll().expect("poll before finish"));
        }
    }
    cags.extend(sc.poll().expect("poll before finish"));
    let mut out = sc.finish().expect("single finish");
    cags.extend(std::mem::take(&mut out.cags));
    out.cags = cags;
    for cag in &out.cags {
        cag.validate()
            .unwrap_or_else(|e| panic!("{name}: invalid streamed CAG {}: {e}", cag.id));
    }
    // The incremental session emits in completion order; the batch
    // golden is canonical (root order). Same renumbering, then the
    // bytes must match exactly.
    out.canonicalize();
    (render(&out), golden_dir().join(format!("{name}.golden")))
}

/// Asserts the streaming path reproduces the batch golden byte for
/// byte (same `.golden` file — never re-blessed from this path).
fn check_case_streaming(name: &str, feed: Feed) {
    let (got, golden_path) = run_case_streaming(name, feed);
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert!(
        got == want,
        "{name}: STREAMING correlation diverged from the batch golden {}\n\
         --- streamed ---\n{got}\n--- batch golden ---\n{want}",
        golden_path.display()
    );
}

/// Runs a golden case through the **sharded** pipeline (zero-copy text
/// ingest, N worker threads, canonical merge) and renders the result.
fn run_case_sharded(name: &str, shards: usize) -> String {
    let log_path = golden_dir().join(format!("{name}.log"));
    let text = std::fs::read_to_string(&log_path)
        .unwrap_or_else(|e| panic!("{}: {e}", log_path.display()));
    let directive = parse_directive(&text, &log_path);
    let config = PipelineConfig::new(directive.access)
        .with_window(directive.window)
        .with_mode(Mode::Sharded(shards));
    let out = Pipeline::new(config)
        .expect("valid sharded config")
        .run(Source::text(&text))
        .expect("golden log must correlate sharded");
    for cag in &out.cags {
        cag.validate()
            .unwrap_or_else(|e| panic!("{name}: invalid sharded CAG {}: {e}", cag.id));
    }
    render(&out)
}

/// The sharded pipeline emits CAGs in canonical root order with
/// sequentially renumbered ids — the same canonical order the batch
/// run now emits directly. So the sharded rendering must byte-match
/// the batch run that itself byte-matches the checked-in `.golden`
/// file — and must be byte-identical for every shard count.
fn check_case_sharded(name: &str) {
    let (_, golden_path) = run_case(name); // asserts nothing; reuse paths
    let log_path = golden_dir().join(format!("{name}.log"));
    let text = std::fs::read_to_string(&log_path).unwrap();
    let directive = parse_directive(&text, &log_path);
    let records = parse_log(&text).unwrap();
    let config = PipelineConfig::new(directive.access).with_window(directive.window);
    let batch = Pipeline::new(config)
        .unwrap()
        .run(Source::records(records))
        .unwrap();
    let want = render(&batch);
    let one = run_case_sharded(name, 1);
    assert!(
        one == want,
        "{name}: sharded(1) diverged from canonicalized batch golden {}\n\
         --- sharded ---\n{one}\n--- batch (id order) ---\n{want}",
        golden_path.display()
    );
    for shards in [2, 4] {
        let got = run_case_sharded(name, shards);
        assert!(
            got == one,
            "{name}: sharded({shards}) bytes differ from sharded(1)\n\
             --- shards={shards} ---\n{got}\n--- shards=1 ---\n{one}"
        );
    }
}

fn check_case(name: &str) {
    let (got, golden_path) = run_case(name);
    if std::env::var_os("PT_GOLDEN_REGEN").is_some() {
        std::fs::write(&golden_path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run `PT_GOLDEN_REGEN=1 cargo test --test golden` to bless)",
            golden_path.display()
        )
    });
    assert!(
        got == want,
        "{name}: correlation output diverged from {}\n\
         --- got ---\n{got}\n--- want ---\n{want}\n\
         If this change is intentional, re-bless with \
         `PT_GOLDEN_REGEN=1 cargo test --test golden`.",
        golden_path.display()
    );
}

#[test]
fn golden_static_single() {
    check_case("static_single");
}

#[test]
fn golden_three_tier_single() {
    check_case("three_tier_single");
}

#[test]
fn golden_interleaved_chunked() {
    check_case("interleaved_chunked");
}

#[test]
fn golden_sim_c4_s5_seed11() {
    check_case("sim_c4_s5_seed11");
}

#[test]
fn golden_sim_c6_s6_seed42_noise() {
    check_case("sim_c6_s6_seed42_noise");
}

#[test]
fn golden_lb_2replica() {
    check_case("lb_2replica");
}

#[test]
fn golden_pooled_reuse() {
    check_case("pooled_reuse");
}

#[test]
fn golden_lossy_p01() {
    check_case("lossy_p01");
}

#[test]
fn golden_partial_capture() {
    check_case("partial_capture");
}

#[test]
fn golden_streaming_static_single() {
    check_case_streaming("static_single", Feed::PollEveryRecord);
}

#[test]
fn golden_streaming_three_tier_single() {
    check_case_streaming("three_tier_single", Feed::PollEveryRecord);
}

#[test]
fn golden_streaming_interleaved_chunked() {
    check_case_streaming("interleaved_chunked", Feed::PollEveryRecord);
}

#[test]
fn golden_streaming_sim_c4_s5_seed11() {
    check_case_streaming("sim_c4_s5_seed11", Feed::PushAllThenPoll);
}

#[test]
fn golden_streaming_sim_c6_s6_seed42_noise() {
    check_case_streaming("sim_c6_s6_seed42_noise", Feed::PushAllThenPoll);
}

#[test]
fn golden_streaming_lb_2replica() {
    check_case_streaming("lb_2replica", Feed::PushAllThenPoll);
}

#[test]
fn golden_streaming_pooled_reuse() {
    check_case_streaming("pooled_reuse", Feed::PushAllThenPoll);
}

#[test]
fn golden_streaming_lossy_p01() {
    check_case_streaming("lossy_p01", Feed::PushAllThenPoll);
}

#[test]
fn golden_streaming_partial_capture() {
    check_case_streaming("partial_capture", Feed::PushAllThenPoll);
}

#[test]
fn golden_gap_heavy() {
    check_case("gap_heavy");
}

#[test]
fn golden_bulk_mix_drop() {
    check_case("bulk_mix_drop");
}

#[test]
fn golden_streaming_bulk_mix_drop() {
    check_case_streaming("bulk_mix_drop", Feed::PushAllThenPoll);
}

#[test]
fn golden_sharded_bulk_mix_drop() {
    check_case_sharded("bulk_mix_drop");
}

#[test]
fn golden_streaming_gap_heavy() {
    check_case_streaming("gap_heavy", Feed::PushAllThenPoll);
}

#[test]
fn golden_sharded_gap_heavy() {
    check_case_sharded("gap_heavy");
}

#[test]
fn golden_sharded_static_single() {
    check_case_sharded("static_single");
}

#[test]
fn golden_sharded_three_tier_single() {
    check_case_sharded("three_tier_single");
}

#[test]
fn golden_sharded_interleaved_chunked() {
    check_case_sharded("interleaved_chunked");
}

#[test]
fn golden_sharded_sim_c4_s5_seed11() {
    check_case_sharded("sim_c4_s5_seed11");
}

#[test]
fn golden_sharded_sim_c6_s6_seed42_noise() {
    check_case_sharded("sim_c6_s6_seed42_noise");
}

#[test]
fn golden_sharded_lb_2replica() {
    check_case_sharded("lb_2replica");
}

#[test]
fn golden_sharded_pooled_reuse() {
    check_case_sharded("pooled_reuse");
}

#[test]
fn golden_sharded_lossy_p01() {
    check_case_sharded("lossy_p01");
}

#[test]
fn golden_sharded_partial_capture() {
    check_case_sharded("partial_capture");
}

#[test]
fn golden_multi_frontend_3() {
    check_case("multi_frontend_3");
}

#[test]
fn golden_streaming_multi_frontend_3() {
    check_case_streaming("multi_frontend_3", Feed::PushAllThenPoll);
}

#[test]
fn golden_sharded_multi_frontend_3() {
    check_case_sharded("multi_frontend_3");
}

/// Every case in tests/golden/ must be wired to a named #[test] above,
/// so a new corpus file cannot be silently skipped.
#[test]
fn golden_corpus_is_fully_covered() {
    let known = [
        "static_single",
        "three_tier_single",
        "interleaved_chunked",
        "sim_c4_s5_seed11",
        "sim_c6_s6_seed42_noise",
        "lb_2replica",
        "pooled_reuse",
        "lossy_p01",
        "partial_capture",
        "gap_heavy",
        "bulk_mix_drop",
        "multi_frontend_3",
    ];
    let mut found: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "log").then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    found.sort();
    let mut expected: Vec<String> = known.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(
        found, expected,
        "add a #[test] wrapper for each new golden case"
    );
}

/// PTBIN parity on every golden corpus: converting each `.log` to a
/// PTBIN file and correlating it via [`Source::binary_path`] renders
/// **byte-identical** output to correlating the original text file via
/// [`Source::path`] — in all three modes.
#[test]
fn golden_binary_source_matches_text_source_in_every_mode() {
    use precisetracer::tracer::binfmt;
    let mut cases = 0usize;
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden") {
        let log_path = entry.expect("dir entry").path();
        if log_path.extension().map(|e| e != "log").unwrap_or(true) {
            continue;
        }
        cases += 1;
        let name = log_path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&log_path).unwrap();
        let directive = parse_directive(&text, &log_path);
        let bin = binfmt::encode_text(&text, 2).expect("golden log must encode");
        let bin_path =
            std::env::temp_dir().join(format!("pt_golden_{name}_{}.ptbin", std::process::id()));
        std::fs::write(&bin_path, &bin).unwrap();
        let base = PipelineConfig::new(directive.access).with_window(directive.window);
        for mode in [
            Mode::Batch,
            Mode::Streaming,
            Mode::Sharded(3),
            Mode::Distributed {
                routers: 3,
                workers_per_router: 1,
            },
        ] {
            let from_text = Pipeline::new(base.clone().with_mode(mode))
                .unwrap()
                .run(Source::path(&log_path))
                .unwrap();
            let from_binary = Pipeline::new(base.clone().with_mode(mode))
                .unwrap()
                .run(Source::binary_path(&bin_path))
                .unwrap();
            assert!(
                render(&from_text) == render(&from_binary),
                "{name} {mode:?}: PTBIN correlation diverged from text"
            );
        }
        std::fs::remove_file(&bin_path).ok();
    }
    assert!(cases >= 10, "expected the full golden corpus, got {cases}");
}

/// Spill parity on every golden corpus: a run starved down to a 4 KiB
/// memory budget — which pages cold CAGs, orphan chains and dedup
/// coverage through the disk spill tier — renders **byte-identical**
/// output to the unbounded run, in all three modes and at several
/// shard counts. Spilling changes residency, never decisions.
#[test]
fn golden_spill_budget_matches_unbounded_in_every_mode() {
    let spill_dir = std::env::temp_dir();
    let mut cases = 0usize;
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden") {
        let log_path = entry.expect("dir entry").path();
        if log_path.extension().map(|e| e != "log").unwrap_or(true) {
            continue;
        }
        cases += 1;
        let name = log_path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&log_path).unwrap();
        let directive = parse_directive(&text, &log_path);
        let base = PipelineConfig::new(directive.access).with_window(directive.window);
        for mode in [
            Mode::Batch,
            Mode::Streaming,
            Mode::Sharded(2),
            Mode::Sharded(4),
            Mode::Distributed {
                routers: 2,
                workers_per_router: 2,
            },
        ] {
            let unbounded = Pipeline::new(base.clone().with_mode(mode))
                .unwrap()
                .run(Source::path(&log_path))
                .unwrap();
            let spilled = Pipeline::new(
                base.clone()
                    .with_mode(mode)
                    .with_memory_budget(4 << 10)
                    .with_spill_dir(&spill_dir),
            )
            .unwrap()
            .run(Source::path(&log_path))
            .unwrap();
            assert!(
                render(&unbounded) == render(&spilled),
                "{name} {mode:?}: spill-budgeted correlation diverged from unbounded"
            );
        }
    }
    assert!(cases >= 10, "expected the full golden corpus, got {cases}");
}

/// Distributed parity on every golden corpus: a two-router in-process
/// cluster (`--routers 2`) renders **byte-identical** output to
/// `Mode::Sharded(2)` — the cluster merge is canonical, so crossing a
/// process boundary must never change a single byte.
#[test]
fn golden_distributed_matches_sharded_on_every_corpus() {
    let mut cases = 0usize;
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden") {
        let log_path = entry.expect("dir entry").path();
        if log_path.extension().map(|e| e != "log").unwrap_or(true) {
            continue;
        }
        cases += 1;
        let name = log_path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&log_path).unwrap();
        let directive = parse_directive(&text, &log_path);
        let base = PipelineConfig::new(directive.access).with_window(directive.window);
        let sharded = Pipeline::new(base.clone().with_mode(Mode::Sharded(2)))
            .unwrap()
            .run(Source::text(&text))
            .unwrap();
        let dist = Pipeline::new(base.with_mode(Mode::Distributed {
            routers: 2,
            workers_per_router: 1,
        }))
        .unwrap()
        .run(Source::text(&text))
        .unwrap();
        assert!(
            render(&sharded) == render(&dist),
            "{name}: distributed(2x1) diverged from sharded(2)"
        );
    }
    assert!(cases >= 11, "expected the full golden corpus, got {cases}");
}

/// A budget tight enough to force actual page traffic must still give
/// recall 1.00: the big simulated corpus correlates byte-identically
/// under 4 KiB with a nonzero fault count — proof the spill tier was
/// truly exercised, not just enabled.
#[test]
fn golden_spill_faults_occur_without_recall_loss() {
    let log_path = golden_dir().join("sim_c6_s6_seed42_noise.log");
    let text = std::fs::read_to_string(&log_path).unwrap();
    let directive = parse_directive(&text, &log_path);
    let base = PipelineConfig::new(directive.access).with_window(directive.window);
    let unbounded = Pipeline::new(base.clone())
        .unwrap()
        .run(Source::path(&log_path))
        .unwrap();
    let spilled = Pipeline::new(base.with_memory_budget(4 << 10))
        .unwrap()
        .run(Source::path(&log_path))
        .unwrap();
    assert!(
        render(&unbounded) == render(&spilled),
        "tiny-budget spill run diverged from unbounded"
    );
    let faults = spilled.metrics.engine.spill_faults + spilled.metrics.spill_dedup_faults;
    assert!(
        faults > 0,
        "a 4 KiB budget on the sim corpus must fault spilled state back in"
    );
    assert!(
        spilled.metrics.engine.spilled_cags
            + spilled.metrics.engine.spilled_orphans
            + spilled.metrics.spilled_dedup_entries
            > 0,
        "a 4 KiB budget on the sim corpus must spill state out"
    );
}

/// "Same victims" in tier-1, not only in the benchmark: under budgets
/// that bind partly (between the 32 KiB where everything spillable
/// spills and the 96 KiB where nothing does) `bulk_mix_drop` pages out
/// and faults back exactly the objects the linear-scan spill tier did —
/// `(spilled_cags, spilled_dedup_entries, spill_faults,
/// spill_dedup_faults)` read on that commit. A different coldness order
/// or byte figure moves these counts. Coverage coldness follows the
/// order dedup decides records in: the batch run decides in source
/// order, where a per-host regrouped feed read 539 coverage entries.
/// The incremental feed polls between pushes, so coverage of live
/// channels spills and faults back.
#[test]
fn golden_spill_victim_counts_are_pinned() {
    let log_path = golden_dir().join("bulk_mix_drop.log");
    let text = std::fs::read_to_string(&log_path).unwrap();
    let directive = parse_directive(&text, &log_path);
    let base = PipelineConfig::new(directive.access).with_window(directive.window);
    let counts = |m: &CorrelatorMetrics| {
        (
            m.engine.spilled_cags,
            m.spilled_dedup_entries,
            m.engine.spill_faults,
            m.spill_dedup_faults,
        )
    };
    let batch = Pipeline::new(base.clone().with_memory_budget(64 << 10))
        .unwrap()
        .run(Source::path(&log_path))
        .unwrap();
    assert_eq!(counts(&batch.metrics), (43, 540, 43, 0));

    let mut session = Pipeline::new(base.with_memory_budget(48 << 10).with_mode(Mode::Streaming))
        .unwrap()
        .session()
        .unwrap();
    for (i, rec) in parse_log(&text).unwrap().into_iter().enumerate() {
        session.push(rec).unwrap();
        if i.is_multiple_of(64) {
            session.poll().unwrap();
        }
    }
    let streamed = session.finish().unwrap();
    assert_eq!(counts(&streamed.metrics), (61, 682, 62, 58));
    // Every fault is a read from the spill file; nothing is served
    // from memory the budget was supposed to have released.
    for m in [&batch.metrics, &streamed.metrics] {
        assert_eq!(m.spill_queue_hits, 0);
        assert!(m.spill_pages_read >= m.engine.spill_faults + m.spill_dedup_faults);
    }
}

/// Deciding `is_noise` before the swap search must discard the same
/// RECEIVEs and hand the engine the same candidates as searching first
/// did — only the search goes. The counts are the ones the
/// search-first ranker produced on this corpus (it crossed 824 slots
/// to get there).
#[test]
fn golden_noise_decision_counts_are_pinned() {
    let log_path = golden_dir().join("sim_c6_s6_seed42_noise.log");
    let text = std::fs::read_to_string(&log_path).unwrap();
    let directive = parse_directive(&text, &log_path);
    let out = Pipeline::new(PipelineConfig::new(directive.access).with_window(directive.window))
        .unwrap()
        .run(Source::path(&log_path))
        .unwrap();
    let r = &out.metrics.ranker;
    assert_eq!((r.noise_discards, r.candidates), (850, 1745));
    assert!(r.swaps < 824, "swaps {}", r.swaps);
}

/// The harness must actually be able to fail: perturbing a single
/// vertex size in a correlation result changes the canonical rendering.
#[test]
fn golden_rendering_detects_perturbation() {
    let log_path = golden_dir().join("three_tier_single.log");
    let text = std::fs::read_to_string(&log_path).unwrap();
    let directive = parse_directive(&text, &log_path);
    let records = parse_log(&text).unwrap();
    let config = PipelineConfig::new(directive.access).with_window(directive.window);
    let mut out = Pipeline::new(config)
        .unwrap()
        .run(Source::records(records))
        .unwrap();
    let baseline = render(&out);
    out.cags[0].vertices[0].size += 1;
    let perturbed = render(&out);
    assert_ne!(
        baseline, perturbed,
        "rendering must be sensitive to vertex data"
    );
}
