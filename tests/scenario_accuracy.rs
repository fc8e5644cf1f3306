//! Accuracy regression gates for the scenario families beyond the
//! paper's fixed testbed: load-balanced multi-node tiers, connection
//! pooling with entity reuse, packet loss with retransmission, and the
//! multi-frontend deployment. Each test prints the measured
//! precision/recall on failure, so a regression is immediately
//! quantified.

use precisetracer::prelude::*;

/// Runs a preset and asserts precision/recall floors against ground
/// truth, reporting the measured numbers on failure.
fn assert_accuracy(name: &str, cfg: rubis::ExperimentConfig, window: Nanos, floor: f64) {
    let out = rubis::run(cfg);
    assert!(
        out.service.completed > 10,
        "{name}: scenario too small to be meaningful ({} requests)",
        out.service.completed
    );
    let (corr, acc) = out.correlate(window).expect("valid correlator config");
    assert!(
        acc.precision() >= floor && acc.recall() >= floor,
        "{name}: precision {:.4} / recall {:.4} below the {floor} floor \
         (correct={}, false={}, missing={}, logged={}; {})",
        acc.precision(),
        acc.recall(),
        acc.correct_paths,
        acc.false_paths,
        acc.missing_paths,
        acc.logged_requests,
        corr.metrics.summary()
    );
}

#[test]
fn lb_precision_recall_floor() {
    assert_accuracy(
        "lb",
        rubis::ExperimentConfig::lb(),
        Nanos::from_millis(10),
        0.99,
    );
}

#[test]
fn pooled_precision_recall_floor() {
    assert_accuracy(
        "pooled",
        rubis::ExperimentConfig::pooled(),
        Nanos::from_millis(10),
        0.99,
    );
}

#[test]
fn lossy_1pct_precision_recall_floor() {
    // Retransmit lag spreads matching receives hundreds of ms from
    // their sends, so the lossy gate uses a window covering the RTO
    // backoff.
    assert_accuracy(
        "lossy 1%",
        rubis::ExperimentConfig::lossy(),
        Nanos::from_millis(100),
        0.95,
    );
}

#[test]
fn partial_capture_precision_recall_floor() {
    // The partial-capture family (tentpole acceptance gate): the v2
    // sniffer lane at 2% per-segment capture drop must keep
    // precision/recall ≥ 0.95 — `seq=` range arithmetic lets ingest
    // and the session router absorb the records the sniffer missed.
    assert_accuracy(
        "partial 2%",
        rubis::ExperimentConfig::partial(),
        Nanos::from_millis(10),
        0.95,
    );
}

/// Order- and id-insensitive fingerprint of a CAG set: one sorted
/// string per CAG covering every vertex field. The sharded merge
/// renumbers ids into canonical root order, so content is compared
/// modulo id and stream position.
fn cag_fingerprints(cags: &[Cag]) -> Vec<String> {
    let mut v: Vec<String> = cags
        .iter()
        .map(|c| {
            c.vertices
                .iter()
                .map(|x| {
                    format!(
                        "{}|{}|{}|{}|{}|{}|{:?}|{:?}|{:?};",
                        x.ty,
                        x.ts,
                        x.ts_last,
                        x.ctx,
                        x.channel,
                        x.size,
                        x.tags,
                        x.ctx_parent,
                        x.msg_parent
                    )
                })
                .collect()
        })
        .collect();
    v.sort();
    v
}

#[test]
fn sharded_matches_batch_accuracy_on_new_scenarios() {
    // The sharded pipeline must reach the same accuracy as the batch
    // path on every new scenario — in particular on pooling, where
    // session routing must follow channel time order across entities,
    // and on partial capture, where range-based claims must absorb
    // records the sniffer missed — and, on every preset, the same CAG
    // content.
    for (name, cfg, window) in [
        ("lb", rubis::ExperimentConfig::lb(), Nanos::from_millis(10)),
        (
            "pooled",
            rubis::ExperimentConfig::pooled(),
            Nanos::from_millis(10),
        ),
        (
            "lossy",
            rubis::ExperimentConfig::lossy(),
            Nanos::from_millis(100),
        ),
        (
            "lossy_v2",
            rubis::ExperimentConfig::lossy_v2(),
            Nanos::from_millis(100),
        ),
        (
            "partial",
            rubis::ExperimentConfig::partial(),
            Nanos::from_millis(10),
        ),
    ] {
        let out = rubis::run(cfg);
        let (batch, batch_acc) = out.correlate(window).unwrap();
        let sharded = Pipeline::new(
            PipelineConfig::from(out.correlator_config(window)).with_mode(Mode::Sharded(4)),
        )
        .unwrap()
        .run(Source::records(out.records.clone()))
        .unwrap();
        let sharded_acc = out.truth.evaluate(&sharded.cags);
        assert_eq!(
            (
                sharded_acc.correct_paths,
                sharded_acc.false_paths,
                sharded_acc.missing_paths
            ),
            (
                batch_acc.correct_paths,
                batch_acc.false_paths,
                batch_acc.missing_paths
            ),
            "{name}: sharded accuracy diverged from batch"
        );
        let (b, s) = (
            cag_fingerprints(&batch.cags),
            cag_fingerprints(&sharded.cags),
        );
        if let Some(i) = (0..b.len().max(s.len())).find(|&i| b.get(i) != s.get(i)) {
            panic!(
                "{name}: sharded CAG content diverged from batch ({} vs {} CAGs); \
                 first difference at sorted CAG {i}:\n batch   {:?}\n sharded {:?}",
                b.len(),
                s.len(),
                b.get(i),
                s.get(i)
            );
        }
    }
}

#[test]
fn multi_frontend_batch_output_is_byte_identical_to_sharded() {
    // Two web frontends: batch used to assign ids in per-host BEGIN
    // delivery order while the sharded merge renumbered by global root
    // order — a documented id divergence. Batch output is now
    // canonicalized into the same root order, so even this scenario
    // must agree byte-for-byte across the two paths.
    let out = rubis::run(rubis::ExperimentConfig::multi_frontend());
    let (batch, acc) = out.correlate(Nanos::from_millis(10)).unwrap();
    assert!(acc.is_perfect(), "{acc:?}");
    let sharded = Pipeline::new(
        PipelineConfig::from(out.correlator_config(Nanos::from_millis(10)))
            .with_mode(Mode::Sharded(4)),
    )
    .unwrap()
    .run(Source::records(out.records.clone()))
    .unwrap();
    let sharded_acc = out.truth.evaluate(&sharded.cags);
    assert!(sharded_acc.is_perfect(), "{sharded_acc:?}");
    assert_eq!(
        format!("{:?}{:?}", batch.cags, batch.unfinished),
        format!("{:?}{:?}", sharded.cags, sharded.unfinished),
        "multi-frontend batch output diverged from the sharded merge"
    );
}

#[test]
fn multi_frontend_n_is_the_distributed_test_bed() {
    // Provenance: the checked-in distributed golden corpus is exactly
    // this preset's output, so `tests/golden/multi_frontend_3.log`
    // carries real ground truth, not a hand-edited approximation.
    let out = rubis::run(rubis::ExperimentConfig::multi_frontend_n(3));
    let mut text = String::new();
    for r in &out.records {
        text.push_str(&r.to_string());
        text.push('\n');
    }
    let checked_in = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/multi_frontend_3.log"
    ))
    .expect("checked-in distributed corpus");
    let body: String = checked_in
        .lines()
        .filter(|l| !l.starts_with("#!"))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_eq!(
        text, body,
        "tests/golden/multi_frontend_3.log no longer matches multi_frontend_n(3)"
    );

    // With BEGINs on three hosts, sessions straddle every router's
    // claim stream; the cluster must still be perfectly accurate and
    // byte-identical to the equivalent sharded run.
    let dist = Pipeline::new(
        PipelineConfig::from(out.correlator_config(Nanos::from_millis(10))).with_mode(
            Mode::Distributed {
                routers: 3,
                workers_per_router: 2,
            },
        ),
    )
    .unwrap()
    .run(Source::records(out.records.clone()))
    .unwrap();
    let acc = out.truth.evaluate(&dist.cags);
    assert!(acc.is_perfect(), "{acc:?}");
    let sharded = Pipeline::new(
        PipelineConfig::from(out.correlator_config(Nanos::from_millis(10)))
            .with_mode(Mode::Sharded(6)),
    )
    .unwrap()
    .run(Source::records(out.records.clone()))
    .unwrap();
    assert_eq!(
        format!("{:?}{:?}", dist.cags, dist.unfinished),
        format!("{:?}{:?}", sharded.cags, sharded.unfinished),
        "multi-frontend distributed output diverged from the sharded merge"
    );
}
