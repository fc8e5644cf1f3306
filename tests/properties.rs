//! Property-based tests over the whole pipeline: for arbitrary
//! workloads, seeds, topology parameters and windows within the paper's
//! assumptions, tracing must stay exact and CAGs well-formed.

use precisetracer::prelude::*;
use precisetracer::tracer::binfmt;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = rubis::ExperimentConfig> {
    (
        2usize..24,      // clients
        6u64..14,        // steady seconds
        0u64..4,         // mix selector (0-1 browse, 2-3 default)
        any::<u64>(),    // seed
        0i64..400,       // skew ms
        prop::bool::ANY, // noise
        1u64..200,       // window ms (chosen later)
    )
        .prop_map(|(clients, secs, mix, seed, skew, noise, _w)| {
            let mut cfg = rubis::ExperimentConfig::quick(clients, secs);
            if mix >= 2 {
                cfg.mix = rubis::Mix::default_mix();
            }
            cfg.seed = seed;
            cfg.spec = cfg.spec.with_skew_ms(skew);
            if noise {
                cfg.noise = rubis::NoiseSpec {
                    ssh_msgs_per_sec: 30.0,
                    mysql_msgs_per_sec: 60.0,
                };
            }
            cfg
        })
}

/// Runs a record batch through the [`Pipeline`] facade in the given
/// mode (the sole public entry point since the shim removal).
fn run_mode(cfg: &CorrelatorConfig, mode: Mode, records: Vec<RawRecord>) -> CorrelationOutput {
    Pipeline::new(PipelineConfig::from(cfg.clone()).with_mode(mode))
        .unwrap()
        .run(Source::records(records))
        .unwrap()
}

/// Sorted ground-truth tag sets of a CAG collection (order-insensitive
/// content fingerprint).
fn tag_sets(cags: &[Cag]) -> Vec<Vec<u64>> {
    let mut t: Vec<Vec<u64>> = cags.iter().map(|c| c.sorted_tags()).collect();
    t.sort();
    t
}

/// Sorted (pattern key, count) census of a CAG collection.
fn pattern_census(cags: &[Cag]) -> Vec<(String, u64)> {
    let agg = PatternAggregator::from_cags(cags);
    let mut p: Vec<(String, u64)> = agg
        .patterns()
        .iter()
        .map(|p| (p.key.to_string(), p.count))
        .collect();
    p.sort();
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The paper's headline: 100% path accuracy, no false positives, no
    /// false negatives — for any workload within the assumptions.
    #[test]
    fn accuracy_is_always_perfect(cfg in arb_config(), window_ms in 1u64..200) {
        let out = rubis::run(cfg);
        let (corr, acc) = out.correlate(Nanos::from_millis(window_ms)).unwrap();
        prop_assert!(acc.is_perfect(), "{acc:?} ({})", corr.metrics.summary());
        // Structural invariants hold for every produced CAG.
        for cag in &corr.cags {
            prop_assert!(cag.validate().is_ok());
        }
    }

    /// Total servicing latency always equals the sum of attributed
    /// component latencies (the partition property behind Fig. 15).
    #[test]
    fn component_latencies_partition_total(seed in any::<u64>()) {
        let mut cfg = rubis::ExperimentConfig::quick(6, 6);
        cfg.seed = seed;
        let out = rubis::run(cfg);
        let (corr, _) = out.correlate(Nanos::from_millis(10)).unwrap();
        for cag in &corr.cags {
            let total = cag.total_latency().unwrap();
            let sum: u64 = cag
                .component_latencies()
                .values()
                .map(|n| n.as_nanos())
                .sum();
            prop_assert_eq!(total.as_nanos(), sum, "CAG {}", cag.id);
        }
    }

    /// The correlator is deterministic: same log, same window → same
    /// paths.
    #[test]
    fn correlation_is_deterministic(seed in any::<u64>()) {
        let mut cfg = rubis::ExperimentConfig::quick(5, 6);
        cfg.seed = seed;
        let out = rubis::run(cfg);
        let (a, _) = out.correlate(Nanos::from_millis(10)).unwrap();
        let (b, _) = out.correlate(Nanos::from_millis(10)).unwrap();
        let ta: Vec<Vec<u64>> = a.cags.iter().map(|c| c.sorted_tags()).collect();
        let tb: Vec<Vec<u64>> = b.cags.iter().map(|c| c.sorted_tags()).collect();
        prop_assert_eq!(ta, tb);
    }

    /// Streaming-first invariant, part 1: for any record permutation
    /// *within a host* (per-host logs may arrive shuffled, e.g.
    /// concatenated per-CPU buffers), pushing the whole shuffled log
    /// through the streaming API and finishing produces exactly the
    /// batch path's CAGs on the *original* log — same count, same
    /// ground-truth tag sets, same pattern keys and counts. The
    /// insertion-sorting staging queues absorb the permutation.
    #[test]
    fn streaming_equals_batch_under_within_host_permutation(
        seed in any::<u64>(),
        noise in prop::bool::ANY,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut cfg = rubis::ExperimentConfig::quick(6, 6);
        cfg.seed = seed;
        if noise {
            cfg.noise = rubis::NoiseSpec {
                ssh_msgs_per_sec: 20.0,
                mysql_msgs_per_sec: 40.0,
            };
        }
        let out = rubis::run(cfg);
        let batch = run_mode(
            &out.correlator_config(Nanos::from_millis(10)),
            Mode::Batch,
            out.records.clone(),
        );

        // Shuffle the records of each host among that host's log slots.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let mut per_host: std::collections::BTreeMap<String, Vec<RawRecord>> =
            std::collections::BTreeMap::new();
        for r in &out.records {
            per_host.entry(r.hostname.to_string()).or_default().push(r.clone());
        }
        for records in per_host.values_mut() {
            for i in (1..records.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                records.swap(i, j);
            }
        }
        let mut cursors: std::collections::BTreeMap<String, usize> =
            per_host.keys().map(|h| (h.clone(), 0)).collect();
        let permuted: Vec<RawRecord> = out
            .records
            .iter()
            .map(|r| {
                let c = cursors.get_mut(&*r.hostname).unwrap();
                let rec = per_host[&*r.hostname][*c].clone();
                *c += 1;
                rec
            })
            .collect();

        let mut sc = Pipeline::new(
            PipelineConfig::from(out.correlator_config(Nanos::from_millis(10)))
                .with_mode(Mode::Streaming),
        )
        .unwrap()
        .session()
        .unwrap();
        for rec in permuted {
            sc.push(rec).unwrap();
        }
        let mut streamed = sc.poll().unwrap();
        let fin = sc.finish().unwrap();
        streamed.extend(fin.cags);

        prop_assert_eq!(streamed.len(), batch.cags.len());
        prop_assert_eq!(fin.unfinished.len(), batch.unfinished.len());
        prop_assert_eq!(tag_sets(&streamed), tag_sets(&batch.cags));
        prop_assert_eq!(pattern_census(&streamed), pattern_census(&batch.cags));
    }

    /// Streaming-first invariant, part 2: with per-host streams in local
    /// time order (what a real probe emits), ANY cross-host arrival
    /// interleaving and ANY poll cadence yield the batch path's CAGs —
    /// same tag sets, same pattern keys and counts. Only the emission
    /// *order* may differ, because an online ranker cannot see records
    /// that have not arrived yet.
    #[test]
    fn streaming_content_invariant_under_arrival_interleaving(
        seed in any::<u64>(),
        chunk in 1usize..48,
        noise in prop::bool::ANY,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut cfg = rubis::ExperimentConfig::quick(6, 6);
        cfg.seed = seed;
        if noise {
            cfg.noise = rubis::NoiseSpec {
                ssh_msgs_per_sec: 20.0,
                mysql_msgs_per_sec: 40.0,
            };
        }
        let out = rubis::run(cfg);
        let batch = run_mode(
            &out.correlator_config(Nanos::from_millis(10)),
            Mode::Batch,
            out.records.clone(),
        );

        // Random merge of the per-host streams (each stream kept in
        // local-time order).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517cc1b727220a95);
        let mut per_host: Vec<std::collections::VecDeque<RawRecord>> = {
            let mut m: std::collections::BTreeMap<String, std::collections::VecDeque<RawRecord>> =
                std::collections::BTreeMap::new();
            let mut sorted = out.records.clone();
            sorted.sort_by_key(|r| r.ts);
            for r in sorted {
                m.entry(r.hostname.to_string()).or_default().push_back(r);
            }
            m.into_values().collect()
        };
        let mut sc = Pipeline::new(
            PipelineConfig::from(out.correlator_config(Nanos::from_millis(10)))
                .with_mode(Mode::Streaming),
        )
        .unwrap()
        .session()
        .unwrap();
        let mut streamed = Vec::new();
        let mut pushed = 0usize;
        while !per_host.is_empty() {
            let pick = rng.gen_range(0..per_host.len());
            let rec = per_host[pick].pop_front().unwrap();
            if per_host[pick].is_empty() {
                per_host.swap_remove(pick);
            }
            sc.push(rec).unwrap();
            pushed += 1;
            if pushed.is_multiple_of(chunk) {
                streamed.extend(sc.poll().unwrap());
            }
        }
        let fin = sc.finish().unwrap();
        streamed.extend(fin.cags);

        prop_assert_eq!(streamed.len(), batch.cags.len());
        prop_assert_eq!(tag_sets(&streamed), tag_sets(&batch.cags));
        prop_assert_eq!(pattern_census(&streamed), pattern_census(&batch.cags));
    }

    /// Sharded invariant, part 1: the sharded pipeline's output is
    /// **byte-identical for every shard count** (the canonical merge
    /// erases the partition), and its CAG content equals the
    /// single-threaded batch path — same count, tag sets and patterns,
    /// with the additive counters summing exactly.
    #[test]
    fn sharded_output_equals_single_shard_for_any_shard_count(
        seed in any::<u64>(),
        shards_a in 2usize..9,
        shards_b in 2usize..9,
        noise in prop::bool::ANY,
    ) {
        let mut cfg = rubis::ExperimentConfig::quick(6, 6);
        cfg.seed = seed;
        if noise {
            cfg.noise = rubis::NoiseSpec {
                ssh_msgs_per_sec: 20.0,
                mysql_msgs_per_sec: 40.0,
            };
        }
        let out = rubis::run(cfg);
        let config = out.correlator_config(Nanos::from_millis(10));
        let batch = run_mode(&config, Mode::Batch, out.records.clone());
        let single = run_mode(&config, Mode::Sharded(1), out.records.clone());
        let render = |o: &CorrelationOutput| {
            format!("{:?}\n{:?}", o.cags, o.unfinished)
        };
        for shards in [shards_a, shards_b] {
            let sharded = run_mode(&config, Mode::Sharded(shards), out.records.clone());
            // Determinism across shard counts: full byte equality,
            // ids and stream order included.
            prop_assert_eq!(
                render(&sharded),
                render(&single),
                "shards={} diverged from shards=1",
                shards
            );
            // Content equality with the single-threaded batch path.
            prop_assert_eq!(sharded.cags.len(), batch.cags.len());
            prop_assert_eq!(tag_sets(&sharded.cags), tag_sets(&batch.cags));
            prop_assert_eq!(pattern_census(&sharded.cags), pattern_census(&batch.cags));
            // Additive counters sum exactly across shards.
            prop_assert_eq!(sharded.metrics.records_in, batch.metrics.records_in);
            prop_assert_eq!(sharded.metrics.filtered_out, batch.metrics.filtered_out);
            prop_assert_eq!(sharded.metrics.cags_finished, batch.metrics.cags_finished);
            prop_assert_eq!(sharded.metrics.cags_unfinished, batch.metrics.cags_unfinished);
            prop_assert_eq!(
                sharded.metrics.ranker.noise_discards,
                batch.metrics.ranker.noise_discards
            );
            for cag in &sharded.cags {
                prop_assert!(cag.validate().is_ok());
            }
        }
    }

    /// Distributed invariant: a cluster of `R` router peers hosting
    /// `W` shard workers each — claims crossing a process-style wire
    /// boundary with incremental string interning — is byte-identical
    /// to single-process `Mode::Sharded(R × W)`, over random seeds,
    /// router counts and workers-per-router.
    #[test]
    fn distributed_output_equals_sharded_for_any_topology(
        seed in any::<u64>(),
        routers_ix in 0usize..3,
        wpr in 1usize..4,
        noise in prop::bool::ANY,
    ) {
        let routers = [1usize, 2, 4][routers_ix];
        let mut cfg = rubis::ExperimentConfig::quick(6, 6);
        cfg.seed = seed;
        if noise {
            cfg.noise = rubis::NoiseSpec {
                ssh_msgs_per_sec: 20.0,
                mysql_msgs_per_sec: 40.0,
            };
        }
        let out = rubis::run(cfg);
        let config = out.correlator_config(Nanos::from_millis(10));
        let sharded = run_mode(&config, Mode::Sharded(routers * wpr), out.records.clone());
        let dist = run_mode(
            &config,
            Mode::Distributed { routers, workers_per_router: wpr },
            out.records.clone(),
        );
        let render = |o: &CorrelationOutput| {
            format!("{:?}\n{:?}", o.cags, o.unfinished)
        };
        prop_assert_eq!(
            render(&dist),
            render(&sharded),
            "distributed({}x{}) diverged from sharded({})",
            routers, wpr, routers * wpr
        );
        // The absorbed cluster metrics must match the sharded merge
        // exactly (wall time aside).
        prop_assert_eq!(dist.metrics.records_in, sharded.metrics.records_in);
        prop_assert_eq!(dist.metrics.filtered_out, sharded.metrics.filtered_out);
        prop_assert_eq!(dist.metrics.cags_finished, sharded.metrics.cags_finished);
        prop_assert_eq!(dist.metrics.cags_unfinished, sharded.metrics.cags_unfinished);
        prop_assert_eq!(
            dist.metrics.ranker.noise_discards,
            sharded.metrics.ranker.noise_discards
        );
        prop_assert_eq!(dist.metrics.engine.delivered, sharded.metrics.engine.delivered);
    }

    /// Sharded invariant, part 2: the streaming push path — records
    /// arriving in any per-host-ordered interleaving, in arbitrary
    /// chunk sizes with flushes between chunks — produces exactly the
    /// one-shot batch entry point's bytes. Session routing is a pure
    /// function of the per-entity sequences and per-channel claim
    /// FIFOs, so arrival interleaving cannot change the partition.
    #[test]
    fn sharded_streaming_chunks_equal_one_shot(
        seed in any::<u64>(),
        shards in 1usize..6,
        chunk in 1usize..4096,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut cfg = rubis::ExperimentConfig::quick(5, 6);
        cfg.seed = seed;
        let out = rubis::run(cfg);
        let config = out.correlator_config(Nanos::from_millis(10));
        let oneshot = run_mode(&config, Mode::Sharded(shards), out.records.clone());

        // Random cross-host interleaving, per-host order preserved.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545f4914f6cdd1d);
        let mut per_host: Vec<std::collections::VecDeque<RawRecord>> = {
            let mut m: std::collections::BTreeMap<String, std::collections::VecDeque<RawRecord>> =
                std::collections::BTreeMap::new();
            let mut sorted = out.records.clone();
            sorted.sort_by_key(|r| r.ts);
            for r in sorted {
                m.entry(r.hostname.to_string()).or_default().push_back(r);
            }
            m.into_values().collect()
        };
        let mut sc = Pipeline::new(PipelineConfig::from(config).with_mode(Mode::Sharded(shards)))
            .unwrap()
            .session()
            .unwrap();
        let mut pushed = 0usize;
        while !per_host.is_empty() {
            let pick = rng.gen_range(0..per_host.len());
            let rec = per_host[pick].pop_front().unwrap();
            if per_host[pick].is_empty() {
                per_host.swap_remove(pick);
            }
            sc.push(rec).unwrap();
            pushed += 1;
            if pushed.is_multiple_of(chunk) {
                sc.poll().unwrap();
            }
        }
        let streamed = sc.finish().unwrap();
        prop_assert_eq!(
            format!("{:?}{:?}", streamed.cags, streamed.unfinished),
            format!("{:?}{:?}", oneshot.cags, oneshot.unfinished)
        );
        prop_assert_eq!(streamed.metrics.records_in, oneshot.metrics.records_in);
        prop_assert_eq!(
            streamed.metrics.ranker.noise_discards,
            oneshot.metrics.ranker.noise_discards
        );
    }

    /// Retransmission invariance: for any lossy-run log, deduplicating
    /// the sniffer-marked retransmitted byte-ranges before correlation
    /// yields exactly the CAG set of correlating the raw log — the
    /// correlator's ingest dedup is equivalent to the standalone
    /// pre-pass, in every mode (batch and sharded).
    #[test]
    fn retransmission_dedup_is_correlation_invariant(
        seed in any::<u64>(),
        loss_millis in 5u64..25, // 0.5%..2.5% per-segment loss
    ) {
        let mut cfg = rubis::ExperimentConfig::lossy_at(loss_millis as f64 / 1000.0);
        cfg.seed = seed;
        cfg.clients = 6;
        cfg.phases = rubis::Phases::quick(6);
        let out = rubis::run(cfg);
        let config = out.correlator_config(Nanos::from_millis(100));
        let raw = run_mode(&config, Mode::Batch, out.records.clone());
        let deduped_records = dedup_retransmissions(out.records.clone());
        prop_assert!(
            deduped_records.len() <= out.records.len(),
            "dedup never adds records"
        );
        let deduped = run_mode(&config, Mode::Batch, deduped_records.clone());
        prop_assert_eq!(raw.cags.len(), deduped.cags.len());
        prop_assert_eq!(tag_sets(&raw.cags), tag_sets(&deduped.cags));
        prop_assert_eq!(pattern_census(&raw.cags), pattern_census(&deduped.cags));
        prop_assert_eq!(
            raw.metrics.retrans_dropped,
            (out.records.len() - deduped_records.len()) as u64
        );
        // The sharded reader performs the same dedup.
        let sharded = run_mode(&config, Mode::Sharded(3), out.records.clone());
        prop_assert_eq!(sharded.metrics.retrans_dropped, raw.metrics.retrans_dropped);
        prop_assert_eq!(tag_sets(&sharded.cags), tag_sets(&raw.cags));
    }

    /// Shard-count byte-equality holds on all three new scenario
    /// families: replicated tiers behind a load balancer, connection
    /// pooling with entity reuse, and lossy links with retransmission.
    #[test]
    fn sharded_bytes_are_shard_count_invariant_on_new_scenarios(
        seed in any::<u64>(),
        scenario in 0usize..3,
        shards in 2usize..6,
    ) {
        let mut cfg = match scenario {
            0 => rubis::ExperimentConfig::lb(),
            1 => rubis::ExperimentConfig::pooled(),
            _ => rubis::ExperimentConfig::lossy(),
        };
        cfg.seed = seed;
        cfg.clients = 8;
        cfg.phases = rubis::Phases::quick(6);
        let out = rubis::run(cfg);
        let config = out.correlator_config(Nanos::from_millis(100));
        let single = run_mode(&config, Mode::Sharded(1), out.records.clone());
        let sharded = run_mode(&config, Mode::Sharded(shards), out.records.clone());
        prop_assert_eq!(
            format!("{:?}{:?}", sharded.cags, sharded.unfinished),
            format!("{:?}{:?}", single.cags, single.unfinished),
            "scenario {} shards {} diverged", scenario, shards
        );
        prop_assert_eq!(sharded.metrics.records_in, single.metrics.records_in);
        prop_assert_eq!(sharded.metrics.retrans_dropped, single.metrics.retrans_dropped);
    }

    /// TCP_TRACE v2 render→parse round-trip: any record — any
    /// combination of the `seq=` and `retrans` trailing attributes —
    /// renders to a line that parses back to the identical record
    /// (modulo the text format's out-of-band ground-truth tag).
    #[test]
    fn v2_record_render_parse_roundtrip(
        ts in any::<u64>(),
        ids in any::<u64>(),
        flags in 0u8..8,
        a in any::<u32>(),
        b in any::<u32>(),
        ports in any::<u32>(),
        size in any::<u64>(),
        seq_val in any::<u64>(),
    ) {
        let (pid, tid) = ((ids >> 32) as u32, ids as u32);
        let (pa, pb) = ((ports >> 16) as u16, ports as u16);
        let send = flags & 1 != 0;
        let retrans = flags & 2 != 0;
        let seq = (flags & 4 != 0).then_some(seq_val);
        let rec = RawRecord {
            ts: LocalTime::from_nanos(ts),
            hostname: "node-1".into(),
            program: "prog.x".into(),
            pid,
            tid,
            op: if send { RawOp::Send } else { RawOp::Receive },
            src: EndpointV4::new(std::net::Ipv4Addr::from(a), pa),
            dst: EndpointV4::new(std::net::Ipv4Addr::from(b), pb),
            size,
            tag: 0,
            retrans,
            seq,
        };
        let line = rec.to_string();
        let parsed = RawRecord::parse_line(&line).expect("rendered line must parse");
        prop_assert_eq!(parsed, rec);
    }

    /// The Pipeline facade's modes agree on the partial-capture family:
    /// sharded output is byte-identical for every shard count **and to
    /// the batch mode** (batch CAGs are canonicalized into the sharded
    /// merge's root order), and streaming CAG content (tags, patterns)
    /// matches too — capture gaps must not desynchronize the session
    /// router.
    #[test]
    fn pipeline_modes_agree_on_partial_capture(
        seed in any::<u64>(),
        drop_millis in 0u64..40, // 0%..4% per-segment capture drop
        shards in 2usize..6,
    ) {
        let mut cfg = rubis::ExperimentConfig::partial_at(drop_millis as f64 / 1000.0);
        cfg.seed = seed;
        cfg.clients = 6;
        cfg.phases = rubis::Phases::quick(6);
        let out = rubis::run(cfg);
        let base = PipelineConfig::from(out.correlator_config(Nanos::from_millis(10)));
        let batch = Pipeline::new(base.clone()).unwrap()
            .run(Source::records(out.records.clone())).unwrap();
        let streaming = Pipeline::new(base.clone().with_mode(Mode::Streaming)).unwrap()
            .run(Source::records(out.records.clone())).unwrap();
        let single = Pipeline::new(base.clone().with_mode(Mode::Sharded(1))).unwrap()
            .run(Source::records(out.records.clone())).unwrap();
        let sharded = Pipeline::new(base.clone().with_mode(Mode::Sharded(shards))).unwrap()
            .run(Source::records(out.records.clone())).unwrap();
        prop_assert_eq!(
            format!("{:?}{:?}", sharded.cags, sharded.unfinished),
            format!("{:?}{:?}", single.cags, single.unfinished),
            "shard count must not change bytes"
        );
        prop_assert_eq!(
            format!("{:?}{:?}", sharded.cags, sharded.unfinished),
            format!("{:?}{:?}", batch.cags, batch.unfinished),
            "batch and sharded must agree byte-for-byte"
        );
        prop_assert_eq!(tag_sets(&streaming.cags), tag_sets(&batch.cags));
        prop_assert_eq!(pattern_census(&streaming.cags), pattern_census(&batch.cags));
        prop_assert_eq!(sharded.metrics.v2_records, batch.metrics.v2_records);
        prop_assert_eq!(sharded.metrics.seq_gaps, batch.metrics.seq_gaps);
    }

    /// Source order is the one order the single-instance modes see: in
    /// a feed where each record is displaced by up to 3 ms (per-host
    /// capture buffers merged late), batch and streaming deduplicate in
    /// source order, sort each node the same way and give the same
    /// bytes — on a noisy v1 corpus and on a lossy v2 one whose
    /// duplicate ranges the dedup must drop.
    #[test]
    fn displaced_feeds_give_batch_and_streaming_the_same_bytes(
        seed in any::<u64>(),
        v2 in prop::bool::ANY,
    ) {
        let (mut cfg, window) = if v2 {
            (rubis::ExperimentConfig::lossy_v2(), Nanos::from_millis(100))
        } else {
            let mut cfg = rubis::ExperimentConfig::quick(6, 6);
            cfg.noise = rubis::NoiseSpec {
                ssh_msgs_per_sec: 20.0,
                mysql_msgs_per_sec: 40.0,
            };
            (cfg, Nanos::from_millis(10))
        };
        cfg.seed = seed;
        let out = rubis::run(cfg);
        let mut lcg = seed | 1;
        let mut feed: Vec<(u64, RawRecord)> = out
            .records
            .iter()
            .map(|r| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (r.ts.as_nanos() + (lcg >> 33) % 3_000_000, r.clone())
            })
            .collect();
        feed.sort_by_key(|(at, _)| *at);
        let feed: Vec<RawRecord> = feed.into_iter().map(|(_, r)| r).collect();
        let config = out.correlator_config(window);
        let batch = run_mode(&config, Mode::Batch, feed.clone());
        let streaming = run_mode(&config, Mode::Streaming, feed);
        prop_assert_eq!(
            format!("{:?}{:?}", batch.cags, batch.unfinished),
            format!("{:?}{:?}", streaming.cags, streaming.unfinished)
        );
        prop_assert_eq!(batch.metrics.retrans_dropped, streaming.metrics.retrans_dropped);
        prop_assert!(!v2 || batch.metrics.seq_dedup_ranges > 0, "no duplicate ranges");
    }

    /// Parallel ingest is observationally identical to the sequential
    /// parser for arbitrary generated corpora, thread counts and v1/v2
    /// mixes: the chunked scanner must agree record-for-record with
    /// `parse_log_iter`, including when records straddle chunk
    /// boundaries.
    #[test]
    fn parallel_ingest_equals_sequential_parse(
        seed in any::<u64>(),
        threads in 2usize..9,
        drop_millis in 0u64..30,
    ) {
        let mut cfg = rubis::ExperimentConfig::partial_at(drop_millis as f64 / 1000.0);
        cfg.seed = seed;
        cfg.clients = 4;
        cfg.phases = rubis::Phases::quick(4);
        let out = rubis::run(cfg);
        let mut text = String::new();
        for r in &out.records {
            text.push_str(&r.to_string());
            text.push('\n');
        }
        let refs = parse_refs_parallel(&text, threads).unwrap();
        let seq_refs: Vec<RawRecordRef<'_>> =
            parse_log_iter(&text).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(refs, seq_refs);
    }

    /// PTBIN round-trip: rendering a corpus to TCP_TRACE text, encoding
    /// it to PTBIN and decoding back renders **byte-identical** text —
    /// for v1-only, retrans-marked and seq-carrying v2 corpora, any
    /// seed, and any encode/decode thread count.
    #[test]
    fn ptbin_text_roundtrip_is_byte_identical(
        seed in any::<u64>(),
        scenario in 0usize..3,
        enc_threads in 1usize..9,
        dec_threads in 1usize..9,
    ) {
        let mut cfg = match scenario {
            0 => rubis::ExperimentConfig::partial_at(0.02), // v2 seq= lane
            1 => rubis::ExperimentConfig::lossy(),          // v1 retrans markers
            _ => rubis::ExperimentConfig::quick(4, 4),      // plain v1
        };
        cfg.seed = seed;
        cfg.clients = 4;
        cfg.phases = rubis::Phases::quick(4);
        let out = rubis::run(cfg);
        let mut text = String::new();
        for r in &out.records {
            text.push_str(&r.to_string());
            text.push('\n');
        }
        let bin = binfmt::encode_text(&text, enc_threads).unwrap();
        let decoded = binfmt::decode_refs_parallel(&bin, dec_threads).unwrap();
        let mut back = String::with_capacity(text.len());
        for r in &decoded {
            back.push_str(&r.to_string());
            back.push('\n');
        }
        prop_assert_eq!(back, text);
    }

    /// Isomorphic classification is stable: every CAG of the same request
    /// type with the same query count lands in the same pattern.
    #[test]
    fn patterns_are_stable_across_seeds(seed in any::<u64>()) {
        let mut cfg = rubis::ExperimentConfig::quick(8, 8);
        cfg.seed = seed;
        let out = rubis::run(cfg);
        let (corr, _) = out.correlate(Nanos::from_millis(10)).unwrap();
        let mut agg = PatternAggregator::new();
        agg.add_all(&corr.cags);
        // Browse_Only has exactly 4 structural classes.
        prop_assert!(agg.len() <= 4, "got {} patterns", agg.len());
    }
}

/// Batch-vs-sharded *byte* equality on gap-damaged corpora, swept over
/// 100 seeds: the canonicalized batch emission order (root sort key +
/// sequential ids) must coincide with the sharded merge for every
/// capture-gap pattern, not just the proptest sample.
#[test]
fn batch_equals_sharded_bytes_on_gap_damaged_corpora_for_100_seeds() {
    for seed in 0u64..100 {
        let drop = 0.001 + (seed % 37) as f64 * 0.001; // 0.1%..3.7%
        let mut cfg = rubis::ExperimentConfig::partial_at(drop);
        cfg.seed = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed);
        cfg.clients = 4;
        cfg.phases = rubis::Phases::quick(4);
        let out = rubis::run(cfg);
        let base = PipelineConfig::from(out.correlator_config(Nanos::from_millis(10)));
        let shards = 2 + (seed % 4) as usize;
        let batch = Pipeline::new(base.clone())
            .unwrap()
            .run(Source::records(out.records.clone()))
            .unwrap();
        let sharded = Pipeline::new(base.with_mode(Mode::Sharded(shards)))
            .unwrap()
            .run(Source::records(out.records.clone()))
            .unwrap();
        assert_eq!(
            format!("{:?}{:?}", batch.cags, batch.unfinished),
            format!("{:?}{:?}", sharded.cags, sharded.unfinished),
            "seed {seed} (drop {drop}, shards {shards}): batch and sharded bytes diverged"
        );
    }
}

/// The same byte equality along a noise axis: ssh + untraced-MySQL
/// rates × sliding windows from 2 ms to 10 s × seeds. The sharded
/// reader never runs the ranker — it drops a RECEIVE whose channel has
/// no SEND as an orphan at routing time — so it is the independent
/// oracle for "discarding these RECEIVEs at the stuck point, before the
/// swap search, changes no output byte", including the order in which
/// the deliverable activities behind them reach the engine.
#[test]
fn batch_equals_sharded_bytes_under_noise_for_every_window() {
    for (ssh, mysql) in [(20.0, 40.0), (0.0, 200.0), (150.0, 15.0)] {
        for window_ms in [2u64, 10, 500, 10_000] {
            for seed in 0u64..4 {
                let mut cfg = rubis::ExperimentConfig::quick(5, 4);
                cfg.seed = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(window_ms);
                cfg.noise = rubis::NoiseSpec {
                    ssh_msgs_per_sec: ssh,
                    mysql_msgs_per_sec: mysql,
                };
                let out = rubis::run(cfg);
                let config = out.correlator_config(Nanos::from_millis(window_ms));
                let shards = 1 + (seed % 4) as usize;
                let batch = run_mode(&config, Mode::Batch, out.records.clone());
                let sharded = run_mode(&config, Mode::Sharded(shards), out.records);
                let case = format!(
                    "ssh {ssh} mysql {mysql} window {window_ms} ms seed {seed} shards {shards}"
                );
                assert!(batch.metrics.ranker.noise_discards > 0, "{case}: no noise");
                assert_eq!(
                    batch.metrics.ranker.noise_discards, sharded.metrics.ranker.noise_discards,
                    "{case}: discard counts diverged"
                );
                assert_eq!(
                    format!("{:?}{:?}", batch.cags, batch.unfinished),
                    format!("{:?}{:?}", sharded.cags, sharded.unfinished),
                    "{case}: batch and sharded bytes diverged"
                );
            }
        }
    }
}

/// The tentpole's dedup re-expression, pinned on the lossy corpus
/// (`lossy_p01`'s scenario family captured through the v2 sniffer
/// lane): deduplicating by `seq=` range arithmetic produces output
/// **byte-identical** to trusting the v1 `retrans` marker — offset
/// analysis at ingest drops exactly the records the capture frontend
/// would have flagged. Checked for the preset seed and two others, in
/// batch and sharded mode.
#[test]
fn seq_range_dedup_matches_marker_dedup_on_lossy_corpus() {
    for seed in [0x105_5e5u64, 1, 42] {
        let mut cfg = rubis::ExperimentConfig::lossy_v2();
        cfg.seed = seed;
        let out = rubis::run(cfg);
        let marked = out.records.iter().filter(|r| r.retrans).count() as u64;
        assert!(marked > 0, "seed {seed:#x}: no retransmissions to dedup");
        // Marker run: strip every seq= so ingest falls back to v1.
        let stripped: Vec<RawRecord> = out
            .records
            .iter()
            .cloned()
            .map(|mut r| {
                r.seq = None;
                r
            })
            .collect();
        for mode in [Mode::Batch, Mode::Sharded(3)] {
            let p = Pipeline::new(
                PipelineConfig::from(out.correlator_config(Nanos::from_millis(100)))
                    .with_mode(mode),
            )
            .unwrap();
            let by_range = p.run(Source::records(out.records.clone())).unwrap();
            let by_marker = p.run(Source::records(stripped.clone())).unwrap();
            assert_eq!(
                format!("{:?}{:?}", by_range.cags, by_range.unfinished),
                format!("{:?}{:?}", by_marker.cags, by_marker.unfinished),
                "seed {seed:#x} {mode:?}: range dedup diverged from marker dedup"
            );
            assert_eq!(by_range.metrics.retrans_dropped, marked);
            assert_eq!(by_range.metrics.seq_dedup_ranges, marked);
            assert_eq!(by_marker.metrics.retrans_dropped, marked);
            assert_eq!(by_marker.metrics.seq_dedup_ranges, 0);
        }
    }
}

/// The standalone pre-pass and the in-pipeline ingest dedup stay
/// equivalent for v2 corpora: correlating `dedup_retransmissions`'s
/// output equals correlating the raw v2 log.
#[test]
fn v2_dedup_prepass_equals_ingest_dedup() {
    let out = rubis::run(rubis::ExperimentConfig::lossy_v2());
    let p = Pipeline::new(PipelineConfig::from(
        out.correlator_config(Nanos::from_millis(100)),
    ))
    .unwrap();
    let raw = p.run(Source::records(out.records.clone())).unwrap();
    let pre = dedup_retransmissions(out.records.clone());
    assert!(pre.len() < out.records.len());
    let deduped = p.run(Source::records(pre)).unwrap();
    assert_eq!(tag_sets(&raw.cags), tag_sets(&deduped.cags));
    assert_eq!(raw.cags.len(), deduped.cags.len());
}

/// Torn-tail robustness (live sources): feeding a corpus to the
/// incremental ingest primitives in arbitrary chunkings reproduces the
/// one-shot parse exactly — text via `split_complete_lines` + carry,
/// PTBIN via `binfmt::StreamDecoder` — so a tailer polling a growing
/// file can cut reads anywhere (mid-line, mid-cell, mid-header) and
/// never lose or corrupt a record.
#[test]
fn incremental_reparse_equals_one_shot_for_arbitrary_chunkings() {
    use precisetracer::tracer::ingest::split_complete_lines;
    use precisetracer::tracer::raw::parse_log;

    let out = rubis::run(rubis::ExperimentConfig::quick(4, 4));
    let text: String = out.records.iter().map(|r| format!("{r}\n")).collect();
    let bin = binfmt::encode_text(&text, 1).unwrap();
    let want_text = parse_log(&text).unwrap();

    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    let mut next_chunk = |max: usize| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) as usize % max + 1
    };

    for max_chunk in [1usize, 7, 53, 256, 4096] {
        // Text: carry the torn tail across read boundaries.
        let bytes = text.as_bytes();
        let (mut got, mut carry, mut i) = (Vec::new(), Vec::<u8>::new(), 0usize);
        while i < bytes.len() {
            let n = next_chunk(max_chunk).min(bytes.len() - i);
            carry.extend_from_slice(&bytes[i..i + n]);
            i += n;
            let (done, torn) = split_complete_lines(&carry);
            let complete = std::str::from_utf8(done).unwrap();
            got.extend(parse_log(complete).unwrap());
            carry = torn.to_vec();
        }
        got.extend(parse_log(std::str::from_utf8(&carry).unwrap()).unwrap());
        assert_eq!(got, want_text, "text max_chunk={max_chunk}");

        // Binary: the stream decoder buffers torn fragments itself.
        let (mut got, mut dec, mut i) = (Vec::new(), binfmt::StreamDecoder::new(), 0usize);
        while i < bin.len() {
            let n = next_chunk(max_chunk).min(bin.len() - i);
            dec.push(&bin[i..i + n]);
            got.extend(dec.drain().unwrap());
            i += n;
        }
        assert_eq!(got, want_text, "binary max_chunk={max_chunk}");
        assert!(dec.is_clean(), "binary max_chunk={max_chunk}");
    }
}
