//! Property tests of the correlation algorithm on synthetic activity
//! streams (independent of the RUBiS simulator): random request
//! populations with random message chunking, clock skews, interleavings
//! and window sizes must always correlate exactly.

use std::sync::Arc;

use proptest::prelude::*;
use tracer_core::prelude::*;
use tracer_core::ranker::RankerOptions;

/// A synthetic three-tier deployment: client → web:80 → app:9000 →
/// db:3306, one node per tier, with per-node clock offsets.
#[derive(Debug, Clone)]
struct Synth {
    /// Per-request start times (true time, ns).
    starts: Vec<u64>,
    /// Per-request backend query count (0 = static request).
    queries: Vec<u8>,
    /// Chunk pattern selector per request.
    chunks: Vec<u8>,
    /// Clock offsets for web/app/db in ns.
    offsets: [i64; 3],
    window_ms: u64,
}

fn synth_strategy() -> impl Strategy<Value = Synth> {
    (
        prop::collection::vec(0u64..2_000_000_000, 1..20),
        prop::collection::vec(0u8..4, 20),
        prop::collection::vec(0u8..8, 20),
        [-300_000_000i64..300_000_000, -300_000_000i64..300_000_000],
        1u64..1_000,
    )
        .prop_map(|(starts, queries, chunks, [o1, o2], window_ms)| Synth {
            starts,
            queries,
            chunks,
            offsets: [0, o1, o2],
            window_ms,
        })
}

const HOSTS: [&str; 3] = ["web", "app", "db"];
const PROGS: [&str; 3] = ["httpd", "java", "mysqld"];
const EPOCH: i64 = 10_000_000_000;

struct Gen {
    records: Vec<RawRecord>,
    truth: Vec<Vec<u64>>,
    uid: u64,
}

impl Gen {
    fn local(&self, node: usize, offsets: &[i64; 3], t: u64) -> LocalTime {
        LocalTime::from_nanos((t as i64 + EPOCH + offsets[node]).max(0) as u64)
    }

    #[allow(clippy::too_many_arguments)]
    fn rec(
        &mut self,
        req: usize,
        node: usize,
        offsets: &[i64; 3],
        t: u64,
        tid: u32,
        op: tracer_core::raw::RawOp,
        src: EndpointV4,
        dst: EndpointV4,
        size: u64,
    ) {
        let uid = self.uid;
        self.uid += 1;
        self.truth[req].push(uid);
        self.records.push(RawRecord {
            ts: self.local(node, offsets, t),
            hostname: Arc::from(HOSTS[node]),
            program: Arc::from(PROGS[node]),
            pid: 100 + node as u32,
            tid,
            op,
            src,
            dst,
            size,
            tag: uid,
            retrans: false,
            seq: None,
        });
    }

    /// Emits one message as `parts` send chunks and `parts` receive
    /// chunks (sizes re-split on the receive side).
    #[allow(clippy::too_many_arguments)]
    fn message(
        &mut self,
        req: usize,
        offsets: &[i64; 3],
        from: (usize, u32),
        to: (usize, u32),
        src: EndpointV4,
        dst: EndpointV4,
        t_send: u64,
        t_recv: u64,
        size: u64,
        parts: u8,
    ) {
        use tracer_core::raw::RawOp;
        let parts = u64::from(parts % 3) + 1;
        let part = (size / parts).max(1);
        let mut sent = 0;
        let mut i = 0;
        while sent < size {
            let n = part.min(size - sent);
            self.rec(
                req,
                from.0,
                offsets,
                t_send + i * 2_000,
                from.1,
                RawOp::Send,
                src,
                dst,
                n,
            );
            sent += n;
            i += 1;
        }
        // Receiver re-chunks differently: two uneven reads when possible.
        let first = if size > 3 { size / 3 } else { size };
        let mut read = 0;
        let mut j = 0;
        while read < size {
            let n = if j == 0 { first } else { size - read };
            self.rec(
                req,
                to.0,
                offsets,
                t_recv + j * 3_000,
                to.1,
                RawOp::Receive,
                src,
                dst,
                n,
            );
            read += n;
            j += 1;
        }
    }
}

/// Builds the synthetic log; each request uses distinct worker threads
/// and ports, respecting the paper's one-request-per-entity assumption.
fn build(s: &Synth) -> (Vec<RawRecord>, Vec<Vec<u64>>) {
    use tracer_core::raw::RawOp;
    let mut g = Gen {
        records: Vec::new(),
        truth: vec![Vec::new(); s.starts.len()],
        uid: 1,
    };
    let o = &s.offsets;
    let ep = |ip: &str, port: u16| EndpointV4::new(ip.parse().unwrap(), port);
    for (r, &t0) in s.starts.iter().enumerate() {
        let q = s.queries[r % s.queries.len()];
        let parts = s.chunks[r % s.chunks.len()];
        let tid = 1000 + r as u32;
        let client = ep("192.168.0.9", 20_000 + r as u16);
        let web_front = ep("10.0.0.1", 80);
        let web_out = ep("10.0.0.1", 30_000 + r as u16);
        let app_in = ep("10.0.0.2", 9_000);
        let app_out = ep("10.0.0.2", 31_000 + r as u16);
        let db_in = ep("10.0.0.3", 3_306);
        let mut t = t0;
        // BEGIN (client untraced: receive only).
        g.rec(r, 0, o, t, tid, RawOp::Receive, client, web_front, 300);
        t += 50_000;
        if q > 0 {
            // web → app request.
            g.message(
                r,
                o,
                (0, tid),
                (1, tid),
                web_out,
                app_in,
                t,
                t + 200_000,
                600,
                parts,
            );
            t += 400_000;
            for _ in 0..q {
                g.message(
                    r,
                    o,
                    (1, tid),
                    (2, tid),
                    app_out,
                    db_in,
                    t,
                    t + 150_000,
                    250,
                    parts,
                );
                t += 300_000;
                g.message(
                    r,
                    o,
                    (2, tid),
                    (1, tid),
                    db_in,
                    app_out,
                    t,
                    t + 150_000,
                    2_000 + 137 * r as u64,
                    parts.wrapping_add(1),
                );
                t += 300_000;
            }
            // app → web response.
            g.message(
                r,
                o,
                (1, tid),
                (0, tid),
                app_in,
                web_out,
                t,
                t + 200_000,
                5_000,
                parts,
            );
            t += 400_000;
        } else {
            t += 500_000;
        }
        // END: response to the client in two chunks.
        g.rec(r, 0, o, t, tid, RawOp::Send, web_front, client, 2_048);
        g.rec(
            r,
            0,
            o,
            t + 2_000,
            tid,
            RawOp::Send,
            web_front,
            client,
            1_024,
        );
    }
    let mut truth: Vec<Vec<u64>> = g.truth;
    for t in &mut truth {
        t.sort_unstable();
    }
    (g.records, truth)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Exactness on arbitrary synthetic populations: every request's
    /// records — and nothing else — form one CAG.
    #[test]
    fn synthetic_populations_correlate_exactly(s in synth_strategy()) {
        let (records, truth) = build(&s);
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), "10.0.0.3".parse().unwrap()],
        );
        let config = CorrelatorConfig::new(access)
            .with_window(Nanos::from_millis(s.window_ms));
        let out = Pipeline::new(config.into()).unwrap().run(Source::records(records)).unwrap();
        prop_assert_eq!(out.cags.len(), truth.len(), "{}", out.metrics.summary());
        let mut got: Vec<Vec<u64>> = out.cags.iter().map(|c| c.sorted_tags()).collect();
        got.sort();
        let mut want = truth;
        want.sort();
        prop_assert_eq!(got, want);
        for cag in &out.cags {
            prop_assert!(cag.validate().is_ok());
        }
    }

    /// Byte conservation: the merged SEND vertex sizes equal the sum of
    /// the original chunk sizes on every channel.
    #[test]
    fn merging_conserves_bytes(s in synth_strategy()) {
        let (records, _) = build(&s);
        let sent_total: u64 = records
            .iter()
            .filter(|r| matches!(r.op, tracer_core::raw::RawOp::Send))
            .map(|r| r.size)
            .sum();
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), "10.0.0.3".parse().unwrap()],
        );
        let config = CorrelatorConfig::new(access).with_window(Nanos::from_millis(10));
        let out = Pipeline::new(config.into()).unwrap().run(Source::records(records)).unwrap();
        let vertex_send_total: u64 = out
            .cags
            .iter()
            .flat_map(|c| c.vertices.iter())
            .filter(|v| v.ty.is_send_like())
            .map(|v| v.size)
            .sum();
        prop_assert_eq!(vertex_send_total, sent_total);
    }

    /// Ranker options that weaken the algorithm cannot *improve* on the
    /// full configuration, and the full configuration is always exact.
    #[test]
    fn swap_disabled_is_never_better(s in synth_strategy()) {
        let (records, truth) = build(&s);
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), "10.0.0.3".parse().unwrap()],
        );
        let base = CorrelatorConfig::new(access).with_window(Nanos::from_millis(s.window_ms));
        let weak = base.clone().with_ranker(RankerOptions { swap: false, ..base.ranker });
        let full = Pipeline::new(base.into()).unwrap().run(Source::records(records.clone())).unwrap();
        let weak_out = Pipeline::new(weak.into()).unwrap().run(Source::records(records)).unwrap();
        prop_assert_eq!(full.cags.len(), truth.len());
        prop_assert!(weak_out.cags.len() <= full.cags.len());
    }
}
