//! The simulated `TCP_TRACE` probe (§3.1).
//!
//! Emits one [`RawRecord`] per simulated kernel `tcp_sendmsg` /
//! `tcp_recvmsg` call on a **traced** node, timestamped with that node's
//! *local* (skewed, drifting) clock. Byte-for-byte the same schema the
//! paper's SystemTap module logs, so the correlator cannot tell the
//! difference.
//!
//! Records carry an opaque ground-truth tag (a globally unique record
//! id); the correlator never reads it, the accuracy harness does (§5.2).

use std::sync::Arc;

use simnet::{ClockModel, SimTime};
use tracer_core::raw::{RawOp, RawRecord};
use tracer_core::{EndpointV4, LocalTime};

/// A traced node's identity for the probe.
#[derive(Debug, Clone)]
pub struct ProbedNode {
    /// Hostname written into records.
    pub hostname: Arc<str>,
    /// The node's clock.
    pub clock: ClockModel,
}

/// Collects raw records per node, in local-timestamp order.
#[derive(Debug)]
pub struct ProbeSink {
    nodes: Vec<ProbedNode>,
    records: Vec<Vec<RawRecord>>,
    next_uid: u64,
    enabled: bool,
    total: u64,
    /// `TCP_TRACE v2` stream offset for the **next** logged record, set
    /// by the sniffer-based capture frontend via [`ProbeSink::set_seq`]
    /// and consumed by the next `log`/`log_retrans` call.
    next_seq: Option<u64>,
    /// Records the sniffer capture frontend missed entirely (partial
    /// capture): never logged, uid 0, excluded from ground truth.
    capture_dropped: u64,
}

impl ProbeSink {
    /// A sink for the given traced nodes.
    pub fn new(nodes: Vec<ProbedNode>, enabled: bool) -> Self {
        let records = nodes.iter().map(|_| Vec::new()).collect();
        ProbeSink {
            nodes,
            records,
            next_uid: 1,
            enabled,
            total: 0,
            next_seq: None,
            capture_dropped: 0,
        }
    }

    /// Whether the probe is armed (disabled probes cost nothing and log
    /// nothing — the Fig. 12/13 baseline).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Total records logged.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Arms the v2 `seq=` attribute for the next logged record (the
    /// sniffer lane's stream byte offset). One-shot: consumed by the
    /// next `log`/`log_retrans` call.
    pub fn set_seq(&mut self, seq: u64) {
        self.next_seq = Some(seq);
    }

    /// Counts a record the sniffer capture frontend missed entirely
    /// (every wire segment overlapping its byte range was dropped).
    pub fn note_capture_dropped(&mut self) {
        if self.enabled {
            self.capture_dropped += 1;
            // A dropped record must not leak its armed seq to the next.
            self.next_seq = None;
        }
    }

    /// Records lost to partial capture.
    pub fn capture_dropped(&self) -> u64 {
        self.capture_dropped
    }

    /// Logs one kernel send/receive on node `node_idx` and returns the
    /// record's ground-truth uid (0 when the probe is disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn log(
        &mut self,
        node_idx: usize,
        now: SimTime,
        program: &Arc<str>,
        pid: u32,
        tid: u32,
        op: RawOp,
        src: EndpointV4,
        dst: EndpointV4,
        size: u64,
    ) -> u64 {
        self.log_inner(node_idx, now, program, pid, tid, op, src, dst, size, false)
    }

    /// Logs the sniffer-lane record for a retransmitted (duplicate)
    /// byte range: same schema, marked with the `retrans` attribute the
    /// capture frontend derives from TCP sequence numbers.
    #[allow(clippy::too_many_arguments)]
    pub fn log_retrans(
        &mut self,
        node_idx: usize,
        now: SimTime,
        program: &Arc<str>,
        pid: u32,
        tid: u32,
        op: RawOp,
        src: EndpointV4,
        dst: EndpointV4,
        size: u64,
    ) -> u64 {
        self.log_inner(node_idx, now, program, pid, tid, op, src, dst, size, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn log_inner(
        &mut self,
        node_idx: usize,
        now: SimTime,
        program: &Arc<str>,
        pid: u32,
        tid: u32,
        op: RawOp,
        src: EndpointV4,
        dst: EndpointV4,
        size: u64,
        retrans: bool,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let node = &self.nodes[node_idx];
        let uid = self.next_uid;
        self.next_uid += 1;
        self.total += 1;
        self.records[node_idx].push(RawRecord {
            ts: LocalTime::from_nanos(node.clock.local_nanos(now)),
            hostname: Arc::clone(&node.hostname),
            program: Arc::clone(program),
            pid,
            tid,
            op,
            src,
            dst,
            size,
            tag: uid,
            retrans,
            seq: self.next_seq.take(),
        });
        uid
    }

    /// Drains all records, flattened (the correlator sorts each host's
    /// records by local time itself).
    pub fn into_records(self) -> Vec<RawRecord> {
        self.records.into_iter().flatten().collect()
    }

    /// Per-node record streams (already in local-time order).
    pub fn into_streams(self) -> Vec<(Arc<str>, Vec<RawRecord>)> {
        self.nodes
            .iter()
            .map(|n| Arc::clone(&n.hostname))
            .zip(self.records)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(s: &str) -> EndpointV4 {
        s.parse().unwrap()
    }

    fn sink(enabled: bool) -> ProbeSink {
        ProbeSink::new(
            vec![
                ProbedNode {
                    hostname: "web1".into(),
                    clock: ClockModel::with_offset_ms(100),
                },
                ProbedNode {
                    hostname: "db1".into(),
                    clock: ClockModel::synchronized(),
                },
            ],
            enabled,
        )
    }

    #[test]
    fn logs_with_local_clock() {
        let mut s = sink(true);
        let prog: Arc<str> = "httpd".into();
        let uid = s.log(
            0,
            SimTime(1_000),
            &prog,
            1,
            2,
            RawOp::Send,
            ep("10.0.0.1:80"),
            ep("9.9.9.9:55"),
            42,
        );
        assert_eq!(uid, 1);
        let recs = s.into_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ts, LocalTime::from_nanos(100_001_000));
        assert_eq!(recs[0].tag, 1);
        assert_eq!(&*recs[0].hostname, "web1");
    }

    #[test]
    fn disabled_probe_logs_nothing() {
        let mut s = sink(false);
        let prog: Arc<str> = "httpd".into();
        let uid = s.log(
            0,
            SimTime(1_000),
            &prog,
            1,
            2,
            RawOp::Send,
            ep("10.0.0.1:80"),
            ep("9.9.9.9:55"),
            42,
        );
        assert_eq!(uid, 0);
        assert_eq!(s.total(), 0);
        assert!(s.into_records().is_empty());
    }

    #[test]
    fn uids_are_unique_across_nodes() {
        let mut s = sink(true);
        let prog: Arc<str> = "x".into();
        let a = s.log(
            0,
            SimTime(1),
            &prog,
            1,
            1,
            RawOp::Send,
            ep("1.1.1.1:1"),
            ep("2.2.2.2:2"),
            1,
        );
        let b = s.log(
            1,
            SimTime(2),
            &prog,
            1,
            1,
            RawOp::Receive,
            ep("1.1.1.1:1"),
            ep("2.2.2.2:2"),
            1,
        );
        assert_ne!(a, b);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn per_node_streams_are_time_ordered() {
        let mut s = sink(true);
        let prog: Arc<str> = "x".into();
        for i in 0..10u64 {
            s.log(
                0,
                SimTime(i * 100),
                &prog,
                1,
                1,
                RawOp::Send,
                ep("1.1.1.1:1"),
                ep("2.2.2.2:2"),
                1,
            );
        }
        let streams = s.into_streams();
        let web = &streams[0].1;
        assert!(web.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
