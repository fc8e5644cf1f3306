//! Correlation metrics: counters, wall time and the memory gauge used by
//! the Fig. 11 experiment.

use std::time::Duration;

use crate::engine::EngineCounters;
use crate::ranker::RankerCounters;

/// Everything PreciseTracer can report about one correlation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorrelatorMetrics {
    /// Raw records presented to the correlator.
    pub records_in: u64,
    /// Records dropped by the attribute filters (§4.3 way 1).
    pub filtered_out: u64,
    /// Duplicate byte-range records discarded at ingest (they would
    /// break Rule 1's byte exactness): v1 records dropped by the
    /// capture frontend's `retrans` marker plus v2 records dropped by
    /// `seq=` offset arithmetic.
    pub retrans_dropped: u64,
    /// Subset of [`CorrelatorMetrics::retrans_dropped`] decided by
    /// `TCP_TRACE v2` range arithmetic (fully covered `seq=` ranges)
    /// rather than by trusting the v1 marker.
    pub seq_dedup_ranges: u64,
    /// Records carrying the v2 `seq=` attribute, dropped or not.
    pub v2_records: u64,
    /// Partial-capture gaps observed at ingest: records whose `seq=`
    /// started above the channel's covered high-water mark — evidence
    /// of records the sniffer missed.
    pub seq_gaps: u64,
    /// Sharded mode only: orphan-chain records (noise chatter the batch
    /// engine would absorb into never-emitted orphan chains) dropped
    /// reader-side instead of being shipped to a worker. Zero in the
    /// single-instance modes.
    pub orphan_dropped: u64,
    /// Ranker counters (Rules 1/2, swaps, boosts, `is_noise` discards).
    pub ranker: RankerCounters,
    /// Engine counters (merges, matches, evictions).
    pub engine: EngineCounters,
    /// Completed causal paths output.
    pub cags_finished: u64,
    /// Deformed paths: still open at end of input (lost END
    /// activities).
    pub cags_unfinished: u64,
    /// Range-dedup coverage entries paged out by the spill tier.
    pub spilled_dedup_entries: u64,
    /// Spilled coverage entries faulted back on a channel's next record.
    pub spill_dedup_faults: u64,
    /// Pages written to the spill file.
    pub spill_pages_written: u64,
    /// Pages read back from the spill file on faults.
    pub spill_pages_read: u64,
    /// Always 0 since spill I/O became synchronous (there is no queue);
    /// kept because the benchmark and the PTDC metrics frame read it.
    pub spill_queue_hits: u64,
    /// Peak approximate resident bytes of ranker buffers + engine state
    /// (sampled once per candidate).
    pub peak_bytes: usize,
    /// Approximate resident bytes when correlation ended.
    pub final_bytes: usize,
    /// Wall-clock time from the correlator's creation to the end of the
    /// run. [`Pipeline::run`](crate::pipeline::Pipeline::run) creates it
    /// before parsing, so for text, path and PTBIN sources this includes
    /// parsing (but not the whole-file read) in every mode.
    pub wall: Duration,
}

crate::dist::counters! {
    /// Folds one shard's metrics into this aggregate: counts are sums,
    /// memory gauges are sums (shards are resident concurrently), and
    /// wall time is the maximum (shards run in parallel).
    CorrelatorMetrics {
        records_in: sum,
        filtered_out: sum,
        retrans_dropped: sum,
        seq_dedup_ranges: sum,
        v2_records: sum,
        seq_gaps: sum,
        orphan_dropped: sum,
        ranker: absorb,
        engine: absorb,
        cags_finished: sum,
        cags_unfinished: sum,
        spilled_dedup_entries: sum,
        spill_dedup_faults: sum,
        spill_pages_written: sum,
        spill_pages_read: sum,
        spill_queue_hits: sum,
        peak_bytes: sum,
        final_bytes: sum,
        wall: max,
    }
}

impl CorrelatorMetrics {
    /// Correlation throughput in candidates per second (0 when the run
    /// was too fast to measure).
    pub fn candidates_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ranker.candidates as f64 / secs
        }
    }

    /// A compact one-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "in={} filtered={} candidates={} cags={} unfinished={} noise={} swaps={} peak_mem={}B wall={:?}",
            self.records_in,
            self.filtered_out,
            self.ranker.candidates,
            self.cags_finished,
            self.cags_unfinished,
            self.ranker.noise_discards,
            self.ranker.swaps,
            self.peak_bytes,
            self.wall,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Metrics whose every field, ranker and engine included, holds a
    /// distinct nonzero value.
    pub(crate) fn every_field_distinct() -> CorrelatorMetrics {
        let mut last = 0;
        let mut n = || {
            last += 1;
            last
        };
        CorrelatorMetrics {
            records_in: n(),
            filtered_out: n(),
            retrans_dropped: n(),
            seq_dedup_ranges: n(),
            v2_records: n(),
            seq_gaps: n(),
            orphan_dropped: n(),
            ranker: RankerCounters {
                enqueued: n(),
                candidates: n(),
                rule1: n(),
                rule2: n(),
                swaps: n(),
                fetch_boosts: n(),
                noise_discards: n(),
                aged_settles: n(),
                forced_deliveries: n(),
                peak_buffered: n() as usize,
                rtt_samples: n(),
                window_updates: n(),
                window_clamps: n(),
                adaptive_window_ns: n(),
            },
            engine: EngineCounters {
                delivered: n(),
                cags_opened: n(),
                cags_finished: n(),
                send_merges: n(),
                begin_merges: n(),
                end_amends: n(),
                partial_receives: n(),
                unmatched_receives: n(),
                cross_message_receives: n(),
                unmatched_ends: n(),
                reuse_suppressed_edges: n(),
                orphan_vertices: n(),
                evicted_pendings: n(),
                evicted_orphans: n(),
                abandoned_cags: n(),
                pruned_contexts: n(),
                forced_seals: n(),
                gap_retired_pendings: n(),
                spilled_cags: n(),
                spilled_orphans: n(),
                spill_faults: n(),
                spilled_bytes: n(),
            },
            cags_finished: n(),
            cags_unfinished: n(),
            spilled_dedup_entries: n(),
            spill_dedup_faults: n(),
            spill_pages_written: n(),
            spill_pages_read: n(),
            spill_queue_hits: n(),
            peak_bytes: n() as usize,
            final_bytes: n() as usize,
            wall: Duration::from_nanos(n()),
        }
    }

    #[test]
    fn throughput_handles_zero_wall() {
        let m = CorrelatorMetrics::default();
        assert_eq!(m.candidates_per_sec(), 0.0);
    }

    #[test]
    fn throughput_computes() {
        let mut m = CorrelatorMetrics::default();
        m.ranker.candidates = 500;
        m.wall = Duration::from_millis(250);
        assert!((m.candidates_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn summary_mentions_key_fields() {
        let m = CorrelatorMetrics {
            records_in: 42,
            cags_finished: 7,
            ..Default::default()
        };
        let s = m.summary();
        assert!(s.contains("in=42"));
        assert!(s.contains("cags=7"));
    }
}
