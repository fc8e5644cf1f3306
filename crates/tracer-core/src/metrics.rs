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

impl CorrelatorMetrics {
    /// Folds one shard's metrics into this aggregate: counts are sums,
    /// memory gauges are sums (shards are resident concurrently), and
    /// wall time is the maximum (shards run in parallel).
    pub fn absorb(&mut self, other: &CorrelatorMetrics) {
        self.records_in += other.records_in;
        self.filtered_out += other.filtered_out;
        self.retrans_dropped += other.retrans_dropped;
        self.seq_dedup_ranges += other.seq_dedup_ranges;
        self.v2_records += other.v2_records;
        self.seq_gaps += other.seq_gaps;
        self.orphan_dropped += other.orphan_dropped;
        self.ranker.absorb(&other.ranker);
        self.engine.absorb(&other.engine);
        self.cags_finished += other.cags_finished;
        self.cags_unfinished += other.cags_unfinished;
        self.spilled_dedup_entries += other.spilled_dedup_entries;
        self.spill_dedup_faults += other.spill_dedup_faults;
        self.spill_pages_written += other.spill_pages_written;
        self.spill_pages_read += other.spill_pages_read;
        self.spill_queue_hits += other.spill_queue_hits;
        self.peak_bytes += other.peak_bytes;
        self.final_bytes += other.final_bytes;
        self.wall = self.wall.max(other.wall);
    }

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
mod tests {
    use super::*;

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
