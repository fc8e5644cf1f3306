//! Helpers for the `repro` binary, which regenerates every table and
//! figure of the paper's evaluation: the standard experiment
//! configuration per scale, a run-and-correlate runner, and table
//! formatting. Speed is measured by `ptbench` (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use multitier::{ExperimentConfig, ExperimentOutput, NoiseSpec, Phases};
use simnet::Dist;
use tracer_core::{CorrelationOutput, Nanos};

/// Scale of an experiment sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper-scale sessions (2 min up, 7.5 min runtime, 1 min down).
    Paper,
    /// Reduced sessions for smoke runs and CI.
    Quick,
}

impl Scale {
    /// Session phases for this scale.
    pub fn phases(self) -> Phases {
        match self {
            Scale::Paper => Phases::paper(),
            Scale::Quick => Phases::quick(40),
        }
    }

    /// Client counts for sweeps (Figs. 8/12/13/16).
    pub fn client_sweep(self) -> Vec<usize> {
        match self {
            Scale::Paper => (1..=10).map(|i| i * 100).collect(),
            Scale::Quick => vec![100, 300, 500, 700, 900],
        }
    }

    /// Think time matching the paper's ~10k requests per 100 clients.
    pub fn think(self) -> Dist {
        Dist::Exp { mean: 6.5e9 }
    }
}

/// Builds the standard experiment configuration for a scale.
pub fn experiment(scale: Scale, clients: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(clients);
    cfg.phases = scale.phases();
    cfg.think = scale.think();
    cfg
}

/// An experiment run plus its correlation and accuracy results.
pub struct RunAndTrace {
    /// The simulated session.
    pub out: ExperimentOutput,
    /// Correlation result.
    pub corr: CorrelationOutput,
    /// Path accuracy vs ground truth.
    pub accuracy: multitier::AccuracyReport,
    /// Wall-clock correlation time (the paper's "correlation time").
    pub correlation_time: std::time::Duration,
}

/// Runs and correlates with a window.
pub fn run_and_trace(cfg: ExperimentConfig, window: Nanos) -> RunAndTrace {
    let out = multitier::run(cfg);
    let t = Instant::now();
    let (corr, accuracy) = out.correlate(window).expect("valid correlator config");
    let correlation_time = t.elapsed();
    RunAndTrace {
        out,
        corr,
        accuracy,
        correlation_time,
    }
}

/// A noise spec matching the paper's ~200K noise activities per session
/// at the given scale.
pub fn paper_noise(scale: Scale) -> NoiseSpec {
    let secs = scale.phases().total().as_secs_f64();
    NoiseSpec {
        ssh_msgs_per_sec: 30.0,
        mysql_msgs_per_sec: (200_000.0 / secs) - 30.0,
    }
}

/// Renders one table row with fixed-width columns.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a header + separator.
pub fn header(cols: &[&str]) -> String {
    let h = row(&cols.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep = "-".repeat(h.len());
    format!("{h}\n{sep}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::Paper.phases().total() > Scale::Quick.phases().total());
        assert_eq!(Scale::Paper.client_sweep().len(), 10);
    }

    #[test]
    fn table_helpers_align() {
        let h = header(&["a", "b"]);
        assert!(h.contains('a'));
        assert!(h.lines().count() == 2);
        let r = row(&["1".into(), "2".into()]);
        assert_eq!(r.len(), 14 + 1 + 14);
    }

    #[test]
    fn noise_spec_totals_about_200k() {
        let n = paper_noise(Scale::Paper);
        let secs = Scale::Paper.phases().total().as_secs_f64();
        let total = (n.ssh_msgs_per_sec + n.mysql_msgs_per_sec) * secs;
        assert!((total - 200_000.0).abs() < 1_000.0, "total {total}");
    }
}
