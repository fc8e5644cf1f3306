//! The four seeded corpora and their set-up.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use multitier::{ExperimentConfig, LbPolicy, Mix, NoiseSpec, Phases, TruthCollector};
use tracer_core::{AccessPointSpec, RawRecord};

use crate::json::Json;
use crate::oracle::fnv64;

/// How long a session each corpus simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `quick(8, 6)`-sized: exercises every leg in seconds; its numbers
    /// are not comparable with anything.
    Smoke,
    /// A quarter of the reference session — what `BENCHMARK.json` runs,
    /// so that set-up plus every leg, repeated, fits one timed run.
    Bench,
    /// The reference session of the ROADMAP (`ExperimentConfig::scale`,
    /// ≥ 10⁶ records on the noisy corpus).
    Full,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Smoke => "smoke",
            Size::Bench => "bench",
            Size::Full => "full",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the set (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Memory budget of the budget leg, per [`Size`] in declaration
    /// order. Each is the tightest power of two under which the leg
    /// stays within a few times the unbudgeted batch leg; `bulk_v2`
    /// needs more because its range-dedup coverage grows with every
    /// connection and is itself spillable state (tighter budgets push
    /// one repetition past a minute at the reference size).
    budget_bytes: [usize; 3],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scale_noisy",
        why: "ROADMAP reference: ssh + untraced-MySQL noise, a fifth of records are is_noise discards, so ranker candidate selection dominates",
        budget_bytes: [1 << 20; 3],
    },
    Workload {
        name: "scale_clean",
        why: "same service without noise: ranker never swaps, ingest and engine dominate; the only corpus that seals live today",
        budget_bytes: [1 << 20; 3],
    },
    Workload {
        name: "bulk_v2",
        why: "TCP_TRACE v2 sniffer capture, 1% loss: seq= on every record, so RangeDedup, range claims and segment merging work on every record and dedup coverage feeds the spill tier; served from one capture file",
        budget_bytes: [1 << 20, 3500 << 10, 8 << 20],
    },
    Workload {
        name: "topo_mix",
        why: "3 web x 2 app x 2 db replicas with 15% writes: 7 hosts/queues/tailers, sessions over 3 frontends, ten times the patterns",
        budget_bytes: [1 << 20; 3],
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn budget_bytes(&self, size: Size) -> usize {
        self.budget_bytes[size as usize]
    }

    /// The simulated session. Every workload starts from
    /// `ExperimentConfig::scale()`: 1000 clients, 100 ms think time,
    /// 50 ms clock skew, 250 JBoss threads.
    pub fn experiment(&self, seed: u64, size: Size) -> ExperimentConfig {
        let mut c = ExperimentConfig::scale();
        c.seed = seed;
        let mut steady = 120;
        match self.name {
            "scale_noisy" => {}
            "scale_clean" => c.noise = NoiseSpec::none(),
            "bulk_v2" => {
                c.noise = NoiseSpec::none();
                c.mix = Mix::bulk_browse();
                // Zero skew and a sniffer that drops nothing: with any
                // skew the session router loses nine paths in ten on a
                // v2 corpus today, and capture gaps leave requests no
                // mode can trace — which ones, and whether live sealing
                // stalls behind them, changes with the seed — while a
                // workload on which requests fail cannot carry bounds.
                // Both are read on twins in the traced pass, as
                // `shard.v2_skew_recall` and `engine.v2_gap_recall`.
                c.spec = c
                    .spec
                    .with_skew_ms(0)
                    .with_sniffer_capture(0.0)
                    .with_loss(0.01);
            }
            "topo_mix" => {
                c.noise = NoiseSpec::none();
                c.mix = Mix::default_mix();
                c.spec = c
                    .spec
                    .with_replicas(0, 3, LbPolicy::RoundRobin)
                    .with_replicas(1, 2, LbPolicy::RoundRobin)
                    .with_replicas(2, 2, LbPolicy::LeastConnections);
                steady = 90;
            }
            other => unreachable!("unknown workload {other}"),
        }
        c.phases = match size {
            Size::Full => Phases::quick(steady),
            Size::Bench => Phases::quick(steady / 4),
            Size::Smoke => {
                c.clients = 8;
                Phases::quick(6)
            }
        };
        c
    }
}

/// What identifies a corpus: a drift after a simulator change shows
/// here before any number is compared.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workload: &'static str,
    pub seed: u64,
    pub size: Size,
    pub nproc: usize,
    pub p: usize,
    pub records: u64,
    pub logged_requests: u64,
    pub hosts: usize,
    pub v2_records: u64,
    pub text_bytes: u64,
    pub ptbin_bytes: u64,
    pub text_fnv64: u64,
    pub capture_dropped: u64,
    /// Filled in from the reference run: duplicate ranges dropped and
    /// capture gaps seen at ingest.
    pub duplicate_ranges: u64,
    pub seq_gaps: u64,
}

impl Manifest {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::str(format!("{:#x}", self.seed))),
            ("size", Json::str(self.size.name())),
            ("nproc", Json::num(self.nproc as f64)),
            ("p", Json::num(self.p as f64)),
            ("records", Json::num(self.records as f64)),
            ("logged_requests", Json::num(self.logged_requests as f64)),
            ("hosts", Json::num(self.hosts as f64)),
            ("v2_records", Json::num(self.v2_records as f64)),
            ("text_bytes", Json::num(self.text_bytes as f64)),
            ("ptbin_bytes", Json::num(self.ptbin_bytes as f64)),
            ("text_fnv64", Json::str(format!("{:016x}", self.text_fnv64))),
            ("duplicate_ranges", Json::num(self.duplicate_ranges as f64)),
            ("seq_gaps", Json::num(self.seq_gaps as f64)),
            ("capture_dropped", Json::num(self.capture_dropped as f64)),
        ])
    }
}

/// One generated corpus: the tagged records in memory, and the same
/// records — tags lost — as a text log and a PTBIN file.
pub struct Corpus {
    pub manifest: Manifest,
    /// Tagged records in capture order.
    pub records: Vec<RawRecord>,
    pub truth: TruthCollector,
    pub access: AccessPointSpec,
    /// Distinct hostnames, sorted, and each record's index into them.
    pub hosts: Vec<String>,
    pub host_of: Vec<u8>,
    /// Whether a sniffer captured the corpus (TCP_TRACE v2). The serve
    /// legs then tail one file in capture order, as a sniffer writes
    /// it, instead of one file per host. On v2 a RECEIVE matches
    /// whatever part of its SEND's byte range has arrived, so per-host
    /// tailers that deliver a sender's records after its peer's
    /// mis-assemble the path (a fifth of them at the paced rate, how
    /// many depending on thread timing); in capture order every SEND
    /// precedes its RECEIVE and none does. The per-host reading is
    /// `serve.v2_split_recall` in the traced pass.
    pub one_capture_file: bool,
    /// The rendered log and where each record's line (newline
    /// included) lies in it.
    pub text: String,
    pub lines: Vec<(usize, usize)>,
    pub text_path: PathBuf,
    pub ptbin_path: PathBuf,
    pub ptbin_fnv64: u64,
}

impl Corpus {
    /// Simulates, renders, encodes and writes one corpus; returns it
    /// with the seconds that took (`setup_s`). Reading the files back
    /// for the checksums also leaves them in the page cache.
    pub fn build(
        workload: &'static Workload,
        seed: u64,
        size: Size,
        (nproc, p): (usize, usize),
        dir: &Path,
    ) -> std::io::Result<(Corpus, f64)> {
        let experiment = workload.experiment(seed, size);
        let one_capture_file = experiment.spec.capture.is_some();
        let started = Instant::now();
        let out = multitier::run(experiment);
        let mut text = String::with_capacity(out.records.len() * 80);
        let mut lines = Vec::with_capacity(out.records.len());
        for r in &out.records {
            let start = text.len();
            let _ = writeln!(text, "{r}");
            lines.push((start, text.len()));
        }
        let ptbin = tracer_core::binfmt::encode_text(&text, p)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let text_path = dir.join("corpus.log");
        let ptbin_path = dir.join("corpus.ptbin");
        std::fs::write(&text_path, &text)?;
        std::fs::write(&ptbin_path, &ptbin)?;
        let setup_s = started.elapsed().as_secs_f64();
        drop(ptbin);

        let access = out.access_spec();
        let mut hosts: Vec<String> = Vec::new();
        for r in &out.records {
            if !hosts.iter().any(|h| **h == *r.hostname) {
                hosts.push(r.hostname.to_string());
            }
        }
        hosts.sort();
        let host_index = |r: &RawRecord| hosts.iter().position(|h| **h == *r.hostname);
        let host_of = out
            .records
            .iter()
            .map(|r| host_index(r).expect("hosts were collected from these records") as u8)
            .collect();
        let manifest = Manifest {
            workload: workload.name,
            seed,
            size,
            nproc,
            p,
            records: out.records.len() as u64,
            logged_requests: 0,
            hosts: hosts.len(),
            v2_records: out.records.iter().filter(|r| r.seq.is_some()).count() as u64,
            text_bytes: text.len() as u64,
            ptbin_bytes: std::fs::metadata(&ptbin_path)?.len(),
            text_fnv64: fnv64(&std::fs::read(&text_path)?),
            capture_dropped: out.capture_dropped,
            duplicate_ranges: 0,
            seq_gaps: 0,
        };
        let ptbin_fnv64 = fnv64(&std::fs::read(&ptbin_path)?);
        Ok((
            Corpus {
                manifest,
                records: out.records,
                truth: out.truth,
                access,
                hosts,
                host_of,
                one_capture_file,
                text,
                lines,
                text_path,
                ptbin_path,
                ptbin_fnv64,
            },
            setup_s,
        ))
    }

    pub fn line(&self, record: usize) -> &[u8] {
        let (start, end) = self.lines[record];
        &self.text.as_bytes()[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_its_experiment_at_every_size() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(Workload::named(w.name).is_some());
            let full = w.experiment(7, Size::Full);
            let bench = w.experiment(7, Size::Bench);
            let smoke = w.experiment(7, Size::Smoke);
            assert_eq!((full.seed, full.clients, smoke.clients), (7, 1000, 8));
            assert!(bench.phases.total() < full.phases.total());
            assert!(smoke.phases.total() < bench.phases.total());
            assert!(w.budget_bytes(Size::Smoke) <= w.budget_bytes(Size::Full));
        }
        assert!(Workload::named("nope").is_none());
    }
}
