//! The load generator of the serve legs: one writer thread that appends
//! each record to its host's file, open loop (on a fixed schedule,
//! whatever the daemon does) or as fast as it can.

use std::fs::File;
use std::io::Write;
use std::time::{Duration, Instant};

/// Longest sleep between two looks at the schedule.
const TICK: Duration = Duration::from_millis(1);

/// Records per write burst when not pacing.
const DRAIN_BURST: usize = 512;

/// When each record of a corpus is due at a fixed average rate: local
/// timestamps, skew and all, scaled so the whole corpus spans
/// `records / rate` seconds.
#[derive(Debug, Clone)]
pub struct Schedule {
    epoch: u64,
    /// Local-time span of the corpus.
    span: u64,
    /// Wall nanoseconds per nanosecond of local time.
    scale: f64,
    /// Record indexes in due order; ties keep corpus order, so each
    /// host's file stays in its local-time order.
    pub order: Vec<u32>,
}

impl Schedule {
    pub fn new(local_ts: &[u64], records_per_sec: f64) -> Schedule {
        let epoch = local_ts.iter().copied().min().unwrap_or(0);
        let span = local_ts.iter().copied().max().unwrap_or(0) - epoch;
        let wall_ns = local_ts.len() as f64 / records_per_sec * 1e9;
        let mut order: Vec<u32> = (0..local_ts.len() as u32).collect();
        order.sort_by_key(|&i| local_ts[i as usize]);
        Schedule {
            epoch,
            span,
            scale: if span == 0 {
                0.0
            } else {
                wall_ns / span as f64
            },
            order,
        }
    }

    /// Due time of the last record: how long the paced run generates.
    pub fn span(&self) -> Duration {
        self.due(self.epoch + self.span)
    }

    /// Due time, from the start of the run, of a record stamped
    /// `local_ts`.
    pub fn due(&self, local_ts: u64) -> Duration {
        Duration::from_nanos((local_ts.saturating_sub(self.epoch) as f64 * self.scale) as u64)
    }
}

/// One record of the generator's plan, in write order.
pub struct Planned<'a> {
    /// `None` writes as soon as the previous burst is out.
    pub due: Option<Duration>,
    pub file: usize,
    /// The rendered line, newline included.
    pub line: &'a [u8],
}

/// How far the generator had got at the end of one burst.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    pub at: Duration,
    pub bytes: u64,
}

#[derive(Debug)]
pub struct GenReport {
    pub started: Instant,
    pub wall: Duration,
    /// Per paced record, how long after its due time its burst was on
    /// disk. Empty when not pacing.
    pub late: Vec<Duration>,
    pub progress: Vec<Progress>,
}

/// Writes the plan into `files` from the calling thread. Every burst —
/// the records due by now, or the next [`DRAIN_BURST`] — reaches each
/// touched file in one `write`, so a tailer never waits on data the
/// generator still buffers.
pub fn generate(files: &mut [File], plan: &[Planned<'_>]) -> std::io::Result<GenReport> {
    let started = Instant::now();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); files.len()];
    let mut late = Vec::new();
    let mut progress = Vec::new();
    let (mut next, mut bytes) = (0usize, 0u64);
    while next < plan.len() {
        let now = started.elapsed();
        let first = next;
        while next < plan.len()
            && match plan[next].due {
                Some(due) => due <= now,
                None => next - first < DRAIN_BURST,
            }
        {
            bufs[plan[next].file].extend_from_slice(plan[next].line);
            next += 1;
        }
        if next == first {
            let wait = plan[next].due.expect("only paced records wait") - now;
            std::thread::sleep(wait.min(TICK));
            continue;
        }
        for (file, buf) in files.iter_mut().zip(&mut bufs) {
            if !buf.is_empty() {
                file.write_all(buf)?;
                bytes += buf.len() as u64;
                buf.clear();
            }
        }
        let at = started.elapsed();
        late.extend(
            plan[first..next]
                .iter()
                .filter_map(|p| p.due.map(|due| at.saturating_sub(due))),
        );
        progress.push(Progress { at, bytes });
    }
    Ok(GenReport {
        started,
        wall: started.elapsed(),
        late,
        progress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spreads_the_corpus_over_records_divided_by_rate() {
        // Two hosts, the second skewed 50 units ahead; 5 records at
        // 1000 rec/s last 5 ms whatever the local span is.
        let ts = [1_000, 1_050, 1_400, 1_450, 2_000];
        let s = Schedule::new(&ts, 1_000.0);
        assert_eq!(s.due(1_000), Duration::ZERO);
        assert_eq!(s.due(2_000), Duration::from_millis(5));
        assert_eq!(s.span(), Duration::from_millis(5));
        assert_eq!(s.due(1_400), Duration::from_millis(2));
        assert_eq!(s.due(999), Duration::ZERO, "before the epoch clamps");
        assert_eq!(s.order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn due_order_is_stable_and_handles_a_single_instant() {
        let s = Schedule::new(&[30, 10, 30, 20, 10], 100.0);
        assert_eq!(s.order, vec![1, 4, 3, 0, 2]);
        let flat = Schedule::new(&[7, 7, 7], 100.0);
        assert_eq!(flat.due(7), Duration::ZERO);
        assert_eq!(Schedule::new(&[], 100.0).order, Vec::<u32>::new());
    }

    #[test]
    fn paced_generation_honours_due_times_and_reports_lateness() {
        let dir = crate::out_dir().join(format!("test-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = vec![
            File::create(dir.join("a")).unwrap(),
            File::create(dir.join("b")).unwrap(),
        ];
        let lines: Vec<String> = (0..40).map(|i| format!("line {i}\n")).collect();
        let plan: Vec<Planned> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| Planned {
                due: Some(Duration::from_micros(500 * i as u64)),
                file: i % 2,
                line: l.as_bytes(),
            })
            .collect();
        let rep = generate(&mut files, &plan).unwrap();
        assert!(rep.wall >= Duration::from_micros(500 * 39));
        assert_eq!(rep.late.len(), 40);
        let a = std::fs::read_to_string(dir.join("a")).unwrap();
        let b = std::fs::read_to_string(dir.join("b")).unwrap();
        assert_eq!(a.lines().count() + b.lines().count(), 40);
        assert!(a.starts_with("line 0\nline 2\n") && b.starts_with("line 1\nline 3\n"));
        assert_eq!(
            rep.progress.last().unwrap().bytes,
            (a.len() + b.len()) as u64
        );
        // Unpaced: everything goes out in bursts, nothing is "late".
        let unpaced: Vec<Planned> = lines
            .iter()
            .map(|l| Planned {
                due: None,
                file: 0,
                line: l.as_bytes(),
            })
            .collect();
        let rep = generate(&mut files[..1], &unpaced).unwrap();
        assert!(rep.late.is_empty());
        assert_eq!(rep.progress.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
