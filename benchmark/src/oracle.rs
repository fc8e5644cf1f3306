//! Ground truth that survives tag-less files.
//!
//! Text and PTBIN drop `RawRecord::tag`, so `TruthCollector::evaluate`
//! scores every file-fed run 0. The oracle therefore learns, from runs
//! over the tagged in-memory records, the tag-free *fingerprint* of
//! every path whose record set equals a logged request's, and scores a
//! timed run by looking its paths up: a request is traced correctly
//! when the output holds a path with a known-correct fingerprint for
//! it. A fingerprint covers every vertex's type, timestamps, context,
//! channel, size and parent indexes, and timestamps are nanosecond
//! local clocks, so equal fingerprints mean equal record sets.

use std::collections::{HashMap, HashSet};
use std::fmt::Write;

use multitier::TruthCollector;
use tracer_core::{Cag, CorrelationOutput};

/// A 64-bit multiply-rotate hash over words; inputs are the harness's
/// own corpora, never hostile.
#[derive(Clone, Copy)]
struct Mix(u64);

impl Mix {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(Self::K).rotate_left(29);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(Self::K);
        h ^ (h >> 29)
    }
}

/// FNV-1a over bytes: the manifest's checksum of the text corpus.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The tag-free fingerprint of one path.
pub fn fingerprint(cag: &Cag) -> u64 {
    let mut h = Mix(cag.vertices.len() as u64);
    for v in &cag.vertices {
        h.word(v.ty as u64);
        h.word(v.ts.0);
        h.word(v.ts_last.0);
        h.bytes(v.ctx.hostname.as_bytes());
        h.bytes(v.ctx.program.as_bytes());
        h.word(u64::from(v.ctx.pid) << 32 | u64::from(v.ctx.tid));
        for ep in [v.channel.src, v.channel.dst] {
            h.word(u64::from(u32::from(ep.ip)) << 16 | u64::from(ep.port));
        }
        h.word(v.size);
        h.word(v.ctx_parent.map_or(u64::MAX, |p| p as u64));
        h.word(v.msg_parent.map_or(u64::MAX, |p| p as u64));
    }
    h.finish()
}

/// Identifies the END record that closes a path — its last END
/// segment's timestamp and context — whatever the rest of the path
/// looks like; `None` for a path without END.
pub fn end_key(cag: &Cag) -> Option<u64> {
    let end = cag.end()?;
    let mut h = Mix(end.ts_last.0);
    h.bytes(end.ctx.hostname.as_bytes());
    h.word(u64::from(end.ctx.pid) << 32 | u64::from(end.ctx.tid));
    Some(h.finish())
}

/// The same fields as [`fingerprint`], readable: what a divergence
/// report prints for a path the oracle does not know.
pub fn render_fingerprint(cag: &Cag) -> String {
    let mut s = String::new();
    for v in &cag.vertices {
        let _ = write!(
            s,
            "{}|{}|{}|{}|{}|{}|{:?}|{:?};",
            v.ty, v.ts, v.ts_last, v.ctx, v.channel, v.size, v.ctx_parent, v.msg_parent
        );
    }
    s
}

/// Digest of a whole output in the order given: ids, completion flags
/// and fingerprints of finished then unfinished paths. Equal digests
/// mean the two outputs render to the same bytes, tags aside.
pub fn output_digest(out: &CorrelationOutput) -> u64 {
    let mut h = Mix(out.cags.len() as u64);
    for c in out.cags.iter().chain(&out.unfinished) {
        h.word(c.id);
        h.word(u64::from(c.finished));
        h.word(fingerprint(c));
    }
    h.finish()
}

/// How one output fared against the logged requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Score {
    /// Logged requests the output traced correctly.
    pub correct: u64,
    /// Emitted paths that match no logged request, or one already
    /// claimed.
    pub false_paths: u64,
}

/// The END record of one logged request.
#[derive(Debug, Clone, Copy)]
pub struct End {
    pub request: u64,
    /// Local timestamp of the last END segment — the record the paced
    /// leg takes the request's due time from.
    pub ts: u64,
}

pub struct Oracle {
    /// Sorted record-uid multiset of each logged request → its id (the
    /// rule of `TruthCollector::evaluate`).
    by_records: HashMap<Vec<u64>, u64>,
    /// Fingerprint of each known-correct path → its request.
    known: HashMap<u64, u64>,
    /// [`end_key`] of each known-correct path → its END record.
    ends: HashMap<u64, End>,
    /// Digest → score of every tagged output learned from.
    learned: HashMap<u64, Score>,
}

impl Oracle {
    pub fn new(truth: &TruthCollector) -> Oracle {
        let by_records = truth
            .requests()
            .filter(|r| r.completed.is_some() && !r.records.is_empty())
            .map(|r| {
                let mut uids = r.records.clone();
                uids.sort_unstable();
                (uids, r.id)
            })
            .collect();
        Oracle {
            by_records,
            known: HashMap::new(),
            ends: HashMap::new(),
            learned: HashMap::new(),
        }
    }

    /// Requests completed and logged: what every leg attempts.
    pub fn logged(&self) -> u64 {
        self.by_records.len() as u64
    }

    /// Scores a run over *tagged* records path by path and remembers
    /// the fingerprints of its correct paths. Returns the output's
    /// digest.
    pub fn learn(&mut self, tagged: &CorrelationOutput) -> u64 {
        let digest = output_digest(tagged);
        if !self.learned.contains_key(&digest) {
            for cag in &tagged.cags {
                if let Some(&request) = self.by_records.get(&cag.sorted_tags()) {
                    self.known.insert(fingerprint(cag), request);
                    if let (Some(key), Some(end)) = (end_key(cag), cag.end()) {
                        let ts = end.ts_last.0;
                        self.ends.insert(key, End { request, ts });
                    }
                }
            }
            self.learned.insert(digest, self.score_output(tagged));
        }
        digest
    }

    /// The score of a learned output, by digest: what a run that
    /// reproduced it byte for byte inherits.
    pub fn score_of(&self, digest: u64) -> Option<Score> {
        self.learned.get(&digest).copied()
    }

    /// Whether a path with this fingerprint is known to be correct.
    pub fn knows(&self, fingerprint: u64) -> bool {
        self.known.contains_key(&fingerprint)
    }

    /// The logged request whose END record closes a path with this
    /// [`end_key`].
    pub fn end_of(&self, end_key: u64) -> Option<End> {
        self.ends.get(&end_key).copied()
    }

    /// The END record of every request the oracle knows a correct path
    /// for.
    pub fn ends(&self) -> impl Iterator<Item = End> + '_ {
        self.ends.values().copied()
    }

    /// Scores a set of emitted paths by fingerprint; a request counts
    /// once however often it is claimed.
    pub fn score(&self, fingerprints: impl IntoIterator<Item = u64>) -> Score {
        let mut claimed = HashSet::new();
        let mut score = Score::default();
        for fp in fingerprints {
            match self.known.get(&fp) {
                Some(&request) if claimed.insert(request) => score.correct += 1,
                _ => score.false_paths += 1,
            }
        }
        score
    }

    pub fn score_output(&self, out: &CorrelationOutput) -> Score {
        self.score(out.cags.iter().map(fingerprint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multitier::ExperimentConfig;
    use tracer_core::prelude::*;
    use tracer_core::ActivityType;

    fn small_run() -> (multitier::ExperimentOutput, CorrelationOutput) {
        let out = multitier::run(ExperimentConfig::quick(4, 4));
        let (corr, acc) = out.correlate(Nanos::from_millis(10)).unwrap();
        assert!(acc.is_perfect() && acc.logged_requests > 4, "{acc:?}");
        (out, corr)
    }

    /// Strips the tags, as a round trip through a file does.
    fn untagged(out: &CorrelationOutput) -> CorrelationOutput {
        let mut o = out.clone();
        for v in o.cags.iter_mut().flat_map(|c| c.vertices.iter_mut()) {
            v.tags.clear();
        }
        o
    }

    #[test]
    fn rendering_and_hash_cover_the_same_fields() {
        let (_, corr) = small_run();
        let a = &corr.cags[0];
        let line = render_fingerprint(a);
        assert_eq!(line.matches(';').count(), a.vertices.len());
        assert!(line.starts_with(&format!("BEGIN|{}|", a.vertices[0].ts)));
        // Tags are not part of either form.
        let mut b = a.clone();
        b.vertices[0].tags = vec![u64::MAX];
        assert_eq!(fingerprint(a), fingerprint(&b));
        assert_eq!(render_fingerprint(a), render_fingerprint(&b));
        // Every covered field is: nudging one changes both forms.
        let edits: [fn(&mut Vertex); 7] = [
            |v| v.ts.0 += 1,
            |v| v.ts_last.0 += 1,
            |v| v.size += 1,
            |v| v.ctx.tid += 1,
            |v| v.channel.src.port += 1,
            |v| v.ctx_parent = Some(7),
            |v| v.msg_parent = Some(0),
        ];
        for edit in edits {
            let mut c = a.clone();
            edit(&mut c.vertices[1]);
            assert_ne!(fingerprint(a), fingerprint(&c));
            assert_ne!(render_fingerprint(a), render_fingerprint(&c));
        }
    }

    #[test]
    fn tag_free_scoring_equals_the_tagged_evaluation() {
        let (out, corr) = small_run();
        let mut oracle = Oracle::new(&out.truth);
        let digest = oracle.learn(&corr);
        let acc = out.truth.evaluate(&corr.cags);
        assert_eq!(oracle.logged(), acc.logged_requests);
        let stripped = untagged(&corr);
        assert_eq!(output_digest(&stripped), digest);
        assert_eq!(
            oracle.score_output(&stripped),
            Score {
                correct: acc.correct_paths,
                false_paths: 0
            }
        );
    }

    #[test]
    fn one_swapped_receive_is_counted_failed() {
        let (out, corr) = small_run();
        let mut oracle = Oracle::new(&out.truth);
        let reference = oracle.learn(&corr);
        let mut bad = untagged(&corr);
        // Exchange one RECEIVE between two paths, as a correlator that
        // matched a message to the wrong request would.
        let recv = |c: &Cag| {
            c.vertices
                .iter()
                .position(|v| v.ty == ActivityType::Receive)
                .expect("three-tier paths hold a RECEIVE")
        };
        let (i, j) = (recv(&bad.cags[0]), recv(&bad.cags[1]));
        let (head, tail) = bad.cags.split_at_mut(1);
        std::mem::swap(&mut head[0].vertices[i], &mut tail[0].vertices[j]);
        assert_ne!(output_digest(&bad), reference);
        assert_eq!(
            oracle.score_output(&bad),
            Score {
                correct: oracle.logged() - 2,
                false_paths: 2
            }
        );
        // A path emitted twice claims its request once.
        let mut dup = untagged(&corr);
        dup.cags.push(dup.cags[0].clone());
        assert_eq!(oracle.score_output(&dup).false_paths, 1);
    }
}
