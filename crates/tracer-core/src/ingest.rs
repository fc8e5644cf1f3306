//! Parallel chunked ingest: whole-buffer parsing of `TCP_TRACE` logs
//! split across threads.
//!
//! This module only chunks; every line is parsed by
//! [`RawRecordRef::parse_line`], the one text parser, exactly as the
//! sequential [`crate::raw::parse_log_iter`] parses it:
//!
//! 1. the input is read (or handed over) as **one contiguous buffer** —
//!    no line-at-a-time I/O;
//! 2. the buffer is split into per-core **chunks aligned to record
//!    boundaries** (each nominal cut is snapped forward to just past
//!    the next `\n`, so a record straddling a cut belongs wholly to the
//!    chunk where its line starts);
//! 3. each chunk is parsed by a worker thread with the sequential line
//!    discipline (split on `\n`, trim, skip blanks and `#` comments);
//!    string fields are borrowed sub-slices of the input;
//! 4. the per-chunk record vectors are concatenated in chunk order, so
//!    the result is **record-for-record identical** to the sequential
//!    iterator, and the first failing chunk holds the first failing
//!    line — the error is the sequential path's too.
//!
//! The [`Pipeline`](crate::pipeline::Pipeline) engages this module for
//! [`Source::path`](crate::pipeline::Source::path) inputs and for text
//! sources whenever `PipelineConfig::with_ingest_threads` asks for more
//! than one thread.

use std::path::Path;

use crate::error::TraceError;
use crate::raw::{parse_log_iter, RawRecord, RawRecordRef};

/// Upper bound on worker threads: beyond this the split overhead and
/// memory bandwidth dominate any parse win.
const MAX_THREADS: usize = 64;

/// Rough bytes-per-record estimate used only to pre-size result
/// vectors.
const BYTES_PER_RECORD_HINT: usize = 48;

/// Resolves a user-facing thread count: `0` means "one per available
/// core" (capped), anything else is clamped to `1..=64`.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    let n = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    };
    n.clamp(1, MAX_THREADS)
}

/// Reads a whole log file into one buffer, mapping I/O failures onto
/// [`TraceError::Config`] (the error type stays `Clone`/`PartialEq`).
///
/// Line endings are not normalised here: both the sequential and the
/// parallel scanners treat `\r\n` like `\n` (the `\r` is trimmed with
/// the rest of the surrounding whitespace) and parse a final record
/// with no trailing newline, so a CRLF log or a log cut mid-write
/// parses identically through every path.
///
/// # Errors
///
/// Returns [`TraceError::Config`] when the file cannot be read or is
/// not valid UTF-8.
pub fn read_log_file(path: &Path) -> Result<String, TraceError> {
    std::fs::read_to_string(path)
        .map_err(|e| TraceError::config(format!("cannot read {}: {e}", path.display())))
}

/// Splits a byte buffer read from a **live** text log at the last
/// newline: `(complete, tail)`, where `complete` ends just past the
/// final `\n` and `tail` is the torn final line the writer has not
/// finished yet (empty when the buffer ends on a newline).
///
/// The contract in [`read_log_file`]'s docs — "a log cut mid-write
/// parses identically" — holds only for a cut at a *line* boundary; a
/// cut mid-line yields a prefix that parses as a malformed (or worse,
/// silently shorter) record. A tailer that polls a growing file feeds
/// `complete` to the parser and carries `tail` over to the front of
/// its next read, making every torn tail retriable instead of an
/// error:
///
/// ```
/// use tracer_core::ingest::split_complete_lines;
///
/// let (done, torn) = split_complete_lines(b"1000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 42\n1005 app ja");
/// assert!(done.ends_with(b"42\n"));
/// assert_eq!(torn, b"1005 app ja");
/// ```
#[must_use]
pub fn split_complete_lines(buf: &[u8]) -> (&[u8], &[u8]) {
    match buf.iter().rposition(|&b| b == b'\n') {
        Some(i) => buf.split_at(i + 1),
        None => (&buf[..0], buf),
    }
}

/// Splits `text` into at most `chunks` byte spans, each ending just
/// past a `\n` (except the last, which ends at the buffer end), so no
/// record straddles a span boundary. Returns fewer spans than asked
/// when the text is short; never returns an empty span.
#[must_use]
pub fn chunk_spans(text: &str, chunks: usize) -> Vec<(usize, usize)> {
    let n = text.len();
    let chunks = chunks.max(1);
    let mut spans = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 1..=chunks {
        if start >= n {
            break;
        }
        let nominal = ((n as u128 * i as u128) / chunks as u128) as usize;
        let mut end = nominal.max(start);
        if i == chunks {
            end = n;
        } else if end < n {
            // Snap forward to just past the next record boundary (a
            // byte-wise search: a nominal cut may land inside a
            // multi-byte character, but `\n` never does, so every span
            // boundary is a character boundary).
            end = match text.as_bytes()[end..].iter().position(|&b| b == b'\n') {
                Some(j) => end + j + 1,
                None => n,
            };
        }
        if end > start {
            spans.push((start, end));
            start = end;
        }
    }
    spans
}

/// Runs `f` over each of at most `threads` record-aligned chunks of
/// `text` (`0` = one per core), one scoped thread per chunk, and
/// returns the results in chunk (= text) order. A text that makes one
/// chunk is handled on the calling thread.
pub(crate) fn map_chunks<'t, T: Send>(
    text: &'t str,
    threads: usize,
    f: impl Fn(&'t str) -> T + Sync,
) -> Vec<T> {
    let spans = chunk_spans(text, resolve_threads(threads));
    if spans.len() <= 1 {
        return vec![f(text)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = spans
            .iter()
            .map(|&(a, b)| s.spawn(move || f(&text[a..b])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest worker panicked"))
            .collect()
    })
}

/// Collects the per-chunk results in chunk (= text) order, so the
/// first chunk holding an error reports the first malformed line of
/// the whole input.
fn concat<T>(results: Vec<Result<Vec<T>, TraceError>>) -> Result<Vec<T>, TraceError> {
    let mut chunks = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let mut out = chunks.next().unwrap_or_default();
    for v in chunks {
        out.extend(v);
    }
    Ok(out)
}

/// Parses a whole log into borrowed [`RawRecordRef`]s using `threads`
/// worker threads (`0` = one per core). The result is record-for-record
/// identical to collecting
/// [`crate::raw::parse_log_iter`].
///
/// # Errors
///
/// Returns the first parse error encountered, identical to the
/// sequential path's.
///
/// # Examples
///
/// ```
/// use tracer_core::ingest::parse_refs_parallel;
/// let refs = parse_refs_parallel(
///     "# comment\n100 web httpd 1 1 SEND 10.0.0.1:80-10.0.0.9:5000 42\n",
///     4,
/// )?;
/// assert_eq!(refs.len(), 1);
/// assert_eq!(refs[0].size, 42);
/// # Ok::<(), tracer_core::TraceError>(())
/// ```
pub fn parse_refs_parallel(
    text: &str,
    threads: usize,
) -> Result<Vec<RawRecordRef<'_>>, TraceError> {
    concat(map_chunks(text, threads, |chunk| {
        let mut out = Vec::with_capacity(chunk.len() / BYTES_PER_RECORD_HINT + 1);
        for r in parse_log_iter(chunk) {
            out.push(r?);
        }
        Ok(out)
    }))
}

/// Parses a whole log into owned, interned [`RawRecord`]s using
/// `threads` worker threads (`0` = one per core). Each worker interns
/// into its own [`Interner`](crate::intern::Interner), so allocation
/// stays proportional to `distinct strings × chunks`, not to the record
/// count; the records are value-identical to
/// [`parse_log`](crate::raw::parse_log)'s.
///
/// # Errors
///
/// Returns the first parse error encountered, identical to the
/// sequential path's.
pub fn parse_log_parallel(text: &str, threads: usize) -> Result<Vec<RawRecord>, TraceError> {
    concat(map_chunks(text, threads, crate::raw::parse_log))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential(text: &str) -> Result<Vec<RawRecordRef<'_>>, TraceError> {
        parse_log_iter(text).collect()
    }

    const SAMPLE: &str = "\
# comment line
1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120
2000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:9000 64 seq=0

2500 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:9000 64 seq=0 retrans
   4000 app java 9 21 SEND 10.0.0.2:9000-10.0.0.1:4001 256\t
5000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512 retrans seq=9
";

    #[test]
    fn parallel_matches_sequential_for_every_thread_count() {
        let want = sequential(SAMPLE).unwrap();
        for threads in 1..=8 {
            let got = parse_refs_parallel(SAMPLE, threads).unwrap();
            assert_eq!(got, want, "thread count {threads}");
        }
    }

    #[test]
    fn chunk_spans_cover_the_buffer_without_splitting_records() {
        for chunks in 1..=9 {
            let spans = chunk_spans(SAMPLE, chunks);
            assert_eq!(spans.first().map(|s| s.0), Some(0));
            assert_eq!(spans.last().map(|s| s.1), Some(SAMPLE.len()));
            for w in spans.windows(2) {
                assert_eq!(w[0].1, w[1].0, "spans must tile");
                assert_eq!(
                    SAMPLE.as_bytes()[w[0].1 - 1],
                    b'\n',
                    "interior span boundaries must sit just past a newline"
                );
            }
        }
    }

    #[test]
    fn split_complete_lines_makes_every_cut_retriable() {
        // The live-tail contract, exhaustively: cut the log at EVERY
        // byte boundary, feed the complete-lines prefix plus a
        // carried-over tail, and the reassembled parse must equal the
        // one-shot parse — no cut may error or drop a record.
        let want = sequential(SAMPLE).unwrap();
        let bytes = SAMPLE.as_bytes();
        for cut in 0..=bytes.len() {
            let (done, torn) = split_complete_lines(&bytes[..cut]);
            assert_eq!(done.len() + torn.len(), cut);
            let mut reassembled = Vec::from(done);
            reassembled.extend_from_slice(torn);
            reassembled.extend_from_slice(&bytes[cut..]);
            assert_eq!(reassembled, bytes, "cut={cut}: no byte may be lost");
            // A tailer parses the complete prefix now and the carried
            // tail + remainder on the next poll.
            let head = std::str::from_utf8(done).unwrap();
            let mut tail = Vec::from(torn);
            tail.extend_from_slice(&bytes[cut..]);
            let tail = String::from_utf8(tail).unwrap();
            let mut got = sequential(head).unwrap_or_else(|e| panic!("cut={cut}: {e}"));
            got.extend(sequential(&tail).unwrap_or_else(|e| panic!("cut={cut}: {e}")));
            assert_eq!(got, want, "cut={cut}");
        }
    }

    #[test]
    fn trailing_partial_line_is_parsed() {
        let text = "1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42"; // no '\n'
        let got = parse_refs_parallel(text, 4).unwrap();
        assert_eq!(got, sequential(text).unwrap());
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn more_threads_than_lines_is_fine() {
        let text = "1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42\n";
        for threads in 1..=32 {
            assert_eq!(
                parse_refs_parallel(text, threads).unwrap(),
                sequential(text).unwrap()
            );
        }
        assert!(parse_refs_parallel("", 8).unwrap().is_empty());
        assert!(parse_refs_parallel("\n\n# only comments\n", 8)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn first_error_matches_the_sequential_one() {
        // Two bad lines in different prospective chunks: the reported
        // error must be the first in text order, as sequential parse
        // would report.
        let mut text = String::new();
        for i in 0..100 {
            if i == 23 || i == 77 {
                text.push_str(&format!("{i} bad line only five fields\n"));
            } else {
                text.push_str(&format!(
                    "{i} web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42\n"
                ));
            }
        }
        let want = sequential(&text).unwrap_err();
        for threads in [1, 2, 3, 8] {
            assert_eq!(parse_refs_parallel(&text, threads).unwrap_err(), want);
        }
    }

    #[test]
    fn fast_path_falls_back_on_grammar_edges() {
        // Each of these is accepted or rejected by the general parser
        // in a way the canonical fast path of `parse_line` declines to
        // express; the fallback must keep behaviour identical on every
        // ingest path.
        let edge_lines = [
            "+1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42", // signed int
            "1000 web httpd 7 7 SEND 10.0.0.01:80-10.0.0.9:5000 42", // zero-padded octet
            "1000 web httpd 7 7 SEND 10.0.0.256:80-10.0.0.9:5000 42", // octet overflow
            "1000 web httpd 7 7 send 10.0.0.1:80-10.0.0.9:5000 42",  // lowercase op
            "1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42 seq=+7", // signed seq
            "1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42 retrans retrans", // dup attr
            "1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42 extra", // trailing junk
            "99999999999999999999999 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42", // overflow
        ];
        for line in edge_lines {
            assert!(RawRecordRef::parse_canonical(line).is_none(), "{line:?}");
            let want = RawRecordRef::parse_general(line);
            assert_eq!(
                RawRecordRef::parse_line(line),
                want,
                "divergence on {line:?}"
            );
            let text = format!("{line}\n{line}\n");
            for threads in [1, 2] {
                assert_eq!(
                    parse_refs_parallel(&text, threads).map(|v| v[0]),
                    want,
                    "{line:?}, {threads} threads"
                );
            }
        }
        // Edges the fast path does accept agree too: `u16::from_str`
        // reads a zero-padded port, and every field at its extreme.
        for line in [
            "1000 web httpd 7 7 SEND 10.0.0.1:080-10.0.0.9:5000 42",
            "0 web httpd 4294967295 0 SEND 0.0.0.0:0-255.255.255.255:65535 18446744073709551615 seq=0",
        ] {
            assert!(RawRecordRef::parse_canonical(line).is_some(), "{line:?}");
            assert_eq!(RawRecordRef::parse_line(line), RawRecordRef::parse_general(line));
        }
    }

    #[test]
    fn owned_parallel_parse_matches_parse_log() {
        let want = crate::raw::parse_log(SAMPLE).unwrap();
        for threads in [1, 2, 4, 7] {
            assert_eq!(parse_log_parallel(SAMPLE, threads).unwrap(), want);
        }
    }

    #[test]
    fn resolve_threads_clamps() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(10_000), MAX_THREADS);
    }

    #[test]
    fn swar_u64_parse_matches_std() {
        // The fast path decodes decimal fields itself; wherever it
        // accepts one, the value is `u64::from_str`'s, and wherever it
        // declines, the general parser's answer stands.
        let cases = [
            "0",
            "7",
            "00000000",
            "12345678",
            "123456789",
            "1234567890123456789",
            "18446744073709551615", // u64::MAX
            "18446744073709551616", // u64::MAX + 1 → overflow
            "99999999999999999999999",
            "1844674407370955161500",
            "",
            "12a45678",
            "1234567a",
            "a2345678",
            "123456781234567x",
            "-1",
            " 123",
            "123 ",
            "seq=9",
        ];
        let lines = |s: &str| {
            [
                format!("{s} web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42"),
                format!("1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 {s}"),
                format!("1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42 seq={s}"),
            ]
        };
        let fields = |r: RawRecordRef<'_>| [r.ts.as_nanos(), r.size, r.seq.unwrap_or(42)];
        let values: Vec<u64> = (0u64..200)
            .chain([99_999_999, 100_000_000, 4_294_967_295])
            .collect();
        let numbers: Vec<String> = values.iter().map(u64::to_string).collect();
        for s in cases
            .iter()
            .copied()
            .chain(numbers.iter().map(String::as_str))
        {
            for (k, line) in lines(s).iter().enumerate() {
                let fast = RawRecordRef::parse_canonical(line).map(|r| fields(r)[k]);
                assert_eq!(fast, s.parse::<u64>().ok(), "field {k} of {line:?}");
                assert_eq!(
                    RawRecordRef::parse_line(line),
                    RawRecordRef::parse_general(line),
                    "{line:?}"
                );
            }
        }
        // `u64::from_str` accepts a leading `+`; the fast path declines
        // it and the general parser keeps ownership of signed forms.
        for (k, line) in lines("+123").iter().enumerate() {
            assert!(RawRecordRef::parse_canonical(line).is_none(), "{line:?}");
            assert_eq!(
                RawRecordRef::parse_line(line).map(|r| fields(r)[k]),
                Ok(123)
            );
        }
    }

    #[test]
    fn swar_ws_scan_matches_split_ascii_whitespace() {
        // A non-whitespace control byte (0x0B, vertical tab: *not*
        // ASCII whitespace) inside a token, multi-space gaps, tabs, a
        // long token, a truncated line and an empty one. `fast` says
        // whether the canonical path reads the line itself.
        let lines = [
            ("1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42", true),
            ("1000 a\x0bb c 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42", true),
            (
                "1000  web\thttpd   7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42",
                false,
            ),
            (
                "1000 a-very-long-token-spanning-words x 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42",
                true,
            ),
            (
                "1000 web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42\t",
                false,
            ),
            ("1000 trailing-token", false),
            ("", false),
        ];
        for (line, fast) in lines {
            let via_std: Vec<&str> = line.split_ascii_whitespace().collect();
            let canonical = RawRecordRef::parse_canonical(line);
            assert_eq!(canonical.is_some(), fast, "line {line:?}");
            let got = RawRecordRef::parse_line(line);
            assert_eq!(got, RawRecordRef::parse_general(line), "line {line:?}");
            for r in canonical.into_iter().chain(got.ok()) {
                assert_eq!([r.hostname, r.program], via_std[1..3], "line {line:?}");
            }
        }
    }

    #[test]
    fn crlf_matches_lf_in_sequential_and_parallel_paths() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        let want = sequential(SAMPLE).unwrap();
        assert_eq!(sequential(&crlf).unwrap(), want, "sequential CRLF");
        for threads in 1..=8 {
            assert_eq!(
                parse_refs_parallel(&crlf, threads).unwrap(),
                want,
                "parallel CRLF, {threads} threads"
            );
        }
    }

    #[test]
    fn crlf_final_record_without_newline_parses_everywhere() {
        let mut text = SAMPLE.replace('\n', "\r\n");
        text.push_str("9000 db mysqld 3 3 SEND 10.0.0.3:3306-10.0.0.2:4101 8");
        let want = sequential(&text).unwrap();
        assert_eq!(want.len(), sequential(SAMPLE).unwrap().len() + 1);
        assert_eq!(want.last().unwrap().size, 8);
        for threads in 1..=8 {
            assert_eq!(parse_refs_parallel(&text, threads).unwrap(), want);
        }
        // A lone final `\r` (CRLF log truncated between CR and LF) is
        // trimmed like any other trailing whitespace.
        let mut cut = text.clone();
        cut.push('\r');
        assert_eq!(sequential(&cut).unwrap(), want);
        for threads in [1, 3, 8] {
            assert_eq!(parse_refs_parallel(&cut, threads).unwrap(), want);
        }
    }

    #[test]
    fn chunk_spans_tile_crlf_text() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        for chunks in 1..=9 {
            let spans = chunk_spans(&crlf, chunks);
            assert_eq!(spans.first().map(|s| s.0), Some(0));
            assert_eq!(spans.last().map(|s| s.1), Some(crlf.len()));
            for w in spans.windows(2) {
                assert_eq!(w[0].1, w[1].0, "spans must tile");
                assert_eq!(crlf.as_bytes()[w[0].1 - 1], b'\n');
            }
        }
    }

    #[test]
    fn chunk_spans_snap_past_multibyte_comments() {
        // A nominal cut landing inside a multi-byte character must not
        // panic; spans still snap to `\n` boundaries.
        let mut text = String::from("# è-commentaire: ünïcode héader païd d\u{1F600}ata\n");
        for i in 0..40 {
            text.push_str(&format!(
                "{i} web httpd 7 7 SEND 10.0.0.1:80-10.0.0.9:5000 42\n"
            ));
        }
        for chunks in 1..=16 {
            let spans = chunk_spans(&text, chunks);
            assert_eq!(spans.last().map(|s| s.1), Some(text.len()));
            for &(a, b) in &spans {
                assert!(text.is_char_boundary(a) && text.is_char_boundary(b));
            }
        }
        let want = sequential(&text).unwrap();
        for threads in [1, 2, 5, 16] {
            assert_eq!(parse_refs_parallel(&text, threads).unwrap(), want);
        }
    }
}
