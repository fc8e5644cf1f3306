//! Integration tests for the `pt` command-line tool: the end-user
//! workflow of simulating (or capturing) a TCP_TRACE log and analyzing
//! it from the shell.

use std::process::Command;

fn pt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pt"))
}

/// A temp-file path that is removed when dropped, so failing tests
/// don't leave artifacts behind in the system temp directory.
struct TmpFile(std::path::PathBuf);

impl TmpFile {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("pt-cli-test-{}-{name}", std::process::id()));
        TmpFile(p)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

const INTERNAL: &str = "10.0.0.1,10.0.0.2,10.0.0.3";

#[test]
fn simulate_correlate_patterns_diff_roundtrip() {
    let log = TmpFile::new("trace.log");
    let dot = TmpFile::new("pattern.dot");

    // simulate
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "10",
            "--seconds",
            "8",
            "--seed",
            "3",
        ])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&log.0).unwrap();
    assert!(text.lines().count() > 100, "log should have records");

    // correlate
    let out = pt()
        .args([
            "correlate",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
        ])
        .output()
        .expect("run pt correlate");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("causal paths"), "{stdout}");
    assert!(stdout.contains("mean request latency"), "{stdout}");

    // patterns + dot export
    let out = pt()
        .args([
            "patterns",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
        ])
        .args(["--dot", dot.as_str()])
        .output()
        .expect("run pt patterns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("patterns over"), "{stdout}");
    assert!(stdout.contains("httpd2java"), "{stdout}");
    let dot_text = std::fs::read_to_string(&dot.0).unwrap();
    assert!(dot_text.starts_with("digraph"));

    // diff against itself: no significant change
    let out = pt()
        .args(["diff", log.as_str(), log.as_str()])
        .args(["--port", "80", "--internal", INTERNAL])
        .output()
        .expect("run pt diff");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no significant change"), "{stdout}");
}

fn stderr_of(args: &[&str]) -> String {
    let out = pt().args(args).output().expect("run pt");
    assert!(!out.status.success(), "expected failure for {args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_to_stderr() {
    let err = stderr_of(&[]);
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn unknown_command_names_itself() {
    let err = stderr_of(&["frobnicate"]);
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("frobnicate"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn missing_required_flags_are_reported_by_name() {
    let err = stderr_of(&["correlate"]);
    assert!(err.contains("missing log file"), "{err}");
    let err = stderr_of(&["correlate", "/nonexistent.log"]);
    assert!(err.contains("missing --port"), "{err}");
    let err = stderr_of(&["correlate", "/nonexistent.log", "--port", "80"]);
    assert!(err.contains("missing --internal"), "{err}");
    let err = stderr_of(&["simulate", "--clients", "5"]);
    assert!(err.contains("missing --out"), "{err}");
    let err = stderr_of(&["simulate"]);
    assert!(err.contains("missing --clients"), "{err}");
}

#[test]
fn malformed_flag_values_are_reported_by_name() {
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "eighty",
        "--internal",
        INTERNAL,
    ]);
    assert!(err.contains("bad --port"), "{err}");
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        "10.0.0.999",
    ]);
    assert!(err.contains("bad --internal"), "{err}");
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--window-ms",
        "soon",
    ]);
    assert!(err.contains("bad --window-ms"), "{err}");
}

#[test]
fn adaptive_window_and_memory_budget_flags_work() {
    let log = TmpFile::new("adaptive.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "8",
            "--seconds",
            "8",
            "--seed",
            "9",
        ])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());

    // Adaptive windowing on a real log: must correlate and report the
    // adaptive-window activity line.
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL])
        .args(["--adaptive-window"])
        .output()
        .expect("run pt correlate --adaptive-window");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("causal paths"), "{stdout}");
    assert!(stdout.contains("adaptive window:"), "{stdout}");

    // A generous budget changes nothing; the run still succeeds.
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL])
        .args(["--memory-budget", "64m"])
        .output()
        .expect("run pt correlate --memory-budget");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("causal paths"), "{stdout}");

    // Malformed budget is reported by name.
    let err = stderr_of(&[
        "correlate",
        log.as_str(),
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--memory-budget",
        "lots",
    ]);
    assert!(err.contains("bad --memory-budget"), "{err}");
}

#[test]
fn sharded_correlation_flags_work_and_are_order_insensitive() {
    let log = TmpFile::new("sharded.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "10",
            "--seconds",
            "8",
            "--seed",
            "17",
        ])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());

    // Patterns output is content-deterministic, so the sharded pipeline
    // must reproduce the single-threaded bytes for any shard count —
    // and flag placement before/after the positional must not matter.
    let baseline = pt()
        .args([
            "patterns",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
        ])
        .output()
        .expect("run pt patterns");
    assert!(baseline.status.success());
    for shard_args in [
        vec![
            "patterns",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
            "--shards",
            "4",
        ],
        // Same flags, interleaved around the positional argument.
        vec![
            "patterns",
            "--shards",
            "4",
            "--port",
            "80",
            log.as_str(),
            "--internal",
            INTERNAL,
        ],
        // Auto shard count.
        vec![
            "patterns",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
            "--shards",
            "0",
        ],
    ] {
        let sharded = pt().args(&shard_args).output().expect("run pt patterns");
        assert!(
            sharded.status.success(),
            "{}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&sharded.stdout),
            String::from_utf8_lossy(&baseline.stdout),
            "sharded pattern output diverged for {shard_args:?}"
        );
    }

    // correlate accepts the sealing-latency bound alongside shards.
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL])
        .args(["--shards", "2", "--max-seal-lag", "128"])
        .output()
        .expect("run pt correlate --shards --max-seal-lag");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("causal paths"), "{stdout}");
}

#[test]
fn distributed_correlation_flags_work() {
    let log = TmpFile::new("distributed.log");
    let out = pt()
        .args(["simulate", "--clients", "10", "--seconds", "8"])
        .args(["--seed", "17", "--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());

    let correlate = |extra: &[&str]| {
        let out = pt()
            .args(["correlate", log.as_str(), "--port", "80"])
            .args(["--internal", INTERNAL])
            .args(extra)
            .output()
            .expect("run pt correlate");
        assert!(
            out.status.success(),
            "correlate {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        strip_wall(&String::from_utf8_lossy(&out.stdout))
    };

    // Spawn transport: `--routers N` forks router children of the pt
    // binary itself; bytes must match `--shards N` exactly.
    let shards2 = correlate(&["--shards", "2"]);
    assert_eq!(
        correlate(&["--routers", "2"]),
        shards2,
        "--routers 2 diverged from --shards 2"
    );
    assert_eq!(
        correlate(&["--routers", "2", "--workers-per-router", "2"]),
        correlate(&["--shards", "4"]),
        "--routers 2 --workers-per-router 2 diverged from --shards 4"
    );

    // TCP transport: real `pt router --listen` daemons on loopback.
    let mut routers = Vec::new();
    let mut addrs = Vec::new();
    let mut banners = Vec::new();
    for _ in 0..2 {
        let mut child = pt()
            .args(["router", "--listen", "127.0.0.1:0"])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn pt router");
        // The daemon announces its bound address on stderr first. The
        // reader must stay alive for the daemon's lifetime — closing
        // the pipe would EPIPE its later log lines.
        use std::io::BufRead as _;
        let mut banner = std::io::BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        banner.read_line(&mut line).expect("read router banner");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("addr in router banner")
            .to_string();
        assert!(addr.starts_with("127.0.0.1:"), "banner: {line:?}");
        addrs.push(addr);
        banners.push(banner);
        routers.push(child);
    }
    // A hostile session first: a Hello cut after its magic. The
    // daemon must refuse it and keep serving.
    {
        use std::io::Write as _;
        let mut hostile = std::net::TcpStream::connect(&addrs[0]).expect("connect to router 0");
        hostile.write_all(b"\x01\x04\0\0\0CDTP").unwrap();
    }
    let tcp = correlate(&["--routers", "2", "--router-addr", &addrs.join(",")]);
    assert_eq!(tcp, shards2, "--router-addr run diverged from --shards 2");
    for mut child in routers {
        child.kill().ok();
        child.wait().ok();
    }
}

#[test]
fn distributed_flags_are_validated() {
    let log = TmpFile::new("distributed-validate.log");
    std::fs::write(
        log.as_str(),
        "1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120\n",
    )
    .unwrap();
    let base = [
        "correlate",
        log.as_str(),
        "--port",
        "80",
        "--internal",
        INTERNAL,
    ];

    let err = stderr_of(&[&base[..], &["--routers", "2", "--shards", "2"]].concat());
    assert!(err.contains("--routers conflicts with --shards"), "{err}");

    let err = stderr_of(&[&base[..], &["--workers-per-router", "2"]].concat());
    assert!(
        err.contains("--workers-per-router requires --routers"),
        "{err}"
    );

    let err = stderr_of(&[&base[..], &["--router-addr", "127.0.0.1:1"]].concat());
    assert!(err.contains("--router-addr requires --routers"), "{err}");

    let err = stderr_of(
        &[
            &base[..],
            &["--routers", "2", "--router-addr", "127.0.0.1:1"],
        ]
        .concat(),
    );
    assert!(err.contains("1 router addresses for 2 routers"), "{err}");

    let err = stderr_of(&[&base[..], &["--routers", "0"]].concat());
    assert!(err.contains("router"), "{err}");

    // A dead TCP peer is one clear router error, not a hang.
    let err = stderr_of(
        &[
            &base[..],
            &["--routers", "1", "--router-addr", "127.0.0.1:9"],
        ]
        .concat(),
    );
    assert!(err.contains("router 0 failed"), "{err}");

    let err = stderr_of(&["router"]);
    assert!(err.contains("--stdio or --listen"), "{err}");
    let err = stderr_of(&["router", "--stdio", "--listen", "127.0.0.1:0"]);
    assert!(err.contains("conflicts"), "{err}");
}

#[test]
fn new_flags_are_validated_by_name() {
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--shards",
        "many",
    ]);
    assert!(err.contains("bad --shards"), "{err}");
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--max-seal-lag",
        "soon",
    ]);
    assert!(err.contains("bad --max-seal-lag"), "{err}");
    // A value flag at the end of the line is reported, not ignored.
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--shards",
    ]);
    assert!(err.contains("missing value for --shards"), "{err}");
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--ingest-threads",
        "many",
    ]);
    assert!(err.contains("bad --ingest-threads"), "{err}");
}

#[test]
fn ingest_threads_flag_works() {
    let log = TmpFile::new("ingest.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "10",
            "--seconds",
            "8",
            "--seed",
            "23",
        ])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());

    // Patterns output is content-deterministic: the parallel chunk
    // scanner must reproduce the single-threaded bytes exactly, for an
    // explicit thread count and for the per-core auto setting.
    let baseline = pt()
        .args([
            "patterns",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
        ])
        .output()
        .expect("run pt patterns");
    assert!(baseline.status.success());
    for threads in ["4", "0"] {
        let parallel = pt()
            .args([
                "patterns",
                log.as_str(),
                "--port",
                "80",
                "--internal",
                INTERNAL,
                "--ingest-threads",
                threads,
            ])
            .output()
            .expect("run pt patterns --ingest-threads");
        assert!(
            parallel.status.success(),
            "{}",
            String::from_utf8_lossy(&parallel.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&parallel.stdout),
            String::from_utf8_lossy(&baseline.stdout),
            "parallel ingest changed pattern output at --ingest-threads {threads}"
        );
    }

    // Parallel ingest is accepted alongside the sharded pipeline and
    // still produces a successful correlation report.
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL])
        .args(["--shards", "2", "--ingest-threads", "2"])
        .output()
        .expect("run pt correlate --shards --ingest-threads");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("causal paths"), "{stdout}");
}

#[test]
fn scenario_simulate_flags_roundtrip() {
    // Replicated tiers: the simulate summary names every replica IP,
    // and correlating with that internal list succeeds.
    let log = TmpFile::new("scenario.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "8",
            "--seconds",
            "6",
            "--seed",
            "5",
        ])
        .args(["--app-replicas", "2", "--db-replicas", "2"])
        .args(["--lb-policy", "least-conn"])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate with replicas");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("10.0.10.2"), "{stdout}");
    assert!(stdout.contains("10.0.10.3"), "{stdout}");
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args([
            "--internal",
            "10.0.0.1,10.0.0.2,10.0.10.2,10.0.0.3,10.0.10.3",
        ])
        .output()
        .expect("run pt correlate on lb log");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("causal paths"));

    // Lossy links: the log carries retrans-marked records that parse.
    let lossy = TmpFile::new("scenario-lossy.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "8",
            "--seconds",
            "6",
            "--seed",
            "5",
        ])
        .args(["--loss", "0.02", "--pool", "2"])
        .args(["--out", lossy.as_str()])
        .output()
        .expect("run pt simulate with loss");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&lossy.0).unwrap();
    assert!(
        text.lines().any(|l| l.ends_with(" retrans")),
        "no retrans records"
    );
    let out = pt()
        .args(["correlate", lossy.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL, "--window-ms", "100"])
        .output()
        .expect("run pt correlate on lossy log");
    assert!(out.status.success());

    // Bad values are reported by name.
    let err = stderr_of(&[
        "simulate",
        "--clients",
        "5",
        "--out",
        "/tmp/x",
        "--loss",
        "1.5",
    ]);
    assert!(err.contains("bad --loss"), "{err}");
    let err = stderr_of(&[
        "simulate",
        "--clients",
        "5",
        "--out",
        "/tmp/x",
        "--lb-policy",
        "hash",
    ]);
    assert!(err.contains("bad --lb-policy"), "{err}");
    let err = stderr_of(&[
        "simulate",
        "--clients",
        "5",
        "--out",
        "/tmp/x",
        "--pool",
        "0",
    ]);
    assert!(err.contains("bad --pool"), "{err}");
    let err = stderr_of(&[
        "simulate",
        "--clients",
        "5",
        "--out",
        "/tmp/x",
        "--app-replicas",
        "0",
    ]);
    assert!(err.contains("bad --app-replicas"), "{err}");
    // Above the subnet scheme's capacity: a clean CLI error, no panic.
    let err = stderr_of(&[
        "simulate",
        "--clients",
        "5",
        "--out",
        "/tmp/x",
        "--web-replicas",
        "26",
    ]);
    assert!(err.contains("bad --web-replicas"), "{err}");
    assert!(err.contains("at most 25"), "{err}");
}

#[test]
fn dot_flag_is_patterns_only() {
    // correlate/diff must reject --dot instead of silently ignoring it
    // (only patterns writes the file).
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--dot",
        "/tmp/x.dot",
    ]);
    assert!(err.contains("unknown flag"), "{err}");
    assert!(err.contains("--dot"), "{err}");
}

#[test]
fn absurd_shard_counts_are_rejected_not_spawned() {
    let log = TmpFile::new("capped.log");
    std::fs::write(
        &log.0,
        "1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120\n",
    )
    .unwrap();
    let err = stderr_of(&[
        "correlate",
        log.as_str(),
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--shards",
        "1000000",
    ]);
    assert!(err.contains("exceeds the maximum"), "{err}");
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--frobnicate",
    ]);
    assert!(err.contains("unknown flag"), "{err}");
    assert!(err.contains("--frobnicate"), "{err}");
    // simulate rejects correlate-only flags instead of silently
    // ignoring them.
    let err = stderr_of(&[
        "simulate",
        "--clients",
        "5",
        "--out",
        "/tmp/x",
        "--shards",
        "4",
    ]);
    assert!(err.contains("unknown flag"), "{err}");
}

#[test]
fn missing_input_file_reports_path_and_os_error() {
    let err = stderr_of(&[
        "correlate",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
    ]);
    assert!(err.contains("/nonexistent.log"), "{err}");
    assert!(err.contains("No such file"), "{err}");
}

#[test]
fn unparsable_log_reports_parse_error() {
    let bad = TmpFile::new("bad.log");
    std::fs::write(&bad.0, "this is not a TCP_TRACE log\n").unwrap();
    let err = stderr_of(&[
        "correlate",
        bad.as_str(),
        "--port",
        "80",
        "--internal",
        INTERNAL,
    ]);
    assert!(err.contains("cannot parse trace record"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = pt().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("TCP_TRACE"));
}

#[test]
fn capture_drop_simulates_v2_log_and_stats_report_ingest_counters() {
    let log = TmpFile::new("partial.log");
    // Sniffer-based v2 capture with a 2% per-segment drop.
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "6",
            "--seconds",
            "6",
            "--seed",
            "7",
        ])
        .args(["--capture-drop", "0.02"])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate --capture-drop");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&log.0).unwrap();
    assert!(
        text.lines().filter(|l| l.contains(" seq=")).count() > 100,
        "v2 capture must emit seq= stream offsets"
    );

    // --stats surfaces the ingest dedup counters.
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL, "--stats"])
        .output()
        .expect("run pt correlate --stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ingest: retrans_dropped="),
        "--stats must print the ingest counters: {stdout}"
    );
    assert!(stdout.contains("seq_dedup_ranges="), "{stdout}");
    let v2_line = stdout
        .lines()
        .find(|l| l.starts_with("ingest:"))
        .expect("ingest line");
    let v2: u64 = v2_line
        .split("v2_records=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap()
        .parse()
        .unwrap();
    assert!(v2 > 100, "v2 records must be counted: {v2_line}");
    // And the process's peak resident set, the quantity the benchmark's
    // `batch_peak_rss_mib` reads.
    let peak_rss: u64 = v2_line
        .split("peak_rss=")
        .nth(1)
        .and_then(|s| s.strip_suffix('B'))
        .expect("peak_rss=<bytes>B token")
        .parse()
        .unwrap();
    assert!(peak_rss > 0, "{v2_line}");

    // Without --stats the counters stay off the output.
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL])
        .output()
        .expect("run pt correlate");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("ingest:"), "{stdout}");
    assert!(!stdout.contains("peak_rss="), "{stdout}");
}

#[test]
fn stats_flag_is_correlate_only() {
    let out = pt()
        .args(["patterns", "/nonexistent.log", "--port", "80"])
        .args(["--internal", INTERNAL, "--stats"])
        .output()
        .expect("run pt patterns --stats");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag \"--stats\""),
        "patterns must reject --stats"
    );
}

#[test]
fn capture_drop_rejects_bad_probability() {
    let log = TmpFile::new("bad-drop.log");
    let out = pt()
        .args(["simulate", "--clients", "2", "--capture-drop", "1.5"])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--capture-drop"));
}

/// Strips the wall-clock and peak-RSS tokens from a correlate report so
/// two runs can be compared byte-for-byte.
fn strip_wall(s: &str) -> String {
    s.split_whitespace()
        .filter(|t| !t.starts_with("wall=") && !t.starts_with("peak_rss="))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn convert_roundtrips_text_and_binary() {
    let log = TmpFile::new("convert.log");
    let bin = TmpFile::new("convert.ptbin");
    let back = TmpFile::new("convert-back.log");

    // A v2 log (seq= offsets) exercises the optional record fields.
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "6",
            "--seconds",
            "6",
            "--seed",
            "7",
        ])
        .args(["--capture-drop", "0.01"])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Text -> binary (parallel parse), direction sniffed from content.
    let out = pt()
        .args(["convert", log.as_str(), bin.as_str()])
        .args(["--ingest-threads", "2"])
        .output()
        .expect("run pt convert to binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PTBIN"));
    let bin_bytes = std::fs::read(&bin.0).unwrap();
    assert_eq!(&bin_bytes[..4], b"PTBN", "missing PTBIN magic");
    let text_bytes = std::fs::read(&log.0).unwrap();
    assert!(
        bin_bytes.len() < text_bytes.len(),
        "binary form should be more compact than text"
    );

    // Correlating the binary form reports exactly the text results.
    let correlate = |path: &str| {
        let out = pt()
            .args(["correlate", path, "--port", "80"])
            .args(["--internal", INTERNAL, "--stats"])
            .output()
            .expect("run pt correlate");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        strip_wall(&String::from_utf8_lossy(&out.stdout))
    };
    assert_eq!(
        correlate(log.as_str()),
        correlate(bin.as_str()),
        "binary correlation diverged from text"
    );

    // Binary -> text: byte-identical to the original log.
    let out = pt()
        .args(["convert", bin.as_str(), back.as_str()])
        .output()
        .expect("run pt convert to text");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&back.0).unwrap(),
        text_bytes,
        "text -> PTBIN -> text must round-trip byte-identically"
    );
}

#[test]
fn convert_reports_missing_arguments_by_name() {
    let err = stderr_of(&["convert"]);
    assert!(err.contains("missing input file"), "{err}");
    let err = stderr_of(&["convert", "/nonexistent.log"]);
    assert!(err.contains("missing output file"), "{err}");
    let err = stderr_of(&["convert", "/nonexistent.log", "/tmp/out.ptbin"]);
    assert!(err.contains("/nonexistent.log"), "{err}");
}

#[test]
fn stats_flag_reports_marker_dedup_on_lossy_v1_logs() {
    let log = TmpFile::new("lossy-v1.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "6",
            "--seconds",
            "6",
            "--seed",
            "9",
        ])
        .args(["--loss", "0.02", "--out", log.as_str()])
        .output()
        .expect("run pt simulate --loss");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&log.0).unwrap();
    assert!(
        text.lines().any(|l| l.ends_with(" retrans")),
        "lossy v1 log must carry retrans markers"
    );
    let out = pt()
        .args(["correlate", log.as_str(), "--port", "80"])
        .args(["--internal", INTERNAL, "--window-ms", "100", "--stats"])
        .output()
        .expect("run pt correlate --stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("ingest:"))
        .expect("ingest line");
    // v1 log: marker dedup fires, range dedup has nothing to do.
    assert!(line.contains("seq_dedup_ranges=0"), "{line}");
    assert!(line.contains("v2_records=0"), "{line}");
    let dropped: u64 = line
        .split("retrans_dropped=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap()
        .parse()
        .unwrap();
    assert!(dropped > 0, "marker dedup must drop records: {line}");
}

/// Extracts the integer value of `key=` from a `key=value` stats line.
fn stat(line: &str, key: &str) -> u64 {
    line.split(&format!("{key}="))
        .nth(1)
        .and_then(|s| s.split(['B', ' ']).next())
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {key}= in {line:?}"))
}

#[test]
fn serve_follows_a_file_to_idle_end_and_reports() {
    let log = TmpFile::new("serve.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "8",
            "--seconds",
            "6",
            "--seed",
            "5",
        ])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());
    let records = std::fs::read_to_string(&log.0).unwrap().lines().count() as u64;

    let out = pt()
        .args([
            "serve",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
        ])
        .args([
            "--idle-end-ms",
            "200",
            "--kpi-every",
            "200",
            "--print-paths",
        ])
        .output()
        .expect("run pt serve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stats = stdout
        .lines()
        .find(|l| l.starts_with("serve:"))
        .expect("final stats line");
    assert_eq!(stat(stats, "records"), records, "{stats}");
    assert!(
        stat(stats, "sealed") + stat(stats, "drained") > 0,
        "{stats}"
    );
    assert_eq!(stat(stats, "shed"), 0, "{stats}");
    assert!(stdout.contains("kpi: records="), "{stdout}");
    assert!(stdout.contains("path: root_ts="), "{stdout}");
}

/// The routed modes select candidates by causal claims, not by a
/// sliding window: every correlating subcommand says so when a window
/// is given with `--shards`, `serve` included.
#[test]
fn routed_modes_note_that_the_window_is_unused() {
    let log = TmpFile::new("window-note.log");
    let out = pt()
        .args(["simulate", "--clients", "4", "--seconds", "3"])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());
    const NOTE: &str = "note: --shards/--routers do not use the sliding window";
    let base = ["--port", "80", "--internal", INTERNAL, "--window-ms", "5"];
    let serve = ["--idle-end-ms", "100", "--kpi-every", "0"];
    for (args, noted) in [
        (vec!["correlate", log.as_str(), "--shards", "2"], true),
        (
            [&["serve", log.as_str(), "--shards", "2"][..], &serve].concat(),
            true,
        ),
        ([&["serve", log.as_str()][..], &serve].concat(), false),
    ] {
        let out = pt()
            .args(&args)
            .args(base)
            .output()
            .expect("run pt with a window");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert_eq!(stderr.contains(NOTE), noted, "{args:?}: {stderr}");
    }
}

#[test]
fn serve_rejects_bad_flags_by_name() {
    let err = stderr_of(&["serve", "--port", "80", "--internal", INTERNAL]);
    assert!(err.contains("missing source file"), "{err}");
    let err = stderr_of(&[
        "serve",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--shed",
        "panic",
    ]);
    assert!(err.contains("bad --shed"), "{err}");
    let err = stderr_of(&[
        "serve",
        "/nonexistent.log",
        "--port",
        "80",
        "--internal",
        INTERNAL,
        "--format",
        "csv",
    ]);
    assert!(err.contains("bad --format"), "{err}");
}

/// SIGTERM mid-stream: the daemon must stop tailing, drain what is
/// sealable, print the final stats line and exit 0.
#[test]
fn serve_drains_and_exits_zero_on_sigterm() {
    use std::io::Read as _;

    let log = TmpFile::new("sigterm.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "8",
            "--seconds",
            "6",
            "--seed",
            "11",
        ])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());
    let records = std::fs::read_to_string(&log.0).unwrap().lines().count() as u64;

    // No --idle-end-ms: the daemon follows forever; only the signal
    // ends it.
    let mut child = pt()
        .args([
            "serve",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
        ])
        .args(["--poll-ms", "5", "--kpi-every", "0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pt serve");

    // Give it time to ingest the whole file, then signal.
    std::thread::sleep(std::time::Duration::from_millis(600));
    let kill = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());

    // The drain must finish promptly; poll rather than block forever.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        match child.try_wait().expect("wait on pt serve") {
            Some(s) => break s,
            None if std::time::Instant::now() > deadline => {
                child.kill().ok();
                panic!("pt serve did not exit within 10s of SIGTERM");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    assert!(status.success(), "SIGTERM drain must exit 0, got {status}");

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let stats = stdout
        .lines()
        .find(|l| l.starts_with("serve:"))
        .expect("final stats line after SIGTERM");
    assert_eq!(stat(stats, "records"), records, "{stats}");
    assert!(
        stat(stats, "sealed") + stat(stats, "drained") > 0,
        "{stats}"
    );
}

/// SIGTERM mid-stream with the spill tier active: the drain must
/// remove every spill artifact — nothing matching `pt-spill-*` may
/// survive in the spill directory after the daemon exits.
#[test]
fn serve_sigterm_leaves_no_spill_artifacts() {
    use std::io::Read as _;

    let log = TmpFile::new("spillterm.log");
    let out = pt()
        .args([
            "simulate",
            "--clients",
            "8",
            "--seconds",
            "6",
            "--seed",
            "17",
        ])
        .args(["--out", log.as_str()])
        .output()
        .expect("run pt simulate");
    assert!(out.status.success());

    // A dedicated spill directory so leftover files are unambiguous.
    let spill_dir = std::env::temp_dir().join(format!("pt-cli-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();

    // Tiny budget: the daemon pages state through the spill file while
    // following; only the signal ends it.
    let mut child = pt()
        .args([
            "serve",
            log.as_str(),
            "--port",
            "80",
            "--internal",
            INTERNAL,
        ])
        .args(["--poll-ms", "5", "--kpi-every", "0"])
        .args(["--memory-budget", "64K"])
        .args(["--spill-dir", spill_dir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pt serve");

    std::thread::sleep(std::time::Duration::from_millis(600));
    let kill = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        match child.try_wait().expect("wait on pt serve") {
            Some(s) => break s,
            None if std::time::Instant::now() > deadline => {
                child.kill().ok();
                panic!("pt serve did not exit within 10s of SIGTERM");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    assert!(status.success(), "SIGTERM drain must exit 0, got {status}");

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let stats = stdout
        .lines()
        .find(|l| l.starts_with("serve:"))
        .expect("final stats line after SIGTERM");
    assert_eq!(stat(stats, "shed"), 0, "spill mode must not shed: {stats}");

    let stray: Vec<String> = std::fs::read_dir(&spill_dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.ok()?.file_name().to_string_lossy().into_owned();
            name.starts_with("pt-spill-").then_some(name)
        })
        .collect();
    std::fs::remove_dir_all(&spill_dir).ok();
    assert!(
        stray.is_empty(),
        "spill artifacts survived the SIGTERM drain: {stray:?}"
    );
}
