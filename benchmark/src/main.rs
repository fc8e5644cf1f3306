//! `ptbench` — the repository benchmark. See `benchmark/README.md`.

mod agree;
mod contract;
mod generator;
mod json;
mod layers;
mod legs;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Size, Workload, WORKLOADS};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 0x5eed;
/// Seconds of a run that names none (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "\
usage: ptbench run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                   [--smoke|--full] [--out FILE]
       ptbench agree A.json B.json
       ptbench router --stdio        (the distributed leg's child)
       ptbench batch-child TEXT PORTS IPS   (the RSS leg's child)";

/// Where corpora, live files, spill files and traces go: `out/` beside
/// this package's manifest, inside the checkout whatever the working
/// directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Confines this process — and every thread and child it starts from
/// here on — to the first CPU it may run on; returns that CPU.
///
/// The sandbox's second CPU comes and goes: the same two-thread loop
/// takes 58 ms or 80 ms for stretches of seconds, and 80 ms whenever it
/// is held to one CPU, so a leg with two busy threads reads a third
/// apart from one run to the next, with nothing in the program to
/// explain it. On one CPU every leg measures the work its mode does —
/// which repeats — and none measures how well that work overlaps, which
/// this machine cannot repeat.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // which is all `sched_getaffinity(2)` requires; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let bit = bits.trailing_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // call only reads; pid 0 is this thread, the only one so far, and
    // threads and children started later inherit its mask.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(word * 64 + bit as usize)
}

/// Makes every repetition pay for its large buffers the way a fresh
/// process does, by fixing glibc's mmap threshold at its start-up value.
///
/// Left alone, glibc raises that threshold each time a large block is
/// freed, so whether a repetition's buffers come from memory already
/// faulted in or from fresh pages depends on what earlier legs happened
/// to free: the convert leg read 2.2M or 2.7M rec/s by that alone, the
/// same for a whole run and different between runs. A user's `pt
/// correlate FILE` is a fresh process and always pays.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_allocator_history() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt(3)` takes two integers and only sets allocator
    // parameters; it is called once, before any other thread exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_allocator_history() {}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other(
        "CPU pinning is implemented for Linux only",
    ))
}

fn main() -> ExitCode {
    fix_allocator_history();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|o| run::run(&o)),
        Some("router") if args.get(1).is_some_and(|a| a == "--stdio") => {
            tracer_core::serve_router(std::io::stdin(), std::io::stdout())
                .map(|()| true)
                .map_err(Into::into)
        }
        Some("batch-child") => legs::batch_child(&args[1..]).map(|()| true),
        Some("agree") => agree::agree(&args[1..]),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ptbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_seed(s: &str) -> Res<u64> {
    Ok(match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16)?,
        None => s.parse()?,
    })
}

fn parse_run(args: &[String]) -> Res<run::Options> {
    let mut opts = run::Options {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        size: Size::Bench,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = Workload::named(name).ok_or(format!("unknown workload {name}"))?;
                    opts.workloads = vec![w];
                }
            }
            "--seed" => opts.seed = parse_seed(value()?)?,
            "--seconds" => opts.seconds = value()?.parse()?,
            "--trace" => opts.trace = value()? != "0",
            "--out" => opts.out = Some(value()?.into()),
            "--smoke" => opts.size = Size::Smoke,
            "--full" => opts.size = Size::Full,
            other => return Err(format!("unknown flag {other}\n{USAGE}").into()),
        }
    }
    Ok(opts)
}
