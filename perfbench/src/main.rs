//! The sponsored-search benchmark: runs one named workload from a seed,
//! checks the program's outputs, and prints its metrics.
//!
//! ```text
//! perfbench --workload <static-1k|sql-roi|wire-wal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Reference figures (p99s with sample counts, recovery)
//! come on the lines before it. See `README.md` beside this crate.

mod check;
mod clock;
mod inproc;
mod ops;
mod probe;
mod report;
mod sqlroi;
mod static1k;
mod stats;
mod trace;
mod wirewal;

use std::path::PathBuf;
use std::process::exit;
use trace::Tracer;

/// What one run is asked to do.
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed phases together.
    pub seconds: f64,
    /// Tiny populations, for smoke tests.
    pub tiny: bool,
    /// A directory of this run's own, removed when it ends.
    pub data_dir: PathBuf,
    /// Shards of the per-click market (reference runs only; 1 otherwise).
    pub shards: usize,
    /// Rates of extra open-loop wire phases (reference runs only).
    pub open_loop: Vec<f64>,
}

/// Runs `workload`; `None` if the name is unknown.
pub fn run(workload: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Option<report::Report> {
    let workload: fn(&RunConfig, &mut Tracer) -> report::Report = match workload {
        "static-1k" => static1k::run,
        "sql-roi" => sqlroi::run,
        "wire-wal" => wirewal::run,
        _ => return None,
    };
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    std::fs::create_dir_all(&cfg.data_dir).expect("run directory is writable");
    let report = workload(cfg, tracer);
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    Some(report)
}

/// Where runs keep their data directories and traces: inside this crate.
fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".runs")
}

const USAGE: &str = "\
usage: perfbench --workload <static-1k|sql-roi|wire-wal> --seed <n> --seconds <s> --trace <0|1>
reference figures only:
  --shards <n>          shards of the static-1k / wire-wal market (default 1)
  --open-loop <r,r,..>  wire-wal: after the timed phases, one open-loop phase per rate (1/s)";

/// Runs this process on one CPU with one malloc arena. Call it before
/// starting any thread: it pins the calling thread, and every thread it
/// starts afterwards, to the lowest-numbered CPU it may run on, and
/// returns that CPU.
///
/// On one CPU the client and the server's session and executor threads
/// hand over by context switches, never waiting for a wakeup on another
/// CPU. Unpinned on a 2-vCPU virtual machine, those cross-CPU wakeups
/// moved the median closed-loop wire latency between 0.33 and 0.51 ms
/// from run to run; pinned, it stayed within 0.24 to 0.26 ms.
///
/// Threads on one CPU never allocate at the same time, so they share one
/// arena. With glibc's arena per thread, peak memory depended on which
/// thread reused which arena's freed memory: 62.7 or 80 MB between
/// identical wire-wal runs.
fn run_on_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX`.
    const M_ARENA_MAX: i32 = -8;
    let mut mask = [0u8; 128];
    // SAFETY: the buffer is valid for the length passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..mask.len() * 8)
        .find(|&c| (mask[c / 8] >> (c % 8)) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: no other thread exists yet to allocate concurrently.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        return Err(std::io::Error::other("mallopt(M_ARENA_MAX, 1) refused"));
    }
    Ok(cpu)
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, 10.0f64, false);
    let (mut shards, mut open_loop) = (1usize, Vec::new());
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => seed = v.parse().unwrap_or_else(|_| fail("bad --seed")),
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 120.0 => seconds = s,
                _ => fail("--seconds must be in (0, 120]"),
            },
            ("--trace", Some("0")) => traced = false,
            ("--trace", Some("1")) => traced = true,
            ("--shards", Some(v)) => match v.parse::<usize>() {
                Ok(n) if (1..=8).contains(&n) => shards = n,
                _ => fail("--shards must be in 1..=8"),
            },
            ("--open-loop", Some(v)) => {
                open_loop = v
                    .split(',')
                    .map(|r| match r.parse::<f64>() {
                        Ok(r) if r > 0.0 && r <= 100_000.0 => r,
                        _ => fail("--open-loop takes rates in (0, 100000]"),
                    })
                    .collect()
            }
            (flag, _) => fail(&format!("bad argument {flag:?}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    let cfg = RunConfig {
        seed,
        seconds,
        tiny: false,
        data_dir: runs_dir().join(format!("{workload}-{}", std::process::id())),
        shards,
        open_loop,
    };
    // One shard runs on one CPU; a fanned-out market needs them all.
    if cfg.shards == 1 {
        match run_on_one_cpu() {
            Ok(cpu) => println!("pinned to cpu {cpu}, one malloc arena"),
            Err(e) => println!("not pinned to one CPU: {e}"),
        }
    }
    let mut tracer = Tracer::new(traced);
    let Some(report) = run(&workload, &cfg, &mut tracer) else {
        fail(&format!("unknown workload {workload:?}"));
    };
    if traced {
        let path = runs_dir().join(format!("trace-{workload}-{seed}.jsonl"));
        tracer.write_jsonl(&path).expect("trace file is writable");
        println!("spans written to {}", path.display());
        for (name, t) in tracer.totals() {
            println!(
                "span {name}: count {} total_ms {:.3} self_ms {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    report.print(traced);
}

#[cfg(test)]
mod smoke {
    use super::*;

    fn smoke(workload: &str, traced: bool) {
        smoke_on(workload, traced, 1);
    }

    fn smoke_on(workload: &str, traced: bool, shards: usize) {
        let cfg = RunConfig {
            seed: 7,
            seconds: 0.4,
            tiny: true,
            data_dir: runs_dir().join(format!(
                "smoke-{workload}-{traced}-{shards}-{}",
                std::process::id()
            )),
            shards,
            open_loop: if workload == "wire-wal" {
                vec![200.0]
            } else {
                Vec::new()
            },
        };
        let mut tracer = Tracer::new(traced);
        let report = run(workload, &cfg, &mut tracer).expect("known workload");
        assert_eq!(
            report.problems,
            Vec::<String>::new(),
            "{workload} output checks"
        );
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0);
        for (name, _) in report::END_TO_END {
            let v = report.end_to_end[name];
            assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}");
        }
        if traced {
            assert!(!tracer.spans().is_empty());
            for name in ["core.eval_us", "net.codec_us", "durable.append_us"] {
                assert!(report.layers[name] > 0.0, "{workload} {name}");
            }
        }
    }

    #[test]
    fn static_1k_completes_at_tiny_size() {
        smoke("static-1k", false);
        smoke("static-1k", true);
    }

    #[test]
    fn sql_roi_completes_at_tiny_size() {
        smoke("sql-roi", false);
        smoke("sql-roi", true);
    }

    #[test]
    fn wire_wal_completes_at_tiny_size() {
        smoke("wire-wal", false);
        smoke("wire-wal", true);
    }

    /// The `--shards` path of the reference figures: the market fans out
    /// and the checks still hold.
    #[test]
    fn two_shards_complete_at_tiny_size() {
        smoke_on("static-1k", false, 2);
        smoke_on("wire-wal", false, 2);
    }

    #[test]
    fn unknown_workload_is_refused() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 0.1,
            tiny: true,
            data_dir: runs_dir().join(format!("smoke-unknown-{}", std::process::id())),
            shards: 1,
            open_loop: Vec::new(),
        };
        assert!(run("no-such", &cfg, &mut Tracer::new(false)).is_none());
    }
}
