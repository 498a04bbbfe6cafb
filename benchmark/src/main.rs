//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! migration-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint, the workload's cells, the simulated-metrics
//! digest and every metric by name and unit, and as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on bad
//! arguments.

use std::process::{Command, ExitCode};

use migration_benchmark::stats::failed_frac;
use migration_benchmark::workload::Workload;

const USAGE: &str =
    "usage: migration-benchmark --workload <btree-sm|counting-sm|counting-mp|btree-faults> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// CPU model, core count and compiler, so a result can be matched to the
/// host it was measured on.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    format!("host cpu={cpu:?} nproc={nproc} rustc={rustc:?}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint());
    let report =
        migration_benchmark::run(args.workload, args.seed, args.seconds as f64, args.trace);
    println!(
        "workload={} seed={} trace={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!("sim_digest={:016x}", report.digest);
    println!(
        "failed_frac={} ({} of {} ops)",
        failed_frac(report.attempted, report.failed),
        report.failed,
        report.attempted
    );
    for e in &report.errors {
        println!("FAILED {e}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
