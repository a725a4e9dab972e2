//! Two-clock benchmark of the SHARE reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload (`linkbench-share`, `ycsb-a-share`,
//! `ftl-overwrite-storm`) and prints every metric by name with its unit;
//! the last stdout line is one JSON object. Each sample is a fresh,
//! deterministic set-up plus one measured window of a fixed op count, so
//! simulated metrics repeat exactly for a seed; samples repeat until
//! `--seconds` of host time is spent, and host metrics fold them (see
//! `report`). `--trace 1` runs the FTL behind the timing wrapper and prints
//! the per-layer metrics instead. See README.md for the metric definitions.

mod linkbench;
mod report;
mod sample;
mod storm;
#[cfg(test)]
mod tests;
mod timed;
mod ycsb;

use report::Report;
use sample::Sample;
use share_core::Ftl;
use std::time::Instant;
use timed::{Probe, Timed};

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["linkbench-share", "ycsb-a-share", "ftl-overwrite-storm"];

/// Samples below this count are taken even past `--seconds`: the fastest
/// replay of each chunk and the median set-up need several.
const MIN_SAMPLES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One sample of `workload`, with the FTL bare (`Ftl`) or timed
/// (`Timed<Ftl>`).
pub fn sample<D: Probe>(workload: &str, seed: u64, traced: bool, check: bool) -> Sample {
    match workload {
        "linkbench-share" => {
            linkbench::sample::<D>(&linkbench::LinkConfig::BENCH, seed, traced, check)
        }
        "ycsb-a-share" => ycsb::sample::<D>(&ycsb::YcsbConfig::BENCH, seed, traced, check),
        "ftl-overwrite-storm" => {
            storm::sample::<D>(&storm::StormConfig::BENCH, seed, traced, check)
        }
        other => unreachable!("workload {other} passed argument validation"),
    }
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut rss = Ok(0.0);
    while samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        // The first sample's outputs are checked against the shadow
        // model; the others must match its simulated fingerprint.
        let check = samples.is_empty();
        let s = if args.trace {
            sample::<Timed<Ftl>>(&args.workload, args.seed, true, check)
        } else {
            sample::<Ftl>(&args.workload, args.seed, false, check)
        };
        samples.push(s);
        if check {
            // The peak of one sample: later samples reuse freed memory,
            // and their count depends on host speed.
            rss = peak_rss_mb();
        }
    }
    let rss = match rss {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let report = Report::new(&samples, args.trace, rss);
    println!("workload {} seed {} trace {}", args.workload, args.seed, args.trace as u8);
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, v, unit) in &report.metrics {
        println!("  {name:<32} {v:>16.4} {unit}");
    }
    println!("{}", report.json());
}
