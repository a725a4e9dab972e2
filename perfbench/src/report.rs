//! Folding samples into the run's metrics, and printing them.

use crate::sample::Sample;

/// End-to-end metrics: name and unit, printed with tracing off. Units
/// name the clock: `sim_` units are simulated device time, the others
/// host wall time or plain counts.
pub const END_TO_END: [(&str, &str); 9] = [
    ("sim_ops_per_s", "ops/sim_s"),
    ("sim_p50_us", "sim_us"),
    ("sim_p99_us", "sim_us"),
    ("waf", "ratio"),
    ("host_writes_per_op", "pages/op"),
    ("host_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics: name and unit. Printed by the traced run; a metric
/// a workload's layers do not produce reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("core.read.calls", "count"),
    ("core.read.pages", "pages"),
    ("core.read.host_us", "us/call"),
    ("core.read.sim_us", "sim_us/call"),
    ("core.write.calls", "count"),
    ("core.write.pages", "pages"),
    ("core.write.host_us", "us/call"),
    ("core.write.sim_us", "sim_us/call"),
    ("core.share.calls", "count"),
    ("core.share.pages", "pages"),
    ("core.share.host_us", "us/call"),
    ("core.share.sim_us", "sim_us/call"),
    ("core.flush.calls", "count"),
    ("core.flush.pages", "pages"),
    ("core.flush.host_us", "us/call"),
    ("core.flush.sim_us", "sim_us/call"),
    ("core.trim.calls", "count"),
    ("core.trim.pages", "pages"),
    ("core.trim.host_us", "us/call"),
    ("core.trim.sim_us", "sim_us/call"),
    ("core.submit.calls", "count"),
    ("core.submit.pages", "pages"),
    ("core.submit.host_us", "us/call"),
    ("core.submit.sim_us", "sim_us/call"),
    ("core.complete.calls", "count"),
    ("core.complete.pages", "completions"),
    ("core.complete.host_us", "us/call"),
    ("core.complete.sim_us", "sim_us/call"),
    ("core.host_frac", "ratio"),
    ("core.gc_events", "count"),
    ("core.copyback_pages", "pages"),
    ("core.gc_stall_ms", "sim_ms"),
    ("core.gc_reclaim_ratio", "ratio"),
    ("core.meta_page_writes", "pages"),
    ("core.checkpoints", "count"),
    ("core.shared_pages", "pages"),
    ("core.lane_steals", "count"),
    ("nand.page_reads", "pages"),
    ("nand.page_programs", "pages"),
    ("nand.block_erases", "count"),
    ("innodb.self_host_us_per_op", "us/op"),
    ("innodb.pool_hit_ratio", "ratio"),
    ("innodb.pages_flushed", "pages"),
    ("innodb.dwb_pages_written", "pages"),
    ("innodb.share_fallbacks", "count"),
    ("innodb.group_commits", "count"),
    ("innodb.log_sim_ms", "sim_ms"),
    ("couch.self_host_us_per_op", "us/op"),
    ("couch.share_remaps", "count"),
    ("couch.share_fallbacks", "count"),
    ("couch.doc_blocks_appended", "blocks"),
    ("couch.node_blocks_appended", "blocks"),
    ("couch.commits", "count"),
    ("vfs.journal_commits", "count"),
    ("vfs.journal_pages", "pages"),
    ("workloads.gen_host_us_per_op", "us/op"),
];

/// Extra per-layer metric of the traced run: its own host speed, to set
/// against the untraced `host_ops_per_s` (the tracing overhead).
pub const TRACED_HOST_OPS: (&str, &str) = ("trace.host_ops_per_s", "ops/s");

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host throughput of the window. Every sample replays the identical
/// window, so each chunk's host time is taken as its fastest over the
/// samples: on a shared host, other tenants only ever slow a chunk down.
pub fn host_ops_per_s(samples: &[Sample]) -> f64 {
    let chunks = samples[0].chunk_ns.len();
    let total_ns: u64 = (0..chunks)
        .map(|i| samples.iter().map(|s| s.chunk_ns[i]).min().expect("at least one sample"))
        .sum();
    samples[0].ops as f64 / (total_ns as f64 / 1e9)
}

/// The run's outcome.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    /// Fold the samples of one run. `traced` selects the metric set.
    pub fn new(samples: &[Sample], traced: bool, peak_rss_mb: f64) -> Report {
        let first = &samples[0];
        let identical = samples.iter().all(|s| s.fingerprint == first.fingerprint);
        let mismatches: u64 = samples.iter().filter_map(|s| s.mismatches).sum();
        let checked = samples.iter().any(|s| s.mismatches.is_some());
        let attempted: u64 = samples.iter().map(|s| s.ops).sum();
        let failed: u64 = samples.iter().map(|s| s.failed).sum();
        let mut notes = vec![
            format!(
                "samples: {} (each a fresh set-up plus one {}-op window)",
                samples.len(),
                first.ops
            ),
            format!(
                "error_rate: {} ({failed} of {attempted} ops failed)",
                failed as f64 / attempted as f64
            ),
            format!("shadow-model check: {mismatches} mismatches"),
            format!("simulated fingerprints identical across samples: {identical}"),
            format!("simulated latency samples (one per op) per window: {}", first.lat_ns.len()),
        ];
        let metrics = if traced {
            let host = host_ops_per_s(samples);
            let mut m: Vec<(&'static str, f64, &'static str)> = PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    // Counts repeat in every sample; host times take the
                    // median over the samples.
                    let v = median_f64(
                        samples
                            .iter()
                            .map(|s| s.layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1))
                            .collect(),
                    );
                    (name, v, unit)
                })
                .collect();
            m.push((TRACED_HOST_OPS.0, host, TRACED_HOST_OPS.1));
            m
        } else {
            let mut lat = first.lat_ns.clone();
            lat.sort_unstable();
            let ops = first.ops as f64;
            let values = [
                ops / (first.sim_ns as f64 / 1e9),
                percentile(&lat, 0.50) as f64 / 1e3,
                percentile(&lat, 0.99) as f64 / 1e3,
                first.dev.nand.page_programs as f64 / first.dev.host_writes.max(1) as f64,
                first.dev.host_writes as f64 / ops,
                host_ops_per_s(samples),
                median_f64(samples.iter().map(|s| s.setup_ns as f64 / 1e9).collect()),
                peak_rss_mb,
                1.0 - failed as f64 / attempted as f64,
            ];
            END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
        };
        if !identical {
            notes.push("FAIL: samples of one seed diverged on the simulated clock".into());
        }
        if !checked || mismatches > 0 {
            notes.push("FAIL: outputs do not match the shadow model".into());
        }
        Report {
            correct: identical && checked && mismatches == 0,
            attempted,
            failed,
            metrics,
            notes,
        }
    }

    /// The final stdout line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
