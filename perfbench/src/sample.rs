//! What one sample (set-up plus measured window) yields, and the helpers
//! the workloads share to produce it.

use crate::timed::{Cmd, Ledger};
use share_core::DeviceStats;
use share_rng::{Rng, StdRng};
use std::time::Instant;

/// Output of one sample: a fresh deterministic set-up followed by one
/// measured window of a fixed number of ops.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host time of device creation, load and warm-up.
    pub setup_ns: u64,
    /// Host time of each chunk of the measured window, in window order.
    pub chunk_ns: Vec<u64>,
    /// Ops in the measured window.
    pub ops: u64,
    /// Ops that returned an error or were refused.
    pub failed: u64,
    /// Simulated latency of every op in the window.
    pub lat_ns: Vec<u64>,
    /// Simulated length of the window.
    pub sim_ns: u64,
    /// Data-device counters over the window.
    pub dev: DeviceStats,
    /// Hash of every simulated outcome of the sample: cumulative device
    /// counters, final simulated clock, engine counters and the digest of
    /// the values the window read back. Identical for identical runs.
    pub fingerprint: u64,
    /// Values the shadow-model check found wrong (`None` when the check
    /// did not run on this sample).
    pub mismatches: Option<u64>,
    /// Per-layer metrics of the window (traced samples only).
    pub layers: Vec<(&'static str, f64)>,
}

/// FNV-1a accumulator for result digests and fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a value's `Debug` rendering (counter structs).
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Fill `buf` with the content of `key` after its `version`-th write: the
/// shadow models keep only versions and regenerate content to check it.
pub fn fill_versioned(seed: u64, key: u64, version: u32, buf: &mut [u8]) {
    let k = seed ^ key.rotate_left(24) ^ (version as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    StdRng::seed_from_u64(k).fill(buf);
}

/// Host-time spans the benchmark records around its own calls into the
/// engine and the workload generators. Off (no clock reads) unless the
/// run is traced.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    /// Host time inside engine calls, device calls included.
    pub engine_ns: u64,
    /// Host time inside op generators and payload generation.
    pub gen_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self { on, ..Self::default() }
    }

    pub fn engine<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.engine_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn gen<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.gen_ns += t0.elapsed().as_nanos() as u64;
        out
    }
}

/// Run rounds `0..rounds` of a measured window, timing each chunk of
/// `chunk` consecutive rounds on the host clock. Returns the chunk times
/// and the whole window's host time.
pub fn timed_chunks(rounds: u64, chunk: u64, mut round: impl FnMut(u64)) -> (Vec<u64>, u64) {
    let window = Instant::now();
    let mut chunk_ns = Vec::with_capacity(rounds.div_ceil(chunk) as usize);
    for first in (0..rounds).step_by(chunk as usize) {
        let t0 = Instant::now();
        (first..(first + chunk).min(rounds)).for_each(&mut round);
        chunk_ns.push(t0.elapsed().as_nanos() as u64);
    }
    (chunk_ns, window.elapsed().as_nanos() as u64)
}

/// Per-layer metrics of the device boundary, the FTL's own counters and
/// the NAND array, over one window.
pub fn core_layers(
    ledger: &Ledger,
    dev: &DeviceStats,
    window_host_ns: u64,
    pages_per_block: u64,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for cmd in Cmd::REPORTED {
        let s = ledger.get(cmd);
        let per_call = |v: u64| if s.calls == 0 { 0.0 } else { v as f64 / s.calls as f64 };
        let [calls, pages, host_us, sim_us] = CMD_METRICS[cmd as usize];
        out.push((calls, s.calls as f64));
        out.push((pages, s.pages as f64));
        out.push((host_us, per_call(s.host_ns) / 1e3));
        out.push((sim_us, per_call(s.sim_ns) / 1e3));
    }
    out.push(("core.host_frac", ledger.host_ns() as f64 / window_host_ns.max(1) as f64));
    let victim_pages = dev.gc_erases * pages_per_block;
    let reclaim = if victim_pages == 0 {
        0.0
    } else {
        victim_pages.saturating_sub(dev.copyback_pages) as f64 / victim_pages as f64
    };
    out.extend([
        ("core.gc_events", dev.gc_events as f64),
        ("core.copyback_pages", dev.copyback_pages as f64),
        ("core.gc_stall_ms", dev.gc_stall_ns as f64 / 1e6),
        ("core.gc_reclaim_ratio", reclaim),
        ("core.meta_page_writes", dev.meta_page_writes as f64),
        ("core.checkpoints", dev.checkpoints as f64),
        ("core.shared_pages", dev.shared_pages as f64),
        ("core.lane_steals", dev.lane_steals as f64),
        ("nand.page_reads", dev.nand.page_reads as f64),
        ("nand.page_programs", dev.nand.page_programs as f64),
        ("nand.block_erases", dev.nand.block_erases as f64),
    ]);
    out
}

/// Metric names of each reported command class, indexed by `Cmd`.
const CMD_METRICS: [[&str; 4]; 7] = [
    ["core.read.calls", "core.read.pages", "core.read.host_us", "core.read.sim_us"],
    ["core.write.calls", "core.write.pages", "core.write.host_us", "core.write.sim_us"],
    ["core.share.calls", "core.share.pages", "core.share.host_us", "core.share.sim_us"],
    ["core.flush.calls", "core.flush.pages", "core.flush.host_us", "core.flush.sim_us"],
    ["core.trim.calls", "core.trim.pages", "core.trim.host_us", "core.trim.sim_us"],
    ["core.submit.calls", "core.submit.pages", "core.submit.host_us", "core.submit.sim_us"],
    ["core.complete.calls", "core.complete.pages", "core.complete.host_us", "core.complete.sim_us"],
];
