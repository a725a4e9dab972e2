//! Minimal wall-clock micro-benchmark harness (in-repo replacement for the
//! external criterion dependency — see the workspace no-registry policy).
//!
//! Each benchmark collects `samples` timed samples; per sample the routine
//! runs enough iterations to fill a target window (auto-calibrated), and
//! the reported figure is the per-iteration median across samples with the
//! min/max spread. Results print one line each:
//!
//! ```text
//! ftl/write_4k            median    1.23 µs/iter  (min 1.20, max 1.41, 30 samples)  0.81 Melem/s
//! ```
//!
//! Environment knobs:
//! * `SHARE_BENCH_SAMPLES`   — override every benchmark's sample count
//! * `SHARE_BENCH_WINDOW_MS` — target per-sample window (default 10 ms)

use std::time::{Duration, Instant};

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn target_window() -> Duration {
    Duration::from_millis(env_usize("SHARE_BENCH_WINDOW_MS").unwrap_or(10) as u64)
}

/// One benchmark group; mirrors the handful of criterion idioms the old
/// bench files used (`sample_size`, `throughput`, `bench_function`).
pub struct Group {
    name: String,
    samples: usize,
    elements: u64,
}

impl Group {
    pub fn new(name: &str) -> Self {
        Group { name: name.to_string(), samples: 20, elements: 1 }
    }

    /// Number of timed samples per benchmark (env override wins).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = env_usize("SHARE_BENCH_SAMPLES").unwrap_or(n);
        self
    }

    /// Elements processed per iteration, for the throughput column.
    pub fn throughput_elements(&mut self, n: u64) -> &mut Self {
        self.elements = n;
        self
    }

    /// Time `f` per call: auto-calibrates an iteration count per sample so
    /// each sample fills the target window, then reports per-call medians.
    pub fn bench_function(&mut self, id: impl AsRef<str>, mut f: impl FnMut()) {
        let samples = env_usize("SHARE_BENCH_SAMPLES").unwrap_or(self.samples);
        // Calibrate: grow iters until one batch exceeds ~1/4 of the window.
        let window = target_window();
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let el = t.elapsed();
            if el >= window / 4 || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        let mut per_iter = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.report(id.as_ref(), &mut per_iter, samples);
    }

    /// Time `routine` over fresh state from `setup`; setup cost is excluded.
    /// Each sample is a single routine call (for heavyweight routines).
    /// The routine's output is dropped after the clock stops, so a routine
    /// that returns its state keeps that state's teardown out of the
    /// sample.
    pub fn bench_batched<S, O>(
        &mut self,
        id: impl AsRef<str>,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> O,
    ) {
        let samples = env_usize("SHARE_BENCH_SAMPLES").unwrap_or(self.samples);
        let mut per_iter = Vec::with_capacity(samples);
        for _ in 0..samples {
            let state = setup();
            let t = Instant::now();
            let out = routine(state);
            per_iter.push(t.elapsed().as_nanos() as f64);
            std::hint::black_box(out);
        }
        self.report(id.as_ref(), &mut per_iter, samples);
    }

    fn report(&self, id: &str, per_iter: &mut [f64], samples: usize) {
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let min = per_iter[0];
        let max = per_iter[per_iter.len() - 1];
        let thr = if self.elements > 0 && median > 0.0 {
            // elements per iteration / seconds per iteration, in Melem/s
            format!("  {:>8.2} Melem/s", self.elements as f64 / median * 1e3)
        } else {
            String::new()
        };
        println!(
            "{:<28} median {}  (min {}, max {}, {} samples){}",
            format!("{}/{}", self.name, id),
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(max),
            samples,
            thr
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:>8.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:>8.2} µs/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:>8.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:>8.2} s/iter ", ns / 1_000_000_000.0)
    }
}

/// Entry-point helper for `harness = false` bench targets: prints a header
/// and runs each registered group closure in order. Accepts and ignores
/// harness-style CLI arguments (`--bench`, filters) so `cargo bench` works.
pub fn main_with(title: &str, groups: &mut [(&str, &mut dyn FnMut(&mut Group))]) {
    println!("== {title} ==");
    for (name, body) in groups.iter_mut() {
        let mut g = Group::new(name);
        body(&mut g);
    }
}
