//! `ftl-overwrite-storm`: the raw FTL with no engine or file system.
//!
//! The logical space is filled, then every pass rewrites each page whose
//! seeded lifetime class divides the pass number (lifetimes of 1–4
//! passes, so hot pages take about half of all writes), in a seeded
//! order, and ends with a flush. Warm-up passes bring GC to steady state
//! before the measured window. The writes of a pass go out in rounds of
//! one write per simulated connection. Only writes, and no SHARE.

use crate::sample::{core_layers, fill_versioned, timed_chunks, Digest, Sample, Spans};
use crate::timed::Probe;
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn};
use share_rng::{Rng, StdRng};
use std::time::Instant;

const PAGE: usize = 4096;
const PAGES_PER_BLOCK: u32 = 128;

/// Sizes of one storm.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Logical pages (all of them are written before the storm starts).
    pub pages: u64,
    /// Spare data-pool space over the logical space.
    pub over_provision: f64,
    /// Unmeasured passes that bring GC to steady state.
    pub warm_passes: u64,
    /// Measured passes (one window chunk each).
    pub passes: u64,
    /// Simulated connections: writes per round.
    pub connections: usize,
}

impl StormConfig {
    pub const BENCH: StormConfig = StormConfig {
        pages: 16_384,
        over_provision: 0.25,
        warm_passes: 8,
        passes: 24,
        connections: 16,
    };
}

struct Storm<D> {
    dev: D,
    seed: u64,
    order_rng: StdRng,
    lifetime: Vec<u64>,
    version: Vec<u32>,
    buf: Vec<u8>,
    failed: u64,
}

impl<D: BlockDevice> Storm<D> {
    /// One pass. Its writes go out in rounds of `conns`; the round is the
    /// closed loop's cycle, so each write completes when its round does,
    /// and the pass's closing flush belongs to its last round. `lat`
    /// collects each write's latency.
    fn pass(&mut self, pass: u64, conns: usize, spans: &mut Spans, mut lat: Option<&mut Vec<u64>>) {
        let due = spans.gen(|| {
            let pages = self.lifetime.len();
            let mut order: Vec<u64> = (0..pages as u64).collect();
            for i in (1..pages).rev() {
                order.swap(i, self.order_rng.random_range(0..=i));
            }
            order.retain(|&lpn| pass.is_multiple_of(self.lifetime[lpn as usize]));
            order
        });
        let clock = self.dev.clock().clone();
        let rounds = due.len().div_ceil(conns);
        for (i, round) in due.chunks(conns).enumerate() {
            let t0 = clock.now_ns();
            for &lpn in round {
                let version = self.version[lpn as usize] + 1;
                spans.gen(|| fill_versioned(self.seed, lpn, version, &mut self.buf));
                match self.dev.write(Lpn(lpn), &self.buf) {
                    Ok(()) => self.version[lpn as usize] = version,
                    Err(_) => self.failed += 1,
                }
            }
            if i + 1 == rounds && self.dev.flush().is_err() {
                self.failed += 1;
            }
            if let Some(lat) = lat.as_deref_mut() {
                lat.extend(std::iter::repeat_n(clock.now_ns() - t0, round.len()));
            }
        }
    }

    /// Read every page back against the shadow versions.
    fn check(&mut self) -> u64 {
        let mut got = vec![0u8; PAGE];
        let mut mismatches = 0;
        for lpn in 0..self.lifetime.len() as u64 {
            fill_versioned(self.seed, lpn, self.version[lpn as usize], &mut self.buf);
            if self.dev.read(Lpn(lpn), &mut got).is_err() || got != self.buf {
                mismatches += 1;
            }
        }
        mismatches
    }
}

pub fn sample<D: Probe>(cfg: &StormConfig, seed: u64, traced: bool, check: bool) -> Sample {
    let setup = Instant::now();
    let fcfg = FtlConfig::for_capacity_with(
        cfg.pages * PAGE as u64,
        cfg.over_provision,
        PAGE,
        PAGES_PER_BLOCK,
        NandTiming::default(),
    )
    .with_parallelism(4, 1);
    let mut key_rng = StdRng::seed_from_u64(seed ^ 0x5709_0000);
    let lifetime = (0..cfg.pages).map(|_| 1 + key_rng.random_range(0..4u64)).collect();
    let mut st = Storm {
        dev: D::wrap(Ftl::new(fcfg)),
        seed,
        order_rng: key_rng,
        lifetime,
        version: vec![0; cfg.pages as usize],
        buf: vec![0u8; PAGE],
        failed: 0,
    };
    let mut spans = Spans::new(false);
    for lpn in 0..cfg.pages {
        fill_versioned(seed, lpn, 0, &mut st.buf);
        st.dev.write(Lpn(lpn), &st.buf).expect("fill write");
    }
    for pass in 1..=cfg.warm_passes {
        st.pass(pass, cfg.connections, &mut spans, None);
    }
    assert_eq!(st.failed, 0, "warm-up write failed");
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let mut spans = Spans::new(traced);
    let dev0 = st.dev.stats();
    let ledger0 = st.dev.ledger();
    let sim0 = st.dev.clock().now_ns();
    let mut lat = Vec::new();
    let (chunk_ns, window_ns) = timed_chunks(cfg.passes, 1, |i| {
        st.pass(cfg.warm_passes + 1 + i, cfg.connections, &mut spans, Some(&mut lat));
    });
    let sim_ns = st.dev.clock().now_ns() - sim0;
    let dev = st.dev.stats().delta_since(&dev0);
    let ops = lat.len() as u64;

    let mut layers = Vec::new();
    if let (Some(l1), Some(l0)) = (st.dev.ledger(), ledger0) {
        layers = core_layers(&l1.delta_since(&l0), &dev, window_ns, PAGES_PER_BLOCK as u64);
        layers.push(("workloads.gen_host_us_per_op", spans.gen_ns as f64 / 1e3 / ops as f64));
    }
    let mut fp = Digest::default();
    fp.debug(&st.dev.stats());
    fp.u64(st.dev.clock().now_ns());
    for &v in &st.version {
        fp.u64(v as u64);
    }
    Sample {
        setup_ns,
        chunk_ns,
        ops,
        failed: st.failed,
        lat_ns: lat,
        sim_ns,
        dev,
        fingerprint: fp.value(),
        mismatches: check.then(|| st.check()),
        layers,
    }
}
