//! `ycsb-a-share`: YCSB workload A (50 % reads, 50 % updates, Zipfian
//! keys) over mini-Couch with SHARE remapping instead of the
//! wandering-tree index update. The store fits its device, so GC never
//! runs.

use crate::sample::{core_layers, fill_versioned, timed_chunks, Digest, Sample, Spans};
use crate::timed::Probe;
use mini_couch::{CouchConfig, CouchMode, CouchStore};
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_vfs::{Vfs, VfsOptions};
use share_workloads::{Ycsb, YcsbOp, YcsbWorkload};
use std::time::Instant;

const PAGE: usize = 4096;
const PAGES_PER_BLOCK: u32 = 128;
/// Payload bytes: with the document header, one 4 KiB block per doc.
const RECORD: usize = 4056;

/// Sizes of one YCSB sample.
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    pub records: u64,
    /// Measured operations.
    pub ops: u64,
    /// Updates per commit (fsync).
    pub batch_size: usize,
    /// Simulated connections: operations per round.
    pub connections: usize,
    /// Rounds per timed chunk of the window.
    pub chunk_rounds: u64,
}

impl YcsbConfig {
    pub const BENCH: YcsbConfig = YcsbConfig {
        records: 20_000,
        ops: 40_000,
        batch_size: 16,
        connections: 16,
        chunk_rounds: 64,
    };
}

/// Content of document `key` after its `version`-th save.
fn doc(seed: u64, key: u64, version: u32) -> Vec<u8> {
    let mut v = vec![0u8; RECORD];
    fill_versioned(seed, key, version, &mut v);
    v
}

struct Bench<D: BlockDevice> {
    store: CouchStore<D>,
    gen: Ycsb,
    seed: u64,
    /// Saves of every document so far (its shadow content is
    /// `doc(seed, key, version)`).
    version: Vec<u32>,
    reads: Digest,
    failed: u64,
}

impl<D: BlockDevice> Bench<D> {
    /// One round of `n` operations from `n` simulated connections: reads
    /// go out together as queued commands, updates as one group of queued
    /// appends that commits when the batch is due. The round is the closed
    /// loop's cycle: every operation in it completes when the round does.
    fn round(&mut self, n: usize, spans: &mut Spans, lat: Option<&mut Vec<u64>>) {
        let (read_keys, writes) = spans.gen(|| {
            let mut read_keys = Vec::new();
            let mut writes = Vec::new();
            for _ in 0..n {
                match self.gen.next_op() {
                    YcsbOp::Read { key } => read_keys.push(key),
                    YcsbOp::Update { key } => {
                        let version = self.version[key as usize] + 1;
                        writes.push((key, version, doc(self.seed, key, version)));
                    }
                    other => {
                        unreachable!("workload A has only reads and updates, not {other:?}")
                    }
                }
            }
            (read_keys, writes)
        });
        let clock = self.store.clock();
        let t0 = clock.now_ns();
        if !read_keys.is_empty() {
            match spans.engine(|| self.store.get_many(&read_keys)) {
                Ok(docs) => {
                    for d in docs {
                        self.reads.bytes(d.as_deref().unwrap_or(&[]));
                    }
                }
                Err(_) => self.failed += read_keys.len() as u64,
            }
        }
        if !writes.is_empty() {
            let batch: Vec<(u64, &[u8])> =
                writes.iter().map(|(k, _, d)| (*k, d.as_slice())).collect();
            match spans.engine(|| self.store.save_many(&batch)) {
                Ok(()) => {
                    for (key, version, _) in &writes {
                        self.version[*key as usize] = *version;
                    }
                }
                Err(_) => self.failed += writes.len() as u64,
            }
        }
        if let Some(lat) = lat {
            lat.extend(std::iter::repeat_n(clock.now_ns() - t0, n));
        }
    }

    /// Read every document back against its last saved content.
    fn check(&mut self) -> u64 {
        let mut mismatches = 0;
        for key in 0..self.version.len() as u64 {
            let want = doc(self.seed, key, self.version[key as usize]);
            if self.store.get(key).ok().flatten().as_deref() != Some(want.as_slice()) {
                mismatches += 1;
            }
        }
        mismatches
    }
}

pub fn sample<D: Probe>(cfg: &YcsbConfig, seed: u64, traced: bool, check: bool) -> Sample {
    let setup = Instant::now();
    // Room for the load plus every appended block of the window (doc plus
    // worst-case index paths and header per op) and slack: GC never runs.
    let worst_blocks = cfg.records * 6 + cfg.ops * 16 + 16_384;
    let fcfg = FtlConfig::for_capacity_with(
        worst_blocks * PAGE as u64 + (8 << 20),
        0.15,
        PAGE,
        PAGES_PER_BLOCK,
        NandTiming::default(),
    )
    .with_parallelism(4, 1);
    let fs = Vfs::format(D::wrap(Ftl::new(fcfg)), VfsOptions::default()).expect("format");
    let ccfg = CouchConfig {
        mode: CouchMode::Share,
        batch_size: cfg.batch_size,
        // About three index levels at 20k records.
        node_max_entries: 22,
        ..Default::default()
    };
    let mut b = Bench {
        store: CouchStore::create(fs, "ycsb.couch", ccfg).expect("create store"),
        gen: Ycsb::new(&share_workloads::YcsbConfig {
            workload: YcsbWorkload::A,
            record_count: cfg.records,
            record_size: RECORD,
            seed,
        }),
        seed,
        version: vec![0; cfg.records as usize],
        reads: Digest::default(),
        failed: 0,
    };
    for key in 0..cfg.records {
        b.store.save(key, &doc(seed, key, 0)).expect("load doc");
        if key % 4096 == 4095 {
            b.store.commit().expect("load commit");
        }
    }
    b.store.commit().expect("final load commit");
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let mut spans = Spans::new(traced);
    let dev0 = b.store.device_stats();
    let couch0 = b.store.stats();
    let vfs0 = b.store.fs_mut().stats();
    let ledger0 = b.store.fs_mut().device().ledger();
    let sim0 = b.store.clock().now_ns();
    let conns = cfg.connections as u64;
    let rounds = cfg.ops.div_ceil(conns);
    let mut lat = Vec::with_capacity(cfg.ops as usize);
    let (chunk_ns, window_ns) = timed_chunks(rounds, cfg.chunk_rounds, |i| {
        b.round(cfg.connections, &mut spans, Some(&mut lat));
        if i + 1 == rounds && spans.engine(|| b.store.commit()).is_err() {
            b.failed += 1;
        }
    });
    let sim_ns = b.store.clock().now_ns() - sim0;
    let dev = b.store.device_stats().delta_since(&dev0);
    let ops = rounds * conns;

    let mut layers = Vec::new();
    if let (Some(l1), Some(l0)) = (b.store.fs_mut().device().ledger(), ledger0) {
        let ledger = l1.delta_since(&l0);
        layers = core_layers(&ledger, &dev, window_ns, PAGES_PER_BLOCK as u64);
        let c = b.store.stats();
        let vfs = b.store.fs_mut().stats();
        let self_ns = spans.engine_ns.saturating_sub(ledger.host_ns());
        layers.extend([
            ("couch.self_host_us_per_op", self_ns as f64 / 1e3 / ops as f64),
            ("couch.share_remaps", (c.share_remaps - couch0.share_remaps) as f64),
            ("couch.share_fallbacks", (c.share_fallbacks - couch0.share_fallbacks) as f64),
            (
                "couch.doc_blocks_appended",
                (c.doc_blocks_appended - couch0.doc_blocks_appended) as f64,
            ),
            (
                "couch.node_blocks_appended",
                (c.node_blocks_appended - couch0.node_blocks_appended) as f64,
            ),
            ("couch.commits", (c.commits - couch0.commits) as f64),
            ("vfs.journal_commits", (vfs.journal_commits - vfs0.journal_commits) as f64),
            ("vfs.journal_pages", (vfs.journal_pages - vfs0.journal_pages) as f64),
            ("workloads.gen_host_us_per_op", spans.gen_ns as f64 / 1e3 / ops as f64),
        ]);
    }
    let mut fp = Digest::default();
    fp.debug(&b.store.device_stats());
    fp.debug(&b.store.stats());
    fp.u64(b.store.clock().now_ns());
    fp.u64(b.reads.value());
    Sample {
        setup_ns,
        chunk_ns,
        ops,
        failed: b.failed,
        lat_ns: lat,
        sim_ns,
        dev,
        fingerprint: fp.value(),
        mismatches: check.then(|| b.check()),
        layers,
    }
}
