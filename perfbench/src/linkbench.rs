//! `linkbench-share`: LinkBench over mini-InnoDB with SHARE-based page
//! flushing, 16 simulated connections with group commit, and a buffer
//! pool far smaller than the database.

use crate::sample::{core_layers, timed_chunks, Digest, Sample, Spans};
use crate::timed::Probe;
use mini_innodb::{standard_log_device, EngineError, FlushMode, InnoDb, InnoDbConfig, Key};
use nand_sim::NandTiming;
use share_core::{BlockDevice, DeviceStats, Ftl, FtlConfig};
use share_rng::{Rng, StdRng};
use share_workloads::{LinkBench, LinkBenchConfig, LinkOp, LinkOpType};
use std::collections::BTreeMap;
use std::time::Instant;

const PAGE: usize = 4096;
const PAGES_PER_BLOCK: u32 = 128;
const LINK_TYPES: u32 = 4;
const PAYLOAD_MEAN: usize = 96;

/// Sizes of one LinkBench sample.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    pub nodes: u64,
    pub links_per_node: u64,
    /// Unmeasured transactions that age the device so GC runs in the
    /// measured window.
    pub warmup_txns: u64,
    /// Measured transactions.
    pub txns: u64,
    /// Simulated connections: transactions per round.
    pub connections: usize,
    /// Rounds per timed chunk of the window.
    pub chunk_rounds: u64,
}

impl LinkConfig {
    pub const BENCH: LinkConfig = LinkConfig {
        nodes: 20_000,
        links_per_node: 3,
        warmup_txns: 40_000,
        txns: 40_000,
        connections: 16,
        chunk_rounds: 64,
    };
}

type LinkKey = (u64, u32, u64);

/// Engine plus generators plus the shadow model of node and link rows.
struct Bench<D: BlockDevice> {
    db: InnoDb<D>,
    lb: LinkBench,
    rng: StdRng,
    /// Last committed payload of every node (`None`: deleted).
    nodes: BTreeMap<u64, Option<Vec<u8>>>,
    /// Last committed payload of every link (`None`: deleted).
    links: BTreeMap<LinkKey, Option<Vec<u8>>>,
    /// Digest of every value the workload read back.
    reads: Digest,
    failed: u64,
}

/// One transaction of a round, generated before the round runs.
struct Txn {
    op: LinkOp,
    id2s: Vec<u64>,
    payload: Vec<u8>,
}

fn payload(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill(v.as_mut_slice());
    v
}

fn txn_keys(t: &Txn, keys: &mut Vec<Key>) {
    let op = &t.op;
    match op.op {
        LinkOpType::GetNode
        | LinkOpType::AddNode
        | LinkOpType::UpdateNode
        | LinkOpType::DeleteNode => keys.push(Key::node(op.id1)),
        LinkOpType::CountLink => keys.push(Key::count(op.id1, op.link_type)),
        LinkOpType::MultigetLink => {
            keys.extend(t.id2s.iter().map(|&id2| Key::link(op.id1, op.link_type, id2)))
        }
        LinkOpType::GetLinkList => keys.push(Key::link_range_start(op.id1, op.link_type)),
        LinkOpType::AddLink | LinkOpType::UpdateLink | LinkOpType::DeleteLink => {
            keys.push(Key::link(op.id1, op.link_type, op.id2));
            keys.push(Key::count(op.id1, op.link_type));
        }
    }
}

impl<D: BlockDevice> Bench<D> {
    /// Apply one transaction, folding what it reads into the digest and
    /// what it commits into the shadow model.
    fn apply(&mut self, t: Txn) -> Result<(), EngineError> {
        let LinkOp { op, id1, id2, link_type: typ, .. } = t.op;
        let db = &mut self.db;
        match op {
            LinkOpType::GetNode => {
                let v = db.get_node(id1)?;
                self.reads.bytes(v.as_deref().unwrap_or(&[]));
            }
            LinkOpType::CountLink => self.reads.u64(db.count_link(id1, typ)?),
            LinkOpType::MultigetLink => {
                for v in db.multiget_link(id1, typ, &t.id2s)? {
                    self.reads.bytes(v.as_deref().unwrap_or(&[]));
                }
            }
            LinkOpType::GetLinkList => {
                for (id2, v) in db.get_link_list(id1, typ)? {
                    self.reads.u64(id2);
                    self.reads.bytes(&v);
                }
            }
            LinkOpType::AddNode | LinkOpType::UpdateNode => {
                if op == LinkOpType::AddNode {
                    db.add_node(id1, &t.payload)?;
                } else {
                    db.update_node(id1, &t.payload)?;
                }
                self.nodes.insert(id1, Some(t.payload));
            }
            LinkOpType::DeleteNode => {
                db.delete_node(id1)?;
                self.nodes.insert(id1, None);
            }
            LinkOpType::AddLink | LinkOpType::UpdateLink => {
                if op == LinkOpType::AddLink {
                    db.add_link(id1, typ, id2, &t.payload)?;
                } else {
                    db.update_link(id1, typ, id2, &t.payload)?;
                }
                self.links.insert((id1, typ, id2), Some(t.payload));
            }
            LinkOpType::DeleteLink => {
                db.delete_link(id1, typ, id2)?;
                self.links.insert((id1, typ, id2), None);
            }
        }
        Ok(())
    }

    /// One round of `n` transactions from `n` simulated connections: the
    /// round's B+tree pages are prefetched with one batched read per tree
    /// level and its commits share one group fsync. The round is the
    /// closed loop's cycle: every transaction in it is submitted at its
    /// start and completes when the group commit is durable.
    fn round(&mut self, n: usize, spans: &mut Spans, lat: Option<&mut Vec<u64>>) {
        let txns: Vec<Txn> = spans.gen(|| {
            (0..n)
                .map(|_| {
                    let op = self.lb.next_op();
                    let id2s = if op.op == LinkOpType::MultigetLink {
                        (0..4).map(|_| self.rng.random_range(0..self.lb.node_count())).collect()
                    } else {
                        Vec::new()
                    };
                    let payload = if op.op.is_write() {
                        payload(&mut self.rng, op.payload)
                    } else {
                        Vec::new()
                    };
                    Txn { op, id2s, payload }
                })
                .collect()
        });
        let clock = self.db.clock();
        let t0 = clock.now_ns();
        let mut keys = Vec::with_capacity(2 * n);
        for t in &txns {
            txn_keys(t, &mut keys);
        }
        if spans.engine(|| self.db.prefetch_keys(&keys)).is_err() {
            self.failed += 1;
        }
        self.db.begin_group();
        let mut writes = 0;
        for t in txns {
            writes += t.op.op.is_write() as u64;
            if spans.engine(|| self.apply(t)).is_err() {
                self.failed += 1;
            }
        }
        if spans.engine(|| self.db.group_commit()).is_err() {
            self.failed += writes;
        }
        if let Some(lat) = lat {
            lat.extend(std::iter::repeat_n(clock.now_ns() - t0, n));
        }
    }

    /// Read every node and link row back against the shadow model.
    fn check(&mut self) -> u64 {
        let mut mismatches = 0;
        for (&id, want) in &self.nodes {
            if self.db.get_node(id).ok().as_ref() != Some(want) {
                mismatches += 1;
            }
        }
        for (&(id1, typ, id2), want) in &self.links {
            match self.db.multiget_link(id1, typ, &[id2]) {
                Ok(got) if got.len() == 1 && got[0] == *want => {}
                _ => mismatches += 1,
            }
        }
        mismatches
    }
}

/// Simulated time the serial log device spent on the counted commands:
/// the default service times of `SimpleSsd` (the standard log device).
fn log_sim_ns(log: &DeviceStats) -> u64 {
    let xfer = NandTiming::default().xfer_ns_per_kib;
    log.host_reads * 70_000
        + log.host_writes * 30_000
        + (log.host_read_bytes + log.host_write_bytes) * xfer / 1024
        + log.flushes * 50_000
}

pub fn sample<D: Probe>(cfg: &LinkConfig, seed: u64, traced: bool, check: bool) -> Sample {
    let setup = Instant::now();
    // Database size estimate (nodes + links + counts at ~70 % page fill)
    // sizes the pool (1/30 of the database) and the device (an aged
    // device: the database fills most of the logical space).
    let rows = cfg.nodes * (1 + 2 * cfg.links_per_node);
    let est_db_pages = ((rows * 130) as f64 / 0.70 / PAGE as f64).ceil() as u64;
    let pool_pages = ((est_db_pages as f64 / 30.0) as usize).max(64);
    let max_pages = (est_db_pages as f64 * 1.25) as u64 + 128;
    let logical_bytes = (max_pages + 80) * PAGE as u64 + (6 << 20);
    let mut fcfg = FtlConfig::for_capacity_with(
        logical_bytes,
        0.18,
        PAGE,
        PAGES_PER_BLOCK,
        NandTiming::default(),
    )
    .with_parallelism(4, 1);
    // Synchronous GC refills the free pool in bursts. At the default
    // high watermark (6 blocks) about 1 % of rounds carry a burst, so the
    // round-latency p99 would sit on the edge of the burst tier and jump
    // by 4x from seed to seed; 12 blocks makes bursts rarer (0.3 % of
    // rounds) and p99 a steady measure of eviction-flush rounds.
    fcfg.gc_high_water = 12;
    let dev = D::wrap(Ftl::new(fcfg));
    let log = standard_log_device(dev.clock().clone());
    let ecfg = InnoDbConfig {
        mode: FlushMode::Share,
        page_bytes: PAGE,
        pool_pages,
        max_pages,
        flush_batch: 64,
        ckpt_redo_bytes: 8 << 20,
        fsync_on_commit: true,
        cpu_ns_per_op: 5_000,
        flush_neighbors: false,
    };
    let mut b = Bench {
        db: InnoDb::create(dev, log, ecfg).expect("create engine"),
        lb: LinkBench::new(&LinkBenchConfig {
            initial_nodes: cfg.nodes,
            link_types: LINK_TYPES,
            payload_mean: PAYLOAD_MEAN,
            seed,
        }),
        rng: StdRng::seed_from_u64(seed ^ 0x10ad),
        nodes: BTreeMap::new(),
        links: BTreeMap::new(),
        reads: Digest::default(),
        failed: 0,
    };
    for id in 0..cfg.nodes {
        let p = payload(&mut b.rng, PAYLOAD_MEAN);
        b.db.add_node(id, &p).expect("load node");
        b.nodes.insert(id, Some(p));
        for l in 0..cfg.links_per_node {
            let id2 = b.rng.random_range(0..cfg.nodes);
            let typ = (l % LINK_TYPES as u64) as u32;
            let p = payload(&mut b.rng, PAYLOAD_MEAN);
            b.db.add_link(id, typ, id2, &p).expect("load link");
            b.links.insert((id, typ, id2), Some(p));
        }
    }
    b.db.checkpoint().expect("post-load checkpoint");
    let mut spans = Spans::new(false);
    let conns = cfg.connections as u64;
    for _ in 0..cfg.warmup_txns.div_ceil(conns) {
        b.round(cfg.connections, &mut spans, None);
    }
    // Run on to the end of the next GC burst, so that every window starts
    // at the same point of the GC cycle and holds a steadier number of
    // bursts.
    let gc0 = b.db.data_device_stats().gc_events;
    for _ in 0..cfg.warmup_txns.div_ceil(conns) {
        if b.db.data_device_stats().gc_events != gc0 {
            break;
        }
        b.round(cfg.connections, &mut spans, None);
    }
    assert_eq!(b.failed, 0, "warm-up transaction failed");
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let mut spans = Spans::new(traced);
    let dev0 = b.db.data_device_stats();
    let log0 = b.db.log_device_stats();
    let eng0 = b.db.stats();
    let pool0 = b.db.pool_stats();
    let vfs0 = b.db.fs_mut().stats();
    let ledger0 = b.db.fs_mut().device().ledger();
    let sim0 = b.db.clock().now_ns();
    let mut lat = Vec::with_capacity(cfg.txns as usize);
    let rounds = cfg.txns.div_ceil(conns);
    let (chunk_ns, window_ns) = timed_chunks(rounds, cfg.chunk_rounds, |_| {
        b.round(cfg.connections, &mut spans, Some(&mut lat));
    });
    let sim_ns = b.db.clock().now_ns() - sim0;
    let dev = b.db.data_device_stats().delta_since(&dev0);
    let ops = rounds * conns;

    let mut layers = Vec::new();
    if let (Some(l1), Some(l0)) = (b.db.fs_mut().device().ledger(), ledger0) {
        let ledger = l1.delta_since(&l0);
        layers = core_layers(&ledger, &dev, window_ns, PAGES_PER_BLOCK as u64);
        let eng = b.db.stats();
        let pool = b.db.pool_stats();
        let vfs = b.db.fs_mut().stats();
        // The round's prefetch loads pages without a pool lookup, so the
        // pool's own miss counter sees few misses: count every data-device
        // page read (an engine page is one device page) as a miss instead.
        let hits = pool.hits - pool0.hits;
        let loads = dev.host_reads;
        let log = b.db.log_device_stats().delta_since(&log0);
        let self_ns = spans.engine_ns.saturating_sub(ledger.host_ns());
        layers.extend([
            ("innodb.self_host_us_per_op", self_ns as f64 / 1e3 / ops as f64),
            ("innodb.pool_hit_ratio", hits as f64 / (hits + loads).max(1) as f64),
            ("innodb.pages_flushed", (eng.pages_flushed - eng0.pages_flushed) as f64),
            ("innodb.dwb_pages_written", (eng.dwb_pages_written - eng0.dwb_pages_written) as f64),
            ("innodb.share_fallbacks", (eng.share_fallbacks - eng0.share_fallbacks) as f64),
            ("innodb.group_commits", (eng.group_commits - eng0.group_commits) as f64),
            ("innodb.log_sim_ms", log_sim_ns(&log) as f64 / 1e6),
            ("vfs.journal_commits", (vfs.journal_commits - vfs0.journal_commits) as f64),
            ("vfs.journal_pages", (vfs.journal_pages - vfs0.journal_pages) as f64),
            ("workloads.gen_host_us_per_op", spans.gen_ns as f64 / 1e3 / ops as f64),
        ]);
    }
    let mut fp = Digest::default();
    fp.debug(&b.db.data_device_stats());
    fp.debug(&b.db.log_device_stats());
    fp.debug(&b.db.stats());
    fp.debug(&b.db.pool_stats());
    fp.u64(b.db.clock().now_ns());
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
