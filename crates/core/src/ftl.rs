//! The SHARE FTL: page-mapping translation layer with explicit remapping.
//!
//! This is the paper's contribution (§3–§4): a page-mapping FTL whose L2P
//! table the host can rewrite through the `share` command. The write path,
//! garbage collection, delta logging and checkpointing follow §4.2:
//!
//! * host writes go to an open data block; the mapping change is recorded
//!   as a Delta and becomes durable when its log page is programmed,
//! * `share(dest, src)` points `dest` at `src`'s physical page and logs all
//!   deltas of the batch in **one** log page, making the batch atomic,
//! * greedy GC picks the closed block with the fewest valid pages, copies
//!   the valid ones to a dedicated copyback write point (relocating *all*
//!   logical references, shared ones included), flushes the delta log and
//!   only then erases the victim.

use crate::ckpt;
use crate::config::FtlConfig;
use crate::delta::{Delta, DeltaLog};
use crate::device::BlockDevice;
use crate::error::FtlError;
use crate::health::{HealthReport, DEFAULT_ENDURANCE_CYCLES};
use crate::mapping::MappingTable;
use crate::monitor::{EpochSample, FlightRecorder, FlightSnapshot};
use crate::pool::{BlockPool, WritePoint};
use crate::queue::{CmdOutput, CmdTag, Completion, QueuedCmd};
use crate::snapshot::{self, SnapDelta, SnapshotInfo, SnapshotTable};
use crate::stats::DeviceStats;
use crate::types::{Lpn, Ppn, SharePair};
use crate::config::{PlacementConfig, CLASS_DEFAULT};
use nand_sim::{FaultHandle, NandArray, SimClock, UNTAGGED};
use share_telemetry::{
    apportion, AlertSeverity, BlameKind, Layer, OpClass, PlacementClassGauge, PlacementGauges,
    QueueGauges, Snapshot, SnapshotGauges, SpanId, Telemetry, Tracer, Track, UnitUtilization,
    STREAM_FTL,
};
use std::collections::HashSet;

/// Checkpoint when fewer than this many log-ring pages remain.
const CKPT_MIN_REMAINING_PAGES: u32 = 8;

/// A submitted-but-unreaped queued command. Its state transitions already
/// happened (at submission); only the completion — time, outcome, read
/// payload — waits here for the host to reap it.
#[derive(Debug)]
struct PendingCmd {
    tag: CmdTag,
    submit_ns: u64,
    complete_ns: u64,
    result: Result<CmdOutput, FtlError>,
    /// Data-pool blocks this command allocated into, pinned against GC
    /// until the completion is reaped.
    blocks: Vec<u32>,
}

/// Erase-count distribution over the data pool (wear-leveling quality).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearStats {
    /// Least-erased data block.
    pub min_erases: u32,
    /// Most-erased data block.
    pub max_erases: u32,
    /// Mean erase count.
    pub mean_erases: f64,
    /// Population standard deviation of the per-block erase counts.
    pub stddev_erases: f64,
}

impl WearStats {
    /// Summarize a sequence of per-block erase counts. An empty pool
    /// yields all-zero stats rather than `min == u32::MAX` and a NaN mean.
    pub fn from_counts(counts: impl IntoIterator<Item = u32>) -> WearStats {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut sumsq = 0u128;
        let mut n = 0u64;
        for e in counts {
            min = min.min(e);
            max = max.max(e);
            sum += e as u64;
            sumsq += (e as u128) * (e as u128);
            n += 1;
        }
        if n == 0 {
            return WearStats { min_erases: 0, max_erases: 0, mean_erases: 0.0, stddev_erases: 0.0 };
        }
        let mean = sum as f64 / n as f64;
        let var = (sumsq as f64 / n as f64 - mean * mean).max(0.0);
        WearStats {
            min_erases: min,
            max_erases: max,
            mean_erases: mean,
            stddev_erases: var.sqrt(),
        }
    }

    /// Wear-leveling skew: max/mean erase count. 1.0 is perfectly even
    /// wear, 0.0 a device that has never erased anything.
    pub fn skew(&self) -> f64 {
        if self.mean_erases == 0.0 {
            0.0
        } else {
            self.max_erases as f64 / self.mean_erases
        }
    }
}

/// Names for the NAND units in index order (`ch{c}:w{w}`, matching how
/// `telemetry_snapshot` decomposes a unit index into channel and way).
fn unit_labels(channels: u32, units: usize) -> Vec<String> {
    (0..units as u32).map(|u| format!("ch{}:w{}", u % channels, u / channels)).collect()
}

/// An in-progress incremental victim collection (background GC pipeline).
///
/// The job is created when `pick_victim` chooses a block and lives until
/// every candidate page has been examined; each step relocates at most a
/// budget of still-live pages. Pages the host invalidates while the job
/// is parked simply fail their `is_live` recheck and are skipped — late
/// invalidations shrink the copyback for free.
#[derive(Debug)]
struct GcJob {
    /// Victim block, pool-relative.
    rel: u32,
    /// Candidate PPNs not yet examined, in reverse page order (popped
    /// from the back, so relocation proceeds in page order).
    pending: Vec<Ppn>,
}

/// A flash device exposing the SHARE interface.
#[derive(Debug)]
pub struct Ftl {
    cfg: FtlConfig,
    nand: NandArray,
    map: MappingTable,
    log: DeltaLog,
    pool: BlockPool,
    stats: DeviceStats,
    last_ckpt_slot: u32,
    /// Generation the next checkpoint will carry (strictly increasing).
    next_ckpt_gen: u64,
    /// Per-op-class observability (counters, optional histograms/ring).
    /// Records clock *read-outs* only — never advances simulated time.
    telemetry: Telemetry,
    /// Causal span tracer (disabled unless `cfg.telemetry.trace`); the
    /// NAND array holds a clone and attaches leaf events to it.
    tracer: Tracer,
    /// Submitted-but-unreaped queued commands (bounded by
    /// `cfg.queue_depth`).
    pending: Vec<PendingCmd>,
    /// Next submission tag (monotonic for the device's lifetime).
    next_tag: u32,
    /// Queue counters for telemetry: total submitted, total reaped, and
    /// the high-water in-flight mark.
    q_submitted: u64,
    q_reaped: u64,
    q_max_inflight: u64,
    /// Stream of the host command currently executing, for attributing
    /// internal passes it triggers (None outside any host command).
    cmd_stream: Option<u32>,
    /// True while GC runs: log flushes it triggers stay FTL-attributed.
    in_gc: bool,
    /// In-progress incremental collection (background GC pipeline only).
    /// Persists across foreground commands until the victim is fully
    /// relocated, flushed, and erased.
    gc_job: Option<GcJob>,
    /// Lifetime class per interned stream id (indexed by stream id;
    /// unclassified streams — including HOST and FTL — are the default
    /// class). Populated by `stream_intern` via `cfg.placement.classify`.
    stream_class: Vec<u8>,
    /// WA ledger, GC axis: per data-pool block (relative index), how many
    /// pages each stream invalidated there. Settled into the telemetry
    /// blame ledger when the block is collected; cleared on erase.
    block_blame: Vec<Vec<u64>>,
    /// WA ledger, log axis: buffered (not yet flushed) deltas per stream.
    log_blame: Vec<u64>,
    /// WA ledger, checkpoint axis: deltas per stream since last checkpoint.
    ckpt_blame: Vec<u64>,
    /// Scratch buffers reused across SHARE commands so the hot path does
    /// not allocate for typical batch sizes (cleared, never shrunk).
    share_dests: Vec<Lpn>,
    share_srcs: Vec<Lpn>,
    share_incs: Vec<(Ppn, u32)>,
    share_src_ppns: Vec<Ppn>,
    share_deltas: Vec<Delta>,
    /// Device snapshot table: frozen alias namespaces whose entries pin
    /// physical pages against GC reclaim (relocation still allowed).
    /// Persisted whole in checkpoints (image v4) and incrementally via
    /// tagged delta-log records.
    snaps: SnapshotTable,
    /// Time-series flight recorder (None unless `telemetry.epoch_ns > 0`).
    /// Seals one epoch of counter deltas at the first command boundary at
    /// or after each epoch tick; only ever *reads* the clock.
    recorder: Option<FlightRecorder>,
}

impl Ftl {
    /// A freshly formatted device.
    pub fn new(cfg: FtlConfig) -> Self {
        cfg.validate();
        let nand = NandArray::with_timing(cfg.geometry, cfg.timing, SimClock::new());
        Self::format(cfg, nand)
    }

    /// Format `nand` (assumed erased) under `cfg`.
    pub fn format(cfg: FtlConfig, mut nand: NandArray) -> Self {
        let map = MappingTable::with_policy(cfg.geometry, cfg.logical_pages, cfg.revmap_capacity, cfg.revmap_policy);
        let log = DeltaLog::new(&cfg, 0);
        let pool = BlockPool::new(cfg.geometry, cfg.data_start(), cfg.data_blocks())
            .with_classes(cfg.placement.classes());
        let telemetry = Telemetry::new(cfg.telemetry);
        let tracer = if cfg.telemetry.trace { Tracer::enabled() } else { Tracer::disabled() };
        nand.set_tracer(tracer.clone());
        tracer.set_unit_labels(unit_labels(cfg.geometry.channels, nand.busy_ns().len()));
        let recorder = (cfg.telemetry.epoch_ns > 0).then(|| {
            FlightRecorder::new(cfg.telemetry.epoch_ns, cfg.telemetry.epoch_ring, cfg.slo, nand.now_ns())
        });
        let data_blocks = cfg.data_blocks() as usize;
        let mut ftl = Self {
            cfg,
            nand,
            map,
            log,
            pool,
            stats: DeviceStats::default(),
            last_ckpt_slot: 1,
            next_ckpt_gen: 0,
            telemetry,
            tracer,
            pending: Vec::new(),
            next_tag: 0,
            q_submitted: 0,
            q_reaped: 0,
            q_max_inflight: 0,
            cmd_stream: None,
            in_gc: false,
            gc_job: None,
            stream_class: Vec::new(),
            block_blame: vec![Vec::new(); data_blocks],
            log_blame: Vec::new(),
            ckpt_blame: Vec::new(),
            share_dests: Vec::new(),
            share_srcs: Vec::new(),
            share_incs: Vec::new(),
            share_src_ppns: Vec::new(),
            share_deltas: Vec::new(),
            snaps: SnapshotTable::new(),
            recorder,
        };
        ftl.checkpoint().expect("initial checkpoint on an erased device cannot fail");
        ftl
    }

    /// Recover a device from the flash image in `nand` (e.g. after a crash):
    /// latest checkpoint + intact delta-log pages, then reverse-state and
    /// block-state rebuild. Ends by taking a fresh checkpoint so the log
    /// ring restarts clean.
    pub fn open(cfg: FtlConfig, mut nand: NandArray) -> Result<Self, FtlError> {
        cfg.validate();
        nand.power_cycle();
        let nand_before = nand.stats();
        let recovery_t0 = nand.now_ns();

        let recovered = ckpt::read_latest(&cfg, &mut nand);
        let (next_seq0, base, slot, gen, snap_bytes) = match recovered {
            Some(c) => (c.next_delta_seq, Some(c.l2p), c.slot, c.generation + 1, c.snap),
            None => (0, None, 1, 0, Vec::new()),
        };
        let mut snaps = SnapshotTable::decode(&snap_bytes)?;

        let mut map = MappingTable::with_policy(cfg.geometry, cfg.logical_pages, cfg.revmap_capacity, cfg.revmap_policy);
        if let Some(base) = base {
            if base.len() as u64 != cfg.logical_pages {
                return Err(FtlError::RecoveryCorrupt(format!(
                    "checkpoint has {} entries, config expects {}",
                    base.len(),
                    cfg.logical_pages
                )));
            }
            for (i, &ppn) in base.iter().enumerate() {
                map.raw_set(Lpn(i as u64), ppn);
            }
        }

        let mut next_seq = next_seq0;
        for page in DeltaLog::recover(&cfg, &mut nand, next_seq0) {
            for d in &page.deltas {
                // Snapshot records travel the same log with a tag bit set;
                // they must never reach the live map (the tagged value is
                // far beyond the logical capacity).
                match snapshot::decode_snap_delta(d.lpn) {
                    Some(SnapDelta::Relocate { id, offset }) => {
                        snaps.replay_relocate(id, offset, d.new);
                    }
                    Some(SnapDelta::Tombstone { id }) => {
                        snaps.remove_by_id(id);
                    }
                    None => map.raw_set(d.lpn, d.new),
                }
            }
            next_seq = page.seq + 1;
        }
        map.rebuild_reverse();
        snaps.rebuild_rev();

        let mut pool = BlockPool::new(cfg.geometry, cfg.data_start(), cfg.data_blocks())
            .with_classes(cfg.placement.classes());
        pool.rebuild_from_nand(&nand);

        let log = DeltaLog::new(&cfg, next_seq);
        let telemetry = Telemetry::new(cfg.telemetry);
        let tracer = if cfg.telemetry.trace { Tracer::enabled() } else { Tracer::disabled() };
        nand.set_tracer(tracer.clone());
        tracer.set_unit_labels(unit_labels(cfg.geometry.channels, nand.busy_ns().len()));
        let recorder = (cfg.telemetry.epoch_ns > 0).then(|| {
            FlightRecorder::new(cfg.telemetry.epoch_ns, cfg.telemetry.epoch_ring, cfg.slo, nand.now_ns())
        });
        let recovery_span =
            tracer.begin(Layer::Ftl, "recovery", Track::Stream(STREAM_FTL), recovery_t0);
        let data_blocks = cfg.data_blocks() as usize;
        let mut ftl = Self {
            cfg,
            nand,
            map,
            log,
            pool,
            stats: DeviceStats::default(),
            last_ckpt_slot: slot,
            next_ckpt_gen: gen,
            telemetry,
            tracer,
            pending: Vec::new(),
            next_tag: 0,
            q_submitted: 0,
            q_reaped: 0,
            q_max_inflight: 0,
            cmd_stream: None,
            in_gc: false,
            gc_job: None,
            stream_class: Vec::new(),
            block_blame: vec![Vec::new(); data_blocks],
            log_blame: Vec::new(),
            ckpt_blame: Vec::new(),
            share_dests: Vec::new(),
            share_srcs: Vec::new(),
            share_incs: Vec::new(),
            share_src_ppns: Vec::new(),
            share_deltas: Vec::new(),
            snaps,
            recorder,
        };
        ftl.checkpoint()?;
        // Account what recovery itself cost (checkpoint scan, delta
        // replay, pool rebuild, and the closing checkpoint) so a reopened
        // device is not indistinguishable from a fresh one and crash
        // sweeps can bound recovery work.
        let spent = ftl.nand.stats().delta_since(&nand_before);
        ftl.stats.recoveries = 1;
        ftl.stats.recovery_page_reads = spent.page_reads;
        ftl.stats.recovery_page_writes = spent.page_programs;
        ftl.telemetry.record(
            OpClass::Recovery,
            0,
            spent.page_reads + spent.page_programs,
            recovery_t0,
            ftl.nand.now_ns(),
            true,
        );
        ftl.tracer.end(recovery_span, ftl.nand.now_ns(), spent.page_reads + spent.page_programs, true);
        Ok(ftl)
    }

    /// The configuration this device runs under.
    pub fn config(&self) -> &FtlConfig {
        &self.cfg
    }

    /// Fault-injection handle of the underlying NAND.
    pub fn fault_handle(&self) -> FaultHandle {
        self.nand.fault_handle()
    }

    /// Read-only view of the NAND medium (tests, benches).
    pub fn nand(&self) -> &NandArray {
        &self.nand
    }

    /// Consume the FTL and take the NAND medium out (crash-recovery tests
    /// re-open it with [`Ftl::open`]).
    pub fn into_nand(self) -> NandArray {
        self.nand
    }

    /// Current physical mapping of `lpn`, if any (introspection).
    pub fn mapping_of(&self, lpn: Lpn) -> Option<Ppn> {
        let p = self.map.lookup(lpn);
        p.is_valid().then_some(p)
    }

    /// Reference count of the physical page backing `lpn`.
    pub fn refcount_of(&self, lpn: Lpn) -> u16 {
        let p = self.map.lookup(lpn);
        if p.is_valid() {
            self.map.refcount(p)
        } else {
            0
        }
    }

    /// Occupancy of the shared-page reverse-mapping table.
    pub fn revmap_len(&self) -> usize {
        self.map.revmap().len()
    }

    /// Wear summary over the data pool: (min, max, mean) erase counts.
    /// A tight min/max spread indicates effective wear leveling.
    pub fn wear_stats(&self) -> WearStats {
        let n = self.pool.block_count();
        WearStats::from_counts((0..n).map(|rel| self.nand.erase_count(self.pool.abs(rel))))
    }

    /// Exhaustively check mapping invariants (test helper).
    pub fn check_invariants(&self) {
        self.map.check_invariants();
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn.0 >= self.cfg.logical_pages {
            return Err(FtlError::LpnOutOfRange { lpn, capacity: self.cfg.logical_pages });
        }
        Ok(())
    }

    /// Stream to attribute an internal pass to: the host command that
    /// triggered it, unless GC is running (GC work stays FTL-attributed).
    fn bg_attr(&self) -> Option<u32> {
        if self.in_gc {
            None
        } else {
            self.cmd_stream
        }
    }

    /// Note a mapping delta created on behalf of `stream`: it weighs into
    /// the blame apportionment of the next log flush and checkpoint.
    fn note_delta(&mut self, stream: u32, n: u64) {
        let idx = stream as usize;
        if self.log_blame.len() <= idx {
            self.log_blame.resize(idx + 1, 0);
        }
        if self.ckpt_blame.len() <= idx {
            self.ckpt_blame.resize(idx + 1, 0);
        }
        self.log_blame[idx] += n;
        self.ckpt_blame[idx] += n;
    }

    /// Note that `old`'s physical page died: the stream running the
    /// current command turned a page in `old`'s block into garbage, so it
    /// is blamed for a share of that block's eventual GC copyback.
    fn note_invalidation(&mut self, old: &crate::mapping::Unmapped) {
        if !old.died {
            return;
        }
        let block = self.cfg.geometry.block_of(old.old_ppn);
        let Some(rel) = self.pool.rel(block) else { return };
        let stream = self.telemetry.current_stream() as usize;
        let blame = &mut self.block_blame[rel as usize];
        if blame.len() <= stream {
            blame.resize(stream + 1, 0);
        }
        blame[stream] += 1;
    }

    /// Settle `pages` background programs into the WA ledger, apportioned
    /// across per-stream `weights` (largest remainder, exact sum). With no
    /// weights recorded the pages fall to the reserved `ftl` stream.
    fn settle_blame(&mut self, kind: BlameKind, pages: u64, weights: &[u64]) {
        if pages == 0 {
            return;
        }
        if weights.iter().all(|&w| w == 0) {
            self.telemetry.blame(STREAM_FTL, kind, pages);
            return;
        }
        for (stream, share) in apportion(pages, weights).into_iter().enumerate() {
            if share > 0 {
                self.telemetry.blame(stream as u32, kind, share);
            }
        }
    }

    /// Settle a finished log flush: blame its pages and zero the weights
    /// (the buffered deltas they tracked are now on flash).
    fn settle_log_blame(&mut self, pages: u64) {
        let mut w = std::mem::take(&mut self.log_blame);
        self.settle_blame(BlameKind::LogFlush, pages, &w);
        w.iter_mut().for_each(|x| *x = 0);
        self.log_blame = w;
    }

    fn flush_log(&mut self) -> Result<(), FtlError> {
        let before = self.log.pages_written;
        let t0 = self.nand.now_ns();
        let span = self.begin_span("log_flush", STREAM_FTL, t0);
        let r = self.log.flush(&mut self.nand);
        let pages = self.log.pages_written - before;
        self.tracer.end(span, self.nand.now_ns(), pages, r.is_ok());
        if pages > 0 || r.is_err() {
            self.telemetry.record_as(
                OpClass::LogFlush,
                self.bg_attr(),
                0,
                pages,
                t0,
                self.nand.now_ns(),
                r.is_ok(),
            );
        }
        r?;
        self.stats.meta_page_writes += pages;
        self.settle_log_blame(pages);
        self.maybe_checkpoint()
    }

    /// Open an FTL-layer span (no-op when tracing is off).
    fn begin_span(&self, name: &str, stream: u32, start_ns: u64) -> SpanId {
        self.tracer.begin(Layer::Ftl, name, Track::Stream(stream), start_ns)
    }

    /// Enter a host command: remember its stream (internal passes it
    /// triggers inherit it) and open its span on the stream's track.
    fn begin_command(&mut self, name: &str) -> (u64, SpanId) {
        let t0 = self.nand.now_ns();
        let stream = self.telemetry.current_stream();
        self.cmd_stream = Some(stream);
        (t0, self.begin_span(name, stream, t0))
    }

    /// Leave a host command, closing its span. Every synchronous command
    /// exits through here, which makes it the flight recorder's sampling
    /// point: epochs seal lazily at the first command boundary at or after
    /// their clock tick (queued submissions hook `submit` directly).
    fn end_command(&mut self, span: SpanId, pages: u64, ok: bool) {
        self.tracer.end(span, self.nand.now_ns(), pages, ok);
        self.cmd_stream = None;
        self.epoch_tick();
    }

    /// Seal a flight-recorder epoch if the clock has crossed a boundary.
    /// Pure observation: reads the clock and counters, never advances
    /// simulated time or touches the medium — a monitored run stays
    /// bit-identical to an unmonitored one.
    fn epoch_tick(&mut self) {
        let now = self.nand.now_ns();
        if !self.recorder.as_ref().is_some_and(|r| r.due(now)) {
            return;
        }
        let wear = self.wear_stats();
        let remaining_life = if DEFAULT_ENDURANCE_CYCLES == 0 {
            0.0
        } else {
            (1.0 - wear.mean_erases / DEFAULT_ENDURANCE_CYCLES as f64).clamp(0.0, 1.0)
        };
        let (read_hist, write_hist) = self.telemetry.take_epoch_windows();
        let sample = EpochSample {
            now_ns: now,
            stats: self.stats(),
            wa: self.telemetry.wa_raw(),
            unit_busy_ns: self.nand.busy_ns().to_vec(),
            free_blocks: self.pool.free_count() as u64,
            inflight: self.pending.len() as u64,
            wear_skew: wear.skew(),
            remaining_life,
            read_hist,
            write_hist,
        };
        let outcome = self.recorder.as_mut().expect("checked above").seal(sample);
        self.tracer.push_unit_epoch(outcome.end_ns, &outcome.unit_busy_ns);
        // Fired alerts land on the command ring too, so the flight around
        // an SLO breach is visible in the same event stream as the I/O.
        for a in &outcome.alerts {
            self.telemetry.record_as(
                OpClass::Alert,
                Some(STREAM_FTL),
                a.kind.index() as u64,
                0,
                outcome.end_ns,
                outcome.end_ns,
                a.severity != AlertSeverity::Critical,
            );
        }
    }

    /// Device health report under the default rated endurance.
    pub fn health_report(&self) -> HealthReport {
        self.health_report_with(DEFAULT_ENDURANCE_CYCLES)
    }

    /// Device health report assuming `endurance_cycles` rated P/E cycles.
    /// Read-only: derived entirely from per-block erase counts, pool
    /// headroom, and the cumulative counters.
    pub fn health_report_with(&self, endurance_cycles: u64) -> HealthReport {
        let n = self.pool.block_count();
        let counts: Vec<u32> =
            (0..n).map(|rel| self.nand.erase_count(self.pool.abs(rel))).collect();
        HealthReport::compute(
            &counts,
            self.pool.free_count() as u64,
            &self.stats(),
            endurance_cycles,
        )
    }

    fn maybe_checkpoint(&mut self) -> Result<(), FtlError> {
        if self.log.pages_remaining() < CKPT_MIN_REMAINING_PAGES {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Persist a base mapping snapshot and truncate the delta log.
    pub fn checkpoint(&mut self) -> Result<(), FtlError> {
        let t0 = self.nand.now_ns();
        let span = self.begin_span("checkpoint", STREAM_FTL, t0);
        let r = self.checkpoint_inner();
        let pages = *r.as_ref().unwrap_or(&0);
        self.tracer.end(span, self.nand.now_ns(), pages, r.is_ok());
        self.telemetry.record_as(
            OpClass::Checkpoint,
            self.bg_attr(),
            0,
            pages,
            t0,
            self.nand.now_ns(),
            r.is_ok(),
        );
        r.map(|_| ())
    }

    fn checkpoint_inner(&mut self) -> Result<u64, FtlError> {
        // RAM-buffered deltas are already reflected in the snapshot; their
        // log pages will never be written, so the log blame weights reset
        // too (the activity still weighs into this checkpoint's blame).
        self.log.clear_buffered();
        self.log_blame.iter_mut().for_each(|x| *x = 0);
        let slot = 1 - self.last_ckpt_slot;
        let seq = self.log.next_seq();
        let l2p = self.map.l2p_raw().to_vec();
        let gen = self.next_ckpt_gen;
        let snap_bytes = self.snaps.encode();
        let pages =
            ckpt::write_checkpoint(&self.cfg, &mut self.nand, slot, gen, seq, &l2p, &snap_bytes)?;
        self.log.reset(&mut self.nand)?;
        self.last_ckpt_slot = slot;
        self.next_ckpt_gen = gen + 1;
        self.stats.checkpoints += 1;
        self.stats.meta_page_writes += pages;
        let mut w = std::mem::take(&mut self.ckpt_blame);
        self.settle_blame(BlameKind::Checkpoint, pages, &w);
        w.iter_mut().for_each(|x| *x = 0);
        self.ckpt_blame = w;
        Ok(pages)
    }

    /// Lifetime class of `stream` (default for never-classified streams,
    /// which includes the built-in HOST and FTL streams).
    fn class_of_stream(&self, stream: u32) -> u8 {
        self.stream_class.get(stream as usize).copied().unwrap_or(CLASS_DEFAULT)
    }

    /// Allocate a user page in the current stream's lifetime-class lane and
    /// mirror the class onto the NAND block tag (persisted by image v3, so
    /// recovery and GC can see each block's class without pool state).
    fn alloc_user(&mut self) -> Result<Ppn, FtlError> {
        let class = self.class_of_stream(self.telemetry.current_stream());
        let ppn = self.pool.alloc(&self.nand, WritePoint::User { class })?;
        self.nand.set_block_tag(self.cfg.geometry.block_of(ppn), class as u32);
        Ok(ppn)
    }

    /// Pick a GC victim per the configured policy: greedy (fewest valid
    /// pages), FIFO (oldest sealed block), or cost-benefit (most
    /// reclaimable space × seal age). Fully valid blocks are never
    /// picked — erasing them reclaims nothing — and a block already being
    /// collected incrementally is skipped.
    fn pick_victim(&self) -> Option<(u32, u32)> {
        let ppb = self.cfg.geometry.pages_per_block;
        // Snapshot-pinned pages that are dead in the live map still cost a
        // copyback when their block is collected, so they count into the
        // victim's effective valid-page total. Computed once per selection
        // and only when snapshots exist — with an empty table the selection
        // is exactly the historical one.
        let pinned_dead = if self.snaps.is_empty() {
            Vec::new()
        } else {
            self.snaps.pinned_dead_by_block(
                self.pool.block_count() as usize,
                |p| self.pool.rel(self.cfg.geometry.block_of(p)),
                |p| self.map.is_live(p),
            )
        };
        let mut best: Option<(u32, u32, u64)> = None;
        for rel in 0..self.pool.block_count() {
            if !self.pool.victim_eligible(rel, &self.nand) {
                continue;
            }
            if self.gc_job.as_ref().is_some_and(|j| j.rel == rel) {
                continue; // already mid-collection
            }
            let mut valid = self.map.valid_pages(self.pool.abs(rel));
            if !pinned_dead.is_empty() {
                valid += pinned_dead[rel as usize];
            }
            if valid >= ppb {
                continue; // nothing reclaimable here
            }
            let rank = match self.cfg.gc_policy {
                crate::config::GcPolicy::Greedy => valid as u64,
                crate::config::GcPolicy::Fifo => self.pool.seal_seq(rel),
                crate::config::GcPolicy::CostBenefit => {
                    // Maximize reclaimable × age; invert into the shared
                    // min-rank comparison. Age starts at 1 so a freshly
                    // sealed empty block still beats a full one.
                    let reclaimable = (ppb - valid) as u64;
                    let age =
                        self.pool.seal_counter().saturating_sub(self.pool.seal_seq(rel)) + 1;
                    u64::MAX - reclaimable.saturating_mul(age)
                }
            };
            if best.is_none_or(|(_, _, r)| rank < r) {
                best = Some((rel, valid, rank));
                if rank == 0 && self.cfg.gc_policy == crate::config::GcPolicy::Greedy {
                    break; // cannot do better
                }
            }
        }
        best.map(|(rel, valid, _)| (rel, valid))
    }

    /// One GC pass: relocate the victim's valid pages, persist the mapping,
    /// erase. Returns false when no eligible victim exists.
    fn collect_once(&mut self) -> Result<bool, FtlError> {
        let Some((rel, valid)) = self.pick_victim() else {
            return Ok(false);
        };
        let t0 = self.nand.now_ns();
        let copied_before = self.stats.copyback_pages;
        let victim = self.pool.abs(rel);
        let span = self.begin_span("gc", STREAM_FTL, t0);
        self.in_gc = true;
        let r = self.collect_victim(rel, valid);
        self.in_gc = false;
        let copied = self.stats.copyback_pages - copied_before;
        self.tracer.end(span, self.nand.now_ns(), copied, r.is_ok());
        self.telemetry.record(
            OpClass::Gc,
            victim.0 as u64,
            copied,
            t0,
            self.nand.now_ns(),
            r.is_ok(),
        );
        r.map(|()| true)
    }

    fn collect_victim(&mut self, rel: u32, valid: u32) -> Result<(), FtlError> {
        self.stats.gc_events += 1;
        let block = self.pool.abs(rel);
        if valid > 0 {
            // Relocation keeps both live-map referents and snapshot-pinned
            // pages (frozen data must survive the erase even when nothing
            // in the live map references it anymore).
            let live: Vec<Ppn> = (0..self.cfg.geometry.pages_per_block)
                .map(|idx| self.cfg.geometry.ppn_at(block, idx))
                .filter(|&ppn| self.map.is_live(ppn) || self.snaps.is_pinned(ppn))
                .collect();
            self.relocate(rel, &live)?;
        }
        self.retire_victim(rel)
    }

    /// Copy victim `rel`'s `live` pages elsewhere with on-die copyback —
    /// one batched sense, then destination allocation, then one batched
    /// program — repoint their references and settle the copyback blame.
    fn relocate(&mut self, rel: u32, live: &[Ppn]) -> Result<(), FtlError> {
        // Survivors keep the victim's affinity: same lifetime class (NAND
        // block tag; untagged pre-v3 blocks fall to the default class) and
        // same channel, so relocated long-lived data never mixes into
        // short-lived streams' blocks and copyback stays channel-local.
        let block = self.pool.abs(rel);
        let tag = self.nand.block_tag(block);
        let classes = self.pool.classes() as u32;
        let class = if tag == UNTAGGED { CLASS_DEFAULT } else { tag.min(classes - 1) as u8 };
        let channel = self.cfg.geometry.channel_of_block(block);
        self.nand.copyback_read(live)?;
        let mut moves = Vec::with_capacity(live.len());
        for &src in live {
            let dest = self.pool.alloc(&self.nand, WritePoint::Gc { class, channel })?;
            self.nand.set_block_tag(self.cfg.geometry.block_of(dest), class as u32);
            moves.push((src, dest));
        }
        self.nand.copyback_program(&moves)?;
        for &(ppn, dest) in &moves {
            self.relocate_mappings(ppn, dest)?;
            self.stats.copyback_pages += 1;
        }
        // Blame the copybacks on the streams whose invalidations hollowed
        // this block out — exact-sum per call, so the wa_ledger invariant
        // holds even with the rest of a pipelined victim in flight.
        let w = std::mem::take(&mut self.block_blame[rel as usize]);
        self.settle_blame(BlameKind::Gc, live.len() as u64, &w);
        self.block_blame[rel as usize] = w;
        Ok(())
    }

    /// Finish a collected victim: the persisted mapping must stop
    /// referencing it before its data disappears, then erase and free it.
    fn retire_victim(&mut self, rel: u32) -> Result<(), FtlError> {
        self.flush_log()?;
        self.nand.erase(self.pool.abs(rel))?;
        self.stats.gc_erases += 1;
        self.pool.release(rel);
        self.block_blame[rel as usize].clear();
        Ok(())
    }

    /// Repoint every reference to the relocated page `ppn` — live-map LPNs
    /// and snapshot table entries — at `dest`, logging one delta per
    /// reference so recovery replays the move. A page held only by
    /// snapshots skips the live map entirely (it has no referrers there).
    fn relocate_mappings(&mut self, ppn: Ppn, dest: Ppn) -> Result<(), FtlError> {
        if self.map.is_live(ppn) {
            for lpn in self.map.relocate(ppn, dest)? {
                self.log.append(Delta { lpn, old: ppn, new: dest });
                self.note_delta(STREAM_FTL, 1);
            }
        } else {
            self.stats.snapshot_pinned_relocations += 1;
        }
        if !self.snaps.is_empty() {
            for (id, offset) in self.snaps.relocate(ppn, dest) {
                self.log.append(Delta {
                    lpn: snapshot::snap_delta_lpn(id, offset),
                    old: ppn,
                    new: dest,
                });
                self.note_delta(STREAM_FTL, 1);
            }
        }
        Ok(())
    }

    /// Start an incremental collection job on the best victim, if any.
    /// The victim selection counts as one `gc_events`, exactly like a
    /// whole-victim `collect_once` pass.
    fn gc_begin_job(&mut self) -> bool {
        debug_assert!(self.gc_job.is_none(), "one collection job at a time");
        let Some((rel, _valid)) = self.pick_victim() else {
            return false;
        };
        self.stats.gc_events += 1;
        let block = self.pool.abs(rel);
        let ppb = self.cfg.geometry.pages_per_block;
        let pending: Vec<Ppn> =
            (0..ppb).rev().map(|idx| self.cfg.geometry.ppn_at(block, idx)).collect();
        self.gc_job = Some(GcJob { rel, pending });
        true
    }

    /// Relocate up to `budget` still-live pages of the in-progress victim;
    /// once every candidate page has been examined, finish the job
    /// (mapping flush, erase, release). Liveness is rechecked per page at
    /// relocation time, so pages the host invalidated while the job was
    /// parked are skipped. Returns the pages relocated this step.
    fn gc_step(&mut self, budget: usize) -> Result<u64, FtlError> {
        let rel = self.gc_job.as_ref().expect("gc_step without a job").rel;
        let mut live: Vec<Ppn> = Vec::new();
        while live.len() < budget {
            let Some(ppn) = self.gc_job.as_mut().expect("job exists").pending.pop() else {
                break;
            };
            if self.map.is_live(ppn) || self.snaps.is_pinned(ppn) {
                live.push(ppn);
            }
        }
        if !live.is_empty() {
            self.relocate(rel, &live)?;
        }
        if self.gc_job.as_ref().expect("job exists").pending.is_empty() {
            self.retire_victim(rel)?;
            self.gc_job = None;
        }
        Ok(live.len() as u64)
    }

    /// Run one traced GC pipeline step. `background` opens a background
    /// timing window: relocations reserve idle channel/way lanes from
    /// device time and the foreground command is never charged (it only
    /// feels GC through lane contention). Without it the step runs on the
    /// caller's timeline — the hard-floor drain path.
    fn gc_step_traced(&mut self, budget: usize, background: bool) -> Result<u64, FtlError> {
        let victim = self.pool.abs(self.gc_job.as_ref().expect("step without a job").rel);
        let saved = if background { Some(self.nand.begin_background()) } else { None };
        let t0 = self.nand.submission_now();
        let span = self.begin_span("gc", STREAM_FTL, t0);
        self.in_gc = true;
        let r = self.gc_step(budget);
        self.in_gc = false;
        let end = match saved {
            Some(s) => self.nand.end_background(s),
            None => self.nand.submission_now(),
        };
        let copied = *r.as_ref().unwrap_or(&0);
        self.tracer.end(span, end, copied, r.is_ok());
        self.telemetry.record(OpClass::Gc, victim.0 as u64, copied, t0, end, r.is_ok());
        r
    }

    fn ensure_free(&mut self) -> Result<(), FtlError> {
        // Every open lane — one user and one GC lane per (class, channel)
        // — can pull a fresh block from the free list between two GC
        // checks (a batched submission feeds every user lane; GC feeds one
        // copyback lane per victim), so the watermarks shift up by the
        // lanes beyond the baseline single user + single GC pair. At one
        // channel with placement off this is exactly the configured
        // low/high pair.
        // Blocks pinned by unreaped queued commands are ineligible victims,
        // so the same number of extra free blocks must be banked on top —
        // otherwise a deep queue can strand GC with nothing collectible.
        let lanes = self.pool.classes() * self.cfg.geometry.channels as usize;
        let extra_lanes = 2 * (lanes - 1);
        let pinned = self.pool.inflight_pinned_blocks();
        let low = self.cfg.gc_low_water + extra_lanes + pinned;
        let high = self.cfg.gc_high_water + extra_lanes + pinned;
        if !self.cfg.gc_pipeline.enabled {
            // Historical synchronous GC: whole victims collected on the
            // foreground command's own timeline. The submission-time delta
            // across the drain is exactly the stall the host observes.
            if self.pool.free_count() > low {
                return Ok(());
            }
            let t0 = self.nand.submission_now();
            while self.pool.free_count() < high {
                if !self.collect_once()? {
                    break;
                }
            }
            self.stats.gc_stall_ns += self.nand.submission_now() - t0;
            if self.pool.free_count() == 0 {
                return Err(FtlError::DeviceFull);
            }
            return Ok(());
        }
        // Watermark-driven pipeline. The legacy low watermark banks
        // `extra_lanes + pinned` blocks of slack precisely so open lanes
        // can pull fresh blocks between GC checks — dipping into that
        // slack is normal operation, not an emergency. So the pipeline's
        // *hard floor* is the un-adjusted `gc_low_water + pinned` (the
        // true point past which allocation is at risk), where it drains
        // synchronously and accrues stall exactly like the legacy path.
        // Above the floor, up to `soft_headroom` blocks over the legacy
        // low, GC runs as budgeted background steps — at most
        // `budget_pages` relocations per foreground command, dispatched
        // onto idle lanes, turning urgent (bounded catch-up loop) while
        // free is inside the legacy-low slack band. Collection therefore
        // starts at the same fill levels as the legacy collector (similar
        // victim valid counts, similar write amplification) but the
        // foreground never waits for whole victims.
        let floor = self.cfg.gc_low_water + pinned;
        let soft = low + self.cfg.gc_pipeline.soft_headroom;
        if self.pool.free_count() <= floor {
            let t0 = self.nand.submission_now();
            while self.pool.free_count() < high {
                if self.gc_job.is_none() && !self.gc_begin_job() {
                    break;
                }
                self.gc_step_traced(usize::MAX, false)?;
            }
            self.stats.gc_stall_ns += self.nand.submission_now() - t0;
        } else if self.pool.free_count() <= soft {
            // The iteration bound (~4 victims' worth of steps) prevents a
            // death spiral when victims are nearly all-valid; past it,
            // the hard floor above remains the correctness backstop.
            let budget = self.cfg.gc_pipeline.budget_pages as usize;
            let ppb = self.cfg.geometry.pages_per_block as usize;
            let mut steps_left = (4 * ppb / budget.max(1)).max(1);
            loop {
                if self.gc_job.is_none() && !self.gc_begin_job() {
                    break;
                }
                self.gc_step_traced(budget, true)?;
                if self.gc_job.is_some() {
                    self.stats.gc_budget_deferrals += 1;
                }
                steps_left -= 1;
                if self.pool.free_count() > low || steps_left == 0 {
                    break;
                }
            }
        }
        if self.pool.free_count() == 0 {
            return Err(FtlError::DeviceFull);
        }
        Ok(())
    }

    /// Validate a SHARE batch and resolve source PPNs (snapshot semantics)
    /// into the reused `share_src_ppns` scratch buffer. All bookkeeping
    /// runs on reused scratch vectors (linear scans — SHARE batches are at
    /// most `deltas_per_page` pairs), so the hot path allocates nothing
    /// once the buffers have grown to the workload's batch size.
    fn validate_share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let limit = self.cfg.deltas_per_page();
        if pairs.len() > limit {
            return Err(FtlError::BatchTooLarge { got: pairs.len(), max: limit });
        }
        self.share_dests.clear();
        self.share_srcs.clear();
        self.share_src_ppns.clear();
        for p in pairs {
            self.check_lpn(p.dest)?;
            self.check_lpn(p.src)?;
            if p.dest == p.src {
                return Err(FtlError::InvalidBatch("destination equals source"));
            }
            if self.share_dests.contains(&p.dest) {
                return Err(FtlError::InvalidBatch("duplicate destination LPN"));
            }
            self.share_dests.push(p.dest);
            self.share_srcs.push(p.src);
            let ppn = self.map.lookup(p.src);
            if !ppn.is_valid() {
                return Err(FtlError::SrcUnmapped(p.src));
            }
            self.share_src_ppns.push(ppn);
        }
        if pairs.iter().any(|p| self.share_srcs.contains(&p.dest)) {
            return Err(FtlError::InvalidBatch("an LPN is both destination and source"));
        }

        // Reference-count overflow pre-check.
        self.share_incs.clear();
        for idx in 0..self.share_src_ppns.len() {
            let ppn = self.share_src_ppns[idx];
            match self.share_incs.iter_mut().find(|(p, _)| *p == ppn) {
                Some((_, c)) => *c += 1,
                None => self.share_incs.push((ppn, 1)),
            }
        }
        for &(ppn, inc) in &self.share_incs {
            if self.map.refcount(ppn) as u32 + inc > u16::MAX as u32 {
                return Err(FtlError::RefOverflow);
            }
        }

        // Reverse-map capacity pre-check, so the command is all-or-nothing
        // at run time too (the caller falls back to a plain write). Under
        // ScanOnOverflow the command never fails on capacity.
        if self.map.policy() == crate::mapping::RevMapPolicy::Strict {
            let mut need = 0usize;
            for (p, &ppn) in pairs.iter().zip(&self.share_src_ppns) {
                need += self.map.shared_slot_need(p.dest, ppn);
            }
            if need > self.map.revmap().free() {
                return Err(FtlError::RevMapFull { capacity: self.map.revmap().capacity() });
            }
        }
        Ok(())
    }

    /// Apply a validated SHARE batch: remap every destination and commit
    /// the whole batch's deltas in one atomically-programmed log page.
    /// `validate_share` must have run (it fills `share_src_ppns`).
    fn apply_share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.stats.shared_pages += pairs.len() as u64;
        let src_ppns = std::mem::take(&mut self.share_src_ppns);
        let mut deltas = std::mem::take(&mut self.share_deltas);
        deltas.clear();
        let mut res = Ok(());
        for (p, &src_ppn) in pairs.iter().zip(&src_ppns) {
            match self.map.map_shared(p.dest, src_ppn) {
                Ok(old) => {
                    self.note_invalidation(&old);
                    deltas.push(Delta { lpn: p.dest, old: old.old_ppn, new: src_ppn });
                }
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        if res.is_ok() {
            let before = self.log.pages_written;
            let t0 = self.nand.now_ns();
            self.note_delta(self.telemetry.current_stream(), deltas.len() as u64);
            let span = self.begin_span("log_flush", STREAM_FTL, t0);
            res = self.log.flush_atomic_batch(&mut self.nand, &deltas);
            let pages = self.log.pages_written - before;
            self.tracer.end(span, self.nand.now_ns(), pages, res.is_ok());
            self.telemetry.record_as(
                OpClass::LogFlush,
                self.bg_attr(),
                0,
                pages,
                t0,
                self.nand.now_ns(),
                res.is_ok(),
            );
            self.stats.meta_page_writes += pages;
            self.settle_log_blame(pages);
        }
        self.share_src_ppns = src_ppns;
        self.share_deltas = deltas;
        res?;
        self.maybe_checkpoint()
    }

    /// Allocate and program as many of `pages`' leading entries as the
    /// free pool allows, as ONE batched submission (programs on distinct
    /// channel-ways overlap in simulated time). May program fewer pages
    /// than requested when the pool runs dry mid-batch; the caller must
    /// map what was programmed before running GC, so no programmed page
    /// is ever unmapped while `ensure_free` can pick victims. Errors with
    /// `DeviceFull` only when nothing at all could be allocated.
    fn program_user_submission(&mut self, pages: &[(Lpn, &[u8])]) -> Result<Vec<Ppn>, FtlError> {
        let mut dests = Vec::with_capacity(pages.len());
        for _ in 0..pages.len() {
            match self.alloc_user() {
                Ok(p) => dests.push(p),
                Err(FtlError::DeviceFull) => break,
                Err(e) => return Err(e),
            }
        }
        if dests.is_empty() {
            return Err(FtlError::DeviceFull);
        }
        let programs: Vec<(Ppn, &[u8])> =
            dests.iter().zip(pages).map(|(&d, (_, data))| (d, *data)).collect();
        self.nand.program_batch(&programs)?;
        Ok(dests)
    }

    /// Pages per batched submission: enough depth to keep every unit busy
    /// (8 per channel-way), and chunked so `ensure_free` gets a say between
    /// submissions on long batches.
    fn submit_chunk_pages(&self) -> usize {
        (self.cfg.geometry.units() as usize * 8).max(1)
    }

    /// Telemetry collected by this device (counters always; histograms and
    /// the command ring per [`FtlConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn read_impl(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        if buf.len() != self.page_size() {
            return Err(FtlError::BadBufferLength { got: buf.len(), want: self.page_size() });
        }
        self.stats.host_reads += 1;
        self.stats.host_read_bytes += buf.len() as u64;
        let ppn = self.map.lookup(lpn);
        if ppn.is_valid() {
            self.nand.read(ppn, buf)?;
        } else {
            buf.fill(0);
            self.nand.charge(self.cfg.timing.xfer_ns(buf.len()));
        }
        Ok(())
    }

    fn write_impl(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        if data.len() != self.page_size() {
            return Err(FtlError::BadBufferLength { got: data.len(), want: self.page_size() });
        }
        self.stats.host_writes += 1;
        self.stats.host_write_bytes += data.len() as u64;
        self.ensure_free()?;
        let ppn = self.alloc_user()?;
        self.nand.program(ppn, data)?;
        let old = self.map.map_new_write(lpn, ppn)?;
        self.note_invalidation(&old);
        self.log.append(Delta { lpn, old: old.old_ppn, new: ppn });
        self.note_delta(self.telemetry.current_stream(), 1);
        if self.log.buffer_full() {
            self.flush_log()?;
        }
        Ok(())
    }

    fn trim_impl(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.nand.charge(self.cfg.command_ns);
        for i in 0..len {
            let l = lpn.offset(i);
            self.check_lpn(l)?;
            let old = self.map.unmap(l);
            self.note_invalidation(&old);
            if old.old_ppn.is_valid() {
                self.log.append(Delta { lpn: l, old: old.old_ppn, new: Ppn::INVALID });
                self.note_delta(self.telemetry.current_stream(), 1);
            }
            self.stats.trims += 1;
            if self.log.buffer_full() {
                self.flush_log()?;
            }
        }
        Ok(())
    }

    fn share_impl(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.validate_share(pairs)?;
        self.nand.charge(self.cfg.command_ns);
        self.stats.share_commands += 1;
        self.apply_share(pairs)
    }

    fn share_batch_impl(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let limit = self.share_batch_limit();
        self.nand.charge(self.cfg.command_ns);
        self.stats.share_commands += 1;
        for chunk in pairs.chunks(limit) {
            self.validate_share(chunk)?;
            self.apply_share(chunk)?;
        }
        Ok(())
    }

    /// Read-only view of the device snapshot table (tests, crash sweeps,
    /// CLI introspection).
    pub fn snapshot_table(&self) -> &SnapshotTable {
        &self.snaps
    }

    fn snapshot_create_impl(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        if name.is_empty() {
            return Err(FtlError::InvalidBatch("snapshot name must not be empty"));
        }
        if len == 0 {
            return Err(FtlError::InvalidBatch("snapshot range must not be empty"));
        }
        if start.0 >= self.cfg.logical_pages || len > self.cfg.logical_pages - start.0 {
            return Err(FtlError::LpnOutOfRange {
                lpn: Lpn(start.0.saturating_add(len - 1)),
                capacity: self.cfg.logical_pages,
            });
        }
        self.nand.charge(self.cfg.command_ns);
        // Freeze the current mapping of the range. Pure metadata: no NAND
        // page is read or programmed — the frozen entries simply pin their
        // physical pages against GC reclaim. Durability comes from the next
        // checkpoint (see `snapshot_persist`).
        let mut pages = Vec::new();
        for off in 0..len {
            let ppn = self.map.lookup(Lpn(start.0 + off));
            if ppn.is_valid() {
                pages.push((off, ppn));
            }
        }
        let id = self.snaps.create(name, start, len, pages)?;
        // The serialized table must still fit the checkpoint slot's slack,
        // or no future checkpoint could persist it.
        if self.snaps.encode().len() > ckpt::max_snapshot_bytes(&self.cfg) {
            self.snaps.remove(name).expect("snapshot was just created");
            return Err(FtlError::SnapshotTableFull);
        }
        self.stats.snapshot_creates += 1;
        Ok(id)
    }

    fn snapshot_drop_impl(&mut self, name: &str) -> Result<(), FtlError> {
        self.nand.charge(self.cfg.command_ns);
        let rec = self.snaps.remove(name)?;
        // Pages the drop just unpinned — no longer frozen anywhere and dead
        // in the live map — become reclaimable garbage now, so the dropping
        // stream takes the blame for their blocks' eventual GC copyback
        // (mirrors `note_invalidation` at ordinary overwrite/trim death).
        // One snapshot can freeze the same physical page at several offsets
        // (SHAREd range), so blame each distinct page once.
        let mut seen = std::collections::HashSet::new();
        for &(_, ppn) in &rec.pages {
            if seen.insert(ppn.0) && !self.snaps.is_pinned(ppn) && !self.map.is_live(ppn) {
                self.note_invalidation(&crate::mapping::Unmapped { old_ppn: ppn, died: true });
            }
        }
        // A tombstone delta makes the drop durable ahead of the next
        // checkpoint: replay discards the snapshot the same way.
        self.log.append(Delta {
            lpn: snapshot::snap_tombstone_lpn(rec.id),
            old: Ppn::INVALID,
            new: Ppn::INVALID,
        });
        self.note_delta(self.telemetry.current_stream(), 1);
        self.stats.snapshot_drops += 1;
        if self.log.buffer_full() {
            self.flush_log()?;
        }
        Ok(())
    }

    fn snapshot_clone_impl(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        if len == 0 {
            return Err(FtlError::InvalidBatch("clone range must not be empty"));
        }
        if dst.0 >= self.cfg.logical_pages || len > self.cfg.logical_pages - dst.0 {
            return Err(FtlError::LpnOutOfRange {
                lpn: Lpn(dst.0.saturating_add(len - 1)),
                capacity: self.cfg.logical_pages,
            });
        }
        // Resolve the window against the frozen record up front; the record
        // itself never changes while we rewire the live map.
        let window: Vec<Option<Ppn>> = {
            let rec = self.snaps.get(name).ok_or(FtlError::SnapshotNotFound)?;
            if src_offset > rec.len || len > rec.len - src_offset {
                return Err(FtlError::InvalidBatch("clone window exceeds the snapshot range"));
            }
            (0..len).map(|i| rec.page_at(src_offset + i)).collect()
        };
        self.nand.charge(self.cfg.command_ns);
        // Reference-count overflow pre-check (conservative: ignores any
        // refs the clone's own unmaps might release).
        self.share_incs.clear();
        for ppn in window.iter().flatten() {
            match self.share_incs.iter_mut().find(|(p, _)| p == ppn) {
                Some((_, c)) => *c += 1,
                None => self.share_incs.push((*ppn, 1)),
            }
        }
        for &(ppn, inc) in &self.share_incs {
            let base = if self.map.is_live(ppn) { self.map.refcount(ppn) as u32 } else { 0 };
            if base + inc > u16::MAX as u32 {
                return Err(FtlError::RefOverflow);
            }
        }
        // Strict reverse-map capacity pre-check, mirroring SHARE: the
        // command is all-or-nothing on capacity. (Resurrected pinned pages
        // re-enter as primary mappings and need no shared slot.)
        if self.map.policy() == crate::mapping::RevMapPolicy::Strict {
            let mut need = 0usize;
            for (i, frozen) in window.iter().enumerate() {
                if let Some(ppn) = frozen {
                    if self.map.is_live(*ppn) {
                        need += self.map.shared_slot_need(Lpn(dst.0 + i as u64), *ppn);
                    }
                }
            }
            if need > self.map.revmap().free() {
                return Err(FtlError::RevMapFull { capacity: self.map.revmap().capacity() });
            }
        }
        self.stats.snapshot_clones += 1;
        let limit = self.cfg.deltas_per_page();
        let mut deltas: Vec<Delta> = Vec::new();
        let mut mapped_pages = 0u64;
        for (i, &frozen) in window.iter().enumerate() {
            let lpn = Lpn(dst.0 + i as u64);
            match frozen {
                Some(ppn) => {
                    // Zero-copy materialization: the clone's LPN points at
                    // the frozen physical page. Still-live pages gain a
                    // reference (CoW exactly like SHARE); pages dead in the
                    // live map re-enter it as a fresh primary mapping.
                    let old = if self.map.is_live(ppn) {
                        self.map.map_shared(lpn, ppn)?
                    } else {
                        self.map.map_new_write(lpn, ppn)?
                    };
                    self.note_invalidation(&old);
                    deltas.push(Delta { lpn, old: old.old_ppn, new: ppn });
                    mapped_pages += 1;
                }
                None => {
                    // Hole in the snapshot: the clone reads zeroes there.
                    let old = self.map.unmap(lpn);
                    self.note_invalidation(&old);
                    if old.old_ppn.is_valid() {
                        deltas.push(Delta { lpn, old: old.old_ppn, new: Ppn::INVALID });
                    }
                }
            }
            if deltas.len() == limit {
                self.clone_flush_deltas(&mut deltas)?;
            }
        }
        self.clone_flush_deltas(&mut deltas)?;
        self.stats.snapshot_clone_pages += mapped_pages;
        self.maybe_checkpoint()?;
        Ok(mapped_pages)
    }

    /// Flush a clone's accumulated mapping deltas as one atomically
    /// programmed log page (same shape as `apply_share`'s commit).
    fn clone_flush_deltas(&mut self, deltas: &mut Vec<Delta>) -> Result<(), FtlError> {
        if deltas.is_empty() {
            return Ok(());
        }
        let before = self.log.pages_written;
        let t0 = self.nand.now_ns();
        self.note_delta(self.telemetry.current_stream(), deltas.len() as u64);
        let span = self.begin_span("log_flush", STREAM_FTL, t0);
        let r = self.log.flush_atomic_batch(&mut self.nand, deltas);
        let pages = self.log.pages_written - before;
        self.tracer.end(span, self.nand.now_ns(), pages, r.is_ok());
        self.telemetry.record_as(
            OpClass::LogFlush,
            self.bg_attr(),
            0,
            pages,
            t0,
            self.nand.now_ns(),
            r.is_ok(),
        );
        self.stats.meta_page_writes += pages;
        self.settle_log_blame(pages);
        deltas.clear();
        r
    }

    fn snapshot_read_impl(
        &mut self,
        name: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), FtlError> {
        if buf.len() != self.page_size() {
            return Err(FtlError::BadBufferLength { got: buf.len(), want: self.page_size() });
        }
        let ppn = {
            let rec = self.snaps.get(name).ok_or(FtlError::SnapshotNotFound)?;
            if offset >= rec.len {
                return Err(FtlError::InvalidBatch("snapshot read beyond the frozen range"));
            }
            rec.page_at(offset)
        };
        self.stats.host_reads += 1;
        self.stats.host_read_bytes += buf.len() as u64;
        self.stats.snapshot_reads += 1;
        match ppn {
            Some(p) => self.nand.read(p, buf)?,
            None => {
                buf.fill(0);
                self.nand.charge(self.cfg.timing.xfer_ns(buf.len()));
            }
        }
        Ok(())
    }

    fn read_batch_impl(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        let want = self.page_size();
        for (lpn, buf) in reqs.iter() {
            self.check_lpn(*lpn)?;
            if buf.len() != want {
                return Err(FtlError::BadBufferLength { got: buf.len(), want });
            }
        }
        self.stats.host_reads += reqs.len() as u64;
        self.stats.host_read_bytes += (reqs.len() * want) as u64;
        let mut mapped: Vec<(Ppn, &mut [u8])> = Vec::with_capacity(reqs.len());
        let mut zero_xfer = 0u64;
        for (lpn, buf) in reqs.iter_mut() {
            let ppn = self.map.lookup(*lpn);
            if ppn.is_valid() {
                mapped.push((ppn, &mut buf[..]));
            } else {
                buf.fill(0);
                zero_xfer += self.cfg.timing.xfer_ns(want);
            }
        }
        if !mapped.is_empty() {
            self.nand.read_batch(&mut mapped)?;
        }
        if zero_xfer > 0 {
            self.nand.charge(zero_xfer);
        }
        Ok(())
    }

    fn write_batch_impl(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        let want = self.page_size();
        for (lpn, data) in pages {
            self.check_lpn(*lpn)?;
            if data.len() != want {
                return Err(FtlError::BadBufferLength { got: data.len(), want });
            }
        }
        let submit = self.submit_chunk_pages();
        for chunk in pages.chunks(submit) {
            self.stats.host_writes += chunk.len() as u64;
            self.stats.host_write_bytes += (chunk.len() * want) as u64;
            self.ensure_free()?;
            let mut done = 0;
            while done < chunk.len() {
                let dests = self.program_user_submission(&chunk[done..])?;
                for ((lpn, _), &ppn) in chunk[done..].iter().zip(&dests) {
                    let old = self.map.map_new_write(*lpn, ppn)?;
                    self.note_invalidation(&old);
                    self.log.append(Delta { lpn: *lpn, old: old.old_ppn, new: ppn });
                    self.note_delta(self.telemetry.current_stream(), 1);
                    if self.log.buffer_full() {
                        self.flush_log()?;
                    }
                }
                done += dests.len();
                if done < chunk.len() {
                    // Mid-chunk pool exhaustion: everything programmed so
                    // far is mapped, so GC can run safely.
                    self.ensure_free()?;
                }
            }
        }
        Ok(())
    }

    fn write_atomic_impl(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        let limit = self.cfg.deltas_per_page();
        if pages.len() > limit {
            return Err(FtlError::BatchTooLarge { got: pages.len(), max: limit });
        }
        let mut dests = HashSet::with_capacity(pages.len());
        for (lpn, data) in pages {
            self.check_lpn(*lpn)?;
            if data.len() != self.page_size() {
                return Err(FtlError::BadBufferLength { got: data.len(), want: self.page_size() });
            }
            if !dests.insert(*lpn) {
                return Err(FtlError::InvalidBatch("duplicate LPN in atomic write"));
            }
        }
        self.nand.charge(self.cfg.command_ns);
        let submit = self.submit_chunk_pages();
        let mut deltas = Vec::with_capacity(pages.len());
        for chunk in pages.chunks(submit) {
            self.stats.host_writes += chunk.len() as u64;
            self.stats.host_write_bytes += (chunk.len() * self.page_size()) as u64;
            self.ensure_free()?;
            let mut done = 0;
            while done < chunk.len() {
                let dests = self.program_user_submission(&chunk[done..])?;
                for ((lpn, _), &ppn) in chunk[done..].iter().zip(&dests) {
                    let old = self.map.map_new_write(*lpn, ppn)?;
                    self.note_invalidation(&old);
                    deltas.push(Delta { lpn: *lpn, old: old.old_ppn, new: ppn });
                }
                done += dests.len();
                if done < chunk.len() {
                    self.ensure_free()?;
                }
            }
        }
        let before = self.log.pages_written;
        let t0 = self.nand.now_ns();
        self.note_delta(self.telemetry.current_stream(), deltas.len() as u64);
        let span = self.begin_span("log_flush", STREAM_FTL, t0);
        let r = self.log.flush_atomic_batch(&mut self.nand, &deltas);
        let meta_pages = self.log.pages_written - before;
        self.tracer.end(span, self.nand.now_ns(), meta_pages, r.is_ok());
        self.telemetry.record_as(
            OpClass::LogFlush,
            self.bg_attr(),
            0,
            meta_pages,
            t0,
            self.nand.now_ns(),
            r.is_ok(),
        );
        r?;
        self.stats.meta_page_writes += meta_pages;
        self.settle_log_blame(meta_pages);
        self.maybe_checkpoint()
    }

    /// Execute a queued command's state transitions (called under an open
    /// deferred NAND window). Returns the op class, first LPN, page count
    /// and outcome for the completion record.
    fn execute_queued(&mut self, cmd: QueuedCmd) -> (OpClass, u64, u64, Result<CmdOutput, FtlError>) {
        match cmd {
            QueuedCmd::Read { lpn } => {
                let mut buf = vec![0u8; self.page_size()];
                let r = self.read_impl(lpn, &mut buf);
                (OpClass::Read, lpn.0, 1, r.map(|()| CmdOutput::Page(buf)))
            }
            QueuedCmd::ReadBatch { lpns } => {
                let first = lpns.first().map_or(0, |l| l.0);
                let n = lpns.len() as u64;
                let mut bufs = vec![vec![0u8; self.page_size()]; lpns.len()];
                let mut reqs: Vec<(Lpn, &mut [u8])> = lpns
                    .iter()
                    .copied()
                    .zip(bufs.iter_mut().map(|b| b.as_mut_slice()))
                    .collect();
                let r = self.read_batch_impl(&mut reqs);
                drop(reqs);
                (OpClass::ReadBatch, first, n, r.map(|()| CmdOutput::Pages(bufs)))
            }
            QueuedCmd::Write { lpn, data } => {
                let r = self.write_impl(lpn, &data);
                (OpClass::Write, lpn.0, 1, r.map(|()| CmdOutput::None))
            }
            QueuedCmd::WriteBatch { pages } => {
                let first = pages.first().map_or(0, |(l, _)| l.0);
                let n = pages.len() as u64;
                let refs: Vec<(Lpn, &[u8])> =
                    pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
                let r = self.write_batch_impl(&refs);
                (OpClass::WriteBatch, first, n, r.map(|()| CmdOutput::None))
            }
            QueuedCmd::WriteAtomic { pages } => {
                let first = pages.first().map_or(0, |(l, _)| l.0);
                let n = pages.len() as u64;
                let refs: Vec<(Lpn, &[u8])> =
                    pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
                let r = if refs.is_empty() { Ok(()) } else { self.write_atomic_impl(&refs) };
                (OpClass::WriteAtomic, first, n, r.map(|()| CmdOutput::None))
            }
            QueuedCmd::Share { pairs } => {
                let first = pairs.first().map_or(0, |p| p.dest.0);
                let n = pairs.len() as u64;
                let r = if pairs.is_empty() { Ok(()) } else { self.share_impl(&pairs) };
                (OpClass::Share, first, n, r.map(|()| CmdOutput::None))
            }
            QueuedCmd::ShareBatch { pairs } => {
                let first = pairs.first().map_or(0, |p| p.dest.0);
                let n = pairs.len() as u64;
                let r = if pairs.is_empty() { Ok(()) } else { self.share_batch_impl(&pairs) };
                (OpClass::ShareBatch, first, n, r.map(|()| CmdOutput::None))
            }
            QueuedCmd::Trim { lpn, len } => {
                let r = self.trim_impl(lpn, len);
                (OpClass::Trim, lpn.0, len, r.map(|()| CmdOutput::None))
            }
            QueuedCmd::Flush => {
                self.stats.flushes += 1;
                self.nand.charge(self.cfg.command_ns);
                let r = self.flush_log();
                (OpClass::Flush, 0, 0, r.map(|()| CmdOutput::None))
            }
        }
    }

    /// Remove and return every pending command with `complete_ns <= now`,
    /// oldest completion first, unpinning its blocks.
    fn take_due(&mut self, now: u64) -> Vec<Completion> {
        let mut due: Vec<PendingCmd> = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].complete_ns <= now {
                due.push(self.pending.remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|p| (p.complete_ns, p.tag));
        self.q_reaped += due.len() as u64;
        due.into_iter()
            .map(|p| {
                self.pool.release_inflight(&p.blocks);
                Completion {
                    tag: p.tag,
                    submit_ns: p.submit_ns,
                    complete_ns: p.complete_ns,
                    result: p.result,
                }
            })
            .collect()
    }
}

impl BlockDevice for Ftl {
    fn page_size(&self) -> usize {
        self.cfg.geometry.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.cfg.logical_pages
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        let (t0, span) = self.begin_command("read");
        let r = self.read_impl(lpn, buf);
        self.end_command(span, 1, r.is_ok());
        self.telemetry.record(OpClass::Read, lpn.0, 1, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        let (t0, span) = self.begin_command("write");
        let r = self.write_impl(lpn, data);
        self.end_command(span, 1, r.is_ok());
        self.telemetry.record(OpClass::Write, lpn.0, 1, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        let (t0, span) = self.begin_command("flush");
        self.stats.flushes += 1;
        self.nand.charge(self.cfg.command_ns);
        let r = self.flush_log();
        self.end_command(span, 0, r.is_ok());
        self.telemetry.record(OpClass::Flush, 0, 0, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        let (t0, span) = self.begin_command("trim");
        let r = self.trim_impl(lpn, len);
        self.end_command(span, len, r.is_ok());
        self.telemetry.record(OpClass::Trim, lpn.0, len, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    /// The SHARE command (§3.2): remap every `pair.dest` onto the physical
    /// page of `pair.src`, atomically for the whole batch. The command
    /// returns after its deltas are durably logged (§4.2.2).
    fn share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let (t0, span) = self.begin_command("share");
        let r = self.share_impl(pairs);
        self.end_command(span, pairs.len() as u64, r.is_ok());
        self.telemetry.record(
            OpClass::Share,
            pairs[0].dest.0,
            pairs.len() as u64,
            t0,
            self.nand.now_ns(),
            r.is_ok(),
        );
        r
    }

    /// A large SHARE submission: one host command (one command overhead,
    /// one `share_commands` tick) whose pairs are committed in
    /// log-page-sized sub-batches. Each sub-batch is individually atomic;
    /// a crash can land between sub-batches, exactly as if the host had
    /// issued them as separate commands — minus the per-command overhead.
    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let (t0, span) = self.begin_command("share_batch");
        let r = self.share_batch_impl(pairs);
        self.end_command(span, pairs.len() as u64, r.is_ok());
        self.telemetry.record(
            OpClass::ShareBatch,
            pairs[0].dest.0,
            pairs.len() as u64,
            t0,
            self.nand.now_ns(),
            r.is_ok(),
        );
        r
    }

    fn share_batch_limit(&self) -> usize {
        self.cfg.deltas_per_page()
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    /// Freeze the current mapping of `len` pages starting at `start` under
    /// `name`. Pure metadata — zero NAND page programs; the frozen entries
    /// pin their physical pages against GC reclaim until dropped.
    fn snapshot_create(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        let (_t0, span) = self.begin_command("snapshot_create");
        let r = self.snapshot_create_impl(name, start, len);
        self.end_command(span, len, r.is_ok());
        r
    }

    /// Release `name`'s pins. Newly unreferenced pages become ordinary
    /// garbage, blamed to the dropping stream.
    fn snapshot_drop(&mut self, name: &str) -> Result<(), FtlError> {
        let (_t0, span) = self.begin_command("snapshot_drop");
        let r = self.snapshot_drop_impl(name);
        self.end_command(span, 0, r.is_ok());
        r
    }

    /// Materialize a writable zero-copy clone of a snapshot window at
    /// `dst`: clone LPNs share the frozen physical pages; subsequent
    /// overwrites copy-on-write exactly like SHARE'd pages. Returns the
    /// number of pages mapped (holes in the snapshot read zeroes).
    fn snapshot_clone(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        let (_t0, span) = self.begin_command("snapshot_clone");
        let r = self.snapshot_clone_impl(name, src_offset, dst, len);
        self.end_command(span, len, r.is_ok());
        r
    }

    /// Point-in-time read of one page from a snapshot, without touching
    /// the live mapping.
    fn snapshot_read(&mut self, name: &str, offset: u64, buf: &mut [u8]) -> Result<(), FtlError> {
        let (t0, span) = self.begin_command("snapshot_read");
        let r = self.snapshot_read_impl(name, offset, buf);
        self.end_command(span, 1, r.is_ok());
        self.telemetry.record(OpClass::Read, offset, 1, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    fn snapshot_list(&self) -> Result<Vec<SnapshotInfo>, FtlError> {
        Ok(self.snaps.list())
    }

    /// Persist the snapshot table durably by taking a checkpoint now
    /// (creates are otherwise durable only at the next natural
    /// checkpoint).
    fn snapshot_persist(&mut self) -> Result<(), FtlError> {
        let (_t0, span) = self.begin_command("snapshot_persist");
        self.nand.charge(self.cfg.command_ns);
        let r = self.checkpoint();
        self.end_command(span, 0, r.is_ok());
        r
    }

    /// Batched read: mapped pages go to the NAND as one submission, so
    /// reads on distinct channel-ways overlap in simulated time.
    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        let (t0, span) = self.begin_command("read_batch");
        let first = reqs.first().map_or(0, |(lpn, _)| lpn.0);
        let n = reqs.len() as u64;
        let r = self.read_batch_impl(reqs);
        self.end_command(span, n, r.is_ok());
        self.telemetry.record(OpClass::ReadBatch, first, n, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    /// Batched write: destinations are striped across channels by the
    /// block pool and programmed as multi-page submissions, so the
    /// programs overlap across channel-ways. Ordering and durability
    /// semantics match the equivalent sequence of single writes.
    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        let (t0, span) = self.begin_command("write_batch");
        let first = pages.first().map_or(0, |(lpn, _)| lpn.0);
        let n = pages.len() as u64;
        let r = self.write_batch_impl(pages);
        self.end_command(span, n, r.is_ok());
        self.telemetry.record(OpClass::WriteBatch, first, n, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    /// Atomic multi-page write (§6.1's related-work primitive): all data
    /// pages are programmed out-of-place first, then every mapping delta
    /// of the batch is committed in a single atomically-programmed log
    /// page — the same mechanism that makes SHARE batches atomic.
    fn write_atomic(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        if pages.is_empty() {
            return Ok(());
        }
        let (t0, span) = self.begin_command("write_atomic");
        let first = pages[0].0 .0;
        let n = pages.len() as u64;
        let r = self.write_atomic_impl(pages);
        self.end_command(span, n, r.is_ok());
        self.telemetry.record(OpClass::WriteAtomic, first, n, t0, self.nand.now_ns(), r.is_ok());
        r
    }

    fn write_atomic_limit(&self) -> usize {
        self.cfg.deltas_per_page()
    }

    fn supports_queue(&self) -> bool {
        true
    }

    fn queue_depth(&self) -> usize {
        self.cfg.queue_depth
    }

    fn set_queue_depth(&mut self, depth: usize) {
        self.cfg.queue_depth = depth.max(1);
    }

    /// Queued submission: execute the command's state transitions *now*
    /// (in submission order — the medium and crash images are identical to
    /// the synchronous path) but dispatch its NAND timing onto a deferred
    /// window, so commands from independent connections overlap across
    /// channel-ways. The completion surfaces via `poll`/`reap`/`drain`.
    fn submit(&mut self, cmd: QueuedCmd) -> Result<CmdTag, FtlError> {
        if self.pending.len() >= self.cfg.queue_depth {
            return Err(FtlError::QueueFull { depth: self.cfg.queue_depth });
        }
        let tag = CmdTag(self.next_tag);
        self.next_tag = self.next_tag.wrapping_add(1);
        let submit_ns = self.nand.now_ns();
        let stream = self.telemetry.current_stream();
        self.cmd_stream = Some(stream);
        let span = self.begin_span(cmd.name(), stream, submit_ns);
        self.pool.begin_capture();
        self.nand.begin_deferred();
        let (op, lpn0, pages, result) = self.execute_queued(cmd);
        let complete_ns = self.nand.end_deferred();
        let blocks = self.pool.end_capture();
        self.cmd_stream = None;
        let ok = result.is_ok();
        self.tracer.end(span, complete_ns, pages, ok);
        // Recorded with the submit→complete interval: under load this is
        // the latency-under-load the host observes, not device service time.
        self.telemetry.record(op, lpn0, pages, submit_ns, complete_ns, ok);
        self.q_submitted += 1;
        self.pending.push(PendingCmd { tag, submit_ns, complete_ns, result, blocks });
        self.q_max_inflight = self.q_max_inflight.max(self.pending.len() as u64);
        self.epoch_tick();
        Ok(tag)
    }

    fn poll(&mut self) -> Vec<Completion> {
        let now = self.nand.now_ns();
        self.take_due(now)
    }

    fn reap(&mut self) -> Vec<Completion> {
        let Some(earliest) = self.pending.iter().map(|p| p.complete_ns).min() else {
            return Vec::new();
        };
        self.nand.clock().advance_to(earliest);
        let now = self.nand.now_ns();
        self.take_due(now)
    }

    fn drain(&mut self) -> Vec<Completion> {
        let Some(latest) = self.pending.iter().map(|p| p.complete_ns).max() else {
            return Vec::new();
        };
        self.nand.clock().advance_to(latest);
        let now = self.nand.now_ns();
        self.take_due(now)
    }

    fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn stats(&self) -> DeviceStats {
        let mut s = self.stats;
        s.nand = self.nand.stats();
        s.lane_steals = self.pool.lane_steals();
        s
    }

    fn clock(&self) -> &SimClock {
        self.nand.clock()
    }

    fn stream_intern(&mut self, label: &str) -> u32 {
        let id = self.telemetry.intern(label);
        let idx = id as usize;
        if self.stream_class.len() <= idx {
            self.stream_class.resize(idx + 1, CLASS_DEFAULT);
        }
        self.stream_class[idx] = self.cfg.placement.classify(label);
        self.tracer.set_stream_label(id, label);
        id
    }

    fn set_stream(&mut self, stream: u32) {
        self.telemetry.set_stream(stream)
    }

    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        let mut snap = self.telemetry.snapshot();
        let channels = self.cfg.geometry.channels;
        snap.units = self
            .nand
            .busy_ns()
            .iter()
            .enumerate()
            .map(|(unit, &busy_ns)| UnitUtilization {
                channel: unit as u32 % channels,
                way: unit as u32 / channels,
                busy_ns,
            })
            .collect();
        snap.now_ns = self.nand.now_ns();
        snap.queue = QueueGauges {
            depth: self.cfg.queue_depth as u64,
            inflight: self.pending.len() as u64,
            max_inflight: self.q_max_inflight,
            submitted: self.q_submitted,
            reaped: self.q_reaped,
        };
        snap.placement = PlacementGauges {
            enabled: self.cfg.placement.enabled,
            lane_steals: self.pool.lane_steals(),
            gc_stall_ns: self.stats.gc_stall_ns,
            gc_budget_deferrals: self.stats.gc_budget_deferrals,
            classes: (0..self.pool.classes())
                .map(|class| PlacementClassGauge {
                    class: class as u8,
                    label: PlacementConfig::class_label(class as u8).to_string(),
                    placed_pages: self.pool.placed_pages(class),
                    gc_moved_pages: self.pool.gc_moved_pages(class),
                    open_blocks: self.pool.open_blocks(class),
                })
                .collect(),
        };
        snap.snapshots = SnapshotGauges {
            live: self.snaps.count() as u64,
            frozen_pages: self.snaps.frozen_pages(),
            pinned_pages: self.snaps.pinned_pages(),
            creates: self.stats.snapshot_creates,
            drops: self.stats.snapshot_drops,
            clones: self.stats.snapshot_clones,
            clone_pages: self.stats.snapshot_clone_pages,
            reads: self.stats.snapshot_reads,
            pinned_relocations: self.stats.snapshot_pinned_relocations,
        };
        snap.health = self.health_report().gauges();
        if let Some(rec) = &self.recorder {
            snap.alerts = rec.alerts().to_vec();
        }
        Some(snap)
    }

    fn monitor_snapshot(&self) -> Option<FlightSnapshot> {
        let rec = self.recorder.as_ref()?;
        let mut snap =
            rec.snapshot(self.nand.now_ns(), &self.stats(), &self.telemetry.wa_raw());
        snap.labels = self.telemetry.stream_labels().to_vec();
        snap.unit_labels = unit_labels(self.cfg.geometry.channels, self.nand.busy_ns().len());
        Some(snap)
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_sim::NandTiming;

    fn tiny() -> Ftl {
        // 1 MiB logical, generous OP so GC has room; zero latency for speed.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        Ftl::new(cfg)
    }

    fn pagev(b: u8, ftl: &Ftl) -> Vec<u8> {
        vec![b; ftl.page_size()]
    }

    fn read_byte(ftl: &mut Ftl, lpn: Lpn) -> u8 {
        let mut buf = vec![0u8; ftl.page_size()];
        ftl.read(lpn, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == buf[0]), "page not uniform");
        buf[0]
    }

    #[test]
    fn write_read_round_trip() {
        let mut f = tiny();
        f.write(Lpn(7), &pagev(0xAA, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(7)), 0xAA);
        f.check_invariants();
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut f = tiny();
        assert_eq!(read_byte(&mut f, Lpn(100)), 0);
    }

    #[test]
    fn overwrite_returns_new_data() {
        let mut f = tiny();
        f.write(Lpn(5), &pagev(1, &f)).unwrap();
        f.write(Lpn(5), &pagev(2, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(5)), 2);
        f.check_invariants();
    }

    #[test]
    fn share_makes_dest_read_src_content() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(0x11, &f)).unwrap();
        f.write(Lpn(2), &pagev(0x22, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(1)), 0x22);
        assert_eq!(read_byte(&mut f, Lpn(2)), 0x22);
        assert_eq!(f.mapping_of(Lpn(1)), f.mapping_of(Lpn(2)));
        assert_eq!(f.refcount_of(Lpn(1)), 2);
        f.check_invariants();
    }

    #[test]
    fn share_consumes_no_data_page_writes() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        f.write(Lpn(2), &pagev(2, &f)).unwrap();
        f.flush().unwrap(); // drain buffered deltas so the batch page is isolated
        let before = f.stats();
        f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
        let d = f.stats().delta_since(&before);
        assert_eq!(d.host_writes, 0);
        // Exactly one meta page for the atomic batch.
        assert_eq!(d.meta_page_writes, 1);
        assert_eq!(d.share_commands, 1);
        assert_eq!(d.shared_pages, 1);
    }

    #[test]
    fn share_after_overwrite_of_src_keeps_old_content_for_dest() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        f.write(Lpn(2), &pagev(2, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
        // src moves on; dest keeps the shared physical page.
        f.write(Lpn(2), &pagev(3, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(1)), 2);
        assert_eq!(read_byte(&mut f, Lpn(2)), 3);
        assert_eq!(f.refcount_of(Lpn(1)), 1);
        f.check_invariants();
    }

    #[test]
    fn share_unmapped_src_is_rejected() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(9))]),
            Err(FtlError::SrcUnmapped(Lpn(9)))
        );
        // Mapping untouched.
        assert_eq!(read_byte(&mut f, Lpn(1)), 1);
    }

    #[test]
    fn share_batch_validation() {
        let mut f = tiny();
        for i in 0..4 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(1))]),
            Err(FtlError::InvalidBatch("destination equals source"))
        );
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(2)), SharePair::new(Lpn(1), Lpn(3))]),
            Err(FtlError::InvalidBatch("duplicate destination LPN"))
        );
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(2)), SharePair::new(Lpn(3), Lpn(1))]),
            Err(FtlError::InvalidBatch("an LPN is both destination and source"))
        );
        let too_big: Vec<SharePair> = (0..f.share_batch_limit() as u64 + 1)
            .map(|i| SharePair::new(Lpn(1000 + i), Lpn(0)))
            .collect();
        assert!(matches!(f.share(&too_big), Err(FtlError::BatchTooLarge { .. })));
        // Failed commands must not mutate state.
        f.check_invariants();
        assert_eq!(f.stats().share_commands, 0);
    }

    #[test]
    fn ranged_share_remaps_every_page() {
        let mut f = tiny();
        for i in 0..8 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        for i in 0..4u64 {
            f.write(Lpn(100 + i), &pagev(0xF0 + i as u8, &f)).unwrap();
        }
        f.share(&SharePair::range(Lpn(0), Lpn(100), 4)).unwrap();
        for i in 0..4u64 {
            assert_eq!(read_byte(&mut f, Lpn(i)), 0xF0 + i as u8);
        }
        for i in 4..8u64 {
            assert_eq!(read_byte(&mut f, Lpn(i)), i as u8);
        }
        f.check_invariants();
    }

    #[test]
    fn trim_unmaps_and_reads_zero() {
        let mut f = tiny();
        f.write(Lpn(3), &pagev(9, &f)).unwrap();
        f.trim(Lpn(3), 1).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(3)), 0);
        assert_eq!(f.mapping_of(Lpn(3)), None);
        f.check_invariants();
    }

    #[test]
    fn revmap_full_rejects_whole_batch() {
        let cfg = {
            let mut c = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
            c.revmap_capacity = 2;
            c.revmap_policy = crate::mapping::RevMapPolicy::Strict;
            c
        };
        let mut f = Ftl::new(cfg);
        for i in 0..8 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        // Two shares fit...
        f.share(&[SharePair::new(Lpn(0), Lpn(4)), SharePair::new(Lpn(1), Lpn(5))]).unwrap();
        assert_eq!(f.revmap_len(), 2);
        // ...a third does not, and the whole batch is rejected.
        assert_eq!(
            f.share(&[SharePair::new(Lpn(2), Lpn(6)), SharePair::new(Lpn(3), Lpn(7))]),
            Err(FtlError::RevMapFull { capacity: 2 })
        );
        assert_eq!(f.revmap_len(), 2);
        assert_eq!(read_byte(&mut f, Lpn(2)), 2);
        f.check_invariants();
    }

    #[test]
    fn overwriting_shared_dest_releases_revmap_slot() {
        let mut f = tiny();
        f.write(Lpn(0), &pagev(1, &f)).unwrap();
        f.write(Lpn(1), &pagev(2, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(0), Lpn(1))]).unwrap();
        assert_eq!(f.revmap_len(), 1);
        f.write(Lpn(0), &pagev(3, &f)).unwrap();
        assert_eq!(f.revmap_len(), 0);
        f.check_invariants();
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_pressure() {
        let mut f = tiny();
        let logical = f.capacity_pages();
        // Fill the device, then overwrite half of it repeatedly.
        for i in 0..logical {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
        }
        for round in 0..4u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
            }
        }
        let s = f.stats();
        assert!(s.gc_events > 0, "GC must have run");
        assert!(s.gc_erases > 0);
        assert!(s.waf() > 1.0);
        // All data still readable and correct.
        for i in 0..logical / 2 {
            assert_eq!(read_byte(&mut f, Lpn(i)), ((i + 3) % 251) as u8);
        }
        for i in logical / 2..logical {
            assert_eq!(read_byte(&mut f, Lpn(i)), (i % 251) as u8);
        }
        f.check_invariants();
    }

    #[test]
    fn gc_preserves_shared_pages() {
        let mut f = tiny();
        let logical = f.capacity_pages();
        // Create shared mappings up front.
        f.write(Lpn(0), &pagev(0x5A, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(1), Lpn(0)), SharePair::new(Lpn(2), Lpn(0))]).unwrap();
        // Force many GC cycles with overwrite churn elsewhere.
        for round in 0..6u64 {
            for i in 3..logical {
                f.write(Lpn(i), &pagev(((i * 7 + round) % 251) as u8, &f)).unwrap();
            }
        }
        assert!(f.stats().gc_events > 0);
        // The shared trio still reads the same content through one PPN.
        assert_eq!(read_byte(&mut f, Lpn(0)), 0x5A);
        assert_eq!(read_byte(&mut f, Lpn(1)), 0x5A);
        assert_eq!(read_byte(&mut f, Lpn(2)), 0x5A);
        assert_eq!(f.mapping_of(Lpn(0)), f.mapping_of(Lpn(1)));
        assert_eq!(f.mapping_of(Lpn(1)), f.mapping_of(Lpn(2)));
        f.check_invariants();
    }

    #[test]
    fn flush_persists_and_reopen_recovers() {
        let mut f = tiny();
        let cfg = f.config().clone();
        for i in 0..50 {
            f.write(Lpn(i), &pagev((i + 1) as u8, &f)).unwrap();
        }
        f.share(&[SharePair::new(Lpn(60), Lpn(0))]).unwrap();
        f.flush().unwrap();
        let nand = f.into_nand();
        let mut f2 = Ftl::open(cfg, nand).unwrap();
        for i in 0..50 {
            assert_eq!(read_byte(&mut f2, Lpn(i)), (i + 1) as u8);
        }
        assert_eq!(read_byte(&mut f2, Lpn(60)), 1);
        assert_eq!(f2.mapping_of(Lpn(60)), f2.mapping_of(Lpn(0)));
        f2.check_invariants();
    }

    #[test]
    fn unflushed_writes_may_be_lost_but_old_data_survives() {
        let mut f = tiny();
        let cfg = f.config().clone();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        f.flush().unwrap();
        // Overwrite without flush: durability not promised for the new data,
        // but recovery must yield *some* consistent version (here: the old).
        f.write(Lpn(1), &pagev(2, &f)).unwrap();
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        let v = read_byte(&mut f2, Lpn(1));
        assert!(v == 1 || v == 2, "must be old or new, got {v}");
        f2.check_invariants();
    }

    #[test]
    fn crash_mid_share_batch_is_all_or_nothing() {
        let mut f = tiny();
        let cfg = f.config().clone();
        for i in 0..4 {
            f.write(Lpn(i), &pagev(10 + i as u8, &f)).unwrap();
        }
        for i in 0..4u64 {
            f.write(Lpn(100 + i), &pagev(20 + i as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        // Tear the very next NAND program: that is the atomic batch's log page.
        f.fault_handle().arm_after_programs(1, nand_sim::FaultMode::TornHalf);
        let pairs = SharePair::range(Lpn(0), Lpn(100), 4);
        assert!(f.share(&pairs).is_err());
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        let first = read_byte(&mut f2, Lpn(0));
        let all_old = first == 10;
        for i in 0..4u64 {
            let v = read_byte(&mut f2, Lpn(i));
            if all_old {
                assert_eq!(v, 10 + i as u8, "partial share visible after crash");
            } else {
                assert_eq!(v, 20 + i as u8, "partial share visible after crash");
            }
        }
        f2.check_invariants();
    }

    #[test]
    fn committed_share_survives_crash() {
        let mut f = tiny();
        let cfg = f.config().clone();
        for i in 0..4 {
            f.write(Lpn(i), &pagev(10 + i as u8, &f)).unwrap();
        }
        for i in 0..4u64 {
            f.write(Lpn(100 + i), &pagev(20 + i as u8, &f)).unwrap();
        }
        f.share(&SharePair::range(Lpn(0), Lpn(100), 4)).unwrap();
        // Crash on the next data write, *after* the share completed.
        f.fault_handle().arm_after_programs(1, nand_sim::FaultMode::AfterProgram);
        let _ = f.write(Lpn(200), &pagev(1, &f));
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        for i in 0..4u64 {
            assert_eq!(read_byte(&mut f2, Lpn(i)), 20 + i as u8);
        }
        f2.check_invariants();
    }

    #[test]
    fn checkpoint_cycles_do_not_lose_data() {
        // Tiny log ring forces frequent checkpoints.
        let mut cfg = FtlConfig::for_capacity_with(256 << 10, 0.5, 4096, 16, NandTiming::zero());
        cfg.log_blocks = 2;
        let mut f = Ftl::new(cfg.clone());
        let logical = f.capacity_pages();
        let rounds = 30u64;
        for round in 0..rounds {
            for i in 0..logical {
                f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
            }
            f.flush().unwrap();
        }
        assert!(f.stats().checkpoints > 1, "expected periodic checkpoints");
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        for i in 0..logical {
            assert_eq!(read_byte(&mut f2, Lpn(i)), ((i + rounds - 1) % 251) as u8);
        }
    }

    #[test]
    fn stats_track_host_and_nand_sides() {
        let mut f = tiny();
        f.write(Lpn(0), &pagev(1, &f)).unwrap();
        f.flush().unwrap();
        let s = f.stats();
        assert_eq!(s.host_writes, 1);
        assert_eq!(s.flushes, 1);
        assert!(s.nand.page_programs >= 2); // data page + delta page
        assert!(s.meta_page_writes >= 1);
    }

    #[test]
    fn out_of_range_lpn_rejected_everywhere() {
        let mut f = tiny();
        let cap = f.capacity_pages();
        let buf = pagev(0, &f);
        let mut rbuf = buf.clone();
        assert!(matches!(f.write(Lpn(cap), &buf), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(f.read(Lpn(cap), &mut rbuf), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(f.trim(Lpn(cap), 1), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(
            f.share(&[SharePair::new(Lpn(cap), Lpn(0))]),
            Err(FtlError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn write_atomic_batch_round_trips() {
        let mut f = tiny();
        let imgs: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x30 + i, &f)).collect();
        let batch: Vec<(Lpn, &[u8])> =
            imgs.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
        f.write_atomic(&batch).unwrap();
        for i in 0..8u64 {
            assert_eq!(read_byte(&mut f, Lpn(i)), 0x30 + i as u8);
        }
        assert_eq!(f.stats().host_writes, 8);
        f.check_invariants();
    }

    #[test]
    fn write_atomic_is_all_or_nothing_across_crash() {
        // Sweep crash points across the batch's data programs and its
        // commit (delta) page: recovery must show all-old or all-new.
        for crash_at in 1..=10u64 {
            let mut f = tiny();
            let cfg = f.config().clone();
            let old: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x10 + i, &f)).collect();
            let batch: Vec<(Lpn, &[u8])> =
                old.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
            f.write_atomic(&batch).unwrap();
            f.flush().unwrap();

            let new: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x50 + i, &f)).collect();
            let batch: Vec<(Lpn, &[u8])> =
                new.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
            f.fault_handle().arm_after_programs(crash_at, nand_sim::FaultMode::TornHalf);
            let crashed = f.write_atomic(&batch).is_err();
            f.fault_handle().disarm();
            let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
            let first = read_byte(&mut f2, Lpn(0));
            let base = if first == 0x10 { 0x10 } else { 0x50 };
            for i in 0..8u64 {
                assert_eq!(
                    read_byte(&mut f2, Lpn(i)),
                    base + i as u8,
                    "crash {crash_at} (crashed={crashed}): partial atomic write visible"
                );
            }
            f2.check_invariants();
        }
    }

    #[test]
    fn write_atomic_validates_batches() {
        let mut f = tiny();
        let img = pagev(1, &f);
        assert_eq!(
            f.write_atomic(&[(Lpn(0), img.as_slice()), (Lpn(0), img.as_slice())]),
            Err(FtlError::InvalidBatch("duplicate LPN in atomic write"))
        );
        let too_big: Vec<(Lpn, &[u8])> =
            (0..f.write_atomic_limit() as u64 + 1).map(|i| (Lpn(i), img.as_slice())).collect();
        assert!(matches!(f.write_atomic(&too_big), Err(FtlError::BatchTooLarge { .. })));
        assert_eq!(f.stats().host_writes, 0, "failed batches must not write");
    }

    #[test]
    fn wear_stats_empty_pool_is_all_zero() {
        // A zero-block pool must not report min == u32::MAX / mean == NaN.
        let w = WearStats::from_counts(std::iter::empty::<u32>());
        assert_eq!(w.min_erases, 0);
        assert_eq!(w.max_erases, 0);
        assert_eq!(w.mean_erases, 0.0);
        assert!(!w.mean_erases.is_nan());
    }

    #[test]
    fn wear_stats_from_counts_summarizes() {
        let w = WearStats::from_counts([3u32, 1, 2]);
        assert_eq!(w.min_erases, 1);
        assert_eq!(w.max_erases, 3);
        assert!((w.mean_erases - 2.0).abs() < 1e-12);
    }

    #[test]
    fn open_reports_recovery_cost_in_stats() {
        let mut f = tiny();
        for i in 0..40u64 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        let cfg = f.config().clone();
        let rec = Ftl::open(cfg.clone(), f.into_nand()).unwrap();
        let s = rec.stats();
        assert_eq!(s.recoveries, 1);
        assert!(s.recovery_page_reads > 0, "recovery must scan the image");
        // Recovery programs exactly the fresh closing checkpoint: header +
        // table pages + commit page.
        let table_pages = (cfg.logical_pages * 4).div_ceil(cfg.geometry.page_size as u64);
        assert_eq!(s.recovery_page_writes, table_pages + 2);
        // A freshly formatted device, by contrast, has never recovered.
        let fresh = tiny();
        assert_eq!(fresh.stats().recoveries, 0);
        assert_eq!(fresh.stats().recovery_page_writes, 0);
    }

    #[test]
    fn wear_stats_track_erases_and_stay_balanced() {
        let mut f = tiny();
        let logical = f.capacity_pages();
        let w0 = f.wear_stats();
        assert_eq!(w0.max_erases, 0);
        for round in 0..10u64 {
            for i in 0..logical {
                f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
            }
        }
        let w = f.wear_stats();
        assert!(w.max_erases > 0, "churn must cause erases");
        assert!(w.mean_erases > 0.5);
        // Min-erase-count free-block selection keeps wear within a band.
        assert!(
            w.max_erases - w.min_erases <= w.max_erases.max(4),
            "wear spread too wide: {w:?}"
        );
    }

    #[test]
    fn share_timing_is_cheaper_than_write() {
        // With real latencies, sharing N pages must beat writing N pages.
        let cfg = FtlConfig::for_capacity_with(2 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut f = Ftl::new(cfg);
        for i in 0..64u64 {
            f.write(Lpn(i), &pagev(1, &f)).unwrap();
        }
        for i in 0..64u64 {
            f.write(Lpn(100 + i), &pagev(2, &f)).unwrap();
        }
        let t0 = f.clock().now_ns();
        f.share(&SharePair::range(Lpn(0), Lpn(100), 64)).unwrap();
        let share_cost = f.clock().now_ns() - t0;

        let t1 = f.clock().now_ns();
        for i in 0..64u64 {
            f.write(Lpn(200 + i), &pagev(3, &f)).unwrap();
        }
        let write_cost = f.clock().now_ns() - t1;
        assert!(
            share_cost * 10 < write_cost,
            "share ({share_cost} ns) should be >10x cheaper than writes ({write_cost} ns)"
        );
    }

    fn tiny_channels(channels: u32) -> Ftl {
        let cfg = FtlConfig::for_capacity_with(2 << 20, 0.5, 4096, 16, NandTiming::default())
            .with_parallelism(channels, 1);
        Ftl::new(cfg)
    }

    #[test]
    fn write_batch_round_trips_and_matches_serial_stats() {
        let mut f = tiny_channels(4);
        let ps = f.page_size();
        let pages: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        assert_eq!(f.stats().host_writes, 32);
        let mut buf = vec![0u8; ps];
        for i in 0..32u64 {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8), "lpn {i} diverged");
        }
        f.check_invariants();
    }

    #[test]
    fn read_batch_mixes_mapped_and_unmapped() {
        let mut f = tiny_channels(2);
        let ps = f.page_size();
        f.write(Lpn(1), &pagev(7, &f)).unwrap();
        f.write(Lpn(3), &pagev(9, &f)).unwrap();
        let mut bufs = vec![vec![0xAAu8; ps]; 4];
        {
            let mut reqs: Vec<(Lpn, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (Lpn(i as u64), b.as_mut_slice()))
                .collect();
            f.read_batch(&mut reqs).unwrap();
        }
        assert!(bufs[0].iter().all(|&b| b == 0), "unmapped reads zero");
        assert!(bufs[1].iter().all(|&b| b == 7));
        assert!(bufs[2].iter().all(|&b| b == 0));
        assert!(bufs[3].iter().all(|&b| b == 9));
        assert_eq!(f.stats().host_reads, 4);
    }

    #[test]
    fn write_batch_scales_with_channels() {
        // The same 64-page batch must finish earlier on 8 channels than
        // on 1 — the tentpole's end-to-end claim at device level.
        let mut times = Vec::new();
        for ch in [1u32, 8] {
            let mut f = tiny_channels(ch);
            let ps = f.page_size();
            let pages: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; ps]).collect();
            let batch: Vec<(Lpn, &[u8])> =
                pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
            let t0 = f.clock().now_ns();
            f.write_batch(&batch).unwrap();
            times.push(f.clock().now_ns() - t0);
        }
        assert!(
            times[1] * 2 < times[0],
            "8-channel batch ({} ns) should be >2x faster than 1-channel ({} ns)",
            times[1],
            times[0]
        );
    }

    #[test]
    fn one_channel_write_batch_matches_serial_writes_in_time() {
        // On a single channel the batched path must cost exactly what the
        // serial path costs — batching changes dispatch, not physics.
        let mut serial = tiny_channels(1);
        let ps = serial.page_size();
        let pages: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; ps]).collect();
        let t0 = serial.clock().now_ns();
        for (i, p) in pages.iter().enumerate() {
            serial.write(Lpn(i as u64), p).unwrap();
        }
        let serial_ns = serial.clock().now_ns() - t0;

        let mut batched = tiny_channels(1);
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        let t1 = batched.clock().now_ns();
        batched.write_batch(&batch).unwrap();
        let batched_ns = batched.clock().now_ns() - t1;
        assert_eq!(serial_ns, batched_ns);
    }

    #[test]
    fn share_batch_spans_multiple_log_pages_as_one_command() {
        let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::zero());
        let mut f = Ftl::new(cfg);
        let limit = f.share_batch_limit();
        let n = limit as u64 + 10; // forces two log-page sub-batches
        for i in 0..n {
            f.write(Lpn(512 + i), &pagev((i % 251) as u8, &f)).unwrap();
        }
        let pairs: Vec<SharePair> =
            (0..n).map(|i| SharePair::new(Lpn(i), Lpn(512 + i))).collect();
        let cmds_before = f.stats().share_commands;
        f.share_batch(&pairs).unwrap();
        assert_eq!(f.stats().share_commands, cmds_before + 1, "one host command");
        assert_eq!(f.stats().shared_pages, n);
        let mut buf = vec![0u8; f.page_size()];
        for i in 0..n {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == (i % 251) as u8), "pair {i} diverged");
        }
        f.check_invariants();
    }

    #[test]
    fn share_validation_errors_are_unchanged_by_scratch_reuse() {
        // Reusing scratch buffers across commands must not leak state
        // from a failed validation into the next command.
        let mut f = tiny();
        f.write(Lpn(10), &pagev(1, &f)).unwrap();
        assert!(matches!(
            f.share(&[SharePair::new(Lpn(0), Lpn(99))]),
            Err(FtlError::SrcUnmapped(_))
        ));
        assert!(matches!(
            f.share(&[SharePair::new(Lpn(0), Lpn(10)), SharePair::new(Lpn(0), Lpn(10))]),
            Err(FtlError::InvalidBatch("duplicate destination LPN"))
        ));
        // A valid command right after the failures still works.
        f.share(&[SharePair::new(Lpn(0), Lpn(10))]).unwrap();
        let mut buf = vec![0u8; f.page_size()];
        f.read(Lpn(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        f.check_invariants();
    }

    /// Drive a mixed, error-free workload through `f` exercising every
    /// host op class plus GC/log/checkpoint traffic.
    fn mixed_workload(f: &mut Ftl) {
        let ps = f.page_size();
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; ps]).unwrap();
            }
        }
        let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        f.write_atomic(&batch[..8]).unwrap();
        f.share(&[SharePair::new(Lpn(200), Lpn(0))]).unwrap();
        f.share_batch(&SharePair::range(Lpn(210), Lpn(1), 4)).unwrap();
        let mut buf = vec![0u8; ps];
        f.read(Lpn(0), &mut buf).unwrap();
        let mut bufs = vec![vec![0u8; ps]; 4];
        let mut reqs: Vec<(Lpn, &mut [u8])> =
            bufs.iter_mut().enumerate().map(|(i, b)| (Lpn(i as u64), b.as_mut_slice())).collect();
        f.read_batch(&mut reqs).unwrap();
        f.trim(Lpn(220), 3).unwrap();
        f.flush().unwrap();
    }

    #[test]
    fn telemetry_counters_match_device_stats() {
        use share_telemetry::OpClass as Op;
        let mut f = tiny();
        mixed_workload(&mut f);
        let s = f.stats();
        let t = f.telemetry().snapshot();
        assert!(s.gc_events > 0, "workload must trigger GC");
        assert_eq!(s.host_reads, t.pages(Op::Read) + t.pages(Op::ReadBatch));
        assert_eq!(
            s.host_writes,
            t.pages(Op::Write) + t.pages(Op::WriteBatch) + t.pages(Op::WriteAtomic)
        );
        assert_eq!(s.flushes, t.ops_count(Op::Flush));
        assert_eq!(s.trims, t.pages(Op::Trim));
        assert_eq!(s.share_commands, t.ops_count(Op::Share) + t.ops_count(Op::ShareBatch));
        assert_eq!(s.shared_pages, t.pages(Op::Share) + t.pages(Op::ShareBatch));
        assert_eq!(s.gc_events, t.ops_count(Op::Gc));
        assert_eq!(s.copyback_pages, t.pages(Op::Gc));
        assert_eq!(s.checkpoints, t.ops_count(Op::Checkpoint));
        assert_eq!(s.meta_page_writes, t.pages(Op::LogFlush) + t.pages(Op::Checkpoint));
    }

    #[test]
    fn full_telemetry_leaves_simulated_results_bit_identical() {
        // Same workload, counters-only vs. everything on: the simulated
        // clock and every DeviceStats counter must match exactly —
        // telemetry reads the clock, never advances it.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut plain = Ftl::new(cfg.clone());
        let mut full =
            Ftl::new(cfg.with_telemetry(share_telemetry::TelemetryConfig::full()));
        mixed_workload(&mut plain);
        mixed_workload(&mut full);
        assert_eq!(plain.clock().now_ns(), full.clock().now_ns());
        assert_eq!(plain.stats(), full.stats());
        // And the full device actually collected the optional data.
        let snap = full.telemetry().snapshot();
        assert!(!snap.op(share_telemetry::OpClass::Write).hist.is_empty());
        assert!(!snap.events.is_empty());
        assert!(plain.telemetry().snapshot().events.is_empty());
    }

    #[test]
    fn tracing_leaves_simulated_results_bit_identical() {
        // The tracer only *reads* clock values around work that happens
        // anyway, so a traced run must be indistinguishable from an
        // untraced one in simulated time and every DeviceStats counter.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut plain = Ftl::new(cfg.clone());
        let mut traced =
            Ftl::new(cfg.with_telemetry(share_telemetry::TelemetryConfig::tracing()));
        mixed_workload(&mut plain);
        mixed_workload(&mut traced);
        assert_eq!(plain.clock().now_ns(), traced.clock().now_ns());
        assert_eq!(plain.stats(), traced.stats());
        assert!(!plain.tracer().is_enabled());
        assert_eq!(plain.tracer().span_count(), 0);
        assert!(traced.tracer().span_count() > 0, "traced run must collect spans");
    }

    #[test]
    fn trace_spans_nest_ftl_over_nand_and_export() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default())
            .with_telemetry(share_telemetry::TelemetryConfig::tracing());
        let mut f = Ftl::new(cfg);
        let wal = f.stream_intern("wal");
        f.set_stream(wal);
        f.write(Lpn(3), &pagev(7, &f)).unwrap();
        let spans = f.tracer().spans();
        let write = spans
            .iter()
            .find(|s| s.name == "write" && s.layer == Layer::Ftl)
            .expect("ftl write span");
        assert_eq!(write.track, Track::Stream(wal));
        let program = spans
            .iter()
            .find(|s| s.name == "program" && s.layer == Layer::Nand && s.parent == write.id)
            .expect("NAND program leaf hangs off the FTL command span");
        assert!(write.start_ns <= program.start_ns && program.end_ns <= write.end_ns);
        // The export names the interned stream's track and re-parses.
        let doc = f.tracer().chrome_json().expect("enabled tracer exports");
        let text = doc.render();
        assert!(text.contains("stream:wal"));
        share_telemetry::json::parse(&text).expect("chrome trace re-parses");
    }

    #[test]
    fn wa_ledger_sums_exactly_to_background_programs() {
        let mut f = tiny();
        let wal = f.stream_intern("wal");
        f.set_stream(wal);
        mixed_workload(&mut f);
        let s = f.stats();
        assert!(s.gc_events > 0, "workload must trigger GC");
        let snap = f.telemetry_snapshot().unwrap();
        let bg_gc: u64 = snap.wa.iter().map(|w| w.bg_gc).sum();
        let bg_meta: u64 = snap.wa.iter().map(|w| w.bg_log + w.bg_ckpt).sum();
        assert_eq!(bg_gc, s.copyback_pages, "GC blame must sum to copyback pages");
        assert_eq!(bg_meta, s.meta_page_writes, "log+ckpt blame must sum to meta pages");
        assert_eq!(f.telemetry().blamed_total(), s.copyback_pages + s.meta_page_writes);
        // The busy workload ran under the `wal` stream, so the ledger must
        // pin background work on it, not just the ftl fallback.
        let wal_wa = snap.wa.iter().find(|w| w.label == "wal").unwrap();
        assert!(wal_wa.bg_total() > 0, "foreground stream must carry blame");
        assert!(wal_wa.wa_factor().unwrap() > 1.0);
    }

    #[test]
    fn log_flush_inside_host_command_inherits_its_stream() {
        // Satellite regression: a delta-log flush triggered mid-command
        // (RAM buffer filled during a large write_batch) must surface in
        // the command ring under the host command's stream, while GC's own
        // flushes stay on the reserved ftl stream.
        let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_telemetry(share_telemetry::TelemetryConfig::full());
        let mut f = Ftl::new(cfg);
        let dwb = f.stream_intern("doublewrite");
        f.set_stream(dwb);
        let ps = f.page_size();
        let n = f.config().deltas_per_page() * 2 + 8; // forces buffered flushes
        let pages: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        let events = f.telemetry().snapshot().events;
        let flushes: Vec<_> =
            events.iter().filter(|e| e.op == OpClass::LogFlush).collect();
        assert!(!flushes.is_empty(), "batch must trigger a mid-command log flush");
        assert!(
            flushes.iter().all(|e| e.stream == dwb),
            "mid-command log flushes must inherit the doublewrite stream"
        );
        // Now push the device into GC under the same stream: GC-triggered
        // flushes must NOT inherit it.
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; ps]).unwrap();
            }
        }
        assert!(f.stats().gc_events > 0);
        let events = f.telemetry().snapshot().events;
        let gc_flush = events
            .iter()
            .filter(|e| e.op == OpClass::LogFlush)
            .any(|e| e.stream == STREAM_FTL);
        assert!(gc_flush, "GC's log flushes stay on the ftl stream");
    }

    #[test]
    fn unit_utilization_snapshot_tracks_channels() {
        let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::default())
            .with_parallelism(4, 1);
        let mut f = Ftl::new(cfg);
        let ps = f.page_size();
        let pages: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        let snap = f.telemetry_snapshot().unwrap();
        assert_eq!(snap.units.len(), 4, "one utilization row per channel-way");
        assert!(snap.now_ns > 0);
        for u in &snap.units {
            assert!(u.busy_ns > 0, "striped batch keeps every unit busy");
            assert!(u.busy_ns <= snap.now_ns, "busy time cannot exceed wall time");
        }
        assert_eq!(snap.units.iter().map(|u| u.channel).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn recovery_is_recorded_as_an_op() {
        let mut f = tiny();
        for i in 0..30u64 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        let cfg = f.config().clone();
        let rec = Ftl::open(cfg, f.into_nand()).unwrap();
        let t = rec.telemetry().snapshot();
        use share_telemetry::OpClass as Op;
        assert_eq!(t.ops_count(Op::Recovery), 1);
        let s = rec.stats();
        assert_eq!(t.pages(Op::Recovery), s.recovery_page_reads + s.recovery_page_writes);
        // The closing checkpoint is visible both as a Checkpoint op and in
        // DeviceStats.
        assert_eq!(t.ops_count(Op::Checkpoint), s.checkpoints);
        // A fresh format records its birth checkpoint but no recovery.
        let fresh = tiny();
        let tf = fresh.telemetry().snapshot();
        assert_eq!(tf.ops_count(Op::Recovery), 0);
        assert_eq!(tf.ops_count(Op::Checkpoint), 1);
    }

    #[test]
    fn streams_attribute_host_and_ftl_traffic() {
        let mut f = tiny();
        let wal = f.stream_intern("wal");
        f.set_stream(wal);
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(1, &f)).unwrap();
        }
        f.set_stream(0);
        for i in 8..10u64 {
            f.write(Lpn(i), &pagev(2, &f)).unwrap();
        }
        let t = f.telemetry().snapshot();
        let by_label = |l: &str| t.streams.iter().find(|s| s.label == l).cloned().unwrap();
        assert_eq!(by_label("wal").writes.pages, 8);
        assert_eq!(by_label("host").writes.pages, 2);
        // The birth checkpoint lands on the reserved ftl stream.
        assert!(by_label("ftl").other.pages > 0);
    }

    #[test]
    fn gc_survives_batched_writes_under_pressure() {
        // Overwrite far more than the pool holds, in batches, across
        // channels: GC must relocate correctly and never eat a page that
        // a batch just programmed.
        let mut f = tiny_channels(4);
        let ps = f.page_size();
        let span = 96u64; // < logical capacity, > data pool working set
        for round in 0..12u8 {
            let pages: Vec<Vec<u8>> = (0..span).map(|i| vec![round ^ (i as u8); ps]).collect();
            let batch: Vec<(Lpn, &[u8])> =
                pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
            f.write_batch(&batch).unwrap();
        }
        let mut buf = vec![0u8; ps];
        for i in 0..span {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 11 ^ (i as u8)), "lpn {i} diverged after GC");
        }
        assert!(f.stats().gc_events > 0, "pressure must actually trigger GC");
        f.check_invariants();
    }

    // ----- submission/completion queue ------------------------------------

    #[test]
    fn queued_write_then_read_round_trips() {
        let mut f = tiny();
        let page = pagev(0x5A, &f);
        let wt = f.submit(QueuedCmd::Write { lpn: Lpn(3), data: page.clone() }).unwrap();
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, wt);
        assert!(done[0].is_ok());
        let rt = f.submit(QueuedCmd::Read { lpn: Lpn(3) }).unwrap();
        let done = f.drain();
        assert_eq!(done[0].tag, rt);
        let data = done[0].result.clone().unwrap().into_page().unwrap();
        assert_eq!(data, page);
        f.check_invariants();
    }

    #[test]
    fn queued_state_is_eager_but_completion_is_deferred() {
        let mut f = tiny_channels(2);
        let page = pagev(0x42, &f);
        let before = f.nand().now_ns();
        f.submit(QueuedCmd::Write { lpn: Lpn(9), data: page.clone() }).unwrap();
        // Submission never moves the clock...
        assert_eq!(f.nand().now_ns(), before);
        assert_eq!(f.inflight(), 1);
        // ...and nothing is due yet under nonzero NAND timing.
        assert!(f.poll().is_empty());
        // But the state transition already happened: a sync read sees it.
        assert_eq!(read_byte(&mut f, Lpn(9)), 0x42);
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(f.inflight(), 0);
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_queue_depth(2);
        let mut f = Ftl::new(cfg);
        let page = pagev(1, &f);
        f.submit(QueuedCmd::Write { lpn: Lpn(0), data: page.clone() }).unwrap();
        f.submit(QueuedCmd::Write { lpn: Lpn(1), data: page.clone() }).unwrap();
        assert_eq!(
            f.submit(QueuedCmd::Write { lpn: Lpn(2), data: page.clone() }),
            Err(FtlError::QueueFull { depth: 2 })
        );
        // Reaping frees a slot (zero timing: everything is due at once).
        assert!(!f.reap().is_empty());
        f.submit(QueuedCmd::Write { lpn: Lpn(2), data: page }).unwrap();
        f.drain();
    }

    #[test]
    fn qd1_submit_reap_is_bit_identical_to_sync() {
        // One command in flight at a time must cost exactly what the
        // blocking path costs — on any channel count.
        let run_sync = |mut f: Ftl| -> (u64, Vec<u8>) {
            let ps = f.page_size();
            for i in 0..24u64 {
                f.write(Lpn(i), &vec![(i % 251) as u8; ps]).unwrap();
            }
            f.share(&[SharePair::new(Lpn(30), Lpn(0))]).unwrap();
            f.trim(Lpn(1), 2).unwrap();
            f.flush().unwrap();
            let mut buf = vec![0u8; ps];
            f.read(Lpn(5), &mut buf).unwrap();
            (f.nand().now_ns(), buf)
        };
        let run_queued = |mut f: Ftl| -> (u64, Vec<u8>) {
            let ps = f.page_size();
            let reap1 = |f: &mut Ftl| {
                let done = f.reap();
                assert_eq!(done.len(), 1);
                done.into_iter().next().unwrap()
            };
            for i in 0..24u64 {
                f.submit(QueuedCmd::Write { lpn: Lpn(i), data: vec![(i % 251) as u8; ps] })
                    .unwrap();
                assert!(reap1(&mut f).is_ok());
            }
            f.submit(QueuedCmd::Share { pairs: vec![SharePair::new(Lpn(30), Lpn(0))] })
                .unwrap();
            assert!(reap1(&mut f).is_ok());
            f.submit(QueuedCmd::Trim { lpn: Lpn(1), len: 2 }).unwrap();
            assert!(reap1(&mut f).is_ok());
            f.submit(QueuedCmd::Flush).unwrap();
            assert!(reap1(&mut f).is_ok());
            f.submit(QueuedCmd::Read { lpn: Lpn(5) }).unwrap();
            let c = reap1(&mut f);
            (f.nand().now_ns(), c.result.unwrap().into_page().unwrap())
        };
        for channels in [1u32, 4] {
            let (t_sync, d_sync) = run_sync(tiny_channels(channels));
            let (t_q, d_q) = run_queued(tiny_channels(channels));
            assert_eq!(t_sync, t_q, "qd=1 timing diverged at {channels} channels");
            assert_eq!(d_sync, d_q);
        }
    }

    #[test]
    fn queued_commands_overlap_across_channels() {
        // Four single-page writes, submitted before any completes: the
        // block pool stripes them over four channels, so the whole burst
        // must finish in far less than four serial write times.
        let serial = {
            let mut f = tiny_channels(4);
            let t0 = f.nand().now_ns();
            for i in 0..4u64 {
                f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
            }
            f.nand().now_ns() - t0
        };
        let overlapped = {
            let mut f = tiny_channels(4);
            let t0 = f.nand().now_ns();
            for i in 0..4u64 {
                f.submit(QueuedCmd::Write { lpn: Lpn(i), data: pagev(i as u8, &f) }).unwrap();
            }
            let done = f.drain();
            assert_eq!(done.len(), 4);
            assert!(done.iter().all(Completion::is_ok));
            f.nand().now_ns() - t0
        };
        assert!(
            overlapped * 2 < serial,
            "4 queued writes ({overlapped} ns) should overlap well under half of serial ({serial} ns)"
        );
    }

    #[test]
    fn poll_reap_drain_orderings() {
        let mut f = tiny_channels(4);
        let tags: Vec<CmdTag> = (0..3u64)
            .map(|i| f.submit(QueuedCmd::Write { lpn: Lpn(i), data: pagev(i as u8, &f) }).unwrap())
            .collect();
        assert_eq!(f.inflight(), 3);
        // reap advances only to the earliest completion.
        let first = f.reap();
        assert!(!first.is_empty());
        assert!(f.inflight() < 3);
        let rest = f.drain();
        assert_eq!(first.len() + rest.len(), 3);
        // Completions come back ordered by completion time.
        let all: Vec<&Completion> = first.iter().chain(rest.iter()).collect();
        for w in all.windows(2) {
            assert!(w[0].complete_ns <= w[1].complete_ns);
        }
        let mut seen: Vec<CmdTag> = all.iter().map(|c| c.tag).collect();
        seen.sort();
        assert_eq!(seen, tags);
        // Queue telemetry gauges reflect the run.
        let snap = f.telemetry_snapshot().unwrap();
        assert_eq!(snap.queue.submitted, 3);
        assert_eq!(snap.queue.reaped, 3);
        assert_eq!(snap.queue.inflight, 0);
        assert_eq!(snap.queue.max_inflight, 3);
        assert_eq!(snap.queue.depth, 32);
    }

    #[test]
    fn queued_errors_surface_in_completions() {
        let mut f = tiny();
        let cap = f.capacity_pages();
        f.submit(QueuedCmd::Read { lpn: Lpn(cap + 1) }).unwrap();
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert!(matches!(done[0].result, Err(FtlError::LpnOutOfRange { .. })));
    }

    #[test]
    fn deep_queue_under_gc_pressure_never_stalls() {
        // Satellite regression: overwrite several times the pool's working
        // set with a deep queue. Blocks pinned by unreaped commands are
        // GC-ineligible; the raised watermarks must keep GC ahead anyway.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_parallelism(4, 1)
            .with_queue_depth(16);
        let mut f = Ftl::new(cfg);
        let ps = f.page_size();
        let span = 96u64;
        for round in 0..10u8 {
            for i in 0..span {
                let data = vec![round ^ (i as u8); ps];
                loop {
                    match f.submit(QueuedCmd::Write { lpn: Lpn(i), data: data.clone() }) {
                        Ok(_) => break,
                        Err(FtlError::QueueFull { .. }) => {
                            assert!(!f.reap().is_empty());
                        }
                        Err(e) => panic!("queued write failed under pressure: {e}"),
                    }
                }
            }
        }
        for c in f.drain() {
            assert!(c.is_ok(), "completion failed: {:?}", c.result);
        }
        assert!(f.stats().gc_events > 0, "pressure must actually trigger GC");
        let mut buf = vec![0u8; ps];
        for i in 0..span {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 9 ^ (i as u8)), "lpn {i} diverged");
        }
        f.check_invariants();
    }

    #[test]
    fn queued_batches_round_trip() {
        let mut f = tiny_channels(4);
        let ps = f.page_size();
        let pages: Vec<(Lpn, Vec<u8>)> =
            (0..16u64).map(|i| (Lpn(i), vec![(i % 251) as u8; ps])).collect();
        f.submit(QueuedCmd::WriteBatch { pages: pages.clone() }).unwrap();
        f.submit(QueuedCmd::WriteAtomic {
            pages: (16..20u64).map(|i| (Lpn(i), vec![(i % 251) as u8; ps])).collect(),
        })
        .unwrap();
        assert!(f.drain().iter().all(Completion::is_ok));
        let lpns: Vec<Lpn> = (0..20).map(Lpn).collect();
        f.submit(QueuedCmd::ReadBatch { lpns }).unwrap();
        let done = f.drain();
        let bufs = done[0].result.clone().unwrap().into_pages().unwrap();
        assert_eq!(bufs.len(), 20);
        for (i, b) in bufs.iter().enumerate() {
            assert!(b.iter().all(|&x| x == (i % 251) as u8), "lpn {i} diverged");
        }
        f.check_invariants();
    }

    // ----- device-level snapshots -----------------------------------------

    #[test]
    fn snapshot_create_consumes_no_nand_programs() {
        // The tentpole's headline property: freezing a range is O(mapped
        // pages) of RAM metadata — zero NAND page programs, zero reads.
        let mut f = tiny();
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        let before = f.stats();
        let id = f.snapshot_create("base", Lpn(0), 32).unwrap();
        let spent = f.stats().delta_since(&before);
        assert_eq!(spent.nand.page_programs, 0, "snapshot create must not program NAND");
        assert_eq!(spent.nand.page_reads, 0, "snapshot create must not read NAND");
        assert_eq!(spent.snapshot_creates, 1);
        assert!(f.supports_snapshot());
        let list = f.snapshot_list().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!((list[0].id, list[0].mapped_pages), (id, 32));
        assert_eq!(f.snapshot_list().unwrap()[0].name, "base");
        f.check_invariants();
    }

    #[test]
    fn snapshot_read_is_point_in_time() {
        let mut f = tiny();
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(7, &f)).unwrap();
        }
        f.snapshot_create("pit", Lpn(0), 8).unwrap();
        // Overwrite and trim the live range after the freeze.
        for i in 0..4u64 {
            f.write(Lpn(i), &pagev(9, &f)).unwrap();
        }
        f.trim(Lpn(4), 4).unwrap();
        let mut buf = vec![0u8; f.page_size()];
        for off in 0..8u64 {
            f.snapshot_read("pit", off, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 7), "offset {off} must show frozen content");
        }
        // The live map sees the new world.
        assert_eq!(read_byte(&mut f, Lpn(0)), 9);
        assert_eq!(read_byte(&mut f, Lpn(4)), 0);
        // Reads beyond the frozen range and of unknown names fail cleanly.
        assert!(matches!(
            f.snapshot_read("pit", 8, &mut buf),
            Err(FtlError::InvalidBatch(_))
        ));
        assert_eq!(f.snapshot_read("nope", 0, &mut buf), Err(FtlError::SnapshotNotFound));
        assert_eq!(f.stats().snapshot_reads, 8);
        f.check_invariants();
    }

    #[test]
    fn clone_is_zero_copy_then_cow() {
        let mut f = tiny();
        for i in 0..16u64 {
            f.write(Lpn(i), &pagev((i + 1) as u8, &f)).unwrap();
        }
        f.snapshot_create("db", Lpn(0), 16).unwrap();
        let before = f.stats();
        let mapped = f.snapshot_clone("db", 0, Lpn(100), 16).unwrap();
        assert_eq!(mapped, 16);
        let spent = f.stats().delta_since(&before);
        // Zero-copy: only mapping-log pages were programmed, no data pages.
        assert_eq!(spent.nand.page_programs, spent.meta_page_writes);
        assert!(spent.meta_page_writes >= 1, "clone deltas must be durably logged");
        assert_eq!(spent.snapshot_clone_pages, 16);
        // Clone reads the frozen content.
        for i in 0..16u64 {
            assert_eq!(read_byte(&mut f, Lpn(100 + i)), (i + 1) as u8);
        }
        // CoW: writing the clone diverges it without touching origin or
        // snapshot.
        f.write(Lpn(100), &pagev(200, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(100)), 200);
        assert_eq!(read_byte(&mut f, Lpn(0)), 1);
        let mut buf = vec![0u8; f.page_size()];
        f.snapshot_read("db", 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        // And writing the origin leaves the clone alone.
        f.write(Lpn(1), &pagev(201, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(101)), 2);
        f.check_invariants();
    }

    #[test]
    fn clone_window_and_holes() {
        let mut f = tiny();
        // Only even offsets mapped at freeze time.
        for i in (0..8u64).step_by(2) {
            f.write(Lpn(i), &pagev(5, &f)).unwrap();
        }
        f.snapshot_create("sparse", Lpn(0), 8).unwrap();
        // Pre-dirty the clone target so holes must actively unmap.
        for i in 0..4u64 {
            f.write(Lpn(50 + i), &pagev(99, &f)).unwrap();
        }
        // Window: offsets 2..6 (mapped at 2 and 4) onto 50..54.
        let mapped = f.snapshot_clone("sparse", 2, Lpn(50), 4).unwrap();
        assert_eq!(mapped, 2);
        assert_eq!(read_byte(&mut f, Lpn(50)), 5); // offset 2
        assert_eq!(read_byte(&mut f, Lpn(51)), 0); // hole (was 99)
        assert_eq!(read_byte(&mut f, Lpn(52)), 5); // offset 4
        assert_eq!(read_byte(&mut f, Lpn(53)), 0); // hole
        assert!(matches!(
            f.snapshot_clone("sparse", 6, Lpn(0), 4),
            Err(FtlError::InvalidBatch(_))
        ));
        f.check_invariants();
    }

    #[test]
    fn snapshot_pins_survive_gc_churn() {
        // Pinned pages must stay bit-stable across victim collection even
        // when nothing in the live map references them anymore. FIFO
        // victim selection guarantees the frozen blocks actually get
        // collected (greedy would keep preferring emptier churn blocks).
        let mut cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        cfg.gc_policy = crate::config::GcPolicy::Fifo;
        let mut f = Ftl::new(cfg);
        let logical = f.capacity_pages();
        // Interleave the to-be-frozen pages with churn pages so the frozen
        // blocks keep reclaimable garbage (a fully-pinned block is never a
        // victim — erasing it reclaims nothing).
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
            f.write(Lpn(32 + i), &pagev(0xEE, &f)).unwrap();
        }
        f.snapshot_create("pin", Lpn(0), 32).unwrap();
        // Kill the live references entirely, then churn hard enough to
        // collect every original block several times over.
        f.trim(Lpn(0), 32).unwrap();
        for round in 0..8u64 {
            for i in 32..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        let s = f.stats();
        assert!(s.gc_events > 0, "churn must trigger GC");
        assert!(
            s.snapshot_pinned_relocations > 0,
            "pinned-only pages must have been relocated at least once"
        );
        let mut buf = vec![0u8; f.page_size()];
        for off in 0..32u64 {
            f.snapshot_read("pin", off, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == (off % 251) as u8),
                "offset {off} corrupted by GC"
            );
        }
        f.check_invariants();
    }

    #[test]
    fn snapshot_pins_survive_pipelined_gc_churn() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_gc_budget(4, 2);
        let mut f = Ftl::new(cfg);
        let logical = f.capacity_pages();
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
            f.write(Lpn(32 + i), &pagev(0xEE, &f)).unwrap();
        }
        f.snapshot_create("pin", Lpn(0), 32).unwrap();
        f.trim(Lpn(0), 32).unwrap();
        for round in 0..8u64 {
            for i in 32..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        assert!(f.stats().gc_events > 0, "churn must trigger GC");
        let mut buf = vec![0u8; f.page_size()];
        for off in 0..32u64 {
            f.snapshot_read("pin", off, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == (off % 251) as u8),
                "offset {off} corrupted by pipelined GC"
            );
        }
        f.check_invariants();
    }

    #[test]
    fn snapshot_drop_releases_pins() {
        let mut f = tiny();
        for i in 0..16u64 {
            f.write(Lpn(i), &pagev(3, &f)).unwrap();
        }
        f.snapshot_create("tmp", Lpn(0), 16).unwrap();
        f.trim(Lpn(0), 16).unwrap();
        assert_eq!(f.snapshot_table().pinned_pages(), 16);
        f.snapshot_drop("tmp").unwrap();
        assert_eq!(f.snapshot_table().pinned_pages(), 0);
        assert_eq!(f.snapshot_drop("tmp"), Err(FtlError::SnapshotNotFound));
        let mut buf = vec![0u8; f.page_size()];
        assert_eq!(f.snapshot_read("tmp", 0, &mut buf), Err(FtlError::SnapshotNotFound));
        assert_eq!(f.stats().snapshot_drops, 1);
        // The freed space is genuinely reclaimable again.
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &vec![(round % 251) as u8; f.page_size()]).unwrap();
            }
        }
        f.check_invariants();
    }

    #[test]
    fn snapshots_survive_recovery() {
        // Checkpointed table + tagged-delta replay (relocations and
        // tombstones) must reconstruct the same frozen world after a
        // reopen.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        let mut f = Ftl::new(cfg.clone());
        for i in 0..24u64 {
            f.write(Lpn(i), &pagev((i + 10) as u8, &f)).unwrap();
        }
        f.snapshot_create("keep", Lpn(0), 16).unwrap();
        f.snapshot_create("doomed", Lpn(16), 8).unwrap();
        // Persist both, then mutate the table only via the delta log:
        // drop one snapshot and churn so GC relocates pinned pages.
        f.snapshot_persist().unwrap();
        f.snapshot_drop("doomed").unwrap();
        f.trim(Lpn(0), 16).unwrap();
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 24..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        f.flush().unwrap();
        let live_before = f.snapshot_table().count();
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        assert_eq!(f2.snapshot_table().count(), live_before);
        let list = f2.snapshot_list().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "keep");
        let mut buf = vec![0u8; f2.page_size()];
        for off in 0..16u64 {
            f2.snapshot_read("keep", off, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == (off + 10) as u8),
                "offset {off} diverged across recovery"
            );
        }
        // Ids keep advancing monotonically after recovery.
        let id = f2.snapshot_create("after", Lpn(0), 4).unwrap();
        assert!(id >= 2, "recovered next_id must not reuse dropped ids");
        f2.check_invariants();
    }

    #[test]
    fn snapshot_clone_survives_crash_after_log_flush() {
        // A clone's deltas commit atomically in the log; a crash right
        // after the command returns must preserve the whole clone.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        let mut f = Ftl::new(cfg.clone());
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(42, &f)).unwrap();
        }
        f.snapshot_create("src", Lpn(0), 8).unwrap();
        f.snapshot_persist().unwrap();
        f.snapshot_clone("src", 0, Lpn(200), 8).unwrap();
        // Crash: no flush/checkpoint after the clone.
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        for i in 0..8u64 {
            assert_eq!(read_byte(&mut f2, Lpn(200 + i)), 42, "clone page {i} lost");
        }
        f2.check_invariants();
    }

    #[test]
    fn unused_snapshot_path_is_bit_identical() {
        // Off-path guarantee: a device that never issues a snapshot
        // command keeps the empty-table fast paths — deterministic clock
        // and stats across identical runs, with every snapshot counter
        // still zero. (The recorded gc_pipeline goldens pin bit-identity
        // against the pre-snapshot implementation.)
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut a = Ftl::new(cfg.clone());
        let mut b = Ftl::new(cfg);
        mixed_workload(&mut a);
        mixed_workload(&mut b);
        assert_eq!(a.clock().now_ns(), b.clock().now_ns());
        assert_eq!(a.stats(), b.stats());
        let s = a.stats();
        assert_eq!(
            (s.snapshot_creates, s.snapshot_clones, s.snapshot_reads),
            (0, 0, 0),
            "mixed workload must not touch the snapshot path"
        );
        assert!(a.snapshot_table().is_empty());
    }

    #[test]
    fn snapshot_gauges_exported() {
        let mut f = tiny();
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(1, &f)).unwrap();
        }
        f.snapshot_create("g", Lpn(0), 8).unwrap();
        f.snapshot_clone("g", 0, Lpn(100), 8).unwrap();
        let mut buf = vec![0u8; f.page_size()];
        f.snapshot_read("g", 0, &mut buf).unwrap();
        let t = f.telemetry_snapshot().unwrap();
        assert_eq!(t.snapshots.live, 1);
        assert_eq!(t.snapshots.frozen_pages, 8);
        assert_eq!(t.snapshots.pinned_pages, 8);
        assert_eq!(t.snapshots.creates, 1);
        assert_eq!(t.snapshots.clones, 1);
        assert_eq!(t.snapshots.clone_pages, 8);
        assert_eq!(t.snapshots.reads, 1);
        let text = t.to_prometheus();
        assert!(text.contains("share_snapshots_live 1"));
        assert!(text.contains("share_snapshot_clone_pages_total 8"));
    }

    #[test]
    fn snapshot_wa_ledger_still_sums_exactly() {
        // The pinned invariant, under snapshot churn: every background
        // page program is blamed on exactly one stream, and the blamed
        // totals equal copyback_pages + meta_page_writes. FIFO selection
        // forces the pinned blocks through GC.
        let mut cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        cfg.gc_policy = crate::config::GcPolicy::Fifo;
        let mut f = Ftl::new(cfg);
        let logical = f.capacity_pages();
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
            f.write(Lpn(96 + i), &pagev(0xEE, &f)).unwrap();
        }
        f.snapshot_create("w", Lpn(0), 32).unwrap();
        f.snapshot_clone("w", 0, Lpn(64), 32).unwrap();
        f.trim(Lpn(0), 32).unwrap();
        // Half the clone dies too, leaving those frozen pages pinned-only.
        f.trim(Lpn(64), 16).unwrap();
        for round in 0..16u64 {
            for i in 96..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        f.snapshot_drop("w").unwrap();
        for round in 0..8u64 {
            for i in 96..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 7) as u8; f.page_size()]).unwrap();
            }
        }
        f.flush().unwrap();
        let s = f.stats();
        assert!(s.gc_events > 0 && s.snapshot_pinned_relocations > 0);
        let t = f.telemetry().snapshot();
        let bg_gc: u64 = t.wa.iter().map(|w| w.bg_gc).sum();
        let bg_log: u64 = t.wa.iter().map(|w| w.bg_log).sum();
        let bg_ckpt: u64 = t.wa.iter().map(|w| w.bg_ckpt).sum();
        assert_eq!(bg_gc, s.copyback_pages, "GC blame must sum to copyback pages");
        assert_eq!(
            bg_log + bg_ckpt,
            s.meta_page_writes,
            "log+ckpt blame must sum to meta page writes"
        );
        f.check_invariants();
    }
}
