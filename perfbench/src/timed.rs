//! A forwarding [`BlockDevice`] that times every command crossing the
//! device boundary, on both clocks.
//!
//! [`Timed`] wraps a device and forwards **every** trait method, the
//! defaulted ones included: a method left to its trait default would
//! silently change behaviour (the default `share_batch`, for instance,
//! chunks through `share` and pays one command overhead per chunk). Each
//! command is charged to one [`Cmd`] class with its call count, pages,
//! host wall time and simulated-clock advance. Queries that do no device
//! work (geometry, limits, stats, stream labels, telemetry handles) are
//! forwarded untimed.

use nand_sim::SimClock;
use share_core::telemetry::Snapshot;
use share_core::{
    BlockDevice, CmdTag, Completion, DeviceStats, FlightSnapshot, Ftl, FtlError, Lpn, QueuedCmd,
    SharePair, SnapshotInfo, Tracer,
};
use std::time::Instant;

/// Command class a device call is charged to. Batch forms fold into their
/// single-page class; `Complete` covers `poll`, `reap` and `drain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    Read,
    Write,
    Share,
    Flush,
    Trim,
    Submit,
    Complete,
    /// Snapshot commands other than `snapshot_read`; no workload sends
    /// them, but their time still counts as device time.
    Other,
}

impl Cmd {
    /// The classes reported as per-layer metrics, in report order.
    pub const REPORTED: [Cmd; 7] =
        [Cmd::Read, Cmd::Write, Cmd::Share, Cmd::Flush, Cmd::Trim, Cmd::Submit, Cmd::Complete];
}

/// Accumulated cost of one command class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    pub calls: u64,
    /// Pages moved (read/write/trim), pairs remapped (share), pages
    /// carried (submit) or completions reaped (complete).
    pub pages: u64,
    pub host_ns: u64,
    pub sim_ns: u64,
}

/// Per-class call costs of one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    by_cmd: [CallStat; 8],
}

impl Ledger {
    pub fn get(&self, cmd: Cmd) -> CallStat {
        self.by_cmd[cmd as usize]
    }

    /// Host time spent inside all device calls.
    pub fn host_ns(&self) -> u64 {
        self.by_cmd.iter().map(|s| s.host_ns).sum()
    }

    /// Class-wise difference `self - earlier`, for measurement windows.
    pub fn delta_since(&self, earlier: &Ledger) -> Ledger {
        let mut out = *self;
        for (o, e) in out.by_cmd.iter_mut().zip(&earlier.by_cmd) {
            o.calls -= e.calls;
            o.pages -= e.pages;
            o.host_ns -= e.host_ns;
            o.sim_ns -= e.sim_ns;
        }
        out
    }
}

/// A device the benchmark can drive: the bare FTL (tracing off) or the
/// FTL behind [`Timed`] (tracing on).
pub trait Probe: BlockDevice + Sized {
    fn wrap(ftl: Ftl) -> Self;
    /// Device-call costs so far; `None` when tracing is off.
    fn ledger(&self) -> Option<Ledger>;
}

impl Probe for Ftl {
    fn wrap(ftl: Ftl) -> Self {
        ftl
    }

    fn ledger(&self) -> Option<Ledger> {
        None
    }
}

impl Probe for Timed<Ftl> {
    fn wrap(ftl: Ftl) -> Self {
        Timed::new(ftl)
    }

    fn ledger(&self) -> Option<Ledger> {
        Some(self.ledger)
    }
}

/// The timing wrapper.
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    ledger: Ledger,
}

impl<D: BlockDevice> Timed<D> {
    pub fn new(inner: D) -> Self {
        Self { inner, ledger: Ledger::default() }
    }

    fn timed<T>(&mut self, cmd: Cmd, pages: usize, f: impl FnOnce(&mut D) -> T) -> T {
        let sim0 = self.inner.clock().now_ns();
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let host = t0.elapsed().as_nanos() as u64;
        let stat = &mut self.ledger.by_cmd[cmd as usize];
        stat.calls += 1;
        stat.pages += pages as u64;
        stat.host_ns += host;
        stat.sim_ns += self.inner.clock().now_ns().saturating_sub(sim0);
        out
    }

    fn completions(&mut self, f: impl FnOnce(&mut D) -> Vec<Completion>) -> Vec<Completion> {
        let out = self.timed(Cmd::Complete, 0, f);
        self.ledger.by_cmd[Cmd::Complete as usize].pages += out.len() as u64;
        out
    }
}

fn queued_pages(cmd: &QueuedCmd) -> usize {
    match cmd {
        QueuedCmd::Read { .. } | QueuedCmd::Write { .. } => 1,
        QueuedCmd::ReadBatch { lpns } => lpns.len(),
        QueuedCmd::WriteBatch { pages } | QueuedCmd::WriteAtomic { pages } => pages.len(),
        QueuedCmd::Share { pairs } | QueuedCmd::ShareBatch { pairs } => pairs.len(),
        QueuedCmd::Trim { len, .. } => *len as usize,
        QueuedCmd::Flush => 0,
    }
}

impl<D: BlockDevice> BlockDevice for Timed<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.timed(Cmd::Read, 1, |d| d.read(lpn, buf))
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.timed(Cmd::Write, 1, |d| d.write(lpn, data))
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        self.timed(Cmd::Flush, 0, |d| d.flush())
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.timed(Cmd::Trim, len as usize, |d| d.trim(lpn, len))
    }

    fn share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.timed(Cmd::Share, pairs.len(), |d| d.share(pairs))
    }

    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        self.timed(Cmd::Read, reqs.len(), |d| d.read_batch(reqs))
    }

    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.timed(Cmd::Write, pages.len(), |d| d.write_batch(pages))
    }

    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.timed(Cmd::Share, pairs.len(), |d| d.share_batch(pairs))
    }

    fn write_atomic(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.timed(Cmd::Write, pages.len(), |d| d.write_atomic(pages))
    }

    fn write_atomic_limit(&self) -> usize {
        self.inner.write_atomic_limit()
    }

    fn share_batch_limit(&self) -> usize {
        self.inner.share_batch_limit()
    }

    fn supports_share(&self) -> bool {
        self.inner.supports_share()
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }

    fn snapshot_create(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        self.timed(Cmd::Other, len as usize, |d| d.snapshot_create(name, start, len))
    }

    fn snapshot_drop(&mut self, name: &str) -> Result<(), FtlError> {
        self.timed(Cmd::Other, 0, |d| d.snapshot_drop(name))
    }

    fn snapshot_clone(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        self.timed(Cmd::Other, len as usize, |d| d.snapshot_clone(name, src_offset, dst, len))
    }

    fn snapshot_read(&mut self, name: &str, offset: u64, buf: &mut [u8]) -> Result<(), FtlError> {
        self.timed(Cmd::Read, 1, |d| d.snapshot_read(name, offset, buf))
    }

    fn snapshot_list(&self) -> Result<Vec<SnapshotInfo>, FtlError> {
        self.inner.snapshot_list()
    }

    fn snapshot_persist(&mut self) -> Result<(), FtlError> {
        self.timed(Cmd::Other, 0, |d| d.snapshot_persist())
    }

    fn supports_queue(&self) -> bool {
        self.inner.supports_queue()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn set_queue_depth(&mut self, depth: usize) {
        self.inner.set_queue_depth(depth)
    }

    fn submit(&mut self, cmd: QueuedCmd) -> Result<CmdTag, FtlError> {
        let pages = queued_pages(&cmd);
        self.timed(Cmd::Submit, pages, |d| d.submit(cmd))
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.completions(|d| d.poll())
    }

    fn reap(&mut self) -> Vec<Completion> {
        self.completions(|d| d.reap())
    }

    fn drain(&mut self) -> Vec<Completion> {
        self.completions(|d| d.drain())
    }

    fn inflight(&self) -> usize {
        self.inner.inflight()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn stream_intern(&mut self, label: &str) -> u32 {
        self.inner.stream_intern(label)
    }

    fn set_stream(&mut self, stream: u32) {
        self.inner.set_stream(stream)
    }

    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        self.inner.telemetry_snapshot()
    }

    fn monitor_snapshot(&self) -> Option<FlightSnapshot> {
        self.inner.monitor_snapshot()
    }

    fn tracer(&self) -> Tracer {
        self.inner.tracer()
    }
}
