//! Benchmark self-tests: the timing wrapper changes nothing simulated,
//! seeds reach every generator, outputs check out, and the declared
//! metric names match BENCHMARK.json. Small sizes keep them quick.

use crate::linkbench::{self, LinkConfig};
use crate::report::{END_TO_END, PER_LAYER, TRACED_HOST_OPS};
use crate::sample::Sample;
use crate::storm::{self, StormConfig};
use crate::timed::{Cmd, Timed};
use crate::ycsb::{self, YcsbConfig};
use crate::WORKLOADS;
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, QueuedCmd, SharePair};

const STORM: StormConfig =
    StormConfig { pages: 2048, over_provision: 0.25, warm_passes: 4, passes: 3, connections: 16 };
const LINK: LinkConfig = LinkConfig {
    nodes: 2_000,
    links_per_node: 3,
    warmup_txns: 3_000,
    txns: 1_000,
    connections: 16,
    chunk_rounds: 16,
};
const YCSB: YcsbConfig =
    YcsbConfig { records: 1_000, ops: 2_000, batch_size: 16, connections: 16, chunk_rounds: 16 };

/// One small sample of each workload, bare or timed.
fn samples(seed: u64, traced: bool) -> Vec<Sample> {
    if traced {
        vec![
            linkbench::sample::<Timed<Ftl>>(&LINK, seed, true, true),
            ycsb::sample::<Timed<Ftl>>(&YCSB, seed, true, true),
            storm::sample::<Timed<Ftl>>(&STORM, seed, true, true),
        ]
    } else {
        vec![
            linkbench::sample::<Ftl>(&LINK, seed, false, true),
            ycsb::sample::<Ftl>(&YCSB, seed, false, true),
            storm::sample::<Ftl>(&STORM, seed, false, true),
        ]
    }
}

/// Everything simulated a sample produced.
fn simulated(s: &Sample) -> (u64, u64, u64, u64, Vec<u64>, String) {
    (s.fingerprint, s.ops, s.failed, s.sim_ns, s.lat_ns.clone(), format!("{:?}", s.dev))
}

#[test]
fn traced_and_untraced_runs_are_simulated_identically() {
    let bare = samples(7, false);
    let timed = samples(7, true);
    for (b, t) in bare.iter().zip(&timed) {
        assert_eq!(simulated(b), simulated(t));
        assert!(b.layers.is_empty(), "an untraced sample has no per-layer metrics");
        assert!(!t.layers.is_empty(), "a traced sample has per-layer metrics");
        for (name, _) in &t.layers {
            assert!(PER_LAYER.iter().any(|m| m.0 == *name), "{name} is not a declared metric");
        }
    }
}

#[test]
fn seed_fixes_every_simulated_metric_and_a_new_seed_moves_them() {
    let a = samples(11, false);
    let b = samples(11, false);
    let c = samples(12, false);
    for ((a, b), c) in a.iter().zip(&b).zip(&c) {
        assert_eq!(simulated(a), simulated(b));
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_ne!(a.dev, c.dev, "the op stream must depend on the seed");
    }
}

#[test]
fn every_workload_passes_its_shadow_model_check() {
    for s in samples(3, false) {
        assert_eq!(s.mismatches, Some(0));
        assert_eq!(s.failed, 0);
        assert_eq!(s.lat_ns.len() as u64, s.ops, "one latency per op");
        assert!(s.ops > 0 && s.sim_ns > 0 && !s.chunk_ns.is_empty());
    }
}

#[test]
fn timing_wrapper_forwards_defaulted_methods() {
    // The defaulted `share_batch` chunks through `share`, one command per
    // chunk; the FTL's own sends one command. Drive both devices through
    // every command family and demand identical state and timing.
    let cfg = || {
        FtlConfig::for_capacity_with(4 << 20, 0.25, 4096, 32, NandTiming::default())
            .with_parallelism(4, 1)
    };
    fn drive<D: BlockDevice>(d: &mut D) -> Vec<u8> {
        let page = vec![0x5a; 4096];
        let pages: Vec<(Lpn, &[u8])> = (0..8).map(|i| (Lpn(i), page.as_slice())).collect();
        d.write_batch(&pages).unwrap();
        d.write_atomic(&pages[..2]).unwrap();
        let limit = d.share_batch_limit();
        let pairs: Vec<SharePair> =
            (0..limit as u64 + 3).map(|i| SharePair::new(Lpn(100 + i), Lpn(i % 8))).collect();
        d.share_batch(&pairs).unwrap();
        d.snapshot_create("s", Lpn(0), 8).unwrap();
        let mut buf = vec![0u8; 4096];
        d.snapshot_read("s", 1, &mut buf).unwrap();
        d.snapshot_drop("s").unwrap();
        d.submit(QueuedCmd::Write { lpn: Lpn(9), data: page.clone() }).unwrap();
        d.submit(QueuedCmd::Read { lpn: Lpn(9) }).unwrap();
        assert_eq!(d.drain().len(), 2);
        d.trim(Lpn(3), 2).unwrap();
        d.flush().unwrap();
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        d.read_batch(&mut [(Lpn(100), a.as_mut_slice()), (Lpn(3), b.as_mut_slice())]).unwrap();
        [a, b, buf].concat()
    }
    let mut bare = Ftl::new(cfg());
    let mut timed = Timed::new(Ftl::new(cfg()));
    assert_eq!(drive(&mut bare), drive(&mut timed));
    assert_eq!(bare.stats(), timed.stats());
    assert_eq!(bare.clock().now_ns(), timed.clock().now_ns());
    assert_eq!(bare.share_batch_limit(), timed.share_batch_limit());
    assert_eq!(bare.write_atomic_limit(), timed.write_atomic_limit());
    assert_eq!(bare.queue_depth(), timed.queue_depth());
    let ledger = crate::timed::Probe::ledger(&timed).unwrap();
    assert_eq!(ledger.get(Cmd::Share).calls, 1, "share_batch is one command");
    assert_eq!(ledger.get(Cmd::Write).pages, 10);
    assert_eq!(ledger.get(Cmd::Read).calls, 2);
    assert_eq!(ledger.get(Cmd::Submit).calls, 2);
    assert_eq!(ledger.get(Cmd::Complete).pages, 2);
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    names.extend(PER_LAYER.iter().map(|m| m.0));
    names.push(TRACED_HOST_OPS.0);
    names.extend(WORKLOADS);
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json names a metric the benchmark does not print"
    );
}

#[test]
fn benchmark_writes_no_files() {
    // The experiment harness (share-bench) records into BENCH_share.json;
    // the benchmark must neither link it nor write any file itself.
    let dir = env!("CARGO_MANIFEST_DIR");
    let manifest = std::fs::read_to_string(format!("{dir}/Cargo.toml")).unwrap();
    assert!(!manifest.contains("share-bench"), "perfbench must not depend on share-bench");
    for entry in std::fs::read_dir(format!("{dir}/src")).unwrap() {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        for call in ["fs::write", "File::create", "OpenOptions", "create_dir"] {
            assert!(!src.contains(&format!("{call}(")), "{} calls {call}", path.display());
        }
    }
}
