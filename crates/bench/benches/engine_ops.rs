//! Micro-benchmarks of the two storage engines' hot paths (in-repo timing
//! harness; see `share_bench::timing`).

use mini_couch::{CouchConfig, CouchMode, CouchStore};
use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig, Key, NodePage};
use nand_sim::NandTiming;
use share_bench::timing::Group;
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_vfs::{Vfs, VfsOptions};
use std::hint::black_box;

fn innodb(mode: FlushMode) -> InnoDb<Ftl> {
    let fcfg = FtlConfig::for_capacity_with(32 << 20, 0.25, 4096, 64, NandTiming::zero());
    let dev = Ftl::new(fcfg);
    let log = standard_log_device(dev.clock().clone());
    let cfg = InnoDbConfig { mode, pool_pages: 256, max_pages: 6000, ..Default::default() };
    InnoDb::create(dev, log, cfg).unwrap()
}

fn bench_innodb(g: &mut Group) {
    g.sample_size(30).throughput_elements(1);
    // One full 4 KiB leaf: 25 LinkBench-sized rows of 130 bytes.
    let mut leaf = NodePage::new(7, 0);
    for i in 0..25u64 {
        leaf.upsert(Key::link(1, 0, i), &[i as u8; 130]);
    }
    let img = leaf.encode(4096);
    // The engine's load path: decode into the buffers of an evicted page.
    let mut spare = Some(NodePage::new(0, 0));
    g.bench_function("page_decode_4k", || {
        let p = NodePage::decode_reusing(black_box(&img), spare.take().unwrap()).unwrap();
        spare = Some(black_box(p));
    });
    g.bench_function("page_encode_4k", || {
        black_box(black_box(&leaf).encode(4096));
    });
    for mode in [FlushMode::DwbOn, FlushMode::Share] {
        let mut db = innodb(mode);
        for i in 0..5_000u64 {
            db.update_node(i, &[1u8; 64]).unwrap();
        }
        let mut i = 0u64;
        g.bench_function(format!("update_node_{}", mode.label()), || {
            db.update_node(black_box(i % 5_000), &[2u8; 64]).unwrap();
            i += 1;
        });
    }
    {
        let mut db = innodb(FlushMode::Share);
        for i in 0..1_000u64 {
            db.update_node(i, &[1u8; 64]).unwrap();
        }
        let mut i = 0u64;
        g.bench_function("get_node_cached", || {
            black_box(db.get_node(i % 1_000).unwrap());
            i += 1;
        });
    }
}

fn bench_couch(g: &mut Group) {
    g.sample_size(10).throughput_elements(200);
    for mode in [CouchMode::Original, CouchMode::Share] {
        g.bench_batched(
            format!("save_{}", mode.label()),
            || {
                let fcfg =
                    FtlConfig::for_capacity_with(64 << 20, 0.2, 4096, 128, NandTiming::zero());
                let fs = Vfs::format(Ftl::new(fcfg), VfsOptions::default()).unwrap();
                let mut s = CouchStore::create(
                    fs,
                    "bench.couch",
                    CouchConfig { mode, batch_size: 1, node_max_entries: 22, ..Default::default() },
                )
                .unwrap();
                for k in 0..500u64 {
                    s.save(k, &[1u8; 1000]).unwrap();
                }
                s
            },
            |mut s| {
                for k in 0..200u64 {
                    s.save(k, black_box(&[2u8; 1000])).unwrap();
                }
                s // dropped outside the timed region
            },
        );
    }
}

fn main() {
    share_bench::timing::main_with(
        "engine_ops",
        &mut [("innodb", &mut bench_innodb), ("couch", &mut bench_couch)],
    );
}
