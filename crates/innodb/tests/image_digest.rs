//! Byte-identity pins: the exact flash contents a seeded mixed workload
//! leaves behind, in every flush mode.
//!
//! The digests are FNV-1a over the data device's `NandArray::save_image`
//! (geometry, wear, page contents, clock, counters) and over every page of
//! the redo log device. A change to the page representation, the flush
//! path or the redo append path that moves a single byte written to either
//! device fails here; only a deliberate on-disk format change may
//! re-record them.

use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig};
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn};
use share_rng::{Rng, StdRng};

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Run the seeded workload in `mode` with `page_bytes` engine pages and
/// return (data image digest, log device digest).
fn run(mode: FlushMode, page_bytes: usize) -> (u64, u64) {
    let dev = Ftl::new(FtlConfig::for_capacity_with(24 << 20, 0.3, 4096, 32, NandTiming::zero()));
    let log = standard_log_device(dev.clock().clone());
    let cfg = InnoDbConfig {
        mode,
        page_bytes,
        pool_pages: 16,
        flush_batch: 8,
        max_pages: 2_048,
        ckpt_redo_bytes: 256 << 10,
        ..Default::default()
    };
    let mut db = InnoDb::create(dev, log, cfg).unwrap();
    let max_v = db.max_value_bytes();
    let mut rng = StdRng::seed_from_u64(0x5348_4152_4531_3400);
    for _ in 0..2_500 {
        let id = rng.random_range(0u64..400);
        let fill: u8 = rng.random();
        match rng.random_range(0..10u32) {
            0..=3 => {
                let len = rng.random_range(1usize..300);
                db.update_node(id, &vec![fill; len]).unwrap();
            }
            4 => {
                // Occasional large rows force multi-chunk splits.
                let len = rng.random_range(300..=max_v);
                db.update_node(id, &vec![fill; len]).unwrap();
            }
            5..=6 => {
                let len = rng.random_range(1usize..120);
                db.add_link(id % 40, 1, id, &vec![fill; len]).unwrap();
            }
            7 => {
                db.delete_link(id % 40, 1, id).unwrap();
            }
            8 => {
                db.delete_node(id).unwrap();
            }
            _ => {
                db.get_link_list(id % 40, 1).unwrap();
            }
        }
    }
    db.shutdown().unwrap();
    let (data, mut log) = db.into_devices();
    let mut image = Vec::new();
    data.nand().save_image(&mut image).unwrap();
    let mut data_h = FNV_OFFSET;
    fnv1a(&mut data_h, &image);
    let mut log_h = FNV_OFFSET;
    let mut page = vec![0u8; log.page_size()];
    for lpn in 0..log.capacity_pages() {
        log.read(Lpn(lpn), &mut page).unwrap();
        fnv1a(&mut log_h, &page);
    }
    (data_h, log_h)
}

fn check(mode: FlushMode, page_bytes: usize, want: (u64, u64)) {
    let got = run(mode, page_bytes);
    assert_eq!(
        got,
        want,
        "{} at {page_bytes} B: image digests (data, log) = ({:#018x}, {:#018x})",
        mode.label(),
        got.0,
        got.1
    );
}

#[test]
fn dwb_on_image_is_pinned() {
    check(FlushMode::DwbOn, 4096, (0xe101_9f95_f5f5_089b, 0xea2f_8fbb_9924_93ae));
}

#[test]
fn dwb_off_image_is_pinned() {
    check(FlushMode::DwbOff, 4096, (0xe933_331c_4cb9_b623, 0xea2f_8fbb_9924_93ae));
}

#[test]
fn share_image_is_pinned() {
    check(FlushMode::Share, 4096, (0x20b1_9f6a_9019_c57f, 0xea2f_8fbb_9924_93ae));
}

#[test]
fn atomic_write_image_is_pinned() {
    check(FlushMode::AtomicWrite, 4096, (0x65dc_5d69_7d98_805a, 0xea2f_8fbb_9924_93ae));
}

#[test]
fn share_8k_image_is_pinned() {
    check(FlushMode::Share, 8192, (0xe2d0_9a04_8278_98c3, 0xd555_c407_f0ba_c7ad));
}
