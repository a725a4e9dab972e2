//! NAND image persistence: save/load the whole flash state to a byte
//! stream, so simulated devices survive process restarts (used by the
//! `sharectl` tool and by long-running experiment pipelines).
//!
//! Format (little-endian):
//!
//! ```text
//! magic "NSIM" | version u32 | page_size u64 | pages_per_block u32 |
//! blocks u32 | channels u32 | ways u32 (v2+) | clock_ns u64 |
//! stats (4 x u64) |
//! per block: erase_count u32, frontier u32, stream tag u32 (v3+) |
//! per page:  state u8 (0 free, 1 programmed, 2 torn) [+ content]
//! ```
//!
//! Version 1 images (pre-channel) load as a 1-channel, 1-way device.
//! Version 2 images (pre-placement) load with every block untagged —
//! i.e. as a single-stream device; the FTL treats untagged blocks as the
//! default lifetime class on recovery.

use crate::array::{NandArray, PageState, UNTAGGED};
use crate::clock::SimClock;
use crate::geometry::{BlockId, NandGeometry, NandTiming, Ppn};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"NSIM";
const VERSION: u32 = 3;

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl NandArray {
    /// Serialize the full flash state (geometry, wear, frontiers, page
    /// contents, clock, counters) into `w`.
    pub fn save_image(&self, w: &mut impl Write) -> io::Result<()> {
        let g = self.geometry();
        w.write_all(MAGIC)?;
        put_u32(w, VERSION)?;
        put_u64(w, g.page_size as u64)?;
        put_u32(w, g.pages_per_block)?;
        put_u32(w, g.blocks)?;
        put_u32(w, g.channels)?;
        put_u32(w, g.ways)?;
        put_u64(w, self.clock().now_ns())?;
        let s = self.stats();
        put_u64(w, s.page_reads)?;
        put_u64(w, s.page_programs)?;
        put_u64(w, s.block_erases)?;
        put_u64(w, s.torn_programs)?;
        for b in 0..g.blocks {
            put_u32(w, self.erase_count(BlockId(b)))?;
            put_u32(w, self.write_frontier(BlockId(b)))?;
            put_u32(w, self.block_tag(BlockId(b)))?;
        }
        for p in 0..g.total_pages() {
            let ppn = Ppn(p);
            match self.page_state(ppn) {
                PageState::Free => w.write_all(&[0u8])?,
                state => {
                    w.write_all(&[if state == PageState::Torn { 2u8 } else { 1 }])?;
                    w.write_all(self.raw_page(ppn).expect("programmed page has content"))?;
                }
            }
        }
        Ok(())
    }

    /// Reconstruct an array from [`NandArray::save_image`] output. The
    /// timing model is supplied by the caller (it is configuration, not
    /// state).
    pub fn load_image(r: &mut impl Read, timing: NandTiming) -> io::Result<NandArray> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a NAND image"));
        }
        let version = get_u32(r)?;
        if !(1..=VERSION).contains(&version) {
            return Err(bad("unsupported NAND image version"));
        }
        let page_size = get_u64(r)? as usize;
        let pages_per_block = get_u32(r)?;
        let blocks = get_u32(r)?;
        let (channels, ways) = if version >= 2 { (get_u32(r)?, get_u32(r)?) } else { (1, 1) };
        if !page_size.is_power_of_two() || pages_per_block == 0 || blocks == 0 {
            return Err(bad("corrupt geometry"));
        }
        if channels == 0 || ways == 0 {
            return Err(bad("corrupt parallelism"));
        }
        let geometry = NandGeometry::new(page_size, pages_per_block, blocks)
            .with_parallelism(channels, ways);
        let clock = SimClock::new();
        clock.advance(get_u64(r)?);
        let stats = crate::stats::NandStats {
            page_reads: get_u64(r)?,
            page_programs: get_u64(r)?,
            block_erases: get_u64(r)?,
            torn_programs: get_u64(r)?,
        };
        let mut erase_counts = Vec::with_capacity(blocks as usize);
        let mut frontiers = Vec::with_capacity(blocks as usize);
        let mut tags = Vec::with_capacity(blocks as usize);
        for _ in 0..blocks {
            erase_counts.push(get_u32(r)?);
            frontiers.push(get_u32(r)?);
            tags.push(if version >= 3 { get_u32(r)? } else { UNTAGGED });
        }
        let mut pages = Vec::with_capacity(geometry.total_pages() as usize);
        let mut torn = Vec::with_capacity(geometry.total_pages() as usize);
        let mut tag = [0u8; 1];
        for _ in 0..geometry.total_pages() {
            r.read_exact(&mut tag)?;
            match tag[0] {
                0 => {
                    pages.push(None);
                    torn.push(false);
                }
                t @ (1 | 2) => {
                    let mut content = vec![0u8; page_size];
                    r.read_exact(&mut content)?;
                    pages.push(Some(content.into_boxed_slice()));
                    torn.push(t == 2);
                }
                _ => return Err(bad("corrupt page tag")),
            }
        }
        NandArray::from_parts(
            geometry,
            timing,
            clock,
            pages,
            torn,
            frontiers,
            erase_counts,
            tags,
            stats,
        )
        .map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMode;

    fn build() -> NandArray {
        let mut nand = NandArray::new(NandGeometry::new(512, 4, 6));
        for i in 0..7u32 {
            nand.program(Ppn(i), &vec![i as u8; 512]).unwrap();
        }
        nand.erase(BlockId(0)).unwrap();
        nand.program(Ppn(0), &vec![0xEE; 512]).unwrap();
        // Leave one torn page behind.
        nand.fault_handle().arm_after_programs(1, FaultMode::TornHalf);
        let _ = nand.program(Ppn(1), &vec![0xDD; 512]);
        nand.power_cycle();
        nand
    }

    #[test]
    fn image_round_trips_everything() {
        let nand = build();
        let mut buf = Vec::new();
        nand.save_image(&mut buf).unwrap();
        let mut loaded = NandArray::load_image(&mut buf.as_slice(), NandTiming::default()).unwrap();
        assert_eq!(loaded.geometry(), nand.geometry());
        assert_eq!(loaded.stats(), nand.stats());
        assert_eq!(loaded.clock().now_ns(), nand.clock().now_ns());
        for b in 0..6 {
            assert_eq!(loaded.erase_count(BlockId(b)), nand.erase_count(BlockId(b)));
            assert_eq!(loaded.write_frontier(BlockId(b)), nand.write_frontier(BlockId(b)));
        }
        for p in 0..24u32 {
            assert_eq!(loaded.page_state(Ppn(p)), nand.page_state(Ppn(p)), "page {p}");
        }
        let mut got = vec![0u8; 512];
        loaded.read(Ppn(0), &mut got).unwrap();
        assert!(got.iter().all(|&b| b == 0xEE));
        // Programming constraints still enforced after a load.
        assert!(loaded.program(Ppn(0), &vec![1; 512]).is_err());
    }

    #[test]
    fn image_round_trips_parallel_geometry() {
        let g = NandGeometry::new(512, 4, 8).with_parallelism(4, 2);
        let mut nand = NandArray::with_timing(g, NandTiming::default(), SimClock::new());
        nand.program(Ppn(0), &vec![0x11; 512]).unwrap();
        let mut buf = Vec::new();
        nand.save_image(&mut buf).unwrap();
        let loaded = NandArray::load_image(&mut buf.as_slice(), NandTiming::default()).unwrap();
        assert_eq!(loaded.geometry(), g);
        assert_eq!(loaded.geometry().units(), 8);
    }

    #[test]
    fn image_v3_round_trips_block_tags() {
        let mut nand = build();
        nand.set_block_tag(BlockId(0), 1);
        nand.set_block_tag(BlockId(2), 0);
        nand.set_block_tag(BlockId(4), 2);
        let mut buf = Vec::new();
        nand.save_image(&mut buf).unwrap();
        let loaded = NandArray::load_image(&mut buf.as_slice(), NandTiming::default()).unwrap();
        for b in 0..6 {
            assert_eq!(loaded.block_tag(BlockId(b)), nand.block_tag(BlockId(b)), "block {b}");
        }
        assert_eq!(loaded.block_tag(BlockId(1)), UNTAGGED);
    }

    /// Hand-encode the version-2 layout (no per-block tag field) and load
    /// it: a pre-placement image must come up as a single-stream device —
    /// every block untagged — with all other state intact.
    #[test]
    fn v2_image_loads_as_single_stream() {
        let nand = build();
        let g = nand.geometry();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&(g.page_size as u64).to_le_bytes());
        buf.extend_from_slice(&g.pages_per_block.to_le_bytes());
        buf.extend_from_slice(&g.blocks.to_le_bytes());
        buf.extend_from_slice(&g.channels.to_le_bytes());
        buf.extend_from_slice(&g.ways.to_le_bytes());
        buf.extend_from_slice(&nand.clock().now_ns().to_le_bytes());
        let s = nand.stats();
        for v in [s.page_reads, s.page_programs, s.block_erases, s.torn_programs] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for b in 0..g.blocks {
            buf.extend_from_slice(&nand.erase_count(BlockId(b)).to_le_bytes());
            buf.extend_from_slice(&nand.write_frontier(BlockId(b)).to_le_bytes());
        }
        for p in 0..g.total_pages() {
            let ppn = Ppn(p);
            match nand.page_state(ppn) {
                PageState::Free => buf.push(0),
                state => {
                    buf.push(if state == PageState::Torn { 2 } else { 1 });
                    buf.extend_from_slice(nand.raw_page(ppn).unwrap());
                }
            }
        }
        let loaded = NandArray::load_image(&mut buf.as_slice(), NandTiming::default()).unwrap();
        assert_eq!(loaded.geometry(), g);
        assert_eq!(loaded.stats(), s);
        for b in 0..g.blocks {
            assert_eq!(loaded.block_tag(BlockId(b)), UNTAGGED, "block {b}");
            assert_eq!(loaded.write_frontier(BlockId(b)), nand.write_frontier(BlockId(b)));
        }
        for p in 0..g.total_pages() {
            assert_eq!(loaded.page_state(Ppn(p)), nand.page_state(Ppn(p)), "page {p}");
        }
        // Re-saving upgrades in place: the round trip through v3 keeps
        // the untagged marking.
        let mut buf3 = Vec::new();
        loaded.save_image(&mut buf3).unwrap();
        let again = NandArray::load_image(&mut buf3.as_slice(), NandTiming::default()).unwrap();
        assert_eq!(again.block_tag(BlockId(0)), UNTAGGED);
    }

    #[test]
    fn erase_clears_the_block_tag() {
        let mut nand = build();
        nand.set_block_tag(BlockId(1), 2);
        assert_eq!(nand.block_tag(BlockId(1)), 2);
        nand.erase(BlockId(1)).unwrap();
        assert_eq!(nand.block_tag(BlockId(1)), UNTAGGED);
    }

    #[test]
    fn truncated_and_corrupt_images_are_rejected() {
        let nand = build();
        let mut buf = Vec::new();
        nand.save_image(&mut buf).unwrap();
        assert!(NandArray::load_image(&mut &buf[..buf.len() / 2], NandTiming::default()).is_err());
        let mut junk = buf.clone();
        junk[0] = b'X';
        assert!(NandArray::load_image(&mut junk.as_slice(), NandTiming::default()).is_err());

        // Block 0 holds a programmed page 0 and a torn page 1 (frontier
        // 2). Rewrite its frontier so the pages disagree with it: a page
        // with data at or above the frontier, an erased page below it,
        // and a frontier past the end of the block.
        let frontier_at = 72 + 4; // header, then block 0's erase count
        assert_eq!(buf[frontier_at..frontier_at + 4], 2u32.to_le_bytes());
        for (frontier, what) in [(1u32, "data above"), (3, "erased below"), (5, "past the block")] {
            let mut bad = buf.clone();
            bad[frontier_at..frontier_at + 4].copy_from_slice(&frontier.to_le_bytes());
            let err = NandArray::load_image(&mut bad.as_slice(), NandTiming::default())
                .expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }
}
