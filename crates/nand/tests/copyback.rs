//! On-die copyback equivalence: moving pages with `copyback_read` +
//! `copyback_program` must leave the array in exactly the state the host
//! round trip (`read_batch` into buffers, then `program_batch` from them)
//! leaves — same clock, counters, unit busy time, trace leaves, page
//! contents and image bytes — with and without an injected fault at any
//! position of the copyback batch.

use nand_sim::{
    BlockId, FaultMode, NandArray, NandError, NandGeometry, NandTiming, PageState, Ppn, SimClock,
};
use share_rng::{Rng, StdRng};
use share_telemetry::Tracer;

const PS: usize = 512;
const PPB: u32 = 8;
const BLOCKS: u32 = 16;

fn geometry() -> NandGeometry {
    NandGeometry::new(PS, PPB, BLOCKS).with_parallelism(4, 2)
}

/// The same operations applied to two arrays that differ only in how
/// they relocate pages.
struct Pair {
    host: NandArray,
    die: NandArray,
    tracers: [Tracer; 2],
}

impl Pair {
    fn new() -> Self {
        let mk = |t: &Tracer| {
            let mut a = NandArray::with_timing(geometry(), NandTiming::default(), SimClock::new());
            a.set_tracer(t.clone());
            a
        };
        let tracers = [Tracer::enabled(), Tracer::enabled()];
        Pair { host: mk(&tracers[0]), die: mk(&tracers[1]), tracers }
    }

    /// Apply `op` to both arrays; both must return the same outcome.
    fn both(
        &mut self,
        op: impl Fn(&mut NandArray) -> Result<(), NandError>,
    ) -> Result<(), NandError> {
        let a = op(&mut self.host);
        let b = op(&mut self.die);
        assert_eq!(a, b, "outcomes diverged");
        a
    }

    /// Move `moves` (src, dst) through the host on one array and through
    /// on-die copyback on the other.
    fn relocate(&mut self, moves: &[(Ppn, Ppn)]) -> Result<(), NandError> {
        let mut bufs = vec![vec![0u8; PS]; moves.len()];
        let mut reads: Vec<(Ppn, &mut [u8])> =
            moves.iter().zip(bufs.iter_mut()).map(|(&(s, _), b)| (s, b.as_mut_slice())).collect();
        let a = self.host.read_batch(&mut reads).and_then(|()| {
            let programs: Vec<(Ppn, &[u8])> =
                moves.iter().zip(&bufs).map(|(&(_, d), b)| (d, b.as_slice())).collect();
            self.host.program_batch(&programs)
        });
        let srcs: Vec<Ppn> = moves.iter().map(|&(s, _)| s).collect();
        let b = self.die.copyback_read(&srcs).and_then(|()| self.die.copyback_program(moves));
        assert_eq!(a, b, "relocation outcomes diverged");
        a
    }

    fn power_cycle(&mut self) {
        self.host.power_cycle();
        self.die.power_cycle();
    }

    /// Everything observable must match.
    fn assert_same(&mut self, ctx: &str) {
        let (h, d) = (&mut self.host, &mut self.die);
        assert_eq!(h.now_ns(), d.now_ns(), "{ctx}: clock");
        assert_eq!(h.stats(), d.stats(), "{ctx}: NandStats");
        assert_eq!(h.busy_ns(), d.busy_ns(), "{ctx}: busy_ns");
        assert_eq!(h.is_down(), d.is_down(), "{ctx}: down");
        assert_eq!(
            h.fault_handle().programs_seen(),
            d.fault_handle().programs_seen(),
            "{ctx}: program attempts"
        );
        assert_eq!(self.tracers[0].spans(), self.tracers[1].spans(), "{ctx}: trace leaves");
        for b in 0..BLOCKS {
            let b = BlockId(b);
            assert_eq!(h.write_frontier(b), d.write_frontier(b), "{ctx}: frontier {b:?}");
        }
        for p in 0..geometry().total_pages() {
            assert_eq!(h.page_state(Ppn(p)), d.page_state(Ppn(p)), "{ctx}: state of page {p}");
        }
        let (mut hi, mut di) = (Vec::new(), Vec::new());
        h.save_image(&mut hi).unwrap();
        d.save_image(&mut di).unwrap();
        assert!(hi == di, "{ctx}: image bytes differ");
        if !h.is_down() {
            // Contents read back through the timed path too (both arrays
            // pay the same reads, so they stay in lockstep).
            let (mut hb, mut db) = (vec![0u8; PS], vec![0u8; PS]);
            for p in 0..geometry().total_pages() {
                h.read(Ppn(p), &mut hb).unwrap();
                d.read(Ppn(p), &mut db).unwrap();
                assert!(hb == db, "{ctx}: contents of page {p}");
            }
        }
    }
}

fn ppn(block: u32, idx: u32) -> Ppn {
    Ppn(block * PPB + idx)
}

/// Program `n` pages of random bytes at `block`'s frontier on both arrays.
fn fill(pair: &mut Pair, rng: &mut StdRng, block: u32, n: u32) -> Result<(), NandError> {
    let start = pair.host.write_frontier(BlockId(block));
    let data: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            let mut d = vec![0u8; PS];
            rng.fill(&mut d);
            d
        })
        .collect();
    pair.both(|a| {
        let reqs: Vec<(Ppn, &[u8])> = data
            .iter()
            .enumerate()
            .map(|(i, d)| (ppn(block, start + i as u32), d.as_slice()))
            .collect();
        a.program_batch(&reqs)
    })
}

/// A GC-shaped scenario: age a few blocks, then repeatedly copy a random
/// subset of a victim's pages (occasionally an erased one) to the
/// frontier of a destination block and erase the victim, interleaved with
/// host programs that reuse recycled buffers. Returns the pair, the moves
/// of one more relocation (not yet performed, for fault tests) and the
/// generator.
fn scenario(seed: u64, rounds: usize) -> (Pair, Vec<(Ppn, Ppn)>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pair = Pair::new();
    for b in 0..6 {
        fill(&mut pair, &mut rng, b, PPB).unwrap();
    }
    fill(&mut pair, &mut rng, 6, PPB / 2).unwrap();
    pair.assert_same("aged");
    // Blocks holding data (victim candidates), erased blocks, and the
    // open destination block.
    let mut used: Vec<u32> = (0..7).collect();
    let mut erased: Vec<u32> = (8..BLOCKS).collect();
    let mut dest = 7;
    for round in 0..rounds {
        let victim = used.swap_remove(rng.random_range(0..used.len()));
        let moves = plan(&mut rng, &pair, victim, &mut dest, &mut erased, &mut used);
        let background = round % 3 == 2;
        let saved = background.then(|| (pair.host.begin_background(), pair.die.begin_background()));
        pair.relocate(&moves).unwrap();
        if let Some((h, d)) = saved {
            assert_eq!(pair.host.end_background(h), pair.die.end_background(d));
        }
        pair.assert_same(&format!("round {round} relocate"));
        pair.both(|a| a.erase(BlockId(victim))).unwrap();
        erased.push(victim);
        // A host program into a fresh block takes recycled buffers.
        if erased.len() > 3 {
            let b = erased.remove(0);
            let n = rng.random_range(1..=PPB);
            fill(&mut pair, &mut rng, b, n).unwrap();
            used.push(b);
            pair.assert_same(&format!("round {round} host fill"));
        }
    }
    let victim = used.swap_remove(0);
    let moves = plan(&mut rng, &pair, victim, &mut dest, &mut erased, &mut used);
    (pair, moves, rng)
}

/// Pick the victim's pages to move (each kept with probability 3/4, plus
/// occasionally one page of an erased block) and destinations at the
/// destination block's frontier, opening erased blocks as it fills. A
/// partly programmed victim contributes erased pages too.
fn plan(
    rng: &mut StdRng,
    pair: &Pair,
    victim: u32,
    dest: &mut u32,
    erased: &mut Vec<u32>,
    used: &mut Vec<u32>,
) -> Vec<(Ppn, Ppn)> {
    let mut srcs: Vec<Ppn> =
        (0..PPB).map(|i| ppn(victim, i)).filter(|_| rng.random_range(0..4) != 0).collect();
    if rng.random_range(0..4) == 0 {
        // The last erased block: destinations open from the front.
        srcs.push(ppn(*erased.last().unwrap(), PPB - 1));
    }
    let mut next = pair.host.write_frontier(BlockId(*dest));
    let mut moves = Vec::new();
    for s in srcs {
        if next == PPB {
            used.push(*dest);
            *dest = erased.remove(0);
            next = 0;
        }
        moves.push((s, ppn(*dest, next)));
        next += 1;
    }
    moves
}

#[test]
fn copyback_matches_the_host_round_trip() {
    for seed in 1..=8 {
        let (mut pair, moves, _) = scenario(seed, 12);
        pair.relocate(&moves).unwrap();
        pair.assert_same(&format!("seed {seed} final"));
    }
}

#[test]
fn copyback_matches_the_host_round_trip_under_every_fault() {
    for seed in [11u64, 12, 13] {
        let len = scenario(seed, 4).1.len();
        assert!(len >= 3, "seed {seed}: want a batch with several moves");
        for mode in FaultMode::ALL {
            for pos in 1..=len as u64 {
                let ctx = format!("seed {seed} {} at program {pos}/{len}", mode.label());
                let (mut pair, moves, mut rng) = scenario(seed, 4);
                pair.host.fault_handle().arm_after_programs(pos, mode);
                pair.die.fault_handle().arm_after_programs(pos, mode);
                assert_eq!(pair.relocate(&moves), Err(NandError::PowerLoss), "{ctx}");
                pair.assert_same(&format!("{ctx}: down"));
                pair.power_cycle();
                pair.assert_same(&format!("{ctx}: after power cycle"));
                let (src, dst) = moves[pos as usize - 1];
                let want = match mode {
                    FaultMode::TornHalf => PageState::Torn,
                    FaultMode::DroppedWrite => PageState::Free,
                    FaultMode::AfterProgram => PageState::Programmed,
                };
                assert_eq!(pair.die.page_state(dst), want, "{ctx}");
                // Recovery erases the victim and the medium keeps going:
                // the landed destinations must not depend on the source.
                let victim = geometry().block_of(src);
                pair.both(|a| a.erase(victim)).unwrap();
                fill(&mut pair, &mut rng, victim.0, PPB).unwrap();
                pair.assert_same(&format!("{ctx}: victim erased and refilled"));
            }
        }
    }
}

#[test]
fn copyback_checks_addresses_like_a_program() {
    let mut a = NandArray::with_timing(geometry(), NandTiming::default(), SimClock::new());
    a.program(Ppn(0), &[1u8; PS]).unwrap();
    let total = geometry().total_pages();
    assert!(matches!(a.copyback_read(&[Ppn(total)]), Err(NandError::OutOfRange { .. })));
    assert!(matches!(
        a.copyback_program(&[(Ppn(total), ppn(1, 0))]),
        Err(NandError::OutOfRange { .. })
    ));
    assert_eq!(a.copyback_program(&[(Ppn(0), Ppn(0))]), Err(NandError::ProgramOnDirtyPage(Ppn(0))));
    assert_eq!(
        a.copyback_program(&[(Ppn(0), ppn(1, 1))]),
        Err(NandError::OutOfOrderProgram { ppn: ppn(1, 1), expected_index: 0 })
    );
    assert_eq!(a.stats().page_programs, 1, "rejected copybacks program nothing");
}
