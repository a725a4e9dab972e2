//! On-disk page format of the clustered index.
//!
//! A resident [`NodePage`] keeps its entries in the on-disk layout: the
//! packed, key-sorted `[key 24][vlen 2][value]` run that follows the
//! 32-byte header in the page image, plus a `u16` slot directory of entry
//! offsets. Loading a page is one bounds-checked pass over the image and
//! one copy; flushing it is the header, one copy and a CRC-32C checksum
//! over the whole page. A torn write — the failure mode double-write
//! protects against — is detected as a checksum mismatch at decode time.

use crate::key::Key;
use share_core::crc32c;

/// Bytes of the fixed page header:
/// `checksum:4 | page_no:8 | lsn:8 | level:2 | count:2 | next:8`.
pub const PAGE_HEADER: usize = 32;

/// Per-entry overhead on disk: 24-byte key + 2-byte value length.
pub const ENTRY_OVERHEAD: usize = 26;

/// Largest page the format addresses: slot offsets are `u16`.
pub const MAX_PAGE_BYTES: usize = 1 << 16;

/// Sentinel for "no next leaf".
pub const NO_PAGE: u64 = u64::MAX;

/// Bytes of an internal-node value (a child page number).
pub(crate) const CHILD_BYTES: usize = 8;

/// Why a page image failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageDecodeError {
    /// Checksum mismatch: a torn or partially written page.
    BadChecksum { page_no_field: u64 },
    /// The image is structurally impossible (counts/lengths out of range,
    /// keys out of order, a child pointer of the wrong size).
    Malformed(&'static str),
    /// All zeros: the page was never written.
    Empty,
}

/// A B+tree node, its entries held in their on-disk layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePage {
    /// Page number within the tablespace.
    pub page_no: u64,
    /// LSN of the last redo record applied to this page.
    pub lsn: u64,
    /// Tree level: 0 = leaf, >0 = internal.
    pub level: u16,
    /// Next leaf in key order (leaf chain), or [`NO_PAGE`].
    pub next: u64,
    /// Packed entries `[key 24][vlen 2][value]` in strictly ascending key
    /// order, byte for byte as they follow the header on disk. Internal
    /// nodes store an 8-byte child page number as the value.
    body: Vec<u8>,
    /// Offset of each entry in `body`, in key order.
    slots: Vec<u16>,
}

impl NodePage {
    /// A fresh empty node.
    pub fn new(page_no: u64, level: u16) -> Self {
        Self { page_no, lsn: 0, level, next: NO_PAGE, body: Vec::new(), slots: Vec::new() }
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes this node occupies when encoded.
    pub fn bytes_used(&self) -> usize {
        PAGE_HEADER + self.body.len()
    }

    /// Whether inserting a value of `vlen` bytes would exceed `page_bytes`.
    pub fn would_overflow(&self, vlen: usize, page_bytes: usize) -> bool {
        self.bytes_used() + ENTRY_OVERHEAD + vlen > page_bytes
    }

    fn vlen_at(&self, off: usize) -> usize {
        u16::from_le_bytes([self.body[off + 24], self.body[off + 25]]) as usize
    }

    /// Key of entry `idx`.
    pub fn key_at(&self, idx: usize) -> Key {
        let off = self.slots[idx] as usize;
        Key(self.body[off..off + 24].try_into().expect("24-byte key"))
    }

    /// Value of entry `idx`.
    pub fn value_at(&self, idx: usize) -> &[u8] {
        let off = self.slots[idx] as usize;
        &self.body[off + ENTRY_OVERHEAD..off + ENTRY_OVERHEAD + self.vlen_at(off)]
    }

    /// Binary-search for `key`; `Ok(i)` = exact hit, `Err(i)` = insert slot.
    pub fn find(&self, key: &Key) -> Result<usize, usize> {
        self.slots.binary_search_by(|&off| {
            let off = off as usize;
            self.body[off..off + 24].cmp(&key.0[..])
        })
    }

    /// Point lookup.
    pub fn get(&self, key: &Key) -> Option<&[u8]> {
        self.find(key).ok().map(|i| self.value_at(i))
    }

    /// Resize `body[at..at + old]` to `new` bytes, moving everything after
    /// it. The resized range's contents are left for the caller to fill.
    fn resize_range(&mut self, at: usize, old: usize, new: usize) {
        let end = self.body.len();
        if new > old {
            assert!(end + new - old <= MAX_PAGE_BYTES, "node outgrew a 64 KiB page");
            self.body.resize(end + new - old, 0);
            self.body.copy_within(at + old..end, at + new);
        } else if new < old {
            self.body.copy_within(at + old..end, at + new);
            self.body.truncate(end - (old - new));
        }
    }

    /// Move the offsets of entries `from..` by `delta` bytes.
    fn shift_slots(&mut self, from: usize, delta: isize) {
        // Offsets stay in 0..MAX_PAGE_BYTES, so modular u16 arithmetic is exact.
        let d = delta as u16;
        for s in &mut self.slots[from..] {
            *s = s.wrapping_add(d);
        }
    }

    /// Insert or replace; returns whether `key` was already present.
    pub fn upsert(&mut self, key: Key, value: &[u8]) -> bool {
        let vlen = (value.len() as u16).to_le_bytes();
        match self.find(&key) {
            Ok(i) => {
                let off = self.slots[i] as usize;
                let old = self.vlen_at(off);
                self.resize_range(off + ENTRY_OVERHEAD, old, value.len());
                self.body[off + 24..off + 26].copy_from_slice(&vlen);
                self.body[off + ENTRY_OVERHEAD..off + ENTRY_OVERHEAD + value.len()]
                    .copy_from_slice(value);
                self.shift_slots(i + 1, value.len() as isize - old as isize);
                true
            }
            Err(i) => {
                let off = self.slots.get(i).map_or(self.body.len(), |&o| o as usize);
                let len = ENTRY_OVERHEAD + value.len();
                self.resize_range(off, 0, len);
                self.body[off..off + 24].copy_from_slice(&key.0);
                self.body[off + 24..off + 26].copy_from_slice(&vlen);
                self.body[off + ENTRY_OVERHEAD..off + len].copy_from_slice(value);
                self.slots.insert(i, off as u16);
                self.shift_slots(i + 1, len as isize);
                false
            }
        }
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&mut self, key: &Key) -> bool {
        let Ok(i) = self.find(key) else {
            return false;
        };
        let off = self.slots[i] as usize;
        let len = ENTRY_OVERHEAD + self.vlen_at(off);
        self.resize_range(off, len, 0);
        self.slots.remove(i);
        self.shift_slots(i, -(len as isize));
        true
    }

    /// Split source: drop every entry with key >= `pivot`; returns how
    /// many were dropped.
    pub fn drain_high(&mut self, pivot: &Key) -> usize {
        let at = match self.find(pivot) {
            Ok(i) | Err(i) => i,
        };
        let dropped = self.len() - at;
        if let Some(&off) = self.slots.get(at) {
            self.body.truncate(off as usize);
            self.slots.truncate(at);
        }
        dropped
    }

    /// Split destination: append pre-sorted entries that all compare
    /// greater than existing ones.
    pub fn extend_high(&mut self, entries: &[(Key, Vec<u8>)]) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(
            self.is_empty()
                || entries.first().is_none_or(|(k, _)| self.key_at(self.len() - 1) < *k)
        );
        for (k, v) in entries {
            assert!(
                self.body.len() + ENTRY_OVERHEAD + v.len() <= MAX_PAGE_BYTES,
                "node outgrew a 64 KiB page"
            );
            self.slots.push(self.body.len() as u16);
            self.body.extend_from_slice(&k.0);
            self.body.extend_from_slice(&(v.len() as u16).to_le_bytes());
            self.body.extend_from_slice(v);
        }
    }

    /// Interpret an internal-node value as a child page number.
    pub fn child_at(&self, idx: usize) -> u64 {
        debug_assert!(!self.is_leaf());
        u64::from_le_bytes(self.value_at(idx).try_into().expect("child value is 8 bytes"))
    }

    /// Encode a child page number as an internal-node value.
    pub fn child_value(page_no: u64) -> Vec<u8> {
        page_no.to_le_bytes().to_vec()
    }

    /// Encode into a `page_bytes` image with checksum.
    pub fn encode(&self, page_bytes: usize) -> Vec<u8> {
        debug_assert!(self.bytes_used() <= page_bytes, "page over-full at encode");
        let mut buf = Vec::with_capacity(page_bytes);
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(&self.page_no.to_le_bytes());
        buf.extend_from_slice(&self.lsn.to_le_bytes());
        buf.extend_from_slice(&self.level.to_le_bytes());
        buf.extend_from_slice(&(self.slots.len() as u16).to_le_bytes());
        buf.extend_from_slice(&self.next.to_le_bytes());
        buf.extend_from_slice(&self.body);
        buf.resize(page_bytes, 0);
        let crc = crc32c(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode and verify a page image.
    pub fn decode(buf: &[u8]) -> Result<NodePage, PageDecodeError> {
        Self::decode_reusing(buf, NodePage::new(0, 0))
    }

    /// [`Self::decode`] into `spare`'s buffers (an evicted page), so a
    /// load allocates nothing once those buffers have grown to page size.
    pub fn decode_reusing(buf: &[u8], mut spare: NodePage) -> Result<NodePage, PageDecodeError> {
        if buf.iter().all(|&b| b == 0) {
            return Err(PageDecodeError::Empty);
        }
        if buf.len() < PAGE_HEADER {
            return Err(PageDecodeError::Malformed("image smaller than header"));
        }
        let stored = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let page_no = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        if crc32c(&buf[4..]) != stored {
            return Err(PageDecodeError::BadChecksum { page_no_field: page_no });
        }
        if buf.len() > MAX_PAGE_BYTES {
            return Err(PageDecodeError::Malformed("image larger than 64 KiB"));
        }
        let level = u16::from_le_bytes(buf[20..22].try_into().unwrap());
        let count = u16::from_le_bytes(buf[22..24].try_into().unwrap()) as usize;
        let slots = &mut spare.slots;
        slots.clear();
        let mut off = PAGE_HEADER;
        for _ in 0..count {
            if off + ENTRY_OVERHEAD > buf.len() {
                return Err(PageDecodeError::Malformed("entry header past end"));
            }
            let vlen = u16::from_le_bytes([buf[off + 24], buf[off + 25]]) as usize;
            if off + ENTRY_OVERHEAD + vlen > buf.len() {
                return Err(PageDecodeError::Malformed("value past end"));
            }
            if level > 0 && vlen != CHILD_BYTES {
                return Err(PageDecodeError::Malformed("child pointer is not 8 bytes"));
            }
            if let Some(&prev) = slots.last() {
                let prev = PAGE_HEADER + prev as usize;
                if buf[prev..prev + 24] >= buf[off..off + 24] {
                    return Err(PageDecodeError::Malformed("keys not strictly ascending"));
                }
            }
            slots.push((off - PAGE_HEADER) as u16);
            off += ENTRY_OVERHEAD + vlen;
        }
        spare.body.clear();
        spare.body.extend_from_slice(&buf[PAGE_HEADER..off]);
        spare.page_no = page_no;
        spare.lsn = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        spare.level = level;
        spare.next = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        Ok(spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use share_rng::{sweep, Rng, StdRng};
    use std::collections::BTreeMap;

    fn sample() -> NodePage {
        let mut p = NodePage::new(7, 0);
        p.lsn = 99;
        p.next = 8;
        p.upsert(Key::node(2), &[2; 10]);
        p.upsert(Key::node(1), &[1; 5]);
        p.upsert(Key::node(3), &[3; 7]);
        p
    }

    fn keys(p: &NodePage) -> Vec<Key> {
        (0..p.len()).map(|i| p.key_at(i)).collect()
    }

    /// Entry-by-entry reference encoder: the page format written out field
    /// by field from an ordered model, independent of `NodePage`'s layout.
    fn reference_encode(
        page_no: u64,
        lsn: u64,
        level: u16,
        next: u64,
        entries: &BTreeMap<Key, Vec<u8>>,
        page_bytes: usize,
    ) -> Vec<u8> {
        let mut buf = vec![0u8; page_bytes];
        buf[4..12].copy_from_slice(&page_no.to_le_bytes());
        buf[12..20].copy_from_slice(&lsn.to_le_bytes());
        buf[20..22].copy_from_slice(&level.to_le_bytes());
        buf[22..24].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        buf[24..32].copy_from_slice(&next.to_le_bytes());
        let mut off = PAGE_HEADER;
        for (k, v) in entries {
            buf[off..off + 24].copy_from_slice(&k.0);
            buf[off + 24..off + 26].copy_from_slice(&(v.len() as u16).to_le_bytes());
            buf[off + 26..off + 26 + v.len()].copy_from_slice(v);
            off += ENTRY_OVERHEAD + v.len();
        }
        let crc = crc32c(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// The invariants every resident page holds.
    fn assert_invariants(p: &NodePage) {
        let ks = keys(p);
        assert!(ks.windows(2).all(|w| w[0] < w[1]), "keys not strictly ascending");
        let recount: usize =
            PAGE_HEADER + (0..p.len()).map(|i| ENTRY_OVERHEAD + p.value_at(i).len()).sum::<usize>();
        assert_eq!(p.bytes_used(), recount);
        if !p.is_leaf() {
            for i in 0..p.len() {
                p.child_at(i);
            }
        }
        for (i, k) in ks.iter().enumerate() {
            assert_eq!(p.find(k), Ok(i));
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let p = sample();
        let img = p.encode(4096);
        assert_eq!(img.len(), 4096);
        let q = NodePage::decode(&img).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn entries_stay_sorted_through_upserts() {
        let p = sample();
        let keys = keys(&p);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn upsert_replaces_and_tracks_bytes() {
        let mut p = NodePage::new(0, 0);
        assert_eq!(p.bytes_used(), PAGE_HEADER);
        p.upsert(Key::node(1), &[0; 10]);
        let b1 = p.bytes_used();
        assert_eq!(b1, PAGE_HEADER + ENTRY_OVERHEAD + 10);
        let old = p.get(&Key::node(1)).map(<[u8]>::len);
        assert!(p.upsert(Key::node(1), &[0; 4]));
        assert_eq!(old.unwrap(), 10);
        assert_eq!(p.bytes_used(), PAGE_HEADER + ENTRY_OVERHEAD + 4);
    }

    #[test]
    fn remove_returns_value_and_reclaims_bytes() {
        let mut p = sample();
        let before = p.bytes_used();
        let v = p.get(&Key::node(2)).unwrap().to_vec();
        assert!(p.remove(&Key::node(2)));
        assert_eq!(v, vec![2; 10]);
        assert_eq!(p.bytes_used(), before - ENTRY_OVERHEAD - 10);
        assert!(!p.remove(&Key::node(2)));
    }

    #[test]
    fn torn_image_fails_checksum() {
        let p = sample();
        let mut img = p.encode(4096);
        // Tear: second half replaced by 0xFF (the NAND torn pattern).
        for b in &mut img[2048..] {
            *b = 0xFF;
        }
        assert!(matches!(NodePage::decode(&img), Err(PageDecodeError::BadChecksum { .. })));
    }

    #[test]
    fn zero_image_is_empty_not_corrupt() {
        assert_eq!(NodePage::decode(&[0u8; 4096]), Err(PageDecodeError::Empty));
    }

    #[test]
    fn drain_high_splits_at_pivot() {
        let mut p = sample();
        let high = p.drain_high(&Key::node(2));
        assert_eq!(high, 2);
        assert_eq!(p.len(), 1);
        assert_eq!(p.key_at(0), Key::node(1));
        let recount: usize =
            PAGE_HEADER + (0..p.len()).map(|i| ENTRY_OVERHEAD + p.value_at(i).len()).sum::<usize>();
        assert_eq!(p.bytes_used(), recount);
    }

    #[test]
    fn extend_high_appends_sorted_run() {
        let mut p = NodePage::new(9, 0);
        p.upsert(Key::node(1), &[1]);
        p.extend_high(&[(Key::node(5), vec![5]), (Key::node(6), vec![6])]);
        assert_eq!(p.len(), 3);
        let img = p.encode(4096);
        assert_eq!(NodePage::decode(&img).unwrap(), p);
    }

    #[test]
    fn child_value_round_trip() {
        let mut p = NodePage::new(1, 1);
        p.upsert(Key::MIN, &NodePage::child_value(42));
        assert_eq!(p.child_at(0), 42);
    }

    #[test]
    fn would_overflow_respects_page_size() {
        let mut p = NodePage::new(0, 0);
        let max_v = 4096 - PAGE_HEADER - ENTRY_OVERHEAD;
        assert!(!p.would_overflow(max_v, 4096));
        assert!(p.would_overflow(max_v + 1, 4096));
        p.upsert(Key::node(1), &[0; 100]);
        assert!(p.would_overflow(max_v - 100, 4096));
    }

    #[test]
    fn decode_reusing_matches_fresh_decode() {
        let img = sample().encode(4096);
        let mut spare = NodePage::new(3, 1);
        spare.extend_high(&[(Key::node(9), vec![9; 200]), (Key::node(10), vec![1; 8])]);
        let reused = NodePage::decode_reusing(&img, spare).unwrap();
        assert_eq!(reused, NodePage::decode(&img).unwrap());
    }

    #[test]
    fn internal_value_of_wrong_size_is_malformed() {
        let mut p = NodePage::new(4, 1);
        p.upsert(Key::MIN, &NodePage::child_value(1));
        p.upsert(Key::node(5), &[0; 7]);
        assert_eq!(
            NodePage::decode(&p.encode(4096)),
            Err(PageDecodeError::Malformed("child pointer is not 8 bytes"))
        );
    }

    #[test]
    fn unordered_keys_are_malformed() {
        let mut model = BTreeMap::new();
        model.insert(Key::node(1), vec![1; 4]);
        model.insert(Key::node(2), vec![2; 4]);
        let mut img = reference_encode(5, 1, 0, NO_PAGE, &model, 4096);
        // Swap the two keys (equal value lengths keep the layout valid).
        let second = PAGE_HEADER + ENTRY_OVERHEAD + 4;
        let (a, b) = img.split_at_mut(second);
        a[PAGE_HEADER..PAGE_HEADER + 24].swap_with_slice(&mut b[..24]);
        let crc = crc32c(&img[4..]);
        img[0..4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            NodePage::decode(&img),
            Err(PageDecodeError::Malformed("keys not strictly ascending"))
        );
        // A duplicate key is out of order too.
        img.copy_within(PAGE_HEADER..PAGE_HEADER + 24, second);
        let crc = crc32c(&img[4..]);
        img[0..4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(NodePage::decode(&img), Err(PageDecodeError::Malformed(_))));
    }

    #[test]
    fn count_past_the_entries_is_malformed() {
        let mut model = BTreeMap::new();
        // One entry filling all but 10 bytes of the page: a second entry
        // header cannot fit.
        model.insert(Key::node(1), vec![1; 4096 - PAGE_HEADER - ENTRY_OVERHEAD - 10]);
        let mut img = reference_encode(5, 1, 0, NO_PAGE, &model, 4096);
        img[22..24].copy_from_slice(&2u16.to_le_bytes());
        let crc = crc32c(&img[4..]);
        img[0..4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            NodePage::decode(&img),
            Err(PageDecodeError::Malformed("entry header past end"))
        );
    }

    #[test]
    fn oversized_image_is_malformed() {
        let img = NodePage::new(1, 0).encode(MAX_PAGE_BYTES * 2);
        assert_eq!(
            NodePage::decode(&img),
            Err(PageDecodeError::Malformed("image larger than 64 KiB"))
        );
        let img = NodePage::new(1, 0).encode(MAX_PAGE_BYTES);
        assert!(NodePage::decode(&img).is_ok());
    }

    /// Seeded op sequences on one page against a `BTreeMap` model: after
    /// every op the page encodes to exactly the bytes the entry-by-entry
    /// reference encoder writes, accounts the same bytes, and decodes back
    /// to itself.
    #[test]
    fn op_sequences_match_reference_encoder() {
        const PAGE: usize = 4096;
        for (case, mut rng) in sweep("innodb-page-ops", 48) {
            let level: u16 = if rng.random_range(0..4u32) == 0 { 1 } else { 0 };
            let mut p = NodePage::new(case as u64, level);
            let mut model: BTreeMap<Key, Vec<u8>> = BTreeMap::new();
            let vlen = |rng: &mut StdRng| if level > 0 { 8 } else { rng.random_range(0usize..400) };
            for step in 0..200 {
                let key = Key::node(rng.random_range(0u64..64));
                match rng.random_range(0..8u32) {
                    // insert, or grow / shrink an existing value
                    0..=3 => {
                        let v = vec![rng.random::<u8>(); vlen(&mut rng)];
                        let grows = match model.get(&key) {
                            Some(old) => v.len().saturating_sub(old.len()),
                            None => ENTRY_OVERHEAD + v.len(),
                        };
                        if p.bytes_used() + grows > PAGE {
                            continue;
                        }
                        assert_eq!(p.upsert(key, &v), model.insert(key, v).is_some());
                    }
                    4..=5 => assert_eq!(p.remove(&key), model.remove(&key).is_some()),
                    6 => {
                        let high = model.split_off(&key);
                        assert_eq!(p.drain_high(&key), high.len());
                    }
                    _ => {
                        let first = model.last_key_value().map_or(0, |(k, _)| {
                            u64::from_be_bytes(k.0[1..9].try_into().unwrap()) + 1
                        });
                        let run: Vec<(Key, Vec<u8>)> = (0..rng.random_range(0u64..4))
                            .map(|j| (Key::node(first + j), vec![j as u8; vlen(&mut rng)]))
                            .collect();
                        let bytes: usize = run.iter().map(|(_, v)| ENTRY_OVERHEAD + v.len()).sum();
                        if p.bytes_used() + bytes > PAGE {
                            continue;
                        }
                        p.extend_high(&run);
                        model.extend(run);
                    }
                }
                p.lsn = step;
                p.next = if step % 3 == 0 { NO_PAGE } else { step * 11 };
                let img = p.encode(PAGE);
                let want = reference_encode(p.page_no, p.lsn, level, p.next, &model, PAGE);
                assert!(img == want, "case {case} step {step}: encode differs from reference");
                let used =
                    PAGE_HEADER + model.values().map(|v| ENTRY_OVERHEAD + v.len()).sum::<usize>();
                assert_eq!(p.bytes_used(), used, "case {case} step {step}");
                assert_eq!(NodePage::decode(&img).as_ref(), Ok(&p), "case {case} step {step}");
                assert_invariants(&p);
            }
        }
    }

    /// Seeded corruption sweep: images with a *valid* checksum but edited
    /// entry bytes (or count/level fields) must decode to `Malformed` or
    /// to a page whose invariants hold. Decoding never panics.
    #[test]
    fn corrupted_entries_never_panic() {
        const PAGE: usize = 4096;
        for (case, mut rng) in sweep("innodb-page-corruption", 200) {
            let level: u16 = if case % 3 == 0 { 1 } else { 0 };
            let mut p = NodePage::new(case as u64, level);
            for _ in 0..rng.random_range(1usize..30) {
                let vlen = if level > 0 { 8 } else { rng.random_range(0usize..120) };
                let key = Key::link(rng.random_range(0u64..8), 1, rng.random_range(0u64..1000));
                if p.bytes_used() + ENTRY_OVERHEAD + vlen <= PAGE {
                    p.upsert(key, &vec![rng.random::<u8>(); vlen]);
                }
            }
            let mut img = p.encode(PAGE);
            let area = PAGE_HEADER..p.bytes_used().max(PAGE_HEADER + 1);
            for _ in 0..rng.random_range(1usize..6) {
                let at = match rng.random_range(0..6u32) {
                    0 => rng.random_range(20usize..24), // level / count
                    1 if !p.is_empty() => {
                        // a value length field
                        let slot = p.slots[rng.random_range(0..p.len())] as usize;
                        PAGE_HEADER + slot + 24 + rng.random_range(0usize..2)
                    }
                    _ => rng.random_range(area.clone()),
                };
                img[at] = match rng.random_range(0..3u32) {
                    0 => img[at] ^ (1 << rng.random_range(0u32..8)),
                    1 => rng.random(),
                    _ => 0xFF,
                };
            }
            let crc = crc32c(&img[4..]);
            img[0..4].copy_from_slice(&crc.to_le_bytes());
            match NodePage::decode(&img) {
                Ok(q) => {
                    assert_invariants(&q);
                    assert_eq!(NodePage::decode(&q.encode(PAGE)).as_ref(), Ok(&q), "case {case}");
                }
                Err(PageDecodeError::Malformed(_)) => {}
                Err(e) => panic!("case {case}: unexpected {e:?}"),
            }
        }
    }
}
