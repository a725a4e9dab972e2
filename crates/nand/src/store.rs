//! Refcounted page-buffer store behind [`crate::NandArray`].
//!
//! Every programmed (or torn) page holds the index of one buffer here;
//! an erased page holds [`ERASED`]. A buffer is filled once, by the
//! program that takes it, and never written again while any page refers
//! to it — so an on-die copyback lets the destination page take another
//! reference to the source's buffer instead of copying the bytes.
//! Erasing a block drops its pages' references; a buffer whose count
//! reaches zero goes onto a free list and the next program reuses it, so
//! a device at steady state programs without allocating.

/// Buffer index of an erased page.
pub(crate) const ERASED: u32 = u32::MAX;

#[derive(Debug, Default)]
pub(crate) struct PageStore {
    bufs: Vec<Box<[u8]>>,
    /// Pages referring to each buffer; 0 exactly for buffers on `free`.
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl PageStore {
    /// A buffer of `len` bytes holding one reference. Its contents are
    /// stale (recycled) or zero: the caller overwrites every byte.
    pub(crate) fn take(&mut self, len: usize) -> u32 {
        if let Some(i) = self.free.pop() {
            self.refs[i as usize] = 1;
            return i;
        }
        let i = u32::try_from(self.bufs.len())
            .ok()
            .filter(|&i| i != ERASED)
            .expect("page store outgrew u32 buffer indices");
        self.bufs.push(vec![0; len].into_boxed_slice());
        self.refs.push(1);
        i
    }

    /// Take ownership of `buf` as a new buffer holding one reference.
    pub(crate) fn adopt(&mut self, buf: Box<[u8]>) -> u32 {
        let i = self.take(0);
        self.bufs[i as usize] = buf;
        i
    }

    /// Add a reference to buffer `i` and return it.
    pub(crate) fn share(&mut self, i: u32) -> u32 {
        self.refs[i as usize] += 1;
        i
    }

    /// Drop one reference to buffer `i`, recycling it at zero.
    pub(crate) fn release(&mut self, i: u32) {
        let r = &mut self.refs[i as usize];
        *r -= 1;
        if *r == 0 {
            self.free.push(i);
        }
    }

    pub(crate) fn get(&self, i: u32) -> &[u8] {
        &self.bufs[i as usize]
    }

    pub(crate) fn get_mut(&mut self, i: u32) -> &mut [u8] {
        &mut self.bufs[i as usize]
    }

    /// Copy the first `len` bytes of buffer `src` into buffer `dst`.
    pub(crate) fn copy_prefix(&mut self, src: u32, dst: u32, len: usize) {
        let (src, dst) = (src as usize, dst as usize);
        assert_ne!(src, dst, "a fresh buffer is never a live page's");
        let (lo, hi) = self.bufs.split_at_mut(src.max(dst));
        let (s, d) = if src < dst { (&lo[src], &mut hi[0]) } else { (&hi[0], &mut lo[dst]) };
        d[..len].copy_from_slice(&s[..len]);
    }

    /// References held on buffer `i` (0 when it is on the free list).
    #[cfg(test)]
    pub(crate) fn refs(&self, i: u32) -> u32 {
        self.refs[i as usize]
    }

    /// Buffers on the free list.
    #[cfg(test)]
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Buffers allocated so far (live + free).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bufs.len()
    }
}
