//! Small utilities: CRC-32C checksums and little-endian codec helpers.
//!
//! The FTL persists mapping metadata (delta-log pages, checkpoint pages) to
//! flash; each such page carries a CRC so recovery can detect torn or
//! partially programmed meta pages.

/// CRC-32C (Castagnoli) over `data`.
///
/// On x86_64 CPUs with SSE4.2 (detected at run time) this runs the `crc32`
/// instruction; everywhere else it runs the portable table loop. Both give
/// the same bits.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_hw(data).unwrap_or_else(|| crc32c_table(data))
}

/// The hardware CRC-32C, or `None` when this CPU has no instruction for it.
#[cfg(target_arch = "x86_64")]
fn crc32c_hw(data: &[u8]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` only requires SSE4.2, which the run-time
        // detection above has just confirmed this CPU supports.
        Some(unsafe { crc32c_sse42(data) })
    } else {
        None
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32c_hw(_data: &[u8]) -> Option<u32> {
    None
}

/// CRC-32C with the SSE4.2 `crc32` instruction: 8-byte words, then the
/// tail byte by byte. The instruction uses the Castagnoli polynomial and
/// the same bit order as [`crc32c_table`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for w in &mut words {
        crc = _mm_crc32_u64(
            crc,
            u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")),
        );
    }
    // The instruction zero-extends its 32-bit result, so this cast keeps every bit.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// CRC-32C, table-driven: the portable path, and the reference the tests
/// check the hardware path against.
fn crc32c_table(data: &[u8]) -> u32 {
    const POLY: u32 = 0x82F6_3B78;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Write a `u32` little-endian at `buf[off..off+4]` and return the next offset.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) -> usize {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    off + 4
}

/// Write a `u64` little-endian at `buf[off..off+8]` and return the next offset.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) -> usize {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    off + 8
}

/// Read a `u32` little-endian from `buf[off..off+4]`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

/// Read a `u64` little-endian from `buf[off..off+8]`.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Integer ceiling division.
#[inline]
pub fn div_ceil_u64(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `data` through the table path, the hardware path when this
    /// CPU has one, and the dispatching `crc32c`; all must give `want`.
    fn check_every_path(data: &[u8], want: u32, what: &str) {
        assert_eq!(crc32c_table(data), want, "table path, {what}");
        if let Some(hw) = crc32c_hw(data) {
            assert_eq!(hw, want, "hardware path, {what}");
        }
        assert_eq!(crc32c(data), want, "crc32c, {what}");
    }

    /// Says so when the hardware path could not run here. libtest captures
    /// the `print!` macros of a passing test but not writes to the stderr
    /// handle, so the notice shows in a plain `cargo test` run.
    fn report_if_table_only(test: &str) {
        if crc32c_hw(&[]).is_none() {
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "{test}: no hardware CRC-32C on this CPU, checked only the table path"
            );
        }
    }

    #[test]
    fn crc32c_known_vector() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        // RFC 3720 B.4: an iSCSI SCSI Read (10) command PDU.
        let read_pdu: [u8; 48] = [
            0x01, 0xC0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, //
            0x14, 0, 0, 0, 0, 0, 0x04, 0, 0, 0, 0, 0x14, 0, 0, 0, 0x18, //
            0x28, 0, 0, 0, 0, 0, 0, 0, 0x02, 0, 0, 0, 0, 0, 0, 0,
        ];
        let vectors: [(&str, &[u8], u32); 6] = [
            ("32 zero bytes", &[0u8; 32], 0x8A91_36AA),
            ("32 0xFF bytes", &[0xFFu8; 32], 0x62A8_AB43),
            ("32 ascending bytes", &ascending, 0x46DD_794E),
            ("32 descending bytes", &descending, 0x113F_DB5C),
            ("read PDU", &read_pdu, 0xD996_3A56),
            ("\"123456789\"", b"123456789", 0xE306_9283),
        ];
        for (what, data, want) in vectors {
            check_every_path(data, want, what);
        }
        report_if_table_only("crc32c_known_vector");
    }

    #[test]
    fn crc32c_paths_agree_on_unaligned_slices() {
        let mut x = 0x2545_F491u32;
        let buf: Vec<u8> = (0..9008)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 4092, 4096, 9000] {
            for start in 0..8 {
                let data = &buf[start..start + len];
                check_every_path(data, crc32c_table(data), &format!("len {len} start {start}"));
            }
        }
        report_if_table_only("crc32c_paths_agree_on_unaligned_slices");
    }

    #[test]
    fn crc32c_detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 100];
        let c1 = crc32c(&data);
        data[50] ^= 0x01;
        assert_ne!(c1, crc32c(&data));
    }

    #[test]
    fn codec_round_trips() {
        let mut buf = [0u8; 16];
        let off = put_u32(&mut buf, 0, 0xDEAD_BEEF);
        let off = put_u64(&mut buf, off, 0x0123_4567_89AB_CDEF);
        assert_eq!(off, 12);
        assert_eq!(get_u32(&buf, 0), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, 4), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn div_ceil_matches_manual() {
        assert_eq!(div_ceil_u64(0, 4), 0);
        assert_eq!(div_ceil_u64(1, 4), 1);
        assert_eq!(div_ceil_u64(4, 4), 1);
        assert_eq!(div_ceil_u64(5, 4), 2);
    }
}
