//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for section
//! checksums. Slicing-by-16: sixteen 256-entry tables, built at compile
//! time, fold sixteen input bytes per step instead of one.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 of `data`, matching `zlib.crc32` / `binascii.crc32`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xffff_ffffu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // The running CRC folds into the first four bytes; byte j of the
        // block then still has 15 − j bytes to pass through.
        let h = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        let at = |k: usize, byte: u8| t[k][byte as usize];
        c = at(15, h[0])
            ^ at(14, h[1])
            ^ at(13, h[2])
            ^ at(12, h[3])
            ^ at(11, b[4])
            ^ at(10, b[5])
            ^ at(9, b[6])
            ^ at(8, b[7])
            ^ at(7, b[8])
            ^ at(6, b[9])
            ^ at(5, b[10])
            ^ at(4, b[11])
            ^ at(3, b[12])
            ^ at(2, b[13])
            ^ at(1, b[14])
            ^ at(0, b[15]);
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC that slicing-by-16 replaced: the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn matches_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn matches_the_bytewise_oracle_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset} len {len}"
                );
            }
        }
        let long: Vec<u8> = (0..4099u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32(&long), crc32_bytewise(&long));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"easybo snapshot payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
