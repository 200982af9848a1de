//! AES-128 block cipher (FIPS 197), implemented from scratch.
//!
//! This is the block primitive under [`crate::gcm`], which the paper's
//! baseline uses for software-encrypted enclave-to-enclave channels. The
//! round function is table-driven: one 1 KiB table combines SubBytes,
//! ShiftRows and MixColumns, so a round is 16 lookups and a handful of
//! XORs instead of per-byte field arithmetic. Profiles of the serving
//! benches put the previous byte-wise rounds at the top of the wall-clock
//! ledger; the table form computes the identical permutation (the tests
//! check it against a byte-wise reference round).

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Combined SubBytes + MixColumns table for a row-0 byte: packs the column
/// `(2·S[x], S[x], S[x], 3·S[x])` into a big-endian word. The tables for
/// rows 1–3 are byte rotations of this one (the MixColumns matrix is
/// circulant), so `TE0[x].rotate_right(8·r)` serves every row.
static TE0: [u32; 256] = build_te0();

const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut x = 0usize;
    while x < 256 {
        let s = SBOX[x] as u32;
        let s2 = ((s << 1) ^ (if s & 0x80 != 0 { 0x1b } else { 0 })) & 0xff;
        let s3 = s2 ^ s;
        t[x] = (s2 << 24) | (s << 16) | (s << 8) | s3;
        x += 1;
    }
    t
}

/// AES-128 with a pre-expanded key schedule.
///
/// Only encryption is provided; GCM (CTR mode) never needs the inverse
/// cipher.
///
/// # Example
///
/// ```
/// use ne_crypto::aes::Aes128;
///
/// let aes = Aes128::new(&[0u8; 16]);
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, [0u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    /// Round keys, one big-endian word per column.
    rk: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = [
                    SBOX[temp[1] as usize] ^ RCON[i / 4 - 1],
                    SBOX[temp[2] as usize],
                    SBOX[temp[3] as usize],
                    SBOX[temp[0] as usize],
                ];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut rk = [[0u32; 4]; 11];
        for r in 0..11 {
            for c in 0..4 {
                rk[r][c] = u32::from_be_bytes(w[4 * r + c]);
            }
        }
        Aes128 { rk }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        if crate::reference_impl() {
            return self.encrypt_block_reference(block);
        }
        // State as one big-endian word per column; byte r of word c is the
        // state byte at row r, column c.
        let mut w = [0u32; 4];
        for c in 0..4 {
            w[c] = u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ self.rk[0][c];
        }
        for round in 1..10 {
            let mut t = [0u32; 4];
            for c in 0..4 {
                // ShiftRows selects row r from column (c + r) mod 4; the
                // rotated TE0 lookup applies SubBytes + MixColumns for it.
                t[c] = TE0[(w[c] >> 24) as usize]
                    ^ TE0[((w[(c + 1) % 4] >> 16) & 0xff) as usize].rotate_right(8)
                    ^ TE0[((w[(c + 2) % 4] >> 8) & 0xff) as usize].rotate_right(16)
                    ^ TE0[(w[(c + 3) % 4] & 0xff) as usize].rotate_right(24)
                    ^ self.rk[round][c];
            }
            w = t;
        }
        // Final round: SubBytes + ShiftRows only, no MixColumns.
        for c in 0..4 {
            let t = ((SBOX[(w[c] >> 24) as usize] as u32) << 24)
                | ((SBOX[((w[(c + 1) % 4] >> 16) & 0xff) as usize] as u32) << 16)
                | ((SBOX[((w[(c + 2) % 4] >> 8) & 0xff) as usize] as u32) << 8)
                | (SBOX[(w[(c + 3) % 4] & 0xff) as usize] as u32);
            block[4 * c..4 * c + 4].copy_from_slice(&(t ^ self.rk[10][c]).to_be_bytes());
        }
    }

    /// The byte-wise FIPS-197 rounds the T-table form was derived from:
    /// SubBytes, ShiftRows and MixColumns as separate per-byte passes.
    /// Selected by [`crate::set_reference_impl`] for the differential
    /// oracles; the tests check both forms compute the same permutation.
    fn encrypt_block_reference(&self, block: &mut [u8; 16]) {
        let round_key = |r: usize| -> [u8; 16] {
            let mut out = [0u8; 16];
            for c in 0..4 {
                out[4 * c..4 * c + 4].copy_from_slice(&self.rk[r][c].to_be_bytes());
            }
            out
        };
        add_round_key(block, &round_key(0));
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &round_key(round));
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &round_key(10));
    }
}

fn xtime(b: u8) -> u8 {
    let hi = b & 0x80;
    let mut r = b << 1;
    if hi != 0 {
        r ^= 0x1b;
    }
    r
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State layout: column-major, state[4*c + r] is row r of column c.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let a0 = state[4 * c];
        let a1 = state[4 * c + 1];
        let a2 = state[4 * c + 2];
        let a3 = state[4 * c + 3];
        state[4 * c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        state[4 * c + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        state[4 * c + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        state[4 * c + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS-197 Appendix B.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32,
            ]
        );
    }

    // NIST AESAVS known-answer: all-zero key, all-zero plaintext.
    #[test]
    fn zero_key_zero_block() {
        let mut block = [0u8; 16];
        Aes128::new(&[0u8; 16]).encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
                0x2b, 0x2e,
            ]
        );
    }

    #[test]
    fn deterministic() {
        let key = [7u8; 16];
        let mut a = [9u8; 16];
        let mut b = [9u8; 16];
        Aes128::new(&key).encrypt_block(&mut a);
        Aes128::new(&key).encrypt_block(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn table_rounds_match_bytewise_reference() {
        // Deterministic pseudorandom keys and blocks (xorshift).
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..200 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            key[..8].copy_from_slice(&next().to_le_bytes());
            key[8..].copy_from_slice(&next().to_le_bytes());
            block[..8].copy_from_slice(&next().to_le_bytes());
            block[8..].copy_from_slice(&next().to_le_bytes());
            let aes = Aes128::new(&key);
            let mut fast = block;
            aes.encrypt_block(&mut fast);
            let mut slow = block;
            aes.encrypt_block_reference(&mut slow);
            assert_eq!(fast, slow, "key {key:02x?} block {block:02x?}");
        }
    }
}
