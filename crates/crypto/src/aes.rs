//! AES-128 block cipher (FIPS 197), implemented from scratch.
//!
//! This is the block primitive under [`crate::gcm`], which the paper's
//! baseline uses for software-encrypted enclave-to-enclave channels. Two
//! forms of the rounds compute the same permutation (the tests check both
//! against each other and against the FIPS-197 and SP 800-38A vectors):
//!
//! * **AES-NI** (x86-64 CPUs with the `aes` feature): one `aesenc` per
//!   round, and eight blocks interleaved for CTR mode.
//!   [`Aes128::encrypt_block`] takes it wherever the CPU has it, and it is
//!   the one place in the workspace that uses `unsafe`.
//! * **Byte-wise reference**: SubBytes, ShiftRows and MixColumns as
//!   separate per-byte passes. [`Aes128::encrypt_block`] falls back to it
//!   on CPUs without AES-NI, and [`Aes128::encrypt_block_reference`] runs
//!   it on every CPU, for tests.
//!
//! Both share one portable key expansion.

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

/// AES-128 with a pre-expanded key schedule.
///
/// Only encryption is provided; GCM (CTR mode) never needs the inverse
/// cipher. The `Debug` form prints no key material.
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
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as bytes in state order, `rk[r][4c + i]` being byte `i`
    /// of column `c`.
    rk: [[u8; 16]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

/// The form of the rounds a call runs: the CPU decides, nothing else.
#[derive(Debug, Clone, Copy)]
enum Backend {
    #[cfg(target_arch = "x86_64")]
    AesNi(ni::AesNi),
    Bytewise,
}

fn backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::AesNi::detect() {
        return Backend::AesNi(ni);
    }
    Backend::Bytewise
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
        let mut rk = [[0u8; 16]; 11];
        for (r, round_key) in rk.iter_mut().enumerate() {
            round_key.copy_from_slice(w[4 * r..4 * r + 4].as_flattened());
        }
        Aes128 { rk }
    }

    /// Encrypts one 16-byte block in place, on AES-NI where the CPU has it
    /// and on the byte-wise rounds otherwise.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(ni) => ni.encrypt_block(&self.rk, block),
            Backend::Bytewise => self.encrypt_block_reference(block),
        }
    }

    /// Encrypts eight independent blocks in place: the CTR-mode batch,
    /// which AES-NI pipelines across the blocks.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [[u8; 16]; 8]) {
        match backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(ni) => ni.encrypt_blocks(&self.rk, blocks),
            Backend::Bytewise => blocks
                .iter_mut()
                .for_each(|b| self.encrypt_block_reference(b)),
        }
    }

    /// The byte-wise FIPS-197 rounds, on every CPU: SubBytes, ShiftRows
    /// and MixColumns as separate per-byte passes. This is the reference
    /// form the tests hold [`Aes128::encrypt_block`] to.
    pub fn encrypt_block_reference(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.rk[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.rk[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.rk[10]);
    }
}

/// The AES-NI rounds: the only module in the workspace allowed `unsafe`.
///
/// The round keys come from the portable expansion in [`Aes128::new`], in
/// state byte order; the `aes` instructions take the state in the same
/// byte order as FIPS 197, so no shuffles are needed.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// Proof that this CPU executes the `aes` instructions: only
    /// [`AesNi::detect`] makes one, so holding one is what makes the calls
    /// into the `target_feature` functions below sound.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct AesNi(());

    impl AesNi {
        /// `Some` when the CPU has AES-NI (the check is cached by `std`).
        pub(super) fn detect() -> Option<AesNi> {
            is_x86_feature_detected!("aes").then_some(AesNi(()))
        }

        /// Encrypts one block under the 11 round keys `rk`.
        pub(super) fn encrypt_block(self, rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
            // SAFETY: `self` exists only if `detect` found the `aes`
            // feature, the one requirement `encrypt1` adds to a safe call.
            unsafe { encrypt1(rk, block) }
        }

        /// Encrypts eight independent blocks under the round keys `rk`.
        pub(super) fn encrypt_blocks(self, rk: &[[u8; 16]; 11], blocks: &mut [[u8; 16]; 8]) {
            // SAFETY: as in `encrypt_block`, `self` proves the CPU has
            // the `aes` feature that `encrypt8` is compiled for.
            unsafe { encrypt8(rk, blocks) }
        }
    }

    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is 16 readable bytes, and `loadu` has no
        // alignment requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    fn store(bytes: &mut [u8; 16], v: __m128i) {
        // SAFETY: `bytes` is 16 writable bytes, and `storeu` has no
        // alignment requirement; SSE2 is part of the x86-64 baseline.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
    }

    #[target_feature(enable = "aes")]
    fn encrypt1(rk: &[[u8; 16]; 11], block: &mut [u8; 16]) {
        let mut s = _mm_xor_si128(load(block), load(&rk[0]));
        for key in &rk[1..10] {
            s = _mm_aesenc_si128(s, load(key));
        }
        store(block, _mm_aesenclast_si128(s, load(&rk[10])));
    }

    /// Eight blocks in flight per round hide the `aesenc` latency that
    /// serialises the one-block form.
    #[target_feature(enable = "aes")]
    fn encrypt8(rk: &[[u8; 16]; 11], blocks: &mut [[u8; 16]; 8]) {
        let keys = rk.each_ref().map(load);
        let mut s = blocks.each_ref().map(|b| _mm_xor_si128(load(b), keys[0]));
        for key in &keys[1..10] {
            for x in s.iter_mut() {
                *x = _mm_aesenc_si128(*x, *key);
            }
        }
        for (b, x) in blocks.iter_mut().zip(s) {
            store(b, _mm_aesenclast_si128(x, keys[10]));
        }
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
        let block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let want = 0x3925841d02dc09fbdc118597196a0b32;
        for (name, got) in one_block_outputs(&Aes128::new(&key), &block) {
            assert_eq!(u128::from_be_bytes(got), want, "{name}");
        }
    }

    // NIST AESAVS known-answer: all-zero key, all-zero plaintext.
    #[test]
    fn zero_key_zero_block() {
        let want = 0x66e94bd4ef8a2c3b884cfa59ca342b2e;
        for (name, got) in one_block_outputs(&Aes128::new(&[0u8; 16]), &[0u8; 16]) {
            assert_eq!(u128::from_be_bytes(got), want, "{name}");
        }
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

    /// Every one-block form this CPU can run, with its output.
    fn one_block_outputs(aes: &Aes128, block: &[u8; 16]) -> Vec<(&'static str, [u8; 16])> {
        let mut out = Vec::new();
        let mut b = *block;
        aes.encrypt_block_reference(&mut b);
        out.push(("reference", b));
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::AesNi::detect() {
            let mut b = *block;
            ni.encrypt_block(&aes.rk, &mut b);
            out.push(("aes-ni", b));
        }
        let mut b = *block;
        aes.encrypt_block(&mut b);
        out.push(("default", b));
        out
    }

    /// Every eight-block form this CPU can run, with its output.
    fn batch_outputs(aes: &Aes128, blocks: &[[u8; 16]; 8]) -> Vec<(&'static str, [[u8; 16]; 8])> {
        let mut out = Vec::new();
        let mut b = *blocks;
        b.iter_mut().for_each(|b| aes.encrypt_block_reference(b));
        out.push(("reference x8", b));
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::AesNi::detect() {
            let mut b = *blocks;
            ni.encrypt_blocks(&aes.rk, &mut b);
            out.push(("aes-ni x8", b));
        }
        let mut b = *blocks;
        aes.encrypt_blocks(&mut b);
        out.push(("default x8", b));
        out
    }

    #[test]
    fn every_backend_matches_bytewise_reference() {
        // Deterministic pseudorandom keys and blocks (xorshift).
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next_block = move || {
            let mut b = [0u8; 16];
            for half in b.chunks_mut(8) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                half.copy_from_slice(&s.to_le_bytes());
            }
            b
        };
        for _ in 0..200 {
            let key = next_block();
            let aes = Aes128::new(&key);
            let blocks: [[u8; 16]; 8] = std::array::from_fn(|_| next_block());
            let mut expected = blocks;
            for b in expected.iter_mut() {
                aes.encrypt_block_reference(b);
            }
            for (block, want) in blocks.iter().zip(&expected) {
                for (name, got) in one_block_outputs(&aes, block) {
                    assert_eq!(got, *want, "{name}: key {key:02x?} block {block:02x?}");
                }
            }
            for (name, got) in batch_outputs(&aes, &blocks) {
                assert_eq!(got, expected, "{name}: key {key:02x?}");
            }
        }
    }

    /// Guards the agreement tests against vacuity: the CPU alone picks
    /// the default form, AES-NI where detected and the byte-wise rounds
    /// otherwise.
    #[test]
    fn default_backend_is_aes_ni_where_detected_else_bytewise() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("aes") {
            assert!(matches!(backend(), Backend::AesNi(_)), "{:?}", backend());
            return;
        }
        assert!(matches!(backend(), Backend::Bytewise), "{:?}", backend());
    }

    // NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt): the output blocks are
    // the cipher of the incrementing counter blocks.
    #[test]
    fn sp800_38a_f51_ctr_output_blocks() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let expected: [u128; 4] = [
            0xec8cdf7398607cb0f2d21675ea9ea1e4,
            0x362b7c3c6773516318a077d7fc5073ae,
            0x6a2cc3787889374fbeb4c81b17ba6c44,
            0xe89c399ff0f198c6d40a31db156cabfe,
        ];
        let aes = Aes128::new(&key);
        let counters: [[u8; 16]; 8] = std::array::from_fn(|i| {
            (0xf0f1f2f3f4f5f6f7f8f9fafbfcfdfeffu128 + i as u128).to_be_bytes()
        });
        for (counter, want) in counters.iter().zip(expected) {
            for (name, got) in one_block_outputs(&aes, counter) {
                assert_eq!(u128::from_be_bytes(got), want, "{name}");
            }
        }
        for (name, got) in batch_outputs(&aes, &counters) {
            for (block, want) in got.iter().zip(expected) {
                assert_eq!(u128::from_be_bytes(*block), want, "{name}");
            }
        }
    }

    #[test]
    fn debug_prints_no_round_key() {
        let aes = Aes128::new(&[0x42; 16]);
        assert_eq!(format!("{aes:?}"), "Aes128 { .. }");
    }
}
