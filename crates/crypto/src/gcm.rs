//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the "GCM" series of the paper's Fig. 11: the software
//! authenticated-encryption baseline that monolithic enclaves must run to
//! communicate through untrusted memory. Nested enclaves avoid it by
//! communicating through the MEE-protected outer enclave instead.
//!
//! [`AesGcm::seal`] / [`AesGcm::open`] run the fast form: AES on the
//! rounds [`Aes128::encrypt_block`] picks for the CPU, GHASH on Shoup's
//! byte tables. [`AesGcm::seal_reference`] / [`AesGcm::open_reference`] run
//! the same mode code on the byte-wise AES rounds and the bit-loop
//! `gf_mult`, for the tests to hold the fast form to.

use crate::aes::Aes128;
use crate::ct::ct_eq;

/// Error returned by [`AesGcm::open`] when the authentication tag fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenError;

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "authentication tag mismatch")
    }
}

impl std::error::Error for OpenError {}

/// AES-128-GCM cipher with a fixed key. The `Debug` form prints no key
/// material.
///
/// # Example
///
/// ```
/// use ne_crypto::gcm::AesGcm;
///
/// let cipher = AesGcm::new(&[0x42; 16]);
/// let sealed = cipher.seal(&[0; 12], b"payload", b"header");
/// assert_eq!(cipher.open(&[0; 12], &sealed, b"header").unwrap(), b"payload");
/// assert!(cipher.open(&[0; 12], &sealed, b"tampered").is_err());
/// ```
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes128,
    /// GHASH subkey H = E_K(0^128), kept as a u128 for the GF multiply.
    /// Both forms share it; it is derived once, in [`AesGcm::new`].
    h: u128,
    /// Shoup 8-bit multiplication table: `mul_table[b]` is the product
    /// `(b·t⁰…t⁷)·H`, i.e. the byte `b` placed at the top of a field
    /// element, times H. Multiplying a full element by H then takes 16
    /// table lookups (one per byte, most-significant-coefficient last)
    /// instead of the 128-iteration bit loop in [`gf_mult`]; the profiles
    /// of the serving benches had that loop as the single hottest
    /// function. The tables are filled by linearity from the 8 products
    /// `t^k·H`, so construction costs 8 field shifts and 255 XORs.
    mul_table: Box<[u128; 256]>,
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesGcm").finish_non_exhaustive()
    }
}

/// Reduction table for shifting a field element right by one byte:
/// `v·t⁸ = (v >> 8) ^ SHIFT8_REDUCE[v & 0xff]`. Depends only on the GCM
/// polynomial, so it is computed at compile time.
static SHIFT8_REDUCE: [u128; 256] = build_shift8_reduce();

/// One bit-position shift in GCM's reflected representation: multiply by
/// `t`, reducing by the field polynomial when a coefficient falls off.
const fn shift1(v: u128) -> u128 {
    const R: u128 = 0xe100_0000_0000_0000_0000_0000_0000_0000;
    let lsb = v & 1;
    let v = v >> 1;
    if lsb == 1 {
        v ^ R
    } else {
        v
    }
}

const fn build_shift8_reduce() -> [u128; 256] {
    let mut tab = [0u128; 256];
    let mut m = 0usize;
    while m < 256 {
        // The correction term is what the low byte alone turns into after
        // eight reduced single-bit shifts (the high bits shift cleanly).
        let mut v = m as u128;
        let mut k = 0;
        while k < 8 {
            v = shift1(v);
            k += 1;
        }
        tab[m] = v;
        m += 1;
    }
    tab
}

/// Size of the GCM authentication tag appended to every sealed message.
pub const TAG_LEN: usize = 16;

/// Which form of the primitives a GCM call runs on.
#[derive(Clone, Copy)]
enum Form {
    /// AES as the CPU picks it, GHASH on the Shoup tables.
    Fast,
    /// Byte-wise AES rounds and the bit-loop [`gf_mult`].
    Reference,
}

impl AesGcm {
    /// Creates a cipher for the 128-bit `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let mut h_block = [0u8; 16];
        aes.encrypt_block(&mut h_block);
        let h = u128::from_be_bytes(h_block);
        // Basis products t^k·H for k = 0..8; the top bit is the field's
        // multiplicative identity in this representation, so t⁰·H = H.
        let mut basis = [0u128; 8];
        basis[0] = h;
        for k in 1..8 {
            basis[k] = shift1(basis[k - 1]);
        }
        let mut mul_table = Box::new([0u128; 256]);
        for b in 1usize..256 {
            // Linearity over GF(2): fold in the lowest set bit. Bit j of
            // the byte is the coefficient of t^(7-j).
            let low = b & b.wrapping_neg();
            mul_table[b] = mul_table[b ^ low] ^ basis[7 - low.trailing_zeros() as usize];
        }
        AesGcm { aes, h, mul_table }
    }

    /// Multiplies `z` by the subkey H. The fast form walks the byte
    /// table: Horner over the 16 bytes of `z`, least-significant
    /// (highest-degree) byte first. The reference form is
    /// `gf_mult(z, self.h)`; the tests check the two agree.
    fn mul_h(&self, form: Form, z: u128) -> u128 {
        if let Form::Reference = form {
            return gf_mult(z, self.h);
        }
        let mut acc = 0u128;
        for i in 0..16 {
            let byte = ((z >> (8 * i)) & 0xff) as usize;
            acc = (acc >> 8) ^ SHIFT8_REDUCE[(acc & 0xff) as usize] ^ self.mul_table[byte];
        }
        acc
    }

    /// Encrypts `plaintext` with additional authenticated data `aad`,
    /// returning `ciphertext || tag`.
    ///
    /// The caller must never reuse a `nonce` with the same key.
    pub fn seal(&self, nonce: &[u8; 12], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        self.seal_as(Form::Fast, nonce, plaintext, aad)
    }

    /// [`AesGcm::seal`] on the reference forms (byte-wise AES rounds,
    /// bit-loop GHASH multiply): the same bytes, on every CPU.
    pub fn seal_reference(&self, nonce: &[u8; 12], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        self.seal_as(Form::Reference, nonce, plaintext, aad)
    }

    /// [`AesGcm::open`] on the reference forms, as [`AesGcm::seal_reference`].
    ///
    /// # Errors
    ///
    /// As [`AesGcm::open`].
    pub fn open_reference(
        &self,
        nonce: &[u8; 12],
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, OpenError> {
        self.open_as(Form::Reference, nonce, sealed, aad)
    }

    fn seal_as(&self, form: Form, nonce: &[u8; 12], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.ctr_xor(form, nonce, 2, &mut out);
        let tag = self.tag(form, nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `sealed` (as produced by [`AesGcm::seal`]) and verifies the
    /// tag.
    ///
    /// # Errors
    ///
    /// Returns [`OpenError`] if `sealed` is shorter than a tag or the tag
    /// does not verify (wrong key, nonce, AAD, or tampered ciphertext).
    pub fn open(&self, nonce: &[u8; 12], sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, OpenError> {
        self.open_as(Form::Fast, nonce, sealed, aad)
    }

    fn open_as(
        &self,
        form: Form,
        nonce: &[u8; 12],
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, OpenError> {
        if sealed.len() < TAG_LEN {
            return Err(OpenError);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = self.tag(form, nonce, aad, ct);
        if !ct_eq(&expected, tag) {
            return Err(OpenError);
        }
        let mut out = ct.to_vec();
        self.ctr_xor(form, nonce, 2, &mut out);
        Ok(out)
    }

    /// Encrypts one block on `form`'s AES rounds.
    fn encrypt_block(&self, form: Form, block: &mut [u8; 16]) {
        match form {
            Form::Fast => self.aes.encrypt_block(block),
            Form::Reference => self.aes.encrypt_block_reference(block),
        }
    }

    /// CTR-mode keystream XOR starting at block counter `ctr0`: eight
    /// counter blocks per [`Aes128::encrypt_blocks`] batch, then the tail
    /// one block at a time.
    fn ctr_xor(&self, form: Form, nonce: &[u8; 12], ctr0: u32, data: &mut [u8]) {
        let mut counter = ctr0;
        let mut next_block = || {
            let mut block = [0u8; 16];
            block[..12].copy_from_slice(nonce);
            block[12..].copy_from_slice(&counter.to_be_bytes());
            counter = counter.wrapping_add(1);
            block
        };
        let mut batches = data.chunks_exact_mut(8 * 16);
        for batch in &mut batches {
            let mut keystream: [[u8; 16]; 8] = std::array::from_fn(|_| next_block());
            match form {
                Form::Fast => self.aes.encrypt_blocks(&mut keystream),
                Form::Reference => keystream
                    .iter_mut()
                    .for_each(|b| self.aes.encrypt_block_reference(b)),
            }
            for (b, k) in batch.iter_mut().zip(keystream.as_flattened()) {
                *b ^= k;
            }
        }
        for chunk in batches.into_remainder().chunks_mut(16) {
            let mut block = next_block();
            self.encrypt_block(form, &mut block);
            for (b, k) in chunk.iter_mut().zip(block.iter()) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, form: Form, nonce: &[u8; 12], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mut ghash = 0u128;
        self.ghash_update(form, &mut ghash, aad);
        self.ghash_update(form, &mut ghash, ct);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
        ghash = self.mul_h(form, ghash ^ u128::from_be_bytes(len_block));

        // E_K(J0) where J0 = nonce || 0^31 || 1.
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        self.encrypt_block(form, &mut j0);
        (ghash ^ u128::from_be_bytes(j0)).to_be_bytes()
    }

    fn ghash_update(&self, form: Form, acc: &mut u128, data: &[u8]) {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            *acc = self.mul_h(form, *acc ^ u128::from_be_bytes(block));
        }
    }
}

/// Carry-less multiply in GF(2^128) with the GCM reduction polynomial: the
/// bit-by-bit reference form of GHASH's multiply, which
/// [`AesGcm::seal_reference`] / [`AesGcm::open_reference`] run and which
/// the fast form's table walk is tested against.
fn gf_mult(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe100_0000_0000_0000_0000_0000_0000_0000;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Seal = fn(&AesGcm, &[u8; 12], &[u8], &[u8]) -> Vec<u8>;
    type Open = fn(&AesGcm, &[u8; 12], &[u8], &[u8]) -> Result<Vec<u8>, OpenError>;

    /// Both forms of the cipher, named, for the known-answer tests.
    const FORMS: [(&str, Seal, Open); 2] = [
        ("fast", AesGcm::seal, AesGcm::open),
        ("reference", AesGcm::seal_reference, AesGcm::open_reference),
    ];

    // NIST GCM test case 1: empty plaintext, empty AAD, zero key/IV.
    #[test]
    fn nist_case1_empty() {
        let cipher = AesGcm::new(&[0u8; 16]);
        for (name, seal, _) in FORMS {
            let sealed = seal(&cipher, &[0u8; 12], b"", b"");
            assert_eq!(hex(&sealed), "58e2fccefa7e3061367f1d57a4e7455a", "{name}");
        }
    }

    // NIST GCM test case 2: single zero block.
    #[test]
    fn nist_case2_zero_block() {
        let cipher = AesGcm::new(&[0u8; 16]);
        for (name, seal, _) in FORMS {
            let sealed = seal(&cipher, &[0u8; 12], &[0u8; 16], b"");
            assert_eq!(
                hex(&sealed),
                "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
                "{name}"
            );
        }
    }

    // NIST GCM test case 4: 60-byte plaintext with 20-byte AAD.
    #[test]
    fn nist_case4_with_aad() {
        let key = [
            0xfe, 0xff, 0xe9, 0x92, 0x86, 0x65, 0x73, 0x1c, 0x6d, 0x6a, 0x8f, 0x94, 0x67, 0x30,
            0x83, 0x08,
        ];
        let nonce = [
            0xca, 0xfe, 0xba, 0xbe, 0xfa, 0xce, 0xdb, 0xad, 0xde, 0xca, 0xf8, 0x88,
        ];
        let pt: Vec<u8> = vec![
            0xd9, 0x31, 0x32, 0x25, 0xf8, 0x84, 0x06, 0xe5, 0xa5, 0x59, 0x09, 0xc5, 0xaf, 0xf5,
            0x26, 0x9a, 0x86, 0xa7, 0xa9, 0x53, 0x15, 0x34, 0xf7, 0xda, 0x2e, 0x4c, 0x30, 0x3d,
            0x8a, 0x31, 0x8a, 0x72, 0x1c, 0x3c, 0x0c, 0x95, 0x95, 0x68, 0x09, 0x53, 0x2f, 0xcf,
            0x0e, 0x24, 0x49, 0xa6, 0xb5, 0x25, 0xb1, 0x6a, 0xed, 0xf5, 0xaa, 0x0d, 0xe6, 0x57,
            0xba, 0x63, 0x7b, 0x39,
        ];
        let aad: Vec<u8> = vec![
            0xfe, 0xed, 0xfa, 0xce, 0xde, 0xad, 0xbe, 0xef, 0xfe, 0xed, 0xfa, 0xce, 0xde, 0xad,
            0xbe, 0xef, 0xab, 0xad, 0xda, 0xd2,
        ];
        let cipher = AesGcm::new(&key);
        for (name, seal, open) in FORMS {
            let sealed = seal(&cipher, &nonce, &pt, &aad);
            let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
            assert_eq!(
                hex(ct),
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
                "{name}"
            );
            assert_eq!(hex(tag), "5bc94fbc3221a5db94fae95ae7121a47", "{name}");
            assert_eq!(open(&cipher, &nonce, &sealed, &aad).unwrap(), pt, "{name}");
        }
    }

    /// The eight-block batches and the one-block tail must produce the
    /// keystream of plain one-block-at-a-time CTR, across every batch
    /// boundary and a 32-bit counter wrap.
    #[test]
    fn ctr_batches_match_one_block_ctr() {
        let cipher = AesGcm::new(&[0x3cu8; 16]);
        let nonce = [0xa5u8; 12];
        for ctr0 in [2u32, u32::MAX - 3] {
            for len in 0..=3 * 128 + 17 {
                let mut batched: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
                let mut expected = batched.clone();
                for (i, chunk) in expected.chunks_mut(16).enumerate() {
                    let mut block = [0u8; 16];
                    block[..12].copy_from_slice(&nonce);
                    block[12..].copy_from_slice(&ctr0.wrapping_add(i as u32).to_be_bytes());
                    cipher.aes.encrypt_block(&mut block);
                    chunk.iter_mut().zip(block).for_each(|(b, k)| *b ^= k);
                }
                cipher.ctr_xor(Form::Fast, &nonce, ctr0, &mut batched);
                assert_eq!(batched, expected, "ctr0 {ctr0} len {len}");
            }
        }
    }

    #[test]
    fn table_multiply_matches_bitwise_reference() {
        let cipher = AesGcm::new(&[0x5au8; 16]);
        let mut s = 0x243f6a8885a308d3u128 | 1;
        for _ in 0..500 {
            // xorshift-style u128 stream; exact constants irrelevant.
            s ^= s << 29;
            s ^= s >> 51;
            s ^= s << 13;
            assert_eq!(
                cipher.mul_h(Form::Fast, s),
                gf_mult(s, cipher.h),
                "z = {s:032x}"
            );
        }
        assert_eq!(cipher.mul_h(Form::Fast, 0), 0);
        assert_eq!(
            cipher.mul_h(Form::Fast, 1 << 127),
            cipher.h,
            "top bit is identity"
        );
    }

    #[test]
    fn roundtrip_various_lengths() {
        let cipher = AesGcm::new(&[3u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 255, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let nonce = [len as u8; 12];
            let sealed = cipher.seal(&nonce, &pt, b"aad");
            assert_eq!(
                cipher.open(&nonce, &sealed, b"aad").unwrap(),
                pt,
                "len {len}"
            );
        }
    }

    #[test]
    fn tamper_detected() {
        let cipher = AesGcm::new(&[3u8; 16]);
        let mut sealed = cipher.seal(&[0u8; 12], b"secret message", b"");
        sealed[0] ^= 1;
        assert_eq!(cipher.open(&[0u8; 12], &sealed, b""), Err(OpenError));
    }

    #[test]
    fn short_input_rejected() {
        let cipher = AesGcm::new(&[3u8; 16]);
        assert_eq!(cipher.open(&[0u8; 12], &[0u8; 5], b""), Err(OpenError));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let cipher = AesGcm::new(&[3u8; 16]);
        let sealed = cipher.seal(&[1u8; 12], b"msg", b"");
        assert!(cipher.open(&[2u8; 12], &sealed, b"").is_err());
    }
}
