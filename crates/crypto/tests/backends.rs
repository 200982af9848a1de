//! Seal/open on the fast AES-GCM forms (AES-NI where the CPU has it,
//! byte-wise rounds otherwise, Shoup-table GHASH) against the reference
//! forms [`AesGcm::seal_reference`] / [`AesGcm::open_reference`] (byte-wise
//! rounds, bit-loop GHASH): same key, nonce, AAD and plaintext must give
//! the same sealed bytes, and each form must open what the other sealed.

use ne_crypto::gcm::AesGcm;

/// Deterministic xorshift stream for keys, nonces, AADs and plaintexts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bytes<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.next() as u8)
    }

    fn vec(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Seals and opens one random message of `len` bytes on both forms and
/// checks they agree byte for byte, including on a tampered tag.
fn check_agreement(rng: &mut Rng, len: usize) {
    let key: [u8; 16] = rng.bytes();
    let nonce: [u8; 12] = rng.bytes();
    let aad_len = (rng.next() % 65) as usize;
    let aad = rng.vec(aad_len);
    let plaintext = rng.vec(len);
    let cipher = AesGcm::new(&key);
    let ctx = format!("len {len} aad {aad_len}");

    let fast = cipher.seal(&nonce, &plaintext, &aad);
    let reference = cipher.seal_reference(&nonce, &plaintext, &aad);
    assert_eq!(fast, reference, "sealed bytes differ: {ctx}");
    assert_eq!(fast.len(), len + ne_crypto::gcm::TAG_LEN, "{ctx}");

    for open in [AesGcm::open, AesGcm::open_reference] {
        let opened = open(&cipher, &nonce, &fast, &aad);
        assert_eq!(opened.as_deref(), Ok(&plaintext[..]), "{ctx}");
        let mut tampered = fast.clone();
        *tampered.last_mut().expect("a tag is never empty") ^= 1;
        let rejected = open(&cipher, &nonce, &tampered, &aad);
        assert!(rejected.is_err(), "tampered tag accepted: {ctx}");
    }
}

#[test]
fn seal_open_match_reference_at_length_edges() {
    let mut rng = Rng(0x5eed_0fae_5b10_c0de);
    for len in [
        0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 4095, 4096, 4097, 4200,
    ] {
        check_agreement(&mut rng, len);
    }
}

#[test]
fn seal_open_match_reference_at_random_lengths() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for _ in 0..64 {
        let len = (rng.next() % 4201) as usize;
        check_agreement(&mut rng, len);
    }
}
