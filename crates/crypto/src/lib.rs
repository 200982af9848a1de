#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! From-scratch cryptographic substrate for the Nested Enclave reproduction.
//!
//! The SGX architecture relies on a handful of cryptographic primitives:
//!
//! * **SHA-256** — enclave measurement (`MRENCLAVE`), author identity
//!   (`MRSIGNER`), and report MACs are all built from keyed hashing.
//! * **HMAC-SHA-256** — report MACs for local attestation.
//! * **AES-128-GCM** — the authenticated encryption the paper's baseline uses
//!   for enclave-to-enclave communication through untrusted memory
//!   (Fig. 11 `GCM` series), and what sealed data uses.
//!
//! Everything here is implemented from scratch so the workspace has no
//! external crypto dependencies. AES runs on the CPU's AES-NI instructions
//! where it has them (the workspace's one `unsafe` module, in [`aes`]) and
//! on portable table-driven rounds otherwise; GHASH and SHA-256 are
//! portable safe Rust. Every fast form is checked against a byte-wise
//! reference form of the same function ([`set_reference_impl`]). The
//! simulator's *cost model* (not the host speed of this code) is what
//! drives the paper's performance figures; host speed only decides how long
//! the benches take.
//!
//! # Example
//!
//! ```
//! use ne_crypto::{sha256, gcm::AesGcm};
//!
//! let digest = sha256::digest(b"enclave image");
//! assert_eq!(digest.len(), 32);
//!
//! let key = [0u8; 16];
//! let cipher = AesGcm::new(&key);
//! let nonce = [1u8; 12];
//! let sealed = cipher.seal(&nonce, b"secret", b"aad");
//! let opened = cipher.open(&nonce, &sealed, b"aad").unwrap();
//! assert_eq!(opened, b"secret");
//! ```

pub mod aes;
pub mod ct;
pub mod gcm;
pub mod hmac;
pub mod kdf;
pub mod sha256;

pub use gcm::{AesGcm, OpenError};
pub use sha256::{digest as sha256_digest, Sha256};

use std::sync::atomic::{AtomicBool, Ordering};

static REFERENCE_IMPL: AtomicBool = AtomicBool::new(false);

/// Switches AES/GHASH between the hot-path implementations (default) and
/// the byte-and-bit-wise reference implementations they were derived from.
///
/// By default AES runs on AES-NI when the CPU has it (x86-64 with the
/// `aes` feature) and on T-table rounds otherwise, and GHASH uses Shoup's
/// 8-bit tables. `true` selects byte-wise AES rounds and the bit-by-bit
/// GF(2^128) multiply on every CPU. All forms compute the identical
/// functions — the per-crate tests check them against each other and
/// against the NIST/FIPS known-answer vectors — so the flag changes
/// wall-clock speed only, never output. The differential oracles
/// (`ne-host`'s `diff_oracle`, `ne-tls`'s `echo_oracle`, `ne-obs`'s
/// `reconcile`) set it on their reference runs and compare replies and
/// exports byte for byte.
pub fn set_reference_impl(on: bool) {
    REFERENCE_IMPL.store(on, Ordering::Relaxed);
}

/// True when [`set_reference_impl`] selected the reference implementation.
pub fn reference_impl() -> bool {
    REFERENCE_IMPL.load(Ordering::Relaxed)
}

/// A 256-bit digest, the unit of enclave measurement in SGX.
pub type Digest32 = [u8; 32];
