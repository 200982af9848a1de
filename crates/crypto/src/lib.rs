#![warn(missing_docs)]

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
//! Everything here is implemented from scratch in safe Rust so the workspace
//! has no external crypto dependencies. These implementations favour clarity
//! over speed; the simulator's *cost model* (not the host speed of this code)
//! is what drives the paper's performance figures.
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

/// Switches AES/GHASH between the table-driven hot-path implementation
/// (default) and the byte-and-bit-wise reference implementation they were
/// derived from. Both compute the identical functions — the per-crate tests
/// check them against each other and against the NIST/FIPS known-answer
/// vectors — so the flag changes wall-clock speed only, never output. The
/// differential oracles (`ne-host`'s `diff_oracle`, `ne-tls`'s
/// `echo_oracle`, `ne-obs`'s `reconcile`) set it on their reference runs
/// and compare replies and exports byte for byte; `ne-load --reference`
/// sets it for a whole run.
pub fn set_reference_impl(on: bool) {
    REFERENCE_IMPL.store(on, Ordering::Relaxed);
}

/// True when [`set_reference_impl`] selected the reference implementation.
pub fn reference_impl() -> bool {
    REFERENCE_IMPL.load(Ordering::Relaxed)
}

/// A 256-bit digest, the unit of enclave measurement in SGX.
pub type Digest32 = [u8; 32];
