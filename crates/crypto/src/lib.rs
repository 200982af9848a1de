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
//! external crypto dependencies. The crate keeps no state and has no
//! switch: AES runs on the CPU's AES-NI instructions where it has them (the
//! workspace's one `unsafe` module, in [`aes`]) and on the byte-wise
//! FIPS-197 rounds otherwise; GHASH multiplies on Shoup's byte tables, and
//! SHA-256 is portable safe Rust. The reference forms are plain functions
//! the tests call by name ([`aes::Aes128::encrypt_block_reference`],
//! [`AesGcm::seal_reference`], [`AesGcm::open_reference`]) to hold the fast
//! forms to the same bytes. The simulator's *cost model* (not the host
//! speed of this code) is what drives the paper's performance figures;
//! host speed only decides how long the benches take.
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

/// A 256-bit digest, the unit of enclave measurement in SGX.
pub type Digest32 = [u8; 32];
