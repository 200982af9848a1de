#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # ne-core — Nested Enclave (ISCA 2020) on the `ne-sgx` simulator
//!
//! The paper's contribution, reproduced end to end:
//!
//! * [`validate::NestedValidator`] — the extended TLB-miss validation flow
//!   of Fig. 6 (inner enclaves may touch their outer enclave's memory,
//!   never the reverse), including § VIII's multi-level nesting and
//!   multiple-outer (lattice) extensions.
//! * [`nasso()`] — the `NASSO` association instruction with cross-validated
//!   expected identities (Fig. 4, § IV-B).
//! * [`transitions`] — `NEENTER`/`NEEXIT`, the direct inner↔outer
//!   transitions with TLB-flush and register-scrub semantics (Fig. 5).
//! * [`report`] — `NEREPORT`, attestation extended with nesting relations.
//! * [`edl`], [`loader`], [`runtime`] — the SDK layer: EDL interfaces with
//!   `n_ecall`/`n_ocall`, signed enclave images with embedded counterpart
//!   expectations, and the dispatch runtime that drives the instructions.
//! * [`channel`] — the § VI-C communication story: the MEE-protected
//!   outer-enclave channel vs. the software-GCM untrusted channel.
//!
//! # Example: confine a library in the outer enclave
//!
//! ```
//! use ne_core::edl::Edl;
//! use ne_core::loader::EnclaveImage;
//! use ne_core::runtime::{EnclaveCtx, NestedApp, TrustedFn};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), ne_sgx::error::SgxError> {
//! let mut app = NestedApp::new(ne_sgx::config::HwConfig::small());
//! // Outer enclave: an untrusted 3rd-party library.
//! let lib = EnclaveImage::new("ssl-lib", b"openssl-project")
//!     .edl(Edl::new());
//! let encrypt: TrustedFn = Arc::new(|_cx: &mut EnclaveCtx<'_>, args: &[u8]| {
//!     Ok(args.iter().map(|b| b ^ 0x42).collect())
//! });
//! app.load(lib, [("encrypt".to_string(), encrypt)])?;
//! // Inner enclave: privacy-sensitive application code.
//! let main = EnclaveImage::new("main-app", b"service-provider")
//!     .edl(Edl::new().ecall("handle").n_ocall("encrypt"));
//! let handle: TrustedFn = Arc::new(|cx: &mut EnclaveCtx<'_>, args: &[u8]| {
//!     cx.n_ocall("encrypt", args) // library call with procedure-call syntax
//! });
//! app.load(main, [("handle".to_string(), handle)])?;
//! app.associate("main-app", "ssl-lib")?;
//! let out = app.ecall(0, "main-app", "handle", b"hi")?;
//! assert_eq!(out, vec![b'h' ^ 0x42, b'i' ^ 0x42]);
//! # Ok(())
//! # }
//! ```

pub mod channel;
pub mod edl;
pub mod lifecycle;
pub mod loader;
pub mod nasso;
pub mod quote;
pub mod rendezvous;
pub mod report;
pub mod runtime;
pub mod switchless;
pub mod transitions;
pub mod validate;

pub use channel::{OuterChannel, UntrustedChannel};
pub use edl::Edl;
pub use lifecycle::{
    attest_chain, peek_header, seal_state, unseal_state, AttestError, LifecycleError,
};
pub use loader::{load_image, EnclaveImage, LoadedLayout};
pub use nasso::{nasso, AssocPolicy, ExpectedIdentity};
pub use quote::{attest_remote, NestedQuote, QuotingEnclave, RemoteVerifier};
pub use rendezvous::{accept_channel, offer_channel, ChannelOffer};
pub use report::{nereport, verify_nested_report, NestedReport, Relation};
pub use runtime::{EnclaveCtx, NestedApp, TrustedFn, UntrustedCtx, UntrustedFn};
pub use switchless::SwitchlessQueue;
pub use transitions::{neenter, neexit, neexit_to};
pub use validate::NestedValidator;
