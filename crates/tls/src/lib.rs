#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ne-tls — a miniature TLS-like library with a HeartBleed-style bug
//!
//! Substrate for the paper's § VI-A confinement case study. It plays the
//! role of (SGX-)OpenSSL:
//!
//! * [`handshake`] — session establishment with version/cipher-suite
//!   rollback detection,
//! * [`record`] — an authenticated record layer (AES-GCM, sequence
//!   numbers),
//! * [`heartbeat`] — the heartbeat extension, optionally compiled in its
//!   *vulnerable* form: a crafted request makes the library over-read past
//!   the request payload in its address space, exactly like
//!   CVE-2014-0160,
//! * [`echo`] — the SSL echo server of Fig. 7, runnable in monolithic
//!   (everything in one enclave) or nested (library in the outer enclave,
//!   application in an inner enclave) configuration.
//!
//! # Example
//!
//! ```
//! use ne_tls::record::RecordLayer;
//!
//! let mut client = RecordLayer::new([7u8; 16]);
//! let mut server = RecordLayer::new([7u8; 16]);
//! let wire = client.seal(ne_tls::record::ContentType::Data, b"ping");
//! let (ty, payload) = server.open(&wire).unwrap();
//! assert_eq!(ty, ne_tls::record::ContentType::Data);
//! assert_eq!(payload, b"ping");
//! ```

pub mod echo;
pub mod handshake;
pub mod heartbeat;
pub mod record;

pub use echo::{run_echo, EchoConfig, EchoRun};
pub use handshake::{perform_handshake, HandshakeError, SessionKeys, TLS_VERSION};
pub use heartbeat::{process_heartbeat, HeartbeatConfig};
pub use record::{ContentType, RecordError, RecordLayer};
