//! Transport session establishment: a real ClientHello / ServerHello
//! exchange over the socket, driven through the existing
//! [`ne_tls::handshake::perform_handshake`] machinery so version and
//! cipher-suite rollback are rejected **on the wire**, before any
//! request frame is read.
//!
//! The master secret is the tenant's pre-shared key
//! ([`ne_host::service::tenant_key`]) — the same "key distributed to
//! the echo server and client" assumption the paper's § VI-A case study
//! makes. Hello randoms are derived deterministically from `(seed,
//! tenant, service)` so a TLS run is exactly as reproducible as a
//! plaintext one; transport crypto is charged **zero simulated
//! cycles** (it happens in the untrusted front door, outside the
//! modeled enclaves), which is what keeps TLS-on-the-wire byte-identical
//! to the in-process oracle in every export.
//!
//! The Hello decoders read a peer's bytes, so this module may not index,
//! unwrap or panic: a malformed Hello is an error, never an abort.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use ne_cluster::splitmix64;
use ne_host::service::tenant_key;
use ne_tls::handshake::{perform_handshake, CipherSuite, ClientHello, TLS_VERSION};

use crate::conn::{ConnError, FramedConn};
use crate::frame::{Frame, FrameKind};

/// Salt for client Hello randoms.
const CLIENT_RANDOM_SALT: u64 = 0x11E1_105C_1E17;
/// Salt for server Hello randoms.
const SERVER_RANDOM_SALT: u64 = 0x11E1_105E_54E2;

fn pair_random(seed: u64, tenant: usize, service: usize, salt: u64) -> [u8; 16] {
    let base = splitmix64(seed ^ salt ^ ((tenant as u64) << 32) ^ service as u64);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&splitmix64(base).to_le_bytes());
    out[8..].copy_from_slice(&splitmix64(base ^ 1).to_le_bytes());
    out
}

/// The deterministic client random for a pair's session.
pub fn client_random(seed: u64, tenant: usize, service: usize) -> [u8; 16] {
    pair_random(seed, tenant, service, CLIENT_RANDOM_SALT)
}

/// The deterministic server random for a pair's session.
pub fn server_random(seed: u64, tenant: usize, service: usize) -> [u8; 16] {
    pair_random(seed, tenant, service, SERVER_RANDOM_SALT)
}

/// Encodes a ClientHello payload: `[version u16][n u8][suite u8 × n]
/// [random 16]`.
pub fn encode_client_hello(hello: &ClientHello) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + hello.suites.len() + 16);
    out.extend_from_slice(&hello.version.to_le_bytes());
    out.push(hello.suites.len() as u8);
    for s in &hello.suites {
        out.push(*s as u8);
    }
    out.extend_from_slice(&hello.random);
    out
}

/// Decodes a ClientHello payload.
///
/// # Errors
///
/// A human-readable reason on malformed bytes.
pub fn decode_client_hello(bytes: &[u8]) -> Result<ClientHello, String> {
    let [v0, v1, n, rest @ ..] = bytes else {
        return Err("short ClientHello".to_string());
    };
    let malformed = || "malformed ClientHello".to_string();
    let (suite_bytes, random) = rest.split_at_checked(*n as usize).ok_or_else(malformed)?;
    let random: [u8; 16] = random.try_into().map_err(|_| malformed())?;
    let mut suites = Vec::with_capacity(suite_bytes.len());
    for &b in suite_bytes {
        suites.push(match b {
            0 => CipherSuite::NullMd5,
            1 => CipherSuite::Aes128Gcm,
            other => return Err(format!("unknown cipher suite {other}")),
        });
    }
    Ok(ClientHello {
        version: u16::from_le_bytes([*v0, *v1]),
        suites,
        random,
    })
}

/// Encodes a ServerHello payload: `[random 16][suite u8]`.
pub fn encode_server_hello(random: [u8; 16], suite: CipherSuite) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.extend_from_slice(&random);
    out.push(suite as u8);
    out
}

/// Decodes a ServerHello payload into the server random.
///
/// # Errors
///
/// A human-readable reason on malformed bytes.
pub fn decode_server_hello(bytes: &[u8]) -> Result<[u8; 16], String> {
    match bytes.split_first_chunk::<16>() {
        Some((random, [_suite])) => Ok(*random),
        _ => Err("malformed ServerHello".to_string()),
    }
}

/// Runs the client side of the transport handshake on `conn` and
/// enables sealed records on success.
///
/// # Errors
///
/// [`ConnError::Protocol`] when the server aborts (e.g. it would be a
/// rollback) or answers out of protocol; transport errors as usual.
pub fn client_handshake(
    conn: &mut FramedConn,
    seed: u64,
    tenant: usize,
    service: usize,
) -> Result<(), ConnError> {
    let hello = ClientHello {
        version: TLS_VERSION,
        suites: vec![CipherSuite::Aes128Gcm],
        random: client_random(seed, tenant, service),
    };
    conn.send(&Frame::new(
        FrameKind::ClientHello,
        tenant as u32,
        service as u32,
        0,
        encode_client_hello(&hello),
    ))?;
    let answer = conn.recv()?;
    match answer.kind {
        FrameKind::ServerHello => {
            let server_random =
                decode_server_hello(&answer.payload).map_err(ConnError::Protocol)?;
            let keys = perform_handshake(&tenant_key(tenant), &hello, server_random)
                .map_err(|e| ConnError::Protocol(e.to_string()))?;
            conn.enable_tls(keys.record_key)?;
            Ok(())
        }
        FrameKind::Abort => Err(ConnError::Protocol(format!(
            "server aborted handshake: {}",
            String::from_utf8_lossy(&answer.payload)
        ))),
        other => Err(ConnError::Protocol(format!(
            "expected ServerHello, got {other:?}"
        ))),
    }
}

/// Runs the server side of the transport handshake given the client's
/// already-received `ClientHello` frame, and enables sealed records on
/// success. On a rollback offer the client gets an Abort with the
/// typed refusal and the connection is reported dead.
///
/// # Errors
///
/// [`ConnError::Protocol`] carrying the handshake refusal, or transport
/// errors.
pub fn server_handshake(conn: &mut FramedConn, offer: &Frame, seed: u64) -> Result<(), ConnError> {
    let tenant = offer.tenant as usize;
    let service = offer.service as usize;
    let hello = decode_client_hello(&offer.payload).map_err(ConnError::Protocol)?;
    let random = server_random(seed, tenant, service);
    match perform_handshake(&tenant_key(tenant), &hello, random) {
        Ok(keys) => {
            conn.send(&Frame::new(
                FrameKind::ServerHello,
                offer.tenant,
                offer.service,
                0,
                encode_server_hello(random, keys.suite),
            ))?;
            conn.enable_tls(keys.record_key)?;
            Ok(())
        }
        Err(e) => {
            // Best-effort notification; the refusal itself is the error.
            let _ = conn.send(&Frame::new(
                FrameKind::Abort,
                offer.tenant,
                offer.service,
                0,
                e.to_string().into_bytes(),
            ));
            Err(ConnError::Protocol(e.to_string()))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn hello_payloads_roundtrip() {
        let hello = ClientHello {
            version: TLS_VERSION,
            suites: vec![CipherSuite::NullMd5, CipherSuite::Aes128Gcm],
            random: client_random(7, 2, 1),
        };
        let decoded = decode_client_hello(&encode_client_hello(&hello)).unwrap();
        assert_eq!(decoded.version, hello.version);
        assert_eq!(decoded.suites, hello.suites);
        assert_eq!(decoded.random, hello.random);
        let random = server_random(7, 2, 1);
        assert_eq!(
            decode_server_hello(&encode_server_hello(random, CipherSuite::Aes128Gcm)).unwrap(),
            random
        );
    }

    #[test]
    fn randoms_are_deterministic_and_distinct() {
        assert_eq!(client_random(7, 0, 0), client_random(7, 0, 0));
        assert_ne!(client_random(7, 0, 0), client_random(7, 0, 1));
        assert_ne!(client_random(7, 0, 0), server_random(7, 0, 0));
    }
}
