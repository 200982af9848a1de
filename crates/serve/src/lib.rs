#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # ne-serve — the wire front door
//!
//! Everything below `ne-serve` drives the simulated hosting server
//! in-process; this crate puts a **real loopback TCP socket** in front
//! of it, the shape an enclave-hosted service actually has: untrusted
//! clients speak a wire protocol, the gate enclave terminates the
//! session, and requests flow through admission → scheduler → service
//! enclaves exactly as before.
//!
//! The moving parts:
//!
//! * [`frame`] — the length-prefixed frame codec: a 28-byte versioned
//!   header (magic, version, kind, tenant, service, request id, payload
//!   length, checksum), a bounded streaming [`frame::Decoder`] with
//!   typed [`frame::FrameError`]s that latches on corruption instead of
//!   resynchronizing wrongly;
//! * [`conn`] — a framed TCP connection ([`conn::FramedConn`]) with a
//!   per-connection read deadline, splittable into send/receive halves,
//!   optionally sealing every frame in a `ne-tls` record;
//! * [`session`] — the transport handshake: a real ClientHello /
//!   ServerHello exchange over the socket, driven through
//!   [`ne_tls::handshake::perform_handshake`] (version and cipher-suite
//!   rollback are rejected on the wire) with the tenant's pre-shared
//!   key as master secret;
//! * [`server`] — [`server::FrontDoor`], the blocking accept loop plus
//!   the serve loop: decoded requests feed the cluster's one drive loop
//!   ([`ne_cluster::drive::closed_loop`] /
//!   [`ne_cluster::drive::open_loop`]), which steps the simulated machine
//!   between socket polls, and [`server::run_oracle`], the same scenario
//!   run in-process through the same per-shard sequence (the oracle);
//! * [`client`] — [`client::LoadClient`], the seeded wire client behind
//!   `ne-load --connect` (one connection per (tenant, service) pair,
//!   open or closed loop, deterministic report).
//!
//! # Clock discipline and the oracle invariant
//!
//! The wire never touches the simulation clock. Arrival stamps come
//! from simulated state only (`0` and completion times for the closed
//! loop, the seeded Poisson schedule for the open loop, `now()` during
//! warmup); socket reads are **blocking reads on the specific pair the
//! drive loop would consult next**, so network interleaving cannot
//! reorder submissions. The headline invariant, asserted by the
//! `wire_oracle` integration tests and by CI's diff of a TLS wire run
//! against the oracle's committed exports: the same seeded scenario served
//! over TCP produces **byte-identical** `ne-tenants/v1`,
//! `ne-metrics/v2`, and `ne-obs/v1` exports to the in-process run —
//! with or without TLS on the wire.

pub mod client;
pub mod conn;
pub mod frame;
pub mod server;
pub mod session;

pub use client::{ClientConfig, ClientReport, LoadClient};
pub use conn::{ConnError, FramedConn};
pub use frame::{Decoder, Frame, FrameError, FrameKind};
pub use server::{run_oracle, FrontDoor, ServeConfig, ServeOutcome};

/// The scenario type every serving path shares; [`Mode`] stays
/// importable from here.
pub use ne_cluster::{Mode, Scenario};

/// Length of a Hello payload.
const HELLO_LEN: usize = 21;

/// Encodes the wire fields of `scenario` as a Hello payload: the seed,
/// a mode byte (closed 0, open 1), then requests, tenants and services
/// as `u32`. Server and client must agree on every one — the generator
/// streams are seeded from them, so a mismatch would silently
/// desynchronize payloads. Chaos and the timeline window are the
/// server's alone.
#[deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
pub fn hello_payload(scenario: &Scenario) -> Vec<u8> {
    let mut out = Vec::with_capacity(HELLO_LEN);
    out.extend_from_slice(&scenario.seed.to_le_bytes());
    out.push(u8::from(scenario.mode == Mode::Open));
    for n in [scenario.requests, scenario.tenants, scenario.services] {
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }
    out
}

/// Checks a client's Hello payload against the server's scenario.
///
/// # Errors
///
/// The refusal the server sends back in its Abort: a malformed payload,
/// an unknown mode byte, or a scenario mismatch.
#[deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
pub(crate) fn check_hello(payload: &[u8], scenario: &Scenario) -> Result<(), String> {
    if payload.len() != HELLO_LEN {
        return Err("malformed Hello payload".to_string());
    }
    if let Some(mode @ 2..) = payload.get(8).copied() {
        return Err(format!("unknown mode {mode}"));
    }
    if payload != hello_payload(scenario) {
        return Err("scenario mismatch".to_string());
    }
    Ok(())
}

/// A completion as carried by a Reply frame: the simulated timings plus
/// the reply bytes, everything the client needs for a byte-deterministic
/// report (latencies and digests are simulation facts, not wall-clock
/// ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCompletion {
    /// Per-(tenant, service) completion sequence number.
    pub seq: u64,
    /// Arrival stamp the request was submitted with (simulated cycles).
    pub arrival: u64,
    /// Service start (simulated cycles).
    pub start: u64,
    /// Completion time (simulated cycles).
    pub end: u64,
    /// End-to-end latency (simulated cycles).
    pub latency: u64,
    /// Serving core.
    pub core: u32,
    /// Reply bytes.
    pub reply: Vec<u8>,
}

#[deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
impl WireCompletion {
    /// Packs a [`ne_host::Completion`] into a Reply payload.
    pub fn from_completion(c: &ne_host::Completion) -> WireCompletion {
        WireCompletion {
            seq: c.seq,
            arrival: c.arrival,
            start: c.start,
            end: c.end,
            latency: c.latency,
            core: c.core as u32,
            reply: c.reply.clone(),
        }
    }

    /// Encodes as a Reply payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.reply.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.arrival.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        out.extend_from_slice(&self.latency.to_le_bytes());
        out.extend_from_slice(&self.core.to_le_bytes());
        out.extend_from_slice(&(self.reply.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.reply);
        out
    }

    /// Decodes a Reply payload.
    ///
    /// # Errors
    ///
    /// A human-readable reason on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<WireCompletion, String> {
        let Some((head, reply)) = bytes.split_first_chunk::<48>() else {
            return Err("short Reply payload".to_string());
        };
        if reply.len() != frame::le_u32(&head[44..]) as usize {
            return Err("malformed Reply payload".to_string());
        }
        Ok(WireCompletion {
            seq: frame::le_u64(&head[..8]),
            arrival: frame::le_u64(&head[8..16]),
            start: frame::le_u64(&head[16..24]),
            end: frame::le_u64(&head[24..32]),
            latency: frame::le_u64(&head[32..40]),
            core: frame::le_u32(&head[40..44]),
            reply: reply.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_decode_refuses_every_wrong_length() {
        let mut bytes = vec![7; 44];
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"pong");
        let decoded = WireCompletion::decode(&bytes);
        assert_eq!(decoded.map(|c| c.encode()).as_ref(), Ok(&bytes));
        for cut in 0..bytes.len() {
            assert!(
                WireCompletion::decode(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        bytes.push(0);
        assert!(WireCompletion::decode(&bytes).is_err());
    }

    #[test]
    fn hello_mode_byte_past_open_is_refused() {
        let scenario = Scenario::new(3, 2, 8, 7);
        let mut hello = hello_payload(&scenario);
        assert_eq!(check_hello(&hello, &scenario), Ok(()));
        hello[8] = 2;
        assert_eq!(
            check_hello(&hello, &scenario),
            Err("unknown mode 2".to_string())
        );
    }
}
