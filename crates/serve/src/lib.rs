#![deny(missing_docs)]

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
//!   between socket polls;
//! * [`client`] — [`client::LoadClient`], the seeded wire client behind
//!   `ne-load --connect` (one connection per (tenant, service) pair,
//!   open or closed loop, deterministic report);
//! * [`oracle`] — the same scenario run entirely in-process through the
//!   same per-shard sequence, the byte-exact oracle.
//!
//! # Clock discipline and the oracle invariant
//!
//! The wire never touches the simulation clock. Arrival stamps come
//! from simulated state only (`0` and completion times for the closed
//! loop, the seeded Poisson schedule for the open loop, `now()` during
//! warmup); socket reads are **blocking reads on the specific pair the
//! drive loop would consult next**, so network interleaving cannot
//! reorder submissions. The headline invariant, asserted by integration
//! test and CI's `serve-smoke` job: the same seeded scenario served
//! over TCP produces **byte-identical** `ne-tenants/v1`,
//! `ne-metrics/v2`, and `ne-obs/v1` exports to the in-process run —
//! with or without TLS on the wire.

pub mod client;
pub mod conn;
pub mod frame;
pub mod oracle;
pub mod server;
pub mod session;

pub use client::{ClientConfig, ClientReport, LoadClient};
pub use conn::{ConnError, FramedConn};
pub use frame::{Decoder, Frame, FrameError, FrameKind};
pub use server::{FrontDoor, ServeConfig, ServeOutcome};

/// Arrival process of a serving run (the wire protocol carries it in
/// the Hello so server and client agree on the scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One client per (tenant, service), next request at the previous
    /// completion time.
    Closed,
    /// Seeded Poisson arrivals offered regardless of completions.
    Open,
}

impl Mode {
    /// Stable name, also used in export labels.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed-loop",
            Mode::Open => "open-loop",
        }
    }

    /// Wire encoding of the mode.
    pub fn to_byte(self) -> u8 {
        match self {
            Mode::Closed => 0,
            Mode::Open => 1,
        }
    }

    /// Decodes a wire mode byte.
    pub fn from_byte(b: u8) -> Option<Mode> {
        match b {
            0 => Some(Mode::Closed),
            1 => Some(Mode::Open),
            _ => None,
        }
    }
}

/// The scenario a Hello frame pins down. Server and client must agree
/// on every field — the generator streams are seeded from them, so a
/// mismatch would silently desynchronize payloads; the server refuses
/// it up front instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Base seed of every generator stream.
    pub seed: u64,
    /// Arrival process.
    pub mode: Mode,
    /// Measured requests per (tenant, service) pair.
    pub requests: u32,
    /// Number of tenants.
    pub tenants: u32,
    /// Services per tenant.
    pub services: u32,
}

impl Scenario {
    /// Encodes the scenario as a Hello payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(self.mode.to_byte());
        out.extend_from_slice(&self.requests.to_le_bytes());
        out.extend_from_slice(&self.tenants.to_le_bytes());
        out.extend_from_slice(&self.services.to_le_bytes());
        out
    }

    /// Decodes a Hello payload.
    ///
    /// # Errors
    ///
    /// A human-readable reason on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Scenario, String> {
        if bytes.len() != 21 {
            return Err("malformed Hello payload".to_string());
        }
        Ok(Scenario {
            seed: frame::le_u64(&bytes[..8]),
            mode: Mode::from_byte(bytes[8]).ok_or_else(|| format!("unknown mode {}", bytes[8]))?,
            requests: frame::le_u32(&bytes[9..13]),
            tenants: frame::le_u32(&bytes[13..17]),
            services: frame::le_u32(&bytes[17..21]),
        })
    }
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
        if bytes.len() < 48 {
            return Err("short Reply payload".to_string());
        }
        let reply_len = frame::le_u32(&bytes[44..48]) as usize;
        if bytes.len() != 48 + reply_len {
            return Err("malformed Reply payload".to_string());
        }
        Ok(WireCompletion {
            seq: frame::le_u64(&bytes[..8]),
            arrival: frame::le_u64(&bytes[8..16]),
            start: frame::le_u64(&bytes[16..24]),
            end: frame::le_u64(&bytes[24..32]),
            latency: frame::le_u64(&bytes[32..40]),
            core: frame::le_u32(&bytes[40..44]),
            reply: bytes[48..].to_vec(),
        })
    }
}
