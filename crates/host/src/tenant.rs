//! Tenants: who the host serves, and the bookkeeping of their traffic.
//!
//! A tenant owns one outer "gate" enclave and one inner enclave per
//! service (see [`crate::service`]). Requests wait in a bounded per-tenant
//! FIFO between admission and dispatch; everything the host knows about a
//! tenant — priority, queue depth, shed state, traffic counters, recovery
//! and breaker state, attestation verdict, seal counter — lives in its one
//! [`TenantState`] record.

use crate::recovery::RecoveryState;
use crate::service::{service_enclave_name, ServiceKind};
use std::collections::{BTreeMap, VecDeque};
use std::ops::{AddAssign, Sub};

/// Static description of one tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant name; enclave names are derived from it.
    pub name: String,
    /// Scheduling/shedding priority: higher is more important. Under EPC
    /// pressure, the lowest-priority tenants are shed first.
    pub priority: u8,
    /// Services this tenant runs, one inner enclave each.
    pub services: Vec<ServiceKind>,
    /// Bound on the tenant's request queue; submissions beyond it are
    /// rejected (backpressure) rather than buffered without limit.
    pub queue_capacity: usize,
    /// Identity used to seed the tenant's per-service state (models,
    /// datasets, keys, request streams). `None` — the default — means
    /// "my position in the server's tenant list", which is the historic
    /// behavior. The sharded cluster sets it to the tenant's **global**
    /// id so a tenant's streams are identical no matter which shard (and
    /// local slot) it lands on — the property the shard-count-invariance
    /// oracle checks.
    pub seed_index: Option<usize>,
}

impl TenantSpec {
    /// A spec with the default queue capacity (32).
    pub fn new(name: &str, priority: u8, services: Vec<ServiceKind>) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            priority,
            services,
            queue_capacity: 32,
            seed_index: None,
        }
    }

    /// Overrides the queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> TenantSpec {
        self.queue_capacity = capacity;
        self
    }

    /// Pins the tenant's seeding identity (see [`TenantSpec::seed_index`]).
    pub fn seed_index(mut self, index: usize) -> TenantSpec {
        self.seed_index = Some(index);
        self
    }

    /// The tenant's gate (outer enclave) name.
    pub fn gate_name(&self) -> String {
        format!("{}::gate", self.name)
    }

    /// The tenant's enclave names, gate first, then one per service in
    /// spec order.
    pub fn enclave_names(&self) -> Vec<String> {
        std::iter::once(self.gate_name())
            .chain(
                self.services
                    .iter()
                    .map(|&k| service_enclave_name(&self.name, k)),
            )
            .collect()
    }
}

/// One admitted request waiting for (or finished with) service.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index of the owning tenant.
    pub tenant: usize,
    /// Index into the tenant's service list.
    pub service: usize,
    /// Per-tenant admission sequence number (FIFO order witness).
    pub seq: u64,
    /// Arrival time in simulated cycles (on the serving clock).
    pub arrival: u64,
    /// Opaque request payload, built by a
    /// [`crate::service::RequestFactory`].
    pub payload: Vec<u8>,
    /// Dispatch attempts so far (the recovery layer retries faulted
    /// dispatches up to [`crate::recovery::MAX_ATTEMPTS`]).
    pub attempts: u32,
}

/// The record of one served request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Owning tenant.
    pub tenant: usize,
    /// Index into the tenant's service list.
    pub service: usize,
    /// The request's per-tenant sequence number.
    pub seq: u64,
    /// Core the request was served on.
    pub core: usize,
    /// Arrival time (cycles).
    pub arrival: u64,
    /// Cycle the serving core started on it.
    pub start: u64,
    /// Cycle the serving core finished.
    pub end: u64,
    /// End-to-end latency: `end - arrival` (queueing + service).
    pub latency: u64,
    /// The service's reply.
    pub reply: Vec<u8>,
}

/// Appends one reply to an `ne-tenants/v1` reply-digest stream: `u32`
/// service index, `u64` seq, `u32` reply length (all little-endian), then
/// the reply bytes.
pub fn pack_reply(bytes: &mut Vec<u8>, service: usize, seq: u64, reply: &[u8]) {
    bytes.extend_from_slice(&(service as u32).to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(reply.len() as u32).to_le_bytes());
    bytes.extend_from_slice(reply);
}

/// A tenant's `ne-tenants/v1` reply digest: SHA-256 over its
/// `(service, seq, reply)` triples packed with [`pack_reply`] in
/// (service, seq) order, so the digest is independent of the order
/// replies completed in.
pub fn reply_digest<'a>(replies: impl IntoIterator<Item = (usize, u64, &'a [u8])>) -> [u8; 32] {
    let mut replies: Vec<(usize, u64, &[u8])> = replies.into_iter().collect();
    replies.sort_by_key(|&(service, seq, _)| (service, seq));
    let mut hasher = ne_crypto::Sha256::new();
    let mut packed = Vec::new();
    for (service, seq, reply) in replies {
        packed.clear();
        pack_reply(&mut packed, service, seq, reply);
        hasher.update(&packed);
    }
    hasher.finalize()
}

/// Appends a [`reply_digest`] as 64 lowercase hex digits, the form every
/// `ne-tenants/v1` and `ne-obs/v1` export prints it in.
pub fn push_hex(out: &mut String, digest: &[u8; 32]) {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    for &b in digest {
        out.push(char::from(NIBBLES[usize::from(b >> 4)]));
        out.push(char::from(NIBBLES[usize::from(b & 0xf)]));
    }
}

/// A tenant's traffic counters. Reports, migration snapshots and `ne-obs`
/// windows carry the same five counters, so they all embed this one type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Requests accepted by admission control.
    pub accepted: u64,
    /// Requests rejected because the queue was full (backpressure).
    pub rejected_full: u64,
    /// Requests rejected because the tenant was shed (EPC pressure).
    pub rejected_shed: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Accepted requests the recovery layer shed explicitly (attempt
    /// budget or deadline exhausted, unrecoverable application error, or
    /// the tenant's circuit breaker opened). The reply-or-shed invariant
    /// is `accepted == completed + shed_requests` once drained.
    pub shed_requests: u64,
}

impl Traffic {
    /// Rejections of either kind.
    pub fn rejected(&self) -> u64 {
        self.rejected_full + self.rejected_shed
    }
}

/// Field-wise difference, for window deltas of counters that only grow.
impl Sub for Traffic {
    type Output = Traffic;

    fn sub(self, earlier: Traffic) -> Traffic {
        Traffic {
            accepted: self.accepted - earlier.accepted,
            rejected_full: self.rejected_full - earlier.rejected_full,
            rejected_shed: self.rejected_shed - earlier.rejected_shed,
            completed: self.completed - earlier.completed,
            shed_requests: self.shed_requests - earlier.shed_requests,
        }
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, other: Traffic) {
        self.accepted += other.accepted;
        self.rejected_full += other.rejected_full;
        self.rejected_shed += other.rejected_shed;
        self.completed += other.completed;
        self.shed_requests += other.shed_requests;
    }
}

/// Runtime state of one tenant: the host's whole record of it.
#[derive(Debug)]
pub struct TenantState {
    /// The static spec.
    pub spec: TenantSpec,
    /// False when the tenant's enclaves were never loaded because EPC
    /// pressure at build time shed it (lowest priorities first).
    pub loaded: bool,
    /// True while the tenant is shed: new submissions are rejected.
    /// Already-accepted requests still terminate — with a reply, or with
    /// an **explicit, counted** shed ([`Traffic::shed_requests`]);
    /// accepted work is never silently dropped.
    pub shed: bool,
    /// Admitted-but-not-yet-served requests, FIFO.
    pub queue: VecDeque<Request>,
    /// Next admission sequence number.
    pub next_seq: u64,
    /// Traffic counters since the last measurement reset.
    pub traffic: Traffic,
    /// Highest completed sequence number, for FIFO auditing.
    pub last_completed_seq: Option<u64>,
    /// Respawn history and circuit breaker.
    pub recovery: RecoveryState,
    /// "Breaker-open already logged" latch, so the event log carries
    /// exactly one [`crate::recovery::RecoveryEventKind::BreakerOpen`] per
    /// trip.
    pub(crate) breaker_logged: bool,
    /// NEREPORT admission verdict: true once every (gate, service) pair
    /// has a verified attestation chain. Cleared whenever one of the
    /// tenant's enclaves is respawned — a rebuilt enclave is a new
    /// instance and must re-prove its chain before new traffic is
    /// admitted.
    pub(crate) attested: bool,
    /// Typed attestation refusal counts, keyed by
    /// [`ne_core::lifecycle::AttestError::name`].
    pub(crate) attest_failures: BTreeMap<&'static str, u64>,
    /// Attestation epoch (bumped per chain attempt, so every challenge
    /// nonce is fresh).
    pub(crate) attest_epoch: u64,
    /// Monotonic sealed-state counter: the counter the last seal was
    /// stamped with, and the floor a restore must meet.
    pub(crate) seal_counter: u64,
}

impl TenantState {
    /// Fresh state for `spec`; `loaded` reflects whether the tenant's
    /// enclaves were actually built.
    pub fn new(spec: TenantSpec, loaded: bool) -> TenantState {
        TenantState {
            spec,
            loaded,
            shed: !loaded,
            queue: VecDeque::new(),
            next_seq: 0,
            traffic: Traffic::default(),
            last_completed_seq: None,
            recovery: RecoveryState::default(),
            breaker_logged: false,
            attested: false,
            attest_failures: BTreeMap::new(),
            attest_epoch: 0,
            seal_counter: 0,
        }
    }

    /// Requests currently waiting.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// True when every accepted request has terminated — served to
    /// completion or explicitly shed.
    pub fn drained(&self) -> bool {
        let t = &self.traffic;
        t.completed + t.shed_requests == t.accepted && self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_and_names() {
        let s = TenantSpec::new("t0", 3, vec![ServiceKind::Db]).queue_capacity(7);
        assert_eq!(s.queue_capacity, 7);
        assert_eq!(s.gate_name(), "t0::gate");
        assert_eq!(s.enclave_names(), ["t0::gate", "t0::db"]);
    }

    #[test]
    fn unloaded_tenants_start_shed() {
        let s = TenantSpec::new("t", 0, vec![]);
        assert!(!TenantState::new(s.clone(), true).shed);
        assert!(TenantState::new(s, false).shed);
    }
}
