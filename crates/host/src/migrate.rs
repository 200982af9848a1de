//! Live tenant migration: the five-phase sealed-state machine.
//!
//! A tenant moves between hosts as `Quiesce → Seal → Remove` on the
//! source ([`HostServer::extract_tenant`]) and `Rebuild → Resume` on the
//! target ([`HostServer::adopt_tenant`]):
//!
//! 1. **Quiesce** — admission for the tenant is already closed by the
//!    caller; queued requests are parked into the snapshot's bounded
//!    buffer ([`MIGRATE_PARK_CAPACITY`]).
//!    Overflow beyond the buffer is shed *explicitly* with
//!    [`ShedReason::Migrating`] — counted in `shed_requests` like every
//!    other loss path, never dropped silently.
//! 2. **Seal** — each service enclave seals its session state into a
//!    versioned, MACed, counter-stamped blob (`ne-core` lifecycle
//!    format) via its `seal` ecall. The seal key is derived inside the
//!    enclave (EGETKEY, seal-to-enclave policy), so the host carries the
//!    blob but cannot read or forge it.
//! 3. **Remove** — the tenant's enclaves are torn down (EREMOVE), their
//!    EPC pages freed. The source slot becomes a dead stub: admission
//!    closed, counters zeroed (they travel inside the snapshot — leaving
//!    them behind would double-count on a same-host round trip).
//! 4. **Rebuild** — the target rebuilds the gate and service enclaves
//!    from the same images and re-associates them (NASSO), then re-proves
//!    the full NEREPORT chain before any state or traffic lands: no
//!    verified chain, no adoption.
//! 5. **Resume** — each sealed blob is handed back through the service's
//!    `restore` ecall with the snapshot's counter as the freshness
//!    floor. A replayed stale blob is refused as the typed
//!    [`HostError::StateRollback`] (the same stance `ne-tls` takes on
//!    version/cipher rollback offers); any other refusal is
//!    [`HostError::SealedState`]. On success the parked requests are
//!    re-queued and admission reopens.
//!
//! A fault inside Rebuild or Resume (chaos can land on the very ecalls
//! that are supposed to receive the migrated state) tears the rebuilt
//! enclaves down and retries both phases with deterministic backoff, up
//! to [`MAX_ATTEMPTS`]; the snapshot still holds the sealed blobs, so a
//! retry loses nothing. Typed refusals are never retried.
//!
//! Every phase runs against a cycle deadline
//! ([`MIGRATE_PHASE_DEADLINE`]); a phase that overruns fails the
//! migration with a typed stall. A failed extraction leaves the source
//! tenant serving (its parked queue is restored); a failed adoption tears the half-built enclaves down and
//! leaves the target clean, so the caller can roll the snapshot back to
//! the source with [`HostServer::rollback_tenant`].
//!
//! The invariant the whole machine exists for: **zero accepted requests
//! dropped**. Requests either complete (possibly on the new host), or
//! terminate as explicit sheds — `accepted == completed + shed_requests`
//! holds through any interleaving of migration and chaos.

use std::collections::BTreeMap;

use ne_core::lifecycle::{attest_chain, AttestError};
use ne_sgx::error::SgxError;

use crate::admission::EPC_LOW_WATER;
use crate::error::{HostError, HostResult};
use crate::recovery::{
    backoff_cycles, MigratePhase, RecoveryEventKind, RecoveryState, ShedReason, MAX_ATTEMPTS,
};
use crate::server::HostServer;
use crate::service::{
    decode_restore_reply, encode_restore_args, encode_seal_args, service_enclave_name,
    RestoreOutcome, ServiceKind,
};
use crate::tenant::{Completion, Request, TenantSpec, TenantState, Traffic};

/// Bound on the number of already-admitted requests a live migration
/// parks while the tenant's enclaves are torn down and rebuilt. Parked
/// requests drain after resume; overflow is shed explicitly with
/// [`ShedReason::Migrating`] — never dropped silently.
pub const MIGRATE_PARK_CAPACITY: usize = 64;
/// Budget (cycles on the migrating core) for each phase of the
/// five-phase migration machine. A phase that overruns fails the
/// migration, which rolls back to the source.
pub const MIGRATE_PHASE_DEADLINE: u64 = 800_000_000;

/// Everything one tenant is, portable across hosts: spec, traffic
/// counters, parked requests, sealed per-service state, and recovery
/// history. Produced by [`HostServer::extract_tenant`], consumed by
/// [`HostServer::adopt_tenant`] / [`HostServer::rollback_tenant`].
///
/// The snapshot is plain data — the sealed blobs inside it are opaque to
/// the host (MACed under keys derived inside the enclaves), so carrying
/// a snapshot across the wire leaks nothing and forging one is caught at
/// restore.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The tenant's spec, including its pinned seeding identity
    /// ([`TenantSpec::seed_index`]) — which is what lets the rebuilt
    /// enclaves on the target derive the same seal key and accept the
    /// blobs.
    pub spec: TenantSpec,
    /// Whether the tenant was shed at extraction time (carried, so a
    /// pressure-shed tenant does not silently un-shed by migrating).
    pub shed: bool,
    /// Traffic counters so far; `shed_requests` includes any quiesce
    /// overflow shed by the extraction itself.
    pub traffic: Traffic,
    /// Next per-tenant sequence number to assign.
    pub next_seq: u64,
    /// Highest completed sequence number, if any.
    pub last_completed_seq: Option<u64>,
    /// Requests that were queued at quiesce, parked for the target to
    /// re-queue at resume. Bounded by [`MIGRATE_PARK_CAPACITY`].
    pub parked: Vec<Request>,
    /// One sealed blob per service, in spec order.
    pub sealed: Vec<(ServiceKind, Vec<u8>)>,
    /// The monotonic counter the blobs were stamped with — the freshness
    /// floor the restore enforces.
    pub seal_counter: u64,
    /// The tenant's completion records (copied, with source-local tenant
    /// indices), so per-tenant reply digests stay whole across the move.
    pub completions: Vec<Completion>,
    /// Cumulative respawns (carried into the target's recovery state).
    pub respawns: u64,
    /// Typed attestation-refusal history, keyed by
    /// [`AttestError::name`].
    pub attest_failures: BTreeMap<&'static str, u64>,
}

impl HostServer {
    /// Fails the migration when `phase` has overrun its cycle budget.
    fn phase_guard(&self, tenant: &str, phase: MigratePhase, start: u64) -> HostResult<()> {
        let elapsed = self.now().saturating_sub(start);
        if elapsed > MIGRATE_PHASE_DEADLINE {
            return Err(HostError::Sgx(SgxError::Stalled(format!(
                "migration {} phase for tenant {tenant} overran its deadline: \
                 {elapsed} > {MIGRATE_PHASE_DEADLINE} cycles",
                phase.name()
            ))));
        }
        Ok(())
    }

    /// Seals every service enclave's state at `counter`, in spec order.
    fn seal_services(
        &mut self,
        spec: &TenantSpec,
        tenant: usize,
        counter: u64,
    ) -> HostResult<Vec<(ServiceKind, Vec<u8>)>> {
        let core = self.idle_core_for("seal")?;
        let identity = spec.seed_index.unwrap_or(tenant) as u64;
        let args = encode_seal_args(identity, counter);
        spec.services
            .iter()
            .map(|&kind| {
                let name = service_enclave_name(&spec.name, kind);
                let blob = self.app.ecall(core, &name, "seal", &args)?;
                Ok((kind, blob))
            })
            .collect()
    }

    /// Extracts `tenant` for migration: quiesces its queue into the
    /// snapshot's bounded park buffer (overflow shed explicitly with
    /// [`ShedReason::Migrating`]), seals every service's state, tears the
    /// enclaves down (EREMOVE), and freezes the slot as a dead stub.
    ///
    /// On error the tenant is left serving at the source with its queue
    /// restored — a failed extraction never half-kills a tenant.
    ///
    /// # Errors
    ///
    /// [`HostError::BadRequest`] for an unknown, unloaded, or
    /// breaker-open tenant; a seal fault or phase-deadline overrun as
    /// [`HostError::Sgx`].
    pub fn extract_tenant(&mut self, tenant: usize) -> HostResult<TenantSnapshot> {
        if tenant >= self.tenants.len() || !self.tenants[tenant].loaded {
            return Err(HostError::BadRequest(format!(
                "no loaded tenant at index {tenant}"
            )));
        }
        if self.tenants[tenant].recovery.breaker_open {
            return Err(HostError::BadRequest(format!(
                "tenant {tenant} has an open breaker; migration needs healthy enclaves"
            )));
        }
        let mut spec = self.tenants[tenant].spec.clone();
        // Pin the seeding identity into the snapshot: the adopting host
        // assigns a fresh local index, and the rebuilt enclaves must
        // derive the *original* identity's seal key or the blobs will
        // never authenticate.
        spec.seed_index = Some(spec.seed_index.unwrap_or(tenant));

        // Quiesce: park the queue, bounded; overflow terminates as
        // explicit sheds (the requests were accepted — they must be
        // accounted, never dropped).
        let quiesce_start = self.now();
        self.log_event_at(
            quiesce_start,
            tenant,
            RecoveryEventKind::Migrate(MigratePhase::Quiesce),
        );
        let mut parked: Vec<Request> = self.tenants[tenant].queue.drain(..).collect();
        let overflow = parked.split_off(parked.len().min(MIGRATE_PARK_CAPACITY));
        if !overflow.is_empty() {
            self.tenants[tenant].traffic.shed_requests += overflow.len() as u64;
            let now = self.now();
            self.log_event_at(now, tenant, RecoveryEventKind::Shed(ShedReason::Migrating));
        }
        // Seal: counter-stamp this migration's blobs one past the last
        // seal, so a replay of any earlier extraction is refused at
        // restore.
        let counter = self.tenants[tenant].seal_counter + 1;
        let sealed = self
            .phase_guard(&spec.name, MigratePhase::Quiesce, quiesce_start)
            .and_then(|()| {
                let seal_start = self.now();
                self.log_event_at(
                    seal_start,
                    tenant,
                    RecoveryEventKind::Migrate(MigratePhase::Seal),
                );
                let sealed = self.seal_services(&spec, tenant, counter)?;
                self.phase_guard(&spec.name, MigratePhase::Seal, seal_start)?;
                Ok(sealed)
            });
        let sealed = match sealed {
            Ok(sealed) => sealed,
            Err(e) => {
                // Un-quiesce: the tenant keeps serving at the source.
                self.tenants[tenant].queue = parked.into_iter().collect();
                return Err(e);
            }
        };
        self.tenants[tenant].seal_counter = counter;

        // Remove: EREMOVE services first, gate last; EPC pages free here.
        let remove_start = self.now();
        self.log_event_at(
            remove_start,
            tenant,
            RecoveryEventKind::Migrate(MigratePhase::Remove),
        );
        for name in spec.enclave_names().iter().rev() {
            self.app.unload(name)?;
        }

        let completions: Vec<Completion> = self
            .completions
            .iter()
            .filter(|c| c.tenant == tenant)
            .cloned()
            .collect();
        let ts = &mut self.tenants[tenant];
        let snap = TenantSnapshot {
            spec,
            shed: ts.shed,
            traffic: ts.traffic,
            next_seq: ts.next_seq,
            last_completed_seq: ts.last_completed_seq,
            parked,
            sealed,
            seal_counter: counter,
            completions,
            respawns: ts.recovery.respawns,
            attest_failures: std::mem::take(&mut ts.attest_failures),
        };
        // Freeze the slot: a dead stub that rejects at the front door and
        // contributes nothing to reports (its counters travel inside the
        // snapshot; leaving them here would double-count after a
        // same-host round trip).
        ts.loaded = false;
        ts.shed = true;
        ts.traffic = Traffic::default();
        ts.recovery.respawns = 0;
        ts.next_seq = 0;
        ts.last_completed_seq = None;
        ts.attested = false;
        Ok(snap)
    }

    /// Adopts an extracted tenant on this host: rebuilds its enclaves,
    /// re-proves the NEREPORT chain and restores the sealed state (all
    /// three retried with backoff on faults), re-queues the parked
    /// requests, and reopens admission. Returns the tenant's **local
    /// index** on this host.
    ///
    /// `floor` is the caller's authoritative freshness floor — the
    /// highest seal counter it has ever seen for this tenant (the
    /// cluster's migration coordinator keeps one per global tenant). A
    /// replayed old snapshot is internally consistent (its blobs match
    /// its own counter), so only an external floor can catch it: the
    /// restore enforces `max(floor, snapshot counter)`. Pass 0 when no
    /// history exists.
    ///
    /// Adoption requires EPC headroom above [`EPC_LOW_WATER`] — a
    /// migration must not immediately push the target into pressure
    /// shedding.
    ///
    /// # Errors
    ///
    /// On any error the target is left clean (half-built enclaves torn
    /// down) and the snapshot is untouched, so the caller can
    /// [`HostServer::rollback_tenant`] it to the source. Stale blobs are
    /// refused as [`HostError::StateRollback`]; other blob refusals as
    /// [`HostError::SealedState`].
    pub fn adopt_tenant(&mut self, snap: &TenantSnapshot, floor: u64) -> HostResult<usize> {
        self.adopt_inner(snap, floor, false)
    }

    /// Re-adopts a snapshot on the host that extracted it, after a failed
    /// adoption elsewhere — the `Rollback` arm of the migration machine.
    /// Identical to [`HostServer::adopt_tenant`] except the phase is
    /// logged as [`MigratePhase::Rollback`] and the EPC check skips the
    /// low-water headroom (the pages were this tenant's to begin with).
    ///
    /// # Errors
    ///
    /// As [`HostServer::adopt_tenant`].
    pub fn rollback_tenant(&mut self, snap: &TenantSnapshot, floor: u64) -> HostResult<usize> {
        self.adopt_inner(snap, floor, true)
    }

    fn adopt_inner(
        &mut self,
        snap: &TenantSnapshot,
        floor: u64,
        rollback: bool,
    ) -> HostResult<usize> {
        let spec = snap.spec.clone();
        if self.app.eid(&spec.gate_name()).is_ok() {
            return Err(HostError::BadRequest(format!(
                "enclaves named for tenant {} already exist on this host",
                spec.name
            )));
        }
        let headroom = if rollback { 0 } else { EPC_LOW_WATER };
        if !self.epc_fits(&spec, headroom) {
            return Err(HostError::Sgx(SgxError::EpcFull));
        }

        let local = self.tenants.len();
        let phase = if rollback {
            MigratePhase::Rollback
        } else {
            MigratePhase::Rebuild
        };
        let rebuild_start = self.now();
        self.log_event_at(rebuild_start, local, RecoveryEventKind::Migrate(phase));

        // Rebuild + NASSO, attest, restore — retried together with
        // deterministic backoff on faults (chaos can land on the very
        // ecalls that are supposed to receive the migrated state). A
        // failed attempt tears the rebuilt enclaves down, so a retry and
        // a final failure both start from a clean target; typed
        // refusals (a replayed or forged blob) are final.
        let identity = spec.seed_index.unwrap_or(local) as u64;
        let min_counter = floor.max(snap.seal_counter);
        let mut attempt: u32 = 0;
        loop {
            let result = match self.load_tenant(&spec, local) {
                Ok(()) => self.finish_adoption(
                    &spec,
                    identity,
                    snap,
                    min_counter,
                    phase,
                    rebuild_start,
                    local,
                ),
                Err(source) => Err(HostError::Sgx(source)),
            };
            let source = match result {
                Ok(()) => break,
                Err(HostError::Sgx(source)) => source,
                Err(refusal) => {
                    self.teardown_enclaves(&spec);
                    self.forget_slot(local);
                    return Err(refusal);
                }
            };
            self.teardown_enclaves(&spec);
            attempt += 1;
            if attempt >= MAX_ATTEMPTS {
                self.forget_slot(local);
                return Err(HostError::Respawn {
                    tenant: spec.name.clone(),
                    source,
                });
            }
            let wait = backoff_cycles(self.seed, local, snap.seal_counter, attempt);
            let now = self.now();
            self.log_event_at(now, local, RecoveryEventKind::Backoff { wait });
            if let Some(core) = self.idle_core() {
                self.app.untrusted(core, |cx| cx.charge(wait));
            }
        }

        // Commit: the tenant exists on this host from here on.
        let mut ts = TenantState::new(spec, true);
        ts.shed = snap.shed;
        ts.traffic = snap.traffic;
        ts.next_seq = snap.next_seq;
        ts.last_completed_seq = snap.last_completed_seq;
        for r in &snap.parked {
            let mut r = r.clone();
            r.tenant = local;
            ts.queue.push_back(r);
        }
        ts.recovery = RecoveryState {
            respawns: snap.respawns,
            ..RecoveryState::default()
        };
        ts.attested = true;
        ts.attest_failures = snap.attest_failures.clone();
        ts.attest_epoch = 1;
        ts.seal_counter = snap.seal_counter;
        self.tenants.push(ts);
        self.sched.add_tenant(local);
        for c in &snap.completions {
            let mut c = c.clone();
            c.tenant = local;
            self.completions.push(c);
        }
        Ok(local)
    }

    /// Forgets the slot a failed adoption was building. `local` was never
    /// created, so no enclave id or recovery event may name it: a chaos
    /// event on a torn-down attempt's enclave would otherwise land on a
    /// tenant that does not exist (or on the next adoption, which reuses
    /// the index), and a sampler would index past its tenant list.
    fn forget_slot(&mut self, local: usize) {
        self.eid_owner.retain(|_, owner| *owner != local);
        self.events.retain(|e| e.tenant != local);
    }

    /// Unloads whatever subset of the spec's enclaves exists, ignoring
    /// errors (cleanup of a partial build).
    fn teardown_enclaves(&mut self, spec: &TenantSpec) {
        for name in spec.enclave_names().iter().rev() {
            if self.app.eid(name).is_ok() {
                let _ = self.app.unload(name);
            }
        }
    }

    /// The attest-and-restore tail of one adoption attempt, separated so
    /// every error path funnels through one teardown in the caller.
    #[allow(clippy::too_many_arguments)]
    fn finish_adoption(
        &mut self,
        spec: &TenantSpec,
        identity: u64,
        snap: &TenantSnapshot,
        min_counter: u64,
        phase: MigratePhase,
        rebuild_start: u64,
        local: usize,
    ) -> HostResult<()> {
        self.phase_guard(&spec.name, phase, rebuild_start)?;

        // NEREPORT-gated adoption: the rebuilt chain must prove itself
        // before any sealed state (or later, traffic) lands. The epoch's
        // top bit keeps adoption nonces disjoint from the per-slot
        // attestation epochs.
        let core = self.idle_core_for("attestation")?;
        let gate = spec.gate_name();
        for &kind in &spec.services {
            let svc = service_enclave_name(&spec.name, kind);
            let nonce = HostServer::attest_nonce(
                self.seed,
                identity,
                kind as u64,
                (1 << 63) | snap.seal_counter,
            );
            if let Err(e) = attest_chain(&mut self.app, core, &gate, &svc, &nonce) {
                return Err(match e {
                    AttestError::Sgx(source) => HostError::Sgx(source),
                    refusal => HostError::SealedState {
                        tenant: spec.name.clone(),
                        reason: format!("attestation refused: {refusal}"),
                    },
                });
            }
        }

        // Resume: hand each blob back through the service's restore
        // ecall. Refusals come back as typed reply bytes (the enclave
        // rejecting input, not faulting), so the host can distinguish a
        // replay from a forgery without string-matching.
        let resume_start = self.now();
        self.log_event_at(
            resume_start,
            local,
            RecoveryEventKind::Migrate(MigratePhase::Resume),
        );
        for (kind, blob) in &snap.sealed {
            let name = service_enclave_name(&spec.name, *kind);
            let args = encode_restore_args(identity, min_counter, blob);
            let core = self.idle_core_for("restore")?;
            let reply = self.app.ecall(core, &name, "restore", &args)?;
            let reason = match decode_restore_reply(&reply) {
                Some(RestoreOutcome::Ok { .. }) => continue,
                Some(RestoreOutcome::Rollback {
                    presented,
                    expected,
                }) => {
                    return Err(HostError::StateRollback {
                        tenant: spec.name.clone(),
                        presented,
                        expected,
                    });
                }
                Some(RestoreOutcome::BadMac) => "sealed blob failed authentication",
                Some(RestoreOutcome::Malformed) => "sealed blob malformed",
                Some(RestoreOutcome::BadPayload) => "authenticated payload rejected by the service",
                None => {
                    return Err(HostError::Internal(format!(
                        "unintelligible restore reply from {name}"
                    )));
                }
            };
            return Err(HostError::SealedState {
                tenant: spec.name.clone(),
                reason: reason.into(),
            });
        }
        self.phase_guard(&spec.name, MigratePhase::Resume, resume_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Admission;
    use crate::server::HostConfig;
    use crate::service::RequestFactory;

    fn specs(n: usize, services: &[ServiceKind]) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec::new(&format!("t{i}"), (n - i) as u8, services.to_vec()))
            .collect()
    }

    /// Submits `per_tenant` requests to each (tenant slot, factory) pair
    /// and drains; the factories persist across calls (and migrations),
    /// like the cluster's do.
    fn run_segment(
        server: &mut HostServer,
        slots: &[usize],
        factories: &mut [RequestFactory],
        per_tenant: usize,
    ) -> u64 {
        let mut accepted = 0;
        for _ in 0..per_tenant {
            for (&slot, f) in slots.iter().zip(factories.iter_mut()) {
                if server.submit(slot, 0, 0, f.next_request()).is_accepted() {
                    accepted += 1;
                }
            }
        }
        server.drain().unwrap();
        accepted
    }

    fn replies_for(server: &HostServer, slot: usize) -> Vec<(usize, u64, Vec<u8>)> {
        let mut rows: Vec<(usize, u64, Vec<u8>)> = server
            .completions()
            .iter()
            .filter(|c| c.tenant == slot)
            .map(|c| (c.service, c.seq, c.reply.clone()))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn round_trip_preserves_state_and_reply_bytes() {
        // Migrated run: serve, extract tenant 0, adopt it back (new local
        // slot), serve more through the rebuilt+restored enclaves.
        let mut server = HostServer::build(HostConfig::new(specs(2, &[ServiceKind::Db]))).unwrap();
        let mut factories = vec![
            RequestFactory::new(ServiceKind::Db, 0, 42),
            RequestFactory::new(ServiceKind::Db, 1, 42),
        ];
        let a1 = run_segment(&mut server, &[0, 1], &mut factories, 4);
        assert_eq!(a1, 8);

        let snap = server.extract_tenant(0).unwrap();
        assert_eq!(snap.seal_counter, 1);
        assert_eq!(snap.traffic.completed, 4);
        assert!(!server.tenants()[0].loaded, "source slot is a dead stub");
        assert_eq!(
            server.tenants()[0].traffic.accepted,
            0,
            "counters travel, not stay"
        );

        let local = server.adopt_tenant(&snap, snap.seal_counter).unwrap();
        assert_eq!(local, 2);
        assert!(server.attested(local), "adoption re-proved the chain");
        let a2 = run_segment(&mut server, &[local, 1], &mut factories, 4);
        assert_eq!(a2, 8);
        let migrated = replies_for(&server, local);
        assert_eq!(migrated.len(), 8, "old completions carried + new ones");

        // Control run: identical workload, no migration.
        let mut control = HostServer::build(HostConfig::new(specs(2, &[ServiceKind::Db]))).unwrap();
        let mut cf = vec![
            RequestFactory::new(ServiceKind::Db, 0, 42),
            RequestFactory::new(ServiceKind::Db, 1, 42),
        ];
        run_segment(&mut control, &[0, 1], &mut cf, 4);
        run_segment(&mut control, &[0, 1], &mut cf, 4);
        assert_eq!(
            migrated,
            replies_for(&control, 0),
            "per-request reply bytes are migration-invariant"
        );

        // The five phases all hit the event log, in order.
        let phases: Vec<&str> = server
            .recovery_events()
            .iter()
            .filter_map(|e| match e.kind {
                RecoveryEventKind::Migrate(p) => Some(p.name()),
                _ => None,
            })
            .collect();
        assert_eq!(phases, ["quiesce", "seal", "remove", "rebuild", "resume"]);
    }

    #[test]
    fn parked_requests_drain_after_adoption_with_zero_drops() {
        let mut server =
            HostServer::build(HostConfig::new(specs(1, &[ServiceKind::TlsEcho]))).unwrap();
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        for _ in 0..5 {
            assert!(server.submit(0, 0, 0, f.next_request()).is_accepted());
        }
        // Mid-migration: the queue is parked into the snapshot, not lost.
        let snap = server.extract_tenant(0).unwrap();
        assert_eq!(snap.parked.len(), 5);
        assert_eq!(snap.traffic.accepted, 5);
        assert_eq!(snap.traffic.completed, 0);
        let local = server.adopt_tenant(&snap, snap.seal_counter).unwrap();
        assert_eq!(server.pending(), 5, "parked requests re-queued at resume");
        server.drain().unwrap();
        let t = &server.tenants()[local].traffic;
        assert_eq!(t.accepted, t.completed + t.shed_requests, "reply-or-shed");
        assert_eq!((t.completed, t.shed_requests), (5, 0), "zero drops");
    }

    #[test]
    fn park_overflow_is_shed_explicitly_never_dropped() {
        let queued = MIGRATE_PARK_CAPACITY + 3;
        let tenants =
            vec![TenantSpec::new("t0", 1, vec![ServiceKind::TlsEcho]).queue_capacity(queued)];
        let mut server = HostServer::build(HostConfig::new(tenants)).unwrap();
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        for _ in 0..queued {
            assert!(server.submit(0, 0, 0, f.next_request()).is_accepted());
        }
        let snap = server.extract_tenant(0).unwrap();
        assert_eq!(
            snap.parked.len(),
            MIGRATE_PARK_CAPACITY,
            "bounded park buffer"
        );
        assert_eq!(snap.traffic.shed_requests, 3, "overflow shed, counted");
        assert!(
            server
                .recovery_events()
                .iter()
                .any(|e| e.kind == RecoveryEventKind::Shed(ShedReason::Migrating)),
            "overflow shed carries the Migrating reason"
        );
        let local = server.adopt_tenant(&snap, snap.seal_counter).unwrap();
        server.drain().unwrap();
        let t = &server.tenants()[local].traffic;
        assert_eq!(t.accepted, t.completed + t.shed_requests, "reply-or-shed");
        assert_eq!(
            (t.completed, t.shed_requests),
            (MIGRATE_PARK_CAPACITY as u64, 3)
        );
    }

    #[test]
    fn stale_snapshot_replay_is_refused_with_typed_rollback() {
        let mut server = HostServer::build(HostConfig::new(specs(1, &[ServiceKind::Db]))).unwrap();
        let mut factories = vec![RequestFactory::new(ServiceKind::Db, 0, 42)];
        run_segment(&mut server, &[0], &mut factories, 2);
        let stale = server.extract_tenant(0).unwrap();
        let local = server.adopt_tenant(&stale, stale.seal_counter).unwrap();
        run_segment(&mut server, &[local], &mut factories, 2);
        let fresh = server.extract_tenant(local).unwrap();
        assert_eq!((stale.seal_counter, fresh.seal_counter), (1, 2));

        // Replaying the internally-consistent stale snapshot against the
        // coordinator's floor is refused with the typed rollback error —
        // the ne-tls stance: refuse, never downgrade.
        let err = server.adopt_tenant(&stale, fresh.seal_counter).unwrap_err();
        assert_eq!(
            err,
            HostError::StateRollback {
                tenant: "t0".into(),
                presented: 1,
                expected: 2,
            }
        );
        // The refusal left the host clean: the fresh snapshot still lands.
        let local = server.adopt_tenant(&fresh, fresh.seal_counter).unwrap();
        run_segment(&mut server, &[local], &mut factories, 2);
        let t = &server.tenants()[local].traffic;
        assert_eq!(t.accepted, t.completed + t.shed_requests, "reply-or-shed");
    }

    #[test]
    fn failed_adoption_rolls_back_to_source() {
        // Target with no EPC headroom refuses the adoption; the snapshot
        // then rolls back onto the source, which skips the low-water
        // headroom (the pages were the tenant's to begin with).
        let mut server =
            HostServer::build(HostConfig::new(specs(1, &[ServiceKind::TlsEcho]))).unwrap();
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        for _ in 0..3 {
            assert!(server.submit(0, 0, 0, f.next_request()).is_accepted());
        }
        let snap = server.extract_tenant(0).unwrap();
        let need = crate::server::tenant_epc_pages(&snap.spec);

        // Size the target's PRM so that, with its own tenant loaded,
        // `need <= free < need + EPC_LOW_WATER`: the pages fit, but the
        // adoption headroom cannot be met.
        let target_specs = || vec![TenantSpec::new("other", 1, vec![ServiceKind::TlsEcho])];
        let probe = HostServer::build(HostConfig::new(target_specs())).unwrap();
        let mut cfg = HostConfig::new(target_specs());
        cfg.hw.prm_pages =
            cfg.hw.prm_pages - probe.app.machine.free_epc_pages() as u64 + need + EPC_LOW_WATER - 1;
        let mut target = HostServer::build(cfg).unwrap();
        assert!(target.tenants()[0].loaded, "the target's own tenant fits");
        let free = target.app.machine.free_epc_pages() as u64;
        assert!(need <= free && free < need + EPC_LOW_WATER, "free {free}");
        assert_eq!(
            target.adopt_tenant(&snap, snap.seal_counter).unwrap_err(),
            HostError::Sgx(SgxError::EpcFull)
        );
        let local = server.rollback_tenant(&snap, snap.seal_counter).unwrap();
        let phases: Vec<&str> = server
            .recovery_events()
            .iter()
            .filter_map(|e| match e.kind {
                RecoveryEventKind::Migrate(p) => Some(p.name()),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&"rollback"), "rollback phase logged");
        server.drain().unwrap();
        let t = &server.tenants()[local].traffic;
        assert_eq!((t.completed, t.shed_requests), (3, 0), "zero drops");
    }

    #[test]
    fn unattested_tenant_is_refused_admission() {
        let mut server =
            HostServer::build(HostConfig::new(specs(1, &[ServiceKind::TlsEcho]))).unwrap();
        assert!(server.attested(0), "build attests loaded tenants");
        // Break the chain: tear the inner service down behind the host's
        // back and invalidate the verdict, as a respawn would.
        let svc = service_enclave_name("t0", ServiceKind::TlsEcho);
        server.app.unload(&svc).unwrap();
        server.tenants[0].attested = false;
        let mut f = RequestFactory::new(ServiceKind::TlsEcho, 0, 7);
        assert_eq!(
            server.submit(0, 0, 0, f.next_request()),
            Admission::RejectedUnattested,
            "no verified chain, no traffic"
        );
        assert_eq!(
            server.attest_failures(0).values().sum::<u64>(),
            1,
            "the refusal reason was counted"
        );
    }
}
