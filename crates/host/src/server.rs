//! The hosting server: tenants, gates, and the serving loop.
//!
//! [`HostServer::build`] loads one outer **gate** enclave per tenant and
//! one inner enclave per service, highest-priority tenants first; a tenant
//! whose enclaves would push free EPC below the admission controller's
//! low-water mark is *shed at birth* — its enclaves are never loaded and
//! its submissions are rejected — rather than loaded into a working set
//! that would thrash through EWB/ELDU for everyone.
//!
//! A request's life: [`HostServer::submit`] runs admission control
//! ([`crate::admission`]); [`HostServer::step`] lets the scheduler
//! ([`crate::scheduler`]) pick a core and a request, idle-advances the
//! core's clock to the arrival time if the core was ahead of it, and
//! drives the full nested call chain:
//!
//! ```text
//! untrusted ── ecall ──► tenant gate (outer) ── n_ecall ──► service (inner)
//!      ▲                   │   ▲                                 │
//!      └── reply ocall ────┘   └───────────── reply ◄────────────┘
//!       (switchless when a worker core is reserved)
//! ```
//!
//! End-to-end latency (`completion − arrival`) is noted as an
//! [`Event::Request`] into the machine's always-on profile, so the
//! standard metrics/bench exports pick up request p50/p99 with no extra
//! plumbing.
//!
//! **Self-healing**: when a chaos plan ([`ne_sgx::fault::FaultPlan`]) is
//! installed, dispatches can fault. [`HostServer::step`] classifies every
//! fault ([`crate::recovery::classify`]), repairs what is repairable —
//! reload chaos-evicted pages, respawn a poisoned enclave
//! (EREMOVE → rebuild → NASSO re-association), respawn a whole tenant
//! after an integrity violation — charges a deterministic backoff, and
//! retries, all without touching sibling tenants. A request whose attempt
//! budget or deadline runs out is shed **explicitly and counted**
//! ([`crate::tenant::Traffic::shed_requests`]); a tenant whose
//! respawns churn trips a circuit breaker and fails fast. The server loop
//! itself never panics on an injected fault.

use crate::admission::{self, Admission, EPC_LOW_WATER};
use crate::error::{HostError, HostResult};
use crate::recovery::{
    backoff_cycles, classify, RecoveryAction, RecoveryEvent, RecoveryEventKind, ShedReason,
    MAX_ATTEMPTS,
};
use crate::scheduler::{Scheduler, SchedulerStats};
use crate::service::{install_service, service_enclave_name, ServiceKind};
use crate::tenant::{Completion, TenantSpec, TenantState, Traffic};
use ne_core::edl::Edl;
use ne_core::lifecycle::{attest_chain, AttestError};
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn, UntrustedFn};
use ne_core::switchless::SwitchlessQueue;
use ne_sgx::config::HwConfig;
use ne_sgx::error::SgxError;
use ne_sgx::fault::{ChaosStats, FaultPlan};
use ne_sgx::trace::Event;
use ne_sgx::EnclaveId;
use ne_tls::echo::NET_SYSCALL_CYCLES;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Cycles the gate charges per request for header parse + routing.
pub const GATE_DISPATCH_CYCLES: u64 = 1_200;
/// A request older than this (cycles since arrival, checked between
/// attempts) is shed instead of retried.
pub const REQUEST_DEADLINE: u64 = 400_000_000;
/// Payload bound of the switchless reply queue.
const SWITCHLESS_CAPACITY: usize = 4096;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Hardware model; [`HwConfig::testbed`] unless an experiment narrows
    /// it (e.g. a small `prm_pages` to provoke shedding).
    pub hw: HwConfig,
    /// The tenants to host.
    pub tenants: Vec<TenantSpec>,
    /// Reserve the last core as an untrusted switchless worker (needs at
    /// least 2 cores; silently disabled otherwise). Gates then send
    /// replies through a [`SwitchlessQueue`] instead of a classic ocall.
    pub switchless: bool,
    /// Seed for per-tenant models and datasets.
    pub seed: u64,
}

impl HostConfig {
    /// Testbed hardware, switchless on.
    pub fn new(tenants: Vec<TenantSpec>) -> HostConfig {
        HostConfig {
            hw: HwConfig::testbed(),
            tenants,
            switchless: true,
            seed: 0xC0FFEE,
        }
    }
}

/// Per-tenant slice of a [`HostReport`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Priority (higher = more important).
    pub priority: u8,
    /// Whether the tenant's enclaves were loaded at all.
    pub loaded: bool,
    /// Whether the tenant ended the run shed.
    pub shed: bool,
    /// Traffic counters over the measurement window.
    pub traffic: Traffic,
    /// Enclave respawns performed for this tenant.
    pub respawns: u64,
    /// Whether the tenant's circuit breaker ended the run open.
    pub breaker_open: bool,
}

/// End-of-run summary.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// One row per tenant, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Scheduler counters (dispatches, steals, invariant violations).
    pub sched: SchedulerStats,
    /// Whether a switchless worker core was active.
    pub switchless: bool,
    /// Replies that degraded from switchless to a classic exit-based
    /// ocall because the reply core was in an injected stall window.
    pub degraded_replies: u64,
}

impl HostReport {
    /// Total completions across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.traffic.completed).sum()
    }

    /// Total accepted across tenants.
    pub fn accepted(&self) -> u64 {
        self.tenants.iter().map(|t| t.traffic.accepted).sum()
    }

    /// Total explicit sheds across tenants. Reply-or-shed says
    /// `accepted() == completed() + shed_requests()` once drained.
    pub fn shed_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.traffic.shed_requests).sum()
    }

    /// Total enclave respawns across tenants.
    pub fn respawns(&self) -> u64 {
        self.tenants.iter().map(|t| t.respawns).sum()
    }
}

/// The multi-tenant hosting server.
pub struct HostServer {
    /// The underlying runtime; public so harnesses can export metrics,
    /// profiles, and traces from `app.machine` directly.
    pub app: NestedApp,
    /// One record per tenant, in spec order; adopted tenants append.
    pub(crate) tenants: Vec<TenantState>,
    pub(crate) sched: Scheduler,
    worker_core: Option<usize>,
    pub(crate) completions: Vec<Completion>,
    pub(crate) seed: u64,
    /// Shared with every gate closure; respawned gates reuse it.
    pub(crate) switchless_handle: Arc<Mutex<Option<SwitchlessQueue>>>,
    /// Switchless→classic reply degradations, counted from inside the
    /// gate closures.
    pub(crate) degraded_replies: Arc<AtomicU64>,
    /// Cycle-stamped recovery actions since the last measurement reset,
    /// in the order they were taken.
    pub(crate) events: Vec<RecoveryEvent>,
    /// Raw enclave id → owning tenant, covering every enclave ever built
    /// for a tenant (respawned-away ids stay mapped so late-arriving
    /// chaos events still attribute). Never cleared.
    pub(crate) eid_owner: BTreeMap<u64, usize>,
}

fn gate_image(name: &str) -> EnclaveImage {
    EnclaveImage::new(name, b"host-gateway")
        .code_pages(8)
        .heap_pages(4)
        .edl(Edl::new().ecall("dispatch").ocall("net_reply"))
}

/// The gate's `dispatch` body: route by the one-byte service index, call
/// the inner service, push the reply out (switchless when available,
/// degrading to a classic exit-based ocall when the reply core is inside
/// an injected stall window).
fn gate_dispatch(
    services: Vec<String>,
    switchless: Arc<Mutex<Option<SwitchlessQueue>>>,
    degraded: Arc<AtomicU64>,
) -> TrustedFn {
    Arc::new(move |cx, msg| {
        let (&svc, payload) = msg
            .split_first()
            .ok_or_else(|| SgxError::GeneralProtection("empty request".into()))?;
        let name = services
            .get(svc as usize)
            .ok_or_else(|| SgxError::GeneralProtection(format!("unknown service index {svc}")))?;
        cx.charge(GATE_DISPATCH_CYCLES);
        let reply = cx.n_ecall(name, "handle", payload)?;
        let queue = *switchless.lock().unwrap_or_else(PoisonError::into_inner);
        match queue {
            Some(q) => match q.ocall(cx, "net_reply", &reply) {
                Ok(_) => {}
                // The worker core stopped polling: pay the transition and
                // push the reply out the classic way instead of failing
                // the whole dispatch.
                Err(SgxError::Stalled(_)) => {
                    degraded.fetch_add(1, Ordering::Relaxed);
                    cx.ocall("net_reply", &reply)?;
                }
                Err(e) => return Err(e),
            },
            None => {
                cx.ocall("net_reply", &reply)?;
            }
        }
        Ok(reply)
    })
}

/// EPC pages one tenant needs: gate + services, each `total_pages` of the
/// image plus its SECS page.
pub(crate) fn tenant_epc_pages(spec: &TenantSpec) -> u64 {
    let gate = gate_image(&spec.gate_name()).total_pages() + 1;
    let services: u64 = spec
        .services
        .iter()
        .map(|&k| {
            crate::service::service_image(&service_enclave_name(&spec.name, k), k).total_pages() + 1
        })
        .sum();
    gate + services
}

impl HostServer {
    /// Builds the server: loads tenants highest-priority first, shedding
    /// (not loading) any tenant that would push free EPC below the
    /// low-water mark, then sets up the switchless worker if configured.
    ///
    /// # Errors
    ///
    /// Loader failures other than the anticipated EPC exhaustion.
    pub fn build(cfg: HostConfig) -> HostResult<HostServer> {
        let mut app = NestedApp::new(cfg.hw.clone());
        // One reply transmission costs what the Fig. 7 server's send does,
        // charged to whichever core runs the untrusted `net_reply`.
        let net_reply: UntrustedFn = Arc::new(|cx, _args| {
            cx.charge(NET_SYSCALL_CYCLES);
            Ok(Vec::new())
        });
        app.register_untrusted("net_reply", net_reply);
        let num_cores = app.machine.num_cores();
        let worker_core = (cfg.switchless && num_cores >= 2).then(|| num_cores - 1);
        let serving: Vec<usize> = (0..num_cores).filter(|c| Some(*c) != worker_core).collect();

        let mut order: Vec<usize> = (0..cfg.tenants.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cfg.tenants[i].priority));
        let tenants: Vec<TenantState> = cfg
            .tenants
            .into_iter()
            .map(|spec| TenantState::new(spec, false))
            .collect();
        let mut server = HostServer {
            app,
            sched: Scheduler::new(serving, tenants.len()),
            tenants,
            worker_core,
            completions: Vec::new(),
            seed: cfg.seed,
            switchless_handle: Arc::new(Mutex::new(None)),
            degraded_replies: Arc::new(AtomicU64::new(0)),
            events: Vec::new(),
            eid_owner: BTreeMap::new(),
        };
        for i in order {
            let spec = server.tenants[i].spec.clone();
            if !server.epc_fits(&spec, EPC_LOW_WATER) {
                // Shed at birth: graceful degradation instead of loading a
                // working set that would thrash EWB/ELDU.
                continue;
            }
            server.load_tenant(&spec, i)?;
            let t = &mut server.tenants[i];
            t.loaded = true;
            t.shed = false;
        }

        if let Some(w) = worker_core {
            let q = server
                .app
                .untrusted(0, |cx| SwitchlessQueue::create(cx, SWITCHLESS_CAPACITY, w));
            *server
                .switchless_handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(q);
        }
        // NEREPORT-gated admission: every loaded tenant must prove its
        // attestation chain before the front door opens for it. A clean
        // build attests everything; a refusal leaves the tenant
        // unattested (traffic rejected, reason counted) without failing
        // the build — siblings are unaffected.
        for t in 0..server.tenants.len() {
            if server.tenants[t].loaded {
                let _ = server.attest_tenant(t);
            }
        }
        Ok(server)
    }

    /// Whether `spec`'s enclaves fit in free EPC with `headroom` pages to
    /// spare.
    pub(crate) fn epc_fits(&self, spec: &TenantSpec, headroom: u64) -> bool {
        self.app.machine.free_epc_pages() as u64 >= tenant_epc_pages(spec) + headroom
    }

    /// Loads `spec`'s gate, then each of its services, for tenant slot
    /// `owner`. On failure the enclaves loaded so far stay loaded.
    pub(crate) fn load_tenant(&mut self, spec: &TenantSpec, owner: usize) -> Result<(), SgxError> {
        self.load_gate(spec, owner)?;
        for &kind in &spec.services {
            self.load_service(spec, owner, kind)?;
        }
        Ok(())
    }

    /// Loads `spec`'s gate enclave, routing to the spec's services, and
    /// records tenant slot `owner` as the owner of its eid. Build, gate
    /// respawn and migration adoption all load the gate here.
    fn load_gate(&mut self, spec: &TenantSpec, owner: usize) -> Result<EnclaveId, SgxError> {
        let gate_name = spec.gate_name();
        let services = spec
            .services
            .iter()
            .map(|&k| service_enclave_name(&spec.name, k))
            .collect();
        let dispatch = gate_dispatch(
            services,
            self.switchless_handle.clone(),
            self.degraded_replies.clone(),
        );
        self.app
            .load(gate_image(&gate_name), [("dispatch".to_string(), dispatch)])?;
        let eid = self.app.eid(&gate_name)?;
        self.eid_owner.insert(eid.0, owner);
        Ok(eid)
    }

    /// Loads one of `spec`'s service enclaves, associates it with the gate
    /// (NASSO), and records tenant slot `owner` as the owner of its eid.
    /// Its state is seeded by the spec's pinned identity when it has one
    /// (the sharded cluster pins the global tenant id), by `owner`
    /// otherwise, so a respawned service regenerates exactly the state
    /// that was lost.
    fn load_service(
        &mut self,
        spec: &TenantSpec,
        owner: usize,
        kind: ServiceKind,
    ) -> Result<EnclaveId, SgxError> {
        install_service(
            &mut self.app,
            &spec.name,
            &spec.gate_name(),
            spec.seed_index.unwrap_or(owner),
            kind,
            self.seed,
        )?;
        let eid = self.app.eid(&service_enclave_name(&spec.name, kind))?;
        self.eid_owner.insert(eid.0, owner);
        Ok(eid)
    }

    /// Deterministic 32-byte attestation challenge for one chain attempt.
    pub(crate) fn attest_nonce(seed: u64, identity: u64, kind: u64, epoch: u64) -> [u8; 32] {
        let mut n = [0u8; 32];
        n[..8]
            .copy_from_slice(&(seed ^ identity.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes());
        n[8..16].copy_from_slice(&identity.to_le_bytes());
        n[16..24].copy_from_slice(&kind.to_le_bytes());
        n[24..32].copy_from_slice(&epoch.to_le_bytes());
        n
    }

    /// A serving core currently out of enclave mode (attestation and
    /// lifecycle ecalls must start from untrusted context).
    pub(crate) fn idle_core(&self) -> Option<usize> {
        self.sched
            .cores()
            .iter()
            .copied()
            .find(|&c| self.app.machine.current_enclave(c).is_none())
    }

    /// [`HostServer::idle_core`], or a general-protection error naming
    /// the ecall (`what`) that found none.
    pub(crate) fn idle_core_for(&self, what: &str) -> Result<usize, SgxError> {
        self.idle_core().ok_or_else(|| {
            SgxError::GeneralProtection(format!("no serving core out of enclave mode for {what}"))
        })
    }

    /// Drives the § IV-E NEREPORT admission chain for every (gate,
    /// service) pair of `tenant`: the inner enclave reports, the gate
    /// verifies MAC, nonce echo, live measurement, and the NASSO
    /// outer-relation. Success marks the tenant attested; the first broken
    /// link leaves it unattested with the typed refusal reason counted
    /// (see [`HostServer::attest_failures`]).
    ///
    /// # Errors
    ///
    /// The first [`AttestError`] in chain order.
    pub fn attest_tenant(&mut self, tenant: usize) -> Result<(), AttestError> {
        if tenant >= self.tenants.len() || !self.tenants[tenant].loaded {
            return Err(AttestError::Sgx(SgxError::GeneralProtection(format!(
                "no loaded tenant at index {tenant}"
            ))));
        }
        let core = self
            .idle_core_for("attestation")
            .map_err(AttestError::Sgx)?;
        self.tenants[tenant].attest_epoch += 1;
        let epoch = self.tenants[tenant].attest_epoch;
        let spec = self.tenants[tenant].spec.clone();
        let identity = spec.seed_index.unwrap_or(tenant) as u64;
        let gate = spec.gate_name();
        let result = spec.services.iter().try_for_each(|&kind| {
            let svc = service_enclave_name(&spec.name, kind);
            let nonce = Self::attest_nonce(self.seed, identity, kind as u64, epoch);
            attest_chain(&mut self.app, core, &gate, &svc, &nonce).map(|_| ())
        });
        let t = &mut self.tenants[tenant];
        t.attested = result.is_ok();
        if let Err(e) = &result {
            *t.attest_failures.entry(e.name()).or_insert(0) += 1;
        }
        result
    }

    /// Whether `tenant` currently holds a verified attestation chain.
    pub fn attested(&self, tenant: usize) -> bool {
        self.tenants.get(tenant).is_some_and(|t| t.attested)
    }

    /// Typed attestation refusal counts for `tenant`, keyed by
    /// [`AttestError::name`]. Empty for a tenant that never failed.
    pub fn attest_failures(&self, tenant: usize) -> &BTreeMap<&'static str, u64> {
        static EMPTY: BTreeMap<&'static str, u64> = BTreeMap::new();
        self.tenants
            .get(tenant)
            .map_or(&EMPTY, |t| &t.attest_failures)
    }

    /// The reserved switchless worker core, when one is active.
    pub fn worker_core(&self) -> Option<usize> {
        self.worker_core
    }

    /// Tenant states (read-only).
    pub fn tenants(&self) -> &[TenantState] {
        &self.tenants
    }

    /// Completions recorded since the last reset, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Invariant violations observed so far (must stay zero).
    pub fn invariant_violations(&self) -> u64 {
        self.sched.stats.invariant_violations
    }

    /// Queued requests across all tenants.
    pub fn pending(&self) -> usize {
        self.tenants.iter().map(|t| t.backlog()).sum()
    }

    /// The serving clock: the furthest-behind serving core's cycle count
    /// (where the next dispatch will happen).
    pub fn now(&self) -> u64 {
        self.sched
            .cores()
            .iter()
            .map(|&c| self.app.machine.cycles(c))
            .min()
            .unwrap_or(0)
    }

    /// Offers one request. Re-evaluates EPC pressure first and sheds the
    /// lowest-priority tenant when free EPC is under the low-water mark.
    /// A `tenant`/`service` out of range is rejected as
    /// [`Admission::RejectedInvalid`] rather than panicking the server.
    pub fn submit(
        &mut self,
        tenant: usize,
        service: usize,
        arrival: u64,
        payload: Vec<u8>,
    ) -> Admission {
        let valid = self
            .tenants
            .get(tenant)
            .is_some_and(|t| service < t.spec.services.len());
        if !valid {
            return Admission::RejectedInvalid;
        }
        let free = self.app.machine.free_epc_pages() as u64;
        if admission::under_pressure(free) {
            if let Some(victim) = admission::shed_victim(&self.tenants) {
                self.tenants[victim].shed = true;
            }
        }
        // NEREPORT gate: a loaded, serving tenant whose chain lapsed (a
        // respawn invalidated it) gets one re-attestation attempt here;
        // still unproven means no admission. Shed tenants skip the gate —
        // their front door is already closed.
        if self.tenants[tenant].loaded
            && !self.tenants[tenant].shed
            && !self.tenants[tenant].attested
            && self.attest_tenant(tenant).is_err()
        {
            return Admission::RejectedUnattested;
        }
        admission::offer(&mut self.tenants[tenant], tenant, service, arrival, payload)
    }

    /// Serves one queued request, if any: the scheduler picks the
    /// furthest-behind core and a request (home tenants first, stealing
    /// otherwise), the invariants are checked, the core idle-advances to
    /// the arrival time if needed, and the full
    /// ecall → n_ecall → reply-ocall chain runs.
    ///
    /// Faulted dispatches go through the recovery layer: classify, repair
    /// (reload / respawn), back off, retry — up to [`MAX_ATTEMPTS`] and
    /// [`REQUEST_DEADLINE`], after which the request is shed explicitly.
    /// `Ok(None)` therefore means "no request completed this step": the
    /// queues were empty, or a request was shed.
    ///
    /// # Errors
    ///
    /// Unrecoverable faults only ([`crate::recovery::RecoveryAction::Fatal`]
    /// — host bugs, not injected chaos); the request is put back at the
    /// head of its queue so no accepted work is lost.
    pub fn step(&mut self) -> HostResult<Option<Completion>> {
        let slot = self.sched.pick_core(&self.app.machine);
        let Some(mut req) = self.sched.pick_request(slot, &mut self.tenants) else {
            return Ok(None);
        };
        let core = self.sched.cores()[slot];
        // Fail fast once the tenant's breaker is open: queued work is
        // shed explicitly instead of limping through rebuilds.
        if self.tenants[req.tenant].recovery.breaker_open {
            return self.shed_request(core, req.tenant, ShedReason::BreakerOpen);
        }
        let (gate_name, svc_name) = {
            let spec = &self.tenants[req.tenant].spec;
            (
                spec.gate_name(),
                service_enclave_name(&spec.name, spec.services[req.service]),
            )
        };
        let gate_eid = self.app.eid(&gate_name)?;
        let svc_eid = self.app.eid(&svc_name)?;
        if !self
            .sched
            .precheck(&self.app.machine, slot, gate_eid, svc_eid)
        {
            self.tenants[req.tenant].queue.push_front(req);
            return Err(HostError::Sgx(SgxError::GeneralProtection(
                "scheduler invariant violated".into(),
            )));
        }
        // The core idles until the request arrives, if it was ahead of the
        // arrival clock; the wait is charged as untrusted time so the
        // cycle-attribution identities keep holding.
        let now = self.app.machine.cycles(core);
        if req.arrival > now {
            let gap = req.arrival - now;
            self.app.untrusted(core, |cx| cx.charge(gap));
        }
        let start = self.app.machine.cycles(core);
        let mut msg = Vec::with_capacity(1 + req.payload.len());
        msg.push(req.service as u8);
        msg.extend_from_slice(&req.payload);
        let reply = loop {
            match self.app.ecall(core, &gate_name, "dispatch", &msg) {
                Ok(reply) => break reply,
                Err(e) => {
                    req.attempts += 1;
                    match classify(&e) {
                        RecoveryAction::Fatal => {
                            self.tenants[req.tenant].queue.push_front(req);
                            return Err(e.into());
                        }
                        RecoveryAction::Shed => {
                            // Deterministic application-level failure:
                            // retrying cannot change the outcome.
                            return self.shed_request(core, req.tenant, ShedReason::AppError);
                        }
                        action => {
                            if req.attempts >= MAX_ATTEMPTS {
                                return self.shed_request(core, req.tenant, ShedReason::Attempts);
                            }
                            if self.repair(req.tenant, action).is_err() {
                                // The tenant could not be healed; fail it
                                // fast and keep its siblings running.
                                self.trip_breaker(req.tenant);
                            }
                            if self.tenants[req.tenant].recovery.breaker_open {
                                self.trip_breaker(req.tenant);
                                return self.shed_request(
                                    core,
                                    req.tenant,
                                    ShedReason::BreakerOpen,
                                );
                            }
                            let wait = backoff_cycles(self.seed, req.tenant, req.seq, req.attempts);
                            self.log_event(core, req.tenant, RecoveryEventKind::Backoff { wait });
                            self.app.untrusted(core, |cx| cx.charge(wait));
                            let age = self.app.machine.cycles(core).saturating_sub(req.arrival);
                            if age > REQUEST_DEADLINE {
                                return self.shed_request(core, req.tenant, ShedReason::Deadline);
                            }
                        }
                    }
                }
            }
        };
        let end = self.app.machine.cycles(core);
        let latency = end.saturating_sub(req.arrival);
        self.app.machine.note(Event::Request { cycles: latency });

        let ts = &mut self.tenants[req.tenant];
        if ts.last_completed_seq.is_some_and(|prev| req.seq <= prev) {
            self.sched.stats.invariant_violations += 1;
            debug_assert!(
                false,
                "per-tenant FIFO violated: tenant {} completed seq {} after {:?}",
                req.tenant, req.seq, ts.last_completed_seq
            );
        }
        ts.last_completed_seq = Some(ts.last_completed_seq.map_or(req.seq, |p| p.max(req.seq)));
        ts.traffic.completed += 1;
        let completion = Completion {
            tenant: req.tenant,
            service: req.service,
            seq: req.seq,
            core,
            arrival: req.arrival,
            start,
            end,
            latency,
            reply,
        };
        self.completions.push(completion.clone());
        Ok(Some(completion))
    }

    /// Terminates a dequeued request as an explicit, counted shed.
    fn shed_request(
        &mut self,
        core: usize,
        tenant: usize,
        reason: ShedReason,
    ) -> HostResult<Option<Completion>> {
        self.tenants[tenant].traffic.shed_requests += 1;
        self.log_event(core, tenant, RecoveryEventKind::Shed(reason));
        Ok(None)
    }

    /// Applies one repair action for `tenant`. Errors mean the repair
    /// itself failed (e.g. EPC exhausted during a rebuild) — the caller
    /// trips the breaker.
    fn repair(&mut self, tenant: usize, action: RecoveryAction) -> HostResult<()> {
        match action {
            RecoveryAction::Retry => Ok(()),
            RecoveryAction::ReloadAndRetry => {
                // Reload failures (sealing/replay rejection) escalate to a
                // full tenant rebuild: the evicted state is unusable.
                if self.reload_evicted(tenant).is_err() {
                    self.respawn_tenant(tenant)
                } else {
                    let now = self.now();
                    self.log_event_at(now, tenant, RecoveryEventKind::Reload);
                    Ok(())
                }
            }
            RecoveryAction::RespawnEnclave(eid) => self.respawn_enclave(tenant, eid),
            RecoveryAction::RespawnTenant => self.respawn_tenant(tenant),
            // Shed/Fatal never reach repair (handled by the caller).
            RecoveryAction::Shed | RecoveryAction::Fatal => Ok(()),
        }
    }

    /// Reloads (ELDU) every chaos-evicted page parked for the tenant's
    /// enclaves.
    fn reload_evicted(&mut self, tenant: usize) -> HostResult<usize> {
        let mut reloaded = 0;
        for name in self.tenants[tenant].spec.enclave_names() {
            let eid = self.app.eid(&name)?;
            reloaded += self.app.machine.reload_chaos_evicted(eid)?;
        }
        Ok(reloaded)
    }

    /// Respawns whichever of the tenant's enclaves `eid` names (the gate,
    /// or one inner service); an `eid` that matches none of them (already
    /// torn down) falls back to a whole-tenant rebuild.
    fn respawn_enclave(&mut self, tenant: usize, eid: EnclaveId) -> HostResult<()> {
        let spec = self.tenants[tenant].spec.clone();
        if self.app.eid(&spec.gate_name()) == Ok(eid) {
            return self.respawn_gate(tenant);
        }
        for &kind in &spec.services {
            if self.app.eid(&service_enclave_name(&spec.name, kind)) == Ok(eid) {
                return self.respawn_service(tenant, kind);
            }
        }
        self.respawn_tenant(tenant)
    }

    /// Tears down and rebuilds the tenant's gate (EREMOVE, fresh
    /// ECREATE/EADD/EINIT), then re-associates every service enclave with
    /// the new gate (NASSO). Counts as one respawn toward the breaker.
    fn respawn_gate(&mut self, tenant: usize) -> HostResult<()> {
        self.note_respawn(tenant, RecoveryEventKind::RespawnGate);
        self.rebuild_gate(tenant)
            .map_err(|source| self.respawn_failed(tenant, source))
    }

    /// Tears down and rebuilds one inner service enclave and re-associates
    /// it with the gate. Counts as one respawn toward the breaker.
    fn respawn_service(&mut self, tenant: usize, kind: ServiceKind) -> HostResult<()> {
        self.note_respawn(tenant, RecoveryEventKind::RespawnService);
        self.rebuild_service(tenant, kind)
            .map_err(|source| self.respawn_failed(tenant, source))
    }

    /// Rebuilds the whole tenant — every service, then the gate. Counts as
    /// one respawn event toward the breaker (one recovery, many EREMOVEs).
    fn respawn_tenant(&mut self, tenant: usize) -> HostResult<()> {
        self.note_respawn(tenant, RecoveryEventKind::RespawnTenant);
        let kinds = self.tenants[tenant].spec.services.clone();
        for kind in kinds {
            self.rebuild_service(tenant, kind)
                .map_err(|source| self.respawn_failed(tenant, source))?;
        }
        self.rebuild_gate(tenant)
            .map_err(|source| self.respawn_failed(tenant, source))
    }

    fn rebuild_gate(&mut self, tenant: usize) -> Result<(), SgxError> {
        let spec = self.tenants[tenant].spec.clone();
        let gate_name = spec.gate_name();
        let old = self.app.unload(&gate_name)?;
        let new = self.load_gate(&spec, tenant)?;
        self.app.machine.chaos_retarget(old, new);
        for &kind in &spec.services {
            self.app
                .associate(&service_enclave_name(&spec.name, kind), &gate_name)?;
        }
        Ok(())
    }

    fn rebuild_service(&mut self, tenant: usize, kind: ServiceKind) -> Result<(), SgxError> {
        let spec = self.tenants[tenant].spec.clone();
        let old = self.app.unload(&service_enclave_name(&spec.name, kind))?;
        let new = self.load_service(&spec, tenant, kind)?;
        self.app.machine.chaos_retarget(old, new);
        Ok(())
    }

    /// Records and logs one respawn of `kind`; the breaker check happens
    /// in the step loop. A respawn also invalidates the tenant's
    /// attestation chain — the rebuilt enclave is a new instance and must
    /// re-prove it (lazily, at the next submission) before new traffic is
    /// admitted.
    fn note_respawn(&mut self, tenant: usize, kind: RecoveryEventKind) {
        let now = self.now();
        let t = &mut self.tenants[tenant];
        t.recovery.note_respawn(now);
        t.attested = false;
        self.log_event_at(now, tenant, kind);
    }

    fn respawn_failed(&self, tenant: usize, source: SgxError) -> HostError {
        HostError::Respawn {
            tenant: self.tenants[tenant].spec.name.clone(),
            source,
        }
    }

    /// Opens the tenant's breaker: sheds the tenant at admission and
    /// converts its queued requests into explicit sheds. Idempotent.
    fn trip_breaker(&mut self, tenant: usize) {
        let t = &mut self.tenants[tenant];
        t.recovery.breaker_open = true;
        if !t.breaker_logged {
            t.breaker_logged = true;
            let now = self.now();
            self.log_event_at(now, tenant, RecoveryEventKind::BreakerOpen);
        }
        self.shed_queue(tenant, ShedReason::QueueDrained);
    }

    /// Sheds `tenant` at the front door: marks it shed at admission and
    /// converts its queued requests into explicit sheds, counted through
    /// the existing `shed_requests` counter, with one
    /// [`RecoveryEventKind::Shed`]`(`[`ShedReason::ClientStalled`]`)`
    /// event when anything was queued. External drivers (the `ne-serve`
    /// wire front door) call this when a client stops producing the
    /// requests it promised — a read deadline expired mid-stream — so
    /// slow clients degrade into the same reply-or-shed accounting as
    /// every other loss path, never a hang. Idempotent; does **not**
    /// open the circuit breaker (the tenant's enclaves are healthy — it
    /// is the client that went away). Returns how many queued requests
    /// were shed.
    pub fn shed_tenant(&mut self, tenant: usize) -> u64 {
        if tenant >= self.tenants.len() {
            return 0;
        }
        self.shed_queue(tenant, ShedReason::ClientStalled)
    }

    /// Closes `tenant`'s front door and turns its queued requests into
    /// explicit sheds, logging one `Shed(reason)` event when anything was
    /// queued. Returns how many requests were shed.
    fn shed_queue(&mut self, tenant: usize, reason: ShedReason) -> u64 {
        let now = self.now();
        let t = &mut self.tenants[tenant];
        t.shed = true;
        let drained = t.queue.len() as u64;
        t.traffic.shed_requests += drained;
        t.queue.clear();
        if drained > 0 {
            self.log_event_at(now, tenant, RecoveryEventKind::Shed(reason));
        }
        drained
    }

    /// Appends one recovery event stamped with `core`'s current cycle.
    fn log_event(&mut self, core: usize, tenant: usize, kind: RecoveryEventKind) {
        let cycle = self.app.machine.cycles(core);
        self.log_event_at(cycle, tenant, kind);
    }

    /// Appends one recovery event with an explicit cycle stamp.
    pub(crate) fn log_event_at(&mut self, cycle: u64, tenant: usize, kind: RecoveryEventKind) {
        self.events.push(RecoveryEvent {
            cycle,
            tenant,
            kind,
        });
    }

    /// Serves queued requests until every accepted request has terminated
    /// (reply or explicit shed); returns how many completed.
    ///
    /// The loop is **bounded**: a server bug that stops making progress
    /// (e.g. a service enclave wedged in a way the recovery layer cannot
    /// see) surfaces as [`SgxError::Stalled`] instead of a hang.
    ///
    /// # Errors
    ///
    /// As [`HostServer::step`], plus the stall guard.
    pub fn drain(&mut self) -> HostResult<usize> {
        // Every step terminates one request (completion or shed), so the
        // budget only bites when progress genuinely stops.
        let mut budget = 4 * (self.pending() as u64 + 1) + 16;
        let mut served = 0;
        while self.pending() > 0 {
            if budget == 0 {
                return Err(HostError::Sgx(SgxError::Stalled(format!(
                    "drain exceeded its step budget with {} requests still queued",
                    self.pending()
                ))));
            }
            budget -= 1;
            if self.step()?.is_some() {
                served += 1;
            }
        }
        Ok(served)
    }

    /// Resets the measurement window: machine metrics (clocks, stats,
    /// histograms, trace), recorded completions, and per-tenant traffic
    /// counters. Call only with no queued work (e.g. after a warmup
    /// drain); sequence numbers and shed state carry over.
    ///
    /// # Panics
    ///
    /// Panics if requests are still queued.
    pub fn reset_measurement(&mut self) {
        assert_eq!(self.pending(), 0, "reset with queued work");
        self.app.machine.reset_metrics();
        self.completions.clear();
        self.sched.stats = SchedulerStats::default();
        for t in &mut self.tenants {
            t.traffic = Traffic::default();
            // The cycle clocks just reset, so respawn timestamps from
            // before the window are meaningless; breaker latch state
            // carries over (like shed state).
            t.recovery.respawn_times.clear();
            t.recovery.respawns = 0;
        }
        self.degraded_replies.store(0, Ordering::Relaxed);
        self.events.clear();
    }

    /// Installs a chaos plan on the machine (see [`ne_sgx::fault`]).
    /// Typically called after warmup/[`HostServer::reset_measurement`] so
    /// the fault clock starts with the measured window.
    pub fn install_chaos(&mut self, plan: FaultPlan) {
        self.app.machine.install_chaos(plan);
    }

    /// Installs a chaos plan confined to one tenant's enclaves (gate and
    /// services): siblings share the machine but never see an injected
    /// fault.
    ///
    /// # Errors
    ///
    /// [`HostError::BadRequest`] for an unknown or unloaded tenant.
    pub fn install_chaos_for_tenant(&mut self, plan: FaultPlan, tenant: usize) -> HostResult<()> {
        let eids = self.tenant_eids(tenant)?;
        self.app.machine.install_chaos(plan.target_eids(eids));
        Ok(())
    }

    /// Raw enclave ids (gate first, then services) of one tenant.
    ///
    /// # Errors
    ///
    /// [`HostError::BadRequest`] for an unknown or unloaded tenant.
    pub fn tenant_eids(&self, tenant: usize) -> HostResult<Vec<u64>> {
        if tenant >= self.tenants.len() || !self.tenants[tenant].loaded {
            return Err(HostError::BadRequest(format!(
                "no loaded tenant at index {tenant}"
            )));
        }
        self.tenants[tenant]
            .spec
            .enclave_names()
            .iter()
            .map(|n| Ok(self.app.eid(n)?.0))
            .collect()
    }

    /// Decision counters of the installed chaos plan, if any.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.app.machine.chaos_stats()
    }

    /// Cycle-stamped recovery actions taken since the last measurement
    /// reset, in the order they were taken.
    pub fn recovery_events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// The tenant owning the enclave with raw id `eid`, if the server
    /// ever built one with that id. Covers respawned-away ids, so a
    /// machine-side chaos event can always be attributed.
    pub fn eid_owner(&self, eid: u64) -> Option<usize> {
        self.eid_owner.get(&eid).copied()
    }

    /// EPC pages tenant `tenant`'s enclaves occupy when loaded (gate +
    /// services, each with its SECS page) — the footprint a migration
    /// placement policy weighs shards by.
    pub fn tenant_epc_pages(&self, tenant: usize) -> u64 {
        tenant_epc_pages(&self.tenants[tenant].spec)
    }

    /// Replies that degraded from switchless to classic ocalls so far.
    pub fn degraded_replies(&self) -> u64 {
        self.degraded_replies.load(Ordering::Relaxed)
    }

    /// The end-of-run summary.
    pub fn report(&self) -> HostReport {
        HostReport {
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.spec.name.clone(),
                    priority: t.spec.priority,
                    loaded: t.loaded,
                    shed: t.shed,
                    traffic: t.traffic,
                    respawns: t.recovery.respawns,
                    breaker_open: t.recovery.breaker_open,
                })
                .collect(),
            sched: self.sched.stats,
            switchless: self.worker_core.is_some(),
            degraded_replies: self.degraded_replies(),
        }
    }
}

// The sharded cluster runs one `HostServer` (and its `Machine`) per OS
// thread. This compile-time assertion is the Send audit's lock-in: if a
// future change adds `Rc`, a non-`Send` trait object, or thread-bound
// interior mutability anywhere inside the server, the crate stops
// compiling here instead of failing at the `thread::scope` call site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<HostServer>();
    assert_send::<HostConfig>();
    assert_send::<ne_sgx::machine::Machine>();
    assert_send::<NestedApp>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RequestFactory, ServiceKind};
    use ne_sgx::profile::ProfileEvent;

    fn specs(n: usize, services: &[ServiceKind]) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec::new(&format!("t{i}"), (n - i) as u8, services.to_vec()))
            .collect()
    }

    fn run_load(server: &mut HostServer, per_tenant: usize) -> u64 {
        let n = server.tenants().len();
        let mut factories: Vec<Vec<RequestFactory>> = (0..n)
            .map(|t| {
                server.tenants()[t]
                    .spec
                    .services
                    .iter()
                    .map(|&k| RequestFactory::new(k, t, 42))
                    .collect()
            })
            .collect();
        let mut accepted = 0;
        for r in 0..per_tenant {
            for (t, tenant_factories) in factories.iter_mut().enumerate() {
                let s = r % tenant_factories.len();
                let payload = tenant_factories[s].next_request();
                if server.submit(t, s, 0, payload).is_accepted() {
                    accepted += 1;
                }
            }
            // Interleave some service so queues breathe.
            let _ = server.step().unwrap();
        }
        server.drain().unwrap();
        accepted
    }

    #[test]
    fn four_tenants_two_services_complete_cleanly() {
        let cfg = HostConfig::new(specs(4, &[ServiceKind::TlsEcho, ServiceKind::Db]));
        let mut server = HostServer::build(cfg).unwrap();
        let accepted = run_load(&mut server, 6);
        let report = server.report();
        assert_eq!(report.completed(), accepted, "no accepted request lost");
        assert_eq!(report.sched.invariant_violations, 0);
        // Latency histograms flowed into the machine profile.
        let m = server.app.machine.metrics();
        m.check().unwrap();
        let req_hist = server.app.machine.profile().merged(ProfileEvent::Request);
        assert_eq!(req_hist.count(), accepted);
        assert!(req_hist.percentile(0.5) > 0);
        // Replies were valid for every completion.
        for c in server.completions() {
            let spec = &server.tenants()[c.tenant].spec;
            let f = RequestFactory::new(spec.services[c.service], c.tenant, 42);
            assert!(f.check_reply(&c.reply), "bad reply for {:?}", spec.name);
        }
    }

    #[test]
    fn switchless_worker_serves_replies() {
        let mut cfg = HostConfig::new(specs(2, &[ServiceKind::SvmInfer]));
        cfg.switchless = true;
        let mut server = HostServer::build(cfg).unwrap();
        assert!(server.worker_core().is_some());
        // Build-time NEREPORT attestation takes transitions of its own;
        // start the measured window after it, like every harness does.
        server.reset_measurement();
        let done = run_load(&mut server, 4);
        let stats = server.app.machine.stats();
        assert_eq!(stats.switchless_ocalls, done, "one switchless reply each");
        // Only the dispatch ecall's own EENTER/EEXIT pair remains: the
        // reply never takes a transition.
        assert_eq!(stats.ecalls, done);
        assert_eq!(stats.ocalls, done);
        server.app.machine.metrics().check().unwrap();

        let mut cfg = HostConfig::new(specs(2, &[ServiceKind::SvmInfer]));
        cfg.switchless = false;
        let mut server = HostServer::build(cfg).unwrap();
        assert!(server.worker_core().is_none());
        server.reset_measurement();
        let done = run_load(&mut server, 4);
        let stats = server.app.machine.stats();
        assert_eq!(stats.switchless_ocalls, 0);
        // Classic replies: the dispatch pair plus one EEXIT/EENTER round
        // trip per reply ocall.
        assert_eq!(stats.ecalls, 2 * done);
        assert_eq!(stats.ocalls, 2 * done);
    }

    #[test]
    fn backpressure_rejects_beyond_queue_bound() {
        let tenants = vec![TenantSpec::new("t0", 1, vec![ServiceKind::SvmInfer]).queue_capacity(2)];
        let mut server = HostServer::build(HostConfig::new(tenants)).unwrap();
        let mut f = RequestFactory::new(ServiceKind::SvmInfer, 0, 1);
        let verdicts: Vec<bool> = (0..5)
            .map(|_| server.submit(0, 0, 0, f.next_request()).is_accepted())
            .collect();
        assert_eq!(verdicts, vec![true, true, false, false, false]);
        assert_eq!(server.tenants()[0].traffic.rejected_full, 3);
        server.drain().unwrap();
        assert_eq!(server.report().completed(), 2);
    }

    #[test]
    fn epc_pressure_sheds_lowest_priority_at_birth() {
        // A PRM too small for all tenants: priorities 4,3,2,1 → the tail
        // tenants never load, and their traffic is rejected as shed.
        let mut hw = HwConfig::small();
        hw.prm_pages = 220;
        let mut cfg = HostConfig::new(specs(4, &[ServiceKind::SvmInfer, ServiceKind::TlsEcho]));
        cfg.hw = hw;
        cfg.switchless = false;
        let mut server = HostServer::build(cfg).unwrap();
        let loaded: Vec<bool> = server.tenants().iter().map(|t| t.loaded).collect();
        assert!(loaded[0], "highest priority tenant must load");
        assert!(!loaded[3], "lowest priority tenant must be shed");
        // Priorities are descending in spec order: loaded must be a
        // prefix.
        let first_shed = loaded.iter().position(|l| !l).unwrap();
        assert!(loaded[..first_shed].iter().all(|&l| l));
        assert!(loaded[first_shed..].iter().all(|&l| !l));

        let mut f = RequestFactory::new(ServiceKind::SvmInfer, 3, 1);
        assert_eq!(
            server.submit(3, 0, 0, f.next_request()),
            Admission::RejectedShed
        );
        let mut f0 = RequestFactory::new(ServiceKind::SvmInfer, 0, 1);
        assert!(server.submit(0, 0, 0, f0.next_request()).is_accepted());
        server.drain().unwrap();
        // Graceful degradation: the loaded tenants ran without paging.
        assert_eq!(server.app.machine.stats().ewb_pages, 0, "no EWB thrash");
        server.app.machine.metrics().check().unwrap();
    }

    #[test]
    fn respawned_enclaves_stay_attributed_to_their_tenant() {
        let mut server = HostServer::build(HostConfig::new(specs(2, &[ServiceKind::Db]))).unwrap();
        let before = server.tenant_eids(1).unwrap();
        server.respawn_gate(1).unwrap();
        server.respawn_service(1, ServiceKind::Db).unwrap();
        server.respawn_tenant(1).unwrap();
        let after = server.tenant_eids(1).unwrap();
        assert!(after.iter().all(|eid| !before.contains(eid)), "fresh eids");
        // Chaos events name raw eids, old and new alike.
        for eid in before.into_iter().chain(after) {
            assert_eq!(server.eid_owner(eid), Some(1), "eid {eid}");
        }
    }

    #[test]
    fn migrated_respawn_history_is_counted_once() {
        let mut server = HostServer::build(HostConfig::new(specs(1, &[ServiceKind::Db]))).unwrap();
        server.respawn_gate(0).unwrap();
        let snap = server.extract_tenant(0).unwrap();
        assert_eq!(snap.respawns, 1);
        server.adopt_tenant(&snap, snap.seal_counter).unwrap();
        assert_eq!(server.report().respawns(), 1, "the dead stub keeps none");
    }

    #[test]
    fn reset_measurement_gives_a_clean_window() {
        let mut server =
            HostServer::build(HostConfig::new(specs(2, &[ServiceKind::SvmInfer]))).unwrap();
        run_load(&mut server, 3);
        server.reset_measurement();
        assert_eq!(server.report().completed(), 0);
        assert_eq!(server.app.machine.total_cycles(), 0);
        // Sequence numbers carry across the reset (FIFO continuity).
        let mut f = RequestFactory::new(ServiceKind::SvmInfer, 0, 1);
        let Admission::Accepted(seq) = server.submit(0, 0, 0, f.next_request()) else {
            panic!("accept");
        };
        assert!(seq > 0, "seq continues after reset");
        server.drain().unwrap();
        server.app.machine.metrics().check().unwrap();
    }
}
