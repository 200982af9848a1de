//! Fault recovery: retry policy, fault classification, and the per-tenant
//! circuit breaker.
//!
//! The chaos layer ([`ne_sgx::fault`]) injects architectural faults at
//! EENTER boundaries; this module is the host's answer. Every fault a
//! dispatch can surface maps to exactly one [`RecoveryAction`]; the
//! server's dispatch loop applies the action (reload evicted pages,
//! respawn a poisoned enclave, respawn the whole tenant), charges a
//! deterministic exponential backoff with jitter, and retries — until the
//! request completes, its attempt budget is exhausted, or its deadline
//! passes, at which point the request is **explicitly shed and counted**,
//! never silently dropped. The reply-or-shed invariant the property tests
//! assert is `accepted == completed + shed_requests` for every tenant.
//!
//! Respawns are the expensive path (EREMOVE, then a full
//! ECREATE/EADD/EINIT rebuild plus NASSO re-association). A tenant whose
//! enclaves churn through respawns faster than [`BREAKER_THRESHOLD`] per
//! [`BREAKER_WINDOW`] cycles trips its **circuit breaker**: the tenant is
//! shed at admission and its queued requests are shed explicitly,
//! converting a grey failure (every request limping through rebuild
//! after rebuild) into a fast, attributable one — without touching
//! sibling tenants.

use ne_sgx::error::{FaultKind, SgxError};
use ne_sgx::EnclaveId;
use std::collections::VecDeque;

/// Dispatch attempts per request before it is shed (first try
/// included).
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before retry `n` is `BACKOFF_BASE << min(n, 6)` plus jitter,
/// charged to the serving core as untrusted cycles.
pub const BACKOFF_BASE: u64 = 20_000;
/// Upper bound (inclusive) on the deterministic per-retry jitter.
pub const BACKOFF_JITTER: u64 = 8_000;
/// Respawns within [`BREAKER_WINDOW`] that trip the tenant's circuit
/// breaker.
pub const BREAKER_THRESHOLD: usize = 8;
/// Sliding window (cycles) over which respawns are counted.
pub const BREAKER_WINDOW: u64 = 50_000_000;

/// What the dispatch loop should do about one failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Transient condition (e.g. a stalled switchless window): retry
    /// after backoff, nothing to repair.
    Retry,
    /// Chaos evicted the enclave's hot pages: reload the parked blobs
    /// (ELDU) and retry.
    ReloadAndRetry,
    /// This enclave is poisoned: tear it down (EREMOVE) and rebuild it,
    /// then retry.
    RespawnEnclave(EnclaveId),
    /// Integrity is gone at an unknown blast radius: rebuild the whole
    /// tenant (gate and services), then retry.
    RespawnTenant,
    /// The request itself failed deterministically (application-level
    /// error): shed it now, retrying cannot help.
    Shed,
    /// Not a fault the host can absorb — propagate; something is wrong
    /// with the host itself.
    Fatal,
}

/// Maps one dispatch fault to the action that repairs it.
///
/// The table is total over [`SgxError`]: anything not explicitly
/// recoverable is [`RecoveryAction::Fatal`], so a new error variant fails
/// loud instead of being retried blindly.
pub fn classify(err: &SgxError) -> RecoveryAction {
    match err {
        SgxError::EnclavePoisoned(eid) => RecoveryAction::RespawnEnclave(*eid),
        SgxError::Stalled(_) => RecoveryAction::Retry,
        SgxError::Fault { kind, .. } => match kind {
            // Physical tamper: the MEE refuses the line until the page is
            // rebuilt. EADD on the respawn clears the tamper marks.
            FaultKind::IntegrityViolation => RecoveryAction::RespawnTenant,
            // Chaos-forced EWB left ELRANGE pages swapped out; the blobs
            // are parked machine-side and reloadable.
            FaultKind::EnclavePageSwappedOut | FaultKind::NotMapped => {
                RecoveryAction::ReloadAndRetry
            }
            _ => RecoveryAction::Fatal,
        },
        // Sealing/replay rejection on reload: the blob is unusable, the
        // enclave's evicted state is lost — rebuild from the image.
        SgxError::Paging(_) => RecoveryAction::RespawnTenant,
        // Application-level failure (bad SQL against a rebuilt-and-empty
        // database, oversized payload, ...): deterministic, shed it.
        SgxError::GeneralProtection(_) => RecoveryAction::Shed,
        _ => RecoveryAction::Fatal,
    }
}

/// Backoff (cycles) to charge before retry number `attempt` of request
/// (`tenant`, `seq`): exponential in the attempt with a deterministic
/// jitter hashed from the identifiers, so two runs of the same seeded
/// workload back off identically while concurrent retries of different
/// requests still de-synchronize.
pub fn backoff_cycles(seed: u64, tenant: usize, seq: u64, attempt: u32) -> u64 {
    let base = BACKOFF_BASE << attempt.min(6);
    // SplitMix64 finalizer over the request identity.
    let mut x = seed
        ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ seq.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ u64::from(attempt).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    base + x % (BACKOFF_JITTER + 1)
}

/// Why a request was explicitly shed (the label on a
/// [`RecoveryEventKind::Shed`] event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's circuit breaker was open at dispatch time.
    BreakerOpen,
    /// A deterministic application-level failure; retrying cannot help.
    AppError,
    /// The request's attempt budget ran out.
    Attempts,
    /// The request's deadline passed between attempts.
    Deadline,
    /// The request was queued when the breaker tripped and the queue was
    /// drained to explicit sheds.
    QueueDrained,
    /// The request was queued when its client stopped producing the
    /// traffic it promised (a wire front-door read deadline expired) and
    /// the tenant was shed at admission.
    ClientStalled,
    /// The request was queued when a live migration started and the
    /// bounded park buffer ([`crate::migrate::MIGRATE_PARK_CAPACITY`])
    /// was already full.
    Migrating,
}

impl ShedReason {
    /// Stable snake_case name (export key).
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::BreakerOpen => "breaker_open",
            ShedReason::AppError => "app_error",
            ShedReason::Attempts => "attempts",
            ShedReason::Deadline => "deadline",
            ShedReason::QueueDrained => "queue_drained",
            ShedReason::ClientStalled => "client_stalled",
            ShedReason::Migrating => "migrating",
        }
    }
}

/// The phases of the live-migration state machine, in execution order:
/// `Quiesce → Seal → Remove → Rebuild → Resume`, with `Rollback` taken
/// from any failed phase back to the source host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigratePhase {
    /// Admission closed; queued requests parked (bounded) or shed.
    Quiesce,
    /// Every service enclave sealed its session state into a
    /// counter-stamped blob (`ne-core` lifecycle format).
    Seal,
    /// Source enclaves torn down (EREMOVE), EPC pages freed.
    Remove,
    /// Gate and service enclaves rebuilt on the target and re-associated
    /// (NASSO), admission re-gated on a verified NEREPORT chain.
    Rebuild,
    /// Sealed state restored into the rebuilt enclaves, parked requests
    /// re-queued, admission reopened.
    Resume,
    /// The target failed; the tenant was rebuilt on the source from the
    /// same sealed blobs.
    Rollback,
}

impl MigratePhase {
    /// Stable snake_case name (export key).
    pub fn name(self) -> &'static str {
        match self {
            MigratePhase::Quiesce => "quiesce",
            MigratePhase::Seal => "seal",
            MigratePhase::Remove => "remove",
            MigratePhase::Rebuild => "rebuild",
            MigratePhase::Resume => "resume",
            MigratePhase::Rollback => "rollback",
        }
    }
}

/// What one recovery event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEventKind {
    /// A retry backoff of `wait` cycles was charged.
    Backoff {
        /// Cycles charged to the serving core before the retry.
        wait: u64,
    },
    /// Chaos-evicted pages were reloaded (ELDU) for the tenant.
    Reload,
    /// The tenant's gate enclave was torn down and rebuilt.
    RespawnGate,
    /// One of the tenant's service enclaves was torn down and rebuilt.
    RespawnService,
    /// The whole tenant (every service, then the gate) was rebuilt.
    RespawnTenant,
    /// The tenant's circuit breaker tripped open (logged once; the
    /// breaker latches).
    BreakerOpen,
    /// A request was shed explicitly.
    Shed(ShedReason),
    /// A live-migration phase completed (or, for
    /// [`MigratePhase::Rollback`], was taken).
    Migrate(MigratePhase),
}

impl RecoveryEventKind {
    /// Stable snake_case name (export key).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryEventKind::Backoff { .. } => "backoff",
            RecoveryEventKind::Reload => "reload",
            RecoveryEventKind::RespawnGate => "respawn_gate",
            RecoveryEventKind::RespawnService => "respawn_service",
            RecoveryEventKind::RespawnTenant => "respawn_tenant",
            RecoveryEventKind::BreakerOpen => "breaker_open",
            RecoveryEventKind::Shed(_) => "shed",
            RecoveryEventKind::Migrate(MigratePhase::Quiesce) => "migrate_quiesce",
            RecoveryEventKind::Migrate(MigratePhase::Seal) => "migrate_seal",
            RecoveryEventKind::Migrate(MigratePhase::Remove) => "migrate_remove",
            RecoveryEventKind::Migrate(MigratePhase::Rebuild) => "migrate_rebuild",
            RecoveryEventKind::Migrate(MigratePhase::Resume) => "migrate_resume",
            RecoveryEventKind::Migrate(MigratePhase::Rollback) => "migrate_rollback",
        }
    }
}

/// One cycle-stamped recovery action the server took, in the order it was
/// taken. The server keeps a log of these (cleared with the measurement
/// window) so an observability layer can correlate chaos injections
/// ([`ne_sgx::fault::ChaosInjection`]) with the host's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Serving-clock cycle stamp at the time the action was taken.
    pub cycle: u64,
    /// The tenant the action was for (spec-order index).
    pub tenant: usize,
    /// What happened.
    pub kind: RecoveryEventKind,
}

/// Per-tenant recovery bookkeeping: respawn history and breaker state.
#[derive(Debug, Default)]
pub struct RecoveryState {
    /// Cycle timestamps of recent respawns, oldest first, pruned to the
    /// breaker window.
    pub respawn_times: VecDeque<u64>,
    /// Cumulative respawns (reporting; never pruned).
    pub respawns: u64,
    /// True once the breaker tripped: the tenant is shed, its queue
    /// drained to explicit sheds, and no further respawns are attempted.
    pub breaker_open: bool,
}

impl RecoveryState {
    /// Records a respawn at cycle `now`; returns true when this respawn
    /// trips (or finds already tripped) the circuit breaker.
    pub fn note_respawn(&mut self, now: u64) -> bool {
        self.respawns += 1;
        self.respawn_times.push_back(now);
        while let Some(&t0) = self.respawn_times.front() {
            if now.saturating_sub(t0) > BREAKER_WINDOW {
                self.respawn_times.pop_front();
            } else {
                break;
            }
        }
        if self.respawn_times.len() >= BREAKER_THRESHOLD {
            self.breaker_open = true;
        }
        self.breaker_open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ne_sgx::addr::VirtAddr;

    #[test]
    fn classification_table() {
        let eid = EnclaveId(7);
        assert_eq!(
            classify(&SgxError::EnclavePoisoned(eid)),
            RecoveryAction::RespawnEnclave(eid)
        );
        assert_eq!(
            classify(&SgxError::Stalled("x".into())),
            RecoveryAction::Retry
        );
        assert_eq!(
            classify(&SgxError::Fault {
                kind: FaultKind::IntegrityViolation,
                addr: VirtAddr(0)
            }),
            RecoveryAction::RespawnTenant
        );
        assert_eq!(
            classify(&SgxError::Fault {
                kind: FaultKind::EnclavePageSwappedOut,
                addr: VirtAddr(0)
            }),
            RecoveryAction::ReloadAndRetry
        );
        assert_eq!(
            classify(&SgxError::Paging("replay".into())),
            RecoveryAction::RespawnTenant
        );
        assert_eq!(
            classify(&SgxError::GeneralProtection("app error".into())),
            RecoveryAction::Shed
        );
        assert_eq!(classify(&SgxError::EpcFull), RecoveryAction::Fatal);
        assert_eq!(
            classify(&SgxError::Fault {
                kind: FaultKind::WriteToReadOnly,
                addr: VirtAddr(0)
            }),
            RecoveryAction::Fatal
        );
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_jittered() {
        let a = backoff_cycles(1, 0, 5, 1);
        assert_eq!(a, backoff_cycles(1, 0, 5, 1), "same identity, same wait");
        // Exponential floor, bounded jitter.
        for attempt in 0..8 {
            let w = backoff_cycles(1, 0, 5, attempt);
            let floor = BACKOFF_BASE << attempt.min(6);
            assert!(w >= floor && w <= floor + BACKOFF_JITTER, "{attempt}: {w}");
        }
        // Different requests de-synchronize.
        assert_ne!(
            backoff_cycles(1, 0, 5, 1) - (BACKOFF_BASE << 1),
            backoff_cycles(1, 0, 6, 1) - (BACKOFF_BASE << 1),
        );
    }

    #[test]
    fn breaker_trips_on_churn_within_window_only() {
        // Spread out (one respawn per window and a bit): never trips.
        let mut calm = RecoveryState::default();
        for i in 0..10u64 {
            assert!(!calm.note_respawn(i * (BREAKER_WINDOW + 1)));
        }
        assert_eq!(calm.respawns, 10);
        // Churn: the BREAKER_THRESHOLD-th respawn within the window trips
        // it, and it latches.
        let mut churn = RecoveryState::default();
        let step = BREAKER_WINDOW / BREAKER_THRESHOLD as u64;
        for i in 1..BREAKER_THRESHOLD as u64 {
            assert!(!churn.note_respawn(i * step), "respawn {i}");
        }
        assert!(churn.note_respawn(BREAKER_THRESHOLD as u64 * step));
        assert!(churn.breaker_open);
        assert!(churn.note_respawn(u64::MAX / 2), "breaker latches open");
    }
}
