//! Admission control: bounded queues, backpressure, and EPC-pressure
//! shedding.
//!
//! Two gates stand between a client and the scheduler:
//!
//! 1. **Backpressure** — each tenant's queue is bounded
//!    ([`crate::tenant::TenantSpec::queue_capacity`]); a submission to a
//!    full queue is rejected immediately instead of buffered, so offered
//!    load beyond capacity surfaces as rejections, not unbounded memory
//!    and latency.
//! 2. **EPC pressure** — when free EPC falls below [`EPC_LOW_WATER`] the
//!    host *sheds* whole tenants, lowest priority first, rejecting their
//!    new submissions. This degrades service for the least important
//!    tenants instead of letting the working set thrash through EWB/ELDU
//!    paging for everyone (§ IV-E is the expensive path this avoids).
//!
//! Once a request is **accepted it is never silently dropped** — shedding
//! closes the front door, and the scheduler drains whatever admission let
//! in. Under fault injection an accepted request may still terminate as
//! an *explicit* shed counted in
//! [`crate::tenant::Traffic::shed_requests`] (attempt budget or
//! deadline exhausted, or the tenant's circuit breaker opened — see
//! [`crate::recovery`]); the invariant the property tests hold is
//! reply-or-shed: `accepted == completed + shed_requests`.

use crate::tenant::{Request, TenantState};

/// Outcome of offering one request to admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Accepted and enqueued with this per-tenant sequence number.
    Accepted(u64),
    /// Rejected: the tenant's bounded queue is full (backpressure).
    RejectedFull,
    /// Rejected: the tenant is shed (EPC pressure, never loaded, or its
    /// circuit breaker is open).
    RejectedShed,
    /// Rejected: the submission named a tenant or service that does not
    /// exist (a client bug; the server keeps running).
    RejectedInvalid,
    /// Rejected: the tenant's inner enclaves have not passed (or have
    /// lost, after a rebuild) NEREPORT-gated admission — no verified
    /// attestation chain, no traffic.
    RejectedUnattested,
}

impl Admission {
    /// True for [`Admission::Accepted`].
    pub fn is_accepted(self) -> bool {
        matches!(self, Admission::Accepted(_))
    }
}

/// Shed tenants when free EPC pages drop below this.
pub const EPC_LOW_WATER: u64 = 64;

/// Offers one request for tenant `tenant`; on acceptance the request is
/// enqueued and assigned the tenant's next sequence number.
pub fn offer(
    tenant: &mut TenantState,
    tenant_idx: usize,
    service: usize,
    arrival: u64,
    payload: Vec<u8>,
) -> Admission {
    if tenant.shed {
        tenant.traffic.rejected_shed += 1;
        return Admission::RejectedShed;
    }
    if tenant.queue.len() >= tenant.spec.queue_capacity {
        tenant.traffic.rejected_full += 1;
        return Admission::RejectedFull;
    }
    let seq = tenant.next_seq;
    tenant.next_seq += 1;
    tenant.traffic.accepted += 1;
    tenant.queue.push_back(Request {
        tenant: tenant_idx,
        service,
        seq,
        arrival,
        payload,
        attempts: 0,
    });
    Admission::Accepted(seq)
}

/// True when `free_epc_pages` is below the shedding threshold.
pub fn under_pressure(free_epc_pages: u64) -> bool {
    free_epc_pages < EPC_LOW_WATER
}

/// Picks the tenant to shed under pressure: the lowest-priority tenant
/// that is loaded and not already shed (ties broken toward the higher
/// index, i.e. the later-arriving tenant). Returns its index.
pub fn shed_victim(tenants: &[TenantState]) -> Option<usize> {
    tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| t.loaded && !t.shed)
        .min_by_key(|(i, t)| (t.spec.priority, std::cmp::Reverse(*i)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceKind;
    use crate::tenant::TenantSpec;

    fn tenant(priority: u8, cap: usize, loaded: bool) -> TenantState {
        TenantState::new(
            TenantSpec::new("t", priority, vec![ServiceKind::Db]).queue_capacity(cap),
            loaded,
        )
    }

    #[test]
    fn bounded_queue_backpressure() {
        let mut t = tenant(1, 2, true);
        assert!(offer(&mut t, 0, 0, 0, vec![]).is_accepted());
        assert!(offer(&mut t, 0, 0, 0, vec![]).is_accepted());
        assert_eq!(offer(&mut t, 0, 0, 0, vec![]), Admission::RejectedFull);
        assert_eq!((t.traffic.accepted, t.traffic.rejected_full), (2, 1));
        // Draining one slot re-opens the queue.
        t.queue.pop_front();
        assert!(offer(&mut t, 0, 0, 0, vec![]).is_accepted());
    }

    #[test]
    fn shed_tenants_reject_everything() {
        let mut t = tenant(1, 8, true);
        t.shed = true;
        assert_eq!(offer(&mut t, 0, 0, 0, vec![]), Admission::RejectedShed);
        assert_eq!(t.traffic.rejected_shed, 1);
        assert_eq!(t.traffic.accepted, 0);
    }

    #[test]
    fn sequence_numbers_are_fifo() {
        let mut t = tenant(1, 8, true);
        for expect in 0..5u64 {
            assert_eq!(offer(&mut t, 0, 0, 0, vec![]), Admission::Accepted(expect));
        }
        let seqs: Vec<u64> = t.queue.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shed_victim_is_lowest_priority() {
        let mut ts = vec![tenant(5, 8, true), tenant(1, 8, true), tenant(3, 8, true)];
        assert_eq!(shed_victim(&ts), Some(1));
        ts[1].shed = true;
        assert_eq!(shed_victim(&ts), Some(2));
        ts[2].shed = true;
        assert_eq!(shed_victim(&ts), Some(0));
        ts[0].shed = true;
        assert_eq!(shed_victim(&ts), None);
    }

    #[test]
    fn pressure_threshold() {
        assert!(under_pressure(EPC_LOW_WATER - 1));
        assert!(!under_pressure(EPC_LOW_WATER));
    }
}
