//! The incident correlator: joins chaos injections with the recovery
//! events and SLO impact they caused, per tenant, into structured
//! incident reports.
//!
//! An incident opens at the first window where a tenant's enclaves
//! take an injection, extends while injections, recovery events, or
//! SLO impact keep landing, and closes after one fully quiet window.
//! Correlation runs on a (possibly folded) [`Timeline`], so per-shard
//! and cluster-level reports agree.

use std::collections::BTreeMap;

use ne_host::RecoveryEventKind;
use ne_sgx::fault::ChaosKind;

use crate::slo::SloState;
use crate::window::{Timeline, Window};

/// One correlated incident for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Global tenant id.
    pub tenant: usize,
    /// Window index where the first injection landed.
    pub first_window: u64,
    /// Last window with incident activity.
    pub last_window: u64,
    /// Cycle of the earliest injection in the incident.
    pub first_cycle: u64,
    /// AEX-storm injections.
    pub aex: u64,
    /// Page-eviction injections.
    pub evict: u64,
    /// MAC-corruption injections.
    pub mac: u64,
    /// Enclave-crash injections.
    pub crash: u64,
    /// Stall injections.
    pub stall: u64,
    /// Migration-trigger injections.
    pub migrate: u64,
    /// Retry backoffs taken.
    pub backoffs: u64,
    /// Chaos-evicted pages reloaded.
    pub reloads: u64,
    /// Enclaves respawned (gate, service, or whole tenant).
    pub respawns: u64,
    /// Live-migration phases executed (quiesce through resume/rollback).
    pub migrations: u64,
    /// Requests shed during the incident.
    pub sheds: u64,
    /// True if the tenant's circuit breaker opened.
    pub breaker_opened: bool,
    /// Windows inside the incident whose SLO state was not OK.
    pub impacted_windows: u64,
    /// Worst SLO state seen inside the incident.
    pub worst: SloState,
}

/// Per-window activity for one tenant, extracted for correlation.
struct Activity {
    aex: u64,
    evict: u64,
    mac: u64,
    crash: u64,
    stall: u64,
    migrate: u64,
    first_cycle: Option<u64>,
    backoffs: u64,
    reloads: u64,
    respawns: u64,
    migrations: u64,
    sheds: u64,
    breaker: bool,
    impact: Option<SloState>,
}

impl Activity {
    fn injections(&self) -> u64 {
        self.aex + self.evict + self.mac + self.crash + self.stall + self.migrate
    }

    fn any(&self) -> bool {
        self.injections() > 0
            || self.backoffs + self.reloads + self.respawns + self.migrations + self.sheds > 0
            || self.breaker
            || self.impact.is_some()
    }
}

fn activity(w: &Window, tenant: usize) -> Activity {
    let mut a = Activity {
        aex: 0,
        evict: 0,
        mac: 0,
        crash: 0,
        stall: 0,
        migrate: 0,
        first_cycle: None,
        backoffs: 0,
        reloads: 0,
        respawns: 0,
        migrations: 0,
        sheds: 0,
        breaker: false,
        impact: None,
    };
    for inj in w.injections.iter().filter(|i| i.tenant == Some(tenant)) {
        match inj.kind {
            ChaosKind::Aex => a.aex += 1,
            ChaosKind::Evict => a.evict += 1,
            ChaosKind::Mac => a.mac += 1,
            ChaosKind::Crash => a.crash += 1,
            ChaosKind::Stall => a.stall += 1,
            ChaosKind::Migrate => a.migrate += 1,
        }
        a.first_cycle = Some(a.first_cycle.map_or(inj.cycle, |c| c.min(inj.cycle)));
    }
    for ev in w.recoveries.iter().filter(|r| r.tenant == tenant) {
        match ev.kind {
            RecoveryEventKind::Backoff { .. } => a.backoffs += 1,
            RecoveryEventKind::Reload => a.reloads += 1,
            RecoveryEventKind::RespawnGate
            | RecoveryEventKind::RespawnService
            | RecoveryEventKind::RespawnTenant => a.respawns += 1,
            RecoveryEventKind::Migrate(_) => a.migrations += 1,
            RecoveryEventKind::BreakerOpen => a.breaker = true,
            RecoveryEventKind::Shed(_) => a.sheds += 1,
        }
    }
    if let Some(row) = w.tenants.iter().find(|r| r.tenant == tenant) {
        if row.slo != SloState::Ok {
            a.impact = Some(row.slo);
        }
    }
    a
}

/// Correlates a timeline into its incidents, sorted by (first window,
/// tenant). A clean run yields an empty vector.
pub fn correlate(t: &Timeline) -> Vec<Incident> {
    let mut tenants: Vec<usize> = t
        .all_windows()
        .flat_map(|w| w.tenants.iter().map(|r| r.tenant))
        .collect();
    tenants.sort_unstable();
    tenants.dedup();

    let mut open: BTreeMap<usize, Incident> = BTreeMap::new();
    let mut done: Vec<Incident> = Vec::new();
    for w in t.all_windows() {
        for &tenant in &tenants {
            let a = activity(w, tenant);
            match open.get_mut(&tenant) {
                Some(inc) => {
                    if a.any() {
                        extend(inc, w.index, &a);
                    } else {
                        // First fully quiet window closes the incident.
                        done.push(open.remove(&tenant).unwrap());
                    }
                }
                None => {
                    if a.injections() > 0 {
                        let mut inc = Incident {
                            tenant,
                            first_window: w.index,
                            last_window: w.index,
                            first_cycle: a.first_cycle.unwrap_or(0),
                            aex: 0,
                            evict: 0,
                            mac: 0,
                            crash: 0,
                            stall: 0,
                            migrate: 0,
                            backoffs: 0,
                            reloads: 0,
                            respawns: 0,
                            migrations: 0,
                            sheds: 0,
                            breaker_opened: false,
                            impacted_windows: 0,
                            worst: SloState::Ok,
                        };
                        extend(&mut inc, w.index, &a);
                        open.insert(tenant, inc);
                    }
                }
            }
        }
    }
    done.extend(open.into_values());
    done.sort_by_key(|i| (i.first_window, i.tenant));
    done
}

fn extend(inc: &mut Incident, window: u64, a: &Activity) {
    inc.last_window = window;
    inc.aex += a.aex;
    inc.evict += a.evict;
    inc.mac += a.mac;
    inc.crash += a.crash;
    inc.stall += a.stall;
    inc.migrate += a.migrate;
    inc.backoffs += a.backoffs;
    inc.reloads += a.reloads;
    inc.respawns += a.respawns;
    inc.migrations += a.migrations;
    inc.sheds += a.sheds;
    inc.breaker_opened |= a.breaker;
    if let Some(s) = a.impact {
        inc.impacted_windows += 1;
        inc.worst = inc.worst.max(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{Injection, Recovery, TenantWindow, Window};

    fn timeline(windows: Vec<Window>) -> Timeline {
        let mut t = Timeline::new(1_000);
        for w in windows {
            t.push(w);
        }
        t
    }

    fn quiet(index: u64, tenant: usize) -> Window {
        let mut w = Window::new(index);
        w.tenants.push(TenantWindow::new(tenant));
        w
    }

    #[test]
    fn clean_timeline_has_no_incidents() {
        let t = timeline(vec![quiet(0, 0), quiet(1, 0)]);
        assert!(correlate(&t).is_empty());
    }

    #[test]
    fn injection_recovery_and_impact_join_into_one_incident() {
        let mut w0 = quiet(0, 0);
        w0.injections.push(Injection {
            cycle: 500,
            eid: 1,
            tenant: Some(0),
            kind: ChaosKind::Crash,
        });
        w0.recoveries.push(Recovery {
            cycle: 600,
            tenant: 0,
            kind: RecoveryEventKind::RespawnService,
        });
        let mut w1 = quiet(1, 0);
        w1.tenants[0].traffic.shed_requests = 3;
        w1.tenants[0].slo = SloState::Page;
        w1.recoveries.push(Recovery {
            cycle: 1_100,
            tenant: 0,
            kind: RecoveryEventKind::Shed(ne_host::ShedReason::BreakerOpen),
        });
        // Window 2 is quiet: the incident closes there.
        let mut w3 = quiet(3, 0);
        w3.injections.push(Injection {
            cycle: 3_100,
            eid: 1,
            tenant: Some(0),
            kind: ChaosKind::Aex,
        });
        let t = timeline(vec![w0, w1, quiet(2, 0), w3]);
        let incidents = correlate(&t);
        assert_eq!(incidents.len(), 2);
        let first = &incidents[0];
        assert_eq!((first.first_window, first.last_window), (0, 1));
        assert_eq!(first.first_cycle, 500);
        assert_eq!(first.crash, 1);
        assert_eq!(first.respawns, 1);
        assert_eq!(first.sheds, 1);
        assert_eq!(first.impacted_windows, 1);
        assert_eq!(first.worst, SloState::Page);
        assert_eq!(incidents[1].first_window, 3);
    }
}
