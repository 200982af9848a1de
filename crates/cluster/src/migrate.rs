//! Live cross-shard tenant migration: the cluster-level half of the
//! sealed-state lifecycle.
//!
//! A migration moves one tenant's sealed session state from its source
//! shard's machine to a destination shard's machine mid-run:
//!
//! 1. the source server runs the five-phase extract (quiesce → seal →
//!    EREMOVE), producing a [`ne_host::TenantSnapshot`] whose blobs are
//!    bound to the enclave's *measurement* — MRENCLAVE is load-position
//!    independent, so the rebuilt enclave on any machine derives the
//!    same `EGETKEY` seal key;
//! 2. the cluster advances the tenant's **seal-counter floor** (the
//!    coordinator-owned freshness authority — a replayed old snapshot
//!    is internally consistent, so only the floor can refuse it);
//! 3. the destination server adopts (rebuild → NASSO re-association →
//!    NEREPORT attestation → unseal-with-floor → resume). A failed
//!    adoption rolls the snapshot back onto the source shard — the
//!    tenant keeps serving either way, and no accepted request is ever
//!    dropped (parked requests travel inside the snapshot).
//!
//! Migrations only happen at **segment barriers** — points where every
//! shard has drained — driven by [`Cluster::run_segmented_closed_loop`],
//! which arms a fresh [`FactorySource`] per shard and segment over the
//! factory rows the barrier moves along with their tenants. Three triggers
//! compose at a barrier, in deterministic order: planned moves from the
//! [`MigrationPolicy`], EPC-pressure evacuation, then chaos-injected
//! requests (`migrate[:period]` in the fault grammar) drained from each
//! machine via [`ne_sgx::machine::Machine::take_migration_requests`].

use crate::cluster::{factory_prologue, shard_results, Cluster, ShardState};
use crate::drive::{self, FactorySource};
use ne_host::{HostError, HostResult};
use ne_obs::{SamplerConfig, TenantCarry, Timeline};

/// One planned cross-shard move for a segmented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Fires at the barrier after this segment index (0-based). The
    /// final segment has no barrier, so moves planned there never fire.
    pub segment: usize,
    /// Global tenant id to move.
    pub global: usize,
    /// Destination shard.
    pub to_shard: usize,
}

/// Migration controls for the segmented driver. The default policy
/// performs no planned moves, no EPC evacuation, and still honors
/// chaos-injected migration requests (they only exist if the fault
/// plan's grammar asked for `migrate`).
#[derive(Debug, Clone, Default)]
pub struct MigrationPolicy {
    /// Planned moves, executed in declaration order at their barriers.
    pub moves: Vec<PlannedMove>,
    /// When set, a shard whose free EPC is below this many pages at a
    /// barrier evacuates its largest loaded tenant to the freest other
    /// shard.
    pub epc_low_water: Option<usize>,
}

/// What triggered a migration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationTrigger {
    /// A [`PlannedMove`] in the policy.
    Planned,
    /// The EPC low-water evacuation policy.
    EpcPressure,
    /// A chaos-injected migration request.
    Chaos,
}

impl MigrationTrigger {
    /// Stable lowercase name (for logs and exports).
    pub fn name(self) -> &'static str {
        match self {
            MigrationTrigger::Planned => "planned",
            MigrationTrigger::EpcPressure => "epc-pressure",
            MigrationTrigger::Chaos => "chaos",
        }
    }
}

/// Outcome of one migration attempt. Both arms leave the tenant
/// serving somewhere — a migration never loses a tenant.
#[derive(Debug)]
pub enum MigrationOutcome {
    /// The tenant now serves from the destination shard.
    Adopted {
        /// Destination shard.
        to: usize,
        /// The tenant's new local slot there.
        local: usize,
    },
    /// Adoption failed; the snapshot was rolled back onto the source
    /// shard and the tenant serves from there.
    RolledBack {
        /// Why the destination refused.
        error: HostError,
        /// The tenant's new local slot back on the source shard.
        local: usize,
    },
}

/// One barrier migration, as recorded by the segmented driver.
#[derive(Debug)]
pub struct MigrationRecord {
    /// Barrier index (after this segment).
    pub segment: usize,
    /// Global tenant id.
    pub global: usize,
    /// Source shard.
    pub from: usize,
    /// What asked for the move.
    pub trigger: MigrationTrigger,
    /// How it ended.
    pub outcome: MigrationOutcome,
}

impl Cluster {
    /// Migrates global tenant `global` from `from_shard` to `to_shard`
    /// on an otherwise idle cluster (no driver running, no samplers
    /// attached — the segmented driver handles its own bookkeeping).
    /// On a refused adoption the tenant is rolled back onto
    /// `from_shard` and the refusal is reported in the outcome.
    ///
    /// # Errors
    ///
    /// [`HostError::BadRequest`] for an invalid placement or shard pair;
    /// extraction failures (e.g. an open circuit breaker); a rollback
    /// that itself fails (the only path that can lose a tenant, and it
    /// propagates rather than being swallowed).
    pub fn migrate_tenant(
        &mut self,
        global: usize,
        from_shard: usize,
        to_shard: usize,
    ) -> HostResult<MigrationOutcome> {
        if global >= self.assignment.len() {
            return Err(HostError::BadRequest(format!("no tenant {global}")));
        }
        if to_shard >= self.shards.len() {
            return Err(HostError::BadRequest(format!("no shard {to_shard}")));
        }
        let (placed, _) = self.assignment[global];
        if placed != from_shard {
            return Err(HostError::BadRequest(format!(
                "tenant {global} is on shard {placed}, not {from_shard}"
            )));
        }
        if from_shard == to_shard {
            return Err(HostError::BadRequest(format!(
                "tenant {global} is already on shard {to_shard}"
            )));
        }
        let (_, outcome) = self.do_migrate(global, to_shard)?;
        Ok(outcome)
    }

    /// The extract → floor → adopt-or-rollback core. Returns the old
    /// local slot on the source shard alongside the outcome so driver
    /// wrappers can move their per-slot state.
    fn do_migrate(&mut self, global: usize, to: usize) -> HostResult<(usize, MigrationOutcome)> {
        let (from, local) = self.assignment[global];
        let snap = self.shards[from].server.extract_tenant(local)?;
        self.seal_floors[global] = snap.seal_counter;
        let floor = self.seal_floors[global];
        match self.shards[to].server.adopt_tenant(&snap, floor) {
            Ok(new_local) => {
                self.shards[to].globals.push(global);
                self.assignment[global] = (to, new_local);
                Ok((
                    local,
                    MigrationOutcome::Adopted {
                        to,
                        local: new_local,
                    },
                ))
            }
            Err(error) => {
                let new_local = self.shards[from].server.rollback_tenant(&snap, floor)?;
                self.shards[from].globals.push(global);
                self.assignment[global] = (from, new_local);
                Ok((
                    local,
                    MigrationOutcome::RolledBack {
                        error,
                        local: new_local,
                    },
                ))
            }
        }
    }

    /// [`Cluster::do_migrate`] plus the per-shard driver bookkeeping:
    /// retires the tenant on the source sampler, adopts it on whichever
    /// shard it landed on, and moves its request-factory row so the
    /// next segment keeps its payload stream position.
    fn migrate_for_driver(
        &mut self,
        global: usize,
        to: usize,
        state: &mut [ShardState],
    ) -> HostResult<MigrationOutcome> {
        let (from, _) = self.assignment[global];
        let (old_local, outcome) = self.do_migrate(global, to)?;
        let landed = match &outcome {
            MigrationOutcome::Adopted { to, .. } => *to,
            MigrationOutcome::RolledBack { .. } => from,
        };
        let carry: Option<TenantCarry> = state[from]
            .1
            .as_mut()
            .map(|sampler| sampler.retire_tenant(global));
        if let (Some(sampler), Some(carry)) = (state[landed].1.as_mut(), carry) {
            sampler.adopt_tenant(&self.shards[landed].server, global, carry);
        }
        let row = std::mem::take(&mut state[from].0[old_local]);
        state[landed].0.push(row);
        debug_assert_eq!(
            state[landed].0.len(),
            self.shards[landed].server.tenants().len(),
            "factory rows must track tenant slots"
        );
        Ok(outcome)
    }

    /// The freest other shard (most free EPC pages; ties go to the
    /// lowest shard id). `None` on a one-shard cluster.
    fn freest_shard_excluding(&self, source: usize) -> Option<usize> {
        self.shards
            .iter()
            .filter(|s| s.id != source)
            .max_by(|a, b| {
                let fa = a.server.app.machine.free_epc_pages();
                let fb = b.server.app.machine.free_epc_pages();
                fa.cmp(&fb).then(b.id.cmp(&a.id))
            })
            .map(|s| s.id)
    }

    /// True if the tenant can be extracted right now (loaded, breaker
    /// closed) — pre-filtering keeps barrier migration total and turns
    /// "cannot move" into "did not move" instead of a driver error.
    fn migratable(&self, global: usize) -> bool {
        let (s, l) = self.assignment[global];
        let server = &self.shards[s].server;
        server.tenants()[l].loaded && !server.recovery_states()[l].breaker_open
    }

    /// Collects this barrier's moves in deterministic order: planned
    /// moves first, then EPC-pressure evacuations (shard order), then
    /// chaos-injected requests (shard order, request order). Each
    /// tenant moves at most once per barrier; machine-side migration
    /// requests are drained here even when they end up skipped.
    fn barrier_moves(
        &mut self,
        segment: usize,
        policy: &MigrationPolicy,
    ) -> Vec<(usize, usize, MigrationTrigger)> {
        let mut moves: Vec<(usize, usize, MigrationTrigger)> = Vec::new();
        let mut moving = vec![false; self.assignment.len()];
        for m in &policy.moves {
            if m.segment != segment
                || m.global >= self.assignment.len()
                || m.to_shard >= self.shards.len()
                || m.to_shard == self.assignment[m.global].0
                || moving[m.global]
                || !self.migratable(m.global)
            {
                continue;
            }
            moving[m.global] = true;
            moves.push((m.global, m.to_shard, MigrationTrigger::Planned));
        }
        if let Some(low) = policy.epc_low_water {
            for s in 0..self.shards.len() {
                if self.shards[s].server.app.machine.free_epc_pages() >= low {
                    continue;
                }
                // The biggest movable tenant on the shard; ties go to
                // the lowest global id.
                let victim = (0..self.assignment.len())
                    .filter(|&g| self.assignment[g].0 == s && !moving[g] && self.migratable(g))
                    .max_by_key(|&g| {
                        let (_, l) = self.assignment[g];
                        (
                            self.shards[s].server.tenant_epc_pages(l),
                            std::cmp::Reverse(g),
                        )
                    });
                let (Some(g), Some(dest)) = (victim, self.freest_shard_excluding(s)) else {
                    continue;
                };
                moving[g] = true;
                moves.push((g, dest, MigrationTrigger::EpcPressure));
            }
        }
        for s in 0..self.shards.len() {
            let requests = self.shards[s].server.app.machine.take_migration_requests();
            for eid in requests {
                let Some(l) = self.shards[s].server.eid_owner(eid) else {
                    continue;
                };
                let g = self.shards[s].globals[l];
                if self.assignment[g] != (s, l) || moving[g] || !self.migratable(g) {
                    continue;
                }
                let Some(dest) = self.freest_shard_excluding(s) else {
                    continue;
                };
                moving[g] = true;
                moves.push((g, dest, MigrationTrigger::Chaos));
            }
        }
        moves
    }

    /// Drives the closed-loop scenario in segments: each segment serves
    /// `segments[i]` requests per pair on every shard in parallel, from a
    /// [`FactorySource`] armed over the shard's factory rows. Between
    /// segments, with all shards drained, a barrier executes that round's
    /// migrations (planned, EPC-pressure, chaos-injected). `chaos` and
    /// `obs` as in [`Cluster::run_closed_loop`]; a migrating tenant hands
    /// its window cursor to the destination sampler, so the timeline
    /// keeps one totals line per tenant. Returns total accepted, the
    /// folded timeline, and the migration log.
    ///
    /// Running `[a, b]` with no migrations produces exactly the same
    /// per-tenant reply bytes as running `[a + b]` — reply streams
    /// depend only on the factory streams and sealed state, never on
    /// barrier timing — which is what makes the migration differential
    /// oracle byte-exact.
    ///
    /// # Errors
    ///
    /// A malformed chaos spec, a shard's typed drive error tagged with
    /// its shard id, or a migration whose rollback failed.
    pub fn run_segmented_closed_loop(
        &mut self,
        segments: &[usize],
        chaos: Option<&str>,
        policy: &MigrationPolicy,
        obs: Option<SamplerConfig>,
    ) -> Result<(u64, Option<Timeline>, Vec<MigrationRecord>), String> {
        let plans = self.chaos_plans(chaos)?;
        let seed = self.seed;
        let mut state = shard_results(self.run_parallel(plans, |shard, plan| {
            factory_prologue(shard, seed, plan, obs)
        }))?;
        let mut accepted = 0u64;
        let mut log: Vec<MigrationRecord> = Vec::new();
        for (i, &requests) in segments.iter().enumerate() {
            let results = self.run_parallel(state, |shard, (mut factories, mut sampler)| {
                let mut source = FactorySource::new(&mut factories, requests);
                let n = drive::closed_loop(shard, &mut source, sampler.as_mut())?;
                Ok((n, (factories, sampler)))
            });
            let (served, next): (Vec<u64>, _) = shard_results(results)?.into_iter().unzip();
            accepted += served.iter().sum::<u64>();
            state = next;
            if i + 1 == segments.len() {
                break;
            }
            for (global, to, trigger) in self.barrier_moves(i, policy) {
                let from = self.assignment[global].0;
                let outcome = self
                    .migrate_for_driver(global, to, &mut state)
                    .map_err(|e| format!("migrating tenant {global} to shard {to}: {e}"))?;
                log.push(MigrationRecord {
                    segment: i,
                    global,
                    from,
                    trigger,
                    outcome,
                });
            }
        }
        let samplers = state.into_iter().map(|(_, sampler)| sampler).collect();
        Ok((accepted, self.finish_samplers(samplers)?, log))
    }
}
