//! The cluster: N independent machine shards behind one report.
//!
//! [`Cluster::build`] places every tenant on a shard (consistent
//! hashing by name), builds one full [`HostServer`] per shard with the
//! tenant's seeding identity pinned to its **global** id, and keeps the
//! global ↔ (shard, local) mapping so reports and exports can always be
//! presented in global-tenant order — sorted by tenant id everywhere,
//! never in shard or hash order.

use crate::drive::{self, FactorySource, RequestSource};
use crate::migrate::MigrationPolicy;
use crate::ring::{shard_seed, ShardRing};
use ne_host::scheduler::SchedulerStats;
use ne_host::server::{HostConfig, HostServer, TenantReport};
use ne_host::tenant::Completion;
use ne_host::{HostResult, RequestFactory, TenantSpec};
use ne_obs::{Sampler, SamplerConfig, Timeline};
use ne_sgx::fault::{ChaosStats, FaultPlan, CHAOS_SALT};
use ne_sgx::metrics::MachineMetrics;
use ne_sgx::profile::{Histogram, ProfileEvent};
use ne_sgx::spantree::TraceBundle;

/// Cluster configuration: a host-server template plus the shard layout.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Template for every shard's server. Its `tenants` list is the
    /// **global** tenant list (global tenant id = index in this list);
    /// every other field (hardware model, seed, switchless, admission,
    /// recovery) is applied to each shard as-is.
    pub host: HostConfig,
    /// Number of machine shards (≥ 1). Each shard is a fully
    /// independent simulated machine driven by its own OS thread.
    pub shards: usize,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: usize,
}

impl ClusterConfig {
    /// A cluster over `tenants` with `shards` shards and the default
    /// host template / ring geometry.
    pub fn new(tenants: Vec<TenantSpec>, shards: usize) -> ClusterConfig {
        ClusterConfig {
            host: HostConfig::new(tenants),
            shards,
            vnodes: ShardRing::DEFAULT_VNODES,
        }
    }
}

/// One shard: an independent [`HostServer`] (own machine, own EPC, own
/// scheduler) plus its placement bookkeeping.
pub struct Shard {
    /// Shard index; fixes merge order and id namespacing.
    pub id: usize,
    /// The shard's chaos-plan seed, [`shard_seed`]`(base ^
    /// CHAOS_SALT, id)`: shard 0 of a one-shard cluster seeds chaos
    /// exactly as an unsharded harness does, and higher shards get
    /// independent streams.
    pub chaos_seed: u64,
    /// Global ids of the tenants on this shard, in global order; entry
    /// `l` is the global id of the shard's local tenant `l`.
    pub globals: Vec<usize>,
    /// The shard's server.
    pub server: HostServer,
}

impl Shard {
    /// The per-shard prologue every driver runs: [`drive::warmup`] from
    /// `source`, chaos install, then a sampler if `obs` asks for one, so
    /// the sampler sees exactly the measured run.
    ///
    /// # Errors
    ///
    /// A warmup failure (see [`drive::warmup`]).
    pub fn prologue(
        &mut self,
        source: &mut dyn RequestSource,
        setup: &[Vec<usize>],
        chaos: Option<FaultPlan>,
        obs: Option<SamplerConfig>,
    ) -> HostResult<Option<Sampler>> {
        drive::warmup(self, source, setup)?;
        if let Some(plan) = chaos {
            self.server.install_chaos(plan);
        }
        Ok(obs.map(|cfg| Sampler::new(&self.server, self.globals.clone(), cfg)))
    }
}

/// An in-process driver's per-shard state between loops: the shard's
/// request-factory rows (one per local tenant slot) and its sampler.
pub(crate) type ShardState = (Vec<Vec<RequestFactory>>, Option<Sampler>);

/// The in-process prologue: the shard's factory rows, keyed by global
/// tenant id, warmed up from their own setup streams.
pub(crate) fn factory_prologue(
    shard: &mut Shard,
    seed: u64,
    chaos: Option<FaultPlan>,
    obs: Option<SamplerConfig>,
) -> HostResult<ShardState> {
    let mut factories = drive::factories(shard, seed);
    let setup = drive::setup_counts(&factories);
    let source = &mut FactorySource::setup(&mut factories);
    let sampler = shard.prologue(source, &setup, chaos, obs)?;
    Ok((factories, sampler))
}

/// Per-shard results in shard order; the first failure comes back
/// tagged with its shard id.
pub(crate) fn shard_results<T>(results: Vec<HostResult<T>>) -> Result<Vec<T>, String> {
    results
        .into_iter()
        .enumerate()
        .map(|(id, r)| r.map_err(|e| format!("shard {id}: {e}")))
        .collect()
}

/// Per-tenant row of a [`ClusterReport`], tagged with the tenant's
/// global id and placement.
#[derive(Debug, Clone)]
pub struct GlobalTenantReport {
    /// Global tenant id (index in the cluster's tenant list).
    pub global: usize,
    /// Shard the tenant was placed on.
    pub shard: usize,
    /// The tenant's report from its shard's server.
    pub report: TenantReport,
}

/// End-of-run summary across every shard, in global-tenant order.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// One row per tenant, sorted by global tenant id.
    pub tenants: Vec<GlobalTenantReport>,
    /// Scheduler counters folded across shards (sums; `max_backlog` is
    /// the max over shards).
    pub sched: SchedulerStats,
    /// Whether the shards ran with a switchless worker core.
    pub switchless: bool,
    /// Switchless→classic reply degradations across shards.
    pub degraded_replies: u64,
}

impl ClusterReport {
    /// Total completions across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.report.completed).sum()
    }

    /// Total accepted across tenants.
    pub fn accepted(&self) -> u64 {
        self.tenants.iter().map(|t| t.report.accepted).sum()
    }

    /// Total explicit sheds across tenants.
    pub fn shed_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.report.shed_requests).sum()
    }

    /// Total enclave respawns across tenants.
    pub fn respawns(&self) -> u64 {
        self.tenants.iter().map(|t| t.report.respawns).sum()
    }
}

/// The sharded cluster. See the [crate docs](crate) for the invariants.
pub struct Cluster {
    pub(crate) shards: Vec<Shard>,
    /// `assignment[global] == (shard, local index on that shard)`.
    pub(crate) assignment: Vec<(usize, usize)>,
    pub(crate) seed: u64,
    /// Authoritative per-global-tenant seal-counter floor: the highest
    /// seal counter the cluster has ever extracted for the tenant. A
    /// sealed snapshot below its tenant's floor is a replay of retired
    /// state and every adoption refuses it
    /// ([`ne_host::HostError::StateRollback`]). The floor lives here —
    /// not in any snapshot — because a replayed snapshot is internally
    /// consistent; only the coordinator knows it is old.
    pub(crate) seal_floors: Vec<u64>,
}

impl Cluster {
    /// Builds the cluster: places each tenant with the ring, pins its
    /// seeding identity to its global id, and builds every shard's
    /// server (serially — builds are cheap and a fixed build order keeps
    /// EPC-shedding decisions reproducible).
    ///
    /// # Errors
    ///
    /// Any shard's [`HostServer::build`] failure.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero (via [`ShardRing::new`]).
    pub fn build(cfg: ClusterConfig) -> HostResult<Cluster> {
        let ring = ShardRing::new(cfg.shards, cfg.vnodes);
        let mut specs: Vec<Vec<TenantSpec>> = (0..cfg.shards).map(|_| Vec::new()).collect();
        let mut globals: Vec<Vec<usize>> = (0..cfg.shards).map(|_| Vec::new()).collect();
        let mut assignment = Vec::with_capacity(cfg.host.tenants.len());
        for (g, spec) in cfg.host.tenants.iter().enumerate() {
            let s = ring.shard_of(&spec.name);
            assignment.push((s, specs[s].len()));
            // Pin the seeding identity to the global id unless the caller
            // already pinned one; local slots shift with placement, global
            // ids do not — that is what makes tenant streams
            // shard-layout-invariant.
            let mut spec = spec.clone();
            spec.seed_index = Some(spec.seed_index.unwrap_or(g));
            specs[s].push(spec);
            globals[s].push(g);
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        for (id, (specs, globals)) in specs.into_iter().zip(globals).enumerate() {
            let mut host = cfg.host.clone();
            host.tenants = specs;
            let server = HostServer::build(host)?;
            shards.push(Shard {
                id,
                chaos_seed: shard_seed(cfg.host.seed ^ CHAOS_SALT, id),
                globals,
                server,
            });
        }
        let seal_floors = vec![0; assignment.len()];
        Ok(Cluster {
            shards,
            assignment,
            seed: cfg.host.seed,
            seal_floors,
        })
    }

    /// Number of tenants across the cluster.
    pub fn num_tenants(&self) -> usize {
        self.assignment.len()
    }

    /// The base seed the cluster was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Mutable access to the shards, for external drivers (the
    /// `ne-serve` wire front door runs [`Shard::prologue`] and a drive
    /// loop on shard 0 of a one-shard cluster, between socket polls).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// `(shard, local index)` of a global tenant id.
    pub fn placement(&self, global: usize) -> (usize, usize) {
        self.assignment[global]
    }

    /// The authoritative seal-counter floor for a global tenant: sealed
    /// snapshots with a lower counter are replays and are refused at
    /// adoption. Grows by one with every extraction.
    pub fn seal_floor(&self, global: usize) -> u64 {
        self.seal_floors[global]
    }

    /// Runs `f` once per shard with that shard's payload (e.g. its
    /// arrival schedule or chaos plan; `payloads[i]` goes to shard `i`)
    /// — **one OS thread per shard** — and returns the results in shard
    /// order. The single-shard case runs inline on the calling thread,
    /// so a one-shard cluster is bit-compatible with (and as debuggable
    /// as) the unsharded path.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` is not one per shard, or if a shard thread
    /// panics (the panic is propagated).
    pub fn run_parallel<P, R, F>(&mut self, payloads: Vec<P>, f: F) -> Vec<R>
    where
        P: Send,
        R: Send,
        F: Fn(&mut Shard, P) -> R + Sync,
    {
        assert_eq!(payloads.len(), self.shards.len(), "one payload per shard");
        if self.shards.len() == 1 {
            let payload = payloads.into_iter().next().expect("one payload");
            return vec![f(&mut self.shards[0], payload)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .zip(payloads)
                .map(|(shard, payload)| {
                    let f = &f;
                    scope.spawn(move || f(shard, payload))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        })
    }

    /// Drives the closed-loop scenario ([`drive::closed_loop`]) on every
    /// shard in parallel until each pair has served `requests`: the
    /// one-segment case of [`Cluster::run_segmented_closed_loop`], so no
    /// barrier runs. `chaos` is a fault-plan spec, seeded per shard from
    /// [`Shard::chaos_seed`]; `obs` attaches a sampler per shard, which
    /// only reads, so every other export is byte-identical without it.
    /// Returns total accepted and the folded timeline (`Some` iff `obs`).
    ///
    /// # Errors
    ///
    /// A malformed chaos spec, or a shard's drive error tagged with its
    /// shard id.
    pub fn run_closed_loop(
        &mut self,
        requests: usize,
        chaos: Option<&str>,
        obs: Option<SamplerConfig>,
    ) -> Result<(u64, Option<Timeline>), String> {
        let (accepted, timeline, _) =
            self.run_segmented_closed_loop(&[requests], chaos, &MigrationPolicy::default(), obs)?;
        Ok((accepted, timeline))
    }

    /// Drives the open-loop scenario ([`drive::open_loop`]): every shard
    /// plays its share of [`Cluster::open_schedules`] in parallel.
    /// Arguments and result as in [`Cluster::run_closed_loop`].
    ///
    /// # Errors
    ///
    /// See [`Cluster::run_closed_loop`].
    pub fn run_open_loop(
        &mut self,
        requests: usize,
        chaos: Option<&str>,
        obs: Option<SamplerConfig>,
    ) -> Result<(u64, Option<Timeline>), String> {
        let plans = self.chaos_plans(chaos)?;
        let payloads = self.open_schedules(requests).into_iter().zip(plans);
        let seed = self.seed;
        let results = self.run_parallel(payloads.collect(), |shard, (schedule, plan)| {
            let (mut factories, mut sampler) = factory_prologue(shard, seed, plan, obs)?;
            let mut source = FactorySource::new(&mut factories, requests);
            let accepted = drive::open_loop(shard, &mut source, &schedule, sampler.as_mut())?;
            Ok((accepted, sampler))
        });
        let (accepted, samplers): (Vec<u64>, Vec<_>) = shard_results(results)?.into_iter().unzip();
        Ok((accepted.iter().sum(), self.finish_samplers(samplers)?))
    }

    /// The open-loop arrival schedules, one per shard: one **global**
    /// [`drive::poisson_schedule`] over every pair in global order (so
    /// offered arrival times are shard-count-invariant), routed to each
    /// tenant's shard in schedule order with its local slot as the id.
    pub fn open_schedules(&self, requests: usize) -> Vec<Vec<(usize, usize, u64)>> {
        let pairs: Vec<(usize, usize)> = (0..self.num_tenants())
            .flat_map(|g| {
                let (s, l) = self.assignment[g];
                let services = self.shards[s].server.tenants()[l].spec.services.len();
                (0..services).map(move |svc| (g, svc))
            })
            .collect();
        let mut routed: Vec<Vec<(usize, usize, u64)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (g, svc, at) in drive::poisson_schedule(&pairs, requests, self.seed) {
            let (s, l) = self.assignment[g];
            routed[s].push((l, svc, at));
        }
        routed
    }

    /// One chaos plan per shard, seeded with its [`Shard::chaos_seed`]
    /// (all `None` without a spec).
    ///
    /// # Errors
    ///
    /// A malformed spec.
    pub fn chaos_plans(&self, chaos: Option<&str>) -> Result<Vec<Option<FaultPlan>>, String> {
        self.shards
            .iter()
            .map(|shard| {
                chaos
                    .map(|spec| FaultPlan::parse(spec, shard.chaos_seed))
                    .transpose()
            })
            .collect()
    }

    /// The per-run epilogue: each shard's sampler finishes into a
    /// timeline rebased to its shard ([`Timeline::rebase_shard`]), and
    /// the timelines fold in shard order. `None` for an unobserved run.
    ///
    /// # Errors
    ///
    /// An impossible fold (all shards share one sampler config).
    pub fn finish_samplers(
        &mut self,
        samplers: Vec<Option<Sampler>>,
    ) -> Result<Option<Timeline>, String> {
        let timelines: Option<Vec<Timeline>> = self
            .run_parallel(samplers, |shard, sampler| {
                sampler.map(|sampler| {
                    let mut timeline = sampler.finish(&shard.server);
                    timeline.rebase_shard(shard.id);
                    timeline
                })
            })
            .into_iter()
            .collect();
        timelines.map(|t| Timeline::fold(&t)).transpose()
    }

    /// The end-of-run invariants every harness checks: zero scheduler
    /// invariant violations, reply-or-shed for the run's `accepted`
    /// requests, and the §5 identities on the merged metrics, which it
    /// returns with the report.
    ///
    /// # Errors
    ///
    /// The first broken invariant.
    pub fn verify_run(&self, accepted: u64) -> Result<(ClusterReport, MachineMetrics), String> {
        let report = self.report();
        if report.sched.invariant_violations > 0 {
            return Err(format!(
                "scheduler invariant violated {} times",
                report.sched.invariant_violations
            ));
        }
        let (completed, shed) = (report.completed(), report.shed_requests());
        if completed + shed != accepted {
            return Err(format!(
                "accepted request lost: {completed} completed + {shed} shed != {accepted} accepted"
            ));
        }
        let metrics = self.merged_metrics()?;
        metrics.check()?;
        Ok((report, metrics))
    }

    /// The merged cluster-wide metrics report: per-shard snapshots
    /// namespaced and folded in shard order
    /// ([`MachineMetrics::merge_shards`]). The result passes the §5
    /// attribution identity checker; for one shard it is byte-identical
    /// to that shard's plain snapshot.
    ///
    /// # Errors
    ///
    /// Shards with mismatched machine configurations (never happens for
    /// a [`Cluster::build`]-built cluster).
    pub fn merged_metrics(&self) -> Result<MachineMetrics, String> {
        let per_shard: Vec<MachineMetrics> = self
            .shards
            .iter()
            .map(|s| s.server.app.machine.metrics())
            .collect();
        MachineMetrics::merge_shards(&per_shard)
    }

    /// Chaos decision counters summed across shards; `None` when no
    /// shard has a plan installed.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        let per_shard: Vec<ChaosStats> = self
            .shards
            .iter()
            .filter_map(|s| s.server.chaos_stats())
            .collect();
        if per_shard.is_empty() {
            return None;
        }
        let mut total = ChaosStats::default();
        for cs in per_shard {
            total.eenters_seen += cs.eenters_seen;
            total.aex_storms += cs.aex_storms;
            total.forced_evictions += cs.forced_evictions;
            total.tamperings += cs.tamperings;
            total.crashes += cs.crashes;
            total.stalls += cs.stalls;
            total.migrations += cs.migrations;
        }
        Some(total)
    }

    /// The end-to-end request-latency histogram folded across shards.
    pub fn request_histogram(&self) -> Histogram {
        let mut out = Histogram::new();
        for s in &self.shards {
            out.merge(&s.server.app.machine.profile().merged(ProfileEvent::Request));
        }
        out
    }

    /// The modelled clock (same on every shard).
    pub fn clock_ghz(&self) -> f64 {
        self.shards[0].server.app.machine.config().cost.clock_ghz
    }

    /// Every completion with its tenant's **global** id, shard by shard.
    pub fn completions(&self) -> Vec<(usize, &Completion)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.server
                    .completions()
                    .iter()
                    .map(move |c| (s.globals[c.tenant], c))
            })
            .collect()
    }

    /// Trace bundles captured per shard, in shard order.
    pub fn trace_bundles(&self) -> Vec<TraceBundle> {
        self.shards
            .iter()
            .map(|s| TraceBundle::capture(&s.server.app.machine))
            .collect()
    }

    /// The end-of-run summary, rows sorted by global tenant id.
    pub fn report(&self) -> ClusterReport {
        let per_shard: Vec<_> = self.shards.iter().map(|s| s.server.report()).collect();
        let tenants = self
            .assignment
            .iter()
            .enumerate()
            .map(|(g, &(s, l))| GlobalTenantReport {
                global: g,
                shard: s,
                report: per_shard[s].tenants[l].clone(),
            })
            .collect();
        let mut sched = SchedulerStats::default();
        for r in &per_shard {
            sched.dispatched += r.sched.dispatched;
            sched.home_dispatches += r.sched.home_dispatches;
            sched.steals += r.sched.steals;
            sched.invariant_violations += r.sched.invariant_violations;
            sched.max_backlog = sched.max_backlog.max(r.sched.max_backlog);
        }
        ClusterReport {
            tenants,
            sched,
            switchless: per_shard.first().is_some_and(|r| r.switchless),
            degraded_replies: per_shard.iter().map(|r| r.degraded_replies).sum(),
        }
    }

    /// The canonical per-tenant export (`ne-tenants/v1`): one line per
    /// tenant, **sorted by global tenant id**, carrying the traffic
    /// counters and a SHA-256 digest over the tenant's replies in
    /// (service, seq) order. Shard placement is deliberately excluded:
    /// under the clean closed-loop scenario these bytes are identical at
    /// every shard count, which is exactly what the
    /// shard-count-invariance oracle (and CI's `determinism-smoke`
    /// byte-diff) checks.
    pub fn tenants_export(&self) -> String {
        let mut out = String::from("schema: ne-tenants/v1\n");
        for (g, &(s, l)) in self.assignment.iter().enumerate() {
            let server = &self.shards[s].server;
            let t = &server.tenants()[l];
            // Replies in (service, seq) order, independent of completion
            // interleaving across cores.
            let mut replies: Vec<&Completion> = server
                .completions()
                .iter()
                .filter(|c| c.tenant == l)
                .collect();
            replies.sort_by_key(|c| (c.service, c.seq));
            let mut bytes = Vec::new();
            for c in &replies {
                bytes.extend_from_slice(&(c.service as u32).to_le_bytes());
                bytes.extend_from_slice(&c.seq.to_le_bytes());
                bytes.extend_from_slice(&(c.reply.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&c.reply);
            }
            let digest = ne_crypto::sha256_digest(&bytes);
            let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
            out.push_str(&format!(
                "tenant {g} name {} accepted {} rejected_full {} rejected_shed {} \
                 completed {} shed {} replies sha256:{hex}\n",
                t.spec.name,
                t.accepted,
                t.rejected_full,
                t.rejected_shed,
                t.completed,
                t.shed_requests,
            ));
        }
        out
    }
}
