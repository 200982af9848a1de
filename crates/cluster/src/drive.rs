//! Shard drivers: the host side of the serving cycle. Each loop
//! submits requests, steps the shard's server (EENTER the gate enclave,
//! NEENTER the service enclave) and takes the replies. There is one loop
//! per arrival process, [`closed_loop`] and [`open_loop`], plus
//! [`warmup`], and all three pull their payloads from a
//! [`RequestSource`]: the in-process [`FactorySource`] or the `ne-serve`
//! wire source.
//!
//! Two rules keep the loops shard-count invariant:
//!
//! * request factories are keyed by the tenant's **global** id
//!   ([`crate::Shard::globals`]), not its local slot, so a tenant's
//!   payload stream survives re-placement;
//! * the open-loop Poisson schedule is generated **globally**
//!   ([`poisson_schedule`]) and routed to shards afterwards
//!   ([`crate::Cluster::open_schedules`]), so offered arrival times do
//!   not depend on the shard count.

use crate::cluster::Shard;
use ne_host::{
    Completion, HostError, HostResult, HostServer, RequestFactory, ServiceKind, TenantSpec,
};
use ne_obs::Sampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mean inter-arrival gap of the open-loop Poisson process, in cycles
/// across all tenants — the same constant the unsharded `ne-load`
/// harness uses (roughly 70% utilization of three serving cores at the
/// mixed-service cost).
pub const MEAN_GAP_CYCLES: f64 = 120_000.0;

/// Salt XORed into the base seed for the open-loop arrival RNG; matches
/// `ne-load` so the global schedule is byte-identical to the unsharded
/// harness's.
pub const OPEN_LOOP_SALT: u64 = 0x5EED_AD11;

/// The standard tenant population the load harnesses use: `tenant{i}`
/// with priority `tenants - i` (earlier tenants more important) and
/// `services` service kinds cycling through [`ServiceKind::ALL`].
pub fn standard_specs(tenants: usize, services: usize) -> Vec<TenantSpec> {
    (0..tenants)
        .map(|i| {
            let kinds: Vec<ServiceKind> = (0..services)
                .map(|s| ServiceKind::ALL[s % ServiceKind::ALL.len()])
                .collect();
            TenantSpec::new(&format!("tenant{i}"), (tenants - i) as u8, kinds)
        })
        .collect()
}

/// The global open-loop Poisson arrival schedule: `requests` arrivals per
/// `(tenant, service)` pair, round-robin over `pairs`, with exponential
/// inter-arrival gaps of mean [`MEAN_GAP_CYCLES`] drawn from
/// `StdRng(seed ^ OPEN_LOOP_SALT)`. Entries are `(tenant, service, at)`
/// with whatever id space `pairs` carries (the cluster passes global
/// tenant ids and rewrites them to shard-local slots while routing).
pub fn poisson_schedule(
    pairs: &[(usize, usize)],
    requests: usize,
    seed: u64,
) -> Vec<(usize, usize, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ OPEN_LOOP_SALT);
    let mut schedule = Vec::with_capacity(requests * pairs.len());
    let mut at = 0u64;
    for i in 0..requests * pairs.len() {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += (-(1.0 - u).ln() * MEAN_GAP_CYCLES) as u64;
        let (t, s) = pairs[i % pairs.len()];
        schedule.push((t, s, at));
    }
    schedule
}

/// One factory per (local tenant, service) on the shard, keyed by the
/// tenant's **global** id so the payload stream is placement-invariant.
pub fn factories(shard: &Shard, seed: u64) -> Vec<Vec<RequestFactory>> {
    shard
        .server
        .tenants()
        .iter()
        .enumerate()
        .map(|(l, state)| {
            state
                .spec
                .services
                .iter()
                .map(|&k| RequestFactory::new(k, shard.globals[l], seed))
                .collect()
        })
        .collect()
}

/// What a [`RequestSource`] produced for one `pull`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pulled {
    /// The pair's next request payload.
    Request(Vec<u8>),
    /// The pair has no further requests (graceful end of stream).
    Done,
    /// The pair stopped producing before its stream ended (a wire
    /// client hit its read deadline, broke the connection, or violated
    /// the protocol). The driver sheds the whole tenant via
    /// [`ne_host::server::HostServer::shed_tenant`].
    Stalled,
}

/// Where a drive loop gets its request payloads and posts its results:
/// the seam between the simulation-stepping loops below and a transport
/// (the `ne-serve` TCP front door) or the in-process [`FactorySource`].
///
/// The contract that keeps every source byte-identical to the
/// in-process one: `pull` may block on wall-clock I/O but must not touch
/// the simulation, and for a well-behaved source it returns exactly the
/// payload stream a [`RequestFactory`] keyed by the same `(seed, global
/// tenant)` would produce. `deliver` and `rejected` are notifications
/// only (the driver ignores their effects entirely).
pub trait RequestSource {
    /// Produces the next request payload for `(tenant, service)`.
    fn pull(&mut self, tenant: usize, service: usize) -> Pulled;
    /// Reports a completion for `(tenant, service)` (reply delivery).
    fn deliver(&mut self, tenant: usize, service: usize, completion: &Completion);
    /// Reports that the pair's last pulled request was rejected by
    /// admission (backpressure or shed).
    fn rejected(&mut self, tenant: usize, service: usize);
}

/// Warmup request counts per (tenant, service): each pair serves its
/// provisioning requests plus at least one path-warming request.
pub fn setup_counts(factories: &[Vec<RequestFactory>]) -> Vec<Vec<usize>> {
    factories
        .iter()
        .map(|fs| fs.iter().map(|f| f.setup_requests().max(1)).collect())
        .collect()
}

/// The in-process [`RequestSource`]: serves a fixed number of payloads
/// per pair from the shard's own [`RequestFactory`] rows, then reports
/// [`Pulled::Done`]; it never stalls.
pub struct FactorySource<'a> {
    factories: &'a mut [Vec<RequestFactory>],
    /// Requests still to serve per pair.
    remaining: Vec<Vec<usize>>,
}

impl<'a> FactorySource<'a> {
    /// A source serving `requests` more requests per pair.
    pub fn new(factories: &'a mut [Vec<RequestFactory>], requests: usize) -> FactorySource<'a> {
        let remaining = factories
            .iter()
            .map(|fs| vec![requests; fs.len()])
            .collect();
        FactorySource {
            factories,
            remaining,
        }
    }

    /// A source serving exactly each pair's [`setup_counts`]: the
    /// requests [`warmup`] pulls.
    pub fn setup(factories: &'a mut [Vec<RequestFactory>]) -> FactorySource<'a> {
        FactorySource {
            remaining: setup_counts(factories),
            factories,
        }
    }
}

impl RequestSource for FactorySource<'_> {
    fn pull(&mut self, tenant: usize, service: usize) -> Pulled {
        let left = &mut self.remaining[tenant][service];
        if *left == 0 {
            return Pulled::Done;
        }
        *left -= 1;
        Pulled::Request(self.factories[tenant][service].next_request())
    }

    fn deliver(&mut self, _tenant: usize, _service: usize, _completion: &Completion) {}

    fn rejected(&mut self, _tenant: usize, _service: usize) {}
}

/// Serves `setup[t][s]` requests per live pair from `source` (see
/// [`setup_counts`]), each as it is submitted so setup never trips the
/// queue bound, then drains and resets the measurement window. A pair
/// that stalls or ends early sheds its whole tenant
/// ([`ne_host::server::HostServer::shed_tenant`]), which the measured
/// loops then treat like a tenant shed at admission.
///
/// # Errors
///
/// A warmup request that admission rejects (a queue bound too small for
/// setup), or a failed step or drain.
pub fn warmup(
    shard: &mut Shard,
    source: &mut dyn RequestSource,
    setup: &[Vec<usize>],
) -> HostResult<()> {
    let server = &mut shard.server;
    'tenants: for (t, counts) in setup.iter().enumerate() {
        if server.tenants()[t].shed {
            continue;
        }
        for (s, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                match source.pull(t, s) {
                    Pulled::Request(payload) => {
                        let admission = server.submit(t, s, server.now(), payload);
                        if !admission.is_accepted() {
                            return Err(HostError::BadRequest(format!(
                                "warmup request for tenant {t} service {s} rejected \
                                 ({admission:?}); queue bound too small for setup?"
                            )));
                        }
                        server.step()?;
                    }
                    Pulled::Done | Pulled::Stalled => {
                        server.shed_tenant(t);
                        continue 'tenants;
                    }
                }
            }
        }
    }
    server.drain()?;
    server.reset_measurement();
    Ok(())
}

/// Pulls `(t, s)`'s next request and submits it stamped `at`, telling
/// `source` about a rejection. A finished stream closes the pair in
/// `live`; a stalled one sheds the tenant and closes all its pairs.
/// Returns whether admission accepted, or `None` if nothing was pulled.
fn offer(
    server: &mut HostServer,
    source: &mut dyn RequestSource,
    live: &mut [Vec<bool>],
    (t, s, at): (usize, usize, u64),
) -> Option<bool> {
    match source.pull(t, s) {
        Pulled::Request(payload) => {
            let accepted = server.submit(t, s, at, payload).is_accepted();
            if !accepted {
                source.rejected(t, s);
            }
            Some(accepted)
        }
        Pulled::Done => {
            live[t][s] = false;
            None
        }
        Pulled::Stalled => {
            server.shed_tenant(t);
            live[t].iter_mut().for_each(|l| *l = false);
            None
        }
    }
}

/// One server step: `sampler` polls the serving clock (it only reads),
/// and a completion is delivered to `source` and returned. A `None` step
/// under chaos means a request was shed, not that the queues are dry.
fn step(
    server: &mut HostServer,
    source: &mut dyn RequestSource,
    sampler: Option<&mut Sampler>,
) -> HostResult<Option<Completion>> {
    let stepped = server.step()?;
    if let Some(sampler) = sampler {
        sampler.poll(server);
    }
    if let Some(c) = &stepped {
        source.deliver(c.tenant, c.service, c);
    }
    Ok(stepped)
}

/// [`offer`] for a live closed-loop pair, where a rejected submission
/// also closes the pair. Returns 1 if admission accepted a request.
fn resubmit(
    server: &mut HostServer,
    source: &mut dyn RequestSource,
    live: &mut [Vec<bool>],
    (t, s, at): (usize, usize, u64),
) -> u64 {
    if !live[t][s] {
        return 0;
    }
    let accepted = offer(server, source, live, (t, s, at));
    if accepted == Some(false) {
        live[t][s] = false;
    }
    u64::from(accepted == Some(true))
}

/// Offered-load run over a pre-routed arrival schedule (`(local tenant,
/// service, at)`): arrivals are submitted at their scheduled stamp
/// regardless of completions, and full queues reject (backpressure). A
/// stalled pair sheds its tenant and drops its later arrivals. `sampler`
/// polls after every step. Returns accepted.
///
/// # Errors
///
/// A failed server step.
pub fn open_loop(
    shard: &mut Shard,
    source: &mut dyn RequestSource,
    schedule: &[(usize, usize, u64)],
    mut sampler: Option<&mut Sampler>,
) -> HostResult<u64> {
    let server = &mut shard.server;
    let mut live: Vec<Vec<bool>> = server
        .tenants()
        .iter()
        .map(|t| vec![true; t.spec.services.len()])
        .collect();
    let mut accepted = 0u64;
    let mut i = 0;
    while i < schedule.len() || server.pending() > 0 {
        // Submit everything that has arrived by the serving clock; when
        // the server is idle, jump to the next arrival.
        while i < schedule.len() && (schedule[i].2 <= server.now() || server.pending() == 0) {
            let (t, s, _) = schedule[i];
            if live[t][s] && offer(server, source, &mut live, schedule[i]) == Some(true) {
                accepted += 1;
            }
            i += 1;
        }
        if server.pending() > 0 {
            step(server, source, sampler.as_deref_mut())?;
        }
    }
    Ok(accepted)
}

/// Think-time-free closed loop: each live pair keeps one request in
/// flight, submitting the next at the previous one's completion time
/// until `source` reports the pair done. Pulling from the *completed
/// pair's* stream fixes the order however a transport interleaves
/// arrivals. A rejected submission closes the pair; a stalled pair sheds
/// its tenant. `sampler` polls as in [`open_loop`]. Returns accepted.
///
/// # Errors
///
/// A failed server step.
pub fn closed_loop(
    shard: &mut Shard,
    source: &mut dyn RequestSource,
    mut sampler: Option<&mut Sampler>,
) -> HostResult<u64> {
    let server = &mut shard.server;
    let mut live: Vec<Vec<bool>> = server
        .tenants()
        .iter()
        .map(|t| vec![!t.shed; t.spec.services.len()])
        .collect();
    let mut accepted = 0u64;
    // Prime one in-flight request per live pair, in (tenant, service)
    // order.
    for t in 0..live.len() {
        for s in 0..live[t].len() {
            accepted += resubmit(server, source, &mut live, (t, s, 0));
        }
    }
    while server.pending() > 0 {
        if let Some(c) = step(server, source, sampler.as_deref_mut())? {
            accepted += resubmit(server, source, &mut live, (c.tenant, c.service, c.end));
        }
    }
    Ok(accepted)
}
