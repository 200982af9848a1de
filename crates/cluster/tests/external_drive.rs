//! The one-loop equivalence oracle: [`Cluster::run_closed_loop`] and
//! [`Cluster::run_open_loop`], which drive the [`RequestSource`] loops
//! ([`drive::warmup`], [`drive::closed_loop`], [`drive::open_loop`])
//! from a [`drive::FactorySource`], must be **byte-identical** to
//! the reference factory loops below in every export — accepted counts,
//! the `ne-tenants/v1` export, and the merged `ne-metrics/v2` JSON,
//! clean and under chaos.
//!
//! The reference loops are the historic harness, written directly over
//! raw [`RequestFactory`] rows with no source in between. The `ne-serve`
//! wire source only has to match `FactorySource`, and this test pins
//! `FactorySource` and the shared per-shard sequence to the reference.

use ne_cluster::{drive, Cluster, ClusterConfig, Shard};
use ne_host::RequestFactory;
use ne_sgx::fault::FaultPlan;

const SEED: u64 = 0x5E12_4E57;

fn build(tenants: usize, services: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(drive::standard_specs(tenants, services), 1);
    cfg.host.seed = SEED;
    Cluster::build(cfg).expect("cluster build")
}

fn exports(cluster: &Cluster) -> (String, String) {
    let metrics = cluster.merged_metrics().expect("metrics merge");
    metrics.check().expect("metrics identities");
    (cluster.tenants_export(), metrics.to_json())
}

/// Reference warmup: every provisioning request (db schema + pre-loads;
/// at least one request per service to warm the paths), served as it is
/// submitted, then drain and reset the measurement window.
fn reference_warmup(shard: &mut Shard, factories: &mut [Vec<RequestFactory>]) {
    let server = &mut shard.server;
    for (t, tenant_factories) in factories.iter_mut().enumerate() {
        if server.tenants()[t].shed {
            continue;
        }
        for (s, factory) in tenant_factories.iter_mut().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                let payload = factory.next_request();
                assert!(
                    server.submit(t, s, server.now(), payload).is_accepted(),
                    "warmup request rejected"
                );
                server.step().expect("warmup step");
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
}

/// Reference open loop over a pre-routed arrival schedule: arrivals
/// are submitted on time regardless of completions; full queues reject.
fn reference_open_loop(
    shard: &mut Shard,
    factories: &mut [Vec<RequestFactory>],
    schedule: &[(usize, usize, u64)],
) -> u64 {
    let server = &mut shard.server;
    let mut accepted = 0u64;
    let mut i = 0;
    while i < schedule.len() || server.pending() > 0 {
        while i < schedule.len() && (schedule[i].2 <= server.now() || server.pending() == 0) {
            let (t, s, at) = schedule[i];
            i += 1;
            let payload = factories[t][s].next_request();
            if server.submit(t, s, at, payload).is_accepted() {
                accepted += 1;
            }
        }
        if server.pending() > 0 {
            server.step().expect("open-loop step");
        }
    }
    accepted
}

/// Reference closed loop: one client per (tenant, service), each
/// submitting its next request at the completion time of its previous
/// one, `requests` times; a rejected client stops.
fn reference_closed_loop(
    shard: &mut Shard,
    factories: &mut [Vec<RequestFactory>],
    requests: usize,
) -> u64 {
    let server = &mut shard.server;
    let mut remaining: Vec<Vec<usize>> = factories
        .iter()
        .enumerate()
        .map(|(t, fs)| {
            let n = if server.tenants()[t].shed {
                0
            } else {
                requests
            };
            vec![n; fs.len()]
        })
        .collect();
    let mut accepted = 0u64;
    for t in 0..factories.len() {
        for s in 0..factories[t].len() {
            if remaining[t][s] > 0 {
                remaining[t][s] -= 1;
                let payload = factories[t][s].next_request();
                if server.submit(t, s, 0, payload).is_accepted() {
                    accepted += 1;
                } else {
                    remaining[t][s] = 0;
                }
            }
        }
    }
    while server.pending() > 0 {
        let Some(c) = server.step().expect("closed-loop step") else {
            continue;
        };
        if remaining[c.tenant][c.service] > 0 {
            remaining[c.tenant][c.service] -= 1;
            let payload = factories[c.tenant][c.service].next_request();
            if server
                .submit(c.tenant, c.service, c.end, payload)
                .is_accepted()
            {
                accepted += 1;
            } else {
                remaining[c.tenant][c.service] = 0;
            }
        }
    }
    accepted
}

/// Runs `body` on shard 0 of a fresh cluster after the reference warmup
/// and the shard's chaos plan; returns accepted and the exports.
fn reference_run(
    tenants: usize,
    services: usize,
    chaos: Option<&str>,
    body: impl FnOnce(&mut Shard, &mut [Vec<RequestFactory>]) -> u64,
) -> (u64, (String, String)) {
    let mut cluster = build(tenants, services);
    let shard = &mut cluster.shards_mut()[0];
    let mut factories = drive::factories(shard, SEED);
    reference_warmup(shard, &mut factories);
    if let Some(spec) = chaos {
        let plan = FaultPlan::parse(spec, shard.chaos_seed).expect("chaos spec");
        shard.server.install_chaos(plan);
    }
    let accepted = body(shard, &mut factories);
    (accepted, exports(&cluster))
}

/// The one closed loop on one cluster, the reference on another; same
/// bytes out.
fn assert_closed_equivalent(tenants: usize, services: usize, requests: usize, chaos: Option<&str>) {
    let mut one = build(tenants, services);
    let (accepted, _) = one
        .run_closed_loop(requests, chaos, None)
        .expect("closed run");
    let expected = reference_run(tenants, services, chaos, |shard, factories| {
        reference_closed_loop(shard, factories, requests)
    });
    assert_eq!(accepted, expected.0, "accepted diverged");
    assert_eq!(exports(&one), expected.1, "exports diverged");
}

/// The one open loop vs the reference over the same global schedule.
fn assert_open_equivalent(tenants: usize, services: usize, requests: usize, chaos: Option<&str>) {
    let mut one = build(tenants, services);
    let schedule = one.open_schedules(requests).remove(0);
    let (accepted, _) = one.run_open_loop(requests, chaos, None).expect("open run");
    let expected = reference_run(tenants, services, chaos, |shard, factories| {
        reference_open_loop(shard, factories, &schedule)
    });
    assert_eq!(accepted, expected.0, "accepted diverged");
    assert_eq!(exports(&one), expected.1, "exports diverged");
}

#[test]
fn closed_loop_matches_reference() {
    assert_closed_equivalent(3, 2, 5, None);
}

#[test]
fn open_loop_matches_reference() {
    assert_open_equivalent(3, 2, 5, None);
}

#[test]
fn closed_loop_matches_reference_under_chaos() {
    // crash sheds whole tenants mid-run; the one loop must take the
    // exact same counter path (including rejected resubmits).
    for spec in ["aex+evict", "crash:3", "aex:2+mac:5+stall:4"] {
        assert_closed_equivalent(3, 2, 5, Some(spec));
    }
}

#[test]
fn open_loop_matches_reference_under_chaos() {
    for spec in ["aex+evict", "crash:3"] {
        assert_open_equivalent(3, 2, 5, Some(spec));
    }
}

#[test]
fn warmup_rejection_is_a_typed_error() {
    // A zero queue bound rejects the very first warmup request: the run
    // must return the drive loop's typed error, tagged with the shard,
    // instead of panicking.
    let specs = drive::standard_specs(1, 1)
        .into_iter()
        .map(|spec| spec.queue_capacity(0))
        .collect();
    let mut cluster = Cluster::build(ClusterConfig::new(specs, 1)).expect("cluster build");
    let err = cluster
        .run_closed_loop(2, None, None)
        .expect_err("a zero queue bound cannot warm up");
    assert!(err.starts_with("shard 0: "), "untagged error: {err}");
    assert!(err.contains("warmup request"), "got: {err}");
}
