//! The shard-count-invariance oracle and the single-shard regression.
//!
//! * **Invariance**: the clean closed-loop scenario must produce
//!   byte-identical per-tenant exports (`ne-tenants/v1`, global-id
//!   sorted, reply digests included) at 1, 2, and 4 shards, and the
//!   merged metrics report must pass the §5 identity checker at every
//!   shard count.
//! * **Regression**: a one-shard cluster must be bit-compatible with the
//!   unsharded `HostServer` path — same accepted count, same metrics
//!   JSON, same export bytes — so every pre-shard baseline stays valid.

use ne_cluster::{drive, Cluster, ClusterConfig};
use ne_host::{HostConfig, HostServer, RequestFactory};
use ne_obs::{SamplerConfig, Timeline};

const TENANTS: usize = 4;
const SERVICES: usize = 2;
const REQUESTS: usize = 6;
const SEED: u64 = 7;

fn build_cluster(shards: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(drive::standard_specs(TENANTS, SERVICES), shards);
    cfg.host.seed = SEED;
    Cluster::build(cfg).expect("cluster build")
}

fn closed_loop_export(shards: usize) -> (u64, String) {
    let mut cluster = build_cluster(shards);
    let (accepted, _) = cluster
        .run_closed_loop(REQUESTS, None, None)
        .expect("closed loop");
    let merged = cluster.merged_metrics().expect("merge");
    merged
        .check()
        .unwrap_or_else(|e| panic!("merged metrics identity broken at {shards} shards: {e}"));
    (accepted, cluster.tenants_export())
}

#[test]
fn closed_loop_exports_are_shard_count_invariant() {
    let (a1, e1) = closed_loop_export(1);
    let (a2, e2) = closed_loop_export(2);
    let (a4, e4) = closed_loop_export(4);
    assert_eq!(a1, a2, "accepted count changed at 2 shards");
    assert_eq!(a1, a4, "accepted count changed at 4 shards");
    assert_eq!(
        e1, e2,
        "per-tenant export changed at 2 shards:\n{e1}\nvs\n{e2}"
    );
    assert_eq!(
        e1, e4,
        "per-tenant export changed at 4 shards:\n{e1}\nvs\n{e4}"
    );
    // Sanity: every tenant actually appears, in global-id order.
    for g in 0..TENANTS {
        assert!(e1.contains(&format!("tenant {g} name tenant{g} ")));
    }
}

#[test]
fn merged_metrics_are_reproducible_and_close_across_shard_counts() {
    // Cycle attribution is *almost* shard-count-invariant: request
    // payloads and replies are exactly invariant (checked above), but
    // micro-architectural interference (TLB, LLC, EPC pressure) is
    // per-machine, so splitting co-resident tenants apart shifts cycle
    // costs by a hair. Pin that down: any fixed shard count is
    // byte-reproducible, and the in-enclave totals across counts agree
    // to within 0.1%.
    let in_enclave = |shards: usize| {
        let mut cluster = build_cluster(shards);
        cluster
            .run_closed_loop(REQUESTS, None, None)
            .expect("closed loop");
        let merged = cluster.merged_metrics().expect("merge");
        let total: u64 = merged
            .enclaves
            .iter()
            .filter(|e| e.eid.is_some())
            .map(|e| e.breakdown.total())
            .sum();
        (total, merged.to_json())
    };
    let (one, json1a) = in_enclave(1);
    let (_, json1b) = in_enclave(1);
    assert_eq!(json1a, json1b, "1-shard merged metrics not reproducible");
    let (four, json4a) = in_enclave(4);
    let (_, json4b) = in_enclave(4);
    assert_eq!(json4a, json4b, "4-shard merged metrics not reproducible");
    let diff = one.abs_diff(four) as f64 / one as f64;
    assert!(
        diff < 1e-3,
        "in-enclave cycles drifted {diff:.5} between 1 and 4 shards ({one} vs {four})"
    );
}

#[test]
fn single_shard_cluster_matches_the_unsharded_path() {
    // The unsharded path, exactly as ne-load drives it.
    let mut cfg = HostConfig::new(drive::standard_specs(TENANTS, SERVICES));
    cfg.seed = SEED;
    let mut server = HostServer::build(cfg).expect("host build");
    let mut factories: Vec<Vec<RequestFactory>> = drive::standard_specs(TENANTS, SERVICES)
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            spec.services
                .iter()
                .map(|&k| RequestFactory::new(k, t, SEED))
                .collect()
        })
        .collect();
    // Inline warmup + closed loop mirroring ne-load (drive::warmup needs a
    // Shard and a source, so replay its steps directly on the server).
    for (t, fs) in factories.iter_mut().enumerate() {
        if server.tenants()[t].shed {
            continue;
        }
        for (s, factory) in fs.iter_mut().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                let payload = factory.next_request();
                assert!(server.submit(t, s, server.now(), payload).is_accepted());
                server.step().expect("warmup step");
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
    let mut accepted = 0u64;
    let mut remaining = vec![vec![REQUESTS; SERVICES]; TENANTS];
    for t in 0..TENANTS {
        for s in 0..SERVICES {
            remaining[t][s] -= 1;
            let payload = factories[t][s].next_request();
            if server.submit(t, s, 0, payload).is_accepted() {
                accepted += 1;
            }
        }
    }
    while server.pending() > 0 {
        let Some(c) = server.step().expect("step") else {
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
            }
        }
    }
    let direct_metrics = server.app.machine.metrics();

    // The one-shard cluster path.
    let mut cluster = build_cluster(1);
    let (cluster_accepted, _) = cluster
        .run_closed_loop(REQUESTS, None, None)
        .expect("closed loop");
    let merged = cluster.merged_metrics().expect("merge");

    assert_eq!(accepted, cluster_accepted, "accepted count differs");
    assert_eq!(
        direct_metrics.to_json(),
        merged.to_json(),
        "one-shard cluster metrics are not byte-identical to the unsharded path"
    );
}

#[test]
fn open_loop_offered_schedule_is_shard_count_invariant() {
    // Open-loop acceptance is capacity-dependent (each shard is its own
    // machine), so the oracle for this mode is weaker: the *offered*
    // schedule is global, and every accepted request still terminates
    // with a valid reply on every shard count.
    for shards in [1usize, 3] {
        let mut cluster = build_cluster(shards);
        let accepted = cluster
            .run_open_loop(REQUESTS, None, None)
            .expect("open loop")
            .0;
        let report = cluster.report();
        assert_eq!(report.sched.invariant_violations, 0);
        assert_eq!(
            report.completed() + report.shed_requests(),
            accepted,
            "accepted request lost at {shards} shards"
        );
        cluster
            .merged_metrics()
            .expect("merge")
            .check()
            .unwrap_or_else(|e| panic!("open-loop metrics broken at {shards} shards: {e}"));
    }
}

#[test]
fn chaos_runs_are_deterministic_per_shard_count() {
    // Chaos draws from the per-shard stream, so exports differ across
    // shard counts — but any fixed shard count must be byte-reproducible.
    let run = |shards: usize| {
        let mut cluster = build_cluster(shards);
        let (accepted, _) = cluster
            .run_closed_loop(REQUESTS, Some("aex+evict"), None)
            .expect("chaos closed loop");
        let report = cluster.report();
        assert_eq!(
            report.completed() + report.shed_requests(),
            accepted,
            "reply-or-shed violated under chaos at {shards} shards"
        );
        let stats = cluster.chaos_stats().expect("chaos stats");
        assert!(stats.eenters_seen > 0, "chaos plan saw no traffic");
        cluster
            .merged_metrics()
            .expect("merge")
            .check()
            .expect("identities");
        cluster.tenants_export()
    };
    assert_eq!(run(2), run(2), "chaos run not reproducible at 2 shards");
}

/// One observed closed-loop run: accepted count plus the `ne-obs/v1`
/// export of the folded timeline.
fn observed_export(shards: usize, chaos: Option<&str>) -> (u64, String) {
    let mut cluster = build_cluster(shards);
    let (accepted, timeline) = cluster
        .run_closed_loop(REQUESTS, chaos, Some(SamplerConfig::default()))
        .expect("observed closed loop");
    let timeline = timeline.expect("observed run folds a timeline");
    (accepted, ne_obs::to_jsonl(&timeline, "shard-invariance"))
}

#[test]
fn timeline_export_is_reproducible_under_chaos() {
    // The full timeline — cycle-bearing windows, injections, recoveries,
    // SLO states, incidents — must be byte-reproducible at a fixed shard
    // count, chaos included.
    let chaos = Some("aex+evict");
    let (a1, e1) = observed_export(2, chaos);
    let (a2, e2) = observed_export(2, chaos);
    assert_eq!(a1, a2, "accepted count not reproducible");
    assert_eq!(e1, e2, "observed chaos timeline not byte-reproducible");
    assert!(
        e1.contains("\"kind\":\"incident\""),
        "chaos left no incident"
    );
}

#[test]
fn timeline_invariant_plane_is_shard_count_invariant() {
    // Cycle-bearing lines drift slightly across shard counts (see the
    // merged-metrics test above), but the invariant plane — rolling
    // checkpoints and per-tenant reply digests — is derived purely from
    // reply bytes in (service, seq) order, so those lines must be
    // byte-identical at every shard count.
    let invariant_plane = |export: &str| -> String {
        export
            .lines()
            .filter(|l| {
                l.contains("\"kind\":\"checkpoint\"") || l.contains("\"kind\":\"tenant_total\"")
            })
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let (a1, e1) = observed_export(1, None);
    let (a4, e4) = observed_export(4, None);
    assert_eq!(a1, a4, "accepted count changed at 4 shards");
    let (p1, p4) = (invariant_plane(&e1), invariant_plane(&e4));
    assert!(
        p1.lines().count() > TENANTS,
        "invariant plane unexpectedly thin:\n{p1}"
    );
    assert_eq!(
        p1, p4,
        "timeline invariant plane changed between 1 and 4 shards"
    );
}

/// One closed- or open-loop run on a fresh 2-shard cluster.
fn run_two_shards(open: bool, obs: Option<SamplerConfig>) -> (Cluster, u64, Option<Timeline>) {
    let mut cluster = build_cluster(2);
    let (accepted, timeline) = if open {
        cluster.run_open_loop(REQUESTS, None, obs)
    } else {
        cluster.run_closed_loop(REQUESTS, None, obs)
    }
    .expect("run");
    (cluster, accepted, timeline)
}

#[test]
fn observed_runs_leave_the_simulation_untouched() {
    // The sampler only reads, so an observed run must report the same
    // accepted count, per-tenant export and merged metrics as the plain
    // run, in both arrival processes, and the timeline totals must
    // reconcile with the merged metrics.
    for open in [false, true] {
        let (plain, plain_accepted, none) = run_two_shards(open, None);
        assert!(none.is_none(), "an unobserved run folded a timeline");
        let plain_metrics = plain.merged_metrics().expect("merge").to_json();

        let (observed, accepted, timeline) = run_two_shards(open, Some(SamplerConfig::default()));
        let timeline = timeline.expect("observed run folds a timeline");
        assert_eq!(plain_accepted, accepted, "observation changed acceptance");
        assert_eq!(
            plain.tenants_export(),
            observed.tenants_export(),
            "observation changed the per-tenant export (open: {open})"
        );
        let merged = observed.merged_metrics().expect("merge");
        assert_eq!(
            plain_metrics,
            merged.to_json(),
            "observation changed the merged metrics (open: {open})"
        );
        let (cycles, _, _) = timeline.total();
        assert_eq!(cycles, merged.total_cycles, "timeline cycles must match");
        assert_eq!(
            timeline.totals.iter().map(|t| t.completed).sum::<u64>(),
            observed.report().completed(),
            "timeline totals must match the cluster report"
        );
    }
}

#[test]
fn replies_check_against_fresh_global_factories() {
    let mut cluster = build_cluster(3);
    cluster
        .run_closed_loop(REQUESTS, None, None)
        .expect("closed loop");
    let specs = drive::standard_specs(TENANTS, SERVICES);
    let mut checked = 0usize;
    for (global, c) in cluster.completions() {
        let f = RequestFactory::new(specs[global].services[c.service], global, SEED);
        assert!(
            f.check_reply(&c.reply),
            "bad reply for global tenant {global} service {}",
            c.service
        );
        checked += 1;
    }
    assert!(checked > 0, "no completions to check");
}
