//! Live cross-shard migration oracles.
//!
//! * **Differential oracle**: a segmented run that migrates a tenant
//!   between segments must produce a per-tenant export (`ne-tenants/v1`,
//!   reply digests included) byte-identical to the same run without the
//!   migration — and both must match the unsegmented run. Migration is
//!   *invisible* in tenant-observable bytes.
//! * **Zero dropped requests**: through planned, EPC-pressure, and
//!   chaos-triggered migrations, every accepted request either
//!   completes or is explicitly shed — never silently lost.
//! * **Freshness**: a stale sealed snapshot replayed cross-shard is
//!   refused with the typed [`HostError::StateRollback`] error.
//! * **Rollback**: a destination without EPC headroom refuses the
//!   adoption and the tenant resumes on the source shard.

use ne_cluster::{
    Cluster, ClusterConfig, MigrationOutcome, MigrationPolicy, MigrationTrigger, PlannedMove,
    Scenario,
};
use ne_host::admission::EPC_LOW_WATER;
use ne_host::HostError;
use ne_obs::SamplerConfig;
use ne_sgx::SgxError;
use proptest::prelude::*;

const TENANTS: usize = 4;

/// 4 tenants × 2 services × 6 requests per pair, seed 7.
fn scenario() -> Scenario {
    Scenario::new(TENANTS, 2, 6, 7)
}

fn build_cluster(shards: usize) -> Cluster {
    Cluster::build(ClusterConfig::for_scenario(&scenario(), shards)).expect("cluster build")
}

/// The first global tenant placed on `shard`.
fn tenant_on_shard(cluster: &Cluster, shard: usize) -> usize {
    (0..cluster.num_tenants())
        .find(|&g| cluster.placement(g).0 == shard)
        .unwrap_or_else(|| panic!("no tenant placed on shard {shard}"))
}

/// Moves the first tenant of shard 0 to shard 1 at the barrier after
/// segment 0.
fn move_one(cluster: &Cluster) -> (usize, MigrationPolicy) {
    let g = tenant_on_shard(cluster, 0);
    let policy = MigrationPolicy {
        moves: vec![PlannedMove {
            segment: 0,
            global: g,
            to_shard: 1,
        }],
        epc_low_water: None,
    };
    (g, policy)
}

#[test]
fn planned_migration_is_byte_invisible_in_the_tenant_export() {
    // Baseline A: the plain unsegmented run.
    let mut plain = build_cluster(2);
    let (plain_accepted, _) = plain.run(&scenario()).expect("plain run");
    let plain_export = plain.tenants_export();

    // Baseline B: segmented, no migrations — segment barriers alone
    // must not change a single tenant-observable byte.
    let mut control = build_cluster(2);
    let (control_accepted, _, control_log) = control
        .run_segmented_closed_loop(&[3, 3], None, &MigrationPolicy::default(), None)
        .expect("segmented control");
    assert!(control_log.is_empty(), "default policy must not migrate");
    assert_eq!(plain_accepted, control_accepted);
    assert_eq!(
        plain_export,
        control.tenants_export(),
        "segment barriers changed the export"
    );

    // The migrated run: one tenant crosses shards mid-run.
    let mut migrated = build_cluster(2);
    let (g, policy) = move_one(&migrated);
    let (accepted, _, log) = migrated
        .run_segmented_closed_loop(&[3, 3], None, &policy, None)
        .expect("migrated run");
    assert_eq!(log.len(), 1, "exactly one migration record");
    assert_eq!(log[0].global, g);
    assert_eq!(log[0].from, 0);
    assert_eq!(log[0].trigger, MigrationTrigger::Planned);
    assert!(
        matches!(log[0].outcome, MigrationOutcome::Adopted { to: 1, .. }),
        "clean migration must adopt: {:?}",
        log[0].outcome
    );
    assert_eq!(migrated.placement(g).0, 1, "tenant must land on shard 1");
    assert!(
        migrated.seal_floor(g) > 0,
        "migration must advance the seal-counter floor"
    );

    assert_eq!(plain_accepted, accepted, "migration changed acceptance");
    assert_eq!(
        plain_export,
        migrated.tenants_export(),
        "migration is visible in the per-tenant export"
    );
}

#[test]
fn observed_migration_run_reconciles_and_drops_nothing() {
    let mut control = build_cluster(2);
    let (_, control_tl, _) = control
        .run_segmented_closed_loop(
            &[3, 3],
            None,
            &MigrationPolicy::default(),
            Some(SamplerConfig::default()),
        )
        .expect("observed control");
    let control_tl = control_tl.expect("observed run folds a timeline");

    let mut cluster = build_cluster(2);
    let (g, policy) = move_one(&cluster);
    let (accepted, timeline, log) = cluster
        .run_segmented_closed_loop(&[3, 3], None, &policy, Some(SamplerConfig::default()))
        .expect("observed migrated run");
    let timeline = timeline.expect("observed run folds a timeline");
    assert!(matches!(log[0].outcome, MigrationOutcome::Adopted { .. }));

    // Exactly one totals line per global tenant, in global order, even
    // though tenant `g`'s history spans two shards' samplers.
    let ids: Vec<usize> = timeline.totals.iter().map(|t| t.tenant).collect();
    assert_eq!(ids, (0..TENANTS).collect::<Vec<usize>>());

    // Zero dropped requests: cluster-wide and per tenant.
    let report = cluster.report();
    assert_eq!(
        report.completed() + report.shed_requests(),
        accepted,
        "an accepted request was dropped"
    );
    for t in &timeline.totals {
        assert_eq!(
            t.traffic.accepted,
            t.traffic.completed + t.traffic.shed_requests,
            "tenant {} dropped a request",
            t.tenant
        );
    }

    // The invariant plane survives the migration byte-for-byte.
    for (m, c) in timeline.totals.iter().zip(&control_tl.totals) {
        assert_eq!(m.tenant, c.tenant);
        assert_eq!(
            m.digest, c.digest,
            "tenant {} reply digest changed across the migration",
            m.tenant
        );
        assert_eq!(m.traffic, c.traffic);
    }
    assert_eq!(timeline.checkpoints, control_tl.checkpoints);

    // The migration phases show up against the migrated tenant.
    let kinds: Vec<&str> = timeline
        .all_windows()
        .flat_map(|w| w.recoveries.iter())
        .map(|r| r.kind.name())
        .collect();
    for phase in [
        "migrate_quiesce",
        "migrate_seal",
        "migrate_remove",
        "migrate_rebuild",
        "migrate_resume",
    ] {
        assert!(
            kinds.contains(&phase),
            "missing {phase} for tenant {g}: {kinds:?}"
        );
    }
}

#[test]
fn chaos_migrations_are_deterministic_and_lose_nothing() {
    // Every injection kind that can land on a migration ecall: AEX
    // storms, evicted pages, poisoned enclaves, tampered lines.
    for spec in [
        "aex+migrate:5",
        "evict+migrate:5",
        "crash:7+migrate:5",
        "mac:7+migrate:5",
    ] {
        let run = || {
            let mut cluster = build_cluster(2);
            let (accepted, _, log) = cluster
                .run_segmented_closed_loop(
                    &[2, 2, 2],
                    Some(spec),
                    &MigrationPolicy::default(),
                    None,
                )
                .unwrap_or_else(|e| panic!("{spec}: chaos migrated run: {e}"));
            let report = cluster.report();
            assert_eq!(
                report.completed() + report.shed_requests(),
                accepted,
                "{spec}: reply-or-shed violated under chaos migration"
            );
            for r in &log {
                assert_eq!(r.trigger, MigrationTrigger::Chaos);
                // Both arms keep the tenant placed somewhere real.
                let (s, l) = cluster.placement(r.global);
                assert_eq!(cluster.shards()[s].globals[l], r.global);
            }
            let stats = cluster.chaos_stats().expect("chaos stats");
            (
                accepted,
                stats.migrations,
                log.len(),
                cluster.tenants_export(),
            )
        };
        let a = run();
        let b = run();
        assert!(a.1 > 0, "{spec}: chaos plan injected no migration requests");
        assert!(
            a.2 > 0,
            "{spec}: no chaos-triggered migration reached a barrier"
        );
        assert_eq!(
            a, b,
            "{spec}: chaos migration run is not byte-deterministic"
        );
    }
}

#[test]
fn epc_pressure_evacuates_a_tenant_at_the_barrier() {
    // An absurdly high low-water mark forces every barrier to evacuate
    // the biggest movable tenant from every shard — the policy arm of
    // barrier_moves, exercised without hardware re-sizing.
    let mut cluster = build_cluster(2);
    let policy = MigrationPolicy {
        moves: Vec::new(),
        epc_low_water: Some(usize::MAX),
    };
    let (accepted, _, log) = cluster
        .run_segmented_closed_loop(&[3, 3], None, &policy, None)
        .expect("pressure run");
    assert!(!log.is_empty(), "pressure policy never fired");
    for r in &log {
        assert_eq!(r.trigger, MigrationTrigger::EpcPressure);
        assert!(matches!(r.outcome, MigrationOutcome::Adopted { .. }));
    }
    let report = cluster.report();
    assert_eq!(report.completed() + report.shed_requests(), accepted);

    // Still byte-identical to the unmigrated world.
    let mut plain = build_cluster(2);
    plain.run(&scenario()).expect("plain run");
    assert_eq!(plain.tenants_export(), cluster.tenants_export());
}

#[test]
fn stale_snapshot_replay_is_refused_cross_shard() {
    let mut cluster = build_cluster(2);
    let g = tenant_on_shard(&cluster, 0);
    let (s, l) = cluster.placement(g);
    let other = 1 - s;

    // Seal once (the blob an attacker later replays), put the tenant
    // back, then seal again so the world has moved on.
    let stale = cluster.shards_mut()[s]
        .server
        .extract_tenant(l)
        .expect("first extract");
    let l2 = cluster.shards_mut()[s]
        .server
        .rollback_tenant(&stale, stale.seal_counter)
        .expect("reinstate");
    let fresh = cluster.shards_mut()[s]
        .server
        .extract_tenant(l2)
        .expect("second extract");
    assert!(
        fresh.seal_counter > stale.seal_counter,
        "every seal must advance the monotonic counter"
    );

    // Replaying the stale snapshot against the fresh floor is refused
    // with the typed rollback error naming both counters.
    let err = cluster.shards_mut()[other]
        .server
        .adopt_tenant(&stale, fresh.seal_counter)
        .expect_err("stale replay must be refused");
    match err {
        HostError::StateRollback {
            presented,
            expected,
            ..
        } => {
            assert_eq!(presented, stale.seal_counter);
            assert_eq!(expected, fresh.seal_counter);
        }
        other => panic!("want StateRollback, got {other}"),
    }

    // The genuine snapshot still adopts at the same floor.
    cluster.shards_mut()[other]
        .server
        .adopt_tenant(&fresh, fresh.seal_counter)
        .expect("fresh snapshot adopts");
}

#[test]
fn migrate_tenant_validates_the_placement() {
    let mut cluster = build_cluster(2);
    let g = tenant_on_shard(&cluster, 0);
    let bad = |r: Result<MigrationOutcome, HostError>| {
        assert!(
            matches!(r, Err(HostError::BadRequest(_))),
            "want BadRequest"
        );
    };
    bad(cluster.migrate_tenant(TENANTS + 7, 0, 1)); // no such tenant
    bad(cluster.migrate_tenant(g, 1, 0)); // wrong source shard
    bad(cluster.migrate_tenant(g, 0, 0)); // already there
    bad(cluster.migrate_tenant(g, 0, 9)); // no such shard

    // A valid round trip works on an idle cluster, advancing the floor
    // each way.
    assert!(matches!(
        cluster.migrate_tenant(g, 0, 1).expect("migrate out"),
        MigrationOutcome::Adopted { to: 1, .. }
    ));
    let floor_out = cluster.seal_floor(g);
    assert!(floor_out > 0);
    assert_eq!(cluster.placement(g).0, 1);
    assert!(matches!(
        cluster.migrate_tenant(g, 1, 0).expect("migrate home"),
        MigrationOutcome::Adopted { to: 0, .. }
    ));
    assert!(cluster.seal_floor(g) > floor_out, "floor must keep rising");
    assert_eq!(cluster.placement(g).0, 0);
}

#[test]
fn rollback_on_a_full_destination_keeps_the_tenant_serving() {
    // Probe with roomy hardware to learn each shard's EPC footprint,
    // then rebuild with PRM sized so the fullest shard has exactly the
    // admission low-water headroom free: its own tenants fit, but one
    // more adoption cannot clear `need + EPC_LOW_WATER`.
    let probe = build_cluster(2);
    let default_prm = ClusterConfig::for_scenario(&scenario(), 2)
        .host
        .hw
        .prm_pages;
    let free_pages: Vec<usize> = probe
        .shards()
        .iter()
        .map(|s| s.server.app.machine.free_epc_pages())
        .collect();
    let to = if free_pages[0] <= free_pages[1] { 0 } else { 1 };
    let from = 1 - to;
    let g = tenant_on_shard(&probe, from);
    drop(probe);

    let mut cfg = ClusterConfig::for_scenario(&scenario(), 2);
    cfg.host.hw.prm_pages = default_prm - free_pages[to] as u64 + EPC_LOW_WATER;
    let mut cluster = Cluster::build(cfg).expect("sized cluster build");
    for t in 0..TENANTS {
        let (s, l) = cluster.placement(t);
        assert!(
            cluster.shards()[s].server.tenants()[l].loaded,
            "sized PRM must still fit every tenant where it was placed"
        );
    }

    let outcome = cluster
        .migrate_tenant(g, from, to)
        .expect("migration completes");
    let local = match outcome {
        MigrationOutcome::RolledBack {
            error: HostError::Sgx(SgxError::EpcFull),
            local,
        } => local,
        other => panic!("want RolledBack(EpcFull), got {other:?}"),
    };

    // The tenant is back on the source shard, loaded, and still serves.
    assert_eq!(cluster.placement(g), (from, local));
    assert!(
        cluster.seal_floor(g) > 0,
        "even a rollback advances the floor"
    );
    let server = &mut cluster.shards_mut()[from].server;
    assert!(
        server.tenants()[local].loaded,
        "rolled-back tenant must be loaded"
    );
    let sc = scenario();
    let kind = ne_cluster::drive::standard_specs(sc.tenants, sc.services)[g].services[0];
    let mut factory = ne_host::RequestFactory::new(kind, g, sc.seed);
    let payload = factory.next_request();
    assert!(
        server.submit(local, 0, server.now(), payload).is_accepted(),
        "rolled-back tenant must accept requests"
    );
    server.drain().expect("rolled-back tenant must serve");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Through random segmentations, planned moves, and chaos-injected
    /// migrations, no accepted request is ever dropped and every tenant
    /// stays placed and exported.
    #[test]
    fn migration_interleavings_never_drop_requests(
        shards in 1usize..4,
        seg_a in 1usize..4,
        seg_b in 1usize..4,
        mover in 0usize..TENANTS,
        dest in 0usize..3,
        chaos in any::<bool>(),
    ) {
        let mut cluster = build_cluster(shards);
        let policy = MigrationPolicy {
            moves: vec![PlannedMove { segment: 0, global: mover, to_shard: dest % shards }],
            epc_low_water: None,
        };
        let spec = format!("aex+migrate:{}", 3 + seg_a);
        let chaos_spec = chaos.then_some(spec.as_str());
        let (accepted, _, log) = cluster
            .run_segmented_closed_loop(&[seg_a, seg_b], chaos_spec, &policy, None)
            .map_err(TestCaseError::Fail)?;
        let report = cluster.report();
        prop_assert_eq!(
            report.completed() + report.shed_requests(),
            accepted,
            "an accepted request was dropped"
        );
        for r in &log {
            let (s, l) = cluster.placement(r.global);
            prop_assert_eq!(cluster.shards()[s].globals[l], r.global);
        }
        let export = cluster.tenants_export();
        for g in 0..TENANTS {
            prop_assert!(
                export.contains(&format!("tenant {g} ")),
                "tenant {} missing from the export", g
            );
        }
        // A fixed interleaving is byte-reproducible.
        let mut again = build_cluster(shards);
        let (accepted2, _, _) = again
            .run_segmented_closed_loop(&[seg_a, seg_b], chaos_spec, &policy, None)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(accepted, accepted2);
        prop_assert_eq!(export, again.tenants_export());
    }
}
