//! Observability across a live tenant migration, on a single server:
//! the sampler's retire/adopt protocol must keep every exactness
//! oracle intact while a tenant moves from one local slot to another.
//!
//! * **one totals line per global tenant** — the retired slot stops
//!   exporting; the adopted slot's totals cover the full carried
//!   history, byte-identical to a run that never migrated;
//! * **window deltas still telescope** — the migration-gap increments
//!   ride the [`TenantCarry`] into the adopted slot's first window,
//!   and each completion is latency-attributed exactly once (carried
//!   copies are skipped);
//! * **determinism** — the migrated run's `ne-obs/v1` export is
//!   byte-identical across repeats;
//! * **a refused adoption leaves no owner** — the enclaves it built and
//!   tore down belong to no tenant, so their chaos injections stay
//!   unattributed instead of naming a slot that was never created.

use ne_host::{HostConfig, HostServer, RequestFactory, ServiceKind, TenantSpec};
use ne_obs::{to_jsonl, Sampler, SamplerConfig, Timeline};
use ne_sgx::fault::FaultPlan;

const TENANTS: usize = 3;
const SERVICES: usize = 2;
const WINDOW: u64 = 400_000;

fn build() -> (HostServer, Vec<Vec<RequestFactory>>) {
    let specs: Vec<TenantSpec> = (0..TENANTS)
        .map(|i| {
            let kinds: Vec<ServiceKind> = (0..SERVICES)
                .map(|s| ServiceKind::ALL[s % ServiceKind::ALL.len()])
                .collect();
            TenantSpec::new(&format!("tenant{i}"), (TENANTS - i) as u8, kinds)
        })
        .collect();
    let mut cfg = HostConfig::new(specs);
    cfg.seed = 7;
    let mut server = HostServer::build(cfg).expect("host build");
    let mut factories: Vec<Vec<RequestFactory>> = (0..TENANTS)
        .map(|t| {
            (0..SERVICES)
                .map(|s| RequestFactory::new(ServiceKind::ALL[s % ServiceKind::ALL.len()], t, 7))
                .collect()
        })
        .collect();
    for (t, tf) in factories.iter_mut().enumerate() {
        for (s, f) in tf.iter_mut().enumerate() {
            for _ in 0..f.setup_requests().max(1) {
                let payload = f.next_request();
                assert!(server.submit(t, s, server.now(), payload).is_accepted());
                server.step().expect("warmup step");
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
    (server, factories)
}

/// Submits `n` requests per (tenant, service) at the tenants' current
/// local slots, then steps the server dry with the sampler riding.
fn segment(
    server: &mut HostServer,
    sampler: &mut Sampler,
    factories: &mut [Vec<RequestFactory>],
    local_of: &[usize],
    n: usize,
) {
    for (g, tf) in factories.iter_mut().enumerate() {
        for (s, f) in tf.iter_mut().enumerate() {
            for _ in 0..n {
                let payload = f.next_request();
                assert!(
                    server
                        .submit(local_of[g], s, server.now(), payload)
                        .is_accepted(),
                    "segment submit must be accepted"
                );
            }
        }
    }
    while server.pending() > 0 {
        server.step().expect("segment step");
        sampler.poll(server);
    }
    server.drain().expect("segment drain");
    sampler.poll(server);
}

/// Two segments with an optional migration of global tenant 1 between
/// them. The migration happens with segment B's requests for tenant 1
/// already queued, so they ride the park buffer through the move.
fn run(migrate: bool) -> (HostServer, Timeline) {
    let (server, sampler) = serve(migrate);
    let timeline = sampler.finish(&server);
    (server, timeline)
}

/// The drained server and its unfinished sampler for [`run`].
fn serve(migrate: bool) -> (HostServer, Sampler) {
    let (mut server, mut factories) = build();
    let mut sampler = Sampler::new(
        &server,
        (0..TENANTS).collect(),
        SamplerConfig {
            window_cycles: WINDOW,
        },
    );
    let mut local_of: Vec<usize> = (0..TENANTS).collect();
    segment(&mut server, &mut sampler, &mut factories, &local_of, 3);

    if migrate {
        // Queue tenant 1's next batch first so the quiesce parks it.
        for (s, f) in factories[1].iter_mut().enumerate() {
            for _ in 0..3 {
                let payload = f.next_request();
                assert!(server
                    .submit(local_of[1], s, server.now(), payload)
                    .is_accepted());
            }
        }
        let snap = server.extract_tenant(local_of[1]).expect("extract");
        assert_eq!(snap.parked.len(), 3 * SERVICES, "quiesce parks the queue");
        let carry = sampler.retire_tenant(1);
        let local = server
            .adopt_tenant(&snap, snap.seal_counter)
            .expect("adopt");
        sampler.adopt_tenant(&server, 1, carry);
        local_of[1] = local;
        // Drain the parked requests the adoption re-queued.
        while server.pending() > 0 {
            server.step().expect("post-adopt step");
            sampler.poll(&server);
        }
        server.drain().expect("post-adopt drain");
        // Tenant 1's queued batch already ran; the others catch up.
        for (g, tf) in factories.iter_mut().enumerate() {
            if g == 1 {
                continue;
            }
            for (s, f) in tf.iter_mut().enumerate() {
                for _ in 0..3 {
                    let payload = f.next_request();
                    assert!(server
                        .submit(local_of[g], s, server.now(), payload)
                        .is_accepted());
                }
            }
        }
        while server.pending() > 0 {
            server.step().expect("catch-up step");
            sampler.poll(&server);
        }
        server.drain().expect("catch-up drain");
        segment(&mut server, &mut sampler, &mut factories, &local_of, 2);
    } else {
        segment(&mut server, &mut sampler, &mut factories, &local_of, 3);
        segment(&mut server, &mut sampler, &mut factories, &local_of, 2);
    }

    (server, sampler)
}

#[test]
fn migrated_run_exports_one_totals_line_per_tenant() {
    let (server, timeline) = run(true);
    let ids: Vec<usize> = timeline.totals.iter().map(|t| t.tenant).collect();
    assert_eq!(
        ids,
        vec![0, 1, 2],
        "exactly one totals line per global tenant"
    );
    // The adopted slot owns tenant 1's full history.
    let adopted = &server.tenants()[TENANTS]; // first slot past the originals
    let total = &timeline.totals[1].traffic;
    assert_eq!(total.completed, adopted.traffic.completed);
    assert_eq!(total.accepted, adopted.traffic.accepted);
    assert_eq!(
        total.shed_requests, 0,
        "no request shed by a clean migration"
    );
    assert_eq!(
        total.accepted, total.completed,
        "zero dropped: every accepted request completed"
    );
}

#[test]
fn migrated_totals_match_an_unmigrated_run_byte_for_byte() {
    let (_, migrated) = run(true);
    let (_, control) = run(false);
    for (m, c) in migrated.totals.iter().zip(&control.totals) {
        assert_eq!(m.tenant, c.tenant);
        assert_eq!(
            m.digest, c.digest,
            "tenant {} reply digest must survive migration",
            m.tenant
        );
        assert_eq!(
            m.traffic, c.traffic,
            "tenant {} traffic counters must survive migration",
            m.tenant
        );
    }
    assert_eq!(migrated.checkpoints, control.checkpoints);
}

/// The streamed checkpoints and totals skip the retired slot and cover
/// the adopted tenant's carried completions exactly as the reference
/// form does (`checkpoints.rs` holds the other cases).
#[test]
fn migrated_digests_match_the_reference_form() {
    let (server, sampler) = serve(true);
    let streamed = sampler.clone().finish(&server);
    let reference = sampler.finish_reference(&server);
    assert_eq!(streamed.checkpoints, reference.checkpoints);
    assert_eq!(streamed.totals, reference.totals);
    assert_eq!(
        to_jsonl(&streamed, "migrate"),
        to_jsonl(&reference, "migrate")
    );
}

#[test]
fn window_deltas_telescope_across_the_migration() {
    let (_, timeline) = run(true);
    for total in &timeline.totals {
        let g = total.tenant;
        let completed: u64 = timeline
            .all_windows()
            .flat_map(|w| w.tenants.iter().filter(|r| r.tenant == g))
            .map(|r| r.traffic.completed)
            .sum();
        assert_eq!(
            completed, total.traffic.completed,
            "tenant {g} completed must telescope"
        );
        let accepted: u64 = timeline
            .all_windows()
            .flat_map(|w| w.tenants.iter().filter(|r| r.tenant == g))
            .map(|r| r.traffic.accepted)
            .sum();
        assert_eq!(
            accepted, total.traffic.accepted,
            "tenant {g} accepted must telescope"
        );
        // Each completion is latency-attributed exactly once: carried
        // copies are excluded, originals are counted where they ran.
        let samples: u64 = timeline
            .all_windows()
            .flat_map(|w| w.tenants.iter().filter(|r| r.tenant == g))
            .map(|r| r.latency.count())
            .sum();
        assert_eq!(
            samples, total.traffic.completed,
            "tenant {g} latency samples = completions"
        );
    }
    // No window carries two rows for the same tenant (coalesced).
    for w in timeline.all_windows() {
        for pair in w.tenants.windows(2) {
            assert!(
                pair[0].tenant < pair[1].tenant,
                "window rows strictly sorted"
            );
        }
    }
}

#[test]
fn migrated_export_is_byte_deterministic() {
    let (_, a) = run(true);
    let (_, b) = run(true);
    assert_eq!(to_jsonl(&a, "migrate"), to_jsonl(&b, "migrate"));
}

#[test]
fn migration_phases_appear_as_recovery_events() {
    let (_, timeline) = run(true);
    let kinds: Vec<&str> = timeline
        .all_windows()
        .flat_map(|w| w.recoveries.iter())
        .filter(|r| r.tenant == 1)
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
            "missing recovery event {phase}: {kinds:?}"
        );
    }
}

#[test]
fn refused_adoption_leaves_no_owner_behind() {
    let spec = |name: &str| TenantSpec::new(name, 1, vec![ServiceKind::TlsEcho]);
    let mut source = HostServer::build(HostConfig::new(vec![spec("mover")])).expect("source");
    let snap = source.extract_tenant(0).expect("extract");
    let mut target = HostServer::build(HostConfig::new(vec![spec("resident")])).expect("target");
    target.install_chaos(FaultPlan::parse("crash:1", 7).expect("chaos spec"));
    let sampler = Sampler::new(
        &target,
        vec![0],
        SamplerConfig {
            window_cycles: WINDOW,
        },
    );
    target
        .adopt_tenant(&snap, snap.seal_counter)
        .expect_err("every attempt crashes");
    assert_eq!(target.tenants().len(), 1, "a refused adoption adds no slot");
    let crashes = target.app.machine.chaos_events();
    assert!(!crashes.is_empty(), "the adoption's ecalls were crashed");
    for inj in crashes {
        assert_eq!(
            target.eid_owner(inj.eid),
            None,
            "eid {} has an owner",
            inj.eid
        );
    }
    // Closing a window over the injections must not index past the
    // sampler's one tenant.
    let timeline = sampler.finish(&target);
    let injections: Vec<_> = timeline
        .all_windows()
        .flat_map(|w| w.injections.iter())
        .collect();
    assert_eq!(injections.len(), crashes.len());
    assert!(injections.iter().all(|i| i.tenant.is_none()));
}
