//! The observability plane's exactness oracles, against a real server:
//!
//! * **reconciliation** — summing the per-window deltas of a timeline
//!   reproduces the end-of-run machine counters *exactly* (cycles,
//!   every transition counter, and the full request-latency histogram
//!   including min/max — windows are deltas of cumulative snapshots,
//!   so the sums telescope);
//! * **determinism** — same seed, same flags ⇒ byte-identical
//!   `ne-obs/v1` export, on the optimized paths or on the reference forms
//!   of the memory pipeline and the crypto primitives;
//! * **incidents** — a chaos run must produce a non-empty, structured
//!   incident report joining injections with recovery events.

use ne_host::{HostConfig, HostServer, RequestFactory, ServiceKind, TenantSpec};
use ne_obs::{correlate, to_jsonl, Sampler, SamplerConfig, SloState, Timeline};
use ne_sgx::fault::{FaultPlan, CHAOS_SALT};
use ne_sgx::profile::ProfileEvent;
use proptest::prelude::*;

/// Builds the `ne-load` tenant population and serves `requests` per
/// (tenant, service) through a closed loop with a sampler riding
/// along, on the reference memory pipeline when `reference` is set.
/// Returns the drained server and its finished timeline.
fn run_closed_loop(
    tenants: usize,
    services: usize,
    requests: usize,
    seed: u64,
    chaos: Option<&str>,
    window_cycles: u64,
    reference: bool,
) -> (HostServer, Timeline) {
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| {
            let kinds: Vec<ServiceKind> = (0..services)
                .map(|s| ServiceKind::ALL[s % ServiceKind::ALL.len()])
                .collect();
            TenantSpec::new(&format!("tenant{i}"), (tenants - i) as u8, kinds)
        })
        .collect();
    let mut cfg = HostConfig::new(specs);
    cfg.seed = seed;
    cfg.hw.reference_path = reference;
    let mut server = HostServer::build(cfg).expect("host build");
    let mut factories: Vec<Vec<RequestFactory>> = (0..tenants)
        .map(|t| {
            (0..services)
                .map(|s| RequestFactory::new(ServiceKind::ALL[s % ServiceKind::ALL.len()], t, seed))
                .collect()
        })
        .collect();
    for (t, tenant_factories) in factories.iter_mut().enumerate() {
        for (s, factory) in tenant_factories.iter_mut().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                let payload = factory.next_request();
                assert!(server.submit(t, s, server.now(), payload).is_accepted());
                server.step().expect("warmup step");
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
    if let Some(spec) = chaos {
        let plan = FaultPlan::parse(spec, seed ^ CHAOS_SALT).expect("chaos spec");
        server.install_chaos(plan);
    }
    let mut sampler = Sampler::new(
        &server,
        (0..tenants).collect(),
        SamplerConfig { window_cycles },
    );
    let mut remaining = vec![vec![requests; services]; tenants];
    for t in 0..tenants {
        for s in 0..services {
            if remaining[t][s] > 0 {
                remaining[t][s] -= 1;
                let payload = factories[t][s].next_request();
                if !server.submit(t, s, 0, payload).is_accepted() {
                    remaining[t][s] = 0;
                }
            }
        }
    }
    while server.pending() > 0 {
        let stepped = server.step().expect("closed-loop step");
        sampler.poll(&server);
        let Some(c) = stepped else {
            continue;
        };
        if remaining[c.tenant][c.service] > 0 {
            remaining[c.tenant][c.service] -= 1;
            let payload = factories[c.tenant][c.service].next_request();
            if !server
                .submit(c.tenant, c.service, c.end, payload)
                .is_accepted()
            {
                remaining[c.tenant][c.service] = 0;
            }
        }
    }
    server.drain().expect("drain");
    let timeline = sampler.finish(&server);
    (server, timeline)
}

/// Asserts every reconciliation identity between a timeline and the
/// server it observed.
fn assert_reconciles(server: &HostServer, timeline: &Timeline) {
    let machine = &server.app.machine;
    let (cycles, stats, request) = timeline.total();
    assert_eq!(
        cycles,
        machine.total_cycles(),
        "window cycles must telescope"
    );
    assert_eq!(stats, machine.stats(), "window stats deltas must telescope");
    // The full histogram — bucket vector, count, sum, min, max — not
    // just summary percentiles.
    assert_eq!(
        request,
        machine.profile().merged(ProfileEvent::Request),
        "window latency histograms must reconcile with the profile"
    );
    for (l, t) in server.tenants().iter().enumerate() {
        let completed: u64 = timeline
            .all_windows()
            .filter_map(|w| w.tenants.iter().find(|r| r.tenant == l))
            .map(|r| r.traffic.completed)
            .sum();
        assert_eq!(
            completed, t.traffic.completed,
            "tenant {l} completed must telescope"
        );
        let shed: u64 = timeline
            .all_windows()
            .filter_map(|w| w.tenants.iter().find(|r| r.tenant == l))
            .map(|r| r.traffic.shed_requests)
            .sum();
        assert_eq!(
            shed, t.traffic.shed_requests,
            "tenant {l} shed must telescope"
        );
        let total = &timeline.totals[l];
        assert_eq!(
            total.traffic, t.traffic,
            "tenant {l} totals line must match the server counters"
        );
    }
}

#[test]
fn clean_run_reconciles_exactly() {
    let (server, timeline) = run_closed_loop(4, 2, 6, 7, None, 2_000_000, false);
    assert!(timeline.raw_windows() > 0);
    assert_reconciles(&server, &timeline);
    // A clean run correlates to zero incidents.
    assert!(correlate(&timeline).is_empty());
}

#[test]
fn tiny_windows_still_reconcile() {
    // Hundreds of small windows: boundary crossings in mid-flight, empty
    // windows, multi-boundary jumps — the deltas must still telescope.
    let (server, timeline) = run_closed_loop(2, 2, 4, 11, None, 50_000, false);
    assert!(
        timeline.raw_windows() > 20,
        "want many windows for this oracle"
    );
    assert_reconciles(&server, &timeline);
}

#[test]
fn chaos_run_reconciles_and_reports_an_incident() {
    let (server, timeline) =
        run_closed_loop(4, 2, 8, 7, Some("aex+evict+crash:7"), 2_000_000, false);
    assert_reconciles(&server, &timeline);
    let incidents = correlate(&timeline);
    assert!(
        !incidents.is_empty(),
        "a chaos run must produce an incident report"
    );
    let inj: u64 = incidents
        .iter()
        .map(|i| i.aex + i.evict + i.mac + i.crash + i.stall)
        .sum();
    assert!(inj > 0, "incidents must carry their injections");
    let recov: u64 = incidents
        .iter()
        .map(|i| i.backoffs + i.reloads + i.respawns + i.sheds)
        .sum();
    assert!(recov > 0, "incidents must join recovery events");
    assert!(
        incidents.iter().any(|i| i.worst != SloState::Ok),
        "this chaos load must show SLO impact"
    );
}

/// The second run takes the reference memory pipeline, so this is also the
/// optimized-vs-reference oracle for the observability plane: windows, SLO
/// states, incidents and the reply checkpoints (digests over sealed echo
/// records) must not move a byte.
#[test]
fn export_is_byte_deterministic_across_runs() {
    let (_, a) = run_closed_loop(3, 2, 6, 42, Some("aex+evict"), 1_000_000, false);
    let (_, b) = run_closed_loop(3, 2, 6, 42, Some("aex+evict"), 1_000_000, true);
    assert_eq!(to_jsonl(&a, "det"), to_jsonl(&b, "det"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for any small scenario shape, seed, and window size,
    /// the per-window deltas sum back to the end-of-run counters
    /// exactly — clean or chaotic.
    #[test]
    fn window_deltas_always_telescope(
        tenants in 1usize..4,
        services in 1usize..3,
        requests in 1usize..5,
        seed in 0u64..1_000,
        window_kcycles in 1u64..4_000,
        chaos in any::<bool>(),
    ) {
        let spec = chaos.then_some("aex:3+evict:4");
        let (server, timeline) =
            run_closed_loop(tenants, services, requests, seed, spec, window_kcycles * 1_000, false);
        assert_reconciles(&server, &timeline);
    }
}
