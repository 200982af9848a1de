//! Property-based tests of the recovery layer under injected chaos.
//!
//! With a deterministic fault plan installed ([`ne_sgx::fault`]), random
//! traffic must never be able to break:
//!
//! 1. **reply-or-shed** — every accepted request terminates, either with
//!    a verified reply or as an explicit counted shed
//!    (`accepted == completed + shed_requests`, queues empty);
//! 2. **containment** — chaos targeted at one tenant's enclaves never
//!    perturbs a sibling tenant's outcomes (no sheds, no respawns, all
//!    accepted work completed with valid replies);
//! 3. **determinism** — the same seed produces the same completions,
//!    the same chaos decisions, and the same architectural counters,
//!    byte for byte;
//!
//! and in every case the scheduler's TCS invariants and the machine's
//! cycle-attribution identities ([`MachineMetrics::check`]) still hold —
//! injected faults are built from real AEX/EWB/tamper events, so the
//! books must keep balancing.

use ne_host::{HostConfig, HostServer, RequestFactory, ServiceKind, TenantSpec};
use ne_sgx::fault::FaultPlan;
use proptest::prelude::*;

const KINDS: [ServiceKind; 2] = [ServiceKind::TlsEcho, ServiceKind::SvmInfer];

/// Chaos specs exercised by the properties, mild to vicious.
const SPECS: [&str; 7] = [
    "aex",
    "evict",
    "stall",
    "mac",
    "crash",
    "aex+evict+stall",
    "aex:2+evict:3+mac:7+crash:11+stall:5",
];

fn build_server(num_tenants: usize, seed: u64) -> (HostServer, Vec<Vec<RequestFactory>>) {
    let specs: Vec<TenantSpec> = (0..num_tenants)
        .map(|i| TenantSpec::new(&format!("t{i}"), (num_tenants - i) as u8, KINDS.to_vec()))
        .collect();
    let mut cfg = HostConfig::new(specs);
    cfg.seed = seed;
    let server = HostServer::build(cfg).expect("build");
    let factories = (0..num_tenants)
        .map(|t| {
            KINDS
                .iter()
                .map(|&k| RequestFactory::new(k, t, seed))
                .collect()
        })
        .collect();
    (server, factories)
}

/// Submits `rounds` requests per (tenant, service) with a serving step
/// after each submission burst, then drains; returns accepted count.
fn drive(server: &mut HostServer, factories: &mut [Vec<RequestFactory>], rounds: usize) -> u64 {
    let mut accepted = 0u64;
    for _ in 0..rounds {
        for (t, tenant_factories) in factories.iter_mut().enumerate() {
            for (s, factory) in tenant_factories.iter_mut().enumerate() {
                let payload = factory.next_request();
                if server.submit(t, s, server.now(), payload).is_accepted() {
                    accepted += 1;
                }
            }
        }
        server.step().expect("step");
    }
    server.drain().expect("drain");
    accepted
}

fn assert_replies_valid(server: &HostServer, seed: u64, tenants: impl Iterator<Item = usize>) {
    let check: Vec<usize> = tenants.collect();
    for c in server.completions() {
        if !check.contains(&c.tenant) {
            continue;
        }
        let spec = &server.tenants()[c.tenant].spec;
        let f = RequestFactory::new(spec.services[c.service], c.tenant, seed);
        assert!(f.check_reply(&c.reply), "bad reply for {}", spec.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reply-or-shed under every chaos spec: accepted work always
    /// terminates, the server loop never panics, and the cycle books
    /// balance.
    #[test]
    fn chaos_preserves_reply_or_shed(
        spec_idx in 0..SPECS.len(),
        seed in 0..1_000u64,
        num_tenants in 1..4usize,
        rounds in 1..5usize,
    ) {
        let (mut server, mut factories) = build_server(num_tenants, seed);
        server.install_chaos(FaultPlan::parse(SPECS[spec_idx], seed).expect("spec"));
        let accepted = drive(&mut server, &mut factories, rounds);

        let report = server.report();
        prop_assert_eq!(
            report.completed() + report.shed_requests(),
            accepted,
            "accepted request neither completed nor shed"
        );
        prop_assert_eq!(server.pending(), 0);
        prop_assert_eq!(server.invariant_violations(), 0);
        for t in server.tenants() {
            prop_assert!(t.drained());
        }
        assert_replies_valid(&server, seed, 0..num_tenants);
        // Injected faults are real AEX/EWB/tamper events: attribution
        // identities must keep holding.
        server.app.machine.metrics().check().expect("metrics check");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos confined to tenant 0's enclaves: siblings see no sheds, no
    /// respawns, and complete every accepted request with a valid reply.
    #[test]
    fn faulting_one_tenant_leaves_siblings_clean(
        spec_idx in 0..SPECS.len(),
        seed in 0..1_000u64,
        rounds in 2..5usize,
    ) {
        let num_tenants = 3;
        let (mut server, mut factories) = build_server(num_tenants, seed);
        let plan = FaultPlan::parse(SPECS[spec_idx], seed).expect("spec");
        server.install_chaos_for_tenant(plan, 0).expect("target tenant 0");
        drive(&mut server, &mut factories, rounds);

        let report = server.report();
        for (i, t) in report.tenants.iter().enumerate().skip(1) {
            prop_assert_eq!(t.traffic.shed_requests, 0, "sibling {} shed under foreign chaos", i);
            prop_assert_eq!(t.respawns, 0, "sibling {} respawned under foreign chaos", i);
            prop_assert!(!t.breaker_open);
            prop_assert_eq!(t.traffic.completed, t.traffic.accepted, "sibling {} lost work", i);
        }
        // Tenant 0 still satisfies reply-or-shed.
        let t0 = &report.tenants[0].traffic;
        prop_assert_eq!(t0.completed + t0.shed_requests, t0.accepted);
        prop_assert_eq!(server.invariant_violations(), 0);
        assert_replies_valid(&server, seed, 1..num_tenants);
        server.app.machine.metrics().check().expect("metrics check");
    }
}

/// Same seed, same everything: completions, chaos decisions, respawn
/// counts, and architectural counters are identical across two runs.
#[test]
fn chaos_runs_are_deterministic() {
    let run = |seed: u64| {
        let (mut server, mut factories) = build_server(3, seed);
        server.install_chaos(FaultPlan::parse(SPECS[6], seed).expect("spec"));
        let accepted = drive(&mut server, &mut factories, 4);
        let completions: Vec<_> = server
            .completions()
            .iter()
            .map(|c| {
                (
                    c.tenant,
                    c.service,
                    c.seq,
                    c.core,
                    c.arrival,
                    c.start,
                    c.end,
                    c.latency,
                    c.reply.clone(),
                )
            })
            .collect();
        let report = server.report();
        let tenants: Vec<_> = report
            .tenants
            .iter()
            .map(|t| (t.traffic, t.respawns, t.breaker_open))
            .collect();
        (
            accepted,
            completions,
            tenants,
            server.chaos_stats().expect("chaos"),
            server.app.machine.stats(),
            server.app.machine.total_cycles(),
        )
    };
    let a = run(424_242);
    let b = run(424_242);
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    let c = run(424_243);
    assert_ne!(
        (&a.4, a.5),
        (&c.4, c.5),
        "a different seed must actually change the run"
    );
}
