//! The headline `ne-serve` invariant: the same seeded scenario served
//! over a real loopback TCP socket produces **byte-identical**
//! `ne-tenants/v1`, `ne-metrics/v2`, and `ne-obs/v1` exports to the
//! in-process oracle — plaintext or TLS, closed or open loop, clean or
//! under chaos. Plus the client-side guarantees: per-tenant reply
//! digests match the server export, and the rendered report is
//! byte-deterministic across runs.

use std::time::Duration;

use ne_serve::client::ClientReport;
use ne_serve::{
    run_oracle, ClientConfig, FrontDoor, LoadClient, Mode, Scenario, ServeConfig, ServeOutcome,
};

/// The scenario of the CLI wire golden (`results/ne-serve.*`): 3 tenants
/// × 2 services × 8 requests, seed 7, so every pair sends request ids
/// 1 through 8.
fn scenario(mode: Mode, tls: bool, chaos: Option<&str>) -> ServeConfig {
    let mut cfg = ServeConfig::for_scenario(Scenario {
        mode,
        chaos: chaos.map(str::to_string),
        window: Some(500_000),
        ..Scenario::new(3, 2, 8, 7)
    });
    cfg.tls = tls;
    cfg.read_timeout = Duration::from_secs(10);
    cfg.accept_timeout = Duration::from_secs(10);
    cfg
}

/// Serves `cfg` over loopback TCP against a full wire client; returns
/// the server outcome and the client report.
fn serve_over_wire(cfg: &ServeConfig) -> (ServeOutcome, ClientReport) {
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let client = ClientConfig {
        read_timeout: Duration::from_secs(10),
        ..ClientConfig::new(addr, &cfg.scenario, cfg.tls)
    };
    let report = LoadClient::new(client).run();
    let outcome = server.join().expect("server thread").expect("serve run");
    (outcome, report)
}

fn assert_outcomes_identical(wire: &ServeOutcome, oracle: &ServeOutcome) {
    assert_eq!(wire.accepted, oracle.accepted, "accepted diverged");
    assert_eq!(
        wire.tenants_export, oracle.tenants_export,
        "ne-tenants/v1 diverged"
    );
    assert_eq!(
        wire.metrics_json, oracle.metrics_json,
        "ne-metrics/v2 diverged"
    );
    assert_eq!(
        wire.timeline_jsonl, oracle.timeline_jsonl,
        "ne-obs/v1 diverged"
    );
}

fn assert_clean_client(report: &ClientReport, cfg: &ServeConfig) {
    for p in &report.pairs {
        assert_eq!(p.error, None, "pair {}.{} failed", p.tenant, p.service);
        assert_eq!(p.sent as usize, cfg.scenario.requests);
        assert_eq!(p.replies.len(), cfg.scenario.requests);
        assert_eq!(p.bad_replies, 0);
    }
}

#[test]
fn closed_loop_wire_matches_oracle() {
    let cfg = scenario(Mode::Closed, false, None);
    let (wire, report) = serve_over_wire(&cfg);
    let oracle = run_oracle(&cfg.scenario).expect("oracle");
    assert_outcomes_identical(&wire, &oracle);
    assert_clean_client(&report, &cfg);
    // The client's per-tenant digests are the server's export digests.
    for line in report.render().lines().filter(|l| l.starts_with("tenant ")) {
        let digest = line.split("sha256:").nth(1).expect("digest in line");
        assert!(
            wire.tenants_export.contains(digest),
            "client digest {digest} missing from server export"
        );
    }
}

#[test]
fn tls_on_the_wire_is_invisible_in_exports() {
    let cfg = scenario(Mode::Closed, true, None);
    let (wire, report) = serve_over_wire(&cfg);
    // The oracle has no transport at all; TLS must not move a byte.
    let oracle = run_oracle(&cfg.scenario).expect("oracle");
    assert_outcomes_identical(&wire, &oracle);
    assert_clean_client(&report, &cfg);
}

#[test]
fn open_loop_wire_matches_oracle() {
    let cfg = scenario(Mode::Open, false, None);
    let (wire, report) = serve_over_wire(&cfg);
    let oracle = run_oracle(&cfg.scenario).expect("oracle");
    assert_outcomes_identical(&wire, &oracle);
    for p in &report.pairs {
        assert_eq!(p.error, None, "pair {}.{} failed", p.tenant, p.service);
        assert_eq!(p.sent as usize, cfg.scenario.requests);
    }
}

#[test]
fn chaos_wire_matches_oracle() {
    // crash sheds tenants mid-run: the wire path must mirror the
    // oracle's reject/shed bookkeeping, not just the happy path.
    for spec in ["aex+evict", "crash:3"] {
        let cfg = scenario(Mode::Closed, false, Some(spec));
        let (wire, report) = serve_over_wire(&cfg);
        let oracle = run_oracle(&cfg.scenario).expect("oracle");
        assert_outcomes_identical(&wire, &oracle);
        for p in &report.pairs {
            assert_eq!(
                p.error, None,
                "chaos must degrade into rejects, not client errors"
            );
        }
    }
}

#[test]
fn client_report_is_byte_deterministic() {
    let cfg = scenario(Mode::Closed, false, None);
    let (_, first) = serve_over_wire(&cfg);
    let (_, second) = serve_over_wire(&cfg);
    assert_eq!(
        first.render(),
        second.render(),
        "two runs against the same seed rendered different reports"
    );
}
