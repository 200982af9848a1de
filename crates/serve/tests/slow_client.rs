//! Wire-robustness regressions: a slow, stalled, or rollback-attempting
//! client must never wedge the front door or corrupt the run — its
//! tenant is shed through the existing admission counters
//! ([`ne_host::ShedReason::ClientStalled`] recovery events), and every
//! other tenant's run completes untouched.

use std::time::Duration;

use ne_serve::client::{greet, run_pair};
use ne_serve::frame::{Frame, FrameKind};
use ne_serve::session::{client_random, encode_client_hello};
use ne_serve::{ClientConfig, ConnError, FramedConn, FrontDoor, ServeConfig};
use ne_tls::handshake::{CipherSuite, ClientHello};

fn scenario(tls: bool) -> ServeConfig {
    let mut cfg = ServeConfig::new(2, 1, 2, 0xBAD_C11E);
    cfg.tls = tls;
    // Short deadline so the stall is detected quickly; the good client
    // stays comfortably inside it (replies stream back in microseconds).
    cfg.read_timeout = Duration::from_millis(250);
    cfg.accept_timeout = Duration::from_secs(10);
    cfg
}

fn client_config(cfg: &ServeConfig, addr: String) -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        ..ClientConfig::new(addr, &cfg.scenario, cfg.tls)
    }
}

fn export_line(export: &str, tenant: usize) -> &str {
    export
        .lines()
        .find(|l| l.starts_with(&format!("tenant {tenant} ")))
        .expect("tenant line in export")
}

/// A client that completes the Hello and then goes silent: its tenant is
/// shed at the warmup pull's read deadline; the other tenant's run is
/// untouched and the stalled connection still gets the Finish broadcast.
#[test]
fn stalled_client_sheds_its_tenant_only() {
    let cfg = scenario(false);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let ccfg = client_config(&cfg, addr);
    // Pair (0, 0) Hellos and then stalls, keeping the socket open.
    let mut stalled = greet(&ccfg, 0, 0).expect("greet");
    // Pair (1, 0) plays the whole scenario correctly.
    let good = run_pair(&ccfg, 1, 0);
    let outcome = server.join().expect("server thread").expect("serve run");

    assert_eq!(good.error, None, "good pair failed: {:?}", good.error);
    assert_eq!(good.replies.len(), cfg.scenario.requests);
    let t0 = export_line(&outcome.tenants_export, 0);
    assert!(
        t0.contains("accepted 0") && t0.contains("completed 0"),
        "stalled tenant should have served nothing: {t0}"
    );
    let t1 = export_line(&outcome.tenants_export, 1);
    assert!(
        t1.contains(&format!("completed {}", cfg.scenario.requests)),
        "good tenant perturbed by the stall: {t1}"
    );
    // The stalled client was not cut off rudely: the Finish broadcast
    // still reaches it.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let finish = stalled.recv().expect("finish frame");
    assert_eq!(finish.kind, FrameKind::Finish);
}

/// A version-rollback ClientHello is refused on the wire with a typed
/// Abort; the pair is dead, its tenant shed, and the honest TLS tenant
/// completes normally.
#[test]
fn rollback_hello_is_refused_on_the_wire() {
    let cfg = scenario(true);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let ccfg = client_config(&cfg, addr.clone());

    // Pair (0, 0): a handcrafted TLS 1.0 offer.
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut conn = FramedConn::new(stream).expect("conn");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = ClientHello {
        version: 0x0301,
        suites: vec![CipherSuite::Aes128Gcm],
        random: client_random(cfg.scenario.seed, 0, 0),
    };
    conn.send(&Frame::new(
        FrameKind::ClientHello,
        0,
        0,
        0,
        encode_client_hello(&hello),
    ))
    .expect("send offer");
    let answer = conn.recv().expect("answer");
    assert_eq!(answer.kind, FrameKind::Abort);
    let reason = String::from_utf8_lossy(&answer.payload).to_string();
    assert!(
        reason.contains("rollback"),
        "abort should name the rollback: {reason}"
    );

    // Pair (1, 0) handshakes honestly and completes.
    let good = run_pair(&ccfg, 1, 0);
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(good.error, None, "good pair failed: {:?}", good.error);
    let t0 = export_line(&outcome.tenants_export, 0);
    assert!(
        t0.contains("accepted 0"),
        "rollback tenant should have served nothing: {t0}"
    );
    let t1 = export_line(&outcome.tenants_export, 1);
    assert!(
        t1.contains(&format!("completed {}", cfg.scenario.requests)),
        "honest tenant perturbed by the rollback: {t1}"
    );
}

/// Closing the connection mid-stream (instead of stalling) is the same
/// story: the tenant is shed, nobody else notices, the server exits.
#[test]
fn disconnected_client_sheds_its_tenant_only() {
    let cfg = scenario(false);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let ccfg = client_config(&cfg, addr);
    // Greet and immediately hang up.
    drop(greet(&ccfg, 0, 0).expect("greet"));
    let good = run_pair(&ccfg, 1, 0);
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(good.error, None);
    assert_eq!(good.replies.len(), cfg.scenario.requests);
    assert!(export_line(&outcome.tenants_export, 0).contains("accepted 0"));
}

/// The greet itself enforces the scenario: a client announcing a
/// different seed is refused with an Abort, surfaced as a typed
/// [`ConnError::Protocol`].
#[test]
fn scenario_mismatch_is_refused_at_hello() {
    let cfg = scenario(false);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let ccfg = client_config(&cfg, addr);
    let mut wrong = ccfg.clone();
    wrong.seed ^= 1;
    match greet(&wrong, 0, 0) {
        Err(ConnError::Protocol(reason)) => {
            assert!(reason.contains("scenario mismatch"), "got: {reason}")
        }
        other => panic!("mismatched Hello should be refused, got {other:?}"),
    }
    // The run still completes: the refused pair's tenant is shed, the
    // good tenant plays through.
    let good = run_pair(&ccfg, 1, 0);
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(good.error, None);
    assert!(export_line(&outcome.tenants_export, 0).contains("accepted 0"));
}
