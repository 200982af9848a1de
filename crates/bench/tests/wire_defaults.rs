//! `ne-serve` and `ne-load --connect` read their scenario flags through
//! one parser with one defaults table, so the two binaries with no
//! scenario flag at all serve one scenario together: 4 tenants × 2
//! services × 12 requests, seed `0xC0FFEE`, closed loop. When their
//! scenarios disagree, both exit non-zero.

use std::path::Path;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const NE_LOAD: &str = env!("CARGO_BIN_EXE_ne-load");
const NE_SERVE: &str = env!("CARGO_BIN_EXE_ne-serve");

/// Waits for `ne-serve --addr-out` to name the bound address.
fn bound_address(path: &Path, server: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(path) {
            if !addr.is_empty() {
                return addr;
            }
        }
        if let Ok(Some(status)) = server.try_wait() {
            panic!("ne-serve exited before listening: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "ne-serve never wrote its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `ne-serve --listen 127.0.0.1:0` with `server_args` against
/// `ne-load --connect` with `client_args`; returns (server, client).
/// `tag` keeps concurrent tests' address files apart.
fn serve_and_load(tag: &str, server_args: &[&str], client_args: &[&str]) -> (Output, Output) {
    let addr_out = std::env::temp_dir().join(format!("ne-serve-{tag}-{}.addr", std::process::id()));
    let _ = std::fs::remove_file(&addr_out);
    let mut server = Command::new(NE_SERVE)
        .args(["--listen", "127.0.0.1:0", "--addr-out"])
        .arg(&addr_out)
        .args(server_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ne-serve");
    let addr = bound_address(&addr_out, &mut server);
    let _ = std::fs::remove_file(&addr_out);
    let client = Command::new(NE_LOAD)
        .args(["--connect", &addr])
        .args(client_args)
        .output()
        .expect("run ne-load --connect");
    let served = server.wait_with_output().expect("wait for ne-serve");
    (served, client)
}

#[test]
fn default_server_and_default_client_serve_every_request() {
    let (served, client) = serve_and_load(
        "defaults",
        &["--accept-timeout-ms", "20000", "--read-timeout-ms", "20000"],
        &["--read-timeout-ms", "20000"],
    );
    let report = String::from_utf8_lossy(&client.stdout);
    let server_out = String::from_utf8_lossy(&served.stdout);
    assert_eq!(
        client.status.code(),
        Some(0),
        "ne-load: {report}{}",
        String::from_utf8_lossy(&client.stderr)
    );
    assert_eq!(
        served.status.code(),
        Some(0),
        "ne-serve: {server_out}{}",
        String::from_utf8_lossy(&served.stderr)
    );
    assert!(
        report.starts_with(
            "ne-load wire report: 4 tenants x 2 services, 12 requests per pair, \
             seed 12648430, mode closed-loop, tls off\n"
        ),
        "{report}"
    );
    assert!(
        report.ends_with("total: sent 96 replies 96 rejected 0\n"),
        "{report}"
    );
    assert!(
        server_out.contains("served 96 requests: 96 completed, 0 shed"),
        "{server_out}"
    );
}

/// `ne-serve --tenants 2` against `ne-load --connect --tenants 3`: every
/// pair is refused (scenario mismatch, or out of range for tenant 2),
/// so the server exits 1 like its client instead of reporting success.
/// Tenant 2's connections may reach the server only after it closed its
/// listener, so their reason is not asserted here;
/// `malformed_peer.rs::queued_connections_get_typed_refusals` pins it
/// for connections queued in time.
#[test]
fn mismatched_scenarios_fail_both_binaries() {
    let (served, client) = serve_and_load("mismatch", &["--tenants", "2"], &["--tenants", "3"]);
    let report = String::from_utf8_lossy(&client.stdout);
    let server_out = String::from_utf8_lossy(&served.stdout);
    assert_eq!(client.status.code(), Some(1), "ne-load: {report}");
    assert_eq!(served.status.code(), Some(1), "ne-serve: {server_out}");
    assert!(server_out.contains("4 pairs refused"), "{server_out}");
    for pair in ["2.0", "2.1"] {
        assert!(report.contains(&format!("pair {pair}: error ")), "{report}");
    }
}
