//! `ne-serve` and `ne-load --connect` read their scenario flags through
//! one parser with one defaults table, so the two binaries with no
//! scenario flag at all serve one scenario together: 4 tenants × 2
//! services × 12 requests, seed `0xC0FFEE`, closed loop.

use std::path::Path;
use std::process::{Child, Command, Stdio};
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

#[test]
fn default_server_and_default_client_serve_every_request() {
    let addr_out =
        std::env::temp_dir().join(format!("ne-serve-defaults-{}.addr", std::process::id()));
    let _ = std::fs::remove_file(&addr_out);
    let mut server = Command::new(NE_SERVE)
        .args(["--listen", "127.0.0.1:0", "--addr-out"])
        .arg(&addr_out)
        .args(["--accept-timeout-ms", "20000", "--read-timeout-ms", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ne-serve");
    let addr = bound_address(&addr_out, &mut server);
    let _ = std::fs::remove_file(&addr_out);
    let client = Command::new(NE_LOAD)
        .args(["--connect", &addr, "--read-timeout-ms", "20000"])
        .output()
        .expect("run ne-load --connect");
    let served = server.wait_with_output().expect("wait for ne-serve");
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
