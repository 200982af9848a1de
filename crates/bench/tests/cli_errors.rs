//! Bad CLI input ends an experiment binary with a one-line error on
//! stderr and exit status 2: never a panic, and never a silently skipped
//! export. `table3` drives the shared `ne_bench::report` flag and export
//! helpers because it runs in milliseconds; `ne-load` and `ne-serve` add
//! their own scenario flags and exports on top of them.

use std::process::Command;

/// Runs the experiment binary `bin` with `args` and returns
/// `(exit code, stderr)`.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_cli_error(bin: &str, args: &[&str], message: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{bin} {args:?}, stderr: {stderr}");
    assert!(stderr.contains(message), "{bin} {args:?}, stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?}, stderr: {stderr}"
    );
}

const TABLE3: &str = env!("CARGO_BIN_EXE_table3");
const NE_LOAD: &str = env!("CARGO_BIN_EXE_ne-load");
const NE_SERVE: &str = env!("CARGO_BIN_EXE_ne-serve");

/// The smallest `ne-load` scenario: one tenant, one service, two
/// requests (the fewest `--migrate` accepts), one closed-loop run.
const TINY: [&str; 8] = [
    "--tenants",
    "1",
    "--services",
    "1",
    "--requests",
    "2",
    "--mode",
    "closed",
];

/// An existing directory, which cannot be written as a file.
fn unwritable() -> String {
    std::env::temp_dir()
        .to_str()
        .expect("utf-8 temp dir")
        .to_string()
}

/// Runs the `TINY` scenario plus `extra` and expects a CLI error.
fn assert_ne_load_error(extra: &[&str], message: &str) {
    let args: Vec<&str> = TINY.iter().chain(extra).copied().collect();
    assert_cli_error(NE_LOAD, &args, message);
}

#[test]
fn trailing_metrics_out_without_a_value_exits_2() {
    assert_cli_error(TABLE3, &["--metrics-out"], "--metrics-out expects a value");
    assert_cli_error(TABLE3, &["--metrics-out="], "--metrics-out expects a value");
}

#[test]
fn unwritable_metrics_out_path_exits_2() {
    assert_cli_error(
        TABLE3,
        &["--metrics-out", &unwritable()],
        "cannot write metrics to",
    );
}

#[test]
fn ne_load_malformed_chaos_spec_exits_2() {
    assert_ne_load_error(&["--chaos", "bogus"], "--chaos: ");
}

#[test]
fn ne_load_out_of_range_migrate_tenant_exits_2() {
    assert_ne_load_error(&["--migrate", "9@planned"], "names tenant 9");
}

#[test]
fn ne_load_migrate_with_one_request_exits_2() {
    assert_cli_error(
        NE_LOAD,
        &[
            "--tenants",
            "1",
            "--requests",
            "1",
            "--migrate",
            "0@planned",
        ],
        "--migrate needs at least 2 requests",
    );
}

#[test]
fn ne_load_unknown_mode_exits_2() {
    assert_cli_error(
        NE_LOAD,
        &["--mode", "sideways"],
        "--mode expects open|closed|both, got 'sideways'",
    );
    // The wire client checks its mode before it opens any connection.
    assert_cli_error(
        NE_LOAD,
        &["--connect", "127.0.0.1:9", "--mode", "sideways"],
        "--mode expects open|closed, got 'sideways'",
    );
}

#[test]
fn ne_load_unwritable_tenants_out_exits_2() {
    let dir = unwritable();
    let message = "cannot write tenants export to";
    assert_ne_load_error(&["--tenants-out", &dir], message);
    assert_ne_load_error(&["--migrate", "0@planned", "--tenants-out", &dir], message);
}

#[test]
fn ne_load_unwritable_timeline_out_exits_2() {
    let dir = unwritable();
    let message = "cannot write timeline export to";
    assert_ne_load_error(&["--timeline-out", &dir], message);
    assert_ne_load_error(&["--migrate", "0@planned", "--timeline-out", &dir], message);
}

#[test]
fn ne_serve_non_integer_tenants_exits_2() {
    assert_cli_error(
        NE_SERVE,
        &["--oracle", "--tenants", "x"],
        "--tenants expects an unsigned integer, got 'x'",
    );
}

#[test]
fn ne_serve_unknown_mode_exits_2() {
    assert_cli_error(
        NE_SERVE,
        &["--oracle", "--mode", "sideways"],
        "--mode expects closed|open, got 'sideways'",
    );
}

#[test]
fn ne_serve_oracle_unwritable_tenants_out_exits_2() {
    let dir = unwritable();
    assert_cli_error(
        NE_SERVE,
        &[
            "--oracle",
            "--tenants",
            "1",
            "--services",
            "1",
            "--requests",
            "1",
            "--tenants-out",
            &dir,
        ],
        "cannot write tenants export to",
    );
}

#[test]
fn ne_serve_unwritable_addr_out_exits_2() {
    // Fails right after binding, before the accept phase waits for any
    // client.
    assert_cli_error(
        NE_SERVE,
        &["--listen", "127.0.0.1:0", "--addr-out", &unwritable()],
        "cannot write bound address to",
    );
}
