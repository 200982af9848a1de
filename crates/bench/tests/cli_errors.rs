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
    assert_eq!(
        stderr.lines().count(),
        1,
        "{bin} {args:?}, stderr: {stderr}"
    );
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

/// Retired flags — the `--dash` dashboard, the `--profile-out` tables and
/// `--no-switchless` — and plain typos are refused before any run, not
/// silently ignored.
#[test]
fn unknown_flags_exit_2() {
    assert_cli_error(
        TABLE3,
        &["--profile-out", "p"],
        "unknown flag --profile-out",
    );
    assert_cli_error(TABLE3, &["--profile-out=p"], "unknown flag --profile-out");
    assert_ne_load_error(&["--dash"], "unknown flag --dash");
    assert_ne_load_error(&["--profile-out", "p"], "unknown flag --profile-out");
    assert_ne_load_error(&["--no-switchless"], "unknown flag --no-switchless");
    assert_ne_load_error(&["--bogus-flag"], "unknown flag --bogus-flag");
    assert_cli_error(
        NE_SERVE,
        &["--oracle", "--no-switchless"],
        "unknown flag --no-switchless",
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
        "--mode expects open|closed, got 'sideways'",
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

/// Each mode refuses a flag only the other mode reads, before it runs:
/// the wire client builds no cluster and writes no export, and the
/// in-process cluster run opens no socket.
#[test]
fn ne_load_refuses_the_other_modes_flags() {
    let connect = [
        "--connect",
        "127.0.0.1:9",
        "--tenants",
        "1",
        "--services",
        "1",
        "--requests",
        "2",
        "--seed",
        "7",
    ];
    let cluster_only = [
        ["--shards", "3"],
        ["--chaos", "crash:1"],
        ["--migrate", "0@planned"],
        ["--window", "500000"],
        ["--metrics-out", "x.json"],
        ["--trace-out", "x.json"],
        ["--tenants-out", "x.txt"],
        ["--timeline-out", "x.jsonl"],
    ];
    for extra in &cluster_only {
        let args = [&connect[..], extra].concat();
        assert_cli_error(NE_LOAD, &args, &format!("unknown flag {}", extra[0]));
    }
    // Several at once: the first one named is reported.
    let args = [&connect[..], &cluster_only[..3].concat()].concat();
    assert_cli_error(NE_LOAD, &args, "unknown flag --shards");
    assert_ne_load_error(&["--tls"], "unknown flag --tls");
    assert_ne_load_error(
        &["--read-timeout-ms", "10"],
        "unknown flag --read-timeout-ms",
    );
}

#[test]
fn ne_serve_oracle_refuses_the_wire_flags() {
    for (flag, value) in [
        ("--listen", "127.0.0.1:0"),
        ("--addr-out", "addr.txt"),
        ("--read-timeout-ms", "10"),
        ("--accept-timeout-ms", "10"),
    ] {
        assert_cli_error(
            NE_SERVE,
            &["--oracle", "--tenants", "1", flag, value],
            &format!("unknown flag {flag}"),
        );
    }
}

/// `--window` sets the length of a timeline that only `--timeline-out`
/// asks for; alone it would be silently ignored.
#[test]
fn window_without_timeline_out_exits_2() {
    let message = "--window needs --timeline-out";
    assert_ne_load_error(&["--window", "500000"], message);
    assert_cli_error(
        NE_SERVE,
        &["--oracle", "--tenants", "1", "--window", "500000"],
        message,
    );
    assert_cli_error(
        NE_SERVE,
        &["--listen", "127.0.0.1:0", "--window", "500000"],
        message,
    );
}

/// `--timeline-out` alone writes the timeline at the default window.
#[test]
fn ne_serve_timeline_out_alone_writes_the_timeline() {
    let path = std::env::temp_dir().join(format!("ne-serve-timeline-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let args = [
        "--oracle",
        "--tenants",
        "2",
        "--services",
        "2",
        "--requests",
        "4",
        "--seed",
        "7",
        "--timeline-out",
        path.to_str().expect("utf-8 temp path"),
    ];
    let (code, stderr) = run(NE_SERVE, &args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let timeline = std::fs::read_to_string(&path).expect("timeline written");
    let _ = std::fs::remove_file(&path);
    assert!(
        timeline.starts_with("{\"schema\":\"ne-obs/v1\""),
        "{timeline}"
    );
    assert!(
        timeline.contains("\"window_cycles\":2000000,"),
        "{timeline}"
    );
}

/// A count past its bound is refused before anything is built: the
/// tenant count would otherwise abort while allocating the population.
#[test]
fn out_of_range_counts_exit_2() {
    assert_cli_error(
        NE_LOAD,
        &["--mode", "closed", "--tenants", "100000000000"],
        "--tenants 100000000000 is out of range (at most 255)",
    );
    assert_cli_error(
        NE_LOAD,
        &["--connect", "127.0.0.1:9", "--requests", "4294967296"],
        "--requests 4294967296 is out of range (at most 4294967295)",
    );
    assert_cli_error(
        NE_SERVE,
        &["--oracle", "--tenants", "256"],
        "--tenants 256 is out of range (at most 255)",
    );
    // One shard per tenant at most; refused before any shard thread.
    assert_ne_load_error(&["--shards", "2"], "--shards 2 is out of range (at most 1)");
}
