//! Bad CLI input ends an experiment binary with a one-line error on
//! stderr and exit status 2: never a panic, and never a silently skipped
//! export. `table3` is the driver because it runs in milliseconds; every
//! binary shares the same `ne_bench::report` flag and export helpers.

use std::process::Command;

/// Runs `table3` with `args` and returns `(exit code, stderr)`.
fn table3(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_table3"))
        .args(args)
        .output()
        .expect("spawn table3");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_cli_error(args: &[&str], message: &str) {
    let (code, stderr) = table3(args);
    assert_eq!(code, Some(2), "args {args:?}, stderr: {stderr}");
    assert!(stderr.contains(message), "args {args:?}, stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "args {args:?}, stderr: {stderr}"
    );
}

#[test]
fn trailing_metrics_out_without_a_value_exits_2() {
    assert_cli_error(&["--metrics-out"], "--metrics-out expects a value");
    assert_cli_error(&["--metrics-out="], "--metrics-out expects a value");
}

#[test]
fn unwritable_metrics_out_path_exits_2() {
    // An existing directory cannot be written as a file.
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("utf-8 temp dir");
    assert_cli_error(&["--metrics-out", dir], "cannot write metrics to");
}
