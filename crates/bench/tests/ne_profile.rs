//! `ne-profile` renders the committed exports byte for byte: the
//! timeline of the full fault mix and the chaos run's metrics report
//! must equal their committed renderings in `results/`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn results(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file)
}

fn ne_profile(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ne-profile"))
        .args(args)
        .output()
        .expect("spawn ne-profile")
}

fn assert_renders(command: &str, export: &str, golden: &str) {
    let path = results(export);
    let out = ne_profile(&[command, path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "ne-profile {command} {export} failed");
    let want = std::fs::read_to_string(results(golden)).expect("read golden");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{golden}");
}

#[test]
fn timeline_rendering_matches_the_committed_golden() {
    assert_renders(
        "timeline",
        "ne-load-faults.jsonl",
        "ne-profile-timeline.txt",
    );
}

#[test]
fn report_rendering_matches_the_committed_golden() {
    assert_renders(
        "report",
        "ne-load-chaos.metrics.json",
        "ne-profile-report.txt",
    );
}

#[test]
fn unknown_subcommands_and_flags_exit_2() {
    for args in [&["demo"][..], &["report", "--trace-out", "t.json"]] {
        let out = ne_profile(args);
        assert_eq!(out.status.code(), Some(2), "ne-profile {args:?}");
    }
}
