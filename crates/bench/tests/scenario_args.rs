//! The one scenario parser behind `ne-load` and `ne-serve`: its defaults
//! table, the timeline rule and the count bounds, called directly so no
//! bound is probed by starting the threads it guards against.

use ne_bench::report::{parse_scenario, ScenarioArgs};
use ne_cluster::{Mode, Scenario};

fn scenario_of(list: &[&str], both: bool) -> Result<ScenarioArgs, String> {
    let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
    parse_scenario(&args, both)
}

#[test]
fn scenario_defaults_are_one_table() {
    let wire = scenario_of(&["bin"], false).expect("defaults");
    assert_eq!(wire.scenario, Scenario::new(4, 2, 12, 0xC0FFEE));
    assert_eq!((wire.modes, wire.shards), (vec![Mode::Closed], 1));
    let load = scenario_of(&["bin"], true).expect("defaults");
    assert_eq!(load.modes, vec![Mode::Open, Mode::Closed]);
    assert_eq!(load.scenario, wire.scenario);
    let open = scenario_of(&["bin", "--mode", "open", "--services", "9"], false).unwrap();
    assert_eq!(
        (open.scenario.mode, open.scenario.services),
        (Mode::Open, 3)
    );
}

#[test]
fn scenario_timeline_rule() {
    let on = scenario_of(&["bin", "--timeline-out", "t.jsonl"], true).unwrap();
    assert_eq!(on.scenario.window, Some(2_000_000));
    let sized = ["bin", "--timeline-out", "t.jsonl", "--window", "500000"];
    assert_eq!(
        scenario_of(&sized, false).unwrap().scenario.window,
        Some(500_000)
    );
    assert_eq!(
        scenario_of(&["bin", "--window", "500000"], false),
        Err("--window needs --timeline-out".to_string())
    );
}

#[test]
fn scenario_counts_are_bounded() {
    let err = |list: &[&str]| scenario_of(list, true).unwrap_err();
    assert_eq!(
        err(&["bin", "--tenants", "256"]),
        "--tenants 256 is out of range (at most 255)"
    );
    assert!(scenario_of(&["bin", "--tenants", "255"], true).is_ok());
    assert_eq!(
        err(&["bin", "--requests", "4294967296"]),
        "--requests 4294967296 is out of range (at most 4294967295)"
    );
    // One shard per tenant at most: the parser refuses the rest
    // before any shard thread exists.
    assert_eq!(
        err(&["bin", "--tenants", "3", "--shards", "4"]),
        "--shards 4 is out of range (at most 3)"
    );
    let big = [
        "bin",
        "--tenants",
        "255",
        "--shards",
        "18446744073709551615",
    ];
    assert!(err(&big).starts_with("--shards 18446744073709551615 is out of range"));
    assert_eq!(
        scenario_of(&["bin", "--shards", "0"], true).unwrap().shards,
        1
    );
    assert_eq!(
        scenario_of(&["bin", "--mode", "both"], false),
        Err("--mode expects open|closed, got 'both'".to_string())
    );
}
