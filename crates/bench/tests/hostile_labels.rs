//! Quotes, backslashes and control characters in the experiment name,
//! a run label, the validator name and a timeline label are escaped by
//! the one JSON escaper (`ne_sgx::metrics::json_escape`), so every
//! export still parses — `ne_bench::json` refuses raw control
//! characters, as RFC 8259 § 7 requires — and every string reads back
//! unchanged. The Chrome trace's span labels are checked in
//! `trace_wellformed.rs`.

use ne_bench::json::{parse, Value};
use ne_bench::report::MetricsReport;
use ne_sgx::config::HwConfig;
use ne_sgx::enclave::ProcessId;
use ne_sgx::machine::Machine;

const HOSTILE: &str = "a\"b\\c\nd\u{1}";

#[test]
fn the_parser_refuses_raw_control_characters_in_strings() {
    let err = parse("\"a\nb\"").unwrap_err();
    assert!(err.contains("raw control character 0x0a"), "{err}");
    assert!(parse("\"\u{1}\"").is_err());
    assert_eq!(
        parse("\"a\\nb\\u0001\""),
        Ok(Value::Str("a\nb\u{1}".into()))
    );
}

#[test]
fn hostile_labels_export_valid_json() {
    let mut machine = Machine::new(HwConfig::small());
    let va = machine.os_alloc_untrusted(ProcessId(0), 1);
    machine.write(0, va, b"payload").expect("write");
    let mut metrics = machine.metrics();
    metrics.validator = HOSTILE.to_string();
    let mut report = MetricsReport::new(HOSTILE);
    report.push_run(HOSTILE, metrics);
    let doc = parse(&report.to_json()).expect("report must parse");
    let run = &doc.get("runs").and_then(Value::as_array).expect("runs")[0];
    for v in [
        doc.get("experiment"),
        run.get("label"),
        run.get("metrics").and_then(|m| m.get("validator")),
    ] {
        assert_eq!(v.and_then(Value::as_str), Some(HOSTILE));
    }
    let timeline = ne_obs::to_jsonl(&ne_obs::Timeline::new(1), HOSTILE);
    let header = parse(timeline.lines().next().expect("header")).expect("header must parse");
    assert_eq!(header.get("label").and_then(Value::as_str), Some(HOSTILE));
}
