//! The emitted Chrome Trace Event JSON is well-formed: it parses, every
//! `B` event has a matching `E` on the same `(pid, tid)` lane closing the
//! innermost open span, and timestamps never go backwards within a lane.
//!
//! This is the round-trip the ISSUE's acceptance criterion asks for: the
//! trace a binary writes with `--trace-out` is fed back through the
//! crate's own JSON parser and checked structurally, so a malformed
//! export fails here before Perfetto ever sees it.

use ne_bench::json::{self, Value};
use ne_sgx::config::HwConfig;
use ne_sgx::machine::Machine;
use ne_sgx::spantree::SpanTree;
use ne_sgx::trace::{SpanKind, Trace};
use ne_tls::echo::{run_echo, EchoConfig};
use std::collections::BTreeMap;

/// Structurally validates a Chrome trace and returns `(begins, ends)`.
fn validate(chrome_json: &str) -> (usize, usize) {
    let doc = json::parse(chrome_json).expect("chrome trace must parse");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("top level must hold a \"traceEvents\" array");
    let mut stacks: BTreeMap<(u64, u64), Vec<(String, f64)>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let (mut begins, mut ends) = (0, 0);
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .expect("every event has a ph");
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .expect("every event has a name");
        let pid = e
            .get("pid")
            .and_then(Value::as_u64)
            .expect("every event has a pid");
        let tid = e
            .get("tid")
            .and_then(Value::as_u64)
            .expect("every event has a tid");
        let lane = (pid, tid);
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{ph} event \"{name}\" without a numeric ts"));
        assert!(ts >= 0.0, "negative timestamp on \"{name}\"");
        if ph == "B" || ph == "E" {
            // Span events must be chronological within their lane. Instant
            // markers ("i") are exempt: the emitter appends truncation
            // markers after the span stream, and viewers sort by ts anyway.
            let prev = last_ts.entry(lane).or_insert(ts);
            assert!(
                ts >= *prev,
                "timestamps go backwards on pid {pid} tid {tid}: {ts} after {prev}"
            );
            *prev = ts;
        }
        match ph {
            "B" => {
                begins += 1;
                stacks.entry(lane).or_default().push((name.to_string(), ts));
            }
            "E" => {
                ends += 1;
                let (open, begin_ts) =
                    stacks.get_mut(&lane).and_then(Vec::pop).unwrap_or_else(|| {
                        panic!("E \"{name}\" without an open B on pid {pid} tid {tid}")
                    });
                assert_eq!(open, name, "E must close the innermost open B of its lane");
                assert!(ts >= begin_ts, "span \"{name}\" ends before it begins");
            }
            "i" => {} // instant markers (unfinished / truncated spans)
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    for (lane, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "unclosed B events left on lane {lane:?}: {stack:?}"
        );
    }
    (begins, ends)
}

#[test]
fn echo_trace_round_trips_through_the_parser() {
    let run = run_echo(&EchoConfig {
        chunk_size: 512,
        num_messages: 8,
        nested: true,
        trace: true,
        reference: false,
    })
    .expect("echo");
    let bundle = run.trace.expect("traced run returns a bundle");
    let (begins, ends) = validate(&bundle.chrome_json);
    assert_eq!(begins, ends, "every B needs a matching E");
    assert!(begins > 0, "a nested echo must produce spans");
    assert_eq!(begins, bundle.spans, "one B/E pair per finished span");
    assert_eq!(bundle.unfinished, 0, "echo leaves no open spans at rest");
}

#[test]
fn wrapped_ring_still_exports_well_formed_json() {
    // Replaying into a capacity-4 ring forces eviction of early begins;
    // their ends must surface as instant markers, never as unbalanced E
    // events.
    let mut cfg = HwConfig::small();
    cfg.trace_events = true;
    let mut m = Machine::new(cfg);
    let outer = m.span_begin(0, SpanKind::Ecall, format_args!("outer"));
    for i in 0..6 {
        let s = m.span_begin(0, SpanKind::Ocall, format_args!("o{i}"));
        m.charge(0, 10);
        m.span_end(0, s);
    }
    m.span_end(0, outer);
    let mut ring = Trace::new(true, 4);
    for e in m.trace().events() {
        ring.record(e.clone());
    }
    assert!(ring.dropped() > 0, "ring must have wrapped");
    let tree = SpanTree::reconstruct(&ring);
    assert!(!tree.truncated.is_empty(), "evicted begins must be counted");
    let chrome_json = tree.to_chrome_json(m.config().cost.clock_ghz);
    let (begins, ends) = validate(&chrome_json);
    assert_eq!(begins, ends);
    assert!(
        chrome_json.contains("truncated_span_end"),
        "truncation must be visible in the export"
    );
}

#[test]
fn hostile_span_labels_stay_inside_their_strings() {
    // Quotes, backslashes and control characters in a label are escaped,
    // so the trace still parses (the parser refuses raw control
    // characters) and the name reads back unchanged.
    const HOSTILE: &str = "a\"b\\c\nd\u{1}";
    let mut cfg = HwConfig::small();
    cfg.trace_events = true;
    let mut m = Machine::new(cfg);
    let span = m.span_begin(0, SpanKind::Ecall, format_args!("{HOSTILE}"));
    m.charge(0, 10);
    m.span_end(0, span);
    let chrome_json = SpanTree::reconstruct(m.trace()).to_chrome_json(m.config().cost.clock_ghz);
    assert_eq!(validate(&chrome_json), (1, 1));
    let doc = json::parse(&chrome_json).expect("chrome trace must parse");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("events");
    let want = format!("ecall:{HOSTILE}");
    let named = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some(want.as_str()))
        .count();
    assert_eq!(named, 2, "the B and E events carry the label unchanged");
}
