//! The one human renderer of the exports: reads an exported file and
//! prints it as tables.
//!
//! ```text
//! ne-profile report <metrics.json>     # ne-metrics/v2 or ne-metrics-report/v2
//! ne-profile timeline <timeline.jsonl> # ne-obs/v1
//! ```
//!
//! `report` accepts either a single [`ne-metrics/v2`] snapshot or a
//! [`ne-metrics-report/v2`] multi-run report (the `--metrics-out`
//! payloads of every experiment binary) and prints one
//! count/mean/p50/p90/p99/max table per run from the embedded `profile`
//! summaries. `timeline` pretty-prints an `ne-obs/v1` JSONL timeline
//! (from `ne-load --timeline-out` / `ne-serve --timeline-out`): a
//! per-window table, the per-tenant SLO state transitions, and the
//! correlated incidents. `ne-profile` takes no `--` flags; any one ends
//! it with exit status 2.
//!
//! [`ne-metrics/v2`]: ne_sgx::metrics::METRICS_SCHEMA
//! [`ne-metrics-report/v2`]: ne_bench::report::REPORT_SCHEMA

use ne_bench::json::{self, Value};
use ne_bench::report::{f2, reject_unknown_flags, Table, REPORT_SCHEMA};
use ne_sgx::metrics::METRICS_SCHEMA;
use std::process::ExitCode;

const USAGE: &str = "usage: ne-profile report <metrics.json>\n\
                     \x20      ne-profile timeline <timeline.jsonl>";

fn main() -> ExitCode {
    reject_unknown_flags(&[]);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => {
            let Some(path) = args.get(1) else {
                eprintln!("report needs a metrics JSON path\n{USAGE}");
                return ExitCode::from(2);
            };
            match report(path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("timeline") => {
            let Some(path) = args.get(1) else {
                eprintln!("timeline needs an ne-obs/v1 JSONL path\n{USAGE}");
                return ExitCode::from(2);
            };
            match timeline(path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parses an exported metrics file and prints its histogram tables.
fn report(path: &str) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = json::parse(&src)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" field")?;
    match schema {
        METRICS_SCHEMA => {
            print_profile("snapshot", &doc)?;
            Ok(())
        }
        REPORT_SCHEMA => {
            let runs = doc
                .get("runs")
                .and_then(Value::as_array)
                .ok_or("report has no \"runs\" array")?;
            for run in runs {
                let label = run
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or("run without a \"label\"")?;
                let metrics = run.get("metrics").ok_or("run without \"metrics\"")?;
                print_profile(label, metrics)?;
            }
            Ok(())
        }
        other => Err(format!(
            "unsupported schema \"{other}\" (expected \"{METRICS_SCHEMA}\" or \"{REPORT_SCHEMA}\")"
        )),
    }
}

/// Prints one run's `profile` summaries as a table.
fn print_profile(label: &str, metrics: &Value) -> Result<(), String> {
    let entries = metrics
        .get("profile")
        .and_then(Value::as_array)
        .ok_or("metrics without a \"profile\" array")?;
    println!("run: {label}");
    if entries.is_empty() {
        println!("  (no latency samples recorded)\n");
        return Ok(());
    }
    let mut t = Table::new(&[
        "event", "level", "count", "mean", "p50", "p90", "p99", "max",
    ]);
    for e in entries {
        let s = |k: &str| {
            e.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("profile entry missing \"{k}\""))
        };
        let n = |k: &str| {
            e.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("profile entry missing numeric \"{k}\""))
        };
        let (count, sum) = (n("count")?, n("sum")?);
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        t.row(&[
            s("event")?,
            s("level")?,
            count.to_string(),
            f2(mean),
            n("p50")?.to_string(),
            n("p90")?.to_string(),
            n("p99")?.to_string(),
            n("max")?.to_string(),
        ]);
    }
    t.print();
    println!();
    Ok(())
}

/// Pretty-prints an `ne-obs/v1` JSONL timeline: per-window table, SLO
/// state transitions, incidents, and the reconciliation totals.
fn timeline(path: &str) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut lines = src.lines().enumerate();
    let (_, meta_line) = lines.next().ok_or("empty timeline file")?;
    let meta = json::parse(meta_line)?;
    let schema = meta
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("first line has no \"schema\" field")?;
    if schema != ne_obs::OBS_SCHEMA {
        return Err(format!(
            "unsupported schema \"{schema}\" (expected \"{}\")",
            ne_obs::OBS_SCHEMA
        ));
    }
    let mu = |k: &str| meta.get(k).and_then(Value::as_u64).unwrap_or(0);
    println!(
        "timeline: {} — {} window(s) of {} cycles, {} shard(s), {} tenant(s)",
        meta.get("label").and_then(Value::as_str).unwrap_or("?"),
        mu("windows"),
        mu("window_cycles"),
        mu("shards"),
        mu("tenants"),
    );
    if let Some(slo) = meta.get("slo") {
        let su = |k: &str| slo.get(k).and_then(Value::as_u64).unwrap_or(0);
        println!(
            "slo: latency target {} cycles, availability {} permille, \
             warn/page burn {}/{} over {} long window(s)\n",
            su("latency_target"),
            su("availability_permille"),
            su("warn_burn"),
            su("page_burn"),
            su("long_windows"),
        );
    }

    let mut windows = Table::new(&[
        "window", "cycles", "done", "shed", "p50", "p99", "viol", "inj", "rec", "slo",
    ]);
    let mut transitions: Vec<String> = Vec::new();
    let mut incidents: Vec<String> = Vec::new();
    let mut total: Option<String> = None;
    // tenant id -> last seen SLO state, for the transition log.
    let mut last_state: Vec<(u64, String)> = Vec::new();
    for (i, line) in lines {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = doc
            .get("kind")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no \"kind\"", i + 1))?;
        match kind {
            "window" | "base" => {
                let wu = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
                let req = doc.get("request").ok_or("window without \"request\"")?;
                let ru = |k: &str| req.get(k).and_then(Value::as_u64).unwrap_or(0);
                let tenants = doc
                    .get("tenants")
                    .and_then(Value::as_array)
                    .ok_or("window without \"tenants\"")?;
                let index = wu("index");
                let mut done = 0;
                let mut shed = 0;
                let mut viol = 0;
                let mut states: Vec<String> = Vec::new();
                for t in tenants {
                    let tu = |k: &str| t.get(k).and_then(Value::as_u64).unwrap_or(0);
                    done += tu("completed");
                    shed += tu("shed");
                    viol += tu("latency_violations");
                    let id = tu("tenant");
                    let state = t
                        .get("slo")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string();
                    if state != "ok" {
                        states.push(format!("t{id}:{state}"));
                    }
                    match last_state.iter_mut().find(|(t, _)| *t == id) {
                        Some((_, prev)) => {
                            if *prev != state {
                                transitions.push(format!(
                                    "window {index}: tenant {id} {prev} -> {state} \
                                     (burn {}/{})",
                                    tu("burn_short"),
                                    tu("burn_long")
                                ));
                                *prev = state;
                            }
                        }
                        None => {
                            if state != "ok" {
                                transitions.push(format!(
                                    "window {index}: tenant {id} ok -> {state} (burn {}/{})",
                                    tu("burn_short"),
                                    tu("burn_long")
                                ));
                            }
                            last_state.push((id, state));
                        }
                    }
                }
                windows.row(&[
                    if kind == "base" {
                        format!("{index}*")
                    } else {
                        index.to_string()
                    },
                    wu("cycles").to_string(),
                    done.to_string(),
                    shed.to_string(),
                    ru("p50").to_string(),
                    ru("p99").to_string(),
                    viol.to_string(),
                    doc.get("injections")
                        .and_then(Value::as_array)
                        .map_or(0, |a| a.len())
                        .to_string(),
                    doc.get("recoveries")
                        .and_then(Value::as_array)
                        .map_or(0, |a| a.len())
                        .to_string(),
                    if states.is_empty() {
                        "ok".to_string()
                    } else {
                        states.join(" ")
                    },
                ]);
            }
            "incident" => {
                let iu = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
                incidents.push(format!(
                    "tenant {} windows {}..{}: worst {}, {} impacted window(s)",
                    iu("tenant"),
                    iu("first_window"),
                    iu("last_window"),
                    doc.get("worst").and_then(Value::as_str).unwrap_or("?"),
                    iu("impacted_windows"),
                ));
            }
            "total" => {
                let tu = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
                total = Some(format!(
                    "totals: {} cycles, {} completed, {} shed (window deltas \
                     reconcile to these exactly)",
                    tu("cycles"),
                    tu("completed"),
                    tu("shed"),
                ));
            }
            // Checkpoints and tenant totals are the byte-diff plane, not
            // for human eyes.
            "checkpoint" | "tenant_total" => {}
            other => return Err(format!("line {}: unknown kind \"{other}\"", i + 1)),
        }
    }
    windows.print();
    println!("\nSLO transitions:");
    if transitions.is_empty() {
        println!("  (none — every tenant stayed OK)");
    }
    for t in &transitions {
        println!("  {t}");
    }
    println!("\nincidents:");
    if incidents.is_empty() {
        println!("  (none)");
    }
    for i in &incidents {
        println!("  {i}");
    }
    if let Some(t) = total {
        println!("\n{t}");
    }
    Ok(())
}
