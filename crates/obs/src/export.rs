//! The `ne-obs/v1` JSONL timeline export.
//!
//! One JSON object per line, hand-rolled with a fixed key order and
//! integer values only — the bytes are part of the crate's contract
//! (CI diffs two same-seed runs). Line kinds, in order:
//!
//! 1. the meta header (`"schema":"ne-obs/v1"`);
//! 2. the base roll-up window, if the ring overflowed (`"kind":"base"`);
//! 3. one line per retained window (`"kind":"window"`);
//! 4. reply-stream checkpoints (`"kind":"checkpoint"`) — the
//!    shard-count-invariant data plane, together with
//! 5. per-tenant totals (`"kind":"tenant_total"`);
//! 6. correlated incidents (`"kind":"incident"`);
//! 7. a final reconciliation line (`"kind":"total"`) whose sums equal
//!    the end-of-run machine counters exactly.

use std::fmt::Write;

use ne_host::{push_hex, RecoveryEventKind};
use ne_sgx::metrics::json_escape;
use ne_sgx::profile::{Histogram, BUCKETS};
use ne_sgx::trace::Stats;

use crate::incident::{correlate, Incident};
use crate::slo::{AVAILABILITY_PERMILLE, LATENCY_TARGET, LONG_WINDOWS, PAGE_BURN, WARN_BURN};
use crate::window::{Timeline, Window};

// Every line is written straight into the one output `String`; writing
// to a `String` cannot fail, so the `fmt::Result`s are dropped.

/// Schema tag of the timeline export.
pub const OBS_SCHEMA: &str = "ne-obs/v1";

fn push_stats(out: &mut String, s: &Stats) {
    out.push('{');
    for (i, (k, v)) in s.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push('}');
}

fn push_hist(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.percentile(0.50),
        h.percentile(0.90),
        h.percentile(0.99)
    );
}

fn push_window(out: &mut String, w: &Window, kind: &str) {
    let _ = write!(
        out,
        "{{\"kind\":\"{kind}\",\"index\":{},\"folded\":{},\"cycles\":{},\"free_epc\":{},\
         \"resident\":{},\"degraded\":{},\"stats\":",
        w.index, w.folded, w.cycles, w.free_epc, w.resident, w.degraded,
    );
    push_stats(out, &w.stats);
    out.push_str(",\"request\":");
    push_hist(out, &w.request());
    out.push_str(",\"tenants\":[");
    for (i, t) in w.tenants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tenant\":{},\"accepted\":{},\"completed\":{},\"shed\":{},\"rejected\":{},\
             \"respawns\":{},\"breaker_open\":{},\"latency_violations\":{},\"latency\":",
            t.tenant,
            t.traffic.accepted,
            t.traffic.completed,
            t.traffic.shed_requests,
            t.traffic.rejected(),
            t.respawns,
            t.breaker_open,
            t.latency_violations,
        );
        push_hist(out, &t.latency);
        let _ = write!(
            out,
            ",\"slo\":\"{}\",\"burn_short\":{},\"burn_long\":{}}}",
            t.slo.name(),
            t.burn_short,
            t.burn_long
        );
    }
    out.push_str("],\"injections\":[");
    for (i, inj) in w.injections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cycle\":{},\"eid\":{},\"tenant\":",
            inj.cycle, inj.eid
        );
        match inj.tenant {
            Some(t) => {
                let _ = write!(out, "{t}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"kind\":\"{}\"}}", inj.kind.name());
    }
    out.push_str("],\"recoveries\":[");
    for (i, ev) in w.recoveries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"cycle\":{},\"tenant\":{},\"kind\":\"{}\"",
            ev.cycle,
            ev.tenant,
            ev.kind.name()
        );
        match ev.kind {
            RecoveryEventKind::Backoff { wait } => {
                let _ = write!(out, ",\"wait\":{wait}");
            }
            RecoveryEventKind::Shed(reason) => {
                let _ = write!(out, ",\"reason\":\"{}\"", reason.name());
            }
            _ => {}
        }
        out.push('}');
    }
    out.push_str("]}\n");
}

fn push_incident(out: &mut String, inc: &Incident) {
    let _ = writeln!(
        out,
        "{{\"kind\":\"incident\",\"tenant\":{},\"first_window\":{},\"last_window\":{},\
         \"first_cycle\":{},\"injections\":{{\"aex\":{},\"evict\":{},\"mac\":{},\"crash\":{},\
         \"stall\":{}}},\"recoveries\":{{\"backoffs\":{},\"reloads\":{},\"respawns\":{},\
         \"sheds\":{},\"breaker_opened\":{}}},\"impacted_windows\":{},\"worst\":\"{}\"}}",
        inc.tenant,
        inc.first_window,
        inc.last_window,
        inc.first_cycle,
        inc.aex,
        inc.evict,
        inc.mac,
        inc.crash,
        inc.stall,
        inc.backoffs,
        inc.reloads,
        inc.respawns,
        inc.sheds,
        inc.breaker_opened,
        inc.impacted_windows,
        inc.worst.name()
    );
}

/// Serializes a timeline (plus its correlated incidents) as
/// `ne-obs/v1` JSONL. Byte-deterministic: same timeline, same bytes.
pub fn to_jsonl(t: &Timeline, label: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"");
    out.push_str(OBS_SCHEMA);
    out.push_str("\",\"label\":\"");
    out.push_str(&json_escape(label));
    let _ = writeln!(
        out,
        "\",\"window_cycles\":{},\"windows\":{},\"shards\":{},\"tenants\":{},\
         \"hist_buckets\":{BUCKETS},\"slo\":{{\"latency_target\":{LATENCY_TARGET},\
         \"availability_permille\":{AVAILABILITY_PERMILLE},\"long_windows\":{LONG_WINDOWS},\
         \"warn_burn\":{WARN_BURN},\"page_burn\":{PAGE_BURN}}}}}",
        t.window_cycles,
        t.raw_windows(),
        t.shards,
        t.totals.len(),
    );
    if let Some(base) = &t.base {
        push_window(&mut out, base, "base");
    }
    for w in &t.windows {
        push_window(&mut out, w, "window");
    }
    for c in &t.checkpoints {
        let _ = write!(
            out,
            "{{\"kind\":\"checkpoint\",\"tenant\":{},\"service\":{},\"completions\":{},\
             \"digest\":\"",
            c.tenant, c.service, c.completions,
        );
        push_hex(&mut out, &c.digest);
        out.push_str("\"}\n");
    }
    for tt in &t.totals {
        let _ = write!(
            out,
            "{{\"kind\":\"tenant_total\",\"tenant\":{},\"accepted\":{},\"completed\":{},\
             \"shed\":{},\"rejected\":{},\"respawns\":{},\"replies\":\"sha256:",
            tt.tenant,
            tt.traffic.accepted,
            tt.traffic.completed,
            tt.traffic.shed_requests,
            tt.traffic.rejected(),
            tt.respawns,
        );
        push_hex(&mut out, &tt.digest);
        out.push_str("\"}\n");
    }
    for inc in &correlate(t) {
        push_incident(&mut out, inc);
    }
    let (cycles, stats, request) = t.total();
    let _ = write!(out, "{{\"kind\":\"total\",\"cycles\":{cycles},\"stats\":");
    push_stats(&mut out, &stats);
    out.push_str(",\"request\":");
    push_hist(&mut out, &request);
    let _ = writeln!(
        out,
        ",\"completed\":{},\"shed\":{}}}",
        t.totals.iter().map(|x| x.traffic.completed).sum::<u64>(),
        t.totals
            .iter()
            .map(|x| x.traffic.shed_requests)
            .sum::<u64>()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{TenantTotal, TenantWindow, Window};
    use ne_host::Traffic;

    fn tiny() -> Timeline {
        let mut t = Timeline::new(1_000);
        let mut w = Window::new(0);
        let mut row = TenantWindow::new(0);
        row.traffic.completed = 2;
        row.latency.record(700);
        row.latency.record(900);
        w.tenants.push(row);
        w.cycles = 1_000;
        t.push(w);
        t.totals.push(TenantTotal {
            tenant: 0,
            traffic: Traffic {
                accepted: 2,
                completed: 2,
                ..Traffic::default()
            },
            respawns: 0,
            digest: [0u8; 32],
        });
        t
    }

    #[test]
    fn export_is_deterministic_and_schema_tagged() {
        let t = tiny();
        let a = to_jsonl(&t, "unit");
        let b = to_jsonl(&t, "unit");
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"ne-obs/v1\""));
        assert!(a.contains("\"kind\":\"window\""));
        assert!(a.contains("\"kind\":\"tenant_total\""));
        assert!(a.lines().last().unwrap().starts_with("{\"kind\":\"total\""));
        // Every line parses as a standalone JSON object (ne-profile
        // consumes it with the ne-bench parser).
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn fold_of_one_timeline_exports_identically() {
        let t = tiny();
        let folded = Timeline::fold(std::slice::from_ref(&t)).unwrap();
        assert_eq!(to_jsonl(&t, "x"), to_jsonl(&folded, "x"));
    }
}
