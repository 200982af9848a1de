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

use ne_host::RecoveryEventKind;
use ne_sgx::profile::Histogram;
use ne_sgx::trace::Stats;

use crate::incident::{correlate, Incident};
use crate::slo::{AVAILABILITY_PERMILLE, LATENCY_TARGET, LONG_WINDOWS, PAGE_BURN, WARN_BURN};
use crate::window::{Timeline, Window};

/// Schema tag of the timeline export.
pub const OBS_SCHEMA: &str = "ne-obs/v1";

fn hex(digest: &[u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn stats_json(s: &Stats) -> String {
    let fields: Vec<String> = s
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.percentile(0.50),
        h.percentile(0.90),
        h.percentile(0.99)
    )
}

fn window_json(w: &Window, kind: &str) -> String {
    let mut line = format!(
        "{{\"kind\":\"{kind}\",\"index\":{},\"folded\":{},\"cycles\":{},\"free_epc\":{},\
         \"resident\":{},\"degraded\":{},\"stats\":{},\"request\":{},\"tenants\":[",
        w.index,
        w.folded,
        w.cycles,
        w.free_epc,
        w.resident,
        w.degraded,
        stats_json(&w.stats),
        hist_json(&w.request())
    );
    for (i, t) in w.tenants.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{{\"tenant\":{},\"accepted\":{},\"completed\":{},\"shed\":{},\"rejected\":{},\
             \"respawns\":{},\"breaker_open\":{},\"latency_violations\":{},\"latency\":{},\
             \"slo\":\"{}\",\"burn_short\":{},\"burn_long\":{}}}",
            t.tenant,
            t.traffic.accepted,
            t.traffic.completed,
            t.traffic.shed_requests,
            t.traffic.rejected(),
            t.respawns,
            t.breaker_open,
            t.latency_violations,
            hist_json(&t.latency),
            t.slo.name(),
            t.burn_short,
            t.burn_long
        ));
    }
    line.push_str("],\"injections\":[");
    for (i, inj) in w.injections.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let tenant = inj.tenant.map_or("null".to_string(), |t| t.to_string());
        line.push_str(&format!(
            "{{\"cycle\":{},\"eid\":{},\"tenant\":{tenant},\"kind\":\"{}\"}}",
            inj.cycle,
            inj.eid,
            inj.kind.name()
        ));
    }
    line.push_str("],\"recoveries\":[");
    for (i, ev) in w.recoveries.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let detail = match ev.kind {
            RecoveryEventKind::Backoff { wait } => format!(",\"wait\":{wait}"),
            RecoveryEventKind::Shed(reason) => format!(",\"reason\":\"{}\"", reason.name()),
            _ => String::new(),
        };
        line.push_str(&format!(
            "{{\"cycle\":{},\"tenant\":{},\"kind\":\"{}\"{detail}}}",
            ev.cycle,
            ev.tenant,
            ev.kind.name()
        ));
    }
    line.push_str("]}");
    line
}

fn incident_json(inc: &Incident) -> String {
    format!(
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
    )
}

/// Serializes a timeline (plus its correlated incidents) as
/// `ne-obs/v1` JSONL. Byte-deterministic: same timeline, same bytes.
pub fn to_jsonl(t: &Timeline, label: &str) -> String {
    let mut out = String::new();
    let buckets = Histogram::new().summary().buckets;
    out.push_str(&format!(
        "{{\"schema\":\"{OBS_SCHEMA}\",\"label\":\"{}\",\"window_cycles\":{},\"windows\":{},\
         \"shards\":{},\"tenants\":{},\"hist_buckets\":{buckets},\"slo\":{{\
         \"latency_target\":{LATENCY_TARGET},\"availability_permille\":{AVAILABILITY_PERMILLE},\
         \"long_windows\":{LONG_WINDOWS},\"warn_burn\":{WARN_BURN},\"page_burn\":{PAGE_BURN}}}}}\n",
        escape(label),
        t.window_cycles,
        t.raw_windows(),
        t.shards,
        t.totals.len(),
    ));
    if let Some(base) = &t.base {
        out.push_str(&window_json(base, "base"));
        out.push('\n');
    }
    for w in &t.windows {
        out.push_str(&window_json(w, "window"));
        out.push('\n');
    }
    for c in &t.checkpoints {
        out.push_str(&format!(
            "{{\"kind\":\"checkpoint\",\"tenant\":{},\"service\":{},\"completions\":{},\
             \"digest\":\"{}\"}}\n",
            c.tenant,
            c.service,
            c.completions,
            hex(&c.digest)
        ));
    }
    for tt in &t.totals {
        out.push_str(&format!(
            "{{\"kind\":\"tenant_total\",\"tenant\":{},\"accepted\":{},\"completed\":{},\
             \"shed\":{},\"rejected\":{},\"respawns\":{},\"replies\":\"sha256:{}\"}}\n",
            tt.tenant,
            tt.traffic.accepted,
            tt.traffic.completed,
            tt.traffic.shed_requests,
            tt.traffic.rejected(),
            tt.respawns,
            hex(&tt.digest)
        ));
    }
    for inc in &correlate(t) {
        out.push_str(&incident_json(inc));
        out.push('\n');
    }
    let (cycles, stats, request) = t.total();
    out.push_str(&format!(
        "{{\"kind\":\"total\",\"cycles\":{cycles},\"stats\":{},\"request\":{},\
         \"completed\":{},\"shed\":{}}}\n",
        stats_json(&stats),
        hist_json(&request),
        t.totals.iter().map(|x| x.traffic.completed).sum::<u64>(),
        t.totals
            .iter()
            .map(|x| x.traffic.shed_requests)
            .sum::<u64>()
    ));
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
