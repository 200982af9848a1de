//! A deterministic text dashboard: the timeline replayed as one frame
//! per window, plus a throughput sparkline and the incident report.
//!
//! Everything is derived from the (simulated-cycle) timeline, so the
//! output is byte-stable — `ne-load --dash` prints it after the run.

use crate::incident::{correlate, render_incidents};
use crate::slo::SloState;
use crate::window::{Timeline, Window};

const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| match (v * 7).checked_div(max) {
            None => SPARKS[0],
            Some(i) => SPARKS[i as usize],
        })
        .collect()
}

/// Compact cycle counts: `2.0M`, `512.0k`, `950`.
fn short(cycles: u64) -> String {
    if cycles >= 1_000_000 {
        format!("{}.{}M", cycles / 1_000_000, (cycles % 1_000_000) / 100_000)
    } else if cycles >= 1_000 {
        format!("{}.{}k", cycles / 1_000, (cycles % 1_000) / 100)
    } else {
        format!("{cycles}")
    }
}

fn frame(w: &Window, window_cycles: u64) -> String {
    let req = w.request();
    let lo = w.index * window_cycles;
    let hi = (w.index + w.folded) * window_cycles;
    let mut out = format!(
        "window {:>3} [{:>7}..{:>7})  done {:>5}  shed {:>4}  p50 {:>8}  p99 {:>8}  \
         epc_free {:>5}  inj {:>3}  rec {:>3}\n",
        w.index,
        short(lo),
        short(hi),
        w.completed(),
        w.shed(),
        req.percentile(0.50),
        req.percentile(0.99),
        w.free_epc,
        w.injections.len(),
        w.recoveries.len()
    );
    for t in &w.tenants {
        let state = match t.slo {
            SloState::Ok => "ok  ",
            SloState::Warn => "WARN",
            SloState::Page => "PAGE",
        };
        out.push_str(&format!(
            "  t{:<3} {state}  done {:>5}  shed {:>4}  viol {:>4}  burn {:>6}/{:<6}{}\n",
            t.tenant,
            t.traffic.completed,
            t.traffic.shed_requests,
            t.latency_violations,
            t.burn_short,
            t.burn_long,
            if t.breaker_open { "  breaker" } else { "" }
        ));
    }
    out
}

/// Renders the full dashboard: header, throughput sparkline, one frame
/// per window (base roll-up included), and the incident report.
pub fn render(t: &Timeline, label: &str) -> String {
    let mut out = format!(
        "── ne-obs dash · {label} · {} windows of {} cycles · {} shard{} ──\n",
        t.raw_windows(),
        t.window_cycles,
        t.shards,
        if t.shards == 1 { "" } else { "s" }
    );
    let done: Vec<u64> = t.all_windows().map(|w| w.completed()).collect();
    out.push_str(&format!("throughput  {}\n", sparkline(&done)));
    let shed: Vec<u64> = t.all_windows().map(|w| w.shed()).collect();
    if shed.iter().any(|&s| s > 0) {
        out.push_str(&format!("shed        {}\n", sparkline(&shed)));
    }
    out.push('\n');
    for w in t.all_windows() {
        out.push_str(&frame(w, t.window_cycles));
    }
    out.push('\n');
    out.push_str(&render_incidents(&correlate(t)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{TenantWindow, Window};

    #[test]
    fn dash_is_deterministic_text() {
        let mut t = Timeline::new(1_000);
        let mut w = Window::new(0);
        let mut row = TenantWindow::new(0);
        row.traffic.completed = 3;
        row.latency.record(500);
        w.tenants.push(row);
        t.push(w);
        let a = render(&t, "unit");
        assert_eq!(a, render(&t, "unit"));
        assert!(a.contains("ne-obs dash"));
        assert!(a.contains("window   0"));
        assert!(a.contains("no incidents"));
    }

    #[test]
    fn sparkline_scales_to_the_max() {
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[1, 7]), "▂█");
        assert_eq!(short(2_000_000), "2.0M");
        assert_eq!(short(512_300), "512.3k");
        assert_eq!(short(950), "950");
    }
}
