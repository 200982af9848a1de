//! **ne-serve** — the TCP front door binary.
//!
//! `ne-serve --listen 127.0.0.1:0` binds a real loopback socket, waits
//! for one `ne-load --connect` client per (tenant, service) pair, and
//! serves the seeded scenario over the wire; `ne-serve --oracle` runs
//! the identical scenario entirely in-process. Both write the same
//! three exports — `ne-tenants/v1`, `ne-metrics/v2`, and (with
//! `--window`) `ne-obs/v1` — and the headline invariant is that the two
//! paths produce **byte-identical** files (CI's `serve-smoke` job
//! byte-diffs them).
//!
//! Flags: `--listen ADDR` (default `127.0.0.1:0`) or `--oracle`;
//! scenario: `--tenants N` (default 2), `--services N` (default 2,
//! capped at the 3 service kinds), `--requests N` per pair (default
//! 12), `--seed S`, `--mode closed|open` (default closed),
//! `--no-switchless`, `--chaos <spec>`, `--window <cycles>`; wire:
//! `--tls`, `--read-timeout-ms N` (default 5000), `--accept-timeout-ms
//! N` (default 30000), `--addr-out <path>` (writes the bound address
//! once listening, so scripts can use an ephemeral port); exports:
//! `--tenants-out`, `--metrics-out`, `--timeline-out`.
//!
//! Bad input and I/O failures (a non-integer number, an unknown
//! `--mode`, an unwritable `--addr-out` or export path, a failed bind
//! or run) end the process with a one-line `error: ...` on stderr and
//! exit status 2.

use std::path::Path;
use std::time::Duration;

use ne_bench::report::{cli_error, flag_str, flag_u64, write_or_exit};
use ne_serve::oracle::run_oracle;
use ne_serve::{FrontDoor, Mode, ServeConfig, ServeOutcome};

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        flag_u64("--tenants").unwrap_or(2) as usize,
        (flag_u64("--services").unwrap_or(2) as usize).min(3),
        flag_u64("--requests").unwrap_or(12) as usize,
        flag_u64("--seed").unwrap_or(0xC0FFEE),
    );
    cfg.mode = match flag_str("--mode").as_deref().unwrap_or("closed") {
        "closed" => Mode::Closed,
        "open" => Mode::Open,
        other => cli_error(&format!("--mode expects closed|open, got '{other}'")),
    };
    cfg.switchless = !std::env::args().any(|a| a == "--no-switchless");
    cfg.tls = std::env::args().any(|a| a == "--tls");
    cfg.chaos = flag_str("--chaos");
    cfg.window = flag_u64("--window");
    if let Some(ms) = flag_u64("--read-timeout-ms") {
        cfg.read_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = flag_u64("--accept-timeout-ms") {
        cfg.accept_timeout = Duration::from_millis(ms);
    }
    cfg
}

/// Writes the export `flag` names, if it was given.
fn write_out(flag: &str, what: &str, payload: &str) {
    if let Some(path) = flag_str(flag) {
        write_or_exit(what, Path::new(&path), payload);
        println!("{}: wrote {path}", flag.trim_start_matches('-'));
    }
}

fn finish(outcome: &ServeOutcome) {
    let r = &outcome.report;
    println!(
        "served {} requests: {} completed, {} shed, {} respawns",
        outcome.accepted,
        r.completed(),
        r.shed_requests(),
        r.respawns(),
    );
    write_out("--tenants-out", "tenants export", &outcome.tenants_export);
    write_out("--metrics-out", "metrics", &outcome.metrics_json);
    if let Some(jsonl) = &outcome.timeline_jsonl {
        write_out("--timeline-out", "timeline export", jsonl);
    }
}

fn main() {
    let cfg = config();
    let oracle = std::env::args().any(|a| a == "--oracle");
    println!(
        "ne-serve ({}): {} tenants x {} services, {} requests per pair, seed {}, mode {}, tls {}{}",
        if oracle { "oracle" } else { "wire" },
        cfg.tenants,
        cfg.services,
        cfg.requests,
        cfg.seed,
        cfg.mode.name(),
        if cfg.tls { "on" } else { "off" },
        cfg.chaos
            .as_deref()
            .map(|c| format!(", chaos {c}"))
            .unwrap_or_default(),
    );
    let outcome = if oracle {
        run_oracle(&cfg).unwrap_or_else(|e| cli_error(&format!("oracle run failed: {e}")))
    } else {
        let listen = flag_str("--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
        let door = FrontDoor::bind(cfg, &listen)
            .unwrap_or_else(|e| cli_error(&format!("cannot bind {listen}: {e}")));
        let addr = door
            .local_addr()
            .unwrap_or_else(|e| cli_error(&format!("bound address: {e}")));
        println!("listening on {addr}");
        if let Some(path) = flag_str("--addr-out") {
            write_or_exit("bound address", Path::new(&path), &addr.to_string());
        }
        door.run()
            .unwrap_or_else(|e| cli_error(&format!("serve run failed: {e}")))
    };
    finish(&outcome);
}
