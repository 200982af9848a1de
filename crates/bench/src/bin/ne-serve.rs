//! **ne-serve** — the TCP front door binary.
//!
//! `ne-serve --listen 127.0.0.1:0` binds a real loopback socket, waits
//! for one `ne-load --connect` client per (tenant, service) pair, and
//! serves the seeded scenario over the wire; `ne-serve --oracle` runs
//! the identical scenario entirely in-process. Both write the same
//! three exports — `ne-tenants/v1`, `ne-metrics/v2`, and (with
//! `--timeline-out`) `ne-obs/v1` — and the headline invariant is that
//! the two paths produce **byte-identical** files (the `wire_oracle`
//! tests hold them to it, and CI diffs a `--tls` wire run's exports
//! against the oracle's committed `results/ne-serve.*`).
//!
//! Flags: `--listen ADDR` (default `127.0.0.1:0`) or `--oracle`;
//! scenario, read by [`ne_bench::report::parse_scenario`] with the
//! defaults `ne-load` has: `--tenants N` (default 4, at most 255),
//! `--services N` (default 2, capped at the 3 service kinds),
//! `--requests N` per pair (default 12, at most `u32::MAX`), `--seed S`
//! (default `0xC0FFEE`), `--mode closed|open` (default closed),
//! `--chaos <spec>`, `--window <cycles>` (default 2,000,000; only with
//! `--timeline-out`); wire: `--tls`, `--read-timeout-ms N` (default
//! 5000), `--accept-timeout-ms N` (default 30000), `--addr-out <path>`
//! (writes the bound address once listening, so scripts can use an
//! ephemeral port); exports: `--tenants-out`, `--metrics-out`,
//! `--timeline-out`.
//!
//! `--oracle` refuses the wire-only flags (`--listen`, `--addr-out` and
//! the two timeouts).
//!
//! Exit status 1 means some scenario pair was refused or never connected
//! (the count is printed and the exports still written), as it does for
//! `ne-load --connect`. Bad input and I/O failures (an unknown flag, a
//! non-integer number, a count out of range, an unknown `--mode`,
//! `--window` without `--timeline-out`, an unwritable `--addr-out` or
//! export path, a failed bind or run) end the process with a one-line
//! `error: ...` on stderr and exit status 2.

use std::path::Path;
use std::time::Duration;

use ne_bench::report::{
    cli_error, flag_str, flag_u64, reject_unknown_flags, scenario_args, write_or_exit,
};
use ne_serve::{run_oracle, FrontDoor, ServeConfig, ServeOutcome};

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
        "served {} requests: {} completed, {} shed, {} respawns, {} pairs refused",
        outcome.accepted,
        r.completed(),
        r.shed_requests(),
        r.respawns(),
        outcome.refused_pairs,
    );
    write_out("--tenants-out", "tenants export", &outcome.tenants_export);
    write_out("--metrics-out", "metrics", &outcome.metrics_json);
    // A timeline is collected exactly when `--timeline-out` names a path.
    let timeline = outcome.timeline_jsonl.as_deref().unwrap_or_default();
    write_out("--timeline-out", "timeline export", timeline);
    if outcome.refused_pairs > 0 {
        std::process::exit(1);
    }
}

/// The scenario and export flags both modes read.
const SHARED: [&str; 11] = [
    "--tenants",
    "--services",
    "--requests",
    "--seed",
    "--mode",
    "--chaos",
    "--window",
    "--tls",
    "--tenants-out",
    "--metrics-out",
    "--timeline-out",
];

fn main() {
    // Each mode refuses the flags only the other mode reads: the oracle
    // binds nothing and waits on no socket.
    let oracle = std::env::args().any(|a| a == "--oracle");
    let own: &[&str] = if oracle {
        &["--oracle"]
    } else {
        &[
            "--listen",
            "--read-timeout-ms",
            "--accept-timeout-ms",
            "--addr-out",
        ]
    };
    reject_unknown_flags(&[&SHARED[..], own].concat());
    let sc = scenario_args(false).scenario;
    let tls = std::env::args().any(|a| a == "--tls");
    println!(
        "ne-serve ({}): {} tenants x {} services, {} requests per pair, seed {}, mode {}, tls {}{}",
        if oracle { "oracle" } else { "wire" },
        sc.tenants,
        sc.services,
        sc.requests,
        sc.seed,
        sc.mode.name(),
        if tls { "on" } else { "off" },
        sc.chaos
            .as_deref()
            .map(|c| format!(", chaos {c}"))
            .unwrap_or_default(),
    );
    let outcome = if oracle {
        run_oracle(&sc).unwrap_or_else(|e| cli_error(&format!("oracle run failed: {e}")))
    } else {
        let mut cfg = ServeConfig::for_scenario(sc);
        cfg.tls = tls;
        if let Some(ms) = flag_u64("--read-timeout-ms") {
            cfg.read_timeout = Duration::from_millis(ms);
        }
        if let Some(ms) = flag_u64("--accept-timeout-ms") {
            cfg.accept_timeout = Duration::from_millis(ms);
        }
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
