//! **ne-load** — the load-generator harness for the `ne-host`
//! multi-tenant hosting server, driven through the `ne-cluster` shard
//! layer.
//!
//! Where the figure/table binaries measure single calls, this one drives
//! **sustained traffic** through the full admission → scheduler →
//! ecall → n_ecall → reply chain and reports end-to-end request latency
//! (p50/p99) and throughput. Two arrival processes run, each against a
//! freshly built cluster:
//!
//! * **open-loop** — Poisson arrivals (exponential inter-arrival times
//!   from the seeded RNG) offered regardless of completion; overload
//!   surfaces as backpressure rejections, never queue growth;
//! * **closed-loop** — one client per (tenant, service) pair that submits
//!   its next request the moment the previous one completes, the classic
//!   latency-oriented harness.
//!
//! Everything is deterministic under `--seed`: the arrival schedule, the
//! request payloads, and the per-tenant models/datasets, so two runs with
//! the same flags print byte-identical reports and exports. With
//! `--shards N` the tenants are consistent-hashed onto N independent
//! machine shards, one OS thread each; `--shards 1` (the default) is
//! byte-identical to the historic unsharded harness, and the per-tenant
//! export (`--tenants-out`) is byte-identical at **every** shard count
//! for clean closed-loop runs — the shard-count-invariance oracle (see
//! `ARCHITECTURE.md` §8).
//!
//! Flags: `--tenants N` (default 4, at most 255), `--services N` per
//! tenant (default 2, capped at the 3 service kinds), `--requests N` per
//! (tenant, service) per run (default 12, at most `u32::MAX`), `--seed
//! S` (default `0xC0FFEE`), `--mode open|closed|both` (default both),
//! `--shards N` (default 1, at most one per tenant), plus the standard
//! `--metrics-out` and `--trace-out` exports
//! (the traced run is the closed-loop one; shard `k > 0` traces land at
//! `<path>.shard<k>`), and `--tenants-out <path>` for the `ne-tenants/v1`
//! per-tenant export of the last run.
//!
//! `--chaos <spec>` installs a deterministic fault-injection plan per
//! shard (see [`ne_sgx::fault::FaultPlan::parse`]) after warmup: terms
//! joined by `+`, each `kind[:period]` with kinds `aex`, `evict`, `mac`,
//! `crash`, `stall` — e.g. `--chaos aex+evict` or `--chaos crash:11`.
//! The cluster derives the plan's RNG from `--seed` (and, above shard 0,
//! the shard id), so a chaos run is exactly as reproducible as a clean one:
//! same flags, byte-identical exports. The run then asserts
//! reply-or-shed (`completed + shed == accepted`) and the metrics
//! identities instead of zero-loss.
//!
//! `--timeline-out <path>` writes the `ne-obs/v1` windowed timeline of
//! the last run (per-window counter deltas, latency histograms, SLO
//! burn-rate states, chaos injections joined with recovery events, and
//! correlated incident reports — all on simulated cycles, so the bytes
//! are seed-deterministic; `ne-profile timeline` renders it);
//! `--window <cycles>` sets the window length (default 2,000,000) and
//! is refused without `--timeline-out`. The scenario flags are read by
//! [`ne_bench::report::parse_scenario`], the one parser `ne-serve`
//! shares, with the same defaults.
//!
//! `--migrate <tenant>@<trigger>` runs one **segmented** closed-loop
//! scenario with a live migration at the mid-run barrier (shards are
//! forced to at least 2). Triggers: `planned` moves that tenant to the
//! next shard; `epc` arms the EPC low-water evacuation policy (the
//! largest tenant per pressured shard moves — the named tenant is the
//! one the summary highlights); `chaos[:period]` injects seeded
//! migration requests through the fault plan (composable with
//! `--chaos`). Every `--chaos` kind composes with every trigger: a fault
//! on the destination's rebuild, attest or restore ecalls is retried
//! with backoff, and a fault on the source's seal ecall leaves the
//! tenant where it was. The run prints the usual per-tenant table, one
//! line per migration record, and a final `dropped=<n>` line that is
//! asserted to be `dropped=0` — the zero-dropped-requests invariant.
//! Everything is a simulation fact, so the report and the
//! `--tenants-out` / `--timeline-out` exports are byte-identical across
//! repeats of the same flags.
//!
//! `--connect host:port` switches the harness into **wire client**
//! mode: instead of building a cluster it opens one TCP connection per
//! (tenant, service) pair to a running `ne-serve` front door and plays
//! the same seeded request streams over the socket (`--tls` seals every
//! frame in an `ne-tls` record; `--mode` is `open` or `closed`, default
//! closed — the server pins one scenario, and a default `ne-serve`
//! serves a default `ne-load --connect`). The printed report is
//! byte-deterministic: every number in it is a simulation fact carried
//! back in Reply frames, and the per-tenant reply digests match the
//! server's `ne-tenants/v1` export line for line.
//!
//! Any other `--` argument ends the process with exit status 2, and so
//! does a flag only the other mode reads: `--connect` takes the scenario
//! flags, `--tls` and `--read-timeout-ms` and nothing else, and those
//! two wire flags are refused without `--connect`.

use ne_bench::report::{
    banner, cli_error, f2, flag_str, flag_u64, reject_unknown_flags, scenario_args, throughput_rps,
    want_trace, write_or_exit, write_shard_traces, MetricsReport, Table,
};
use ne_cluster::{
    drive, Cluster, ClusterConfig, ClusterReport, MigrationOutcome, MigrationPolicy,
    MigrationRecord, PlannedMove, Scenario,
};
use ne_host::RequestFactory;
use ne_obs::Timeline;
use std::path::Path;

fn tenant_table(report: &ClusterReport, shards: usize) -> Table {
    let mut headers = vec![
        "tenant",
        "prio",
        "loaded",
        "accepted",
        "rej_full",
        "rej_shed",
        "completed",
        "shed_req",
        "respawns",
    ];
    // The shard column only appears for actual multi-shard runs, keeping
    // one-shard output byte-identical to the historic harness.
    if shards > 1 {
        headers.push("shard");
    }
    let mut t = Table::new(&headers);
    for g in &report.tenants {
        let r = &g.report;
        let mut row = vec![
            r.name.clone(),
            r.priority.to_string(),
            if r.loaded { "yes" } else { "SHED" }.to_string(),
            r.traffic.accepted.to_string(),
            r.traffic.rejected_full.to_string(),
            r.traffic.rejected_shed.to_string(),
            r.traffic.completed.to_string(),
            r.traffic.shed_requests.to_string(),
            if r.breaker_open {
                format!("{}!", r.respawns)
            } else {
                r.respawns.to_string()
            },
        ];
        if shards > 1 {
            row.push(g.shard.to_string());
        }
        t.row(&row);
    }
    t
}

/// Runs one scenario on a fresh cluster; returns the per-tenant export
/// and, when traced, the per-shard trace bundles.
fn run(
    sc: &Scenario,
    shards: usize,
    report: &mut MetricsReport,
    trace: bool,
) -> (
    String,
    Option<Vec<ne_sgx::spantree::TraceBundle>>,
    Option<Timeline>,
) {
    let label = sc.mode.name();
    let mut cfg = ClusterConfig::for_scenario(sc, shards);
    cfg.host.hw.trace_events = trace;
    let mut cluster = Cluster::build(cfg).expect("cluster build");
    // The sampler only reads the servers, so observed runs are
    // byte-identical to the plain runs in every pre-existing export.
    let (accepted, timeline) = cluster
        .run(sc)
        .unwrap_or_else(|e| cli_error(&format!("{label} run failed: {e}")));
    // Reply-or-shed: every accepted request terminated, with a reply or
    // an explicit counted shed (zero sheds without chaos).
    let (hr, m) = cluster
        .verify_run(accepted)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    // Spot-check every reply against a fresh factory of the same stream,
    // keyed by the tenant's global id.
    let specs = drive::standard_specs(sc.tenants, sc.services);
    for (global, c) in cluster.completions() {
        let f = RequestFactory::new(specs[global].services[c.service], global, sc.seed);
        assert!(
            f.check_reply(&c.reply),
            "bad {label} reply for {}",
            specs[global].name
        );
    }
    let s = cluster.request_histogram().summary();
    let clock = cluster.clock_ghz();
    println!("\n{label}: {accepted} requests served");
    tenant_table(&hr, shards).print();
    if let Some(cs) = cluster.chaos_stats() {
        println!(
            "  chaos: {} eenters seen | {} aex storms, {} forced evictions, {} tamperings, \
             {} crashes, {} stalls -> {} respawns, {} sheds, {} degraded replies",
            cs.eenters_seen,
            cs.aex_storms,
            cs.forced_evictions,
            cs.tamperings,
            cs.crashes,
            cs.stalls,
            hr.respawns(),
            hr.shed_requests(),
            hr.degraded_replies,
        );
    }
    println!(
        "  throughput: {} req/s   latency p50 {} cycles ({} us)  p99 {} cycles ({} us)\n  \
         dispatches {} (home {}, steals {}), max backlog {}",
        f2(throughput_rps(&m).unwrap_or(0.0)),
        s.p50,
        f2(s.p50 as f64 / (clock * 1e3)),
        s.p99,
        f2(s.p99 as f64 / (clock * 1e3)),
        hr.sched.dispatched,
        hr.sched.home_dispatches,
        hr.sched.steals,
        hr.sched.max_backlog,
    );
    report.push_run(label, m);
    let export = cluster.tenants_export();
    (export, trace.then(|| cluster.trace_bundles()), timeline)
}

/// What `--migrate <tenant>@<trigger>` asked for.
#[derive(Debug, PartialEq, Eq)]
enum MigrateTrigger {
    Planned,
    Epc,
    Chaos(u64),
}

/// Parses `--migrate <tenant>@<planned|epc|chaos[:period]>`.
///
/// # Errors
///
/// A typed message for malformed specs, out-of-range tenants, and — like
/// the `--chaos` grammar ([`ne_sgx::fault::FaultPlan::parse`]) — a zero
/// chaos period,
/// which would otherwise produce a trigger that can never fire.
fn parse_migrate(spec: &str, tenants: usize) -> Result<(usize, MigrateTrigger), String> {
    let bad = |spec: &str| format!("expected <tenant>@<planned|epc|chaos[:period]>, got '{spec}'");
    let (tenant, trigger) = spec.split_once('@').ok_or_else(|| bad(spec))?;
    let tenant: usize = tenant.parse().map_err(|_| bad(spec))?;
    if tenant >= tenants {
        return Err(format!(
            "names tenant {tenant}, but the run has {tenants} tenants"
        ));
    }
    let trigger = match trigger.split_once(':') {
        None => match trigger {
            "planned" => MigrateTrigger::Planned,
            "epc" => MigrateTrigger::Epc,
            "chaos" => MigrateTrigger::Chaos(5),
            _ => return Err(bad(spec)),
        },
        Some(("chaos", period)) => {
            let period: u64 = period.parse().map_err(|_| bad(spec))?;
            if period == 0 {
                return Err(format!("zero period in migrate trigger '{spec}'"));
            }
            MigrateTrigger::Chaos(period)
        }
        Some(_) => return Err(bad(spec)),
    };
    Ok((tenant, trigger))
}

fn migration_line(r: &MigrationRecord) -> String {
    match &r.outcome {
        MigrationOutcome::Adopted { to, .. } => format!(
            "  barrier {}: tenant {} shard {} -> shard {} ({})",
            r.segment,
            r.global,
            r.from,
            to,
            r.trigger.name()
        ),
        MigrationOutcome::RolledBack { error, .. } => format!(
            "  barrier {}: tenant {} stayed on shard {} ({}, rolled back: {error})",
            r.segment,
            r.global,
            r.from,
            r.trigger.name()
        ),
    }
}

/// Migration mode (`--migrate`): one segmented closed-loop run with a
/// barrier migration mid-run, the per-tenant table, the migration log,
/// and the asserted `dropped=0` line. Exports describe this run.
fn run_migrate(spec: &str, sc: &Scenario, shards: usize) {
    let (tenant, trigger) =
        parse_migrate(spec, sc.tenants).unwrap_or_else(|e| cli_error(&format!("--migrate: {e}")));
    if sc.requests < 2 {
        cli_error("--migrate needs at least 2 requests per pair (one per segment)");
    }
    // Migration needs a destination; a single-shard request is promoted.
    let shards = shards.max(2);
    let mut cluster =
        Cluster::build(ClusterConfig::for_scenario(sc, shards)).expect("cluster build");
    // One barrier at the midpoint of the run.
    let first = sc.requests - sc.requests / 2;
    let segments = [first, sc.requests - first];
    let mut policy = MigrationPolicy::default();
    let mut chaos_spec = sc.chaos.clone();
    let highlight = match trigger {
        MigrateTrigger::Planned => {
            let (from, _) = cluster.placement(tenant);
            policy.moves.push(PlannedMove {
                segment: 0,
                global: tenant,
                to_shard: (from + 1) % shards,
            });
            format!("planned move of tenant {tenant} off shard {from}")
        }
        MigrateTrigger::Epc => {
            // Always below the water line: every shard evacuates its
            // largest tenant at the barrier.
            policy.epc_low_water = Some(usize::MAX);
            format!("EPC-pressure evacuation (watching tenant {tenant})")
        }
        MigrateTrigger::Chaos(period) => {
            let term = format!("migrate:{period}");
            chaos_spec = Some(match chaos_spec.take() {
                Some(existing) => format!("{existing}+{term}"),
                None => term.clone(),
            });
            format!("chaos-injected requests ({term}, watching tenant {tenant})")
        }
    };
    banner(&format!(
        "ne-load --migrate: {} tenants x {} services, {} requests per pair ({}+{} around the \
         barrier), seed {}, shards {}, {}{}",
        sc.tenants,
        sc.services,
        sc.requests,
        segments[0],
        segments[1],
        sc.seed,
        shards,
        highlight,
        chaos_spec
            .as_deref()
            .map(|c| format!(", chaos {c}"))
            .unwrap_or_default()
    ));
    let (accepted, timeline, log) = cluster
        .run_segmented_closed_loop(&segments, chaos_spec.as_deref(), &policy, sc.sampler())
        .unwrap_or_else(|e| cli_error(&format!("--migrate run failed: {e}")));
    let (hr, _) = cluster
        .verify_run(accepted)
        .unwrap_or_else(|e| panic!("--migrate: {e}"));
    println!("\nsegmented closed-loop: {accepted} requests served");
    tenant_table(&hr, shards).print();
    println!("\nmigrations: {}", log.len());
    for r in &log {
        println!("{}", migration_line(r));
    }
    for r in &log {
        let (shard, _) = cluster.placement(r.global);
        println!(
            "  tenant {} now on shard {} (seal floor {})",
            r.global,
            shard,
            cluster.seal_floor(r.global)
        );
    }
    // The headline invariant, held by `verify_run` above: every accepted
    // request terminated with a reply or an explicit counted shed —
    // migration dropped nothing.
    println!("dropped={}", accepted - hr.completed() - hr.shed_requests());
    write_exports(
        &cluster.tenants_export(),
        timeline.as_ref(),
        "ne-load-migrate",
    );
}

/// Writes the run's `--tenants-out` export and its `--timeline-out`
/// timeline under `label`.
fn write_exports(tenants: &str, timeline: Option<&Timeline>, label: &str) {
    if let Some(path) = flag_str("--tenants-out") {
        write_or_exit("tenants export", Path::new(&path), tenants);
        println!("\ntenants export: wrote {path}");
    }
    if let (Some(t), Some(path)) = (timeline, flag_str("--timeline-out")) {
        write_or_exit(
            "timeline export",
            Path::new(&path),
            &ne_obs::to_jsonl(t, label),
        );
        println!("\ntimeline export: wrote {path}");
    }
}

/// Wire-client mode (`--connect`): replay the seeded streams against a
/// running `ne-serve` front door and print the deterministic report.
fn run_connect(addr: String, sc: &Scenario) {
    let mut cfg = ne_serve::ClientConfig::new(addr, sc, std::env::args().any(|a| a == "--tls"));
    if let Some(ms) = flag_u64("--read-timeout-ms") {
        cfg.read_timeout = std::time::Duration::from_millis(ms);
    }
    let report = ne_serve::LoadClient::new(cfg).run();
    print!("{}", report.render());
    if report.pairs.iter().any(|p| p.error.is_some()) {
        std::process::exit(1);
    }
}

/// The scenario flags both modes read.
const SCENARIO: [&str; 5] = ["--tenants", "--services", "--requests", "--seed", "--mode"];

fn main() {
    // Each mode refuses the flags only the other mode reads.
    if let Some(addr) = flag_str("--connect") {
        reject_unknown_flags(
            &[&SCENARIO[..], &["--connect", "--tls", "--read-timeout-ms"]].concat(),
        );
        run_connect(addr, &scenario_args(false).scenario);
        return;
    }
    reject_unknown_flags(
        &[
            &SCENARIO[..],
            &[
                "--shards",
                "--chaos",
                "--migrate",
                "--window",
                "--metrics-out",
                "--trace-out",
                "--tenants-out",
                "--timeline-out",
            ],
        ]
        .concat(),
    );
    let args = scenario_args(true);
    let (sc, shards) = (&args.scenario, args.shards);
    if let Some(spec) = flag_str("--migrate") {
        run_migrate(&spec, sc, shards);
        return;
    }
    banner(&format!(
        // The host always reserves a switchless worker core.
        "ne-load: {} tenants x {} services, {} requests per pair, seed {}, switchless true{}{}",
        sc.tenants,
        sc.services,
        sc.requests,
        sc.seed,
        // Only announced when actually sharded, so one-shard stdout stays
        // byte-identical to the pre-cluster harness.
        if shards > 1 {
            format!(", shards {shards}")
        } else {
            String::new()
        },
        sc.chaos
            .as_deref()
            .map(|c| format!(", chaos {c}"))
            .unwrap_or_default()
    ));
    let mut report = MetricsReport::new("ne-load");
    let mut bundles = None;
    let mut exports = None;
    for &mode in &args.modes {
        // The traced run: the closed loop has the cleanest span structure
        // (no overlapping idle-advance from future arrivals).
        let traced = want_trace() && mode == ne_cluster::Mode::Closed;
        let (export, b, timeline) = run(
            &Scenario { mode, ..sc.clone() },
            shards,
            &mut report,
            traced,
        );
        if traced {
            bundles = b;
        }
        exports = Some((export, timeline));
    }
    write_shard_traces(bundles.as_deref().unwrap_or(&[]));
    // The exports describe the *last* run, whose mode the scenario holds.
    let (export, timeline) = exports.expect("every --mode runs at least one scenario");
    write_exports(
        &export,
        timeline.as_ref(),
        &format!("ne-load-{}", sc.mode.name()),
    );
    report.finish();
}

#[cfg(test)]
mod tests {
    use super::{parse_migrate, MigrateTrigger};
    use ne_sgx::fault::FaultPlan;

    #[test]
    fn migrate_grammar_parses_every_trigger() {
        assert_eq!(
            parse_migrate("0@planned", 2),
            Ok((0, MigrateTrigger::Planned))
        );
        assert_eq!(parse_migrate("1@epc", 2), Ok((1, MigrateTrigger::Epc)));
        assert_eq!(
            parse_migrate("0@chaos", 2),
            Ok((0, MigrateTrigger::Chaos(5)))
        );
        assert_eq!(
            parse_migrate("0@chaos:3", 2),
            Ok((0, MigrateTrigger::Chaos(3)))
        );
    }

    /// `chaos:0` is a trigger that can never fire; it must be a typed
    /// parse error, not a silently-dead migration request.
    #[test]
    fn migrate_grammar_rejects_zero_period() {
        let err = parse_migrate("0@chaos:0", 2).unwrap_err();
        assert!(err.contains("zero period"), "got: {err}");
    }

    #[test]
    fn migrate_grammar_rejects_malformed_specs() {
        for spec in [
            "",
            "0",
            "@planned",
            "x@planned",
            "0@",
            "0@chaos:x",
            "0@epc:1",
        ] {
            assert!(parse_migrate(spec, 2).is_err(), "accepted '{spec}'");
        }
        // Out-of-range tenants are named in the error, not asserted on.
        let err = parse_migrate("2@planned", 2).unwrap_err();
        assert!(err.contains("2 tenants"), "got: {err}");
    }

    /// The `--chaos` grammar shares the zero-period rule: `aex:0` must
    /// stay a typed error too (the authoritative test lives with
    /// `FaultPlan`; this pins the CLI-visible contract).
    #[test]
    fn chaos_grammar_rejects_zero_period() {
        let err = FaultPlan::parse("aex:0", 1).unwrap_err();
        assert!(err.contains("zero period"), "got: {err}");
    }
}
