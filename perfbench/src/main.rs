//! Host-time benchmark of the nested-enclave serving stack.
//!
//! ```text
//! perfbench --workload <serve-mix|echo-bulk|wire-tls> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! A run repeats sessions of one workload for `--seconds` of wall time.
//! Each session builds the program from scratch, sets it up, serves a
//! fixed amount of seeded work, and checks every output; every session of
//! a run replays the same scenario, so their simulated exports and reply
//! digests must be byte-identical, and must match the digest recorded for
//! the seed in `expected.tsv`. Every run also replays the canonical
//! scenario (seed 0) once and checks it against its recorded digest, so
//! a change in simulated outputs fails a run whatever its seed. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! sessions and reports per-layer self times from the traced ones, plus
//! the tracing overhead. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod echo_bulk;
mod serve_mix;
mod session;
mod stats;
mod trace;
mod wire_tls;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use session::{Session, Setup, SimCounts};
use stats::{median, peak_rss_mib, percentile, pin_to_one_cpu, quantile, reset_peak_rss, Tally};
use trace::{absorb, self_times, Span};

/// The workloads, by the names `--workload` takes.
const WORKLOADS: [&str; 3] = ["serve-mix", "echo-bulk", "wire-tls"];

/// Sessions every run makes at least, so `setup_s` is a median of
/// several set-ups and a traced run has both kinds of session.
const MIN_SESSIONS: usize = 5;

/// Wall-clock budget after which a run stops starting sessions, so it
/// exits well inside its time limit on a slow or overloaded host.
const MAX_RUN_SECONDS: f64 = 120.0;

/// Latency samples a block of consecutive untraced sessions gathers
/// before its throughput and percentiles are taken (see [`Block`]).
const BLOCK_SAMPLES: usize = 1000;

/// Sessions a run makes at most. Their summaries are allocated up front:
/// growing that list mid-run moved the allocator's heap enough to raise
/// the peak resident memory of every later session by 8 MiB.
const MAX_SESSIONS: usize = 8192;

/// Bound on `bench.unattributed_pct`: the share of the measured window
/// that no layer span covers (loop glue and the clock reads themselves).
const UNATTRIBUTED_EPSILON_PCT: f64 = 3.0;

/// Digests recorded for seeds `0..` of every workload at this commit.
const EXPECTED: &str = include_str!("../expected.tsv");

/// Seed of the scenario every run replays once and checks against
/// `expected.tsv`, and whose simulated counts (`sim.*` and the other
/// deterministic per-layer counts) every traced run reports.
const CANONICAL_SEED: u64 = 0;

/// Where a traced run writes its spans, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// Per-layer metrics, in report order, with their units.
const PER_LAYER: [(&str, &str); 45] = [
    ("host.submit_ns_per_req", "ns"),
    ("host.sched_steals", "count"),
    ("host.step_ns_per_req", "ns"),
    ("host.step_ns_p99", "ns"),
    ("host.step_ns.echo", "ns"),
    ("host.step_ns.db", "ns"),
    ("host.step_ns.svm", "ns"),
    ("host.step_ns_per_mcycle", "ns/Mcycle"),
    ("host.export_ms", "ms"),
    ("obs.poll_ns_per_req", "ns"),
    ("obs.export_ms", "ms"),
    ("tls.seal_ns_per_msg", "ns"),
    ("tls.open_ns_per_msg", "ns"),
    ("core.ecall_ns_per_msg", "ns"),
    ("core.untrusted_ns_per_msg", "ns"),
    ("core.ecall_ns_per_mcycle", "ns/Mcycle"),
    ("serve.handshake_ms", "ms"),
    ("serve.send_ns_per_req", "ns"),
    ("serve.recv_ns_per_req", "ns"),
    ("serve.server_ns_per_req", "ns"),
    ("serve.wire_bytes_per_req", "bytes"),
    ("setup.build_s", "s"),
    ("setup.warmup_s", "s"),
    ("bench.gen_ns_per_req", "ns"),
    ("bench.check_ns_per_req", "ns"),
    ("bench.unattributed_pct", "%"),
    ("bench.latency_samples", "count"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
    ("sim.cycles_per_req.transition", "cycles"),
    ("sim.cycles_per_req.tlb_walk", "cycles"),
    ("sim.cycles_per_req.validation", "cycles"),
    ("sim.cycles_per_req.mee_crypto", "cycles"),
    ("sim.cycles_per_req.paging", "cycles"),
    ("sim.cycles_per_req.lifecycle", "cycles"),
    ("sim.cycles_per_req.memory", "cycles"),
    ("sim.cycles_per_req.app_compute", "cycles"),
    ("sim.transitions_per_req", "count"),
    ("sim.switchless_per_req", "count"),
    ("sim.tlb_misses_per_req", "count"),
    ("sim.llc_miss_ratio", "ratio"),
    ("sim.mee_lines_per_req", "count"),
    ("sim.ewb_pages", "count"),
    ("sim.cycles_per_req", "cycles"),
    ("bench.sessions", "count"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Print `expected.tsv` lines for this many seeds from `seed` on,
    /// instead of measuring.
    record: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace", "--record"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}; one of {}", WORKLOADS.join(", ")))?;
    let num = |k: &str, v: &str| v.parse::<u64>().map_err(|e| format!("{k} {v}: {e}"));
    let seconds = num("--seconds", get("--seconds")?)?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range 1..=3600"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: num("--seed", get("--seed")?)?,
        seconds: seconds as f64,
        trace,
        record: flags
            .get("--record")
            .map(|v| num("--record", v))
            .transpose()?,
    })
}

fn run_session(workload: &str, seed: u64, traced: bool, epoch: Instant) -> Result<Session, String> {
    match workload {
        "serve-mix" => serve_mix::session(seed, traced, epoch),
        "echo-bulk" => echo_bulk::session(seed, traced, epoch),
        "wire-tls" => wire_tls::session(seed, traced, epoch),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Checks a session digest against the one `expected.tsv` records for
/// the seed; `Ok(false)` when the table does not record the seed.
fn check_digest(workload: &str, seed: u64, digest: &str) -> Result<bool, String> {
    let key = format!("{workload}\t{seed}\t");
    match EXPECTED.lines().find_map(|l| l.strip_prefix(&key)) {
        None => Ok(false),
        Some(want) if want == digest => Ok(true),
        Some(want) => Err(format!(
            "outputs of seed {seed} differ from the digest recorded in expected.tsv: \
             {digest} != {want}"
        )),
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a run keeps of a session once its latencies went into a block,
/// so the run's memory does not grow with the number of sessions it fits
/// in.
struct Summary {
    traced: bool,
    setup: Setup,
    rps: f64,
    samples: usize,
    peak_rss_mib: f64,
    completed: u64,
    sim_cycles: u64,
    tally: Tally,
    counts: Vec<(&'static str, f64)>,
    digest: String,
    problems: Vec<String>,
}

impl Summary {
    fn of(s: &mut Session, peak_rss_mib: f64) -> Result<Summary, String> {
        Ok(Summary {
            traced: s.traced,
            setup: s.setup,
            rps: s.completed as f64 / (s.window_ns.max(1) as f64 / 1e9),
            samples: s.latencies_ns.len(),
            peak_rss_mib,
            completed: s.completed,
            sim_cycles: SimCounts::from_metrics_json(&s.metrics_json)?.total_cycles,
            tally: s.tally,
            counts: std::mem::take(&mut s.counts),
            digest: std::mem::take(&mut s.digest),
            problems: std::mem::take(&mut s.problems),
        })
    }
}

/// Consecutive untraced sessions pooled until they hold
/// [`BLOCK_SAMPLES`] latencies: the unit over which throughput and
/// latency percentiles are taken. A block spans a fraction of a second,
/// short against the host's speed phases, and holds enough samples for a
/// p99 with ten beyond it whatever a session's length.
#[derive(Default)]
struct Block {
    window_ns: u64,
    completed: u64,
    latencies_ns: Vec<u64>,
}

/// What a run keeps of a closed block.
struct BlockFigures {
    rps: f64,
    p50_us: f64,
    p99_us: f64,
}

impl Block {
    fn add(&mut self, s: &Session) {
        self.window_ns += s.window_ns;
        self.completed += s.completed;
        self.latencies_ns.extend_from_slice(&s.latencies_ns);
    }

    fn is_full(&self) -> bool {
        self.latencies_ns.len() >= BLOCK_SAMPLES
    }

    /// The block's figures; empties it for reuse.
    fn close(&mut self) -> BlockFigures {
        self.latencies_ns.sort_unstable();
        let pct = |q| percentile(&self.latencies_ns, q).unwrap_or(0) as f64 / 1e3;
        let figures = BlockFigures {
            rps: self.completed as f64 / (self.window_ns.max(1) as f64 / 1e9),
            p50_us: pct(0.50),
            p99_us: pct(0.99),
        };
        self.window_ns = 0;
        self.completed = 0;
        self.latencies_ns.clear();
        figures
    }
}

/// The per-layer count `name` of a session, if it measured one.
fn count_of(counts: &[(&str, f64)], name: &str) -> Option<f64> {
    counts.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
}

/// Median over sessions of one per-session figure.
fn median_of<'a>(
    sessions: impl IntoIterator<Item = &'a Summary>,
    figure: impl Fn(&Summary) -> f64,
) -> f64 {
    median(&mut sessions.into_iter().map(figure).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The `q` quantile of one figure over sessions or blocks.
fn quantile_of<'a, T: 'a>(
    items: impl IntoIterator<Item = &'a T>,
    q: f64,
    figure: impl Fn(&T) -> f64,
) -> f64 {
    quantile(&mut items.into_iter().map(figure).collect::<Vec<_>>(), q).unwrap_or(0.0)
}

fn end_to_end(sessions: &[Summary], blocks: &[BlockFigures], notes: &mut String) -> Vec<Metric> {
    let untraced = || sessions.iter().filter(|s| !s.traced);
    let _ = writeln!(
        notes,
        "latency samples: {} in {} sessions, {} blocks",
        untraced().map(|s| s.samples).sum::<usize>(),
        untraced().count(),
        blocks.len(),
    );
    let setup = |q| quantile_of(sessions, q, |s| s.setup.total_s());
    let _ = writeln!(
        notes,
        "setup_s over sessions: min {:.6} median {:.6} q75 {:.6}",
        setup(0.0),
        setup(0.5),
        setup(0.75),
    );
    // The slow quartile of blocks and of set-ups. The host this was tuned
    // on is shared and switches between a slow and a fast speed (about
    // 1.6x apart) for seconds to minutes at a time, with stalls of a few
    // ms besides; most runs hold both speeds, in shares that vary from run
    // to run. A median or a pooled figure moves with the share; the slow
    // quartile stays on the slow speed unless three quarters of a run fall
    // into the fast one, and a stall must hit a quarter of the blocks to
    // move it.
    vec![
        metric(
            "throughput_rps",
            quantile_of(blocks, 0.25, |b| b.rps),
            "1/s",
        ),
        metric(
            "latency_p50_us",
            quantile_of(blocks, 0.75, |b| b.p50_us),
            "us",
        ),
        metric(
            "latency_p99_us",
            quantile_of(blocks, 0.75, |b| b.p99_us),
            "us",
        ),
        metric("setup_s", setup(0.75), "s"),
        metric(
            "peak_rss_mib",
            median_of(untraced(), |s| s.peak_rss_mib),
            "MiB",
        ),
    ]
}

/// Per-span-name totals over the traced sessions.
#[derive(Default)]
struct Agg {
    count: u64,
    self_ns: u64,
}

fn per_layer(
    sessions: &[Summary],
    canonical: &Session,
    spans: &[Span],
    selfs: &[u64],
    problems: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let traced = || sessions.iter().filter(|s| s.traced);
    let done = traced().map(|s| s.completed).sum::<u64>().max(1) as f64;
    let sim_cycles = traced().map(|s| s.sim_cycles).sum::<u64>().max(1) as f64;
    let mut agg: BTreeMap<&str, Agg> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let a = agg.entry(s.name).or_default();
        a.count += 1;
        a.self_ns += own;
    }
    let self_of = |prefix: &str| -> f64 {
        agg.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, a)| a.self_ns)
            .sum::<u64>() as f64
    };
    let mean_self = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.self_ns as f64 / a.count.max(1) as f64)
    };
    let per_req = |prefix: &str| self_of(prefix) / done;
    let per_mcycle = |prefix: &str| self_of(prefix) / (sim_cycles / 1e6);
    let mut step_ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with("host.step.") && s.name != "host.step.idle")
        .map(Span::duration)
        .collect();
    step_ns.sort_unstable();

    // Closure: the roots' own self time, the part of the measured windows
    // no layer span covers, must stay within its epsilon. (Spans nest on
    // a per-thread stack, so all self times add up to the roots'
    // durations by construction.)
    let (root_ns, root_self): (u64, u64) = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.parent.is_none())
        .fold((0, 0), |(d, o), (s, own)| (d + s.duration(), o + own));
    debug_assert_eq!(selfs.iter().sum::<u64>(), root_ns);
    let unattributed = 100.0 * root_self as f64 / root_ns.max(1) as f64;
    if unattributed > UNATTRIBUTED_EPSILON_PCT {
        problems.push(format!(
            "bench.unattributed_pct {unattributed:.3} exceeds its epsilon {UNATTRIBUTED_EPSILON_PCT}"
        ));
    }

    let mean_count = |name: &str| {
        let v: Vec<f64> = traced().filter_map(|s| count_of(&s.counts, name)).collect();
        v.iter().fold(0.0, |a, b| a + b) / v.len().max(1) as f64
    };
    let mut tally = Tally::default();
    sessions.iter().for_each(|s| tally.add(s.tally));
    let sim = SimCounts::from_metrics_json(&canonical.metrics_json)?;
    let reqs = canonical.completed.max(1) as f64;
    let canonical_count = |name: &str| count_of(&canonical.counts, name).unwrap_or(0.0);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    set("host.submit_ns_per_req", per_req("host.submit"));
    set("host.sched_steals", canonical_count("host.sched_steals"));
    set("host.step_ns_per_req", per_req("host.step."));
    set(
        "host.step_ns_p99",
        percentile(&step_ns, 0.99).unwrap_or(0) as f64,
    );
    set("host.step_ns.echo", mean_self("host.step.echo"));
    set("host.step_ns.db", mean_self("host.step.db"));
    set("host.step_ns.svm", mean_self("host.step.svm"));
    set("host.step_ns_per_mcycle", per_mcycle("host.step."));
    set("host.export_ms", mean_self("host.export") / 1e6);
    set("obs.poll_ns_per_req", per_req("obs.poll"));
    set("obs.export_ms", mean_self("obs.export") / 1e6);
    set("tls.seal_ns_per_msg", per_req("tls.seal"));
    set("tls.open_ns_per_msg", per_req("tls.open"));
    set("core.ecall_ns_per_msg", per_req("core.ecall"));
    set("core.untrusted_ns_per_msg", per_req("core.untrusted"));
    set("core.ecall_ns_per_mcycle", per_mcycle("core.ecall"));
    set("serve.handshake_ms", mean_count("serve.handshake_ms"));
    set("serve.send_ns_per_req", per_req("serve.send"));
    set("serve.recv_ns_per_req", per_req("serve.recv"));
    set(
        "serve.server_ns_per_req",
        mean_count("serve.server_ns_per_req"),
    );
    set(
        "serve.wire_bytes_per_req",
        canonical_count("serve.wire_bytes_per_req"),
    );
    set("setup.build_s", median_of(sessions, |s| s.setup.build_s));
    set("setup.warmup_s", median_of(sessions, |s| s.setup.warmup_s));
    set("bench.gen_ns_per_req", per_req("bench.gen"));
    set("bench.check_ns_per_req", per_req("bench.check"));
    set("bench.unattributed_pct", unattributed);
    set(
        "bench.latency_samples",
        sessions.iter().map(|s| s.samples).sum::<usize>() as f64,
    );
    set(
        "trace.overhead_pct",
        100.0
            * (1.0
                - median_of(traced(), |s| s.rps)
                    / median_of(sessions.iter().filter(|s| !s.traced), |s| s.rps)),
    );
    set("error_rate", tally.failure_share());
    for (cat, cycles) in &sim.by_category {
        set(&format!("sim.cycles_per_req.{cat}"), *cycles as f64 / reqs);
    }
    set("sim.cycles_per_req", sim.total_cycles as f64 / reqs);
    set("sim.transitions_per_req", sim.transitions as f64 / reqs);
    set("sim.switchless_per_req", sim.switchless as f64 / reqs);
    set("sim.tlb_misses_per_req", sim.tlb_misses as f64 / reqs);
    set(
        "sim.llc_miss_ratio",
        sim.llc_misses as f64 / (sim.llc_hits + sim.llc_misses).max(1) as f64,
    );
    set("sim.mee_lines_per_req", sim.mee_lines as f64 / reqs);
    set("sim.ewb_pages", sim.ewb_pages as f64);
    set("bench.sessions", sessions.len() as f64);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .remove(name)
                .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
            Ok(metric(name, value, unit))
        })
        .collect()
}

fn render_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn record(args: &Args, count: u64) -> Result<(), String> {
    let epoch = Instant::now();
    for seed in args.seed..args.seed + count {
        let s = run_session(args.workload, seed, false, epoch)?;
        if !s.problems.is_empty() {
            return Err(format!("seed {seed}: {}", s.problems.join("; ")));
        }
        println!("{}\t{seed}\t{}", args.workload, s.digest);
    }
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    // One CPU for the whole run. On a small virtual machine a wakeup
    // across CPUs can stall for milliseconds, which on `wire-tls` buried
    // the program's own latency (per-session p99 ranged 0.4-6 ms unpinned,
    // 0.3-0.5 ms pinned); single-threaded workloads lose nothing by it.
    // Without the pin or the peak reset the figures are noisier or cover
    // more than one session, but still correct, so neither is fatal.
    let cpu = pin_to_one_cpu().map_or_else(
        |e| {
            eprintln!("perfbench: running unpinned: {e}");
            "unpinned".to_string()
        },
        |c| c.to_string(),
    );
    let epoch = Instant::now();
    let mut sessions: Vec<Summary> = Vec::with_capacity(MAX_SESSIONS);
    let mut block = Block::default();
    let mut blocks: Vec<BlockFigures> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    while (sessions.len() < MIN_SESSIONS || epoch.elapsed().as_secs_f64() < args.seconds)
        && epoch.elapsed().as_secs_f64() < MAX_RUN_SECONDS
        && sessions.len() < MAX_SESSIONS
    {
        let traced = args.trace && sessions.len() % 2 == 1;
        if let Err(e) = reset_peak_rss() {
            eprintln!("perfbench: peak RSS not reset between sessions: {e}");
        }
        let mut s = run_session(args.workload, args.seed, traced, epoch)?;
        let peak = peak_rss_mib().ok_or("peak RSS unreadable")?;
        s.traced = traced;
        if !traced {
            block.add(&s);
            if block.is_full() {
                blocks.push(block.close());
            }
        }
        absorb(&mut spans, std::mem::take(&mut s.spans));
        sessions.push(Summary::of(&mut s, peak)?);
    }
    if sessions.len() < MIN_SESSIONS {
        return Err(format!(
            "only {} sessions fit in {MAX_RUN_SECONDS} s",
            sessions.len()
        ));
    }
    // A trailing part-block counts only when no block filled up.
    if blocks.is_empty() {
        blocks.push(block.close());
    }

    let mut problems: Vec<String> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        problems.extend(s.problems.iter().map(|p| format!("session {i}: {p}")));
        if s.digest != sessions[0].digest {
            problems.push(format!(
                "session {i}: outputs differ from session 0 under the same seed"
            ));
        }
    }
    // The canonical scenario, checked in every run: a seed that
    // expected.tsv does not record is checked only for agreement between
    // its own sessions, so a change to what the program computes must
    // still fail through this one.
    let canonical = run_session(args.workload, CANONICAL_SEED, false, epoch)?;
    problems.extend(
        canonical
            .problems
            .iter()
            .map(|p| format!("canonical session: {p}")),
    );
    match check_digest(args.workload, CANONICAL_SEED, &canonical.digest) {
        Ok(true) => {}
        Ok(false) => problems.push(format!("expected.tsv lacks seed {CANONICAL_SEED}")),
        Err(e) => problems.push(e),
    }
    let recorded = match check_digest(args.workload, args.seed, &sessions[0].digest) {
        Ok(recorded) => recorded,
        Err(e) => {
            problems.push(e);
            true
        }
    };

    let mut notes = String::new();
    let _ = writeln!(
        notes,
        "workload {} seed {} cpu {cpu} sessions {} digest {}{}",
        args.workload,
        args.seed,
        sessions.len(),
        sessions[0].digest,
        if recorded {
            ""
        } else {
            " (seed not in expected.tsv: checked against its own sessions and the canonical seed)"
        }
    );
    let mut tally = Tally::default();
    sessions.iter().for_each(|s| tally.add(s.tally));
    let metrics = if args.trace {
        let selfs = self_times(&spans);
        let path = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.workload));
        trace::write_tsv(&path, &spans, &selfs).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(
            notes,
            "spans: {} written to {}",
            spans.len(),
            path.display()
        );
        // The simulated counts are the canonical scenario's, which every
        // run reports whatever its seed, so they compare across runs.
        per_layer(&sessions, &canonical, &spans, &selfs, &mut problems)?
    } else {
        let m = end_to_end(&sessions, &blocks, &mut notes);
        let _ = writeln!(notes, "error_rate {} (ratio)", tally.failure_share());
        m
    };
    print!("{notes}");
    for m in &metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", render_json(correct, tally, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.record {
        Some(count) => record(&args, count).map(|()| true),
        None => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(window_ns: u64, latencies_ns: Vec<u64>) -> Session {
        Session {
            window_ns,
            completed: latencies_ns.len() as u64,
            latencies_ns,
            ..Session::default()
        }
    }

    #[test]
    fn a_block_pools_sessions_until_full_and_empties_on_close() {
        let mut b = Block::default();
        b.add(&session(1_000_000, (1..=600).map(|v| v * 1000).collect()));
        assert!(!b.is_full());
        b.add(&session(
            3_000_000,
            (601..=1000).map(|v| v * 1000).collect(),
        ));
        assert!(b.is_full());
        let f = b.close();
        // 1 000 requests over 4 ms of summed windows.
        assert_eq!(f.rps, 250_000.0);
        assert_eq!(f.p50_us, 500.0);
        assert_eq!(f.p99_us, 990.0);
        assert!(!b.is_full());
        let empty = b.close();
        assert_eq!((empty.rps, empty.p50_us, empty.p99_us), (0.0, 0.0, 0.0));
    }
}
