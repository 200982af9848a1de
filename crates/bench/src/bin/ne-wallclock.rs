//! Wall-clock harness for the simulator's hot paths.
//!
//! Runs each scenario twice — once on the optimized pipelines (the
//! default) and once with every optimization swapped for its naive
//! reference form (`HwConfig::reference_path` for the memory pipeline,
//! [`ne_crypto::set_reference_impl`] for the crypto primitives) — and
//! reports host wall-clock for both. The two runs must be
//! architecturally indistinguishable: the harness hard-fails if cycle
//! totals or the full metrics exports differ by a byte, so a speedup
//! here is evidence of faster simulation, never of changed simulation.
//!
//! Scenarios:
//!
//! * `closed-loop` — the multi-tenant hosting server under think-time-
//!   free closed-loop load (the `ne-load` shape): crypto-heavy services,
//!   scheduling, admission control.
//! * `echo` — the nested SSL echo server (the Fig. 7 shape): bulk
//!   record traffic through two enclave levels.
//!
//! With `--shards N` (N > 1) a third scenario runs: `shard-scale`, the
//! same closed-loop load driven through the `ne-cluster` shard layer at
//! one shard and at N shards (one OS thread per shard). The two shard
//! counts must produce byte-identical `ne-tenants/v1` per-tenant exports
//! — the shard-count-invariance oracle — and the table reports the
//! N-shard wall time in the "Optimized" column against the one-shard
//! wall time in "Reference", so the speedup column is the parallel
//! scaling factor. `--min-shard-speedup <x>` gates on it, but only on
//! hosts with at least 4 CPUs (`std::thread::available_parallelism`);
//! on smaller machines the gate is skipped with a note, since threads
//! cannot beat one core with CPU-bound work.
//!
//! Flags: `--requests <n>` / `--messages <n>` scale the scenarios,
//! `--repeat <n>` takes the best of n timings per path (default 1),
//! `--full` is a bigger preset, `--min-speedup <x>` exits nonzero if
//! any scenario's speedup lands below `x` (for local verification;
//! wall-clock on shared CI runners is too noisy to gate on),
//! `--shards <n>` / `--min-shard-speedup <x>` as above, and
//! `--bench-out <path>` writes an `ne-bench/v1` document whose leaves
//! are the deterministic cycle totals plus the (noisy) wall times and
//! the optimized/reference ratio — compare against
//! `results/baselines/BENCH_wallclock.json` (or
//! `BENCH_wallclock_shards.json` for `--shards` runs) with
//! `ne-bench-compare --advisory` and a generous threshold.
//!
//! `--timeline-out <path>` runs the closed-loop scenario once more on
//! each path with an `ne-obs` sampler attached and writes the
//! `ne-obs/v1` windowed timeline — after hard-failing unless the
//! optimized and reference timelines are byte-identical, extending the
//! differential oracle to the observability plane.

use std::time::Instant;

use ne_bench::report::{
    banner, bench_out_path, f2, flag_str, flag_u64, timeline_out_path, Table, BENCH_SCHEMA,
};
use ne_cluster::{drive, Cluster, ClusterConfig};
use ne_host::{HostConfig, HostServer, RequestFactory, ServiceKind, TenantSpec};
use ne_obs::{Sampler, SamplerConfig};
use ne_tls::echo::{run_echo, EchoConfig};

const TENANTS: usize = 4;
const SEED: u64 = 7;

/// One scenario's paired measurement. `total_cycles` and `metrics_json`
/// come from the optimized run after being checked equal to the
/// reference run's.
struct Measurement {
    label: &'static str,
    wall_ms_opt: f64,
    wall_ms_ref: f64,
    total_cycles: u64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.wall_ms_ref / self.wall_ms_opt.max(1e-9)
    }
}

/// Times `run` on both paths, best of `repeat`, checking that the
/// architectural outputs — total cycles and the full metrics export —
/// are byte-identical across paths and across repeats.
fn measure(label: &'static str, repeat: usize, run: impl Fn(bool) -> (u64, String)) -> Measurement {
    let mut outputs: Vec<(bool, u64, String)> = Vec::new();
    let mut best = [f64::INFINITY; 2];
    for reference in [false, true] {
        for _ in 0..repeat {
            ne_crypto::set_reference_impl(reference);
            let start = Instant::now();
            let (cycles, metrics) = run(reference);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            ne_crypto::set_reference_impl(false);
            best[reference as usize] = best[reference as usize].min(ms);
            outputs.push((reference, cycles, metrics));
        }
    }
    let (_, cycles0, metrics0) = &outputs[0];
    for (reference, cycles, metrics) in &outputs[1..] {
        assert_eq!(
            cycles0, cycles,
            "{label}: cycle totals diverged (reference={reference})"
        );
        assert_eq!(
            metrics0, metrics,
            "{label}: metrics exports diverged (reference={reference})"
        );
    }
    Measurement {
        label,
        wall_ms_opt: best[0],
        wall_ms_ref: best[1],
        total_cycles: *cycles0,
    }
}

/// The `ne-load` closed-loop shape: every (tenant, service) client keeps
/// exactly one request in flight until its quota is served.
fn closed_loop(requests: usize, reference: bool) -> (u64, String) {
    let (cycles, metrics, _) = closed_loop_inner(requests, reference, None);
    (cycles, metrics)
}

/// The closed-loop scenario with an `ne-obs` sampler riding along; the
/// sampler only reads, so the simulated run is byte-identical to the
/// unobserved one. Returns the `ne-obs/v1` export.
fn closed_loop_timeline(requests: usize, reference: bool) -> String {
    let (_, _, timeline) = closed_loop_inner(requests, reference, Some(SamplerConfig::default()));
    ne_obs::to_jsonl(
        &timeline.expect("sampled run yields a timeline"),
        "ne-wallclock-closed-loop",
    )
}

fn closed_loop_inner(
    requests: usize,
    reference: bool,
    obs: Option<SamplerConfig>,
) -> (u64, String, Option<ne_obs::Timeline>) {
    let specs: Vec<TenantSpec> = (0..TENANTS)
        .map(|i| {
            TenantSpec::new(
                &format!("tenant{i}"),
                (TENANTS - i) as u8,
                ServiceKind::ALL.to_vec(),
            )
        })
        .collect();
    let mut cfg = HostConfig::new(specs);
    cfg.seed = SEED;
    cfg.hw.reference_path = reference;
    let mut server = HostServer::build(cfg).expect("host build");
    let mut factories: Vec<Vec<RequestFactory>> = (0..TENANTS)
        .map(|t| {
            ServiceKind::ALL
                .iter()
                .map(|&k| RequestFactory::new(k, t, SEED))
                .collect()
        })
        .collect();
    // Provisioning pass (the ne-load warmup): serve each service's setup
    // requests so the measured loop sees steady-state work — real
    // sealed-state traffic, not cold-start no-ops.
    for (t, tenant_factories) in factories.iter_mut().enumerate() {
        for (s, factory) in tenant_factories.iter_mut().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                let payload = factory.next_request();
                assert!(server.submit(t, s, server.now(), payload).is_accepted());
                server.step().expect("warmup step");
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
    let mut sampler = obs.map(|cfg| Sampler::new(&server, (0..TENANTS).collect(), cfg));
    let mut remaining = vec![vec![requests; ServiceKind::ALL.len()]; TENANTS];
    for (t, tenant_factories) in factories.iter_mut().enumerate() {
        for (s, factory) in tenant_factories.iter_mut().enumerate() {
            remaining[t][s] -= 1;
            let payload = factory.next_request();
            assert!(server.submit(t, s, 0, payload).is_accepted());
        }
    }
    while server.pending() > 0 {
        let stepped = server.step().expect("closed-loop step");
        if let Some(sampler) = &mut sampler {
            sampler.poll(&server);
        }
        let Some(c) = stepped else {
            continue;
        };
        if remaining[c.tenant][c.service] > 0 {
            remaining[c.tenant][c.service] -= 1;
            let payload = factories[c.tenant][c.service].next_request();
            if !server
                .submit(c.tenant, c.service, c.end, payload)
                .is_accepted()
            {
                // Shed under pressure: this client stops.
                remaining[c.tenant][c.service] = 0;
            }
        }
    }
    server.drain().expect("drain");
    let m = server.app.machine.metrics();
    (
        m.total_cycles,
        m.to_json(),
        sampler.map(|s| s.finish(&server)),
    )
}

/// One cluster closed-loop run at `shards` shards: merged total cycles,
/// merged metrics JSON, and the `ne-tenants/v1` per-tenant export.
fn cluster_closed_loop(requests: usize, shards: usize) -> (u64, String, String) {
    let mut cfg = ClusterConfig::new(
        drive::standard_specs(TENANTS, ServiceKind::ALL.len()),
        shards,
    );
    cfg.host.seed = SEED;
    let mut cluster = Cluster::build(cfg).expect("cluster build");
    cluster
        .run_closed_loop(requests, None)
        .expect("cluster closed loop");
    let m = cluster.merged_metrics().expect("metrics merge");
    m.check().expect("merged metrics identities");
    (m.total_cycles, m.to_json(), cluster.tenants_export())
}

/// Times the cluster closed loop at one shard vs `shards` shards, best
/// of `repeat` each, enforcing the shard-count-invariance oracle: the
/// per-tenant exports must be byte-identical across shard counts and
/// across repeats, and each shard count's merged metrics must be
/// byte-reproducible. The one-shard numbers land in the "reference"
/// column, so the speedup column reads as the parallel scaling factor.
fn measure_shards(requests: usize, shards: usize, repeat: usize) -> Measurement {
    let mut best = [f64::INFINITY; 2];
    let mut outputs: Vec<(usize, u64, String, String)> = Vec::new();
    for (slot, n) in [(1usize, 1usize), (0, shards)] {
        for _ in 0..repeat {
            let start = Instant::now();
            let (cycles, metrics, export) = cluster_closed_loop(requests, n);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            best[slot] = best[slot].min(ms);
            outputs.push((n, cycles, metrics, export));
        }
    }
    let (_, cycles0, _, export0) = &outputs[0];
    for (n, cycles, metrics, export) in &outputs[1..] {
        assert_eq!(
            export0, export,
            "shard-scale: per-tenant export diverged at {n} shard(s) — \
             the shard-count-invariance oracle failed"
        );
        // Metrics are only byte-reproducible within a shard count (wall
        // cycles differ across machine splits); check against the first
        // run of the same count.
        let (_, c_first, m_first, _) = outputs
            .iter()
            .find(|(m, ..)| m == n)
            .expect("first run of this shard count");
        assert_eq!(
            c_first, cycles,
            "shard-scale: cycles diverged at {n} shard(s)"
        );
        assert_eq!(
            m_first, metrics,
            "shard-scale: metrics diverged at {n} shard(s)"
        );
    }
    Measurement {
        label: "shard-scale",
        wall_ms_opt: best[0],
        wall_ms_ref: best[1],
        total_cycles: *cycles0,
    }
}

/// The Fig. 7 shape: nested SSL echo, bulk records through two levels.
fn echo(messages: usize, reference: bool) -> (u64, String) {
    let run = run_echo(&EchoConfig {
        chunk_size: 4096,
        num_messages: messages,
        nested: true,
        trace: false,
        reference,
    })
    .expect("echo run");
    (run.metrics.total_cycles, run.metrics.to_json())
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let requests = flag_u64("--requests").unwrap_or(if full { 1024 } else { 256 }) as usize;
    let messages = flag_u64("--messages").unwrap_or(if full { 1_000 } else { 200 }) as usize;
    let repeat = flag_u64("--repeat").unwrap_or(1).max(1) as usize;
    let min_speedup = flag_str("--min-speedup").map(|s| {
        s.parse::<f64>()
            .unwrap_or_else(|e| panic!("--min-speedup {s}: {e}"))
    });
    let shards = flag_u64("--shards").unwrap_or(1).max(1) as usize;
    let min_shard_speedup = flag_str("--min-shard-speedup").map(|s| {
        s.parse::<f64>()
            .unwrap_or_else(|e| panic!("--min-shard-speedup {s}: {e}"))
    });
    banner(&format!(
        "Wall-clock: optimized vs reference paths \
         ({requests} req/client closed loop, {messages} echo messages, best of {repeat}{})",
        if shards > 1 {
            format!(", shard-scale at {shards} shards")
        } else {
            String::new()
        }
    ));
    let mut runs = vec![
        measure("closed-loop", repeat, |r| closed_loop(requests, r)),
        measure("echo", repeat, |r| echo(messages, r)),
    ];
    if shards > 1 {
        runs.push(measure_shards(requests, shards, repeat));
    }
    let mut t = Table::new(&[
        "Scenario",
        "Optimized ms",
        "Reference ms",
        "Speedup",
        "Total cycles",
    ]);
    for m in &runs {
        t.row(&[
            m.label.to_string(),
            f2(m.wall_ms_opt),
            f2(m.wall_ms_ref),
            format!("{}x", f2(m.speedup())),
            m.total_cycles.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nBoth paths produced byte-identical metrics exports; the speedup\n\
         is pure wall-clock. Cycle totals are deterministic; wall times\n\
         are host-dependent (compare advisory, with a generous threshold)."
    );
    if shards > 1 {
        println!(
            "shard-scale row: \"Optimized\" is the {shards}-shard run, \"Reference\" the\n\
             one-shard run; per-tenant exports were byte-identical at both counts\n\
             (the shard-count-invariance oracle). Host has {} CPU(s).",
            available_cpus()
        );
    }
    if let Some(path) = bench_out_path() {
        std::fs::write(&path, bench_json(&runs))
            .unwrap_or_else(|e| panic!("cannot write bench baseline to {}: {e}", path.display()));
        println!(
            "\nbench baseline: wrote {} run(s) to {}",
            runs.len(),
            path.display()
        );
    }
    if let Some(path) = timeline_out_path() {
        // One more closed-loop run per path, sampled: the timelines must
        // be byte-identical — the differential oracle extended to the
        // observability plane (window boundaries, SLO verdicts, event
        // attribution all ride on architectural state only).
        let opt = closed_loop_timeline(requests, false);
        ne_crypto::set_reference_impl(true);
        let reference = closed_loop_timeline(requests, true);
        ne_crypto::set_reference_impl(false);
        assert_eq!(
            opt, reference,
            "timeline export diverged between optimized and reference paths"
        );
        std::fs::write(&path, &opt)
            .unwrap_or_else(|e| panic!("cannot write timeline export to {}: {e}", path.display()));
        println!(
            "timeline export: optimized and reference paths byte-identical; wrote {}",
            path.display()
        );
    }
    if let Some(min) = min_speedup {
        // shard-scale has its own gate (--min-shard-speedup) with a CPU
        // precondition, so it is excluded from the optimized-vs-reference
        // one.
        for m in runs.iter().filter(|m| m.label != "shard-scale") {
            if m.speedup() < min {
                eprintln!(
                    "FAIL: {} speedup {:.2}x below required {min:.2}x",
                    m.label,
                    m.speedup()
                );
                std::process::exit(1);
            }
        }
        println!("\nok: every scenario at or above {min:.2}x");
    }
    if let Some(min) = min_shard_speedup {
        let m = runs
            .iter()
            .find(|m| m.label == "shard-scale")
            .unwrap_or_else(|| panic!("--min-shard-speedup needs --shards > 1"));
        let cpus = available_cpus();
        if cpus < 4 {
            // One thread per shard cannot beat one core with CPU-bound
            // work; the acceptance bar ("≥2x on a ≥4-core machine") only
            // applies where the hardware can express it.
            println!(
                "\nskip: --min-shard-speedup {min:.2}x not enforced on a \
                 {cpus}-CPU host (needs >= 4); measured {:.2}x",
                m.speedup()
            );
        } else if m.speedup() < min {
            eprintln!(
                "FAIL: shard-scale speedup {:.2}x below required {min:.2}x on a {cpus}-CPU host",
                m.speedup()
            );
            std::process::exit(1);
        } else {
            println!("\nok: shard-scale at or above {min:.2}x on a {cpus}-CPU host");
        }
    }
}

/// CPUs visible to this process, 1 when undeterminable.
fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Hand-rolled `ne-bench/v1` document. Higher is worse for every leaf:
/// cycles (deterministic), wall milliseconds (noisy), and the
/// optimized-over-reference wall ratio in permille (the regression
/// signal — it grows when the optimized path loses its lead).
fn bench_json(runs: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str("  \"experiment\": \"wallclock\",\n");
    out.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        let permille = (1000.0 * m.wall_ms_opt / m.wall_ms_ref.max(1e-9)).round();
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": \"{}\",\n", m.label));
        out.push_str(&format!("      \"total_cycles\": {},\n", m.total_cycles));
        out.push_str(&format!(
            "      \"wall_ms_optimized\": {:.0},\n",
            m.wall_ms_opt.max(1.0).round()
        ));
        out.push_str(&format!(
            "      \"wall_ms_reference\": {:.0},\n",
            m.wall_ms_ref.max(1.0).round()
        ));
        out.push_str(&format!("      \"opt_over_ref_permille\": {permille}\n"));
        out.push_str("    }");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
