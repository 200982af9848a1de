//! Regenerates **Table VI**: SQLite throughput under YCSB mixes (uniform
//! random request distribution), normalized to the monolithic enclave.
//!
//! The paper runs 10 000 queries; that is the `--full` setting (default
//! 500 for a quick run). `--seed <u64>` picks the YCSB workload stream
//! (default reproduces the committed numbers). `--metrics-out` and
//! `--trace-out` export snapshots (latency histograms included) and a
//! Chrome/Perfetto trace of the first nested mix (see
//! `ne_bench::report`).

use ne_bench::db_case::{run_db_case, DEFAULT_DB_SEED};
use ne_bench::report::{
    banner, f2, f3, flag_u64, reject_unknown_flags, want_trace, write_trace, MetricsReport, Table,
};
use ne_db::WorkloadMix;

fn main() {
    reject_unknown_flags(&["--full", "--seed", "--metrics-out", "--trace-out"]);
    let full = std::env::args().any(|a| a == "--full");
    let (records, ops) = if full { (1_000, 10_000) } else { (100, 500) };
    let seed = flag_u64("--seed").unwrap_or(DEFAULT_DB_SEED);
    banner(&format!(
        "Table VI: SQLite YCSB throughput ({ops} queries, {records} records, seed {seed})"
    ));
    let mut t = Table::new(&[
        "Workload",
        "Mono kops/s",
        "Nested kops/s",
        "Normalized",
        "paper",
    ]);
    let paper = ["0.99", "0.99", "0.98", "0.98"];
    let mut report = MetricsReport::new("table6");
    let mut traced = None;
    for (i, (mix, paper_v)) in WorkloadMix::ALL.into_iter().zip(paper).enumerate() {
        let mono = run_db_case(mix, records, ops, false, false, seed).expect("monolithic");
        // The traced mix is the first (pure-select) nested run.
        let trace_this = want_trace() && i == 0;
        let nested = run_db_case(mix, records, ops, true, trace_this, seed).expect("nested");
        if trace_this {
            traced = nested.trace.clone();
        }
        report.push_run(&format!("mono-{}", mix.name()), mono.metrics.clone());
        report.push_run(&format!("nested-{}", mix.name()), nested.metrics.clone());
        t.row(&[
            mix.name().into(),
            f2(mono.ops_per_second() / 1e3),
            f2(nested.ops_per_second() / 1e3),
            f3(nested.ops_per_second() / mono.ops_per_second()),
            paper_v.into(),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape (paper): normalized throughput 0.98–0.99 — the\n\
         inner enclave's parse+encrypt and the extra n_ocall are a small\n\
         fraction of the per-query engine work."
    );
    write_trace(traced.as_ref());
    report.finish();
}
