//! Regenerates **Fig. 7**: echo-server throughput with varying chunk
//! sizes, normalized to the monolithic baseline, plus the ecall/ocall
//! counts per message (for nested runs the count includes n_ecall and
//! n_ocall, as in the paper).
//!
//! Run with `--full` for more messages per point, and
//! `--metrics-out <path>` to export every run's machine snapshot
//! (latency histograms included). `--trace-out` exports a
//! Chrome/Perfetto trace of the nested 1KB run (see `ne_bench::report`).

use ne_bench::report::{
    banner, breakdown_table, f2, f3, reject_unknown_flags, want_trace, write_trace, MetricsReport,
    Table,
};
use ne_tls::echo::{run_echo, EchoConfig};

fn main() {
    reject_unknown_flags(&["--full", "--metrics-out", "--trace-out"]);
    let full = std::env::args().any(|a| a == "--full");
    let messages = if full { 2_000 } else { 200 };
    let mut report = MetricsReport::new("fig7");
    let mut nested_snapshot = None;
    let mut nested_trace = None;
    banner(&format!(
        "Fig. 7: SSL echo server throughput ({messages} messages per point)"
    ));
    let mut t = Table::new(&[
        "Chunk",
        "Monolithic MB/s",
        "Nested MB/s",
        "Normalized",
        "Mono calls/MB",
        "Nested calls/MB",
    ]);
    for chunk in [128usize, 256, 512, 1024, 2048, 4096, 8192, 16384] {
        let mono = run_echo(&EchoConfig {
            chunk_size: chunk,
            num_messages: messages,
            nested: false,
            trace: false,
            reference: false,
        })
        .expect("monolithic echo");
        // The traced point is the nested 1KB run — the configuration the
        // paper's Fig. 7 discussion centres on.
        let nested = run_echo(&EchoConfig {
            chunk_size: chunk,
            num_messages: messages,
            nested: true,
            trace: want_trace() && chunk == 1024,
            reference: false,
        })
        .expect("nested echo");
        let label = if chunk >= 1024 {
            format!("{}KB", chunk / 1024)
        } else {
            format!("{chunk}B")
        };
        report.push_run(&format!("mono-{label}"), mono.metrics.clone());
        report.push_run(&format!("nested-{label}"), nested.metrics.clone());
        if chunk == 1024 {
            nested_snapshot = Some(nested.metrics.clone());
            nested_trace = nested.trace.clone();
        }
        // The paper plots call counts for a fixed data volume, which is
        // why "the number of additional calls increases as chunk size
        // decreases": per megabyte, small chunks mean many messages.
        let per_mb = |calls_per_msg: f64| calls_per_msg * (1e6 / chunk as f64);
        t.row(&[
            label,
            f2(mono.throughput_mbps()),
            f2(nested.throughput_mbps()),
            f3(nested.throughput_mbps() / mono.throughput_mbps()),
            f2(per_mb(mono.calls_per_message(messages))),
            f2(per_mb(nested.calls_per_message(messages))),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape (paper): normalized throughput 0.94–0.98, worst at\n\
         small chunks where the extra n_ecall/n_ocall per message weigh most."
    );
    // Where the nested run's cycles actually go: the SSL outer enclave,
    // the application inner enclave, and the untrusted side each get
    // their own attribution bucket; rows sum to the machine total (the
    // exporter's checker enforces it).
    let m = nested_snapshot.expect("1KB point always runs");
    println!("\nPer-enclave cycle breakdown (nested run, 1KB chunks):");
    breakdown_table(&m).print();
    write_trace(nested_trace.as_ref());
    report.finish();
}
