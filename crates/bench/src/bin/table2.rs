//! Regenerates **Table II**: average latency of enclave transition calls
//! for real-hardware SGX, emulated SGX, and emulated nested enclave.
//!
//! Run with `--full` for the paper's 1 M iterations (default 10 k).
//! `--metrics-out` and `--trace-out` export snapshots (latency
//! histograms included) and a Chrome/Perfetto trace of the nested phase
//! (see `ne_bench::report`).

use ne_bench::report::{
    banner, f2, reject_unknown_flags, want_trace, write_trace, MetricsReport, Table,
};
use ne_bench::transitions::{measure_classic, measure_nested};
use ne_sgx::cost::CostProfile;

fn main() {
    reject_unknown_flags(&["--full", "--metrics-out", "--trace-out"]);
    let full = std::env::args().any(|a| a == "--full");
    let iters: u64 = if full { 1_000_000 } else { 10_000 };
    banner(&format!(
        "Table II: average transition latency ({iters} calls per mode)"
    ));
    let hw = measure_classic(CostProfile::hw_sgx(), iters, false);
    let em = measure_classic(CostProfile::emulated(), iters, false);
    // The traced mode is the one the paper introduces: nested transitions.
    let ne = measure_nested(CostProfile::emulated(), iters, want_trace());
    let mut report = MetricsReport::new("table2");
    report.push_run("hw-sgx", hw.metrics.clone());
    report.push_run("emulated-sgx", em.metrics.clone());
    report.push_run("emulated-nested", ne.metrics.clone());
    let mut t = Table::new(&["Mode", "ecall", "ocall", "paper ecall", "paper ocall"]);
    t.row(&[
        "HW SGX ecall/ocall".into(),
        format!("{}us", f2(hw.ecall_us)),
        format!("{}us", f2(hw.ocall_us)),
        "3.45us".into(),
        "3.13us".into(),
    ]);
    t.row(&[
        "Emulated SGX ecall/ocall".into(),
        format!("{}us", f2(em.ecall_us)),
        format!("{}us", f2(em.ocall_us)),
        "1.25us".into(),
        "1.14us".into(),
    ]);
    t.row(&[
        "Emulated nested (n_ecall/n_ocall)".into(),
        format!("{}us", f2(ne.ecall_us)),
        format!("{}us", f2(ne.ocall_us)),
        "1.11us".into(),
        "1.06us".into(),
    ]);
    t.print();
    println!(
        "\nAs in the paper, the emulated transitions underestimate the real\n\
         hardware cost, and nested transitions are slightly cheaper than\n\
         emulated classic transitions (no kernel round trip)."
    );
    write_trace(ne.trace.as_ref());
    report.finish();
}
