//! Regenerates **Fig. 10**: time to load enclaves running the OpenSSL
//! server, and the total loaded memory, as library sharing via nested
//! enclave increases.
//!
//! The paper uses 500 application instances (SSL ≈ 4 MB, App ≈ 1 MB);
//! that is the `--full` setting. The default scales to 50 instances so the
//! sweep finishes quickly; the shape is identical. `--metrics-out`,
//! `--profile-out` and `--trace-out` export snapshots, latency
//! histograms, and a Chrome/Perfetto trace of the single-outer nested
//! run (see `ne_bench::report`).

use ne_bench::loading::{run_loading, LoadMode};
use ne_bench::report::{banner, f2, want_trace, write_trace, MetricsReport, Table};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let apps = if full { 500 } else { 50 };
    let mut report = MetricsReport::new("fig10");
    banner(&format!(
        "Fig. 10: loading time and memory footprint ({apps} App instances)"
    ));
    let mut t = Table::new(&[
        "Configuration",
        "Load time (sim ms)",
        "Footprint (MB)",
        "Enclaves",
    ]);
    let sep = run_loading(LoadMode::BaselineSeparate, apps, 0, false).expect("separate");
    report.push_run("baseline-separate", sep.metrics.clone());
    t.row(&[
        format!("baseline: {apps} SSL + {apps} App"),
        f2(sep.load_ms),
        f2(sep.footprint_mb),
        sep.enclaves.to_string(),
    ]);
    let comb = run_loading(LoadMode::BaselineCombined, apps, 0, false).expect("combined");
    report.push_run("baseline-combined", comb.metrics.clone());
    t.row(&[
        format!("baseline: {apps} (SSL+App)"),
        f2(comb.load_ms),
        f2(comb.footprint_mb),
        comb.enclaves.to_string(),
    ]);
    let mut traced = None;
    for outers in [1usize, apps / 10, apps / 5, apps / 2, apps] {
        let outers = outers.max(1);
        // The traced sweep point is maximum sharing: one SSL outer.
        let trace_this = want_trace() && outers == 1 && traced.is_none();
        let r = run_loading(LoadMode::Nested, apps, outers, trace_this).expect("nested");
        if trace_this {
            traced = r.trace.clone();
        }
        report.push_run(&format!("nested-{outers}-outers"), r.metrics.clone());
        t.row(&[
            format!("nested: {apps} App inner + {outers} SSL outer"),
            f2(r.load_ms),
            f2(r.footprint_mb),
            r.enclaves.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape (paper): nested sharing shortens loading and shrinks\n\
         the footprint; with one outer per inner ({apps} SSL) it matches the\n\
         separate baseline, and 'as more sharing is allowed, the benefits of\n\
         reduced memory footprints increase'."
    );
    if want_trace() {
        write_trace(traced.as_ref());
    }
    report.finish();
}
