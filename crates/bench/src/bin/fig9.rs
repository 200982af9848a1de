//! Regenerates **Table V** (dataset inventory) and **Fig. 9** (normalized
//! LibSVM training and prediction time under nested enclave).
//!
//! Datasets are synthetic stand-ins with Table V's exact shapes; run with
//! `--full` for the full sizes (slow: full cod-rna has ~60 k samples) —
//! the default uses 2% scale. `--seed <u64>` draws different synthetic
//! datasets of the same shapes (default 0 reproduces the committed
//! numbers). `--metrics-out <path>` exports every run's machine snapshot
//! (latency histograms included); `--trace-out` exports a
//! Chrome/Perfetto trace of the nested dna run (see `ne_bench::report`).

use ne_bench::report::{
    banner, f3, flag_u64, reject_unknown_flags, want_trace, write_trace, MetricsReport, Table,
};
use ne_bench::svm_case::{run_svm_case, SvmCaseConfig};
use ne_svm::data::TableVDataset;

fn main() {
    reject_unknown_flags(&["--full", "--seed", "--metrics-out", "--trace-out"]);
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { 1.0 } else { 0.005 };
    let seed = flag_u64("--seed").unwrap_or(0);
    let mut report = MetricsReport::new("fig9");

    banner("Table V: datasets used for evaluating LibSVM");
    let mut tv = Table::new(&["name", "class", "training size", "testing size", "feature"]);
    for ds in TableVDataset::ALL {
        let (classes, train, test, feat) = ds.shape();
        tv.row(&[
            ds.name().into(),
            classes.to_string(),
            format!("{train}"),
            test.map_or("-".to_string(), |t| t.to_string()),
            feat.to_string(),
        ]);
    }
    tv.print();
    println!("(synthetic data of identical shape; '-' reuses a training fraction)\n");

    banner(&format!(
        "Fig. 9: normalized execution time (scale {scale}, seed {seed})"
    ));
    let mut t = Table::new(&[
        "dataset",
        "train (nested/mono)",
        "predict (nested/mono)",
        "accuracy",
        "n_calls",
    ]);
    let mut traced = None;
    for ds in TableVDataset::ALL {
        let mono = run_svm_case(&SvmCaseConfig {
            dataset: ds,
            scale,
            nested: false,
            trace: false,
            seed,
        })
        .expect("monolithic run");
        // The traced dataset is dna: the one Fig. 9's discussion names.
        let trace_this = want_trace() && ds.name() == "dna";
        let nested = run_svm_case(&SvmCaseConfig {
            dataset: ds,
            scale,
            nested: true,
            trace: trace_this,
            seed,
        })
        .expect("nested run");
        if trace_this {
            traced = nested.trace.clone();
        }
        report.push_run(&format!("mono-{}", ds.name()), mono.metrics.clone());
        report.push_run(&format!("nested-{}", ds.name()), nested.metrics.clone());
        t.row(&[
            ds.name().into(),
            f3(nested.train_cycles as f64 / mono.train_cycles as f64),
            f3(nested.predict_cycles as f64 / mono.predict_cycles as f64),
            f3(nested.accuracy),
            nested.n_calls.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape (paper): ratios ≈ 1.00 — \"a small number of extra\n\
         transitions between the inner and outer enclaves do not add\n\
         significant overheads in the LibSVM computations\"."
    );
    write_trace(traced.as_ref());
    report.finish();
}
