//! Regenerates **Table III**: lines of code modified to port each
//! application to nested enclave, next to this repository's own
//! marker-counted porting glue.

use ne_bench::loc::table3_rows;
use ne_bench::report::{banner, reject_unknown_flags, write_trace, MetricsReport, Table};

fn main() {
    reject_unknown_flags(&["--metrics-out", "--trace-out"]);
    banner("Table III: porting effort (modified lines of code)");
    // No simulated machine runs here; the report is empty but the flag is
    // still honored so callers can treat every binary uniformly.
    let report = MetricsReport::new("table3");
    let mut t = Table::new(&[
        "Name",
        "Ours: port glue LoC",
        "Ours: harness LoC",
        "Paper: modified LoC",
        "Paper: library LoC (untouched)",
    ]);
    for row in table3_rows() {
        t.row(&[
            row.name.into(),
            row.ours_modified.to_string(),
            row.ours_total.to_string(),
            row.paper_modified.to_string(),
            row.paper_original.into(),
        ]);
    }
    t.print();
    println!(
        "\nThe paper's point holds here too: confining a library to an outer\n\
         enclave touches only initialization and call-site glue (tens of\n\
         lines), never the library implementation itself."
    );
    // No machine runs in this table; say so instead of silently
    // producing nothing.
    write_trace(None);
    report.finish();
}
