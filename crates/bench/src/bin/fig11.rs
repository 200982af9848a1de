//! Regenerates **Fig. 11**: throughput of intra-enclave communication via
//! the MEE-protected outer enclave versus enclave-to-enclave communication
//! with software AES-GCM through untrusted memory, across chunk sizes and
//! communication footprints.
//!
//! Run with `--full` for more traffic per point. `--metrics-out`,
//! `--profile-out` and `--trace-out` export snapshots, latency
//! histograms, and a Chrome/Perfetto trace of the 2MB/4KB MEE run (see
//! `ne_bench::report`).

use ne_bench::channel_exp::{run_gcm_channel, run_outer_channel};
use ne_bench::report::{banner, f2, want_trace, write_trace, MetricsReport, Table};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    banner("Fig. 11: MEE (outer-enclave channel) vs GCM (untrusted memory)");
    let mut report = MetricsReport::new("fig11");
    let mut traced = None;
    // Footprints: below the 8 MiB LLC, at it, and far above.
    for (label, footprint) in [("2MB", 2usize << 20), ("8MB", 8 << 20), ("32MB", 32 << 20)] {
        // Traffic must loop over the region several times so the steady
        // state (cache-resident or thrashing) dominates cold misses.
        let total: u64 = if full {
            4 * footprint as u64
        } else {
            2 * footprint as u64
        };
        println!("\n-- communication footprint {label} --");
        let mut t = Table::new(&[
            "Chunk",
            "MEE MB/s",
            "GCM MB/s",
            "MEE/GCM",
            "MEE lines touched",
        ]);
        for chunk in [64usize, 256, 1024, 4096, 16384, 65536] {
            // The traced point is the smallest footprint at 4KB chunks:
            // representative traffic without a multi-gigabyte trace file.
            let trace_this = want_trace() && footprint == 2 << 20 && chunk == 4096;
            let mee =
                run_outer_channel(chunk, footprint, total, trace_this).expect("outer channel");
            let gcm = run_gcm_channel(chunk, footprint, total, false).expect("gcm channel");
            if trace_this {
                traced = mee.trace.clone();
            }
            let chunk_label = if chunk >= 1024 {
                format!("{}KB", chunk / 1024)
            } else {
                format!("{chunk}B")
            };
            report.push_run(&format!("mee-{label}-{chunk_label}"), mee.metrics.clone());
            report.push_run(&format!("gcm-{label}-{chunk_label}"), gcm.metrics.clone());
            let label = chunk_label;
            t.row(&[
                label,
                f2(mee.throughput_mbps()),
                f2(gcm.throughput_mbps()),
                f2(mee.throughput_mbps() / gcm.throughput_mbps()),
                mee.mee_lines.to_string(),
            ]);
        }
        t.print();
    }
    println!(
        "\nExpected shape (paper): the intra-enclave channel wins everywhere —\n\
         up to ~30x at small chunks — and the gap is largest while the\n\
         footprint fits the 8 MiB LLC, where the MEE is never invoked; GCM\n\
         narrows the gap at large chunks as its setup cost amortizes."
    );
    if want_trace() {
        write_trace(traced.as_ref());
    }
    report.finish();
}
