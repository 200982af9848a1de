//! Ablation (§ VIII): validation cost of multi-level nesting.
//!
//! "Arbitrary levels of nesting only increase the validation time without
//! extra hardware complexity." This sweep builds chains of 2–6 levels and
//! measures the innermost enclave's cost of touching the outermost
//! enclave's memory (worst-case chain traversal on every TLB miss).

use ne_bench::report::{
    banner, f2, reject_unknown_flags, want_trace, write_trace, MetricsReport, Table,
};
use ne_core::validate::NestedValidator;
use ne_core::{nasso, AssocPolicy, EnclaveImage};
use ne_sgx::addr::{VirtAddr, PAGE_SIZE};
use ne_sgx::config::HwConfig;
use ne_sgx::enclave::ProcessId;
use ne_sgx::machine::Machine;
use ne_sgx::metrics::MachineMetrics;
use ne_sgx::spantree::TraceBundle;

fn run(depth: usize, touches: usize, trace: bool) -> (f64, MachineMetrics, Option<TraceBundle>) {
    let mut cfg = HwConfig::testbed();
    cfg.tlb_entries = 1; // every access misses: isolates validation cost
    cfg.trace_events = trace;
    let mut m = Machine::with_validator(cfg, Box::new(NestedValidator::with_max_depth(depth)));
    let mut next = 0x1000_0000u64;
    let mut layouts = Vec::new();
    for level in 0..depth {
        let img = EnclaveImage::new(&format!("level-{level}"), b"bench").heap_pages(4);
        let base = VirtAddr(next);
        next += img.total_pages() * PAGE_SIZE as u64;
        let l = ne_core::load_image(&mut m, ProcessId(0), base, &img).expect("load");
        layouts.push((l, img.identity(base)));
    }
    // level-0 is the outermost; each level-i+1 is an inner of level-i.
    for i in 1..depth {
        let (outer, outer_id) = (&layouts[i - 1].0, layouts[i - 1].1.clone());
        let (inner, inner_id) = (&layouts[i].0, layouts[i].1.clone());
        nasso(
            &mut m,
            inner.eid,
            outer.eid,
            &outer_id,
            &inner_id,
            AssocPolicy::SingleOuter,
        )
        .expect("NASSO");
    }
    let innermost = &layouts[depth - 1].0;
    let outermost = &layouts[0].0;
    m.eenter(0, innermost.eid, innermost.base).expect("enter");
    m.reset_metrics();
    for i in 0..touches {
        // Alternate two pages so the single-entry TLB always misses.
        let page = (i % 2) as u64;
        m.read(0, outermost.heap_base.add(page * PAGE_SIZE as u64), 8)
            .expect("chain access");
    }
    let bundle = trace.then(|| TraceBundle::capture(&m));
    (m.cycles(0) as f64 / touches as f64, m.metrics(), bundle)
}

fn main() {
    reject_unknown_flags(&["--metrics-out", "--trace-out"]);
    banner("Ablation: TLB-miss validation cost vs nesting depth");
    let touches = 10_000;
    let mut t = Table::new(&["Chain depth", "Cycles per access (all TLB misses)"]);
    let mut report = MetricsReport::new("ablation_depth");
    let mut prev = 0.0;
    let mut traced = None;
    for depth in 2..=6 {
        // The traced sweep point is the deepest chain — the one whose
        // per-miss walk the flamegraph is most interesting for.
        let trace_this = want_trace() && depth == 6;
        let (c, metrics, bundle) = run(depth, touches, trace_this);
        if trace_this {
            traced = bundle;
        }
        report.push_run(&format!("depth-{depth}"), metrics);
        t.row(&[depth.to_string(), f2(c)]);
        assert!(c >= prev, "validation cost must grow with depth");
        prev = c;
    }
    t.print();
    println!(
        "\nCost grows linearly with the inner→outer chain length — the\n\
         § VIII observation that deeper nesting 'only increases the\n\
         validation time' with no new hardware."
    );
    write_trace(traced.as_ref());
    report.finish();
}
