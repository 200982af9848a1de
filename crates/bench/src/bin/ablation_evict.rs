//! Ablation (§ IV-E): EPC-eviction TLB-shootdown policy — precise
//! inner-enclave thread tracking vs. interrupting every core.
//!
//! "A simplified, but potentially more costly solution is to send
//! inter-processor interrupts to all the cores in the system. It can
//! potentially cause exceptions even for unrelated cores, but the tracking
//! becomes simpler."

use ne_bench::report::{
    banner, reject_unknown_flags, want_trace, write_trace, MetricsReport, Table,
};
use ne_core::validate::NestedValidator;
use ne_core::{nasso, AssocPolicy, EnclaveImage};
use ne_sgx::addr::{VirtAddr, PAGE_SIZE};
use ne_sgx::config::HwConfig;
use ne_sgx::enclave::ProcessId;
use ne_sgx::machine::Machine;
use ne_sgx::metrics::MachineMetrics;
use ne_sgx::spantree::TraceBundle;

/// Builds a machine with one outer + one inner enclave pair and an
/// *unrelated* enclave running on another core, then evicts outer pages.
fn run(
    flush_all: bool,
    evictions: usize,
    trace: bool,
) -> (u64, u64, u64, MachineMetrics, Option<TraceBundle>) {
    let mut cfg = HwConfig::testbed();
    cfg.flush_all_on_evict = flush_all;
    cfg.trace_events = trace;
    let mut m = Machine::with_validator(cfg, Box::new(NestedValidator::new()));
    let mut next = 0x1000_0000u64;
    let mut load = |m: &mut Machine, name: &str, pages: u64| {
        let img = EnclaveImage::new(name, b"bench").heap_pages(pages);
        let base = VirtAddr(next);
        next += img.total_pages() * PAGE_SIZE as u64;
        let l = ne_core::load_image(m, ProcessId(0), base, &img).expect("load");
        (l, img.identity(base))
    };
    let (outer, outer_id) = load(&mut m, "outer", 64);
    let (inner, inner_id) = load(&mut m, "inner", 4);
    let (stranger, _) = load(&mut m, "stranger", 4);
    nasso(
        &mut m,
        inner.eid,
        outer.eid,
        &outer_id,
        &inner_id,
        AssocPolicy::SingleOuter,
    )
    .expect("NASSO");
    // Core 1: an inner-enclave thread whose TLB caches outer translations.
    m.eenter(1, inner.eid, inner.base).expect("enter inner");
    m.read(1, outer.heap_base, 64).expect("inner reads outer");
    // Core 2: a completely unrelated enclave.
    m.eenter(2, stranger.eid, stranger.base)
        .expect("enter stranger");
    m.read(2, stranger.heap_base, 64)
        .expect("stranger reads itself");
    m.reset_metrics();
    for i in 0..evictions {
        let va = outer.heap_base.add((i % 64) as u64 * PAGE_SIZE as u64);
        let page = m.ewb(outer.eid, va).expect("EWB");
        m.eldu(&page).expect("ELDU");
        // The interrupted inner thread resumes, refilling its TLB.
        if m.current_enclave(1).is_none() {
            m.eresume(1, inner.eid, inner.base).expect("resume inner");
            m.read(1, outer.heap_base.add(PAGE_SIZE as u64), 64).ok();
        }
        if m.current_enclave(2).is_none() {
            m.eresume(2, stranger.eid, stranger.base)
                .expect("resume stranger");
        }
    }
    let stats = m.stats();
    let bundle = trace.then(|| TraceBundle::capture(&m));
    (
        stats.ipis,
        stats.aexes,
        m.total_cycles(),
        m.metrics(),
        bundle,
    )
}

fn main() {
    reject_unknown_flags(&["--metrics-out", "--trace-out"]);
    banner("Ablation: eviction shootdown policy (precise tracking vs flush-all)");
    let evictions = 200;
    let mut t = Table::new(&["Policy", "IPIs", "AEXes", "Total cycles"]);
    let mut report = MetricsReport::new("ablation_evict");
    let mut traced = None;
    for (label, flush_all) in [("precise inner tracking", false), ("flush all cores", true)] {
        // The traced policy is flush-all: the one with AEX/ERESUME storms
        // worth seeing on a timeline.
        let trace_this = want_trace() && flush_all;
        let (ipis, aexes, cycles, metrics, bundle) = run(flush_all, evictions, trace_this);
        if trace_this {
            traced = bundle;
        }
        report.push_run(if flush_all { "flush-all" } else { "precise" }, metrics);
        t.row(&[
            label.into(),
            ipis.to_string(),
            aexes.to_string(),
            cycles.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nPrecise tracking interrupts only cores running the evicted\n\
         enclave's tree (outer + inners); flush-all also kicks the\n\
         unrelated core on every eviction, spending more IPIs and cycles."
    );
    write_trace(traced.as_ref());
    report.finish();
}
