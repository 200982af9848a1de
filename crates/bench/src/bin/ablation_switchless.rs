//! Ablation (§ IX related work): classic ocalls vs switchless (exitless)
//! calls, the SDK mechanism the paper cites as the software alternative to
//! cheap boundary crossings.
//!
//! For each payload size, one thousand calls are made through each
//! mechanism and the average caller-core cost is reported. Switchless
//! avoids the EEXIT/EENTER pair but burns a worker core; nested enclave's
//! NEENTER/NEEXIT attacks the *enclave-to-enclave* crossings instead —
//! the two are complementary.

use ne_bench::report::{
    banner, f2, reject_unknown_flags, want_trace, write_trace, MetricsReport, Table,
};
use ne_core::edl::Edl;
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn, UntrustedCtx, UntrustedFn};
use ne_core::switchless::SwitchlessQueue;
use ne_sgx::addr::VirtAddr;
use ne_sgx::config::HwConfig;
use std::sync::Arc;

fn build_app(trace: bool) -> NestedApp {
    let mut hw = HwConfig::testbed();
    hw.trace_events = trace;
    let mut app = NestedApp::new(hw);
    app.register_untrusted(
        "service",
        Arc::new(|_cx: &mut UntrustedCtx<'_>, args: &[u8]| Ok(args.to_vec())) as UntrustedFn,
    );
    let classic: TrustedFn = Arc::new(|cx, args| cx.ocall("service", args));
    let switchless: TrustedFn = Arc::new(|cx, args| {
        let slot = VirtAddr(u64::from_le_bytes(args[..8].try_into().expect("8")));
        let q = SwitchlessQueue::with_slot(slot, 4096, 1);
        q.ocall(cx, "service", &args[8..])
    });
    let img = EnclaveImage::new("e", b"bench").heap_pages(4).edl(
        Edl::new()
            .ecall("classic")
            .ecall("switchless")
            .ocall("service"),
    );
    app.load(
        img,
        [
            ("classic".to_string(), classic),
            ("switchless".to_string(), switchless),
        ],
    )
    .expect("load");
    app
}

fn main() {
    reject_unknown_flags(&["--metrics-out", "--trace-out"]);
    banner("Ablation: classic ocall vs switchless call (caller-core cycles)");
    let iters = 1_000u64;
    let mut report = MetricsReport::new("ablation_switchless");
    let mut t = Table::new(&[
        "Payload",
        "Classic cycles/call",
        "Switchless cycles/call",
        "Speedup",
    ]);
    let mut traced = None;
    for payload in [16usize, 256, 1024, 4096] {
        // The traced point is the 1KB payload — switchless and classic
        // spans side by side at a representative size.
        let trace_this = want_trace() && payload == 1024;
        let mut app = build_app(trace_this);
        let q = app.untrusted(0, |cx| SwitchlessQueue::create(cx, 4096, 1));
        let data = vec![0x7Au8; payload];
        // Classic: measure the marginal ocall cost inside one ecall each.
        app.machine.reset_metrics();
        for _ in 0..iters {
            app.ecall(0, "e", "classic", &data).expect("classic");
        }
        let classic = app.machine.cycles(0) / iters;
        report.push_run(&format!("classic-{payload}B"), app.machine.metrics());
        // Switchless.
        let mut args = q.slot().0.to_le_bytes().to_vec();
        args.extend_from_slice(&data);
        app.machine.reset_metrics();
        for _ in 0..iters {
            app.ecall(0, "e", "switchless", &args).expect("switchless");
        }
        let switchless = app.machine.cycles(0) / iters;
        report.push_run(&format!("switchless-{payload}B"), app.machine.metrics());
        if trace_this {
            traced = Some(ne_sgx::spantree::TraceBundle::capture(&app.machine));
        }
        t.row(&[
            format!("{payload}B"),
            classic.to_string(),
            switchless.to_string(),
            f2(classic as f64 / switchless as f64),
        ]);
    }
    t.print();
    println!(
        "\nSwitchless trims the per-call cost by skipping the EEXIT/EENTER\n\
         pair (and its TLB flushes), at the price of copies through\n\
         untrusted memory and a dedicated worker core — consistent with\n\
         HotCalls/SDK-switchless measurements the paper cites."
    );
    write_trace(traced.as_ref());
    report.finish();
}
