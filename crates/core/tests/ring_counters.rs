//! The trace ring and the `Stats` counters agree for every event kind.
//!
//! Both are fed by one call, `Machine::note`, so on a freshly booted
//! traced machine whose ring never wrapped, each event kind the ring
//! keeps appears there exactly as often as its counter was bumped.

use std::sync::Arc;

use ne_core::edl::Edl;
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn};
use ne_core::transitions::{neenter, neexit};
use ne_sgx::addr::VirtAddr;
use ne_sgx::config::HwConfig;
use ne_sgx::machine::{AccessKind, Translated};
use ne_sgx::trace::Event;
use ne_sgx::FaultKind;

#[test]
fn ring_counts_match_stats_for_every_event_kind() {
    let mut cfg = HwConfig::small();
    cfg.trace_events = true;
    let mut app = NestedApp::new(cfg);
    let work: TrustedFn =
        Arc::new(|cx, args| cx.write(cx.heap_base_of("outer")?, args).map(|_| vec![]));
    let outer = EnclaveImage::new("outer", b"provider").heap_pages(4);
    app.load(outer.edl(Edl::new().ecall("work")), [("work".into(), work)])
        .unwrap();
    let inner = EnclaveImage::new("inner", b"tenant").edl(Edl::new());
    app.load(inner, []).unwrap();
    app.associate("inner", "outer").unwrap();
    let (outer, inner) = (app.layout("outer").unwrap(), app.layout("inner").unwrap());

    // A runtime ecall: span, EENTER/EEXIT, TLB misses and MEE traffic.
    app.ecall(0, "outer", "work", b"payload").unwrap();
    let m = &mut app.machine;
    // NEENTER/NEEXIT around an AEX/ERESUME inside the inner enclave.
    m.eenter(0, outer.eid, outer.base).unwrap();
    neenter(m, 0, inner.eid, inner.base).unwrap();
    m.aex(0).unwrap();
    m.eresume(0, inner.eid, inner.base).unwrap();
    neexit(m, 0).unwrap();
    // EWB of an outer page while core 0 runs the outer enclave: the
    // shootdown IPIs and AEXes core 0.
    let page = m.ewb(outer.eid, outer.heap_base).unwrap();
    assert_eq!(m.current_enclave(0), None, "the shootdown AEXed core 0");
    m.eresume(0, outer.eid, outer.base).unwrap();
    m.eldu(&page).unwrap();
    // Faults: an integrity violation on the reloaded page, then an
    // unmapped address.
    let Ok(Translated::Phys(pa, _)) = m.translate(0, outer.heap_base, AccessKind::Read) else {
        panic!("the reloaded page must translate");
    };
    m.physical_tamper(pa, &[0xA5; 64]);
    let err = m.read(0, outer.heap_base, 8).unwrap_err();
    assert!(err.is_fault(FaultKind::IntegrityViolation), "got {err}");
    m.eexit(0).unwrap();
    assert!(m.read(1, VirtAddr(0x5_0000_0000), 1).is_err());

    let trace = m.trace();
    assert_eq!(trace.dropped(), 0, "the ring must not have wrapped");
    macro_rules! ring {
        ($kind:ident) => {
            trace
                .events()
                .filter(|e| matches!(e, Event::$kind { .. }))
                .count() as u64
        };
    }
    let s = m.stats();
    for (counter, ring, stat) in [
        ("ecalls", ring!(Eenter), s.ecalls),
        ("ocalls", ring!(Eexit), s.ocalls),
        ("n_ecalls", ring!(Neenter), s.n_ecalls),
        ("n_ocalls", ring!(Neexit), s.n_ocalls),
        ("aexes", ring!(Aex), s.aexes),
        ("eresumes", ring!(Eresume), s.eresumes),
        ("ewb_pages", ring!(Ewb), s.ewb_pages),
        ("eldu_pages", ring!(Eldu), s.eldu_pages),
        ("faults", ring!(Fault), s.faults),
        ("span_opens", ring!(SpanBegin), s.span_opens),
    ] {
        assert_eq!(ring, stat, "ring and Stats::{counter} disagree");
        assert!(stat > 0, "the run never drove {counter}");
    }
    assert!(s.ipis > 0, "the eviction sent no shootdown IPI");
    m.metrics().check().unwrap();
}
