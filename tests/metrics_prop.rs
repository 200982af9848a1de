//! Property test: the metrics checker accepts every run the runtime can
//! produce.
//!
//! [`MachineMetrics::check`] encodes identities that must hold for *any*
//! workload driven through the SDK runtime — per-core category breakdowns
//! summing to the core clocks, per-enclave attribution summing to the
//! machine total, and (at rest) enclave entries pairing with exits. Here
//! we generate random call mixes over a nested outer/inner application —
//! computation, ocalls, n_ocalls, enclave memory traffic — and assert the
//! checker stays green after every completed top-level ecall.
//!
//! [`MachineMetrics::check`]: ne_sgx::metrics::MachineMetrics::check

use ne_core::edl::Edl;
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn, UntrustedFn};
use ne_sgx::config::HwConfig;
use ne_sgx::profile::{Histogram, ProfileEvent};
use proptest::prelude::*;
use std::sync::Arc;

/// One top-level ecall of the generated workload.
#[derive(Debug, Clone)]
enum Call {
    /// Pure in-enclave computation of the given cost.
    Compute { cycles: u64 },
    /// An ocall to the untrusted sink with a payload of the given size.
    Ocall { len: u16 },
    /// An n_ocall from the inner enclave down into the outer library.
    NOcall { len: u16 },
    /// Enclave heap traffic (write + read back) of the given size.
    Memory { len: u16 },
}

fn call_strategy() -> impl Strategy<Value = Call> {
    prop_oneof![
        (1..50_000u64).prop_map(|cycles| Call::Compute { cycles }),
        (0..1024u16).prop_map(|len| Call::Ocall { len }),
        (0..1024u16).prop_map(|len| Call::NOcall { len }),
        (1..2048u16).prop_map(|len| Call::Memory { len }),
    ]
}

/// Outer "lib" + inner "app" with one trusted function per [`Call`] kind.
fn build_app() -> NestedApp {
    let mut app = NestedApp::new(HwConfig::small());
    app.register_untrusted(
        "sink",
        Arc::new(|_cx: &mut ne_core::runtime::UntrustedCtx<'_>, args: &[u8]| Ok(args.to_vec()))
            as UntrustedFn,
    );
    let lib = EnclaveImage::new("lib", b"provider")
        .heap_pages(4)
        .edl(Edl::new());
    let lib_work: TrustedFn = Arc::new(|cx, args| {
        cx.charge(100 + args.len() as u64);
        Ok(args.to_vec())
    });
    app.load(lib, [("lib_work".to_string(), lib_work)])
        .expect("load lib");
    let inner = EnclaveImage::new("app", b"tenant").heap_pages(8).edl(
        Edl::new()
            .ecall("compute")
            .ecall("do_ocall")
            .ecall("do_nocall")
            .ecall("do_memory")
            .ocall("sink")
            .n_ocall("lib_work"),
    );
    let compute: TrustedFn = Arc::new(|cx, args| {
        let cycles = u64::from_le_bytes(args[..8].try_into().expect("8 bytes"));
        cx.charge(cycles);
        Ok(vec![])
    });
    let do_ocall: TrustedFn = Arc::new(|cx, args| cx.ocall("sink", args));
    let do_nocall: TrustedFn = Arc::new(|cx, args| cx.n_ocall("lib_work", args));
    let do_memory: TrustedFn = Arc::new(|cx, args| {
        let hb = cx.heap_base_of("app")?;
        cx.write(hb, args)?;
        cx.read(hb, args.len())
    });
    app.load(
        inner,
        [
            ("compute".to_string(), compute),
            ("do_ocall".to_string(), do_ocall),
            ("do_nocall".to_string(), do_nocall),
            ("do_memory".to_string(), do_memory),
        ],
    )
    .expect("load app");
    app.associate("app", "lib").expect("NASSO");
    app
}

fn issue(app: &mut NestedApp, call: &Call) {
    match call {
        Call::Compute { cycles } => {
            app.ecall(0, "app", "compute", &cycles.to_le_bytes())
                .expect("compute ecall");
        }
        Call::Ocall { len } => {
            app.ecall(0, "app", "do_ocall", &vec![0x11; *len as usize])
                .expect("ocall ecall");
        }
        Call::NOcall { len } => {
            app.ecall(0, "app", "do_nocall", &vec![0x22; *len as usize])
                .expect("n_ocall ecall");
        }
        Call::Memory { len } => {
            app.ecall(0, "app", "do_memory", &vec![0x33; *len as usize])
                .expect("memory ecall");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every random runtime-driven workload keeps all counter identities.
    #[test]
    fn checker_accepts_every_valid_run(calls in prop::collection::vec(call_strategy(), 1..24)) {
        let mut app = build_app();
        for (i, call) in calls.iter().enumerate() {
            issue(&mut app, call);
            let m = app.machine.metrics();
            if let Err(e) = m.check() {
                panic!("after call {i} ({call:?}): {e}");
            }
        }
        // The final snapshot is at rest: transitions must pair up exactly.
        let m = app.machine.metrics();
        prop_assert_eq!(m.cores_in_enclave_mode, 0);
        prop_assert_eq!(m.stats.ecalls + m.stats.eresumes, m.stats.ocalls + m.stats.aexes);
        prop_assert_eq!(m.stats.n_ecalls, m.stats.n_ocalls);
    }

    /// `reset_metrics` at rest re-arms the identities rather than breaking
    /// them: a second measured phase checks clean on its own.
    #[test]
    fn checker_survives_mid_run_reset(
        first in prop::collection::vec(call_strategy(), 1..8),
        second in prop::collection::vec(call_strategy(), 1..8),
    ) {
        let mut app = build_app();
        for call in &first {
            issue(&mut app, call);
        }
        app.machine.reset_metrics();
        prop_assert_eq!(app.machine.total_cycles(), 0);
        for call in &second {
            issue(&mut app, call);
        }
        let m = app.machine.metrics();
        prop_assert!(m.check().is_ok(), "post-reset phase: {:?}", m.check());
    }
}

/// Builds a histogram from a sample population.
fn hist_of(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Count identity: for any population, `count == len == Σ buckets`,
    /// and the summary reproduces the exact count/sum/min/max.
    #[test]
    fn histogram_count_identity(samples in prop::collection::vec(any::<u64>(), 0..256)) {
        let h = hist_of(&samples);
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.bucket_total(), h.count());
        let s = h.summary();
        prop_assert_eq!(s.count, h.count());
        let exact_sum = samples.iter().fold(0u64, |a, &v| a.saturating_add(v));
        prop_assert_eq!(s.sum, exact_sum);
        prop_assert_eq!(s.min, samples.iter().min().copied().unwrap_or(0));
        prop_assert_eq!(s.max, samples.iter().max().copied().unwrap_or(0));
    }

    /// Percentile monotonicity: `min ≤ p50 ≤ p90 ≤ p99 ≤ max` for any
    /// non-empty population, and every quantile stays inside `[min, max]`.
    #[test]
    fn histogram_percentiles_monotone(samples in prop::collection::vec(any::<u64>(), 1..256)) {
        let h = hist_of(&samples);
        let s = h.summary();
        prop_assert!(s.min <= s.p50, "min {} > p50 {}", s.min, s.p50);
        prop_assert!(s.p50 <= s.p90, "p50 {} > p90 {}", s.p50, s.p90);
        prop_assert!(s.p90 <= s.p99, "p90 {} > p99 {}", s.p90, s.p99);
        prop_assert!(s.p99 <= s.max, "p99 {} > max {}", s.p99, s.max);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = h.percentile(q);
            prop_assert!(s.min <= p && p <= s.max, "p{q} = {p} outside [{}, {}]", s.min, s.max);
        }
    }

    /// Merge is associative and commutative, the empty histogram is its
    /// identity, and merging never loses samples.
    #[test]
    fn histogram_merge_associative(
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
        c in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ⊕ b) ⊕ c
        let mut ab_c = ha.clone();
        ab_c.merge(&hb);
        ab_c.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Commutativity.
        let mut ba = hb.clone();
        ba.merge(&ha);
        let mut ab = ha.clone();
        ab.merge(&hb);
        prop_assert_eq!(&ab, &ba);
        // Identity and sample conservation.
        let mut with_empty = ha.clone();
        with_empty.merge(&Histogram::new());
        prop_assert_eq!(&with_empty, &ha);
        prop_assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);
        // A merge result is itself a valid population for the percentile
        // invariant — merged summaries stay monotone.
        let s = ab_c.summary();
        prop_assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    /// The boundary histograms agree with the span counters for any
    /// runtime-driven workload: their combined sample count equals
    /// `Stats::span_closes`, and the per-event counts match the
    /// transition counters ([`MachineMetrics::check`] asserts the same
    /// identities; here they are exercised against random call mixes).
    #[test]
    fn boundary_histograms_match_stats(calls in prop::collection::vec(call_strategy(), 1..16)) {
        let mut app = build_app();
        for call in &calls {
            issue(&mut app, call);
        }
        let m = app.machine.metrics();
        prop_assert_eq!(m.profile.boundary_count(), m.stats.span_closes);
        // Per-event counters must match the microarchitectural histograms.
        // (No such identity holds for stats.ecalls vs the ecall histogram:
        // returning from an ocall is an EENTER too, so the transition
        // counter can exceed the span count.)
        for (event, counter) in [
            (ProfileEvent::TlbMiss, m.stats.tlb_misses),
            (ProfileEvent::Aex, m.stats.aexes),
            (ProfileEvent::Eresume, m.stats.eresumes),
            (ProfileEvent::Paging, m.stats.ewb_pages + m.stats.eldu_pages),
        ] {
            prop_assert_eq!(m.profile.merged(event).count(), counter, "{}", event.name());
        }
    }
}
