//! Security test matrix: every attack the paper's Table VII and § VII
//! discuss, executed against the simulated hardware.
//!
//! | attack | expected outcome |
//! |---|---|
//! | OpenSSL bug leaks app memory (§ VI-A) | blocked by inner/outer isolation |
//! | Library reads privacy-sensitive data (§ VI-B) | blocked |
//! | OS eavesdrops/controls inter-enclave channel (§ VI-C) | blocked by outer channel |
//! | Unauthorized inner joins an outer (§ VII-B) | rejected by NASSO |
//! | OS page-remap attacks | defeated by EPCM VA check |
//! | Physical DRAM probing/tampering | ciphertext only / integrity fault |

use ne_core::channel::OuterChannel;
use ne_core::edl::Edl;
use ne_core::loader::EnclaveImage;
use ne_core::nasso::{nasso, AssocPolicy, ExpectedIdentity};
use ne_core::runtime::NestedApp;
use ne_sgx::config::HwConfig;
use ne_sgx::epcm::PagePerms;
use ne_sgx::error::{FaultKind, SgxError};
use ne_sgx::ProcessId;

/// Builds the standard topology: outer "hub" with inner enclaves "a", "b".
fn topology() -> NestedApp {
    let mut app = NestedApp::new(HwConfig::testbed());
    app.load(
        EnclaveImage::new("hub", b"provider")
            .heap_pages(8)
            .edl(Edl::new()),
        [],
    )
    .unwrap();
    for n in ["a", "b"] {
        app.load(
            EnclaveImage::new(n, b"tenant")
                .heap_pages(2)
                .edl(Edl::new()),
            [],
        )
        .unwrap();
        app.associate(n, "hub").unwrap();
    }
    app
}

#[test]
fn outer_cannot_read_or_write_inner() {
    let mut app = topology();
    let a = app.layout("a").unwrap();
    let hub = app.layout("hub").unwrap();
    app.machine.eenter(0, a.eid, a.base).unwrap();
    app.machine.write(0, a.heap_base, b"tenant secret").unwrap();
    app.machine.eexit(0).unwrap();
    app.machine.eenter(0, hub.eid, hub.base).unwrap();
    let err = app.machine.read(0, a.heap_base, 13).unwrap_err();
    assert!(err.is_fault(FaultKind::EpcmEnclaveMismatch));
    let err = app.machine.write(0, a.heap_base, b"overwrite").unwrap_err();
    assert!(err.is_fault(FaultKind::EpcmEnclaveMismatch));
    app.machine.eexit(0).unwrap();
    // And the secret is intact.
    app.machine.eenter(0, a.eid, a.base).unwrap();
    assert_eq!(
        app.machine.read(0, a.heap_base, 13).unwrap(),
        b"tenant secret"
    );
}

#[test]
fn peer_inners_cannot_read_each_other() {
    let mut app = topology();
    let a = app.layout("a").unwrap();
    let b = app.layout("b").unwrap();
    app.machine.eenter(0, a.eid, a.base).unwrap();
    app.machine.write(0, a.heap_base, b"alice-only").unwrap();
    app.machine.eexit(0).unwrap();
    app.machine.eenter(0, b.eid, b.base).unwrap();
    let err = app.machine.read(0, a.heap_base, 10).unwrap_err();
    assert!(err.is_fault(FaultKind::EpcmEnclaveMismatch));
}

#[test]
fn untrusted_world_sees_abort_page_everywhere() {
    let mut app = topology();
    for name in ["hub", "a", "b"] {
        let l = app.layout(name).unwrap();
        let data = app.untrusted(0, |cx| cx.read(l.heap_base, 8)).unwrap();
        assert_eq!(data, vec![0xFF; 8], "{name} leaked to untrusted code");
        // Writes are dropped silently.
        app.untrusted(0, |cx| cx.write(l.heap_base, b"inject"))
            .unwrap();
    }
    app.machine.audit_tlbs().unwrap();
}

#[test]
fn os_remap_cannot_graft_inner_page_into_outer_range() {
    // The OS remaps a VA inside the *outer's* ELRANGE onto an *inner* EPC
    // frame, hoping the outer gains access: the EPCM VA check kills it.
    let mut app = topology();
    let a = app.layout("a").unwrap();
    let hub = app.layout("hub").unwrap();
    let inner_frame = app
        .machine
        .os_lookup(ProcessId(0), a.heap_base.vpn())
        .unwrap()
        .ppn;
    app.machine.os_map(
        ProcessId(0),
        hub.heap_base.vpn(),
        inner_frame,
        PagePerms::RW,
    );
    app.machine.flush_all_tlbs();
    app.machine.eenter(0, hub.eid, hub.base).unwrap();
    let err = app.machine.read(0, hub.heap_base, 8).unwrap_err();
    assert!(matches!(err, SgxError::Fault { .. }));
    app.machine.audit_tlbs().unwrap();
}

#[test]
fn os_remap_cannot_alias_two_outer_vas() {
    // Aliasing one outer EPC frame at a second VA inside the outer range
    // must fail the EPCM virtual-address check even for the *inner*
    // enclave's accesses (invariant 4).
    let mut app = topology();
    let hub = app.layout("hub").unwrap();
    let a = app.layout("a").unwrap();
    let frame = app
        .machine
        .os_lookup(ProcessId(0), hub.heap_base.vpn())
        .unwrap()
        .ppn;
    let alias = hub.heap_base.add(4096);
    app.machine
        .os_map(ProcessId(0), alias.vpn(), frame, PagePerms::RW);
    app.machine.flush_all_tlbs();
    app.machine.eenter(0, a.eid, a.base).unwrap();
    let err = app.machine.read(0, alias, 8).unwrap_err();
    assert!(
        err.is_fault(FaultKind::EpcmAddressMismatch)
            || err.is_fault(FaultKind::EpcmEnclaveMismatch),
        "aliased mapping must fault, got {err}"
    );
}

#[test]
fn nasso_rejects_unauthorized_join() {
    // § VII-B "Secure binding": a malicious inner, even one signed by a
    // legitimate-looking author, cannot join an outer whose file does not
    // list it.
    let mut app = NestedApp::new(HwConfig::testbed());
    let victim_inner_img = EnclaveImage::new("victim", b"tenant").edl(Edl::new());
    // The outer pins the victim inner's exact measurement.
    let victim_base = ne_sgx::VirtAddr(0x1000_0000 + 6 * 4096);
    let outer_img = EnclaveImage::new("hub", b"provider")
        .expect_inner(victim_inner_img.identity(victim_base))
        .edl(Edl::new());
    app.load(outer_img, []).unwrap();
    app.load(victim_inner_img, []).unwrap();
    app.load(EnclaveImage::new("mallory", b"tenant").edl(Edl::new()), [])
        .unwrap();
    // The victim (loaded exactly where the identity was computed) joins.
    assert_eq!(app.layout("victim").unwrap().base, victim_base);
    app.associate("victim", "hub").unwrap();
    // Mallory is rejected by the hardware.
    let mallory = app.eid("mallory").unwrap();
    let hub = app.eid("hub").unwrap();
    let hub_id = ExpectedIdentity::enclave(app.machine.enclaves().get(hub).unwrap().mrenclave);
    let victim_id = app
        .machine
        .enclaves()
        .get(app.eid("victim").unwrap())
        .unwrap()
        .mrenclave;
    let err = nasso(
        &mut app.machine,
        mallory,
        hub,
        &hub_id,
        &ExpectedIdentity::enclave(victim_id), // outer only authorizes the victim
        AssocPolicy::Lattice,
    )
    .unwrap_err();
    assert!(matches!(err, SgxError::InitVerification(_)));
    // And mallory gains no access.
    let hub_heap = app.layout("hub").unwrap().heap_base;
    let mallory_base = app.layout("mallory").unwrap().base;
    app.machine.eenter(0, mallory, mallory_base).unwrap();
    assert!(app.machine.read(0, hub_heap, 8).is_err());
}

#[test]
fn nasso_rejects_join_to_an_unexpected_outer() {
    // The inner-side twin of `nasso_rejects_unauthorized_join`: an inner
    // enclave's file pins the outer it may bind to, so an OS that offers
    // it a different outer (even one by the same author) is refused.
    let mut app = NestedApp::new(HwConfig::testbed());
    let outer_a = EnclaveImage::new("hub-a", b"provider").edl(Edl::new());
    app.load(outer_a.clone(), []).unwrap();
    app.load(EnclaveImage::new("hub-b", b"provider").edl(Edl::new()), [])
        .unwrap();
    let a_id = outer_a.identity(app.layout("hub-a").unwrap().base);
    app.load(
        EnclaveImage::new("tenant", b"tenant")
            .expect_outer(a_id)
            .edl(Edl::new()),
        [],
    )
    .unwrap();
    let err = app.associate("tenant", "hub-b").unwrap_err();
    assert!(matches!(err, SgxError::InitVerification(_)), "got {err}");
    app.associate("tenant", "hub-a").unwrap();
}

#[test]
fn os_cannot_drop_or_see_outer_channel_messages() {
    let mut app = topology();
    let a = app.layout("a").unwrap();
    app.machine.eenter(0, a.eid, a.base).unwrap();
    let ch = {
        let mut cx = app.enclave_ctx(0, "a");
        let ch = OuterChannel::create(&mut cx, "hub", 4096).unwrap();
        ch.send(&mut cx, b"certificate check request").unwrap();
        ch
    };
    app.machine.eexit(0).unwrap();
    // The OS scans all of untrusted-visible memory: the message is nowhere
    // (reads of the channel return abort-page ones), and there is no
    // transport hook to drop from.
    let snooped = app
        .untrusted(0, |cx| cx.read(ch.base().add(128), 64))
        .unwrap();
    assert_eq!(snooped, vec![0xFF; 64]);
    // The receiver still gets the message.
    let b = app.layout("b").unwrap();
    app.machine.eenter(0, b.eid, b.base).unwrap();
    let mut cx = app.enclave_ctx(0, "b");
    assert_eq!(
        cx_recv(&ch, &mut cx),
        Some(b"certificate check request".to_vec())
    );
}

fn cx_recv(ch: &OuterChannel, cx: &mut ne_core::runtime::EnclaveCtx<'_>) -> Option<Vec<u8>> {
    ch.recv(cx).unwrap()
}

#[test]
fn physical_attacks_on_epc_fail() {
    let mut app = topology();
    let a = app.layout("a").unwrap();
    app.machine.eenter(0, a.eid, a.base).unwrap();
    app.machine
        .write(0, a.heap_base, b"COLD-BOOT-TARGET")
        .unwrap();
    app.machine.eexit(0).unwrap();
    let frame = app
        .machine
        .os_lookup(ProcessId(0), a.heap_base.vpn())
        .unwrap()
        .ppn;
    // Probing the DRAM bus yields ciphertext.
    let probe = app.machine.physical_probe(frame);
    assert!(!probe.windows(16).any(|w| w == b"COLD-BOOT-TARGET"));
    // Tampering is caught by the integrity tree on the next access.
    app.machine.physical_tamper(frame.base(), &[0xEE; 16]);
    app.machine.eenter(0, a.eid, a.base).unwrap();
    let err = app.machine.read(0, a.heap_base, 16).unwrap_err();
    assert!(err.is_fault(FaultKind::IntegrityViolation));
}

#[test]
fn exec_from_untrusted_memory_blocked_in_enclave_mode() {
    // Code-injection via untrusted pages: an enclave (inner or outer) can
    // read untrusted memory but never execute it.
    let mut app = topology();
    let a = app.layout("a").unwrap();
    let evil = app.untrusted(0, |cx| cx.alloc_untrusted(1));
    app.untrusted(0, |cx| cx.write(evil, b"\xCC\xCC")).unwrap();
    app.machine.eenter(0, a.eid, a.base).unwrap();
    assert!(app.machine.read(0, evil, 2).is_ok(), "reads are allowed");
    let err = app.machine.fetch(0, evil).unwrap_err();
    assert!(err.is_fault(FaultKind::ExecFromNonExec));
}

#[test]
fn neexit_scrub_prevents_register_leak_to_outer() {
    let mut app = topology();
    let a = app.layout("a").unwrap();
    let hub = app.layout("hub").unwrap();
    app.machine.eenter(0, hub.eid, hub.base).unwrap();
    ne_core::neenter(&mut app.machine, 0, a.eid, a.base).unwrap();
    app.machine.set_reg(0, 5, 0x5EC4E7);
    ne_core::neexit(&mut app.machine, 0).unwrap();
    // Back in the outer: every register is zero.
    for r in 0..8 {
        assert_eq!(app.machine.reg(0, r), 0);
    }
}
