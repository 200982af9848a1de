//! Switchless (exitless) ocalls.
//!
//! The paper's related work (§ IX) points at HotCalls \[54\] and the SDK's
//! switchless calls \[47\]: instead of paying an EEXIT/EENTER round trip per
//! ocall, the enclave writes a request descriptor into *untrusted shared
//! memory* and an untrusted worker thread on another core services it
//! while the enclave thread polls for the response. No transition, no TLB
//! flush — at the price of a busy worker core and per-call copies.
//!
//! This module implements that mechanism on the simulator: the request and
//! response slots live in untrusted memory (an enclave may read and write
//! untrusted memory freely), the worker runs on a different simulated
//! core, and the cost model charges polling and copies instead of
//! Table II transition costs. The `ablation_switchless` binary compares
//! the two mechanisms.

use crate::runtime::{EnclaveCtx, UntrustedCtx};
use ne_sgx::addr::VirtAddr;
use ne_sgx::error::{Result, SgxError};
use ne_sgx::metrics::CycleCategory;
use ne_sgx::trace::{Event, SpanKind};

/// Cycles the caller spends on the synchronization handshake (store
/// request flag, poll response flag) — calibrated near HotCalls' reported
/// ~600-cycle hot call.
const SYNC_CYCLES: u64 = 620;
/// Cycles the worker core burns polling for work per serviced call
/// (amortized busy-wait share).
const WORKER_POLL_CYCLES: u64 = 400;

/// A switchless call queue: one request/response slot pair in untrusted
/// memory plus the identity of the worker core that services it.
#[derive(Debug, Clone, Copy)]
pub struct SwitchlessQueue {
    slot: VirtAddr,
    capacity: usize,
    worker_core: usize,
}

impl SwitchlessQueue {
    /// Allocates the shared slot in untrusted memory. `capacity` bounds
    /// request and response payload sizes; `worker_core` is the core the
    /// untrusted worker thread runs on.
    pub fn create(
        cx: &mut UntrustedCtx<'_>,
        capacity: usize,
        worker_core: usize,
    ) -> SwitchlessQueue {
        let pages = (capacity * 2 + 64).div_ceil(ne_sgx::PAGE_SIZE);
        let slot = cx.alloc_untrusted(pages);
        SwitchlessQueue {
            slot,
            capacity,
            worker_core,
        }
    }

    /// Reconstructs a queue handle from its slot address (how an enclave
    /// function receives the queue the untrusted side created).
    pub fn with_slot(slot: VirtAddr, capacity: usize, worker_core: usize) -> SwitchlessQueue {
        SwitchlessQueue {
            slot,
            capacity,
            worker_core,
        }
    }

    /// The untrusted slot address (visible to the OS — by design; payloads
    /// crossing here are as exposed as classic ocall arguments).
    pub fn slot(&self) -> VirtAddr {
        self.slot
    }

    /// Performs a switchless ocall: marshal the request into the shared
    /// slot, have the worker core service it, and read the response —
    /// without ever leaving enclave mode.
    ///
    /// # Errors
    ///
    /// Oversized payloads, unknown functions, and whatever the untrusted
    /// function itself returns. [`SgxError::Stalled`] when an injected
    /// stall window has the worker core not polling — the caller is free
    /// to degrade to a classic exit-based ocall.
    pub fn ocall(&self, cx: &mut EnclaveCtx<'_>, func: &str, args: &[u8]) -> Result<Vec<u8>> {
        if args.len() > self.capacity {
            return Err(SgxError::GeneralProtection(
                "switchless request exceeds slot capacity".into(),
            ));
        }
        if cx.machine.current_enclave(self.worker_core).is_some() {
            return Err(SgxError::GeneralProtection(
                "switchless worker core is not in untrusted mode".into(),
            ));
        }
        // Fail before any marshalling or accounting: a stalled worker never
        // saw the request, so the call must look like it never started.
        if cx.machine.chaos_take_stall() {
            return Err(SgxError::Stalled(
                "switchless reply core stopped polling".into(),
            ));
        }
        let caller_core = cx.core();
        let span = cx.machine.span_begin(
            caller_core,
            SpanKind::SwitchlessOcall,
            format_args!("{func}"),
        );
        cx.machine.note(Event::SwitchlessOcall);
        // Marshal the request into untrusted memory (the enclave writes
        // untrusted pages directly; costs accrue through the memory model).
        cx.write(self.slot, &(args.len() as u32).to_le_bytes())?;
        cx.write(self.slot.add(4), args)?;
        // The handshake replaces a hardware transition, so it lands in the
        // same cycle category as EEXIT/EENTER would.
        cx.machine
            .charge_cat(caller_core, CycleCategory::Transition, SYNC_CYCLES);
        // The worker core picks it up and runs the untrusted function.
        let request = {
            let len_bytes = cx.machine.read(self.worker_core, self.slot, 4)?;
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
            cx.machine.read(self.worker_core, self.slot.add(4), len)?
        };
        cx.machine.charge_cat(
            self.worker_core,
            CycleCategory::Transition,
            WORKER_POLL_CYCLES,
        );
        let response = cx.run_untrusted_on(self.worker_core, func, &request)?;
        if response.len() > self.capacity {
            return Err(SgxError::GeneralProtection(
                "switchless response exceeds slot capacity".into(),
            ));
        }
        let resp_off = 4 + self.capacity as u64;
        cx.machine.write(
            self.worker_core,
            self.slot.add(resp_off),
            &(response.len() as u32).to_le_bytes(),
        )?;
        cx.machine
            .write(self.worker_core, self.slot.add(resp_off + 4), &response)?;
        // The enclave thread observes the response flag and copies out.
        let len_bytes = cx.read(self.slot.add(resp_off), 4)?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let out = cx.read(self.slot.add(resp_off + 4), len);
        cx.machine.span_end(caller_core, span);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edl::Edl;
    use crate::loader::EnclaveImage;
    use crate::runtime::{NestedApp, TrustedFn, UntrustedFn};
    use ne_sgx::config::HwConfig;
    use std::sync::Arc;

    fn app_with_queue() -> NestedApp {
        let mut app = NestedApp::new(HwConfig::small());
        app.register_untrusted(
            "upper",
            Arc::new(|_cx: &mut crate::runtime::UntrustedCtx<'_>, args: &[u8]| {
                Ok(args.to_ascii_uppercase())
            }) as UntrustedFn,
        );
        let img = EnclaveImage::new("e", b"o")
            .heap_pages(2)
            .edl(Edl::new().ecall("run").ocall("upper"));
        let run: TrustedFn = Arc::new(|cx, args| {
            let q = SwitchlessQueue {
                slot: VirtAddr(u64::from_le_bytes(args[..8].try_into().expect("8"))),
                capacity: 256,
                worker_core: 1,
            };
            q.ocall(cx, "upper", &args[8..])
        });
        app.load(img, [("run".to_string(), run)]).unwrap();
        app
    }

    #[test]
    fn switchless_ocall_roundtrip_without_transitions() {
        let mut app = app_with_queue();
        let q = app.untrusted(0, |cx| SwitchlessQueue::create(cx, 256, 1));
        let mut args = q.slot().0.to_le_bytes().to_vec();
        args.extend_from_slice(b"hello switchless");
        app.machine.reset_metrics();
        let out = app.ecall(0, "e", "run", &args).unwrap();
        assert_eq!(out, b"HELLO SWITCHLESS");
        let s = app.machine.stats();
        // Exactly the outer ecall pair; the ocall itself crossed nothing.
        assert_eq!(s.ecalls, 1);
        assert_eq!(s.ocalls, 1);
    }

    #[test]
    fn switchless_is_cheaper_than_classic_ocall_on_the_caller() {
        let mut app = app_with_queue();
        let q = app.untrusted(0, |cx| SwitchlessQueue::create(cx, 256, 1));
        // Classic path for comparison.
        let classic: TrustedFn = Arc::new(|cx, args| cx.ocall("upper", args));
        let img = EnclaveImage::new("classic", b"o")
            .heap_pages(2)
            .edl(Edl::new().ecall("run").ocall("upper"));
        app.load(img, [("run".to_string(), classic)]).unwrap();

        let mut args = q.slot().0.to_le_bytes().to_vec();
        args.extend_from_slice(b"payload");
        app.machine.reset_metrics();
        app.ecall(0, "e", "run", &args).unwrap();
        let switchless_cycles = app.machine.cycles(0);
        app.machine.reset_metrics();
        app.ecall(0, "classic", "run", b"payload").unwrap();
        let classic_cycles = app.machine.cycles(0);
        assert!(
            switchless_cycles < classic_cycles,
            "switchless {switchless_cycles} must beat classic {classic_cycles} on the caller core"
        );
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut app = app_with_queue();
        let q = app.untrusted(0, |cx| SwitchlessQueue::create(cx, 256, 1));
        let mut args = q.slot().0.to_le_bytes().to_vec();
        args.extend_from_slice(&[0u8; 300]);
        let err = app.ecall(0, "e", "run", &args).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn busy_worker_core_rejected() {
        let mut app = app_with_queue();
        let q = app.untrusted(0, |cx| SwitchlessQueue::create(cx, 256, 1));
        // Park an enclave thread on the worker core.
        let l = app.layout("e").unwrap();
        app.machine.eenter(1, l.eid, l.base).unwrap();
        let mut args = q.slot().0.to_le_bytes().to_vec();
        args.extend_from_slice(b"x");
        let err = app.ecall(0, "e", "run", &args).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }
}
