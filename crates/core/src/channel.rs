//! Inter-enclave communication channels (§ VI-C, Fig. 11).
//!
//! Two implementations of the same message-queue interface:
//!
//! * [`OuterChannel`] — the nested-enclave way: a ring buffer placed in the
//!   *outer enclave's* heap. Peer inner enclaves read and write it directly
//!   through the hardware-validated path; the MEE protects it from the
//!   untrusted world at cache-line granularity, and no software crypto runs
//!   at all. When the working set fits in the LLC, even the MEE stays idle.
//! * [`UntrustedChannel`] — the monolithic-SGX baseline: a ring buffer in
//!   untrusted memory, every message sealed/opened with AES-GCM. The OS can
//!   observe, drop, and replay the ciphertexts (Panoply's attack surface,
//!   § VII-B) — dropping is silent, replay is detected by sequence numbers.

use crate::runtime::{EnclaveCtx, UntrustedCtx};
use ne_crypto::gcm::AesGcm;
use ne_sgx::addr::VirtAddr;
use ne_sgx::error::{Result, SgxError};

/// Byte offset of the head counter within a channel header.
const HEAD_OFF: u64 = 0;
/// Byte offset of the tail counter (separate cache line from the head).
const TAIL_OFF: u64 = 64;
/// Start of the data region.
const DATA_OFF: u64 = 128;

/// A ring-buffer message queue at a fixed virtual address. Both channel
/// flavors share this layout; they differ in *where* the memory lives and
/// what wraps the payload.
#[derive(Debug, Clone, Copy)]
struct Ring {
    base: VirtAddr,
    capacity: u64,
}

/// Memory-access facade so the ring code works from enclave and untrusted
/// contexts alike.
trait Mem {
    fn m_read(&mut self, va: VirtAddr, len: usize) -> Result<Vec<u8>>;
    fn m_write(&mut self, va: VirtAddr, data: &[u8]) -> Result<()>;
}

impl Mem for EnclaveCtx<'_> {
    fn m_read(&mut self, va: VirtAddr, len: usize) -> Result<Vec<u8>> {
        self.read(va, len)
    }
    fn m_write(&mut self, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.write(va, data)
    }
}

impl Mem for UntrustedCtx<'_> {
    fn m_read(&mut self, va: VirtAddr, len: usize) -> Result<Vec<u8>> {
        self.read(va, len)
    }
    fn m_write(&mut self, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.write(va, data)
    }
}

impl Ring {
    fn read_u64<M: Mem>(mem: &mut M, va: VirtAddr) -> Result<u64> {
        let b = mem.m_read(va, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn write_u64<M: Mem>(mem: &mut M, va: VirtAddr, v: u64) -> Result<()> {
        mem.m_write(va, &v.to_le_bytes())
    }

    fn data_va(&self, logical: u64) -> VirtAddr {
        self.base.add(DATA_OFF + logical % self.capacity)
    }

    /// Copies `data` into the ring at logical position `pos`, handling wrap.
    fn put<M: Mem>(&self, mem: &mut M, pos: u64, data: &[u8]) -> Result<()> {
        let first = ((self.capacity - pos % self.capacity) as usize).min(data.len());
        mem.m_write(self.data_va(pos), &data[..first])?;
        if first < data.len() {
            mem.m_write(self.base.add(DATA_OFF), &data[first..])?;
        }
        Ok(())
    }

    /// Copies `len` bytes out of the ring from logical position `pos`.
    fn get<M: Mem>(&self, mem: &mut M, pos: u64, len: usize) -> Result<Vec<u8>> {
        let first = ((self.capacity - pos % self.capacity) as usize).min(len);
        let mut out = mem.m_read(self.data_va(pos), first)?;
        if first < len {
            out.extend(mem.m_read(self.base.add(DATA_OFF), len - first)?);
        }
        Ok(out)
    }

    fn send<M: Mem>(&self, mem: &mut M, msg: &[u8]) -> Result<()> {
        let head = Self::read_u64(mem, self.base.add(HEAD_OFF))?;
        let tail = Self::read_u64(mem, self.base.add(TAIL_OFF))?;
        let needed = 4 + msg.len() as u64;
        if tail - head + needed > self.capacity {
            return Err(SgxError::GeneralProtection("channel full".into()));
        }
        self.put(mem, tail, &(msg.len() as u32).to_le_bytes())?;
        self.put(mem, tail + 4, msg)?;
        Self::write_u64(mem, self.base.add(TAIL_OFF), tail + needed)
    }

    fn recv<M: Mem>(&self, mem: &mut M) -> Result<Option<Vec<u8>>> {
        let head = Self::read_u64(mem, self.base.add(HEAD_OFF))?;
        let tail = Self::read_u64(mem, self.base.add(TAIL_OFF))?;
        if head == tail {
            return Ok(None);
        }
        let len_bytes = self.get(mem, head, 4)?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let msg = self.get(mem, head + 4, len)?;
        Self::write_u64(mem, self.base.add(HEAD_OFF), head + 4 + len as u64)?;
        Ok(Some(msg))
    }
}

/// A message channel through the shared outer enclave (§ VI-C).
///
/// "Because the outer enclave is protected from the untrusted world, inner
/// enclaves can build a fast message passing system among inner enclaves
/// without encrypting/decrypting data."
#[derive(Debug, Clone, Copy)]
pub struct OuterChannel {
    ring: Ring,
}

impl OuterChannel {
    /// Creates a channel of `capacity` data bytes inside the heap of
    /// `outer` (the caller must be the outer enclave itself or one of its
    /// inners — anything the hardware lets allocate-and-touch that heap).
    ///
    /// # Errors
    ///
    /// Fails when the outer heap cannot fit the ring.
    pub fn create(cx: &mut EnclaveCtx<'_>, outer: &str, capacity: u64) -> Result<OuterChannel> {
        let base = cx.alloc_in(outer, (DATA_OFF + capacity) as usize)?;
        let channel = OuterChannel {
            ring: Ring { base, capacity },
        };
        // Zero the counters through the validated path.
        Ring::write_u64(cx, base.add(HEAD_OFF), 0)?;
        Ring::write_u64(cx, base.add(TAIL_OFF), 0)?;
        Ok(channel)
    }

    /// Reopens a channel created elsewhere from its base address (peers
    /// learn the address through an n_ecall argument or outer-enclave
    /// rendezvous).
    pub fn from_raw(base: VirtAddr, capacity: u64) -> OuterChannel {
        OuterChannel {
            ring: Ring { base, capacity },
        }
    }

    /// The channel's base address (for handing to a peer).
    pub fn base(&self) -> VirtAddr {
        self.ring.base
    }

    /// Data capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.ring.capacity
    }

    /// Sends `msg`. No software crypto: the write lands in the outer
    /// enclave's EPC pages, protected by the MEE.
    ///
    /// # Errors
    ///
    /// `channel full`, or an access fault if the caller is not entitled to
    /// the outer enclave's memory.
    pub fn send(&self, cx: &mut EnclaveCtx<'_>, msg: &[u8]) -> Result<()> {
        self.ring.send(cx, msg)
    }

    /// Receives the next message, if any.
    ///
    /// # Errors
    ///
    /// Access faults for unauthorized callers.
    pub fn recv(&self, cx: &mut EnclaveCtx<'_>) -> Result<Option<Vec<u8>>> {
        self.ring.recv(cx)
    }
}

/// The baseline channel: ciphertext ring in untrusted memory (§ VI-C).
///
/// Messages are AES-GCM sealed with a pre-shared key (established out of
/// band via local attestation) and stamped with a sequence number. Replayed
/// or reordered ciphertexts fail authentication; *silently dropped*
/// messages are indistinguishable from "nothing sent yet" — exactly the
/// Panoply attack nested enclave closes.
#[derive(Debug)]
pub struct UntrustedChannel {
    ring: Ring,
    cipher: AesGcm,
    send_seq: u64,
    recv_seq: u64,
    os_drop_next: bool,
}

impl UntrustedChannel {
    /// Allocates the ring in untrusted memory and wraps it with `key`.
    pub fn create(cx: &mut UntrustedCtx<'_>, key: [u8; 16], capacity: u64) -> UntrustedChannel {
        let pages = ((DATA_OFF + capacity) as usize).div_ceil(ne_sgx::PAGE_SIZE);
        let base = cx.alloc_untrusted(pages);
        UntrustedChannel {
            ring: Ring { base, capacity },
            cipher: AesGcm::new(&key),
            send_seq: 0,
            recv_seq: 0,
            os_drop_next: false,
        }
    }

    /// OS attack hook: silently discard the next message in flight.
    pub fn os_drop_next(&mut self) {
        self.os_drop_next = true;
    }

    /// Sends `msg` from an enclave: seal, then write ciphertext to the
    /// untrusted ring. Charges the software-crypto cost (Fig. 11's `GCM`).
    ///
    /// # Errors
    ///
    /// `channel full`.
    pub fn send(&mut self, cx: &mut EnclaveCtx<'_>, msg: &[u8]) -> Result<()> {
        cx.charge(cx.machine.config().cost.gcm(msg.len()));
        let nonce = Self::nonce(self.send_seq);
        let sealed = self.cipher.seal(&nonce, msg, &self.send_seq.to_le_bytes());
        self.send_seq += 1;
        if self.os_drop_next {
            // The OS controls the transport; the message never lands and
            // nobody is told.
            self.os_drop_next = false;
            return Ok(());
        }
        self.ring.send(cx, &sealed)
    }

    /// Receives and opens the next message.
    ///
    /// # Errors
    ///
    /// Authentication failure on forged/replayed/reordered ciphertexts.
    pub fn recv(&mut self, cx: &mut EnclaveCtx<'_>) -> Result<Option<Vec<u8>>> {
        let sealed = match self.ring.recv(cx)? {
            Some(s) => s,
            None => return Ok(None),
        };
        cx.charge(cx.machine.config().cost.gcm(sealed.len()));
        let nonce = Self::nonce(self.recv_seq);
        let msg = self
            .cipher
            .open(&nonce, &sealed, &self.recv_seq.to_le_bytes())
            .map_err(|_| {
                SgxError::GeneralProtection(
                    "channel message failed authentication (replay/forgery)".into(),
                )
            })?;
        self.recv_seq += 1;
        Ok(Some(msg))
    }

    /// The ring's base address (visible to the OS — it is untrusted
    /// memory).
    pub fn base(&self) -> VirtAddr {
        self.ring.base
    }

    fn nonce(seq: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&seq.to_le_bytes());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edl::Edl;
    use crate::loader::EnclaveImage;
    use crate::runtime::{NestedApp, TrustedFn};
    use ne_sgx::config::HwConfig;
    use std::sync::Arc;

    /// Builds outer "hub" with two inner enclaves "a" and "b". Each inner
    /// exposes `put`/`take` ecalls that talk over a channel whose base is
    /// stashed in a global the test threads through arguments instead.
    fn app_with_inners() -> NestedApp {
        let mut app = NestedApp::new(HwConfig::small());
        let hub = EnclaveImage::new("hub", b"provider").heap_pages(8);
        app.load(hub, []).unwrap();
        for name in ["a", "b"] {
            let img = EnclaveImage::new(name, b"tenant")
                .heap_pages(2)
                .edl(Edl::new().ecall("mk").ecall("put").ecall("take"));
            let mk: TrustedFn = Arc::new(|cx, args| {
                let cap = u64::from_le_bytes(args.try_into().expect("8"));
                let ch = OuterChannel::create(cx, "hub", cap)?;
                Ok(ch.base().0.to_le_bytes().to_vec())
            });
            let put: TrustedFn = Arc::new(|cx, args| {
                let base = u64::from_le_bytes(args[..8].try_into().expect("8"));
                let cap = u64::from_le_bytes(args[8..16].try_into().expect("8"));
                let ch = OuterChannel::from_raw(VirtAddr(base), cap);
                ch.send(cx, &args[16..])?;
                Ok(vec![])
            });
            let take: TrustedFn = Arc::new(|cx, args| {
                let base = u64::from_le_bytes(args[..8].try_into().expect("8"));
                let cap = u64::from_le_bytes(args[8..16].try_into().expect("8"));
                let ch = OuterChannel::from_raw(VirtAddr(base), cap);
                Ok(ch.recv(cx)?.unwrap_or_default())
            });
            app.load(
                img,
                [
                    ("mk".to_string(), mk),
                    ("put".to_string(), put),
                    ("take".to_string(), take),
                ],
            )
            .unwrap();
            app.associate(name, "hub").unwrap();
        }
        app
    }

    #[test]
    fn inner_to_inner_through_outer() {
        let mut app = app_with_inners();
        let cap = 1024u64;
        let base = app.ecall(0, "a", "mk", &cap.to_le_bytes()).unwrap();
        let mut put_args = base.clone();
        put_args.extend_from_slice(&cap.to_le_bytes());
        put_args.extend_from_slice(b"hello peer");
        app.ecall(0, "a", "put", &put_args).unwrap();
        let mut take_args = base;
        take_args.extend_from_slice(&cap.to_le_bytes());
        let got = app.ecall(0, "b", "take", &take_args).unwrap();
        assert_eq!(got, b"hello peer");
    }

    #[test]
    fn os_cannot_observe_outer_channel() {
        let mut app = app_with_inners();
        let cap = 1024u64;
        let base = app.ecall(0, "a", "mk", &cap.to_le_bytes()).unwrap();
        let mut put_args = base.clone();
        put_args.extend_from_slice(&cap.to_le_bytes());
        put_args.extend_from_slice(b"CHANNEL-SECRET");
        app.ecall(0, "a", "put", &put_args).unwrap();
        let base_va = VirtAddr(u64::from_le_bytes(base.try_into().expect("8")));
        let snooped = app.untrusted(0, |cx| cx.read(base_va.add(DATA_OFF), 32).unwrap());
        assert_eq!(snooped, vec![0xFF; 32], "OS sees only abort-page ones");
    }

    #[test]
    fn ring_wraparound() {
        let mut app = app_with_inners();
        let cap = 64u64; // tiny ring to force wrap
        let base = app.ecall(0, "a", "mk", &cap.to_le_bytes()).unwrap();
        for round in 0..10u8 {
            let msg = vec![round; 24];
            let mut put_args = base.clone();
            put_args.extend_from_slice(&cap.to_le_bytes());
            put_args.extend_from_slice(&msg);
            app.ecall(0, "a", "put", &put_args).unwrap();
            let mut take_args = base.clone();
            take_args.extend_from_slice(&cap.to_le_bytes());
            let got = app.ecall(0, "b", "take", &take_args).unwrap();
            assert_eq!(got, msg, "round {round}");
        }
    }

    #[test]
    fn channel_full_reported() {
        let mut app = app_with_inners();
        let cap = 64u64;
        let base = app.ecall(0, "a", "mk", &cap.to_le_bytes()).unwrap();
        let mut put_args = base.clone();
        put_args.extend_from_slice(&cap.to_le_bytes());
        put_args.extend_from_slice(&[9u8; 61]); // 4 + 61 > 64
        let err = app.ecall(0, "a", "put", &put_args).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    /// Untrusted-channel tests run between two plain enclaves.
    fn gcm_pair() -> NestedApp {
        let mut app = NestedApp::new(HwConfig::small());
        for name in ["tx", "rx"] {
            let img = EnclaveImage::new(name, b"owner")
                .heap_pages(1)
                .edl(Edl::new().ecall("noop"));
            app.load(
                img,
                [(
                    "noop".to_string(),
                    Arc::new(|_: &mut EnclaveCtx<'_>, _: &[u8]| Ok(vec![])) as TrustedFn,
                )],
            )
            .unwrap();
        }
        app
    }

    #[test]
    fn untrusted_channel_roundtrip_and_replay_detection() {
        let mut app = gcm_pair();
        let key = [7u8; 16];
        let mut ch = app.untrusted(0, |cx| UntrustedChannel::create(cx, key, 4096));
        let tx = app.eid("tx").unwrap();
        let tx_base = app.layout("tx").unwrap().base;
        app.machine.eenter(0, tx, tx_base).unwrap();
        {
            let mut cx = test_ctx(&mut app, 0, "tx");
            ch.send(&mut cx, b"msg one").unwrap();
            ch.send(&mut cx, b"msg two").unwrap();
            let got = ch.recv(&mut cx).unwrap().unwrap();
            assert_eq!(got, b"msg one");
            let got = ch.recv(&mut cx).unwrap().unwrap();
            assert_eq!(got, b"msg two");
            assert_eq!(ch.recv(&mut cx).unwrap(), None);
        }
        app.machine.eexit(0).unwrap();
    }

    #[test]
    fn os_snoops_only_ciphertext_on_untrusted_channel() {
        let mut app = gcm_pair();
        let key = [7u8; 16];
        let mut ch = app.untrusted(0, |cx| UntrustedChannel::create(cx, key, 4096));
        let tx = app.eid("tx").unwrap();
        let tx_base = app.layout("tx").unwrap().base;
        app.machine.eenter(0, tx, tx_base).unwrap();
        {
            let mut cx = test_ctx(&mut app, 0, "tx");
            ch.send(&mut cx, b"SUPER-SECRET-PAYLOAD").unwrap();
        }
        app.machine.eexit(0).unwrap();
        let base = ch.base();
        let raw = app.untrusted(0, |cx| cx.read(base.add(DATA_OFF), 64).unwrap());
        assert!(
            !raw.windows(20).any(|w| w == b"SUPER-SECRET-PAYLOAD"),
            "payload must be encrypted in untrusted memory"
        );
    }

    #[test]
    fn os_silent_drop_is_undetectable_on_untrusted_channel() {
        // The Panoply attack (§ VII-B): the OS drops a message; the receiver
        // just sees an empty channel and proceeds.
        let mut app = gcm_pair();
        let mut ch = app.untrusted(0, |cx| UntrustedChannel::create(cx, [7; 16], 4096));
        let tx = app.eid("tx").unwrap();
        let tx_base = app.layout("tx").unwrap().base;
        app.machine.eenter(0, tx, tx_base).unwrap();
        {
            let mut cx = test_ctx(&mut app, 0, "tx");
            ch.os_drop_next();
            ch.send(&mut cx, b"initialize callback").unwrap(); // silently gone
            assert_eq!(
                ch.recv(&mut cx).unwrap(),
                None,
                "receiver cannot distinguish a dropped message from silence"
            );
        }
        app.machine.eexit(0).unwrap();
    }

    #[test]
    fn os_tamper_detected_on_untrusted_channel() {
        let mut app = gcm_pair();
        let mut ch = app.untrusted(0, |cx| UntrustedChannel::create(cx, [7; 16], 4096));
        let tx = app.eid("tx").unwrap();
        let tx_base = app.layout("tx").unwrap().base;
        app.machine.eenter(0, tx, tx_base).unwrap();
        {
            let mut cx = test_ctx(&mut app, 0, "tx");
            ch.send(&mut cx, b"important").unwrap();
        }
        app.machine.eexit(0).unwrap();
        // OS flips a ciphertext bit.
        let base = ch.base();
        let byte = app.untrusted(0, |cx| cx.read(base.add(DATA_OFF + 4), 1).unwrap());
        app.untrusted(0, |cx| {
            cx.write(base.add(DATA_OFF + 4), &[byte[0] ^ 1]).unwrap()
        });
        app.machine.eenter(0, tx, tx_base).unwrap();
        {
            let mut cx = test_ctx(&mut app, 0, "tx");
            let err = ch.recv(&mut cx).unwrap_err();
            assert!(matches!(err, SgxError::GeneralProtection(_)));
        }
        app.machine.eexit(0).unwrap();
    }

    #[test]
    fn gcm_channel_charges_crypto_cycles_outer_channel_does_not() {
        // Compare the raw channel operations (no call dispatch on either
        // side): the MEE path must beat software GCM per message.
        let mut app = app_with_inners();
        let cap = 8192u64;
        let base = app.ecall(0, "a", "mk", &cap.to_le_bytes()).unwrap();
        let base_va = VirtAddr(u64::from_le_bytes(base.try_into().expect("8")));
        let ch = OuterChannel::from_raw(base_va, cap);
        let msg = vec![0x5Au8; 1024];
        let a_eid = app.eid("a").unwrap();
        let a_base = app.layout("a").unwrap().base;
        app.machine.eenter(0, a_eid, a_base).unwrap();
        app.machine.reset_metrics();
        {
            let mut cx = test_ctx(&mut app, 0, "a");
            ch.send(&mut cx, &msg).unwrap();
        }
        let outer_cycles = app.machine.cycles(0);
        app.machine.eexit(0).unwrap();

        let mut gcm_app = gcm_pair();
        let mut ch = gcm_app.untrusted(0, |cx| UntrustedChannel::create(cx, [7; 16], 65536));
        let tx = gcm_app.eid("tx").unwrap();
        let tx_base = gcm_app.layout("tx").unwrap().base;
        gcm_app.machine.eenter(0, tx, tx_base).unwrap();
        gcm_app.machine.reset_metrics();
        {
            let mut cx = test_ctx(&mut gcm_app, 0, "tx");
            ch.send(&mut cx, &msg).unwrap();
        }
        let gcm_cycles = gcm_app.machine.cycles(0);
        gcm_app.machine.eexit(0).unwrap();
        assert!(
            gcm_cycles > outer_cycles,
            "software GCM ({gcm_cycles}) must cost more than the MEE path ({outer_cycles})"
        );
    }

    /// Builds an EnclaveCtx for tests that drive channels directly while
    /// already inside an enclave.
    fn test_ctx<'a>(app: &'a mut NestedApp, core: usize, name: &str) -> EnclaveCtx<'a> {
        app.enclave_ctx(core, name)
    }
}
