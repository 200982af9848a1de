//! Sealed-state lifecycle: freeze an inner enclave's session state into a
//! versioned, MACed, counter-stamped blob, and gate tenant admission on a
//! verified NEREPORT chain (ROADMAP item 2).
//!
//! # Sealing
//!
//! [`seal_state`] runs **inside** the enclave (it needs `EGETKEY`, which
//! only answers in enclave mode) and produces a blob an untrusted host can
//! hold, ship across shards, and hand to a rebuilt enclave:
//!
//! ```text
//! header:  "NE-SEAL" | version u16 | tenant u64 | counter u64 | len u32
//! body:    nonce[12] | AES-128-GCM(seal_key, nonce, payload, aad=header)
//! ```
//!
//! The header is authenticated as GCM AAD, so tenant id, monotonic
//! counter, and length cannot be tampered without failing the tag; the
//! key comes from `EGETKEY(SealToEnclave)`, so only an enclave with the
//! **same measurement** — e.g. the same service image rebuilt after
//! `EREMOVE`, on this machine or a sibling shard — can open it. The nonce
//! is derived from the sealed content, keeping the whole pipeline
//! deterministic (same state + counter → same blob, byte for byte).
//!
//! # Rollback refusal
//!
//! The counter makes replay detectable: the host remembers the counter it
//! sealed with, and [`unseal_state`] refuses any blob whose counter is
//! below the expected floor with a typed
//! [`LifecycleError::Rollback`] — the same stance `ne-tls` takes on
//! version/cipher rollback offers. A stale-but-authentic blob is an
//! *attack*, not an error to recover from.
//!
//! # NEREPORT-gated admission
//!
//! [`attest_chain`] drives the paper's § IV-E nested attestation as an
//! admission gate: the inner enclave issues a NEREPORT targeted at its
//! gate ([`collect_report`]), and the gate verifies it
//! ([`admit_report`]) — MAC first, then freshness (the caller's nonce
//! must echo in `report_data`), then the reporter's live measurement,
//! then that the relation list names the gate as an **outer** of the
//! reporter. Each failure is a distinct [`AttestError`] so the host can
//! count refusal reasons per tenant.
//!
//! Blobs come from the untrusted host, so this module may not index,
//! unwrap or panic: every access is checked and a bad blob is a
//! [`LifecycleError`].
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::report::{nereport, verify_nested_report, NestedReport, Relation};
use crate::runtime::{EnclaveCtx, NestedApp};
use ne_crypto::gcm::AesGcm;
use ne_sgx::attest::{KeyPolicy, ReportData};
use ne_sgx::error::SgxError;
use std::fmt;

/// Magic prefix of every sealed-state blob.
const MAGIC: &[u8; 7] = b"NE-SEAL";
/// Current sealed-state format version.
const VERSION: u16 = 1;
/// Header length: magic + version + tenant + counter + payload length.
const HEADER_LEN: usize = 7 + 2 + 8 + 8 + 4;
/// GCM nonce length.
const NONCE_LEN: usize = 12;
/// GCM tag length.
const TAG_LEN: usize = 16;

/// Why a sealed blob could not be produced or opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleError {
    /// The blob ended before the structure its header promised.
    Truncated,
    /// The blob does not start with the sealed-state magic.
    BadMagic,
    /// The blob's format version is not one this build reads.
    BadVersion(u16),
    /// The blob was sealed for a different tenant.
    WrongTenant {
        /// Tenant id stamped in the blob.
        presented: u64,
        /// Tenant id the caller expected.
        expected: u64,
    },
    /// The GCM tag did not verify: forged, corrupted, or sealed by an
    /// enclave with a different measurement.
    BadMac,
    /// Replay refused: the blob is authentic but its monotonic counter is
    /// below the expected floor — someone is feeding back old state.
    Rollback {
        /// Counter stamped in the (authentic) blob.
        presented: u64,
        /// Lowest counter the caller accepts.
        expected: u64,
    },
    /// An architectural fault (e.g. `EGETKEY` outside enclave mode).
    Sgx(SgxError),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::Truncated => write!(f, "sealed blob truncated"),
            LifecycleError::BadMagic => write!(f, "not a sealed-state blob"),
            LifecycleError::BadVersion(v) => write!(f, "unsupported sealed-state version {v}"),
            LifecycleError::WrongTenant {
                presented,
                expected,
            } => write!(f, "blob sealed for tenant {presented}, expected {expected}"),
            LifecycleError::BadMac => write!(f, "sealed blob failed authentication"),
            LifecycleError::Rollback {
                presented,
                expected,
            } => write!(
                f,
                "rollback refused: sealed counter {presented} below expected {expected}"
            ),
            LifecycleError::Sgx(e) => write!(f, "sgx: {e}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl From<SgxError> for LifecycleError {
    fn from(e: SgxError) -> LifecycleError {
        LifecycleError::Sgx(e)
    }
}

fn header(tenant: u64, counter: u64, payload_len: usize) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..7].copy_from_slice(MAGIC);
    h[7..9].copy_from_slice(&VERSION.to_le_bytes());
    h[9..17].copy_from_slice(&tenant.to_le_bytes());
    h[17..25].copy_from_slice(&counter.to_le_bytes());
    h[25..29].copy_from_slice(&(payload_len as u32).to_le_bytes());
    h
}

/// Reads the (unauthenticated) header of a sealed blob: `(tenant,
/// counter, payload_len)`. The untrusted host uses this to route blobs
/// and pre-check counters; nothing read here is trusted until
/// [`unseal_state`] verifies the tag over the same bytes as AAD.
///
/// # Errors
///
/// [`LifecycleError::Truncated`] / [`LifecycleError::BadMagic`] /
/// [`LifecycleError::BadVersion`] on malformed input.
pub fn peek_header(blob: &[u8]) -> Result<(u64, u64, usize), LifecycleError> {
    let mut hdr: &[u8] = blob
        .first_chunk::<HEADER_LEN>()
        .ok_or(LifecycleError::Truncated)?;
    if take::<7>(&mut hdr)? != *MAGIC {
        return Err(LifecycleError::BadMagic);
    }
    let version = u16::from_le_bytes(take(&mut hdr)?);
    if version != VERSION {
        return Err(LifecycleError::BadVersion(version));
    }
    let tenant = u64::from_le_bytes(take(&mut hdr)?);
    let counter = u64::from_le_bytes(take(&mut hdr)?);
    let len = u32::from_le_bytes(take(&mut hdr)?) as usize;
    Ok((tenant, counter, len))
}

/// Splits the first `N` bytes off `bytes`.
fn take<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], LifecycleError> {
    let (head, rest) = bytes
        .split_first_chunk::<N>()
        .ok_or(LifecycleError::Truncated)?;
    *bytes = rest;
    Ok(*head)
}

/// Seals `payload` for `tenant` at monotonic `counter`, inside the
/// enclave running in `cx`. Only an enclave with the same measurement
/// can unseal the result (`EGETKEY(SealToEnclave)` key derivation).
///
/// # Errors
///
/// [`LifecycleError::Sgx`] if the seal key cannot be derived.
pub fn seal_state(
    cx: &mut EnclaveCtx<'_>,
    tenant: u64,
    counter: u64,
    payload: &[u8],
) -> Result<Vec<u8>, LifecycleError> {
    let key = cx.machine.egetkey(cx.core(), KeyPolicy::SealToEnclave)?;
    let hdr = header(tenant, counter, payload.len());
    let mut nonce_src = Vec::with_capacity(HEADER_LEN + payload.len());
    nonce_src.extend_from_slice(&hdr);
    nonce_src.extend_from_slice(payload);
    let digest = ne_crypto::sha256::digest(&nonce_src);
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&digest[..NONCE_LEN]);
    let ct = AesGcm::new(&key).seal(&nonce, payload, &hdr);
    let mut blob = Vec::with_capacity(HEADER_LEN + NONCE_LEN + ct.len());
    blob.extend_from_slice(&hdr);
    blob.extend_from_slice(&nonce);
    blob.extend_from_slice(&ct);
    Ok(blob)
}

/// Opens a sealed blob inside the enclave running in `cx`, returning
/// `(counter, payload)`. The caller states which `tenant` it serves and
/// the lowest counter it accepts (`min_counter`, the replay floor).
///
/// # Errors
///
/// Malformed blobs yield the typed parse errors; a failed GCM tag yields
/// [`LifecycleError::BadMac`]; an authentic blob with `counter <
/// min_counter` yields [`LifecycleError::Rollback`] — the rollback check
/// runs **after** authentication, so the refusal proves someone replayed
/// genuine old state rather than garbage.
pub fn unseal_state(
    cx: &mut EnclaveCtx<'_>,
    tenant: u64,
    min_counter: u64,
    blob: &[u8],
) -> Result<(u64, Vec<u8>), LifecycleError> {
    let (blob_tenant, counter, payload_len) = peek_header(blob)?;
    if blob_tenant != tenant {
        return Err(LifecycleError::WrongTenant {
            presented: blob_tenant,
            expected: tenant,
        });
    }
    if blob.len() != HEADER_LEN + NONCE_LEN + payload_len + TAG_LEN {
        return Err(LifecycleError::Truncated);
    }
    let (nonce, sealed) = blob
        .get(HEADER_LEN..)
        .and_then(<[u8]>::split_first_chunk::<NONCE_LEN>)
        .ok_or(LifecycleError::Truncated)?;
    let key = cx.machine.egetkey(cx.core(), KeyPolicy::SealToEnclave)?;
    let hdr = header(blob_tenant, counter, payload_len);
    let payload = AesGcm::new(&key)
        .open(nonce, sealed, &hdr)
        .map_err(|_| LifecycleError::BadMac)?;
    if counter < min_counter {
        return Err(LifecycleError::Rollback {
            presented: counter,
            expected: min_counter,
        });
    }
    Ok((counter, payload))
}

// ---------------------------------------------------------------------------
// NEREPORT-gated admission
// ---------------------------------------------------------------------------

/// Why an attestation chain was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestError {
    /// The report MAC did not verify under the verifier's report key —
    /// forged, tampered, or targeted at a different enclave.
    BadMac,
    /// The report is authentic but stale: `report_data` does not echo the
    /// verifier's challenge nonce.
    Freshness,
    /// The reported measurement does not match the live enclave the host
    /// claims produced it.
    MeasurementMismatch,
    /// The relation list does not name the verifying gate as an outer
    /// enclave of the reporter — the NASSO chain the paper's § IV-E
    /// attestation must prove is missing or tampered.
    NotAssociated,
    /// An architectural fault while driving the chain.
    Sgx(SgxError),
}

impl AttestError {
    /// Stable snake_case name (per-tenant refusal counters).
    pub fn name(&self) -> &'static str {
        match self {
            AttestError::BadMac => "bad_mac",
            AttestError::Freshness => "freshness",
            AttestError::MeasurementMismatch => "measurement_mismatch",
            AttestError::NotAssociated => "not_associated",
            AttestError::Sgx(_) => "sgx_fault",
        }
    }
}

impl fmt::Display for AttestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestError::BadMac => write!(f, "report MAC failed verification"),
            AttestError::Freshness => write!(f, "report does not echo the challenge nonce"),
            AttestError::MeasurementMismatch => {
                write!(f, "reported measurement does not match the live enclave")
            }
            AttestError::NotAssociated => {
                write!(f, "relation list does not prove association with the gate")
            }
            AttestError::Sgx(e) => write!(f, "sgx: {e}"),
        }
    }
}

impl std::error::Error for AttestError {}

impl From<SgxError> for AttestError {
    fn from(e: SgxError) -> AttestError {
        AttestError::Sgx(e)
    }
}

/// Has the inner enclave `inner` issue a NEREPORT targeted at `gate`,
/// echoing the verifier's 32-byte challenge `nonce` in `report_data`.
///
/// # Errors
///
/// [`AttestError::Sgx`] if either enclave is unknown or entry faults
/// (e.g. the enclave was chaos-poisoned).
pub fn collect_report(
    app: &mut NestedApp,
    core: usize,
    inner: &str,
    gate: &str,
    nonce: &[u8; 32],
) -> Result<NestedReport, AttestError> {
    let inner_layout = app.layout(inner)?;
    let gate_eid = app.eid(gate)?;
    let mut report_data: ReportData = [0u8; 64];
    report_data[..32].copy_from_slice(nonce);
    app.machine
        .eenter(core, inner_layout.eid, inner_layout.base)?;
    let report = nereport(&mut app.machine, core, gate_eid, report_data);
    app.machine.eexit(core)?;
    Ok(report?)
}

/// Verifies a NEREPORT inside the gate enclave `gate`, admitting the
/// inner enclave `inner` only if the full chain holds: MAC, nonce echo,
/// live measurement, and an outer-relation record naming the gate.
///
/// # Errors
///
/// One typed [`AttestError`] per broken link, checked in that order.
pub fn admit_report(
    app: &mut NestedApp,
    core: usize,
    gate: &str,
    inner: &str,
    nonce: &[u8; 32],
    report: &NestedReport,
) -> Result<(), AttestError> {
    let gate_layout = app.layout(gate)?;
    let inner_eid = app.eid(inner)?;
    app.machine
        .eenter(core, gate_layout.eid, gate_layout.base)?;
    let mac_ok = verify_nested_report(&mut app.machine, core, report);
    app.machine.eexit(core)?;
    if !mac_ok? {
        return Err(AttestError::BadMac);
    }
    if report.report_data[..32] != nonce[..] {
        return Err(AttestError::Freshness);
    }
    let (inner_mr, inner_signer) = {
        let secs = app
            .machine
            .enclaves()
            .get(inner_eid)
            .ok_or_else(|| SgxError::GeneralProtection("attested enclave vanished".into()))?;
        (secs.mrenclave, secs.mrsigner)
    };
    if report.mrenclave != inner_mr || report.mrsigner != inner_signer {
        return Err(AttestError::MeasurementMismatch);
    }
    let gate_mr = {
        let secs = app
            .machine
            .enclaves()
            .get(gate_layout.eid)
            .ok_or_else(|| SgxError::GeneralProtection("gate enclave vanished".into()))?;
        secs.mrenclave
    };
    let associated = report
        .relations
        .iter()
        .any(|r| r.relation == Relation::Outer && r.mrenclave == gate_mr);
    if !associated {
        return Err(AttestError::NotAssociated);
    }
    Ok(())
}

/// Drives the full admission chain for one (gate, inner) pair: the inner
/// enclave reports, the gate verifies. Returns the verified report so
/// callers can log or forward it.
///
/// # Errors
///
/// See [`collect_report`] and [`admit_report`].
pub fn attest_chain(
    app: &mut NestedApp,
    core: usize,
    gate: &str,
    inner: &str,
    nonce: &[u8; 32],
) -> Result<NestedReport, AttestError> {
    let report = collect_report(app, core, inner, gate, nonce)?;
    admit_report(app, core, gate, inner, nonce, &report)?;
    Ok(report)
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use super::*;
    use crate::edl::Edl;
    use crate::loader::EnclaveImage;

    fn app_with_pair() -> NestedApp {
        use crate::runtime::TrustedFn;
        use std::sync::Arc;
        let noop: TrustedFn = Arc::new(|_, _| Ok(Vec::new()));
        let mut app = NestedApp::new(ne_sgx::config::HwConfig::small());
        let gate = EnclaveImage::new("gate", b"gate-signer")
            .code_pages(2)
            .heap_pages(2)
            .edl(Edl::new().ecall("noop"));
        let inner = EnclaveImage::new("inner", b"inner-signer")
            .code_pages(2)
            .heap_pages(2)
            .edl(Edl::new().ecall("noop"));
        app.load(gate, [("noop".to_string(), noop.clone())])
            .unwrap();
        app.load(inner, [("noop".to_string(), noop)]).unwrap();
        app.associate("inner", "gate").unwrap();
        app
    }

    /// Runs `f` with an [`EnclaveCtx`] that is actually *inside* the
    /// named enclave (EGETKEY answers only in enclave mode).
    fn inside<R>(app: &mut NestedApp, name: &str, f: impl FnOnce(&mut EnclaveCtx<'_>) -> R) -> R {
        let layout = app.layout(name).unwrap();
        app.machine.eenter(0, layout.eid, layout.base).unwrap();
        let r = {
            let mut cx = app.enclave_ctx(0, name);
            f(&mut cx)
        };
        app.machine.eexit(0).unwrap();
        r
    }

    #[test]
    fn seal_unseal_roundtrip_and_determinism() {
        let mut app = app_with_pair();
        let blob = inside(&mut app, "inner", |cx| {
            seal_state(cx, 7, 3, b"session state").unwrap()
        });
        let blob2 = inside(&mut app, "inner", |cx| {
            seal_state(cx, 7, 3, b"session state").unwrap()
        });
        assert_eq!(blob, blob2, "sealing is deterministic");
        let (counter, payload) = inside(&mut app, "inner", |cx| {
            unseal_state(cx, 7, 3, &blob).unwrap()
        });
        assert_eq!((counter, payload.as_slice()), (3, &b"session state"[..]));
        assert_eq!(peek_header(&blob).unwrap(), (7, 3, 13));
    }

    #[test]
    fn unseal_requires_same_measurement() {
        let mut app = app_with_pair();
        let blob = inside(&mut app, "inner", |cx| {
            seal_state(cx, 1, 0, b"secret").unwrap()
        });
        // The gate has a different measurement: EGETKEY derives a
        // different key, so the tag cannot verify.
        let r = inside(&mut app, "gate", |cx| unseal_state(cx, 1, 0, &blob));
        assert_eq!(r, Err(LifecycleError::BadMac));
    }

    #[test]
    fn tampered_header_or_body_is_refused() {
        let mut app = app_with_pair();
        let blob = inside(&mut app, "inner", |cx| {
            seal_state(cx, 1, 5, b"state bytes").unwrap()
        });
        // Flip the counter in the header: AAD breaks the tag.
        let mut forged = blob.clone();
        forged[17] ^= 1;
        let r = inside(&mut app, "inner", |cx| unseal_state(cx, 1, 0, &forged));
        assert_eq!(r, Err(LifecycleError::BadMac));
        // Flip a ciphertext byte.
        let mut forged = blob.clone();
        let n = forged.len();
        forged[n - 1] ^= 1;
        let r = inside(&mut app, "inner", |cx| unseal_state(cx, 1, 0, &forged));
        assert_eq!(r, Err(LifecycleError::BadMac));
        // Wrong tenant is refused before any crypto.
        let r = inside(&mut app, "inner", |cx| unseal_state(cx, 2, 0, &blob));
        assert_eq!(
            r,
            Err(LifecycleError::WrongTenant {
                presented: 1,
                expected: 2
            })
        );
        // Truncation and magic.
        let r = inside(&mut app, "inner", |cx| unseal_state(cx, 1, 0, &blob[..10]));
        assert_eq!(r, Err(LifecycleError::Truncated));
        let r = inside(&mut app, "inner", |cx| {
            unseal_state(cx, 1, 0, b"XX-JUNK\x01\x00aaaaaaaabbbbbbbbcccc")
        });
        assert_eq!(r, Err(LifecycleError::BadMagic));
    }

    #[test]
    fn stale_counter_is_a_typed_rollback() {
        let mut app = app_with_pair();
        let old = inside(&mut app, "inner", |cx| {
            seal_state(cx, 1, 4, b"old").unwrap()
        });
        // Counter floor has moved to 5: the authentic old blob is refused.
        let r = inside(&mut app, "inner", |cx| unseal_state(cx, 1, 5, &old));
        assert_eq!(
            r,
            Err(LifecycleError::Rollback {
                presented: 4,
                expected: 5
            })
        );
        // At or above the floor it opens.
        let r = inside(&mut app, "inner", |cx| unseal_state(cx, 1, 4, &old));
        assert!(r.is_ok());
    }

    #[test]
    fn attest_chain_admits_associated_inner() {
        let mut app = app_with_pair();
        let nonce = [9u8; 32];
        let report = attest_chain(&mut app, 0, "gate", "inner", &nonce).unwrap();
        assert!(report
            .relations
            .iter()
            .any(|r| r.relation == Relation::Outer));
    }

    #[test]
    fn attest_chain_refusals_are_typed() {
        let mut app = app_with_pair();
        let nonce = [9u8; 32];
        let report = collect_report(&mut app, 0, "inner", "gate", &nonce).unwrap();

        // Forged MAC.
        let mut forged = report.clone();
        forged.mac[0] ^= 1;
        assert_eq!(
            admit_report(&mut app, 0, "gate", "inner", &nonce, &forged),
            Err(AttestError::BadMac)
        );

        // Tampered relation list (drop the outer record) breaks the MAC
        // — the relations are inside the MACed body.
        let mut forged = report.clone();
        forged.relations.clear();
        assert_eq!(
            admit_report(&mut app, 0, "gate", "inner", &nonce, &forged),
            Err(AttestError::BadMac)
        );

        // Stale nonce.
        assert_eq!(
            admit_report(&mut app, 0, "gate", "inner", &[0u8; 32], &report),
            Err(AttestError::Freshness)
        );

        // Report targeted at a non-associated verifier: the gate's key
        // cannot verify it.
        let other = collect_report(&mut app, 0, "inner", "inner", &nonce).unwrap();
        assert_eq!(
            admit_report(&mut app, 0, "gate", "inner", &nonce, &other),
            Err(AttestError::BadMac)
        );
    }
}
