//! Service adapters: what runs inside each tenant's inner enclaves.
//!
//! Each tenant's outer "gate" enclave hosts one inner enclave per
//! [`ServiceKind`]. All three adapters expose the same interface — a
//! single `handle` n_ecall taking an opaque request payload and returning
//! an opaque reply — so the gate can dispatch without knowing service
//! internals. The adapters reuse the paper's case-study substrates:
//!
//! * [`ServiceKind::TlsEcho`] — the Fig. 7 echo server shape: open a
//!   mini-TLS record, echo the payload back sealed ([`ne_tls`]);
//! * [`ServiceKind::Db`] — the Table VI SQLite shape: parse and execute a
//!   SQL statement against a per-tenant in-enclave database ([`ne_db`]);
//! * [`ServiceKind::SvmInfer`] — the § VI-B MLaaS shape: classify a
//!   feature vector with a per-tenant pre-trained SVM ([`ne_svm`]).
//!
//! The matching client side lives in [`RequestFactory`], which produces
//! request payloads the adapters accept (sealed records, SQL text, encoded
//! samples) from a deterministic seeded stream.

use ne_core::edl::Edl;
use ne_core::lifecycle::{self, LifecycleError};
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn};
use ne_db::{Database, Workload, WorkloadMix};
use ne_sgx::error::SgxError;
use ne_svm::{train, Dataset, SvmModel, TrainParams};
use ne_tls::echo::FRAMING_CYCLES;
use ne_tls::record::{ContentType, RecordLayer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Cycles of SQL-engine work charged per query (parse, plan, B-tree
/// traversal, result marshalling): ~100 µs at 3.6 GHz, in line with
/// in-enclave SQLite under YCSB. The Table VI case study charges it too.
pub const DB_ENGINE_CYCLES_PER_QUERY: u64 = 360_000;
/// Extra engine cycles per request/result byte.
pub const DB_ENGINE_CYCLES_PER_BYTE: u64 = 2;
/// Prediction cycles per kernel-matrix cell (support vector × dimension),
/// here and in the Fig. 9 case study.
pub const SVM_PREDICT_CYCLES_PER_CELL: u64 = 16;

/// SQL-engine cycles of one query of `sql_len` bytes with a `result_len`
/// byte result.
pub fn db_engine_charge(sql_len: usize, result_len: usize) -> u64 {
    DB_ENGINE_CYCLES_PER_QUERY + DB_ENGINE_CYCLES_PER_BYTE * (sql_len + result_len) as u64
}

/// Records pre-loaded into each tenant database before the measured mix.
const DB_RECORDS: usize = 16;
/// Steady-state operations in each tenant's generated YCSB mix.
const DB_OPS: usize = 64;

/// Feature dimension of the per-tenant SVM models.
pub const SVM_DIM: usize = 8;
/// Classes of the per-tenant SVM models.
pub const SVM_CLASSES: usize = 3;

/// The kinds of service a tenant can run in an inner enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// Mini-TLS echo (the Fig. 7 server shape).
    TlsEcho,
    /// SQL over a per-tenant database (the Table VI shape).
    Db,
    /// SVM inference (the § VI-B MLaaS shape).
    SvmInfer,
}

impl ServiceKind {
    /// Every kind, in load-generator rotation order.
    pub const ALL: [ServiceKind; 3] =
        [ServiceKind::TlsEcho, ServiceKind::Db, ServiceKind::SvmInfer];

    /// Stable name (used in enclave names, flags, and reports).
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::TlsEcho => "echo",
            ServiceKind::Db => "db",
            ServiceKind::SvmInfer => "svm",
        }
    }

    /// Parses a [`ServiceKind::name`] back.
    pub fn parse(s: &str) -> Option<ServiceKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The per-tenant session key used by the echo adapter and its clients.
pub fn tenant_key(tenant: usize) -> [u8; 16] {
    let mut key = [0x42u8; 16];
    key[0] ^= tenant as u8;
    key[1] ^= (tenant >> 8) as u8;
    key
}

/// The enclave image for one service of one tenant. `name` must be the
/// name the service will be registered under (see
/// [`service_enclave_name`]).
pub fn service_image(name: &str, kind: ServiceKind) -> EnclaveImage {
    // `handle` is the gate-facing n_ecall; `seal`/`restore` are the
    // host-facing lifecycle ecalls driven at migration safe points.
    let edl = Edl::new().n_ecall("handle").ecall("seal").ecall("restore");
    match kind {
        ServiceKind::TlsEcho => EnclaveImage::new(name, b"tenant-echo")
            .code_pages(8)
            .heap_pages(4)
            .edl(edl),
        ServiceKind::Db => EnclaveImage::new(name, b"tenant-db")
            .code_pages(32)
            .heap_pages(8)
            .edl(edl),
        ServiceKind::SvmInfer => EnclaveImage::new(name, b"tenant-svm")
            .code_pages(16)
            .heap_pages(4)
            .edl(edl),
    }
}

/// Canonical enclave name for tenant `tenant`'s service of `kind`.
pub fn service_enclave_name(tenant_name: &str, kind: ServiceKind) -> String {
    format!("{}::{}", tenant_name, kind.name())
}

/// Reply status of a `restore` ecall: sealed state installed. Followed by
/// the blob's counter as 8 LE bytes.
pub const RESTORE_OK: u8 = 0;
/// Restore refused: the blob's counter is older than the freshness floor
/// (a replayed/stale blob). Followed by presented and expected counters,
/// 8 LE bytes each.
pub const RESTORE_ROLLBACK: u8 = 1;
/// Restore refused: seal MAC verification failed.
pub const RESTORE_BAD_MAC: u8 = 2;
/// Restore refused: the blob is malformed (truncated, wrong magic or
/// version, or sealed for a different tenant).
pub const RESTORE_MALFORMED: u8 = 3;
/// Restore refused: the blob authenticated but its payload is not a valid
/// state snapshot for this service.
pub const RESTORE_BAD_PAYLOAD: u8 = 4;

/// Host-side decode of a `restore` ecall reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// State installed; the blob carried this counter.
    Ok {
        /// Counter stamped into the accepted blob.
        counter: u64,
    },
    /// Stale blob refused (counter below the freshness floor).
    Rollback {
        /// Counter the blob presented.
        presented: u64,
        /// Minimum counter the service would accept.
        expected: u64,
    },
    /// MAC verification failed.
    BadMac,
    /// Structurally invalid blob.
    Malformed,
    /// Authenticated blob with an unusable payload.
    BadPayload,
}

/// Encodes the argument buffer of a `seal` ecall.
pub fn encode_seal_args(tenant: u64, counter: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(&counter.to_le_bytes());
    out
}

/// Encodes the argument buffer of a `restore` ecall.
pub fn encode_restore_args(tenant: u64, min_counter: u64, blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + blob.len());
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(&min_counter.to_le_bytes());
    out.extend_from_slice(blob);
    out
}

/// Decodes a `restore` ecall reply. `None` means the reply itself is
/// malformed (which would indicate a bug, not an untrusted input).
pub fn decode_restore_reply(reply: &[u8]) -> Option<RestoreOutcome> {
    let le_u64 = |b: &[u8]| b.try_into().ok().map(u64::from_le_bytes);
    match *reply.first()? {
        RESTORE_OK if reply.len() == 9 => Some(RestoreOutcome::Ok {
            counter: le_u64(&reply[1..9])?,
        }),
        RESTORE_ROLLBACK if reply.len() == 17 => Some(RestoreOutcome::Rollback {
            presented: le_u64(&reply[1..9])?,
            expected: le_u64(&reply[9..17])?,
        }),
        RESTORE_BAD_MAC if reply.len() == 1 => Some(RestoreOutcome::BadMac),
        RESTORE_MALFORMED if reply.len() == 1 => Some(RestoreOutcome::Malformed),
        RESTORE_BAD_PAYLOAD if reply.len() == 1 => Some(RestoreOutcome::BadPayload),
        _ => None,
    }
}

fn decode_seal_args(args: &[u8]) -> Result<(u64, u64), SgxError> {
    if args.len() != 16 {
        return Err(SgxError::GeneralProtection(format!(
            "seal args must be 16 bytes, got {}",
            args.len()
        )));
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or([0u8; 8]));
    Ok((word(&args[..8]), word(&args[8..16])))
}

fn decode_restore_args(args: &[u8]) -> Result<(u64, u64, &[u8]), SgxError> {
    if args.len() < 16 {
        return Err(SgxError::GeneralProtection(format!(
            "restore args must be at least 16 bytes, got {}",
            args.len()
        )));
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or([0u8; 8]));
    Ok((word(&args[..8]), word(&args[8..16]), &args[16..]))
}

/// Lifecycle failures that are SGX faults propagate as faults; everything
/// else is a caller error on the host-facing ecall surface.
fn seal_fault(e: LifecycleError) -> SgxError {
    match e {
        LifecycleError::Sgx(e) => e,
        other => SgxError::GeneralProtection(other.to_string()),
    }
}

/// Maps an unseal failure to a typed `restore` reply. Rollback and MAC
/// refusals are expected-input outcomes the host must distinguish, so they
/// travel as data, not as faults.
fn restore_refusal(e: LifecycleError) -> Result<Vec<u8>, SgxError> {
    match e {
        LifecycleError::Rollback {
            presented,
            expected,
        } => {
            let mut out = vec![RESTORE_ROLLBACK];
            out.extend_from_slice(&presented.to_le_bytes());
            out.extend_from_slice(&expected.to_le_bytes());
            Ok(out)
        }
        LifecycleError::BadMac => Ok(vec![RESTORE_BAD_MAC]),
        LifecycleError::Sgx(e) => Err(e),
        _ => Ok(vec![RESTORE_MALFORMED]),
    }
}

fn restore_ok(counter: u64) -> Vec<u8> {
    let mut out = vec![RESTORE_OK];
    out.extend_from_slice(&counter.to_le_bytes());
    out
}

/// `seal`/`restore` bodies for services whose serving state is derived,
/// not accumulated (echo keys, SVM models): the sealed payload is empty
/// and restore only validates freshness and provenance.
fn stateless_lifecycle() -> [(String, TrustedFn); 2] {
    let seal: TrustedFn = Arc::new(|cx, args| {
        let (tenant, counter) = decode_seal_args(args)?;
        lifecycle::seal_state(cx, tenant, counter, &[]).map_err(seal_fault)
    });
    let restore: TrustedFn = Arc::new(|cx, args| {
        let (tenant, min_counter, blob) = decode_restore_args(args)?;
        match lifecycle::unseal_state(cx, tenant, min_counter, blob) {
            Ok((counter, payload)) if payload.is_empty() => Ok(restore_ok(counter)),
            Ok(_) => Ok(vec![RESTORE_BAD_PAYLOAD]),
            Err(e) => restore_refusal(e),
        }
    });
    [("seal".to_string(), seal), ("restore".to_string(), restore)]
}

/// Builds the trusted-function set for one service instance: the
/// gate-facing `handle` body plus the host-facing `seal`/`restore`
/// lifecycle pair, all sharing the instance's captured state.
///
/// Per-service state (the echo session key, the tenant's [`Database`], the
/// pre-trained [`SvmModel`]) is captured by the closures; models and
/// tables are prepared host-side at build time — provisioning is not part
/// of the measured serving path.
pub fn service_handlers(kind: ServiceKind, tenant: usize, seed: u64) -> Vec<(String, TrustedFn)> {
    match kind {
        ServiceKind::TlsEcho => {
            let key = tenant_key(tenant);
            let handle: TrustedFn = Arc::new(move |cx, wire| {
                cx.charge(FRAMING_CYCLES);
                cx.charge(cx.machine.config().cost.gcm(wire.len()));
                // Each request is a self-contained record exchange (both
                // sides start at sequence 0), so rejected or shed requests
                // never desynchronize the stream. One layer serves both
                // directions: `open` advances only the receive sequence,
                // so the reply is still sealed at send sequence 0.
                let mut layer = RecordLayer::new(key);
                let (_, payload) = layer
                    .open(wire)
                    .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
                let reply = layer.seal(ContentType::Data, &payload);
                cx.charge(cx.machine.config().cost.gcm(payload.len()));
                Ok(reply)
            });
            let mut fns = vec![("handle".to_string(), handle)];
            fns.extend(stateless_lifecycle());
            fns
        }
        ServiceKind::Db => {
            let db: Arc<Mutex<Database>> = Arc::new(Mutex::new(Database::new()));
            let handle_db = db.clone();
            let handle: TrustedFn = Arc::new(move |cx, args| {
                let sql = std::str::from_utf8(args)
                    .map_err(|_| SgxError::GeneralProtection("bad utf-8 query".into()))?;
                let stmt =
                    ne_db::parse(sql).map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
                // A poisoned lock only means a previous handler panicked
                // mid-query; recover the guard rather than panicking the
                // serving loop too.
                let result = handle_db
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .execute_statement(&stmt)
                    .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
                let mut out = Vec::new();
                for row in &result.rows {
                    for v in row {
                        out.extend_from_slice(v.to_string().as_bytes());
                    }
                }
                cx.charge(db_engine_charge(args.len(), out.len()));
                Ok(out)
            });
            let seal_db = db.clone();
            let seal: TrustedFn = Arc::new(move |cx, args| {
                let (tenant, counter) = decode_seal_args(args)?;
                let snap = seal_db
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .snapshot_bytes();
                lifecycle::seal_state(cx, tenant, counter, &snap).map_err(seal_fault)
            });
            let restore: TrustedFn = Arc::new(move |cx, args| {
                let (tenant, min_counter, blob) = decode_restore_args(args)?;
                let (counter, payload) =
                    match lifecycle::unseal_state(cx, tenant, min_counter, blob) {
                        Ok(v) => v,
                        Err(e) => return restore_refusal(e),
                    };
                match Database::restore_bytes(&payload) {
                    Ok(restored) => {
                        *db.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = restored;
                        Ok(restore_ok(counter))
                    }
                    Err(_) => Ok(vec![RESTORE_BAD_PAYLOAD]),
                }
            });
            vec![
                ("handle".to_string(), handle),
                ("seal".to_string(), seal),
                ("restore".to_string(), restore),
            ]
        }
        ServiceKind::SvmInfer => {
            let model = tenant_model(tenant, seed);
            let handle: TrustedFn = Arc::new(move |cx, args| {
                let x = decode_sample(args)?;
                let cells = model.num_support_vectors() as u64 * SVM_DIM as u64;
                cx.charge(SVM_PREDICT_CYCLES_PER_CELL * cells);
                let class = model.predict(&x);
                Ok(vec![class as u8])
            });
            let mut fns = vec![("handle".to_string(), handle)];
            fns.extend(stateless_lifecycle());
            fns
        }
    }
}

/// Trains tenant `tenant`'s SVM on a small synthetic dataset, host-side
/// (model provisioning, not serving work). Every load of an svm service
/// trains it afresh: the build, each respawn (`rebuild_service`) and each
/// migration adoption.
fn tenant_model(tenant: usize, seed: u64) -> SvmModel {
    let ds = Dataset::synthetic(
        SVM_CLASSES,
        30,
        SVM_DIM,
        seed ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    train(
        &ds,
        &TrainParams {
            seed: seed.wrapping_add(tenant as u64),
            ..Default::default()
        },
    )
}

fn decode_sample(args: &[u8]) -> Result<Vec<f64>, SgxError> {
    if args.len() != SVM_DIM * 8 {
        return Err(SgxError::GeneralProtection(format!(
            "svm sample must be {} bytes, got {}",
            SVM_DIM * 8,
            args.len()
        )));
    }
    Ok(args
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap_or([0u8; 8])))
        .collect())
}

/// Encodes a feature vector the way [`ServiceKind::SvmInfer`] expects.
pub fn encode_sample(x: &[f64]) -> Vec<u8> {
    x.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Loads one service enclave into `app` and associates it with the
/// tenant's gate.
///
/// # Errors
///
/// Loader or association failures (e.g. EPC exhaustion).
pub fn install_service(
    app: &mut NestedApp,
    tenant_name: &str,
    gate_name: &str,
    tenant: usize,
    kind: ServiceKind,
    seed: u64,
) -> Result<(), SgxError> {
    let name = service_enclave_name(tenant_name, kind);
    app.load(
        service_image(&name, kind),
        service_handlers(kind, tenant, seed),
    )?;
    app.associate(&name, gate_name)?;
    Ok(())
}

/// Deterministic client-side request stream for one (tenant, service)
/// pair: produces payloads the matching [`service_handlers`] `handle` body
/// accepts, plus a validity check for replies.
#[derive(Debug)]
pub struct RequestFactory {
    kind: ServiceKind,
    tenant: usize,
    rng: StdRng,
    /// Pre-generated SQL for [`ServiceKind::Db`]: schema creation first,
    /// then pre-load inserts, then the measured mix, cycled when the run
    /// outlasts it. Per-tenant FIFO guarantees the schema statement
    /// reaches the engine before anything that needs the table.
    db_script: Vec<String>,
    db_next: usize,
}

impl RequestFactory {
    /// A factory seeded deterministically from (`seed`, `tenant`, `kind`).
    pub fn new(kind: ServiceKind, tenant: usize, seed: u64) -> RequestFactory {
        let sub = seed
            ^ (tenant as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (kind as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
        let db_script = if kind == ServiceKind::Db {
            let w = Workload::generate(WorkloadMix::Select95Update5, DB_RECORDS, DB_OPS, sub);
            let mut script = vec![w.create];
            script.extend(w.load);
            script.extend(w.operations);
            script
        } else {
            Vec::new()
        };
        RequestFactory {
            kind,
            tenant,
            rng: StdRng::seed_from_u64(sub),
            db_script,
            db_next: 0,
        }
    }

    /// Leading requests that are provisioning rather than steady-state
    /// work: the db schema statement plus the pre-load inserts (zero for
    /// the other services). The load generator issues these during warmup
    /// so the measured window sees only the steady mix.
    pub fn setup_requests(&self) -> usize {
        match self.kind {
            // Script layout: [create] + load + operations (see `new`).
            ServiceKind::Db => self.db_script.len() - DB_OPS,
            _ => 0,
        }
    }

    /// The next request payload.
    pub fn next_request(&mut self) -> Vec<u8> {
        match self.kind {
            ServiceKind::TlsEcho => {
                let len = self.rng.gen_range(64..1024usize);
                let body: Vec<u8> = (0..len)
                    .map(|_| self.rng.gen_range(0..256u32) as u8)
                    .collect();
                RecordLayer::new(tenant_key(self.tenant)).seal(ContentType::Data, &body)
            }
            ServiceKind::Db => {
                // Cycle the measured mix once setup is exhausted, skipping
                // the schema statement (index 0) on wrap.
                let i = self.db_next;
                self.db_next = if i + 1 >= self.db_script.len() {
                    1
                } else {
                    i + 1
                };
                self.db_script[i].clone().into_bytes()
            }
            ServiceKind::SvmInfer => {
                let x: Vec<f64> = (0..SVM_DIM)
                    .map(|_| self.rng.gen_range(-4.0..4.0))
                    .collect();
                encode_sample(&x)
            }
        }
    }

    /// Checks that `reply` is a plausible reply to a request from this
    /// factory (used by tests and the load generator's sanity pass).
    pub fn check_reply(&self, reply: &[u8]) -> bool {
        match self.kind {
            // The echo reply must open under the tenant key.
            ServiceKind::TlsEcho => RecordLayer::new(tenant_key(self.tenant))
                .open(reply)
                .is_ok(),
            // SQL results are opaque bytes (possibly empty).
            ServiceKind::Db => true,
            // A class index.
            ServiceKind::SvmInfer => reply.len() == 1 && (reply[0] as usize) < SVM_CLASSES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ne_sgx::config::HwConfig;

    #[test]
    fn kinds_round_trip_through_names() {
        for k in ServiceKind::ALL {
            assert_eq!(ServiceKind::parse(k.name()), Some(k));
        }
        assert_eq!(ServiceKind::parse("nope"), None);
    }

    #[test]
    fn tenant_keys_differ() {
        assert_ne!(tenant_key(0), tenant_key(1));
        assert_ne!(tenant_key(1), tenant_key(257));
    }

    #[test]
    fn factory_is_deterministic() {
        for kind in ServiceKind::ALL {
            let mut a = RequestFactory::new(kind, 3, 77);
            let mut b = RequestFactory::new(kind, 3, 77);
            for _ in 0..5 {
                assert_eq!(a.next_request(), b.next_request());
            }
            let mut c = RequestFactory::new(kind, 4, 77);
            let differs = (0..5).any(|_| a.next_request() != c.next_request());
            assert!(differs, "{} stream should depend on tenant", kind.name());
        }
    }

    #[test]
    fn setup_prefix_covers_schema_and_load() {
        let f = RequestFactory::new(ServiceKind::Db, 0, 1);
        assert_eq!(f.setup_requests(), 1 + DB_RECORDS);
        assert_eq!(
            RequestFactory::new(ServiceKind::TlsEcho, 0, 1).setup_requests(),
            0
        );
        assert_eq!(
            RequestFactory::new(ServiceKind::SvmInfer, 0, 1).setup_requests(),
            0
        );
    }

    #[test]
    fn db_script_starts_with_schema_and_cycles_past_it() {
        let mut f = RequestFactory::new(ServiceKind::Db, 0, 1);
        let first = String::from_utf8(f.next_request()).unwrap();
        assert!(first.to_uppercase().starts_with("CREATE TABLE"), "{first}");
        // Exhaust the script and wrap: CREATE must never repeat.
        for _ in 0..500 {
            let stmt = String::from_utf8(f.next_request()).unwrap();
            assert!(!stmt.to_uppercase().starts_with("CREATE TABLE"));
        }
    }

    /// Runs each query through a db service's `handle`, entered from a
    /// gate the way the host's dispatch enters it.
    fn db_replies(queries: &[&str]) -> Vec<Result<Vec<u8>, SgxError>> {
        let mut app = NestedApp::new(HwConfig::small());
        let gate: TrustedFn = Arc::new(|cx, sql| cx.n_ecall("t::db", "handle", sql));
        app.load(
            EnclaveImage::new("gate", b"test-gate").edl(Edl::new().ecall("dispatch")),
            [("dispatch".to_string(), gate)],
        )
        .unwrap();
        install_service(&mut app, "t", "gate", 0, ServiceKind::Db, 1).unwrap();
        queries
            .iter()
            .map(|sql| app.ecall(0, "gate", "dispatch", sql.as_bytes()))
            .collect()
    }

    #[test]
    fn db_handler_errors_keep_their_text() {
        let replies = db_replies(&[
            "SELEKT * FROM t",
            "SELECT * FROM missing",
            "CREATE TABLE t (k, v)",
            "INSERT INTO t VALUES (1, 2)",
            "SELECT v FROM t WHERE k = 1",
        ]);
        let gp = |text: &str| Err(SgxError::GeneralProtection(text.into()));
        assert_eq!(
            replies[0],
            gp("SQL parse error: unknown statement start Ident(\"SELEKT\")")
        );
        assert_eq!(replies[1], gp("no such table: missing"));
        assert_eq!(replies[2], Ok(vec![]));
        assert_eq!(replies[3], Ok(vec![]));
        assert_eq!(replies[4], Ok(b"2".to_vec()));
    }

    #[test]
    fn sample_codec_round_trips() {
        let x = vec![1.5, -2.25, 0.0, 3.0, -0.5, 8.0, 1e-3, -7.75];
        assert_eq!(decode_sample(&encode_sample(&x)).unwrap(), x);
        assert!(decode_sample(&[0u8; 7]).is_err());
    }
}
