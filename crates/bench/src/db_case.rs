//! Table VI: the SQLite/YCSB case study (§ VI-B).
//!
//! "A shared SQLite service runs in an outer enclave. A client sends
//! queries to an inner enclave, the inner enclave parses the queries and
//! encrypts data, and the inner enclave sends query requests to the SQLite
//! service." The baseline runs the whole stack in one enclave.
//!
//! The SQL engine cost is charged per query at a rate modelling SQLite's
//! parse/plan/B-tree work on the paper's testbed, so the ratio between the
//! configurations is governed by the extra inner-enclave work and
//! transitions — "less than 2% overheads", as Table VI reports.

use ne_core::edl::Edl;
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn};
use ne_db::{Database, Workload, WorkloadMix};
use ne_host::service::db_engine_charge;
use ne_sgx::config::HwConfig;
use ne_sgx::error::SgxError;
use ne_sgx::spantree::TraceBundle;
use std::sync::{Arc, Mutex};

/// Result of one Table VI run.
#[derive(Debug, Clone)]
pub struct DbCaseResult {
    /// Queries executed.
    pub ops: usize,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Nested transitions taken.
    pub n_calls: u64,
    /// Clock for conversions.
    pub clock_ghz: f64,
    /// Machine snapshot after the measured query phase.
    pub metrics: ne_sgx::metrics::MachineMetrics,
    /// Span-tree exports of the measured query phase, when tracing was
    /// requested.
    pub trace: Option<TraceBundle>,
}

impl DbCaseResult {
    /// Throughput in operations per simulated second.
    pub fn ops_per_second(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops as f64 / (self.cycles as f64 / (self.clock_ghz * 1e9))
    }
}

/// Builds the SQLite service in nested or monolithic configuration.
///
/// # Errors
///
/// Enclave plumbing errors.
pub fn build_db_app(nested: bool, trace: bool) -> Result<NestedApp, SgxError> {
    let db: Arc<Mutex<Database>> = Arc::new(Mutex::new(Database::new()));
    let mut hw = HwConfig::testbed();
    hw.trace_events = trace;
    let mut app = NestedApp::new(hw);
    let exec_body = |db: Arc<Mutex<Database>>| -> TrustedFn {
        Arc::new(move |cx, args| {
            let sql = std::str::from_utf8(args)
                .map_err(|_| SgxError::GeneralProtection("bad utf-8 query".into()))?;
            let result = db
                .lock()
                .expect("poisoned")
                .execute(sql)
                .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
            let mut out = Vec::new();
            for row in &result.rows {
                for v in row {
                    out.extend_from_slice(v.to_string().as_bytes());
                }
            }
            cx.charge(db_engine_charge(args.len(), out.len()));
            Ok(out)
        })
    };
    // [port:begin sqlite]
    // Nested-enclave port of the SQLite service: the engine becomes the
    // shared outer enclave; the per-client proxy (parse + encrypt) runs in
    // an inner enclave and forwards via n_ocall.
    if nested {
        let engine = EnclaveImage::new("sqlite", b"service-provider")
            .code_pages(32)
            .heap_pages(8)
            .edl(Edl::new());
        app.load(engine, [("sql_exec".to_string(), exec_body(db))])?;
        let proxy = EnclaveImage::new("client-proxy", b"tenant")
            .heap_pages(4)
            .edl(Edl::new().ecall("query").n_ocall("sql_exec"));
        let query: TrustedFn = Arc::new(move |cx, args| {
            // Parse the query and encrypt the client's data in the inner
            // enclave before it crosses into the shared service.
            ne_db::parse(
                std::str::from_utf8(args)
                    .map_err(|_| SgxError::GeneralProtection("bad utf-8 query".into()))?,
            )
            .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
            cx.charge(cx.machine.config().cost.gcm(args.len()));
            cx.n_ocall("sql_exec", args)
        });
        app.load(proxy, [("query".to_string(), query)])?;
        app.associate("client-proxy", "sqlite")?;
    }
    // [port:end sqlite]
    else {
        let img = EnclaveImage::new("client-proxy", b"service-provider")
            .code_pages(40)
            .heap_pages(8)
            .edl(Edl::new().ecall("query"));
        let exec = exec_body(db);
        let query: TrustedFn = Arc::new(move |cx, args| {
            ne_db::parse(
                std::str::from_utf8(args)
                    .map_err(|_| SgxError::GeneralProtection("bad utf-8 query".into()))?,
            )
            .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
            cx.charge(cx.machine.config().cost.gcm(args.len()));
            exec(cx, args)
        });
        app.load(img, [("query".to_string(), query)])?;
    }
    Ok(app)
}

/// The workload seed every Table VI surface used before it became
/// selectable; the `--seed` default, so unseeded runs reproduce the
/// committed numbers exactly.
pub const DEFAULT_DB_SEED: u64 = 0xDB;

/// Runs one Table VI mix: pre-loads `records` rows, then measures
/// `ops` queries generated from `seed`.
///
/// # Errors
///
/// Enclave or SQL failures.
pub fn run_db_case(
    mix: WorkloadMix,
    records: usize,
    ops: usize,
    nested: bool,
    trace: bool,
    seed: u64,
) -> Result<DbCaseResult, SgxError> {
    let workload = Workload::generate(mix, records, ops, seed);
    let mut app = build_db_app(nested, trace)?;
    app.ecall(0, "client-proxy", "query", workload.create.as_bytes())?;
    for stmt in &workload.load {
        app.ecall(0, "client-proxy", "query", stmt.as_bytes())?;
    }
    app.machine.reset_metrics();
    for stmt in &workload.operations {
        app.ecall(0, "client-proxy", "query", stmt.as_bytes())?;
    }
    let stats = app.machine.stats();
    Ok(DbCaseResult {
        ops,
        cycles: app.machine.cycles(0),
        n_calls: stats.n_ecalls + stats.n_ocalls,
        clock_ghz: app.machine.config().cost.clock_ghz,
        metrics: app.machine.metrics(),
        trace: trace.then(|| TraceBundle::capture(&app.machine)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_execute_in_both_modes() {
        for nested in [false, true] {
            let r = run_db_case(
                WorkloadMix::Select100,
                20,
                50,
                nested,
                false,
                DEFAULT_DB_SEED,
            )
            .unwrap();
            assert_eq!(r.ops, 50);
            assert!(r.cycles > 0);
            assert!(r.ops_per_second() > 0.0);
        }
    }

    #[test]
    fn nested_uses_n_calls() {
        let r = run_db_case(WorkloadMix::Select100, 10, 20, true, false, DEFAULT_DB_SEED).unwrap();
        assert_eq!(r.n_calls, 2 * 20, "one n_ocall round trip per query");
        let r = run_db_case(
            WorkloadMix::Select100,
            10,
            20,
            false,
            false,
            DEFAULT_DB_SEED,
        )
        .unwrap();
        assert_eq!(r.n_calls, 0);
    }

    #[test]
    fn table6_shape_under_two_percent_overhead() {
        for mix in WorkloadMix::ALL {
            let mono = run_db_case(mix, 30, 100, false, false, DEFAULT_DB_SEED).unwrap();
            let nested = run_db_case(mix, 30, 100, true, false, DEFAULT_DB_SEED).unwrap();
            let normalized = mono.cycles as f64 / nested.cycles as f64;
            assert!(
                normalized > 0.96 && normalized <= 1.0,
                "{}: normalized throughput {normalized}",
                mix.name()
            );
        }
    }

    #[test]
    fn bad_query_surfaces_error() {
        let mut app = build_db_app(true, false).unwrap();
        let err = app
            .ecall(0, "client-proxy", "query", b"DROP EVERYTHING")
            .unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }
}
