//! Fig. 9 / Table V: the machine-learning-as-a-service case study (§ VI-B).
//!
//! The service provider runs LibSVM in a shared enclave; each client gets
//! an inner enclave that decrypts its private data, applies a privacy
//! filter, and only then hands the sanitized samples to the library.
//! The monolithic baseline "runs all operations in an enclave".
//!
//! Compute is charged deterministically: training costs cycles
//! proportional to `samples × dim` per optimization sweep, prediction to
//! `support_vectors × dim` per query — the terms that dominate LibSVM's
//! runtime — so the nested-vs-monolithic ratio depends only on the extra
//! transitions, as in the paper.

use ne_core::edl::Edl;
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn};
use ne_host::service::SVM_PREDICT_CYCLES_PER_CELL;
use ne_sgx::config::HwConfig;
use ne_sgx::error::SgxError;
use ne_sgx::spantree::TraceBundle;
use ne_svm::data::{Dataset, TableVDataset};
use ne_svm::filter::FilterPolicy;
use ne_svm::smo::{train, TrainParams};
use ne_svm::SvmModel;
use std::sync::{Arc, Mutex};

/// Cycles per (sample × dimension) of one training sweep.
const TRAIN_CYCLES_PER_CELL: u64 = 40;

/// Configuration of one Fig. 9 run.
#[derive(Debug, Clone)]
pub struct SvmCaseConfig {
    /// Which Table V dataset shape to use.
    pub dataset: TableVDataset,
    /// Size scale (1.0 = the paper's full sizes).
    pub scale: f64,
    /// Nested (per-user inner + shared LibSVM outer) vs. monolithic.
    pub nested: bool,
    /// Record the event trace; the run's [`SvmCaseResult::trace`] then
    /// covers the predict phase.
    pub trace: bool,
    /// XORed into the dataset seed and the trainer's heuristic seed; 0
    /// reproduces the committed figures exactly.
    pub seed: u64,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct SvmCaseResult {
    /// Simulated cycles to train.
    pub train_cycles: u64,
    /// Simulated cycles to predict over the test set.
    pub predict_cycles: u64,
    /// Test accuracy (sanity: the workload is real).
    pub accuracy: f64,
    /// Nested transitions taken.
    pub n_calls: u64,
    /// Machine snapshot after the predict phase (`reset_metrics` runs
    /// between train and predict, so the counters cover predict only).
    pub metrics: ne_sgx::metrics::MachineMetrics,
    /// Span-tree exports of the predict phase, when
    /// [`SvmCaseConfig::trace`] was set.
    pub trace: Option<TraceBundle>,
}

fn train_charge(ds: &Dataset) -> u64 {
    (ds.len() as u64) * (ds.dim() as u64) * TRAIN_CYCLES_PER_CELL
}

fn predict_charge(model: &SvmModel, ds: &Dataset) -> u64 {
    (model.num_support_vectors() as u64)
        * (ds.dim() as u64)
        * SVM_PREDICT_CYCLES_PER_CELL
        * ds.len() as u64
}

/// Runs one Fig. 9 configuration.
///
/// # Errors
///
/// Enclave plumbing errors (none expected for valid configs).
pub fn run_svm_case(cfg: &SvmCaseConfig) -> Result<SvmCaseResult, SgxError> {
    let (train_ds, test_ds) = cfg.dataset.generate_with_seed(cfg.scale, cfg.seed);
    let classes = train_ds.num_classes;
    let params = TrainParams {
        seed: TrainParams::default().seed ^ cfg.seed,
        ..TrainParams::default()
    };
    let model_slot: Arc<Mutex<Option<SvmModel>>> = Arc::new(Mutex::new(None));
    let policy = FilterPolicy {
        drop_columns: vec![0],
        quantize: vec![],
    };

    let mut hw = HwConfig::testbed();
    hw.trace_events = cfg.trace;
    let mut app = NestedApp::new(hw);
    // [port:begin svm]
    // Nested-enclave port of the LibSVM service: the library is loaded as
    // the shared outer enclave; each client's filter runs in an inner
    // enclave and reaches the library with n_ocalls.
    if cfg.nested {
        let lib = EnclaveImage::new("libsvm", b"service-provider")
            .code_pages(32)
            .heap_pages(8)
            .edl(Edl::new());
        let m1 = model_slot.clone();
        let p = params.clone();
        let svm_train: TrustedFn = Arc::new(move |cx, args| {
            let ds = Dataset::from_bytes(args, classes);
            cx.charge(train_charge(&ds));
            let model = train(&ds, &p);
            *m1.lock().expect("poisoned") = Some(model);
            Ok(vec![])
        });
        let m2 = model_slot.clone();
        let svm_predict: TrustedFn = Arc::new(move |cx, args| {
            let ds = Dataset::from_bytes(args, classes);
            let guard = m2.lock().expect("poisoned");
            let model = guard.as_ref().expect("train first");
            cx.charge(predict_charge(model, &ds));
            Ok(ds.samples.iter().map(|x| model.predict(x) as u8).collect())
        });
        app.load(
            lib,
            [
                ("svm_train".to_string(), svm_train),
                ("svm_predict".to_string(), svm_predict),
            ],
        )?;
        let user = EnclaveImage::new("user", b"tenant").heap_pages(8).edl(
            Edl::new()
                .ecall("train")
                .ecall("predict")
                .n_ocall("svm_train")
                .n_ocall("svm_predict"),
        );
        let p1 = policy.clone();
        let train_fn: TrustedFn = Arc::new(move |cx, args| {
            // Decrypt the client's data (top secret) inside the inner
            // enclave, filter it, then hand the sanitized set to the lib.
            cx.charge(cx.machine.config().cost.gcm(args.len()));
            let ds = Dataset::from_bytes(args, classes);
            let clean = p1.anonymize(&ds);
            cx.n_ocall("svm_train", &clean.to_bytes())
        });
        let p2 = policy.clone();
        let predict_fn: TrustedFn = Arc::new(move |cx, args| {
            cx.charge(cx.machine.config().cost.gcm(args.len()));
            let ds = Dataset::from_bytes(args, classes);
            let clean = p2.anonymize(&ds);
            cx.n_ocall("svm_predict", &clean.to_bytes())
        });
        app.load(
            user,
            [
                ("train".to_string(), train_fn),
                ("predict".to_string(), predict_fn),
            ],
        )?;
        app.associate("user", "libsvm")?;
    }
    // [port:end svm]
    else {
        // Monolithic baseline: decrypt, filter, and LibSVM all in one
        // enclave.
        let img = EnclaveImage::new("user", b"service-provider")
            .code_pages(40)
            .heap_pages(16)
            .edl(Edl::new().ecall("train").ecall("predict"));
        let m1 = model_slot.clone();
        let p1 = policy.clone();
        let p = params.clone();
        let train_fn: TrustedFn = Arc::new(move |cx, args| {
            cx.charge(cx.machine.config().cost.gcm(args.len()));
            let ds = Dataset::from_bytes(args, classes);
            let clean = p1.anonymize(&ds);
            cx.charge(train_charge(&clean));
            *m1.lock().expect("poisoned") = Some(train(&clean, &p));
            Ok(vec![])
        });
        let m2 = model_slot.clone();
        let p2 = policy.clone();
        let predict_fn: TrustedFn = Arc::new(move |cx, args| {
            cx.charge(cx.machine.config().cost.gcm(args.len()));
            let ds = Dataset::from_bytes(args, classes);
            let clean = p2.anonymize(&ds);
            let guard = m2.lock().expect("poisoned");
            let model = guard.as_ref().expect("train first");
            cx.charge(predict_charge(model, &clean));
            Ok(clean
                .samples
                .iter()
                .map(|x| model.predict(x) as u8)
                .collect())
        });
        app.load(
            img,
            [
                ("train".to_string(), train_fn),
                ("predict".to_string(), predict_fn),
            ],
        )?;
    }

    app.machine.reset_metrics();
    app.ecall(0, "user", "train", &train_ds.to_bytes())?;
    let train_cycles = app.machine.cycles(0);
    app.machine.reset_metrics();
    let preds = app.ecall(0, "user", "predict", &test_ds.to_bytes())?;
    let predict_cycles = app.machine.cycles(0);
    let correct = preds
        .iter()
        .zip(&test_ds.labels)
        .filter(|(&p, &l)| p as usize == l)
        .count();
    let stats = app.machine.stats();
    Ok(SvmCaseResult {
        train_cycles,
        predict_cycles,
        accuracy: correct as f64 / test_ds.len().max(1) as f64,
        n_calls: stats.n_ecalls + stats.n_ocalls,
        metrics: app.machine.metrics(),
        trace: cfg.trace.then(|| TraceBundle::capture(&app.machine)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(nested: bool) -> SvmCaseResult {
        run_svm_case(&SvmCaseConfig {
            dataset: TableVDataset::Dna,
            scale: 0.01,
            nested,
            trace: false,
            seed: 0,
        })
        .unwrap()
    }

    #[test]
    fn both_modes_train_and_predict() {
        for nested in [false, true] {
            let r = run(nested);
            assert!(r.train_cycles > 0);
            assert!(r.predict_cycles > 0);
            assert!(r.accuracy > 0.5, "accuracy {}", r.accuracy);
        }
    }

    #[test]
    fn nested_uses_n_calls() {
        assert_eq!(run(false).n_calls, 0);
        assert!(run(true).n_calls > 0);
    }

    #[test]
    fn fig9_shape_overhead_is_negligible() {
        // Paper: "nested enclave shows a similar performance to the
        // monolithic enclave".
        let mono = run(false);
        let nested = run(true);
        let train_ratio = nested.train_cycles as f64 / mono.train_cycles as f64;
        let pred_ratio = nested.predict_cycles as f64 / mono.predict_cycles as f64;
        assert!(
            train_ratio > 0.95 && train_ratio < 1.10,
            "train ratio {train_ratio}"
        );
        assert!(
            pred_ratio > 0.95 && pred_ratio < 1.10,
            "predict ratio {pred_ratio}"
        );
    }

    #[test]
    fn filter_really_applied() {
        // Both configurations anonymize; predictions come from sanitized
        // data and still classify (dropping column 0 of many features).
        let r = run(true);
        assert!(r.accuracy > 0.5);
    }
}
