//! C-SVC training by Sequential Minimal Optimization (Platt's SMO, the
//! algorithm inside LibSVM), with one-vs-one multi-class reduction.
//!
//! The trainer computes nothing twice, and every model it returns is bit
//! for bit the one the plain loop would produce:
//!
//! * **Decision values.** `dec[i]` holds sample `i`'s decision value under
//!   the current `(alpha, b)`, so a pass that changes nothing (each
//!   problem ends with `max_passes` of them) computes no sum. On the Gram
//!   path one refresh after each accepted step recomputes all `n` values:
//!   it fills `dec` with `b`, then adds `c * K[k][x]` (`c = alpha[k] *
//!   y[k]`) along each support row `k` in ascending order. Each lane is
//!   the decision sum itself (same start value, terms, order and
//!   roundings, since Rust never fuses `*` and `+`), but the `n` sums are
//!   independent, so the compiler vectorizes them instead of waiting on
//!   one add chain per sample, and each term streams a Gram row instead
//!   of striding down a column. From n = 60 (the tenant models) to
//!   n ≈ 2,800 (near the budget) an accepted step comes once per 70 to
//!   7,000 KKT checks on average, so the checks would read most values
//!   anyway. On the on-demand path a value is computed on first use and
//!   forgotten when an update is accepted.
//! * **Bounded Gram matrix.** Each binary problem whose `n × n` kernel
//!   matrix fits [`GRAM_BUDGET_BYTES`] evaluates every kernel value once
//!   up front; larger problems (`fig9 --full` cod-rna, phishing and
//!   protein; its dna and colon-cancer pairs fit) evaluate them on
//!   demand, as LibSVM bounds its kernel cache. `Kernel::eval` is
//!   symmetric bit for bit (IEEE `*` commutes, `(a-b)² == (b-a)²`, and
//!   dimensions are summed in the same order), so one triangle serves
//!   both.
//! * **Support set.** A decision sum walks the ascending indices with
//!   `alpha > 0` (a sorted list, updated for `i` and `j` after each
//!   accepted step) instead of testing all `n` samples. It adds the same
//!   terms from the same start value `b`, in the same order and by the
//!   same `alpha * y * K` expression, so no rounding changes.

use crate::data::Dataset;
use crate::kernel::Kernel;
use crate::model::{BinaryModel, SvmModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainParams {
    /// Soft-margin penalty.
    pub c: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT tolerance.
    pub tol: f64,
    /// Cap on full optimization passes (keeps worst-case bounded).
    pub max_passes: usize,
    /// RNG seed for the second-multiplier heuristic.
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            c: 1.0,
            kernel: Kernel::Linear,
            tol: 1e-3,
            max_passes: 20,
            seed: 1,
        }
    }
}

/// Largest kernel matrix, in bytes, that training precomputes for one
/// binary problem (n ≤ 2,896 samples). Larger problems evaluate kernel
/// values on demand instead of exhausting host memory.
pub const GRAM_BUDGET_BYTES: usize = 64 << 20;

/// Trains a (possibly multi-class) SVM on `ds` with one-vs-one reduction,
/// exactly like LibSVM's C-SVC.
///
/// # Panics
///
/// Panics if the dataset is empty or has fewer than two classes.
pub fn train(ds: &Dataset, params: &TrainParams) -> SvmModel {
    assert!(!ds.is_empty(), "cannot train on an empty dataset");
    assert!(ds.num_classes >= 2, "need at least two classes");
    let mut binaries = Vec::new();
    for a in 0..ds.num_classes {
        for b in (a + 1)..ds.num_classes {
            let (samples, labels) = class_pair(ds, a, b);
            let bin = train_binary(&samples, &labels, params);
            binaries.push(((a, b), bin));
        }
    }
    SvmModel::new(ds.num_classes, params.kernel, binaries)
}

/// The samples of classes `a` (label `+1`) and `b` (label `-1`).
fn class_pair(ds: &Dataset, a: usize, b: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    ds.samples
        .iter()
        .zip(&ds.labels)
        .filter(|(_, &l)| l == a || l == b)
        .map(|(x, &l)| (x.clone(), if l == a { 1.0 } else { -1.0 }))
        .unzip()
}

/// Trains one binary classifier with simplified SMO, over a precomputed
/// Gram matrix when it fits [`GRAM_BUDGET_BYTES`].
fn train_binary(samples: &[Vec<f64>], labels: &[f64], params: &TrainParams) -> BinaryModel {
    let n = samples.len();
    let fits = n
        .checked_mul(n)
        .and_then(|cells| cells.checked_mul(std::mem::size_of::<f64>()))
        .is_some_and(|bytes| bytes <= GRAM_BUDGET_BYTES);
    let gram = fits.then(|| gram_matrix(samples, params.kernel));
    smo(samples, labels, params, gram.as_deref())
}

/// Row-major `n × n` kernel matrix, each value evaluated once and mirrored.
fn gram_matrix(samples: &[Vec<f64>], kernel: Kernel) -> Vec<f64> {
    let n = samples.len();
    let mut gram = vec![0.0f64; n * n];
    for r in 0..n {
        for c in r..n {
            let k = kernel.eval(&samples[r], &samples[c]);
            gram[r * n + c] = k;
            gram[c * n + r] = k;
        }
    }
    gram
}

/// The SMO loop. Kernel values come from `gram` when given, else from
/// `Kernel::eval` on demand.
fn smo(
    samples: &[Vec<f64>],
    labels: &[f64],
    params: &TrainParams,
    gram: Option<&[f64]>,
) -> BinaryModel {
    let n = samples.len();
    let mut alpha = vec![0.0f64; n];
    let mut b = 0.0f64;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let kernel = |x: usize, y: usize| -> f64 {
        match gram {
            Some(g) => g[x * n + y],
            None => params.kernel.eval(&samples[x], &samples[y]),
        }
    };
    let decision = |alpha: &[f64], support: &[usize], b: f64, x: usize| -> f64 {
        let mut s = b;
        for &k in support {
            s += alpha[k] * labels[k] * kernel(k, x);
        }
        s
    };
    // Ascending indices `k` with `alpha[k] > 0.0`: the only non-zero
    // terms of a decision sum.
    let mut support: Vec<usize> = Vec::new();
    // Decision value of each sample under the current `(alpha, b)`,
    // valid where `known`. With a Gram matrix every value is refreshed
    // after each accepted step; on demand a value is filled on first use.
    let mut dec = vec![b; n];
    let mut known = vec![gram.is_some(); n];
    let mut passes = 0usize;
    while passes < params.max_passes {
        let mut changed = 0usize;
        for i in 0..n {
            if !known[i] {
                dec[i] = decision(&alpha, &support, b, i);
                known[i] = true;
            }
            let ei = dec[i] - labels[i];
            let violates = (labels[i] * ei < -params.tol && alpha[i] < params.c)
                || (labels[i] * ei > params.tol && alpha[i] > 0.0);
            if !violates {
                continue;
            }
            // Second multiplier: random distinct index (Platt's fallback
            // heuristic; adequate at these problem sizes).
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            if !known[j] {
                dec[j] = decision(&alpha, &support, b, j);
                known[j] = true;
            }
            let ej = dec[j] - labels[j];
            let (ai_old, aj_old) = (alpha[i], alpha[j]);
            let (lo, hi) = if (labels[i] - labels[j]).abs() > f64::EPSILON {
                (
                    (alpha[j] - alpha[i]).max(0.0),
                    (params.c + alpha[j] - alpha[i]).min(params.c),
                )
            } else {
                (
                    (alpha[i] + alpha[j] - params.c).max(0.0),
                    (alpha[i] + alpha[j]).min(params.c),
                )
            };
            if hi - lo < 1e-12 {
                continue;
            }
            let kii = kernel(i, i);
            let kjj = kernel(j, j);
            let kij = kernel(i, j);
            let eta = 2.0 * kij - kii - kjj;
            if eta >= 0.0 {
                continue;
            }
            let mut aj = aj_old - labels[j] * (ei - ej) / eta;
            aj = aj.clamp(lo, hi);
            if (aj - aj_old).abs() < 1e-7 {
                continue;
            }
            let ai = ai_old + labels[i] * labels[j] * (aj_old - aj);
            alpha[i] = ai;
            alpha[j] = aj;
            for k in [i, j] {
                match (alpha[k] > 0.0, support.binary_search(&k)) {
                    (true, Err(at)) => support.insert(at, k),
                    (false, Ok(at)) => {
                        support.remove(at);
                    }
                    _ => {}
                }
            }
            let b1 = b - ei - labels[i] * (ai - ai_old) * kii - labels[j] * (aj - aj_old) * kij;
            let b2 = b - ej - labels[i] * (ai - ai_old) * kij - labels[j] * (aj - aj_old) * kjj;
            b = if ai > 0.0 && ai < params.c {
                b1
            } else if aj > 0.0 && aj < params.c {
                b2
            } else {
                (b1 + b2) / 2.0
            };
            match gram {
                // `decision`'s sums, one lane per sample: the same start
                // value, terms, order and roundings.
                Some(g) => {
                    dec.fill(b);
                    for &k in &support {
                        let c = alpha[k] * labels[k];
                        for (d, kv) in dec.iter_mut().zip(&g[k * n..(k + 1) * n]) {
                            *d += c * kv;
                        }
                    }
                }
                None => known.fill(false),
            }
            changed += 1;
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
    }
    // Keep only support vectors.
    let mut support = Vec::new();
    let mut coeffs = Vec::new();
    for i in 0..n {
        if alpha[i] > 1e-9 {
            support.push(samples[i].clone());
            coeffs.push(alpha[i] * labels[i]);
        }
    }
    BinaryModel {
        support,
        coeffs,
        bias: b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::TableVDataset;
    use crate::filter::FilterPolicy;

    /// The trainer before the decision memo and the Gram matrix, kept
    /// verbatim as the exactness reference.
    fn train_binary_reference(
        samples: &[Vec<f64>],
        labels: &[f64],
        params: &TrainParams,
    ) -> BinaryModel {
        let n = samples.len();
        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let decision = |alpha: &[f64], b: f64, x: &[f64]| -> f64 {
            let mut s = b;
            for i in 0..n {
                if alpha[i] > 0.0 {
                    s += alpha[i] * labels[i] * params.kernel.eval(&samples[i], x);
                }
            }
            s
        };
        let mut passes = 0usize;
        while passes < params.max_passes {
            let mut changed = 0usize;
            for i in 0..n {
                let ei = decision(&alpha, b, &samples[i]) - labels[i];
                let violates = (labels[i] * ei < -params.tol && alpha[i] < params.c)
                    || (labels[i] * ei > params.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Second multiplier: random distinct index (Platt's fallback
                // heuristic; adequate at these problem sizes).
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = decision(&alpha, b, &samples[j]) - labels[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (labels[i] - labels[j]).abs() > f64::EPSILON {
                    (
                        (alpha[j] - alpha[i]).max(0.0),
                        (params.c + alpha[j] - alpha[i]).min(params.c),
                    )
                } else {
                    (
                        (alpha[i] + alpha[j] - params.c).max(0.0),
                        (alpha[i] + alpha[j]).min(params.c),
                    )
                };
                if hi - lo < 1e-12 {
                    continue;
                }
                let kii = params.kernel.eval(&samples[i], &samples[i]);
                let kjj = params.kernel.eval(&samples[j], &samples[j]);
                let kij = params.kernel.eval(&samples[i], &samples[j]);
                let eta = 2.0 * kij - kii - kjj;
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - labels[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + labels[i] * labels[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b - ei - labels[i] * (ai - ai_old) * kii - labels[j] * (aj - aj_old) * kij;
                let b2 = b - ej - labels[i] * (ai - ai_old) * kij - labels[j] * (aj - aj_old) * kjj;
                b = if ai > 0.0 && ai < params.c {
                    b1
                } else if aj > 0.0 && aj < params.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }
        // Keep only support vectors.
        let mut support = Vec::new();
        let mut coeffs = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-9 {
                support.push(samples[i].clone());
                coeffs.push(alpha[i] * labels[i]);
            }
        }
        BinaryModel {
            support,
            coeffs,
            bias: b,
        }
    }

    fn assert_bit_identical(got: &BinaryModel, want: &BinaryModel, what: &str) {
        let bits = |m: &BinaryModel| {
            let support: Vec<Vec<u64>> = m
                .support
                .iter()
                .map(|x| x.iter().map(|v| v.to_bits()).collect())
                .collect();
            let coeffs: Vec<u64> = m.coeffs.iter().map(|v| v.to_bits()).collect();
            (support, coeffs, m.bias.to_bits())
        };
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// Trains every one-vs-one problem of `ds` three ways (the trainer,
    /// the on-demand kernel path, the reference) and asserts all agree
    /// bit for bit.
    fn assert_matches_reference(ds: &Dataset, params: &TrainParams, what: &str) {
        for a in 0..ds.num_classes {
            for b in (a + 1)..ds.num_classes {
                let (samples, labels) = class_pair(ds, a, b);
                let want = train_binary_reference(&samples, &labels, params);
                let what = format!("{what}, classes ({a}, {b})");
                assert_bit_identical(&train_binary(&samples, &labels, params), &want, &what);
                assert_bit_identical(&smo(&samples, &labels, params, None), &want, &what);
            }
        }
    }

    const KERNELS: [Kernel; 2] = [Kernel::Linear, Kernel::Rbf { gamma: 0.25 }];

    #[test]
    fn tenant_model_shape_matches_reference() {
        // `ne-host`'s `tenant_model`: 3 classes x 30 x 8 dims, with its
        // dataset and trainer seed mixing.
        for kernel in KERNELS {
            for seed in 0..64u64 {
                for tenant in 0..4u64 {
                    let ds = Dataset::synthetic(
                        3,
                        30,
                        8,
                        seed ^ tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let params = TrainParams {
                        kernel,
                        seed: seed.wrapping_add(tenant),
                        ..Default::default()
                    };
                    assert_matches_reference(&ds, &params, &format!("{kernel:?} {seed}/{tenant}"));
                }
            }
        }
    }

    #[test]
    fn table_v_shapes_match_reference() {
        // Fig. 9's default scale, raw and through the case study's filter.
        let filter = FilterPolicy {
            drop_columns: vec![0],
            quantize: vec![],
        };
        for kernel in KERNELS {
            for ds in TableVDataset::ALL {
                let (train_ds, _) = ds.generate_with_seed(0.005, 0);
                let params = TrainParams {
                    kernel,
                    ..Default::default()
                };
                let what = format!("{kernel:?} {}", ds.name());
                assert_matches_reference(&train_ds, &params, &what);
                assert_matches_reference(&filter.anonymize(&train_ds), &params, &what);
            }
        }
    }

    #[test]
    fn tiny_problems_match_reference() {
        for kernel in KERNELS {
            for per_class in 1..=2 {
                for classes in 2..=3 {
                    for seed in 0..8 {
                        let ds = Dataset::synthetic(classes, per_class, 4, seed);
                        let params = TrainParams {
                            kernel,
                            seed,
                            ..Default::default()
                        };
                        let what = format!("{kernel:?} {classes}x{per_class} seed {seed}");
                        assert_matches_reference(&ds, &params, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn trains_separable_binary() {
        let ds = Dataset::synthetic(2, 60, 4, 3);
        let model = train(&ds, &TrainParams::default());
        assert!(model.accuracy(&ds) > 0.95, "got {}", model.accuracy(&ds));
    }

    #[test]
    fn trains_three_classes_one_vs_one() {
        let ds = Dataset::synthetic(3, 40, 12, 5);
        let model = train(&ds, &TrainParams::default());
        assert_eq!(model.num_binaries(), 3, "C(3,2) pairwise classifiers");
        assert!(model.accuracy(&ds) > 0.9, "got {}", model.accuracy(&ds));
    }

    #[test]
    fn rbf_kernel_trains() {
        let ds = Dataset::synthetic(2, 40, 4, 8);
        let model = train(
            &ds,
            &TrainParams {
                kernel: Kernel::Rbf { gamma: 0.25 },
                ..Default::default()
            },
        );
        assert!(model.accuracy(&ds) > 0.9, "got {}", model.accuracy(&ds));
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let train_ds = Dataset::synthetic(2, 80, 4, 11);
        let test_ds = Dataset::synthetic(2, 20, 4, 999);
        let model = train(&train_ds, &TrainParams::default());
        assert!(
            model.accuracy(&test_ds) > 0.9,
            "got {}",
            model.accuracy(&test_ds)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = Dataset::synthetic(2, 30, 3, 2);
        let m1 = train(&ds, &TrainParams::default());
        let m2 = train(&ds, &TrainParams::default());
        assert_eq!(m1.predict(&ds.samples[0]), m2.predict(&ds.samples[0]));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let ds = Dataset::new(vec![], vec![], 2);
        train(&ds, &TrainParams::default());
    }
}
