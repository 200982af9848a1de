#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ne-svm — a LibSVM-style support-vector-machine library
//!
//! Substrate for the paper's § VI-B case study ("machine learning as a
//! service" on LibSVM). Provides:
//!
//! * an SMO-based C-SVC trainer ([`smo`]) with linear and RBF kernels
//!   ([`kernel`]), one-vs-one multi-class like LibSVM,
//! * prediction ([`model`]),
//! * synthetic datasets shaped like the paper's Table V ([`data`]),
//! * the privacy filter the inner enclave applies before handing samples
//!   to the shared outer-enclave library ([`filter`]).
//!
//! # Example
//!
//! ```
//! use ne_svm::data::Dataset;
//! use ne_svm::kernel::Kernel;
//! use ne_svm::smo::{train, TrainParams};
//!
//! let ds = Dataset::synthetic(2, 80, 4, 42);
//! let model = train(&ds, &TrainParams { c: 1.0, kernel: Kernel::Linear, ..Default::default() });
//! let acc = model.accuracy(&ds);
//! assert!(acc > 0.9, "separable synthetic data should train well, got {acc}");
//! ```

pub mod data;
pub mod filter;
pub mod kernel;
pub mod model;
pub mod smo;

pub use data::Dataset;
pub use kernel::Kernel;
pub use model::SvmModel;
pub use smo::{train, TrainParams};
