#![warn(missing_docs)]

//! # ne-bench — experiment harnesses for every table and figure
//!
//! Each module reproduces one piece of the paper's evaluation; the
//! binaries in `src/bin/` print the corresponding table/figure in
//! simulated cycles. Host time is measured by the separate `perfbench`
//! package.
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Table II (transition latency) | [`transitions`] | `table2` |
//! | Table III (porting effort) | [`loc`] | `table3` |
//! | Table V (datasets) + Fig. 9 (LibSVM) | [`svm_case`] | `fig9` |
//! | Table VI (SQLite/YCSB) | [`db_case`] | `table6` |
//! | Fig. 7 (echo throughput) | `ne_tls::echo` | `fig7` |
//! | Fig. 10 (loading time/footprint) | [`loading`] | `fig10` |
//! | Fig. 11 (MEE vs GCM channel) | [`channel_exp`] | `fig11` |
//! | § IV-E ablations | [`loading`], [`channel_exp`] | `ablation_evict`, `ablation_depth` |

pub mod channel_exp;
pub mod db_case;
pub mod json;
pub mod loading;
pub mod loc;
pub mod report;
pub mod svm_case;
pub mod transitions;
