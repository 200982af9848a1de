#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ne-db — a miniature SQL engine with a YCSB workload generator
//!
//! Substrate for the paper's SQLite case study (§ VI-B, Table VI): a small
//! but real query path — tokenizer → parser → executor over B-tree-backed
//! tables — plus a YCSB-style workload generator producing the paper's
//! four mixes with a uniform random request distribution.
//!
//! # Example
//!
//! ```
//! use ne_db::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE usertable (key TEXT, field0 TEXT)").unwrap();
//! db.execute("INSERT INTO usertable VALUES ('user1', 'v1')").unwrap();
//! let rows = db.execute("SELECT field0 FROM usertable WHERE key = 'user1'").unwrap();
//! assert_eq!(rows.rows[0][0].as_text(), Some("v1"));
//! ```

pub mod exec;
pub mod parser;
pub mod snapshot;
pub mod storage;
pub mod value;
pub mod ycsb;

pub use exec::{Database, QueryResult};
pub use parser::{parse, Statement};
pub use snapshot::SnapshotError;
pub use value::Value;
pub use ycsb::{Workload, WorkloadMix};
