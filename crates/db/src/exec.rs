//! Statement execution.

use crate::parser::{parse, ParseError, Statement};
use crate::storage::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Syntax error from the parser.
    Parse(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// Wrong number of inserted values.
    ArityMismatch {
        /// Expected column count.
        expected: usize,
        /// Provided value count.
        got: usize,
    },
    /// Table already exists.
    TableExists(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(s) => write!(f, "parse error: {s}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e.0)
    }
}

/// Result of a statement: projected rows (for SELECT) and the number of
/// rows affected (for writes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Projected rows.
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub affected: usize,
}

/// An in-memory SQL database.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Parses and executes one statement.
    ///
    /// # Errors
    ///
    /// Parse and execution errors ([`DbError`]).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        let stmt = parse(sql)?;
        self.execute_statement(&stmt)
    }

    /// Executes an already-parsed statement (the nested case study parses
    /// in the inner enclave and executes in the outer one).
    ///
    /// # Errors
    ///
    /// Execution errors ([`DbError`]).
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult, DbError> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                if self.tables.contains_key(name) {
                    return Err(DbError::TableExists(name.clone()));
                }
                self.tables
                    .insert(name.clone(), Table::new(columns.clone()));
                Ok(QueryResult::default())
            }
            Statement::Insert { table, values } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                if values.len() != t.columns.len() {
                    return Err(DbError::ArityMismatch {
                        expected: t.columns.len(),
                        got: values.len(),
                    });
                }
                t.insert(values.clone());
                Ok(QueryResult {
                    rows: vec![],
                    affected: 1,
                })
            }
            Statement::Select {
                table,
                columns,
                predicate,
            } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let proj: Vec<usize> = if columns.is_empty() {
                    (0..t.columns.len()).collect()
                } else {
                    columns
                        .iter()
                        .map(|c| {
                            t.column_index(c)
                                .ok_or_else(|| DbError::NoSuchColumn(c.clone()))
                        })
                        .collect::<Result<_, _>>()?
                };
                let mut rows = Vec::new();
                match predicate {
                    // Point query on the primary key: B-tree lookup.
                    Some((col, v)) if t.column_index(col) == Some(0) => {
                        if let Some(row) = t.get(v) {
                            rows.push(proj.iter().map(|&i| row[i].clone()).collect());
                        }
                    }
                    Some((col, v)) => {
                        let ci = t
                            .column_index(col)
                            .ok_or_else(|| DbError::NoSuchColumn(col.clone()))?;
                        for row in t.scan() {
                            if &row[ci] == v {
                                rows.push(proj.iter().map(|&i| row[i].clone()).collect());
                            }
                        }
                    }
                    None => {
                        for row in t.scan() {
                            rows.push(proj.iter().map(|&i| row[i].clone()).collect());
                        }
                    }
                }
                let affected = rows.len();
                Ok(QueryResult { rows, affected })
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let assign_idx: Vec<(usize, Value)> = assignments
                    .iter()
                    .map(|(c, v)| {
                        t.column_index(c)
                            .map(|i| (i, v.clone()))
                            .ok_or_else(|| DbError::NoSuchColumn(c.clone()))
                    })
                    .collect::<Result<_, _>>()?;
                let mut affected = 0;
                match predicate {
                    Some((col, v)) if t.column_index(col) == Some(0) => {
                        if let Some(row) = t.get_mut(v) {
                            for (i, nv) in &assign_idx {
                                row[*i] = nv.clone();
                            }
                            affected = 1;
                        }
                    }
                    Some((col, v)) => {
                        let ci = t
                            .column_index(col)
                            .ok_or_else(|| DbError::NoSuchColumn(col.clone()))?;
                        for row in t.scan_mut() {
                            if &row[ci] == v {
                                for (i, nv) in &assign_idx {
                                    row[*i] = nv.clone();
                                }
                                affected += 1;
                            }
                        }
                    }
                    None => {
                        for row in t.scan_mut() {
                            for (i, nv) in &assign_idx {
                                row[*i] = nv.clone();
                            }
                            affected += 1;
                        }
                    }
                }
                Ok(QueryResult {
                    rows: vec![],
                    affected,
                })
            }
            Statement::Delete { table, predicate } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let (col, v) = predicate;
                let affected = if t.column_index(col) == Some(0) {
                    usize::from(t.remove(v).is_some())
                } else {
                    let ci = t
                        .column_index(col)
                        .ok_or_else(|| DbError::NoSuchColumn(col.clone()))?;
                    let keys: Vec<Value> = t
                        .scan()
                        .filter(|row| &row[ci] == v)
                        .map(|row| row[0].clone())
                        .collect();
                    let n = keys.len();
                    for k in keys {
                        t.remove(&k);
                    }
                    n
                };
                Ok(QueryResult {
                    rows: vec![],
                    affected,
                })
            }
        }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Row count of a table, if it exists.
    pub fn table_len(&self, name: &str) -> Option<usize> {
        self.tables.get(name).map(Table::len)
    }

    /// Tables in ascending name order (the snapshot codec's canonical
    /// iteration order — `HashMap` iteration order must never leak into
    /// serialized bytes).
    pub(crate) fn tables_sorted(&self) -> Vec<(&String, &Table)> {
        let mut tables: Vec<_> = self.tables.iter().collect();
        tables.sort_by_key(|(name, _)| (*name).clone());
        tables
    }

    /// Installs a fully-built table under `name` (snapshot restore path).
    pub(crate) fn install_table(&mut self, name: String, table: Table) {
        self.tables.insert(name, table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut d = Database::new();
        d.execute("CREATE TABLE usertable (key TEXT, f0 TEXT, f1 INT)")
            .unwrap();
        d.execute("INSERT INTO usertable VALUES ('u1', 'a', 10)")
            .unwrap();
        d.execute("INSERT INTO usertable VALUES ('u2', 'b', 20)")
            .unwrap();
        d
    }

    #[test]
    fn select_point_query() {
        let mut d = db();
        let r = d
            .execute("SELECT f0, f1 FROM usertable WHERE key = 'u1'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("a"), Value::Int(10)]]);
    }

    #[test]
    fn select_star_scan() {
        let mut d = db();
        let r = d.execute("SELECT * FROM usertable").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::from("u1"));
    }

    #[test]
    fn select_non_key_predicate_scans() {
        let mut d = db();
        let r = d
            .execute("SELECT key FROM usertable WHERE f1 = 20")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("u2")]]);
    }

    #[test]
    fn update_point_and_verify() {
        let mut d = db();
        let r = d
            .execute("UPDATE usertable SET f0 = 'z' WHERE key = 'u2'")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = d
            .execute("SELECT f0 FROM usertable WHERE key = 'u2'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::from("z"));
    }

    #[test]
    fn update_all_rows() {
        let mut d = db();
        let r = d.execute("UPDATE usertable SET f1 = 0").unwrap();
        assert_eq!(r.affected, 2);
    }

    #[test]
    fn delete_by_key() {
        let mut d = db();
        let r = d.execute("DELETE FROM usertable WHERE key = 'u1'").unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(d.table_len("usertable"), Some(1));
    }

    #[test]
    fn insert_replaces_by_key() {
        let mut d = db();
        d.execute("INSERT INTO usertable VALUES ('u1', 'new', 99)")
            .unwrap();
        assert_eq!(d.table_len("usertable"), Some(2), "upsert, not duplicate");
        let r = d
            .execute("SELECT f0 FROM usertable WHERE key = 'u1'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::from("new"));
    }

    #[test]
    fn error_paths() {
        let mut d = db();
        assert!(matches!(
            d.execute("SELECT * FROM missing"),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            d.execute("SELECT nope FROM usertable"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            d.execute("INSERT INTO usertable VALUES ('x')"),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            d.execute("CREATE TABLE usertable (a TEXT)"),
            Err(DbError::TableExists(_))
        ));
        assert!(matches!(d.execute("garbage"), Err(DbError::Parse(_))));
    }

    #[test]
    fn missing_point_select_returns_empty() {
        let mut d = db();
        let r = d
            .execute("SELECT * FROM usertable WHERE key = 'nope'")
            .unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.affected, 0);
    }
}
