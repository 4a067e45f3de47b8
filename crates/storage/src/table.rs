//! Table specifications.

use crate::column::{ColumnSpec, ColumnType};
use scanshare_common::{Error, Result};

/// Logical and physical description of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Table name (unique within the catalog).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnSpec>,
    /// Number of tuples stored in stable storage when the table is created
    /// (appends may add more later).
    pub base_tuples: u64,
}

impl TableSpec {
    /// Creates a table spec.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnSpec>, base_tuples: u64) -> Self {
        Self {
            name: name.into(),
            columns,
            base_tuples,
        }
    }

    /// Convenience constructor: `n` identical Int64 columns named `c0..cN`.
    /// Useful in tests and microbenchmarks.
    pub fn with_int_columns(name: impl Into<String>, n: usize, base_tuples: u64) -> Self {
        let columns = (0..n)
            .map(|i| ColumnSpec::new(format!("c{i}"), ColumnType::Int64))
            .collect();
        Self::new(name, columns, base_tuples)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Looks up a column by name, returning an error naming the table when
    /// it does not exist.
    pub fn column(&self, name: &str) -> Result<&ColumnSpec> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| Error::UnknownColumn {
                table: scanshare_common::TableId::new(u32::MAX),
                column: name.to_string(),
            })
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(Error::config("table name must not be empty"));
        }
        if self.columns.is_empty() {
            return Err(Error::config(format!("table {} has no columns", self.name)));
        }
        let mut names: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.columns.len() {
            return Err(Error::config(format!(
                "table {} has duplicate column names",
                self.name
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_int_columns_builds_named_columns() {
        let t = TableSpec::with_int_columns("t", 3, 100);
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.columns[2].name, "c2");
        assert_eq!(t.column_index("c1"), Some(1));
        assert_eq!(t.column_index("zzz"), None);
    }

    #[test]
    fn validate_rejects_duplicates_and_empties() {
        let dup = TableSpec::new(
            "t",
            vec![
                ColumnSpec::new("a", ColumnType::Int64),
                ColumnSpec::new("a", ColumnType::Int64),
            ],
            10,
        );
        assert!(dup.validate().is_err());
        let empty = TableSpec::new("t", vec![], 10);
        assert!(empty.validate().is_err());
        let unnamed = TableSpec::with_int_columns("", 1, 10);
        assert!(unnamed.validate().is_err());
        assert!(TableSpec::with_int_columns("ok", 1, 10).validate().is_ok());
    }

    #[test]
    fn column_lookup_errors_name_the_column() {
        let t = TableSpec::with_int_columns("t", 1, 10);
        let err = t.column("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }
}
