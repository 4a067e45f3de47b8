//! The table catalog.
//!
//! The catalog assigns [`TableId`]s and [`ColumnId`]s and owns the
//! [`TableLayout`] (page-mapping metadata) for every table. It is purely
//! metadata: page *contents* and snapshots live in [`crate::storage`].

use std::collections::HashMap;
use std::sync::Arc;

use scanshare_common::{ColumnId, Error, Result, TableId};

use crate::layout::TableLayout;
use crate::table::TableSpec;

/// Metadata registered for one table.
#[derive(Debug)]
pub struct TableEntry {
    /// The table id.
    pub id: TableId,
    /// The table specification.
    pub spec: TableSpec,
    /// Global column ids, parallel to `spec.columns`.
    pub column_ids: Vec<ColumnId>,
    /// Page-layout helper for the table.
    pub layout: Arc<TableLayout>,
}

/// A catalog of tables.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: Vec<Arc<TableEntry>>,
    by_name: HashMap<String, TableId>,
    next_column_id: u32,
    page_size_bytes: u64,
    chunk_tuples: u64,
}

impl Catalog {
    /// Creates a catalog. `page_size_bytes` and `chunk_tuples` apply to all
    /// tables registered with it.
    pub fn new(page_size_bytes: u64, chunk_tuples: u64) -> Self {
        assert!(page_size_bytes > 0 && chunk_tuples > 0);
        Self {
            tables: Vec::new(),
            by_name: HashMap::new(),
            next_column_id: 0,
            page_size_bytes,
            chunk_tuples,
        }
    }

    /// Registers a table and returns its id.
    pub fn create_table(&mut self, spec: TableSpec) -> Result<TableId> {
        spec.validate()?;
        if self.by_name.contains_key(&spec.name) {
            return Err(Error::config(format!(
                "table {:?} already exists",
                spec.name
            )));
        }
        let id = TableId::new(self.tables.len() as u32);
        let column_ids: Vec<ColumnId> = spec
            .columns
            .iter()
            .map(|_| {
                let cid = ColumnId::new(self.next_column_id);
                self.next_column_id += 1;
                cid
            })
            .collect();
        let layout = Arc::new(TableLayout::new(
            id,
            spec.clone(),
            column_ids.clone(),
            self.page_size_bytes,
            self.chunk_tuples,
        ));
        self.by_name.insert(spec.name.clone(), id);
        self.tables.push(Arc::new(TableEntry {
            id,
            spec,
            column_ids,
            layout,
        }));
        Ok(id)
    }

    /// Looks up a table by id.
    pub fn table(&self, id: TableId) -> Result<&Arc<TableEntry>> {
        self.tables.get(id.index()).ok_or(Error::UnknownTable(id))
    }

    /// Looks up a table by name.
    pub fn table_by_name(&self, name: &str) -> Result<&Arc<TableEntry>> {
        let id = *self
            .by_name
            .get(name)
            .ok_or_else(|| Error::config(format!("unknown table {name:?}")))?;
        self.table(id)
    }

    /// Returns the layout helper for a table.
    pub fn layout(&self, id: TableId) -> Result<Arc<TableLayout>> {
        Ok(Arc::clone(&self.table(id)?.layout))
    }

    /// Resolves column names of `table` to indices within the table spec.
    pub fn resolve_columns(&self, table: TableId, names: &[&str]) -> Result<Vec<usize>> {
        let entry = self.table(table)?;
        names
            .iter()
            .map(|n| {
                entry
                    .spec
                    .column_index(n)
                    .ok_or_else(|| Error::UnknownColumn {
                        table,
                        column: (*n).to_string(),
                    })
            })
            .collect()
    }

    /// Iterates over all registered tables.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableEntry>> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnSpec, ColumnType};

    fn catalog() -> Catalog {
        Catalog::new(64 * 1024, 100_000)
    }

    #[test]
    fn create_and_lookup_table() {
        let mut cat = catalog();
        let id = cat
            .create_table(TableSpec::with_int_columns("lineitem", 4, 1000))
            .unwrap();
        assert_eq!(cat.table(id).unwrap().spec.name, "lineitem");
        assert_eq!(cat.table_by_name("lineitem").unwrap().id, id);
        assert!(cat.table(TableId::new(9)).is_err());
        assert!(cat.table_by_name("orders").is_err());
    }

    #[test]
    fn duplicate_table_names_are_rejected() {
        let mut cat = catalog();
        cat.create_table(TableSpec::with_int_columns("t", 1, 10))
            .unwrap();
        assert!(cat
            .create_table(TableSpec::with_int_columns("t", 2, 10))
            .is_err());
    }

    #[test]
    fn column_ids_are_globally_unique() {
        let mut cat = catalog();
        let a = cat
            .create_table(TableSpec::with_int_columns("a", 2, 10))
            .unwrap();
        let b = cat
            .create_table(TableSpec::with_int_columns("b", 2, 10))
            .unwrap();
        let a_cols = &cat.table(a).unwrap().column_ids;
        let b_cols = &cat.table(b).unwrap().column_ids;
        assert_eq!(a_cols, &[ColumnId::new(0), ColumnId::new(1)]);
        assert_eq!(b_cols, &[ColumnId::new(2), ColumnId::new(3)]);
    }

    #[test]
    fn resolve_columns_maps_names_to_indices() {
        let mut cat = catalog();
        let spec = TableSpec::new(
            "t",
            vec![
                ColumnSpec::new("l_quantity", ColumnType::Decimal),
                ColumnSpec::new("l_shipdate", ColumnType::Date),
            ],
            100,
        );
        let id = cat.create_table(spec).unwrap();
        assert_eq!(
            cat.resolve_columns(id, &["l_shipdate", "l_quantity"])
                .unwrap(),
            vec![1, 0]
        );
        let err = cat.resolve_columns(id, &["nope"]).unwrap_err();
        assert!(matches!(err, Error::UnknownColumn { .. }));
    }
}
