//! Column-major batches of tuples.

use scanshare_storage::datagen::Value;

/// A vectorized batch: a set of equally long column vectors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    columns: Vec<Vec<Value>>,
}

impl Batch {
    /// Creates a batch from column vectors (all must have equal length).
    pub fn new(columns: Vec<Vec<Value>>) -> Self {
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "all batch columns must have the same length"
            );
        }
        Self { columns }
    }

    /// An empty batch with `width` columns.
    pub fn empty(width: usize) -> Self {
        Self {
            columns: vec![Vec::new(); width],
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map(Vec::len).unwrap_or(0)
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `i` as a slice.
    pub fn column(&self, i: usize) -> &[Value] {
        &self.columns[i]
    }

    /// The value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col][row]
    }

    /// Appends the rows of `other` (same width) to this batch.
    pub fn append(&mut self, other: &Batch) {
        assert_eq!(self.width(), other.width(), "batch width mismatch");
        for (dst, src) in self.columns.iter_mut().zip(other.columns.iter()) {
            dst.extend_from_slice(src);
        }
    }

    /// Row `row` as a vector of its values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[row]).collect()
    }

    /// Converts to row-major form (convenient in tests).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len()).map(|r| self.row(r)).collect()
    }
}

#[cfg(test)]
impl Batch {
    /// Builds a batch from row-major data.
    pub(crate) fn from_rows(width: usize, rows: &[Vec<Value>]) -> Self {
        let mut columns = vec![Vec::with_capacity(rows.len()); width];
        for row in rows {
            assert_eq!(row.len(), width, "row arity mismatch");
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Self { columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let b = Batch::new(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(b.width(), 2);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.value(1, 1), 5);
        assert_eq!(b.column(0), &[1, 2, 3]);
        assert!(Batch::empty(3).is_empty());
    }

    #[test]
    fn from_rows_and_to_rows_round_trip() {
        let rows = vec![vec![1, 10], vec![2, 20], vec![3, 30]];
        let b = Batch::from_rows(2, &rows);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn append_extends_every_column() {
        let mut a = Batch::new(vec![vec![1, 2], vec![10, 20]]);
        let b = Batch::new(vec![vec![3], vec![30]]);
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.row(2), vec![3, 30]);
        assert_eq!(a.column(1), &[10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_columns_are_rejected() {
        let _ = Batch::new(vec![vec![1], vec![2, 3]]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn append_width_mismatch_is_rejected() {
        let mut a = Batch::new(vec![vec![1]]);
        a.append(&Batch::new(vec![vec![1], vec![2]]));
    }
}
