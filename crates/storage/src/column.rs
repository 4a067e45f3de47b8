//! Column specifications.
//!
//! In a column store, each column of a table occupies a very different
//! number of pages: data types differ and compression ratios differ. The
//! paper stresses that this is why chunks must be *logical tuple ranges*
//! rather than sets of pages. [`ColumnSpec::bytes_per_tuple`] captures the
//! physical width of a column after compression and drives the page-count
//! calculations in [`crate::layout`].

/// Logical type of a column.
///
/// The execution engine represents every value as an `i64` (dictionary /
/// scaled-decimal encoding); the type only influences the default physical
/// width and how synthetic data is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer key or measure.
    Int64,
    /// Scaled decimal (stored as i64).
    Decimal,
    /// Date stored as days since epoch.
    Date,
    /// Dictionary-encoded low-cardinality string (flag, status, ...).
    Dict {
        /// Number of distinct values.
        cardinality: u32,
    },
    /// Variable-length string; `avg_len` drives the physical width.
    Varchar {
        /// Average length in bytes after compression.
        avg_len: u16,
    },
}

impl ColumnType {
    /// Default compressed width for the type, in bytes per tuple.
    pub fn default_width(&self) -> f64 {
        match self {
            ColumnType::Int64 => 4.0,
            ColumnType::Decimal => 4.0,
            ColumnType::Date => 2.0,
            ColumnType::Dict { cardinality } => {
                // log2(cardinality) bits, rounded up to whole bytes, min 1 byte.
                let bits = (*cardinality as f64).log2().ceil().max(1.0);
                (bits / 8.0).max(0.25)
            }
            ColumnType::Varchar { avg_len } => *avg_len as f64,
        }
    }
}

/// Physical description of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name (unique within its table).
    pub name: String,
    /// Logical type.
    pub column_type: ColumnType,
    /// Compressed width in bytes per tuple. May be fractional (e.g. a
    /// run-length-encoded flag column can use far less than one byte per
    /// tuple).
    pub bytes_per_tuple: f64,
}

impl ColumnSpec {
    /// Creates a column with the default width for its type.
    pub fn new(name: impl Into<String>, column_type: ColumnType) -> Self {
        let bytes_per_tuple = column_type.default_width();
        Self {
            name: name.into(),
            column_type,
            bytes_per_tuple,
        }
    }

    /// Creates a column with an explicit compressed width.
    pub fn with_width(
        name: impl Into<String>,
        column_type: ColumnType,
        bytes_per_tuple: f64,
    ) -> Self {
        assert!(
            bytes_per_tuple > 0.0 && bytes_per_tuple.is_finite(),
            "bytes_per_tuple must be positive"
        );
        Self {
            name: name.into(),
            column_type,
            bytes_per_tuple,
        }
    }

    /// Number of tuples that fit in one page of `page_size_bytes`.
    /// Always at least one.
    pub fn tuples_per_page(&self, page_size_bytes: u64) -> u64 {
        ((page_size_bytes as f64 / self.bytes_per_tuple).floor() as u64).max(1)
    }

    /// Number of pages needed to store `tuples` tuples of this column.
    pub fn pages_for_tuples(&self, tuples: u64, page_size_bytes: u64) -> u64 {
        if tuples == 0 {
            return 0;
        }
        let tpp = self.tuples_per_page(page_size_bytes);
        tuples.div_ceil(tpp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_widths_are_sensible() {
        assert_eq!(ColumnType::Int64.default_width(), 4.0);
        assert_eq!(ColumnType::Date.default_width(), 2.0);
        assert!(ColumnType::Dict { cardinality: 2 }.default_width() <= 0.25 + f64::EPSILON);
        assert_eq!(ColumnType::Varchar { avg_len: 12 }.default_width(), 12.0);
    }

    #[test]
    fn tuples_per_page_depends_on_width() {
        let narrow = ColumnSpec::with_width("flag", ColumnType::Dict { cardinality: 3 }, 0.5);
        let wide = ColumnSpec::with_width("comment", ColumnType::Varchar { avg_len: 100 }, 100.0);
        let page = 64 * 1024;
        assert_eq!(narrow.tuples_per_page(page), 131_072);
        assert_eq!(wide.tuples_per_page(page), 655);
        // The paper: one column may fit on a single page while another takes
        // thousands of pages for the same tuple range.
        let tuples = 1_000_000;
        assert_eq!(narrow.pages_for_tuples(tuples, page), 8);
        assert_eq!(wide.pages_for_tuples(tuples, page), 1527);
    }

    #[test]
    fn tuples_per_page_is_at_least_one() {
        let huge = ColumnSpec::with_width("blob", ColumnType::Varchar { avg_len: 200 }, 1e9);
        assert_eq!(huge.tuples_per_page(4096), 1);
    }

    #[test]
    fn pages_for_zero_tuples_is_zero() {
        let c = ColumnSpec::new("k", ColumnType::Int64);
        assert_eq!(c.pages_for_tuples(0, 4096), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_is_rejected() {
        let _ = ColumnSpec::with_width("x", ColumnType::Int64, 0.0);
    }
}
