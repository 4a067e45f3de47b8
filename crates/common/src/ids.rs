//! Strongly-typed identifiers used across the workspace.
//!
//! Every entity that flows between the storage layer, the buffer manager and
//! the execution engine gets its own newtype so that, e.g., a [`PageId`]
//! can never be confused with a [`ChunkId`]. All identifiers are cheap
//! `Copy` types ordered by their numeric value.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $repr:ty) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $repr);

        impl $name {
            /// Wraps a raw numeric value.
            #[inline]
            pub const fn new(raw: $repr) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value.
            #[inline]
            pub const fn raw(self) -> $repr {
                self.0
            }

            /// Returns the identifier as a `usize`, convenient for indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(raw: $repr) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $repr {
            fn from(id: $name) -> $repr {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifies a table in the catalog.
    TableId, "T", u32
);
define_id!(
    /// Identifies a column within the catalog (globally unique, not per-table).
    ColumnId, "C", u32
);
define_id!(
    /// Identifies a physical page of stable storage (globally unique).
    PageId, "P", u64
);
define_id!(
    /// Identifies a logical chunk: a fixed-size range of stable tuple ids
    /// (SIDs) of one table version. Chunks are the scheduling granularity of
    /// the Active Buffer Manager.
    ChunkId, "K", u32
);
define_id!(
    /// Identifies a registered scan (either a traditional `Scan` registered
    /// with PBM or a `CScan` registered with ABM).
    ScanId, "S", u64
);
define_id!(
    /// Identifies a query in a workload.
    QueryId, "Q", u64
);
define_id!(
    /// Identifies a storage snapshot (a versioned set of page references).
    SnapshotId, "V", u64
);
define_id!(
    /// Identifies a workload stream (a sequence of queries run back-to-back).
    StreamId, "W", u32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(TableId::new(3).to_string(), "T3");
        assert_eq!(PageId::new(42).to_string(), "P42");
        assert_eq!(ChunkId::new(7).to_string(), "K7");
        assert_eq!(ScanId::new(0).to_string(), "S0");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(PageId::new(1) < PageId::new(2));
        assert!(ChunkId::new(10) > ChunkId::new(9));
    }

    #[test]
    fn conversions_round_trip() {
        let id = ColumnId::from(9u32);
        let raw: u32 = id.into();
        assert_eq!(raw, 9);
        assert_eq!(id.index(), 9usize);
        assert_eq!(id.raw(), 9);
    }

    #[test]
    fn ids_are_hashable_and_usable_as_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(PageId::new(1), "one");
        m.insert(PageId::new(2), "two");
        assert_eq!(m[&PageId::new(1)], "one");
        assert_eq!(m.len(), 2);
    }
}
