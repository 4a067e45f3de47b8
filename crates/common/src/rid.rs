//! Positional tuple identifiers: SIDs and RIDs.
//!
//! The paper (Section 2.1, Figure 4) distinguishes two positional spaces:
//!
//! * **SID** (*Stable ID*): a 0-based dense sequence enumerating tuples as
//!   they are stored in stable storage, i.e. *before* any differential
//!   updates are applied.
//! * **RID** (*Row ID*): a 0-based dense sequence enumerating the tuple
//!   stream visible to the query layer, i.e. *after* the Positional Delta
//!   Trees (PDTs) are merged in.
//!
//! SIDs and RIDs are deliberately different types so that the translation
//! functions in `scanshare-pdt` (`rid_to_sid`, `sid_to_rid_low`,
//! `sid_to_rid_high`) are the only way to move between the two spaces.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

macro_rules! define_pos {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// The zero position.
            pub const ZERO: Self = Self(0);
            /// The maximum representable position.
            pub const MAX: Self = Self(u64::MAX);

            /// Wraps a raw position.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw position.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the position as a `usize` (for indexing in-memory data).
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Saturating addition of a tuple count.
            #[inline]
            pub fn saturating_add(self, n: u64) -> Self {
                Self(self.0.saturating_add(n))
            }

            /// Checked subtraction, returning `None` on underflow.
            #[inline]
            pub fn checked_sub(self, n: u64) -> Option<Self> {
                self.0.checked_sub(n).map(Self)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }

        impl Add<u64> for $name {
            type Output = Self;
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<u64> for $name {
            type Output = Self;
            fn sub(self, rhs: u64) -> Self {
                Self(self.0 - rhs)
            }
        }

        impl Sub<$name> for $name {
            type Output = u64;
            fn sub(self, rhs: $name) -> u64 {
                self.0 - rhs.0
            }
        }
    };
}

define_pos!(
    /// Stable ID: position of a tuple in stable (on-disk) storage, before
    /// differential updates are applied.
    Sid, "sid:"
);
define_pos!(
    /// Row ID: position of a tuple in the update-merged stream visible to
    /// the query processing layer.
    Rid, "rid:"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_u64() {
        let s = Sid::new(10);
        assert_eq!(s + 5, Sid::new(15));
        assert_eq!(s - 3, Sid::new(7));
        assert_eq!(Sid::new(15) - Sid::new(10), 5);
        let mut r = Rid::new(0);
        r += 4;
        assert_eq!(r, Rid::new(4));
    }

    #[test]
    fn saturating_and_checked_ops() {
        assert_eq!(Sid::MAX.saturating_add(1), Sid::MAX);
        assert_eq!(Sid::ZERO.checked_sub(1), None);
        assert_eq!(Sid::new(5).checked_sub(2), Some(Sid::new(3)));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(Sid::new(3).to_string(), "sid:3");
        assert_eq!(Rid::new(9).to_string(), "rid:9");
    }

    #[test]
    fn sid_and_rid_are_distinct_types() {
        // This is a compile-time property; here we just make sure conversions
        // go through u64 explicitly.
        let s = Sid::new(12);
        let r = Rid::new(u64::from(s));
        assert_eq!(r.raw(), 12);
    }
}
