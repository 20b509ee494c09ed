//! Typed entity identifiers.
//!
//! Every domain crate defines its own id types (`RoadmId`, `FiberId`,
//! `ConnectionId`, …) with the [`define_id!`](crate::define_id) macro. A typed newtype per
//! entity kind prevents the classic simulator bug of indexing the wrong
//! table with a bare `usize`.

/// Define a `Copy` newtype identifier over `u32` with `Display`/`Debug`
/// and conversion helpers.
///
/// ```
/// simcore::define_id!(WidgetId, "wid");
/// let w = WidgetId::new(7);
/// assert_eq!(w.index(), 7);
/// assert_eq!(w.to_string(), "wid7");
/// ```
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Clone,
            Copy,
            PartialEq,
            Eq,
            PartialOrd,
            Ord,
            Hash,
            ::serde::Serialize,
            ::serde::Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Construct from a raw index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }
            /// Construct from a `usize` index (panics if it does not fit).
            pub fn from_index(i: usize) -> Self {
                $name(u32::try_from(i).expect(concat!(stringify!($name), " index overflow")))
            }
            /// The raw index, for table lookups.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
            /// The raw `u32` value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Display::fmt(self, f)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    define_id!(TestId, "t");

    #[test]
    fn roundtrip_and_display() {
        let id = TestId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.to_string(), "t42");
        assert_eq!(format!("{id:?}"), "t42");
        assert_eq!(TestId::from_index(42), id);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(TestId::new(1) < TestId::new(2));
    }
}
