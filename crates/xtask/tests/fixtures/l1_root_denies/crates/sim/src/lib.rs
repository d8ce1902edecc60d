//! A crate root whose panic deny was commented out: a comment denies
//! nothing.

// #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub fn first(values: &[u64]) -> Option<u64> {
    values.first().copied()
}
