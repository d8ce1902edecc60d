//! A crate root with both determinism denies, in a workspace whose
//! clippy.toml no longer bans `BinaryHeap`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub fn first(values: &[u64]) -> Option<u64> {
    values.first().copied()
}
