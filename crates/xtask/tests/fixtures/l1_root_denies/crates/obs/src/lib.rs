//! A crate root that forbids the panic lints: stronger than deny, so it
//! passes. obs is not a deterministic crate, so it needs no ban deny.

#![forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub fn count(values: &[u64]) -> usize {
    values.len()
}
