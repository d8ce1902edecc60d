#![forbid(unsafe_code, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types, clippy::disallowed_methods)]

pub const PAPER_LAMBDA: f64 = 0.8;

pub const DEFAULT_LAMBDA: f64 = 0.8;
