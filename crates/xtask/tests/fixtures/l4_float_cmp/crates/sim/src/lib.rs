#![forbid(unsafe_code, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types, clippy::disallowed_methods)]

pub fn same_temperature(a_c: f64, b_c: f64) -> bool {
    a_c == b_c
}

pub fn hottest(values: &[f64]) -> f64 {
    *values
        .iter()
        .max_by(|a, b| a.partial_cmp(b).unwrap())
        .unwrap_or(&f64::NAN)
}
