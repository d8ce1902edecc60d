//! Three panic-lint exemption attributes against a ratchet of two.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types, clippy::disallowed_methods)]

#[expect(clippy::expect_used, reason = "fixture: caller checks nonempty")]
pub fn first(xs: &[f64]) -> f64 {
    xs.first().copied().expect("caller checks nonempty")
}

pub fn last(xs: &[f64]) -> f64 {
    #[allow(
        clippy::unwrap_used,
        reason = "fixture: \"wrapped\" by rustfmt"
    )]
    let x = xs.last().copied().unwrap();
    x
}

#[allow(clippy::panic)]
pub fn never() {
    panic!("fixture")
}
