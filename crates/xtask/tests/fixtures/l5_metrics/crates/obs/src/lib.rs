#![forbid(unsafe_code, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod names;

pub const METRIC_OBS_SIDE: &str = "vmtherm_obs_side_total";
