#![forbid(unsafe_code, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types, clippy::disallowed_methods)]

pub const METRIC_LOCAL_STEPS: &str = "vmtherm_local_steps_total";

pub const SPAN_LOCAL: &str = "local_span";

pub const ALERT_LOCAL_FIRED: &str = "vmtherm_local_alerts_fired_total";
