#![forbid(unsafe_code, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types, clippy::disallowed_methods)]

pub struct Sensor;

impl Sensor {
    pub fn set_ambient(&mut self, ambient_c: f64) {
        let _ = ambient_c;
    }
}

pub trait Predictor {
    fn observe(&mut self, t_secs: f64, series: &[f64]);
}
