//! A well-behaved crate: newtyped public API,
//! no panics, no float equality, no paper constants.

pub fn observe(t_secs: Seconds, measured_c: Celsius) -> f64 {
    t_secs.get() + measured_c.get()
}
