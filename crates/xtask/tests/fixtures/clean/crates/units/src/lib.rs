pub const PAPER_LAMBDA: f64 = 0.8;
pub const PAPER_T_BREAK_SECS: f64 = 600.0;
pub const PAPER_DELTA_UPDATE_SECS: f64 = 15.0;
pub const PAPER_DELTA_GAP_SECS: f64 = 60.0;
