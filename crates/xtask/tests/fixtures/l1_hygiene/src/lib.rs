//! The manifest is missing the workspace lint table.
pub fn fine() {}
