pub struct DenseMatrix;

impl DenseMatrix {
    /// The designated boundary constructor: the one nested signature L6
    /// allows, in this file only.
    pub fn from_nested(nested: Vec<Vec<f64>>) -> DenseMatrix {
        let _ = nested;
        DenseMatrix
    }
}
