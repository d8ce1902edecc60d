#![forbid(unsafe_code, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types, clippy::disallowed_methods)]

pub struct DenseMatrix;

pub fn train(xs: Vec<Vec<f64>>) -> DenseMatrix {
    let _ = xs;
    DenseMatrix
}

pub fn predict_batch(
    features: &DenseMatrix,
    weights: Vec<Vec<f64>>,
) -> Vec<f64> {
    let _ = (features, weights);
    Vec::new()
}

pub trait Solver {
    fn gram(&self) -> Vec<Vec<f64>>;
    fn solve(&self, features: &DenseMatrix) -> f64;
}

pub fn from_nested(nested: Vec<Vec<f64>>) -> DenseMatrix {
    let _ = nested;
    DenseMatrix
}

fn internal_scratch(xs: Vec<Vec<f64>>) -> usize {
    xs.len()
}

#[cfg(test)]
mod tests {
    pub fn fixture_rows() -> Vec<Vec<f64>> {
        vec![vec![1.0]]
    }
}
