//! Model persistence.
//!
//! Trained models and fitted scalers are plain serde data structures; this
//! module provides a tiny self-describing text container so a model trained
//! offline (as the paper does: "a SVM model was trained from the collected
//! data and deployed in real environment") can be shipped to the online
//! predictor without any extra dependency.
//!
//! Format: a header line `vmtherm-model <kind> v1`, then one `key=value`
//! line per scalar field, then length-prefixed vector blocks. Everything is
//! ASCII and line-oriented, in the spirit of LIBSVM's `.model` files.

use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;
use crate::scale::{self, Scaler};
use crate::svr::SvrModel;
use std::fmt::Write as _;

/// Serialises an [`SvrModel`] into the text container.
#[must_use]
pub fn svr_to_string(model: &SvrModel) -> String {
    let mut out = String::new();
    out.push_str("vmtherm-model svr v1\n");
    let _ = writeln!(out, "kernel={}", kernel_tag(model.kernel()));
    let _ = writeln!(out, "bias={}", model.bias());
    let _ = writeln!(out, "dim={}", model.dim());
    let _ = writeln!(out, "nsv={}", model.num_support_vectors());
    for (coef, sv) in model.coefficients().iter().zip(model.support_vectors()) {
        let _ = write!(out, "{coef}");
        for v in sv {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    out
}

/// Parses the text container back into an [`SvrModel`].
///
/// # Errors
///
/// [`SvmError::Parse`] on any malformed content.
pub fn svr_from_string(text: &str) -> Result<SvrModel, SvmError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| SvmError::parse(1, "empty model file"))?;
    if header.trim() != "vmtherm-model svr v1" {
        return Err(SvmError::parse(1, format!("bad header `{header}`")));
    }
    let mut kernel: Option<Kernel> = None;
    let mut bias: Option<f64> = None;
    let mut dim: Option<usize> = None;
    let mut nsv: Option<usize> = None;
    for _ in 0..4 {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated header"))?;
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| SvmError::parse(lineno + 1, "expected key=value"))?;
        match key {
            "kernel" => kernel = Some(parse_kernel_tag(value, lineno + 1)?),
            "bias" => {
                bias = Some(
                    value
                        .parse()
                        .map_err(|_| SvmError::parse(lineno + 1, "bad bias"))?,
                );
            }
            "dim" => {
                dim = Some(
                    value
                        .parse()
                        .map_err(|_| SvmError::parse(lineno + 1, "bad dim"))?,
                );
            }
            "nsv" => {
                nsv = Some(
                    value
                        .parse()
                        .map_err(|_| SvmError::parse(lineno + 1, "bad nsv"))?,
                );
            }
            other => {
                return Err(SvmError::parse(
                    lineno + 1,
                    format!("unknown key `{other}`"),
                ))
            }
        }
    }
    let kernel = kernel.ok_or_else(|| SvmError::parse(0, "missing kernel"))?;
    let bias = bias.ok_or_else(|| SvmError::parse(0, "missing bias"))?;
    let dim = dim.ok_or_else(|| SvmError::parse(0, "missing dim"))?;
    let nsv = nsv.ok_or_else(|| SvmError::parse(0, "missing nsv"))?;

    // Counts come from the file: grow as lines parse instead of pre-sizing,
    // so a bogus count is a truncation error rather than an allocation.
    let mut coefficients = Vec::new();
    let mut support_vectors = DenseMatrix::with_cols(dim);
    for _ in 0..nsv {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated support vectors"))?;
        let mut parts = line.split_whitespace();
        let coef: f64 = parts
            .next()
            .ok_or_else(|| SvmError::parse(lineno + 1, "missing coefficient"))?
            .parse()
            .map_err(|_| SvmError::parse(lineno + 1, "bad coefficient"))?;
        let sv: Result<Vec<f64>, SvmError> = parts
            .map(|t| {
                t.parse()
                    .map_err(|_| SvmError::parse(lineno + 1, "bad sv value"))
            })
            .collect();
        let sv = sv?;
        if sv.len() != dim {
            return Err(SvmError::parse(
                lineno + 1,
                format!("support vector has {} values, expected {dim}", sv.len()),
            ));
        }
        coefficients.push(coef);
        support_vectors.push_row(&sv);
    }

    SvrModel::from_parts(kernel, support_vectors, coefficients, bias, dim)
}

fn kernel_tag(k: Kernel) -> String {
    match k {
        Kernel::Linear => "linear".to_string(),
        Kernel::Rbf { gamma } => format!("rbf {gamma}"),
        Kernel::Polynomial {
            gamma,
            coef0,
            degree,
        } => format!("poly {gamma} {coef0} {degree}"),
        Kernel::Sigmoid { gamma, coef0 } => format!("sigmoid {gamma} {coef0}"),
    }
}

/// Parses a kernel tag and holds the kernel to the checks training
/// applies, so a model file cannot load a kernel training would reject.
fn parse_kernel_tag(tag: &str, line: usize) -> Result<Kernel, SvmError> {
    let mut parts = tag.split_whitespace();
    let name = parts
        .next()
        .ok_or_else(|| SvmError::parse(line, "empty kernel tag"))?;
    let mut param = || {
        parts
            .next()
            .ok_or_else(|| SvmError::parse(line, "kernel tag missing parameter"))
    };
    let bad = || SvmError::parse(line, "bad kernel parameter");
    let kernel = match name {
        "linear" => Kernel::Linear,
        "rbf" => Kernel::Rbf {
            gamma: param()?.parse().map_err(|_| bad())?,
        },
        "poly" => {
            let gamma = param()?.parse().map_err(|_| bad())?;
            let coef0 = param()?.parse().map_err(|_| bad())?;
            // A whole, non-negative degree that fits the `i32` of `powi`.
            let degree = param()?
                .parse::<i32>()
                .ok()
                .and_then(|d| u32::try_from(d).ok())
                .ok_or_else(bad)?;
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            }
        }
        "sigmoid" => {
            let gamma = param()?.parse().map_err(|_| bad())?;
            let coef0 = param()?.parse().map_err(|_| bad())?;
            Kernel::Sigmoid { gamma, coef0 }
        }
        other => return Err(SvmError::parse(line, format!("unknown kernel `{other}`"))),
    };
    kernel
        .validate()
        .map_err(|e| SvmError::parse(line, e.to_string()))?;
    Ok(kernel)
}

/// Serialises a fitted [`Scaler`] into the text container. The `method`
/// and `base` lines name the one transform there is, min-max onto
/// `[-1, 1]`.
#[must_use]
pub fn scaler_to_string(scaler: &Scaler) -> String {
    let (offsets, scales) = scaler.parts();
    let mut out = String::new();
    out.push_str("vmtherm-model scaler v1\n");
    out.push_str("method=minmax\n");
    let _ = writeln!(out, "base={}", scale::LOWER);
    let _ = writeln!(out, "dim={}", offsets.len());
    for (o, s) in offsets.iter().zip(scales) {
        let _ = writeln!(out, "{o} {s}");
    }
    out
}

/// Parses a [`Scaler`] from the text container.
///
/// # Errors
///
/// [`SvmError::Parse`] on malformed content, and on any method other than
/// `minmax` or any base other than `-1`.
pub fn scaler_from_string(text: &str) -> Result<Scaler, SvmError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| SvmError::parse(1, "empty scaler file"))?;
    if header.trim() != "vmtherm-model scaler v1" {
        return Err(SvmError::parse(1, format!("bad header `{header}`")));
    }
    let mut method = false;
    let mut base = false;
    let mut dim: Option<usize> = None;
    for _ in 0..3 {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated scaler header"))?;
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| SvmError::parse(lineno + 1, "expected key=value"))?;
        match key {
            "method" => {
                if value != "minmax" {
                    return Err(SvmError::parse(
                        lineno + 1,
                        format!("unknown method `{value}`"),
                    ));
                }
                method = true;
            }
            "base" => {
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| SvmError::parse(lineno + 1, "bad base"))?;
                if parsed.to_bits() != scale::LOWER.to_bits() {
                    return Err(SvmError::parse(
                        lineno + 1,
                        format!("unsupported base `{value}`: scalers map onto [-1, 1]"),
                    ));
                }
                base = true;
            }
            "dim" => {
                dim = Some(
                    value
                        .parse()
                        .map_err(|_| SvmError::parse(lineno + 1, "bad dim"))?,
                );
            }
            other => {
                return Err(SvmError::parse(
                    lineno + 1,
                    format!("unknown key `{other}`"),
                ))
            }
        }
    }
    if !method {
        return Err(SvmError::parse(0, "missing method"));
    }
    if !base {
        return Err(SvmError::parse(0, "missing base"));
    }
    let dim = dim.ok_or_else(|| SvmError::parse(0, "missing dim"))?;
    // `dim` comes from the file: grow as lines parse (see `svr_from_string`).
    let mut offsets = Vec::new();
    let mut scales = Vec::new();
    for _ in 0..dim {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| SvmError::parse(0, "truncated scaler body"))?;
        let mut parts = line.split_whitespace();
        let o: f64 = parts
            .next()
            .ok_or_else(|| SvmError::parse(lineno + 1, "missing offset"))?
            .parse()
            .map_err(|_| SvmError::parse(lineno + 1, "bad offset"))?;
        let s: f64 = parts
            .next()
            .ok_or_else(|| SvmError::parse(lineno + 1, "missing scale"))?
            .parse()
            .map_err(|_| SvmError::parse(lineno + 1, "bad scale"))?;
        offsets.push(o);
        scales.push(s);
    }
    Scaler::from_parts(offsets, scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::svr::SvrParams;

    fn trained_model() -> SvrModel {
        let xs: Vec<Vec<f64>> = (0..15)
            .map(|i| vec![i as f64 * 0.4, (i as f64).cos()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + x[1]).collect();
        let ds = Dataset::from_parts(DenseMatrix::from_nested(xs).unwrap(), ys).unwrap();
        SvrModel::train(&ds, SvrParams::new().with_c(50.0)).unwrap()
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let model = trained_model();
        let text = svr_to_string(&model);
        let back = svr_from_string(&text).unwrap();
        for i in 0..10 {
            let x = [i as f64 * 0.37, (i as f64 * 0.9).sin()];
            assert!(
                (model.predict(&x).unwrap() - back.predict(&x).unwrap()).abs() < 1e-9,
                "prediction drift at {x:?}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let model = trained_model();
        let back = svr_from_string(&svr_to_string(&model)).unwrap();
        assert_eq!(model.num_support_vectors(), back.num_support_vectors());
        assert_eq!(model.kernel(), back.kernel());
        assert!((model.bias() - back.bias()).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            svr_from_string("not a model\n"),
            Err(SvmError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let model = trained_model();
        let text = svr_to_string(&model);
        let truncated: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(svr_from_string(&truncated).is_err());
    }

    #[test]
    fn rejects_unknown_kernel() {
        let text = "vmtherm-model svr v1\nkernel=quantum 1\nbias=0\ndim=1\nnsv=0\n";
        assert!(svr_from_string(text).is_err());
    }

    /// A model file whose kernel line is `kernel=<tag>` must fail on that
    /// line (line 2).
    fn assert_kernel_tag_rejected(tag: &str) {
        let text = format!("vmtherm-model svr v1\nkernel={tag}\nbias=0\ndim=1\nnsv=0\n");
        assert!(
            matches!(svr_from_string(&text), Err(SvmError::Parse { line: 2, .. })),
            "`{tag}` loaded"
        );
    }

    #[test]
    fn rejects_negative_rbf_gamma() {
        assert_kernel_tag_rejected("rbf -0.5");
    }

    #[test]
    fn rejects_nan_rbf_gamma() {
        assert_kernel_tag_rejected("rbf NaN");
    }

    #[test]
    fn rejects_fractional_poly_degree() {
        assert_kernel_tag_rejected("poly 0.1 1 2.7");
    }

    #[test]
    fn rejects_negative_poly_degree() {
        assert_kernel_tag_rejected("poly 0.1 1 -3");
    }

    #[test]
    fn rejects_poly_degree_beyond_i32() {
        assert_kernel_tag_rejected("poly 0.1 1 2147483648");
    }

    #[test]
    fn all_kernel_tags_round_trip() {
        for k in [
            Kernel::Linear,
            Kernel::rbf(0.5),
            Kernel::Polynomial {
                gamma: 0.1,
                coef0: 1.0,
                degree: 3,
            },
            Kernel::Sigmoid {
                gamma: 0.2,
                coef0: -1.0,
            },
        ] {
            let parsed = parse_kernel_tag(&kernel_tag(k), 1).unwrap();
            assert_eq!(parsed, k);
        }
    }

    #[test]
    fn scaler_round_trip() {
        use crate::data::Dataset;
        let ds = Dataset::from_parts(
            DenseMatrix::from_nested(vec![vec![0.0, 5.0], vec![10.0, 15.0], vec![4.0, 9.0]])
                .unwrap(),
            vec![0.0; 3],
        )
        .unwrap();
        let scaler = Scaler::fit(&ds);
        let text = scaler_to_string(&scaler);
        assert!(text.starts_with("vmtherm-model scaler v1\nmethod=minmax\nbase=-1\ndim=2\n"));
        let back = scaler_from_string(&text).unwrap();
        assert_eq!(back, scaler);
        let x = [3.3, 12.2];
        let a = scaler.transform(&x);
        let b = back.transform(&x);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn scaler_rejects_bad_header_and_method() {
        assert!(scaler_from_string("nope\n").is_err());
        for header in [
            "method=quantum\nbase=-1",
            "method=zscore\nbase=0",
            "method=minmax\nbase=0",
        ] {
            let text = format!("vmtherm-model scaler v1\n{header}\ndim=0\n");
            assert!(
                matches!(scaler_from_string(&text), Err(SvmError::Parse { .. })),
                "{header}"
            );
        }
    }

    /// Counts read from a header must not pre-size anything: a huge count
    /// over a short body is a truncated file, not an allocation.
    #[test]
    fn huge_header_counts_are_truncation_errors() {
        for count in ["18446744073709551615", "1000000000000"] {
            // Both headers are otherwise valid, so parsing reaches the body
            // loop and must stop at the missing lines, not at the header.
            let svr = format!("vmtherm-model svr v1\nkernel=linear\nbias=0\ndim=1\nnsv={count}\n");
            assert!(
                matches!(
                    svr_from_string(&svr),
                    Err(SvmError::Parse { ref message, .. }) if message == "truncated support vectors"
                ),
                "nsv={count}"
            );
            let scaler = format!("vmtherm-model scaler v1\nmethod=minmax\nbase=-1\ndim={count}\n");
            assert!(
                matches!(
                    scaler_from_string(&scaler),
                    Err(SvmError::Parse { ref message, .. }) if message == "truncated scaler body"
                ),
                "dim={count}"
            );
        }
    }

    #[test]
    fn dimension_mismatch_in_sv_rejected() {
        let text = "vmtherm-model svr v1\nkernel=linear\nbias=0\ndim=2\nnsv=1\n1.0 3.0\n";
        assert!(matches!(svr_from_string(text), Err(SvmError::Parse { .. })));
    }
}
