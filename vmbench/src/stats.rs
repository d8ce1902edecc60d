//! Order statistics for timing samples, and the FNV-1a fold used for
//! output fingerprints.

/// Median of `samples`; the mean of the two middle values for an even
/// count, `NaN` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method), so
/// spreads printed here match the ones a reviewer computes from the
/// printed values. One sample gives that sample three times; an empty
/// slice gives `NaN`s.
#[must_use]
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative or above 4 near the ends: the method extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// The highest whole percentile that still has at least ten samples
/// above it, as `(percentile, value)`, using nearest-rank percentiles.
/// `None` below twenty samples, where not even the median qualifies.
///
/// With 50 samples this is p80: the 40th smallest value, with ten
/// samples beyond it.
#[must_use]
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    const BEYOND: usize = 10;
    let n = samples.len();
    // Percentile p leaves n - ceil(p·n/100) samples above its rank.
    let p = (1..100u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= BEYOND)?;
    if p < 50 {
        return None;
    }
    let rank = (p as usize * n).div_ceil(100);
    Some((p, sorted(samples)[rank - 1]))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over 64-bit words: a stable, dependency-free fold for
/// bit-identity fingerprints of end states.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, little-endian byte by byte.
    pub fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds the bit pattern of a float.
    pub fn bits(&mut self, x: f64) {
        self.fold(x.to_bits());
    }

    /// The fingerprint so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn fifty_samples_give_p80_with_ten_beyond() {
        let samples = one_to(50);
        assert_eq!(tail_percentile(&samples), Some((80, 40.0)));
        let beyond = samples.iter().filter(|&&v| v > 40.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_percentile_follows_sample_count() {
        assert_eq!(tail_percentile(&one_to(19)), None);
        assert_eq!(tail_percentile(&one_to(20)), Some((50, 10.0)));
        assert_eq!(tail_percentile(&one_to(100)), Some((90, 90.0)));
        assert_eq!(tail_percentile(&one_to(1000)), Some((99, 990.0)));
        // Order of the input does not matter.
        let mut shuffled = one_to(50);
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled), Some((80, 40.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3, 7, 2], n=4) == [1.75, 4.0, 7.5]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0]), [1.75, 4.0, 7.5]);
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
