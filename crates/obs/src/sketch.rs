//! Fixed-size streaming quantile estimation (the P² algorithm).
//!
//! [`P2Quantile`] maintains one quantile of a stream with five markers and
//! O(1) memory per observation (Jain & Chlamtac, CACM 1985). [`QuantileSketch`]
//! bundles three estimators (p50/p95/p99) plus count/sum/min/max — the shape
//! a Prometheus summary wants.
//!
//! Determinism contract: updates are pure f64 arithmetic on the observed
//! stream — no randomness, no wall clock, no allocation after construction.
//! Two sketches fed the same sequence of values hold bit-identical state, so
//! the sketch is safe to use from the deterministic crates (core, sim, svm)
//! through the `Lazy*` instrumentation layer.

/// One streaming quantile estimated by the P² (piecewise-parabolic)
/// algorithm: five markers whose heights approximate the q-quantile after
/// the first five observations, exact before that.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    /// Observations seen so far.
    n: u64,
    /// Marker heights (sorted ascending once initialized).
    heights: [f64; 5],
    /// Actual marker positions, 1-based ranks.
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile (clamped to [0, 1]).
    #[must_use]
    pub fn new(q: f64) -> P2Quantile {
        let q = q.clamp(0.0, 1.0);
        P2Quantile {
            q,
            n: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    /// The quantile this estimator tracks.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Observations seen so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.n < 5 {
            // Initialization: the first five observations become the
            // markers, kept sorted by insertion.
            let mut i = self.n as usize;
            self.heights[i] = x;
            while i > 0 && self.heights[i - 1] > self.heights[i] {
                self.heights.swap(i - 1, i);
                i -= 1;
            }
            self.n += 1;
            return;
        }

        // Locate the cell k with heights[k] <= x < heights[k+1], extending
        // the extreme markers when x falls outside them.
        let h = &mut self.heights;
        let k = if x < h[0] {
            h[0] = x;
            0
        } else if x < h[1] {
            0
        } else if x < h[2] {
            1
        } else if x < h[3] {
            2
        } else if x <= h[4] {
            3
        } else {
            h[4] = x;
            3
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust the interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let room_right = self.positions[i + 1] - self.positions[i] > 1.0;
            let room_left = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && room_right) || (d <= -1.0 && room_left) {
                let d = if d >= 1.0 { 1.0 } else { -1.0 };
                let parabolic = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
        self.n += 1;
    }

    /// Piecewise-parabolic prediction of marker `i` moved by `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let h = &self.heights;
        let p = &self.positions;
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Linear fallback when the parabola would break marker ordering.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        let h = &self.heights;
        let p = &self.positions;
        h[i] + d * (h[j] - h[i]) / (p[j] - p[i])
    }

    /// The current estimate: the middle marker once five observations have
    /// arrived, the exact interpolated order statistic before that, and 0
    /// on an empty stream.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match self.n {
            0 => 0.0,
            n if n < 5 => {
                // heights[..n] is sorted; interpolate the exact quantile.
                let n = n as usize;
                let rank = self.q * (n - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                let frac = rank - lo as f64;
                self.heights[lo] + (self.heights[hi] - self.heights[lo]) * frac
            }
            _ => self.heights[2],
        }
    }
}

/// The quantiles a [`QuantileSketch`] tracks, in ascending order.
pub const TRACKED_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// A fixed-size summary of a value stream: p50/p95/p99 via three [`P2Quantile`]
/// estimators, plus count, sum, min, and max. Deterministic (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    estimators: [P2Quantile; 3],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// Creates an empty sketch tracking [`TRACKED_QUANTILES`].
    #[must_use]
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            estimators: [
                P2Quantile::new(TRACKED_QUANTILES[0]),
                P2Quantile::new(TRACKED_QUANTILES[1]),
                P2Quantile::new(TRACKED_QUANTILES[2]),
            ],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation into every estimator. Non-finite values are
    /// ignored so a single NaN cannot poison the markers.
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        for e in &mut self.estimators {
            e.observe(x);
        }
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observations seen so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, 0 on an empty stream.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, 0 on an empty stream.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimate for the tracked quantile nearest to `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let mut best = &self.estimators[0];
        for e in &self.estimators[1..] {
            if (e.q() - q).abs() < (best.q() - q).abs() {
                best = e;
            }
        }
        best.estimate()
    }

    /// All tracked `(q, estimate)` pairs, ascending by q.
    #[must_use]
    pub fn quantiles(&self) -> [(f64, f64); 3] {
        [
            (self.estimators[0].q(), self.estimators[0].estimate()),
            (self.estimators[1].q(), self.estimators[1].estimate()),
            (self.estimators[2].q(), self.estimators[2].estimate()),
        ]
    }

    /// Resets the sketch to the empty state.
    pub fn reset(&mut self) {
        *self = QuantileSketch::new();
    }
}

/// A fleet-level roll-up of many [`QuantileSketch`]es, merged
/// deterministically.
///
/// P² marker states cannot be merged exactly (the algorithm is
/// order-sensitive by design), so this type folds **summaries**: count,
/// sum, min and max merge exactly, and each tracked quantile becomes
/// the count-weighted mean of the per-sketch estimates — a standard
/// roll-up approximation whose error is bounded by the spread between
/// the sketches, and which is reproducible bit-for-bit because callers
/// fold in a fixed order (server-index order in the fleet monitor).
///
/// Two `MergedQuantiles` built by absorbing the same sketches in the
/// same order hold bit-identical state regardless of which threads
/// owned the sketches.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedQuantiles {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `(q, count-weighted estimate)` per tracked quantile.
    quantiles: [(f64, f64); 3],
}

impl Default for MergedQuantiles {
    fn default() -> Self {
        MergedQuantiles::new()
    }
}

impl MergedQuantiles {
    /// Creates an empty roll-up over [`TRACKED_QUANTILES`].
    #[must_use]
    pub fn new() -> MergedQuantiles {
        MergedQuantiles {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            quantiles: [
                (TRACKED_QUANTILES[0], 0.0),
                (TRACKED_QUANTILES[1], 0.0),
                (TRACKED_QUANTILES[2], 0.0),
            ],
        }
    }

    /// Folds one sketch into the roll-up. Empty sketches are no-ops, so
    /// the fold is insensitive to servers that have not scored yet.
    ///
    /// Merge order is part of the determinism contract: fold in a fixed
    /// order (ascending server index) to get reproducible bits.
    pub fn absorb(&mut self, sketch: &QuantileSketch) {
        let add = sketch.count();
        if add == 0 {
            return;
        }
        let prior = self.count as f64;
        let total = (self.count + add) as f64;
        for ((q, merged), (sq, est)) in self.quantiles.iter_mut().zip(sketch.quantiles()) {
            debug_assert_eq!(*q, sq, "tracked quantile sets diverged");
            *merged = (*merged * prior + est * add as f64) / total;
        }
        self.count += add;
        self.sum += sketch.sum();
        self.min = self.min.min(sketch.min());
        self.max = self.max.max(sketch.max());
    }

    /// Total observations across the absorbed sketches.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (folded in absorb order).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, 0 before any.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, 0 before any.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merged estimate for the tracked quantile nearest to `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let mut best = &self.quantiles[0];
        for pair in &self.quantiles[1..] {
            if (pair.0 - q).abs() < (best.0 - q).abs() {
                best = pair;
            }
        }
        best.1
    }

    /// All merged `(q, estimate)` pairs, ascending by q.
    #[must_use]
    pub fn quantiles(&self) -> [(f64, f64); 3] {
        self.quantiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64 → uniform [0, 1)).
    fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = q * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(sorted.len() - 1);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    #[test]
    fn empty_and_small_streams_are_exact() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), 0.0);
        p.observe(10.0);
        assert_eq!(p.estimate(), 10.0);
        p.observe(20.0);
        assert!((p.estimate() - 15.0).abs() < 1e-12);
        p.observe(30.0);
        assert!((p.estimate() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn p2_tracks_uniform_quantiles() {
        // (seed, values, scale, max abs error). The second input is
        // 200,000 values on [0, 100): the sketch's accuracy budget.
        for (seed, n, scale, tolerance) in
            [(42, 20_000, 1.0, 0.02), (0xC0FFEE, 200_000, 100.0, 1.0)]
        {
            let mut values: Vec<f64> = uniform_stream(seed, n)
                .into_iter()
                .map(|u| u * scale)
                .collect();
            let mut sketch = QuantileSketch::new();
            for &v in &values {
                sketch.observe(v);
            }
            values.sort_by(f64::total_cmp);
            for (q, est) in sketch.quantiles() {
                let exact = exact_quantile(&values, q);
                assert!(
                    (est - exact).abs() < tolerance,
                    "seed {seed:#x} q={q}: estimate {est} vs exact {exact}"
                );
            }
            assert_eq!(sketch.count(), n as u64);
            assert!(sketch.min() >= 0.0 && sketch.max() < scale);
        }
    }

    #[test]
    fn p2_tracks_skewed_latency_like_data() {
        // Latency-shaped: mostly small, a heavy tail (x^4 of uniform).
        let mut values: Vec<f64> = uniform_stream(7, 20_000)
            .into_iter()
            .map(|u| 100.0 + 1e6 * u.powi(4))
            .collect();
        let mut sketch = QuantileSketch::new();
        for &v in &values {
            sketch.observe(v);
        }
        values.sort_by(f64::total_cmp);
        for (q, est) in sketch.quantiles() {
            let exact = exact_quantile(&values, q);
            let rel = (est - exact).abs() / exact.abs().max(1.0);
            assert!(rel < 0.10, "q={q}: estimate {est} vs exact {exact}");
        }
    }

    #[test]
    fn identical_streams_give_bit_identical_sketches() {
        let values = uniform_stream(1234, 5_000);
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for &v in &values {
            a.observe(v);
            b.observe(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.quantile(0.95).to_bits(), b.quantile(0.95).to_bits());
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut sketch = QuantileSketch::new();
        for v in [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0, f64::NEG_INFINITY] {
            sketch.observe(v);
        }
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.sum(), 6.0);
        assert!((sketch.quantile(0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_stream_stays_ordered() {
        let mut p = P2Quantile::new(0.95);
        for i in 0..10_000 {
            p.observe(i as f64);
        }
        let est = p.estimate();
        assert!((est - 9_500.0).abs() < 200.0, "p95 of 0..10000 was {est}");
    }

    #[test]
    fn merged_rollup_is_exact_for_count_sum_min_max() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in uniform_stream(3, 500) {
            a.observe(v + 1.0);
        }
        for v in uniform_stream(4, 1_500) {
            b.observe(v);
        }
        let mut merged = MergedQuantiles::new();
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(merged.count(), 2_000);
        assert_eq!(merged.sum().to_bits(), (a.sum() + b.sum()).to_bits());
        assert_eq!(merged.min(), b.min());
        assert_eq!(merged.max(), a.max());
    }

    #[test]
    fn merged_quantiles_are_count_weighted() {
        // One sketch holding only 10s, another only 20s, 1:3 weighting.
        let mut tens = QuantileSketch::new();
        let mut twenties = QuantileSketch::new();
        for _ in 0..100 {
            tens.observe(10.0);
        }
        for _ in 0..300 {
            twenties.observe(20.0);
        }
        let mut merged = MergedQuantiles::new();
        merged.absorb(&tens);
        merged.absorb(&twenties);
        assert!((merged.quantile(0.5) - 17.5).abs() < 1e-9);
    }

    #[test]
    fn empty_sketches_do_not_perturb_the_rollup() {
        let mut data = QuantileSketch::new();
        for v in uniform_stream(8, 200) {
            data.observe(v);
        }
        let mut with_empties = MergedQuantiles::new();
        with_empties.absorb(&QuantileSketch::new());
        with_empties.absorb(&data);
        with_empties.absorb(&QuantileSketch::new());
        let mut alone = MergedQuantiles::new();
        alone.absorb(&data);
        assert_eq!(with_empties, alone);
    }

    #[test]
    fn fixed_fold_order_is_bit_reproducible() {
        let sketches: Vec<QuantileSketch> = (0..6)
            .map(|i| {
                let mut s = QuantileSketch::new();
                for v in uniform_stream(i, 50 + 31 * i as usize) {
                    s.observe(v * (i + 1) as f64);
                }
                s
            })
            .collect();
        let fold = || {
            let mut m = MergedQuantiles::new();
            for s in &sketches {
                m.absorb(s);
            }
            m
        };
        let a = fold();
        let b = fold();
        assert_eq!(a, b);
        assert_eq!(a.quantile(0.99).to_bits(), b.quantile(0.99).to_bits());
    }

    #[test]
    fn reset_restores_the_empty_state() {
        let mut sketch = QuantileSketch::new();
        for v in uniform_stream(9, 100) {
            sketch.observe(v);
        }
        sketch.reset();
        assert_eq!(sketch, QuantileSketch::new());
        assert_eq!(sketch.count(), 0);
        assert_eq!(sketch.quantile(0.5), 0.0);
    }
}
