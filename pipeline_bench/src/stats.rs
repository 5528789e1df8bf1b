//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance check
//! of this benchmark computes over ten runs: the spread printed here and
//! the spread the check sees are the same arithmetic.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so absent layer metrics read as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them. One
/// value has no spread: all three quartiles equal it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// A timing (or any repeated value) summarised: median, extremes,
/// quartiles, and the inter-quartile range as a share of the median.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, _, q3) = quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let empty = values.is_empty();
        Self {
            n: values.len(),
            min: if empty { 0.0 } else { min },
            q1,
            median: median(values),
            q3,
            max: if empty { 0.0 } else { max },
        }
    }

    /// A single exact value (a count), with no spread.
    pub fn exact(v: f64) -> Self {
        Self { n: 1, min: v, q1: v, median: v, q3: v, max: v }
    }

    /// `(q3 − q1) ÷ median`; 0 when the median is 0.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-th percentile (0–100) by nearest rank; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` → `[2.75, 5.5, 8.25]`
    /// `statistics.quantiles([2.0, 9.0, 4.0, 7.0, 1.0], n=4)` → `[1.5, 4.0, 8.0]`
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[2.0, 9.0, 4.0, 7.0, 1.0]), (1.5, 4.0, 8.0));
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 6.0, 7.5));
    }

    #[test]
    fn summary_reports_spread_as_share_of_median() {
        let s = Summary::of(&[2.0, 9.0, 4.0, 7.0, 1.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 4.0, 9.0));
        assert!((s.iqr_share() - 6.5 / 4.0).abs() < 1e-12);
        assert_eq!(Summary::exact(3.0).iqr_share(), 0.0);
        assert_eq!(Summary::of(&[]).iqr_share(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
