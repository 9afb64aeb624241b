//! The one statistics helper of the benchmark: median, quartiles and the
//! tail percentile of a latency sample, with the sample count.

/// Order statistics of one sample of measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, value)`; `None` below eleven samples.
    pub tail: Option<(f64, f64)>,
}

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

impl Summary {
    /// Summarise `values`; `None` for an empty sample.
    ///
    /// Quartiles use the exclusive method (Python's
    /// `statistics.quantiles(values, n=4)`), so spreads computed here agree
    /// with the ones computed over whole runs.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let p50 = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let tail = (n > TAIL_BEYOND).then(|| {
            let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
            (pct, v[n - TAIL_BEYOND - 1])
        });
        Some(Summary {
            n,
            p25: quartile(&v, 1),
            p50,
            p75: quartile(&v, 3),
            tail,
        })
    }

    /// One-line rendering: `p50 … p25–p75 … tail … (n=…)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((pct, v)) => format!("p{pct:.0} {v:.3} {unit}"),
            None => "tail n/a (<11 samples)".to_string(),
        };
        format!(
            "p50 {:.3} {unit}  p25-p75 {:.3}-{:.3}  {tail}  (n={})",
            self.p50, self.p25, self.p75, self.n
        )
    }
}

/// Quartile `i` (1 or 3) of sorted `v` by the exclusive method.
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

/// The 10th percentile of `values`, interpolated linearly between order
/// statistics (0 for an empty sample). Load from other tenants of a
/// shared machine only ever adds time, so the lower decile tracks the
/// program's own cost far more steadily across runs than the median.
pub fn low_decile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() - 1) as f64 * 0.1;
    let i = k.floor() as usize;
    let j = (i + 1).min(v.len() - 1);
    v[i] + (v[j] - v[i]) * (k - i as f64)
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.p25, s.p50, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!((s.p25, s.p50, s.p75), (1.5, 3.0, 4.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(Summary::of(&[1.0; 10]).unwrap().tail, None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, Some((50.0, 10.0)));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.n, s.p25, s.p50, s.p75), (1, 7.0, 7.0, 7.0));
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(low_decile(&[]), 0.0);
        assert_eq!(low_decile(&[4.0]), 4.0);
    }

    #[test]
    fn low_decile_interpolates() {
        let v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(low_decile(&v), 2.0);
        assert!((low_decile(&[10.0, 20.0]) - 11.0).abs() < 1e-12);
    }
}
