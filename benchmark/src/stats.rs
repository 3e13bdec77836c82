//! Order statistics over small samples.

/// The `q`-quantile of ascending `sorted` by nearest rank
/// (`ceil(q * n)`-th smallest). `+inf` entries sort last, so a request
/// that never completed pulls the tail up rather than vanishing.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn sort(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sort(v.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method): position `i * (n + 1) / 4`,
/// linearly interpolated, clamped to the sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sort(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// Summary of one metric over repeated runs.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(v: &[f64]) -> Spread {
        let (q1, q3) = quartiles(v);
        Spread {
            median: median(v),
            q1,
            q3,
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// Full range as a share of the median.
    pub fn range_frac(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(5.0));
        assert_eq!(quantile(&s, 0.9), Some(9.0));
        assert_eq!(quantile(&s, 0.99), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
        let with_lost = sort(vec![1.0, f64::INFINITY, 2.0]);
        assert_eq!(quantile(&with_lost, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }
}
