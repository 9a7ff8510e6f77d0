//! Estimators the benchmark reports with: medians over rounds, Python's
//! `statistics.quantiles(n=4)` quartiles (so spreads match what the
//! driver computes), and exact nearest-rank percentiles over pooled
//! samples (no log buckets).

/// Sorted copy; NaNs sort last so a poisoned sample is visible as `max`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them. One value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of already **sorted** samples: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q` percentile of each consecutive slice of `samples`;
/// `ends[i]` is where slice `i` ends (and slice `i + 1` begins).
pub fn percentile_per_slice(samples: &[f64], ends: &[usize], q: f64) -> Vec<f64> {
    let starts = std::iter::once(0).chain(ends.iter().copied());
    starts.zip(ends).map(|(from, &to)| percentile(&sorted(&samples[from..to]), q)).collect()
}

/// What is printed beside every timing: the reported value is `median`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = quartiles(&v);
    Summary {
        n: v.len(),
        median: median(&v),
        q1,
        q3,
        min: v.first().copied().unwrap_or(f64::NAN),
        max: v.last().copied().unwrap_or(f64::NAN),
    }
}

/// Inter-quartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) -> [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentile_is_the_nearest_rank_order_statistic() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 50.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_per_slice_cuts_where_the_ends_say() {
        let samples = [5.0, 1.0, 3.0, 9.0, 7.0, 2.0];
        assert_eq!(percentile_per_slice(&samples, &[3, 5, 6], 0.5), vec![3.0, 7.0, 2.0]);
        assert_eq!(percentile_per_slice(&samples, &[6], 1.0), vec![9.0]);
        assert!(percentile_per_slice(&samples, &[], 0.5).is_empty());
    }

    #[test]
    fn summary_and_spread_agree_with_the_parts() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.n, s.median, s.q1, s.q3, s.min, s.max), (10, 5.5, 2.75, 8.25, 1.0, 10.0));
        assert_eq!(spread(&ten), 1.0);
    }
}
