//! Order statistics: nearest-rank percentiles, the "ten samples
//! beyond" rule, and the quartile spread the acceptance check uses.

/// Sort ascending; every input here is finite.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest nearest-rank position among `n` samples that still has
/// at least ten samples beyond it, or `None` below 11 samples. A tail
/// read past it rests on fewer than ten observations.
pub fn highest_supported_rank(n: usize) -> Option<usize> {
    n.checked_sub(10).filter(|r| *r > 0)
}

/// Percentile `q`, lowered to the highest supported position when the
/// sample cannot support `q` itself (the median below 11 samples).
/// Returns the value and the quantile actually read.
pub fn supported_percentile(sorted: &[f64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    match highest_supported_rank(n) {
        Some(max_rank) if rank(n, q) > max_rank => {
            (sorted[max_rank - 1], max_rank as f64 / n as f64)
        }
        Some(_) => (percentile(sorted, q), q),
        None => (percentile(sorted, 0.5), 0.5),
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_rank(10), None);
        assert_eq!(highest_supported_rank(11), Some(1));
        // p99 needs 1000 samples, p999 needs 10000.
        let ones = |n: usize| vec![1.0; n];
        assert!(supported_percentile(&ones(999), 0.99).1 < 0.99);
        assert_eq!(supported_percentile(&ones(1000), 0.99).1, 0.99);
        assert!(supported_percentile(&ones(9999), 0.999).1 < 0.999);
        assert_eq!(supported_percentile(&ones(10000), 0.999).1, 0.999);
        // Whatever is read leaves ten samples beyond it.
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let (value, q) = supported_percentile(&v, 0.999);
        assert_eq!((value, q), (490.0, 0.98));
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);
        assert_eq!(supported_percentile(&v, 0.5), (250.0, 0.5));
        assert_eq!(supported_percentile(&v[..5], 0.99), (3.0, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
