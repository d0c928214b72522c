//! Sample statistics for the timed loop.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail the end-to-end report uses: the highest percentile that
/// still has at least ten samples beyond it. Returns `(percentile,
/// value)`; with ten or fewer samples no percentile qualifies and the
/// maximum is returned as percentile 100.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (100.0, v[n - 1]);
    }
    // v[n - 11] has exactly ten samples above it.
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    (pct, v[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(v, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[5.0, 1.0]), (100.0, 5.0));
    }
}
