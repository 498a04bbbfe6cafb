//! Order statistics and ratios used to summarise repeated measurements.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does with its default `exclusive`
/// method. A single value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    // Python's exclusive method, in its integer arithmetic. `delta` leaves
    // 0..4 when the clamp moves `j`, which extrapolates beyond the data.
    let m = ld as i64 + 1;
    let mut q = [0.0; 3];
    for (i, out) in (1..4i64).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *out = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    q
}

/// Distance between the first and third quartile as a share of the median
/// (0 when the median is 0).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    ratio(q3 - q1, median(xs))
}

/// Share of attempted operations that failed (0 when nothing was attempted).
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// `num / den`, or 0 when `den` is 0, so that a layer that did no work
/// reports 0 rather than NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    /// Expected values are what Python's `statistics.quantiles(xs, n=4)`
    /// prints for the same input.
    #[test]
    fn quartiles_match_python() {
        let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&one_to_ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.5; 3]), [3.5; 3]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&one_to_ten), (8.25 - 2.75) / 5.5);
        assert_eq!(iqr_share(&[2.0; 4]), 0.0);
        assert_eq!(iqr_share(&[0.0; 4]), 0.0);
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        assert_eq!(failed_frac(200, 50), 0.25);
        assert_eq!(failed_frac(200, 0), 0.0);
        assert_eq!(failed_frac(0, 0), 0.0);
    }
}
