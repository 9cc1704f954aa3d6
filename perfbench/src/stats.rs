//! Order statistics over host-time samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (the same rule as
/// Python's `statistics.quantiles(..., method="inclusive")`). `NaN` for
/// an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `(q1, median, q3)` of `v`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    (quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75))
}

/// Geometric mean of positive values; `0` for an empty sample.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quartiles(&v), (1.75, 2.5, 3.25));
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
