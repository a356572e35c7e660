//! Order statistics over small samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// the two nearest order statistics. `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(max − min) / median` of `values` in percent: the run-to-run spread the
/// `all` subcommand reports per metric over its cycles. 0 for fewer than two
/// values or a zero median.
pub fn spread_pct(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / mid.abs() * 100.0
}

/// Median of each third of `values` (in order), then their spread: drift
/// *within* one run, visible without a second run.
pub fn thirds_spread_pct(values: &[f64]) -> f64 {
    let n = values.len() / 3;
    if n == 0 {
        return 0.0;
    }
    let thirds: Vec<f64> = (0..3)
        .map(|k| median(&values[k * n..(k + 1) * n]))
        .collect();
    spread_pct(&thirds)
}

/// Geometric mean; `NaN` for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_cycle_medians_ignores_one_noisy_cycle() {
        // What `all` reports for a metric: the median over its cycles.
        let cycles = [36.0, 35.0, 52.0];
        assert_eq!(median(&cycles), 36.0);
        assert!((spread_pct(&cycles) - 17.0 / 36.0 * 100.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[5.0]), 0.0);
    }

    #[test]
    fn thirds_spread_sees_drift() {
        let steady = [2.0; 9];
        assert_eq!(thirds_spread_pct(&steady), 0.0);
        let drifting = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        assert_eq!(thirds_spread_pct(&drifting), 100.0);
        assert_eq!(thirds_spread_pct(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
