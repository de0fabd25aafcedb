//! Order statistics over latency samples.

/// Sort ascending (samples never hold NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest-rank quantile of an ascending slice (`None` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (`None` when empty).
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    sort(&mut s);
    quantile(&s, 0.5)
}

/// Smallest value (`None` when empty).
pub fn min(v: &[f64]) -> Option<f64> {
    v.iter().copied().reduce(f64::min)
}

/// Largest value (`None` when empty).
pub fn max(v: &[f64]) -> Option<f64> {
    v.iter().copied().reduce(f64::max)
}

/// Mean (`None` when empty).
pub fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// The highest percentile, capped at p90, that still has at least ten
/// samples beyond it — the tail a sample of this size supports. The cap
/// is the calibration host's: above p90 its neighbours, not the engine,
/// set the value (README "Estimators").
pub fn supported_tail(n: usize) -> Option<f64> {
    (n >= 20).then(|| (1.0 - 10.0 / n as f64).min(0.9))
}

/// `(tail quantile used, its value)` of an ascending sample.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let q = supported_tail(sorted.len())?;
    Some((q, quantile(sorted, q)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_supported_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(50), Some(0.8));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(5_000), Some(0.9));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
