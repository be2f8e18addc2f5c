//! Sample statistics.

/// Linear-interpolated percentile (`q` in `[0, 1]`) of `xs`; 0 for no
/// samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Largest sample; 0 for none.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// One human-readable line: `p50` and `p90` of `xs` with the sample count.
pub fn summary(name: &str, xs: &[f64]) -> String {
    format!(
        "{name:<28} p50 {:>9.4} s  p90 {:>9.4} s  max {:>9.4} s  n={}",
        median(xs),
        percentile(xs, 0.9),
        max(xs),
        xs.len()
    )
}
