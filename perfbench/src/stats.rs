//! Order statistics over measured samples.

/// Sorted copy of `values` (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail: the highest percentile with at least ten samples beyond
/// it, i.e. the eleventh-largest sample. Returns `(value, percentile)`.
/// With ten samples or fewer no such percentile exists and the tail is
/// the largest sample (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let idx = if v.len() > 10 {
        v.len() - 11
    } else {
        v.len() - 1
    };
    (v[idx], 100.0 * (idx + 1) as f64 / v.len() as f64)
}

/// Median over consecutive windows of `window` samples of each
/// window's median and tail, as `(p50, tail)`. With fewer than two
/// windows the whole set is one window; a trailing partial window is
/// left out.
pub fn windowed(values: &[f64], window: usize) -> (f64, f64) {
    if window == 0 || values.len() < 2 * window {
        return (median(values), tail(values).0);
    }
    let (medians, tails): (Vec<f64>, Vec<f64>) = values
        .chunks_exact(window)
        .map(|w| (median(w), tail(w).0))
        .unzip();
    (median(&medians), median(&tails))
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (the `inclusive` method of
/// Python's `statistics.quantiles`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// `min`, `q1`, `median`, `q3`, `max` as a JSON object.
pub fn summary_json(values: &[f64]) -> String {
    let v = sorted(values);
    if v.is_empty() {
        return "{\"n\":0}".to_string();
    }
    format!(
        "{{\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
        v.len(),
        v[0],
        quantile(&v, 0.25),
        median(&v),
        quantile(&v, 0.75),
        v[v.len() - 1]
    )
}
