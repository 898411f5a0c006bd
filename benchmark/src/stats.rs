//! Order statistics over small samples.

/// Median; sorts `values` in place. `NaN` for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Median of a sample that may be empty, in which case 0.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&mut values.to_vec())
    }
}

/// The value a tenth of the way up the sorted sample: the step time of a
/// rep on an undisturbed host, for comparing single reps. 0 when empty.
pub fn low_decile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted.get(sorted.len() / 10).copied().unwrap_or(0.0)
}
