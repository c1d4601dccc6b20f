//! Order statistics and the per-window accuracy and identity checks.

use approxiot_runtime::WindowResult;

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank `q`-percentile of `values` (`NaN` when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail percentile a sample of `n` supports: 95% from 200 samples
/// up, otherwise the highest percentile with ten samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 200 {
        0.95
    } else {
        (1.0 - 10.0 / n.max(1) as f64).max(0.5)
    }
}

/// The median, over consecutive blocks of `block` values, of each
/// block's `q`-percentile. Fewer than `block` values form one block.
pub fn blocked_percentile(values: &[f64], block: usize, q: f64) -> f64 {
    let blocks: Vec<&[f64]> = if values.len() < block {
        vec![values]
    } else {
        values.chunks_exact(block).collect()
    };
    let per_block: Vec<f64> = blocks.iter().map(|b| percentile(b, q)).collect();
    median(&per_block)
}

/// Mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One window's relative error: the mean of the SUM and `Quantile(q)`
/// relative errors against the exact answers.
pub fn window_error(result: &WindowResult, sum: f64, quantile: f64, q: f64) -> f64 {
    let sum_hat = result.queries.sum().map_or(0.0, |e| e.value);
    let q_hat = result.queries.quantile(q).map_or(0.0, |e| e.value);
    ((sum_hat - sum).abs() / sum.abs() + (q_hat - quantile).abs() / quantile.abs()) / 2.0
}

/// The window's COUNT answer.
pub fn count_of(result: &WindowResult) -> f64 {
    result.queries.count().map_or(f64::NAN, |e| e.value)
}

/// Whether a COUNT answer equals the exact count (up to floating-point
/// summation of the reconstructed weights).
pub fn count_exact(count_hat: f64, exact: u64) -> bool {
    (count_hat - exact as f64).abs() <= 1e-6 * (exact as f64).max(1.0)
}

/// Every field of a window result that a run computes, rendered with
/// round-trip float formatting, so two results compare bit for bit.
/// `completeness` is left out: the engines fill it in after the root
/// answers, from bookkeeping the replica does not keep.
pub fn result_key(r: &WindowResult) -> String {
    format!(
        "{} {:?} {:?} {:?} {} {:?} {}",
        r.window,
        r.estimate,
        r.per_stratum,
        r.queries,
        r.sampled_items,
        r.count_hat,
        r.dropped_late
    )
}
