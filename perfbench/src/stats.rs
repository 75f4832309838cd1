//! Order statistics over measured samples.

use std::time::Duration;

/// The `q`-quantile of `sorted` (ascending), linearly interpolated between
/// the closest ranks. `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let rank = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(len - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// Median and quartiles of a set of per-window values.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            samples: sorted.len(),
        }
    }
}

/// Durations in microseconds, sorted ascending.
pub fn sorted_us(durations: &[Duration]) -> Vec<f64> {
    let mut us: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(f64::total_cmp);
    us
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `numerator / denominator`, or `0.0` when the denominator is zero.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The `q`-quantile in microseconds of a log2-bucket histogram (bucket `i`
/// spans `[2^i, 2^(i+1))` ns), interpolated inside the bucket the same way
/// the pool's own `HistogramSnapshot::quantile` does. Used on bucket-count
/// differences, which the pool's snapshot type cannot represent.
pub fn bucket_quantile_us(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0;
    for (bucket, &count) in counts.iter().enumerate() {
        if count > 0 && below + count >= target {
            let lower = (1u128 << bucket) as f64;
            let fraction = (target - below) as f64 / count as f64;
            return (lower + lower * fraction) / 1e3;
        }
        below += count;
    }
    0.0
}
