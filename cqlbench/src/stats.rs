//! Order statistics with the sample-count guard every reported
//! percentile goes through.

use cql_trace::Histogram;

/// Fewest samples that must lie beyond a reported percentile. A tail
/// value read off fewer samples than this is one or two outliers, not a
/// percentile, so it is refused rather than printed.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[u64], pct: u64) -> Option<u64> {
    let rank = nearest_rank(samples.len() as u64, pct)?;
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[rank as usize - 1])
}

/// The same guard applied to an engine histogram: its bucket-resolution
/// quantile, refused when fewer than [`MIN_BEYOND`] samples lie beyond
/// the nearest rank.
pub fn hist_percentile(hist: Option<&Histogram>, pct: u64) -> Option<u64> {
    let hist = hist?;
    nearest_rank(hist.count(), pct)?;
    hist.quantile(pct as f64 / 100.0)
}

/// 1-based nearest rank `⌈pct·n/100⌉`, or `None` if the guard refuses it.
fn nearest_rank(n: u64, pct: u64) -> Option<u64> {
    let rank = (pct * n).div_ceil(100).max(1);
    (n >= rank && n - rank >= MIN_BEYOND as u64).then_some(rank)
}

/// Plain median (mean of the middle pair for even counts); for
/// quantities sampled too few times for a guarded percentile, such as
/// set-up time.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Slices a run's window is cut into for [`sliced_rate`].
pub const SLICES: usize = 25;

/// Completions per second: the median over [`SLICES`] equal slices of
/// the window `[0, window_s)` of the completions in each, so a burst of
/// outside interference moves a few slices, not the reported rate.
/// Completions past the window are not counted.
pub fn sliced_rate(done_s: &[f64], window_s: f64) -> f64 {
    let width = window_s / SLICES as f64;
    let mut counts = [0.0; SLICES];
    for &t in done_s {
        if let Some(c) = counts.get_mut((t / width) as usize) {
            *c += 1.0;
        }
    }
    median(&counts) / width
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so repeat mode reports
/// the same spread an outside check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_refuses_percentiles_without_ten_samples_beyond() {
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 50), None, "5 samples beyond the median");
        let twenty: Vec<u64> = (1..=20).rev().collect();
        assert_eq!(percentile(&twenty, 50), Some(10));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99), None, "1 sample beyond p99");
        assert_eq!(percentile(&hundred, 90), Some(90));
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 99), Some(990));
        assert_eq!(percentile(&[], 50), None);

        let mut hist = Histogram::new();
        for v in 1..=15 {
            hist.record(v);
        }
        assert!(hist_percentile(Some(&hist), 50).is_none());
        for v in 16..=40 {
            hist.record(v);
        }
        assert!(hist_percentile(Some(&hist), 50).is_some());
        assert!(hist_percentile(None, 50).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // 4 completions in each 0.1 s slice, one slow slice, one past the
        // window: 40 per second.
        let mut done: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.025).collect();
        done.retain(|t| !(0.5..0.6).contains(t));
        done.push(7.0);
        assert!((sliced_rate(&done, 2.5) - 40.0).abs() < 1e-9);
    }
}
