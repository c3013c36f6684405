//! Order statistics for the benchmark's latency samples.
//!
//! Every reported percentile must rest on at least [`MIN_BEYOND`]
//! samples beyond it; [`percentile`] refuses otherwise, and [`tail`]
//! picks the highest percentile the sample count supports.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unsupported {
    /// The requested quantile.
    pub q: f64,
    /// Samples available.
    pub n: usize,
    /// Samples that lie beyond the requested rank.
    pub beyond: usize,
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile (nearest rank) of `samples`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// [`Unsupported`] when the sample is too small for `q`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, Unsupported> {
    let n = samples.len();
    let r = if n == 0 { 0 } else { rank(q, n) };
    let beyond = n - r;
    if n == 0 || beyond < MIN_BEYOND {
        return Err(Unsupported { q, n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[r - 1])
}

/// The highest quantile `q <= q_max`, in whole percent, that
/// [`percentile`] supports for this sample size, with its value.
///
/// # Errors
///
/// [`Unsupported`] when not even the median is supported.
pub fn tail(samples: &[f64], q_max: f64) -> Result<(f64, f64), Unsupported> {
    let mut pct = (q_max * 100.0).round() as u32;
    while pct >= 50 {
        let q = f64::from(pct) / 100.0;
        if let Ok(v) = percentile(samples, q) {
            return Ok((q, v));
        }
        pct -= 1;
    }
    percentile(samples, 0.5).map(|v| (0.5, v))
}

/// Median (mean of the middle pair for an even count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// spreads printed here match the ones a reader recomputes; a single
/// sample is its own quartiles, and an empty slice gives `NaN`s.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (s[0], s[0], s[0]),
        len => {
            // Python's integer formulation: cut point i of 4 sits at
            // i·(len+1)/4 on the 1-based order statistics; the index is
            // clamped to the data and the weight is not (so two samples
            // extrapolate, exactly as Python does).
            let m = len + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the acceptance rule compares against a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    (q3 - q1) / q2.abs()
}

/// Best-of-replay aggregation: `replays[r][p]` is the latency of
/// operation `p` in replay `r`; the result holds, per position, the
/// fastest replay. Replays shorter than the first are ignored past
/// their end, so the result has the first replay's length.
pub fn best_of_replays(replays: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = replays.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|p| {
            replays
                .iter()
                .filter_map(|r| r.get(p).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        // p90 of 99 samples has rank 90 and 9 samples beyond it.
        let err = percentile(&ramp(99), 0.9).unwrap_err();
        assert_eq!((err.n, err.beyond), (99, 9));
        // 100 samples put exactly 10 beyond rank 90.
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        // The median needs 20 samples.
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Ok(100.0));
        assert_eq!(percentile(&v, 0.9), Ok(180.0));
    }

    #[test]
    fn tail_steps_down_to_the_supported_percentile() {
        assert_eq!(tail(&ramp(200), 0.9), Ok((0.9, 180.0)));
        // 25 samples: p60 has rank 15 and 10 beyond; p61 has 9.
        assert_eq!(tail(&ramp(25), 0.9), Ok((0.6, 15.0)));
        assert!(tail(&ramp(12), 0.9).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!((spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn best_of_replays_takes_the_minimum_per_position() {
        let replays = vec![
            vec![5.0, 1.0, 9.0],
            vec![4.0, 2.0, 8.0],
            vec![6.0, 3.0, 7.0],
        ];
        assert_eq!(best_of_replays(&replays), vec![4.0, 1.0, 7.0]);
        assert_eq!(best_of_replays(&replays[..1]), vec![5.0, 1.0, 9.0]);
        assert!(best_of_replays(&[]).is_empty());
        // A short replay only competes where it has samples.
        let ragged = vec![vec![5.0, 5.0], vec![1.0]];
        assert_eq!(best_of_replays(&ragged), vec![1.0, 5.0]);
    }
}
