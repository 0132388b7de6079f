//! Order statistics used for every reported timing.

/// Sorted copy of the samples (NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of the samples; `None` when there are none.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(xs, n=4)`), so the quartiles in the
/// results files match the ones a Python checker computes.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Tail percentiles considered, highest first, in tenths of a percent
/// (integer arithmetic keeps the nearest-rank cut exact).
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank value of the percentile `p10` (tenths of a percent),
/// if at least [`TAIL_MIN_BEYOND`] sorted samples lie beyond it.
fn beyond_rule(v: &[f64], p10: usize) -> Option<f64> {
    let rank = (p10 * v.len()).div_ceil(1000);
    (rank >= 1 && v.len() - rank >= TAIL_MIN_BEYOND).then(|| v[rank - 1])
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its nearest-rank value:
/// `(percentile, value)`. `None` when even p75 lacks the samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    TAIL_LADDER
        .iter()
        .find_map(|&p10| beyond_rule(&v, p10).map(|x| (p10 as f64 / 10.0, x)))
}

/// Nearest-rank p90, reported only where the tail rule admits it
/// (at least 100 samples).
pub fn p90(xs: &[f64]) -> Option<f64> {
    beyond_rule(&sorted(xs), 900)
}
