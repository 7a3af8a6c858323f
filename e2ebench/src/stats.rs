//! Percentile ranks and medians: nearest-rank percentiles, and the
//! highest percentile a sample supports (at least ten samples beyond it).

/// Percentiles the tail search tries, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples needed beyond a percentile before it is reported as the tail.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of percentile `p` (`0..=100`) among `n`
/// samples.
pub fn rank(n: usize, p: f64) -> usize {
    // the epsilon keeps `0.999 * 10000` from rounding up past 9990
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond its rank: `(percentile, rank, samples beyond)`.
pub fn supported_tail_rank(n: usize) -> Option<(f64, usize, usize)> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let r = rank(n, p);
        let beyond = n - 1 - r;
        (beyond >= MIN_BEYOND).then_some((p, r, beyond))
    })
}

/// The median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
