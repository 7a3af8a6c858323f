//! Fixed-size latency histograms.
//!
//! The benchmark shares its process with the service it measures, so its
//! own sample store must not grow with the number of ops a run completes:
//! otherwise a faster service would read as a larger `peak_rss_mb`.  A
//! histogram keeps 7 significant bits per value (buckets at most 1/64 of
//! their value wide) in a fixed 2,304 counters, and interpolates within a
//! bucket when asked for a percentile.

use crate::stats::{rank, supported_tail_rank};

/// Values below this are counted exactly.
const EXACT: u64 = 128;
/// Buckets per power of two above [`EXACT`].
const SUB: u64 = 64;
/// Covers values up to 2^40 ns (about 18 minutes).
const BUCKETS: usize = 2304;

/// A latency histogram over nanoseconds.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    sum_ns: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < EXACT {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() as u64 - 6;
    let m = ns >> shift;
    ((EXACT + (shift - 1) * SUB + (m - SUB)) as usize).min(BUCKETS - 1)
}

/// `(lower bound, width)` of bucket `i`, in ns.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < EXACT {
        return (i, 1);
    }
    let k = i - EXACT;
    let shift = k / SUB + 1;
    ((k % SUB + SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// Adds `other` with every value multiplied by `factor` (each bucket
    /// moves as its midpoint does).
    pub fn merge_scaled(&mut self, other: &Hist, factor: f64) {
        for (i, &c) in other.counts.iter().enumerate() {
            if c > 0 {
                let (lo, width) = bounds(i);
                let ns = ((lo as f64 + width as f64 / 2.0) * factor) as u64;
                self.counts[index(ns)] += c;
            }
        }
        self.n += other.n;
        self.sum_ns += (other.sum_ns as f64 * factor) as u64;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.n as f64 / 1e3
        }
    }

    /// The value of the sample at zero-based nearest rank `r`, in µs,
    /// interpolated within its bucket.
    fn at_rank_us(&self, r: usize) -> f64 {
        let target = r as u64 + 1;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if c > 0 && seen + c >= target {
                let (lo, width) = bounds(i);
                let within = (target - seen) as f64 - 0.5;
                return (lo as f64 + width as f64 * within / c as f64) / 1e3;
            }
            seen += c;
        }
        0.0
    }

    /// Nearest-rank percentile `p` in µs (0 when empty).
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.at_rank_us(rank(self.n as usize, p))
    }

    /// The highest percentile with at least ten samples beyond it:
    /// `(percentile, µs, samples beyond)`.
    pub fn tail_us(&self) -> Option<(f64, f64, usize)> {
        supported_tail_rank(self.n as usize).map(|(p, r, beyond)| (p, self.at_rank_us(r), beyond))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(lo, next, "bucket {i}");
            assert!(width == 1 || width * 64 <= lo, "bucket {i} too wide");
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + width - 1), i);
            next = lo + width;
        }
    }

    #[test]
    fn percentiles_track_the_samples() {
        let mut h = Hist::default();
        for us in 1..=1000u64 {
            h.record_ns(us * 1000);
        }
        for (p, want) in [(50.0, 500.0), (99.0, 990.0)] {
            let got = h.percentile_us(p);
            assert!((got - want).abs() <= want / 64.0, "p{p}: {got} vs {want}");
        }
        assert_eq!(h.tail_us().map(|t| (t.0, t.2)), Some((99.0, 10)));
        assert!((h.mean_us() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn scaled_merges_move_every_sample() {
        let mut h = Hist::default();
        for us in 1..=1000u64 {
            h.record_ns(us * 1000);
        }
        let mut half = Hist::default();
        half.merge_scaled(&h, 0.5);
        assert_eq!(half.count(), 1000);
        for p in [10.0, 50.0, 90.0] {
            let (got, want) = (half.percentile_us(p), h.percentile_us(p) / 2.0);
            assert!((got - want).abs() <= want / 32.0, "p{p}: {got} vs {want}");
        }
        assert!((half.mean_us() - 250.25).abs() < 1e-3);
    }
}
