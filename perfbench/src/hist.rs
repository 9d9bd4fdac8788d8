//! A log-linear latency histogram with nanosecond resolution.
//!
//! Values below 128 ns get a bucket each; above, every octave is split into
//! 64 buckets, so a reported quantile is within 0.8% of the recorded value.
//! One histogram per thread and phase; merged after the threads join.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const LINEAR: u64 = 2 * SUB;
const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist").field("n", &self.n).finish()
    }
}

fn index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// The midpoint of bucket `idx`, in ns.
fn value(idx: usize) -> f64 {
    let idx = idx as u64;
    if idx < LINEAR {
        return idx as f64;
    }
    let shift = idx / SUB - 1;
    let low = (SUB + idx % SUB) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` quantile (0 < q <= 1) in ns; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(i);
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut last = 0;
        for v in 1..100_000u64 {
            let i = index(v);
            assert!(i == last || i == last + 1, "gap at {v}");
            last = i;
            let err = (value(i) - v as f64).abs() / v as f64;
            assert!(err <= 0.008, "{v}: bucket value {} off by {err}", value(i));
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_a_known_spread() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record_ns(v * 10);
        }
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!((p50 - 5000.0).abs() < 40.0, "{p50}");
        assert!((p99 - 9900.0).abs() < 80.0, "{p99}");
        assert_eq!(Hist::new().quantile_ns(0.5), 0.0);
    }
}
