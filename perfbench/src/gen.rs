//! Seeded input generation: a SplitMix64 stream and a zipfian sampler.
//!
//! Every workload draws its inputs from these before timing starts, so the
//! same `--seed` gives the same inputs and the program under test receives
//! only the generated operations.

/// SplitMix64 (Steele, Lea, Flood 2014): small, fast, and good enough for
/// input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` (one per client).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipfian ranks over `0..n` with exponent `theta`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

/// Scatter a popularity rank over `0..n`, so hot keys are not neighbours
/// (YCSB-style hashed ranks). A bijection when `n` is a power of two.
pub fn scatter(rank: u64, n: u64) -> u64 {
    debug_assert!(n.is_power_of_two());
    // An odd multiplier is invertible modulo a power of two.
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(7, 2).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(8192, 0.99);
        let mut r = Rng::new(1, 0);
        let hits = (0..10_000).filter(|_| z.sample(&mut r) < 10).count();
        // Ranks 0..10 carry about 30% of the mass at theta 0.99, n 8192.
        assert!((2_000..4_000).contains(&hits), "{hits}");
    }

    #[test]
    fn scatter_is_a_bijection() {
        let mut seen = vec![false; 1024];
        for r in 0..1024 {
            seen[scatter(r, 1024) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
