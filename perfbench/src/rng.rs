//! Seeded input generation: a SplitMix64 stream and a YCSB-style Zipfian
//! rank sampler. Every input the workloads make comes from `--seed`
//! through these, so the same seed gives the same inputs.

/// The SplitMix64 finalizer: a cheap bijective mix of 64 bits.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `lane` separates independent streams of one run.
    pub(crate) fn new(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x9e37_79b9_7f4a_7c15))))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` with skew `theta` (Gray et al., as in YCSB):
/// rank 0 is the hottest.
#[derive(Clone, Debug)]
pub(crate) struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub(crate) fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub(crate) fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_lane() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(32_768, 0.99);
        let mut rng = Rng::new(1, 0);
        let hot = (0..100_000).filter(|_| z.sample(&mut rng) < 328).count();
        // With theta = 0.99 the hottest 1% of keys draw about half the load.
        assert!((40_000..70_000).contains(&hot), "hot share {hot}");
    }
}
