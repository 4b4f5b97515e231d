//! Reproducible random-number streams.
//!
//! Every stochastic component of a simulation draws from its own independent
//! stream so that adding a component (or reordering draws inside one) never
//! perturbs the others. Streams are derived from one master seed with
//! [`SeedSequence`], and the generator itself ([`Xoshiro256StarStar`]) is
//! implemented here so that results are stable regardless of `rand` crate
//! version bumps.
//!
//! ```
//! use mlb_simkernel::rng::SeedSequence;
//! use rand::Rng;
//!
//! let mut seq = SeedSequence::new(42);
//! let mut workload_rng = seq.stream("workload");
//! let mut network_rng = seq.stream("network");
//! let a: f64 = workload_rng.gen();
//! let b: f64 = network_rng.gen();
//! assert_ne!(a, b); // independent streams
//! ```

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64: a tiny, well-distributed generator used for seed expansion.
///
/// This is the generator recommended by the xoshiro authors for seeding
/// larger-state generators. It is deliberately *not* exposed for general
/// simulation use — use [`Xoshiro256StarStar`] streams instead.
///
/// # Examples
///
/// ```
/// use mlb_simkernel::rng::SplitMix64;
///
/// let mut sm = SplitMix64::new(7);
/// let first = sm.next_u64();
/// let second = sm.next_u64();
/// assert_ne!(first, second);
/// assert_eq!(SplitMix64::new(7).next_u64(), first); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix_finalise(self.state)
    }

    /// Returns a uniform draw from `[0, n)` without modulo bias, using
    /// Lemire's widening-multiply rejection method. Consumes one 64-bit
    /// output in the common case and rejects with probability < n/2⁶⁴.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlb_simkernel::rng::SplitMix64;
    ///
    /// let mut sm = SplitMix64::new(7);
    /// for _ in 0..100 {
    ///     assert!(sm.next_bounded(3) < 3);
    /// }
    /// ```
    pub fn next_bounded(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_bounded: n must be positive");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut low = m as u64;
        if low < n {
            // Reject the low fringe that maps unevenly onto [0, n).
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// xoshiro256** 1.0 — the kernel's general-purpose generator.
///
/// 256 bits of state, passes BigCrush, and fast enough to be invisible in
/// event-loop profiles. Implements [`rand::RngCore`] so the full `rand`
/// distribution machinery works on top of it.
///
/// # Examples
///
/// ```
/// use mlb_simkernel::rng::Xoshiro256StarStar;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(123);
/// let x: u32 = rng.gen_range(0..10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding a 64-bit seed through
    /// [`SplitMix64`], per the xoshiro reference implementation.
    pub fn from_seed_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256StarStar {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (i, slot) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *slot = u64::from_le_bytes(b);
        }
        if s == [0, 0, 0, 0] {
            // An all-zero state is a fixed point; re-expand from a constant.
            return Xoshiro256StarStar::from_seed_u64(0x9E37_79B9_7F4A_7C15);
        }
        Xoshiro256StarStar { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Xoshiro256StarStar::from_seed_u64(state)
    }
}

/// Derives independent, named RNG streams from a single master seed.
///
/// The stream for a given `(master_seed, name)` pair is always the same,
/// and streams with different names are statistically independent. Names
/// are hashed with FNV-1a so stream identity does not depend on call order.
///
/// # Examples
///
/// ```
/// use mlb_simkernel::rng::SeedSequence;
/// use rand::RngCore;
///
/// let mut a = SeedSequence::new(1).stream("pdflush");
/// let mut b = SeedSequence::new(1).stream("pdflush");
/// assert_eq!(a.next_u64(), b.next_u64()); // same name, same stream
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a sequence rooted at `master_seed`.
    pub const fn new(master_seed: u64) -> Self {
        SeedSequence {
            master: master_seed,
        }
    }

    /// The master seed this sequence was built from.
    pub const fn master_seed(&self) -> u64 {
        self.master
    }

    /// Returns the generator for the named stream.
    pub fn stream(&mut self, name: &str) -> Xoshiro256StarStar {
        Xoshiro256StarStar::from_seed_u64(self.master ^ fnv1a(name.as_bytes()))
    }

    /// Returns the generator for a numbered instance of a named stream,
    /// e.g. one stream per simulated server.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlb_simkernel::rng::SeedSequence;
    /// use rand::RngCore;
    ///
    /// let mut seq = SeedSequence::new(9);
    /// let mut t0 = seq.stream_indexed("tomcat", 0);
    /// let mut t1 = seq.stream_indexed("tomcat", 1);
    /// assert_ne!(t0.next_u64(), t1.next_u64());
    /// ```
    pub fn stream_indexed(&mut self, name: &str, index: usize) -> Xoshiro256StarStar {
        let mut h = fnv1a(name.as_bytes());
        h = fnv1a_extend(h, &(index as u64).to_le_bytes());
        Xoshiro256StarStar::from_seed_u64(self.master ^ h)
    }
}

/// SplitMix64's output finaliser: a bijective 64-bit mix in which every
/// input bit affects every output bit.
pub(crate) fn splitmix_finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Not the published 64-bit FNV prime (`0x100_0000_01b3`): every golden
/// digest in the workspace was pinned with this constant, so it stays.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a byte slice (with this workspace's prime, see
/// `FNV_PRIME`): the hash behind stream names here
/// and behind every golden digest in the workspace (registry, trace and
/// profile exports).
///
/// ```
/// use mlb_simkernel::rng::{fnv1a, fnv1a_extend};
///
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325); // the offset basis
/// assert_eq!(fnv1a_extend(fnv1a(b"ab"), b"c"), fnv1a(b"abc"));
/// ```
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes:
/// `fnv1a_extend(fnv1a(a), b)` equals the [`fnv1a`] of `a` followed by `b`.
#[inline]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Samples an exponentially distributed duration with the given mean.
///
/// Used for think times and service-time jitter. Implemented by inverse-CDF
/// so only a uniform draw is needed.
///
/// # Examples
///
/// ```
/// use mlb_simkernel::rng::{exponential, SeedSequence};
/// use mlb_simkernel::time::SimDuration;
///
/// let mut rng = SeedSequence::new(5).stream("think");
/// let d = exponential(&mut rng, SimDuration::from_secs(7));
/// assert!(d > SimDuration::ZERO);
/// ```
pub fn exponential<R: RngCore>(rng: &mut R, mean: SimDurationArg) -> crate::time::SimDuration {
    let mean = mean.as_secs_f64();
    // Map to the open interval (0, 1] so ln() is finite.
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let u = (1.0 - u).max(f64::MIN_POSITIVE);
    crate::time::SimDuration::from_secs_f64(-mean * u.ln())
}

/// Samples a duration uniformly from `[low, high]`.
///
/// # Panics
///
/// Panics if `low > high`.
pub fn uniform_duration<R: RngCore>(
    rng: &mut R,
    low: crate::time::SimDuration,
    high: crate::time::SimDuration,
) -> crate::time::SimDuration {
    assert!(low <= high, "uniform_duration: low > high");
    let span = high.as_micros() - low.as_micros();
    if span == 0 {
        return low;
    }
    let offset = rng.next_u64() % (span + 1);
    crate::time::SimDuration::from_micros(low.as_micros() + offset)
}

// A tiny alias so `exponential` reads naturally at call sites while still
// taking the strongly-typed duration.
use crate::time::SimDuration as SimDurationArg;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use rand::Rng;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let out: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(out[0], 6457827717110365317);
        assert_eq!(out[1], 3203168211198807973);
        assert_eq!(out[2], 9817491932198370423);
    }

    #[test]
    fn next_bounded_stays_in_range_and_covers_it() {
        let mut sm = SplitMix64::new(2024);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = sm.next_bounded(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
        // Degenerate bound.
        assert_eq!(sm.next_bounded(1), 0);
    }

    #[test]
    fn next_bounded_is_deterministic_per_seed() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for n in [2u64, 3, 10, 1 << 40, u64::MAX] {
            assert_eq!(a.next_bounded(n), b.next_bounded(n));
        }
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn next_bounded_zero_panics() {
        SplitMix64::new(0).next_bounded(0);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn xoshiro_fill_bytes_handles_remainders() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn xoshiro_from_seed_zero_guard() {
        let rng = Xoshiro256StarStar::from_seed([0u8; 32]);
        let mut r = rng;
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn streams_are_named_and_stable() {
        let mut seq = SeedSequence::new(7);
        let mut s1 = seq.stream("a");
        let mut s2 = seq.stream("a");
        assert_eq!(s1.next_u64(), s2.next_u64());
        let mut s3 = seq.stream("b");
        assert_ne!(s1.next_u64(), s3.next_u64());
    }

    #[test]
    fn indexed_streams_differ() {
        let mut seq = SeedSequence::new(7);
        let mut a = seq.stream_indexed("server", 0);
        let mut b = seq.stream_indexed("server", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let mean = SimDuration::from_millis(100);
        let n = 50_000;
        let total: u64 = (0..n)
            .map(|_| exponential(&mut rng, mean).as_micros())
            .sum();
        let sample_mean = total as f64 / n as f64;
        let expected = mean.as_micros() as f64;
        assert!(
            (sample_mean - expected).abs() / expected < 0.03,
            "sample mean {sample_mean} too far from {expected}"
        );
    }

    #[test]
    fn exponential_is_positive() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..1_000 {
            assert!(exponential(&mut rng, SimDuration::from_micros(10)) >= SimDuration::ZERO);
        }
    }

    #[test]
    fn uniform_duration_within_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let low = SimDuration::from_micros(100);
        let high = SimDuration::from_micros(200);
        for _ in 0..1_000 {
            let d = uniform_duration(&mut rng, low, high);
            assert!(d >= low && d <= high);
        }
    }

    #[test]
    fn uniform_duration_degenerate_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let d = SimDuration::from_micros(55);
        assert_eq!(uniform_duration(&mut rng, d, d), d);
    }

    #[test]
    fn works_with_rand_distributions() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let x: f64 = rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
    }
}
