//! Seeded input generation. Every input the program sees is a pure
//! function of the workload seed (and, for the `hot_hits` universe and the
//! `insitu_md` start state, of a constant of the workload), drawn from the
//! benchmark's own generator so the inputs do not change when a crate's
//! RNG does.

use insitu_types::{AnalysisProfile, ResourceConfig, ScheduleProblem};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream, index)`: independent streams per
    /// purpose and per item, so item `i` does not depend on how many
    /// items came before it.
    pub fn derive(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r
            .next_u64()
            .wrapping_add(index.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// Generator streams, one per purpose.
const STREAM_UNIVERSE: u64 = 1;
const STREAM_HOT: u64 = 2;
const STREAM_COLD: u64 = 3;
const STREAM_WARMUP: u64 = 4;
const STREAM_SAMPLE: u64 = 5;
pub(crate) const STREAM_MD_PROFILES: u64 = 6;

/// Steps of every service instance: enough that a solve takes
/// milliseconds, so misses measure the solver and not lock handoff.
const SERVICE_STEPS: usize = 240;

/// Zipf exponent of the `hot_hits` stream, as in `service_bench`.
pub const ZIPF_S: f64 = 1.1;

/// One schedule instance of the service family, shaped like
/// `service_bench`'s: `2 + index % 3` analyses with **dyadic** costs
/// (multiples of 1/64), so every schedule's total time is an exact `f64`
/// sum and the float solver and the exact certifier agree even on
/// budget-saturating optima. Unlike `service_bench`, intervals are 1 or 2
/// steps only: the position-expanded shapes (intervals of 4 and more) have
/// solve and certificate costs so heavy-tailed that their p99 does not
/// settle across seeds at this run length. `index` also goes into the
/// memory threshold, far above any schedule's memory use, so instances
/// with different indices are distinct without being easier or harder to
/// solve.
pub fn service_instance(rng: &mut Rng, index: u64) -> ScheduleProblem {
    let analyses = (0..2 + index % 3)
        .map(|j| {
            AnalysisProfile::new(format!("a{j}"))
                .with_compute(
                    0.5 + rng.range(1, 36) as f64 / 8.0,
                    rng.range(0, 8) as f64 * 1e6,
                )
                .with_interval(1 << rng.range(0, 1))
                .with_weight(rng.range(1, 8) as f64 / 2.0)
                .with_output(0.0625 * rng.range(1, 4) as f64, 0.0, 1)
        })
        .collect();
    ScheduleProblem::new(
        analyses,
        ResourceConfig::from_total_threshold(SERVICE_STEPS, 48.0, 1e9 + index as f64, 1e9),
    )
    .expect("generated instance must validate")
}

/// Seed of the `hot_hits` universe. The universe is part of the
/// workload's definition, like a dataset, and the run's seed draws the
/// request stream over it: with a universe drawn per seed, which
/// instances happen to be popular moved p50 hit latency by about 13%
/// (interquartile range over ten seeds) before any timing noise.
const UNIVERSE_SEED: u64 = 2015_0815;

/// The `hot_hits` universe: `size` distinct instances.
pub fn universe(size: usize) -> Vec<ScheduleProblem> {
    (0..size)
        .map(|i| {
            service_instance(
                &mut Rng::derive(UNIVERSE_SEED, STREAM_UNIVERSE, i as u64),
                i as u64,
            )
        })
        .collect()
}

/// Inverse-CDF Zipf sampler over ranks `0..k`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Popularity `w_r ∝ 1/r^s` over `k` ranks.
    pub fn new(k: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=k)
            .map(|r| {
                total += 1.0 / (r as f64).powf(s);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Request `index` of the `hot_hits` stream: a Zipf-drawn universe member
/// (member `r` has popularity rank `r`) with its analyses in a shuffled
/// order. Returns the member's index too.
pub fn hot_request(
    seed: u64,
    index: u64,
    universe: &[ScheduleProblem],
    zipf: &Zipf,
) -> (usize, ScheduleProblem) {
    let mut rng = Rng::derive(seed, STREAM_HOT, index);
    let member = zipf.sample(&mut rng);
    let mut problem = universe[member].clone();
    rng.shuffle(&mut problem.analyses);
    (member, problem)
}

/// Request `index` of the `cold_misses` stream. Its instance index starts
/// above every warm-up index, so no request repeats another or a warm-up
/// instance.
pub fn cold_request(seed: u64, index: u64) -> ScheduleProblem {
    service_instance(
        &mut Rng::derive(seed, STREAM_COLD, index),
        (1 << 32) + index,
    )
}

/// Instance `index` used to fill the `cold_misses` cache during setup.
pub fn warmup_instance(seed: u64, index: u64) -> ScheduleProblem {
    service_instance(&mut Rng::derive(seed, STREAM_WARMUP, index), index)
}

/// Whether request `index` is in the seeded sample that gets a cold
/// reference solve (`1 / every` of the requests).
pub fn in_reference_sample(seed: u64, index: u64, every: u64) -> bool {
    Rng::derive(seed, STREAM_SAMPLE, index)
        .next_u64()
        .is_multiple_of(every)
}
