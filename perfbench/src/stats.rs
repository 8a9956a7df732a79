//! Small numeric helpers: a seeded generator, quantiles, and a bounded
//! latency reservoir.

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every input and every operation stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of values read on a grid of step `step`, such as a
/// timer's resolution. Each value stands for the interval of width `step`
/// around it, filled evenly, as with grouped data. When many values tie on
/// one grid point, the order statistic would read that point run after
/// run; this one still moves with the share of the sample below it.
pub fn grid_quantile(values: &[f64], q: f64, step: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * v.len() as f64;
    let x = v[(rank as usize).min(v.len() - 1)];
    let below = v.partition_point(|&y| y < x);
    let ties = v.partition_point(|&y| y <= x) - below;
    x - step / 2.0 + step * (rank - below as f64) / ties as f64
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A uniform sample of at most `cap` values out of a stream of any length
/// (Algorithm R), so a reader doing millions of queries keeps bounded
/// memory while its percentiles stay unbiased.
pub struct Reservoir {
    cap: usize,
    seen: u64,
    values: Vec<f64>,
    rng: Rng,
}

impl Reservoir {
    pub fn new(cap: usize, rng: Rng) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            values: Vec::with_capacity(cap),
            rng,
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.values[j] = v;
            }
        }
    }

    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}
