//! Seeded permutations and order statistics.

/// SplitMix64: a small seeded generator, so a seed fixes every
/// permutation the benchmark makes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// The `q`-quantile with linear interpolation between order statistics.
/// Empty input gives NaN, which the report turns into a failed run.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median.
pub fn rel_iqr(values: &[f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of per-sample ratios `a[i] / b[i]` of paired samples.
pub fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&ratios)
}

pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// Calibration kernel time on the reference host.
pub const REFERENCE_KERNEL_NS: f64 = 1.2e6;

/// Scales a duration measured while the calibration kernel took `cal`
/// nanoseconds to the reference host speed. A shared host's speed can
/// drift by more than 1.5× within seconds; the kernel, timed next to
/// each sample, tracks that drift, so scaled durations compare across
/// runs.
pub fn at_reference(value: f64, cal: f64) -> f64 {
    value * REFERENCE_KERNEL_NS / cal
}

/// Times a fixed, benchmark-owned workload (string building, hashing,
/// sorting) that shares no code with the system under test: the gauge
/// of the host's momentary speed.
pub fn calibrate() -> f64 {
    use std::collections::HashMap;
    let t = std::time::Instant::now();
    let mut map: HashMap<String, usize> = HashMap::new();
    let mut keys = Vec::with_capacity(2000);
    for i in 0..2000usize {
        let k = format!("key-{}-{}", i % 97, i);
        map.insert(k.clone(), i);
        keys.push(k);
    }
    let mut sum = 0usize;
    for k in &keys {
        sum += map.get(k.as_str()).copied().unwrap_or(0);
    }
    keys.sort();
    std::hint::black_box((sum, keys));
    ns(t.elapsed())
}
