//! Shared helpers: seeded generators, order statistics, the latency
//! sampler, process memory and the metric record.

/// SplitMix64: a small seeded generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser: a cheap bijective mix of a `u64`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` keys drawn from a Zipf(`s`) law over `distinct` key ids.
pub fn zipf_keys(seed: u64, distinct: usize, s: f64, len: usize) -> Vec<u64> {
    let mut cdf = Vec::with_capacity(distinct);
    let mut acc = 0.0;
    for k in 1..=distinct {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * acc;
            cdf.partition_point(|&c| c <= u).min(distinct - 1) as u64
        })
        .collect()
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Keeps an evenly strided subset of at most `cap` latency samples:
/// when full, every other sample is dropped and the stride doubles.
pub struct Sampler {
    cap: usize,
    stride: u64,
    seen: u64,
    kept: Vec<f64>,
}

impl Sampler {
    pub fn new(cap: usize) -> Self {
        Sampler {
            cap,
            stride: 1,
            seen: 0,
            kept: Vec::new(),
        }
    }

    #[inline]
    pub fn add(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(v);
            if self.kept.len() >= self.cap {
                // Kept samples sit at multiples of the stride, so the even
                // positions are exactly the multiples of twice the stride.
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// Samples seen (not only kept).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// (p50, p99) of the kept samples.
    pub fn p50_p99(&self) -> (f64, f64) {
        let mut v = self.kept.clone();
        v.sort_by(f64::total_cmp);
        (quantile(&v, 0.5), quantile(&v, 0.99))
    }
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Everything one workload run reports.
pub struct Outcome {
    /// End-to-end metrics (printed by the untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed by the traced run).
    pub layer: Vec<Metric>,
    /// Figures printed for the reader only (sample counts, n/a markers).
    pub info: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            e2e: Vec::new(),
            layer: Vec::new(),
            info: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, better: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, better: &'static str) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}
