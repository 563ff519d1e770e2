//! Metric names, the result line, sample statistics and the seeded
//! input stream shared by every workload.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// `--trace 0`. Names and units match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("slo_attain", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// `--trace 1`; a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("semiring.mmo_tile_ns", "ns"),
    ("semiring.quantize_tile_ns", "ns"),
    ("mxu.execute_calls", "count/job"),
    ("mxu.execute_busy_ms", "ms/job"),
    ("core.backend.mmo_calls", "count/job"),
    ("core.backend.mmo_ms", "ms/job"),
    ("core.backend.tile_mmos", "count/job"),
    ("core.backend.tile_loads", "count/job"),
    ("core.backend.tile_stores", "count/job"),
    ("core.backend.bytes_computed", "B/job"),
    ("core.backend.gops", "Gop/s"),
    ("core.backend.unit_frac", "fraction"),
    ("core.backend.kernel_frac", "fraction"),
    ("core.plan.replay_ms", "ms/job"),
    ("core.plan.self_ms", "ms/job"),
    ("core.plan.steps", "count/job"),
    ("core.plan.waves", "count/job"),
    ("core.passes.run_ms", "ms/plan"),
    ("core.passes.steps_before", "count/plan"),
    ("core.passes.steps_after", "count/plan"),
    ("core.passes.merged", "count/plan"),
    ("core.resilient.verified", "count/job"),
    ("core.resilient.retries", "count/job"),
    ("core.resilient.fallbacks", "count/job"),
    ("sparse.csr_mmo_ms", "ms/job"),
    ("sparse.dense_mmo_ms", "ms/job"),
    ("sparse.csr_calls", "count/job"),
    ("sparse.dense_calls", "count/job"),
    ("sparse.fma_terms", "count/job"),
    ("sparse.skipped_terms", "count/job"),
    ("sparse.skip_frac", "fraction"),
    ("sparse.dense_vs_tiled", "ratio"),
    ("serve.submit_plan_ms", "ms"),
    ("serve.submit_app_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.replay_overhead_ms", "ms"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.rejected", "count/job"),
    ("serve.expired", "count/job"),
    ("apps.record_ms", "ms"),
    ("apps.baseline_ms", "ms"),
    ("harness.gen_lag_p99_ms", "ms"),
    ("harness.trace_overhead_frac", "fraction"),
    ("harness.traced_jobs", "count"),
    ("harness.workers", "count"),
];

/// What one run measured: job accounting plus named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs the run attempted.
    pub attempted: u64,
    /// Jobs that failed, were refused, or produced a wrong or missing
    /// output.
    pub failed: u64,
    /// The first failures, for the log.
    pub errors: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records metric `name` (must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]); a non-finite value is recorded as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Counts one attempted job, failed when `error` is `Some`.
    pub fn job(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.fail(e);
        }
    }

    /// Counts a failure that is not tied to a job attempt.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Whether every attempted job produced its correct output.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: every metric of `names`, in order, with its unit
    /// (missing ones read 0).
    pub fn json(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// splitmix64 step.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seeded stream every workload draws its inputs from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `q`-quantile of `samples` (linear interpolation between order
/// statistics); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of `samples`; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds as milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The process's peak resident set (`VmHWM`) in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Worker threads every backend uses: the host's CPU count.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with
/// the median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("set-up ran at least once"),
        quantile(&times, 0.5),
    )
}

/// Runs whole cycles over `jobs` until `budget` has passed, counting
/// each job (and its error, if `run` reports one) in `out`; returns
/// per-job latencies (ms) and jobs per second, the median over cycles.
pub fn closed_loop<T>(
    jobs: &[T],
    budget: Duration,
    out: &mut Outcome,
    mut run: impl FnMut(&T) -> Option<String>,
) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let mut lat = Vec::new();
    let mut rates = Vec::new();
    while t0.elapsed() < budget {
        let cycle = Instant::now();
        for j in jobs {
            let t = Instant::now();
            let err = run(j);
            lat.push(ms_since(t));
            out.job(err);
        }
        rates.push(jobs.len() as f64 / cycle.elapsed().as_secs_f64());
    }
    (lat, quantile(&rates, 0.5))
}

/// Records the end-to-end metrics of a closed-loop workload; its tail
/// is p90, the highest percentile with ten samples beyond it at the
/// run lengths used.
pub fn report_closed_loop(
    out: &mut Outcome,
    setup_s: f64,
    lat: &[f64],
    jobs_per_s: f64,
    slo_ms: f64,
) {
    out.set("setup_s", setup_s);
    out.set("jobs_per_s", jobs_per_s);
    out.set("job_p50_ms", quantile(lat, 0.5));
    out.set("job_tail_ms", quantile(lat, 0.9));
    let within = lat.iter().filter(|&&l| l <= slo_ms).count();
    out.set("slo_attain", ratio(within as f64, lat.len() as f64));
    crate::note_latency("job latency", lat, 0.9);
}

/// Whether two matrices agree bit for bit.
pub fn same_bits(a: &simd2_matrix::Matrix, b: &simd2_matrix::Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
