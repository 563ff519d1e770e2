//! End-to-end and per-layer benchmark of the SIMD² stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig11_dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Lines before it, starting with `#`, record the host and the sample
//! counts behind each percentile. The exit code is non-zero when any
//! job failed or produced a wrong output. See `README.md`.

mod apps;
mod common;
mod fig11;
mod layers;
mod probe;
mod serve;
mod stream;
#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::Duration;

use common::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["fig11_dense", "stream_sparse", "serve_mixed"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seed reserved for confirming claims (recorded, never generated
    /// from unless passed as `--seed`).
    pub holdout_seed: Option<u64>,
    /// Measured time of one run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Latency limit per workload for `slo_attain`, in ms.
    pub slo: Vec<(String, f64)>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            holdout_seed: None,
            seconds: 10.0,
            trace: false,
            slo: Vec::new(),
        };
        let mut seen_seed = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .ok_or_else(|| format!("{flag}: expected a positive number, got {v:?}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => {
                    args.seed = value
                        .parse()
                        .map_err(|_| format!("--seed: expected an integer, got {value:?}"))?;
                    seen_seed = true;
                }
                "--holdout-seed" => {
                    args.holdout_seed = Some(value.parse().map_err(|_| {
                        format!("--holdout-seed: expected an integer, got {value:?}")
                    })?);
                }
                "--seconds" => args.seconds = num(&value)?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                    }
                }
                "--slo-ms" => {
                    for item in value.split(',') {
                        let (name, ms) = item
                            .split_once('=')
                            .ok_or_else(|| format!("--slo-ms: expected name=ms, got {item:?}"))?;
                        args.slo.push((name.to_string(), num(ms)?));
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        if !seen_seed {
            return Err("--seed is required".into());
        }
        if !args.slo_ms(&args.workload).is_finite() {
            return Err(format!("--slo-ms has no limit for {}", args.workload));
        }
        Ok(args)
    }

    /// The `slo_attain` latency limit of `workload`, in ms (infinite
    /// when none was given).
    pub fn slo_ms(&self, workload: &str) -> f64 {
        self.slo
            .iter()
            .find(|(w, _)| w == workload)
            .map_or(f64::INFINITY, |(_, ms)| *ms)
    }

    /// `share` of the run's measured time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Records how many samples back the reported tail percentile `q`, and
/// the latency distribution around it.
pub fn note_latency(what: &str, samples: &[f64], q: f64) {
    let n = samples.len();
    let beyond = (n as f64 * (1.0 - q)).floor();
    let pcts = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99].map(|p| {
        format!(
            "p{}={:.3}",
            (p * 100.0) as u32,
            common::quantile(samples, p)
        )
    });
    println!(
        "# samples: {what} n={n}, {beyond} beyond p{}; ms: {}",
        (q * 100.0).round(),
        pcts.join(" ")
    );
}

/// CPU cache sizes as the kernel reports them, e.g. `L1d=48K L2=2048K`.
fn cpu_caches() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |p: String| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    let mut caches = Vec::new();
    for i in 0..8 {
        let (Ok(level), Ok(kind), Ok(size)) = (
            read(format!("{base}/index{i}/level")),
            read(format!("{base}/index{i}/type")),
            read(format!("{base}/index{i}/size")),
        ) else {
            continue;
        };
        let kind = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!("L{level}{kind}={size}"));
    }
    if caches.is_empty() {
        "unknown".into()
    } else {
        caches.join(" ")
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} holdout_seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.holdout_seed.map_or("none".into(), |s| s.to_string()),
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "# host: isa={} nproc={} cpu_caches=[{}] serve_plan_cache={}",
        simd2_semiring::simd::selected_isa().name(),
        common::workers(),
        cpu_caches(),
        simd2_serve::ServeConfig::default().cache_capacity,
    );
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "fig11_dense" => fig11::run(&args, &mut out),
        "stream_sparse" => stream::run(&args, &mut out),
        _ => serve::run(&args, &mut out),
    }
    if !args.trace {
        match common::peak_rss_mb() {
            Ok(mb) => out.set("peak_rss_mb", mb),
            Err(e) => out.fail(e),
        }
    }
    println!(
        "# jobs: attempted={} failed={} fail_frac={}",
        out.attempted,
        out.failed,
        common::ratio(out.failed as f64, out.attempted as f64)
    );
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!(
        "{}",
        out.json(if args.trace { &PER_LAYER } else { &END_TO_END })
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
