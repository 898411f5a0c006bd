//! Minimal vendored stand-in for the `criterion` crate.
//!
//! Supports the subset this workspace's wall-clock microbenchmarks use:
//! `Criterion::benchmark_group`, `group.sample_size(..)`,
//! `group.bench_function(name, |b| b.iter(..))` (or
//! `b.iter_batched(setup, routine, BatchSize::PerIteration)` when every
//! call needs untimed preparation), `group.finish()`, and
//! the `criterion_group!` / `criterion_main!` macros. Each benchmark
//! runs a short warm-up, then `sample_size` timed samples, and prints
//! the median per-iteration time. No statistics beyond that — this shim
//! exists so benches compile and run offline; the CI perf gate uses
//! deterministic counters (`perf-smoke`), not these timings.

use std::time::Instant;

pub use std::hint::black_box;

#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("\ngroup: {name}");
        BenchmarkGroup {
            name,
            sample_size: 10,
        }
    }
}

pub struct BenchmarkGroup {
    #[expect(dead_code, reason = "upstream's field; the shim never reads it")]
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: Vec::new(),
            iters_per_sample: 1,
        };
        // Warm-up/calibration pass: pick an iteration count so one
        // sample takes ≳1 ms, bounding total time for fast closures.
        f(&mut b);
        let warm = b.samples.last().copied().unwrap_or(1e-3);
        if warm < 1e-3 {
            b.iters_per_sample = ((1e-3 / warm.max(1e-9)) as usize).clamp(1, 1_000_000);
        }
        b.samples.clear();
        for _ in 0..self.sample_size {
            f(&mut b);
        }
        let mut per_iter = b.samples;
        per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = per_iter[per_iter.len() / 2];
        println!(
            "  {id:<28} {:>12}/iter ({} samples)",
            format_time(median),
            per_iter.len()
        );
        self
    }

    pub fn finish(&mut self) {}
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

pub struct Bencher {
    /// Seconds per iteration, one entry per sample.
    samples: Vec<f64>,
    iters_per_sample: usize,
}

/// How many inputs `iter_batched` prepares per timed batch; the shim
/// has the one form its callers use.
pub enum BatchSize {
    PerIteration,
}

impl Bencher {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench harness: measuring wall time is the whole point, and no bench output is gated"
    )]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(f());
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / self.iters_per_sample as f64);
    }

    /// One sample is one `routine(setup())`, and only `routine` is
    /// timed: for a cost that exists only right after `setup` (an idle
    /// gap, a cold cache), which `iter`'s back-to-back loop would dilute.
    #[expect(
        clippy::disallowed_methods,
        reason = "bench harness: measuring wall time is the whole point, and no bench output is gated"
    )]
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        self.samples.push(start.elapsed().as_secs_f64());
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        let mut count = 0u64;
        group.bench_function("counting", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        group.finish();
        assert!(count > 3, "closure ran {count} times");
    }

    #[test]
    fn format_time_scales() {
        assert!(format_time(2.0).ends_with(" s"));
        assert!(format_time(2e-3).ends_with(" ms"));
        assert!(format_time(2e-6).ends_with(" us"));
        assert!(format_time(2e-9).ends_with(" ns"));
    }
}
