//! The machine canary: is the host as fast now as it was a minute ago?
//! A STREAM triad for memory bandwidth and a fixed integer loop for the
//! core clock, taken before and after a set of runs. When the two differ
//! by more than a tenth the set is printed as `unresolved`.

use std::hint::black_box;
use std::time::Instant;

/// Largest cache the kernel reports for cpu0, in bytes (32 MiB if it
/// reports none).
pub fn llc_bytes() -> usize {
    let mut largest = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            _ => (text, 1),
        };
        largest = largest.max(digits.parse::<usize>().unwrap_or(0) * scale);
    }
    if largest == 0 {
        32 << 20
    } else {
        largest
    }
}

/// Bytes of each triad array: four times the last-level cache, capped at
/// 256 MiB so the canary stays a fraction of a second and of memory on a
/// guest that sees a whole host socket's L3.
pub fn triad_array_bytes() -> usize {
    (4 * llc_bytes()).min(256 << 20)
}

#[derive(Debug, Clone, Copy)]
pub struct Canary {
    pub triad_gbs: f64,
    pub spin_ns: f64,
}

/// Best of three triad passes and of five spin loops: the canary asks
/// what the machine can do, not what it did on average. The arrays live
/// only for the call, so they do not sit in memory during the runs.
pub fn measure() -> Canary {
    let n = triad_array_bytes() / 8;
    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    let bytes = 3.0 * 8.0 * n as f64;
    let mut triad_gbs = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
        triad_gbs = triad_gbs.max(bytes / start.elapsed().as_secs_f64() / 1e9);
    }
    const SPINS: u64 = 20_000_000;
    let mut spin_ns = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = black_box(88172645463325252u64);
        for _ in 0..SPINS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        spin_ns = spin_ns.min(start.elapsed().as_secs_f64() * 1e9 / SPINS as f64);
    }
    Canary { triad_gbs, spin_ns }
}

/// The larger relative change of the two canaries, in percent. Above 10
/// the runs between them are not comparable with others.
pub fn drift_pct(before: Canary, after: Canary) -> f64 {
    let rel = |a: f64, b: f64| 100.0 * (a - b).abs() / a.max(b).max(1e-300);
    rel(before.triad_gbs, after.triad_gbs).max(rel(before.spin_ns, after.spin_ns))
}
