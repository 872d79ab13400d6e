//! Order statistics, process-memory probes and host-speed calibration.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Linear-interpolation quantile (the "type 7" estimator) of an
/// ascending slice. `+inf` entries — failed requests — sort last and
/// propagate into every quantile that reaches them.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a sample in place and returns it (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of `pid` — this process when
/// `None` — in MiB. Linux only; 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nominal duration (ms) of [`kernel_ms`]: CPU-bound timings are scaled
/// to the host speed at which the kernel takes this long.
pub const REF_MS: f64 = 30.0;

/// Milliseconds a fixed, benchmark-owned CPU kernel takes right now: map
/// churn, a bytecode dispatch loop and a sort (allocation, pointer
/// chasing and branchy dispatch, like the compiler, emulator and
/// simulator), best of three.
pub fn kernel_ms() -> f64 {
    (0..3).map(|_| kernel_once()).fold(f64::INFINITY, f64::min)
}

fn kernel_once() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..25 {
        let mut m = BTreeMap::new();
        for _ in 0..4000 {
            m.insert(next() % 8192, next());
        }
        let mut s = 0u64;
        for _ in 0..4000 {
            if let Some(v) = m.get(&(next() % 8192)) {
                s = s.wrapping_add(*v);
            }
        }
        let code: Vec<u8> = (0..64).map(|_| (next() % 6) as u8).collect();
        let mut regs = [1u64; 8];
        for step in 0..40_000usize {
            let r = step & 7;
            match code[step & 63] {
                0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 7]),
                1 => regs[r] ^= regs[(r + 3) & 7] >> 1,
                2 => regs[r] = regs[r].wrapping_mul(3),
                3 => {
                    if regs[r] & 1 == 0 {
                        regs[(r + 2) & 7] += 1;
                    }
                }
                4 => regs[r] = regs[r].rotate_left(5),
                _ => regs[r] = regs[r].wrapping_sub(s),
            }
        }
        let mut v: Vec<u64> = (0..8000).map(|_| next()).collect();
        v.sort_unstable();
        std::hint::black_box((m.len(), regs, v[17]));
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Scales CPU-bound timings to a reference host speed.
///
/// The host this benchmark was tuned on is a shared 2-vCPU VM whose
/// speed drifts by up to 1.7x over minutes, so raw wall times of
/// CPU-bound work taken at different times do not compare. The kernel
/// runs between measured phases; each phase's timings are multiplied by
/// `REF_MS / mean(kernel before, kernel after)`.
pub struct HostSpeed {
    last: f64,
    /// Every kernel time taken (ms).
    pub samples: Vec<f64>,
}

impl HostSpeed {
    /// Takes the first kernel sample.
    pub fn new() -> HostSpeed {
        let last = kernel_ms();
        HostSpeed {
            last,
            samples: vec![last],
        }
    }

    /// Re-measures the host; returns the factor for timings taken since
    /// the previous measurement.
    pub fn factor(&mut self) -> f64 {
        let now = kernel_ms();
        self.samples.push(now);
        let f = REF_MS / ((self.last + now) / 2.0);
        self.last = now;
        f
    }
}
