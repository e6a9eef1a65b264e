//! Sample statistics, process memory, and the host-drift reference kernel.

use hm_kripke::{SplitMix64, WorldSet};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated between
/// closest ranks. Sorts in place; `NaN` on an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`; `NaN` on an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A deterministic hash of a verdict's satisfying set, so answers can
/// be kept as one word each and compared with the oracle afterwards.
pub fn fingerprint(set: &WorldSet) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Keys inserted by the reference kernel: 2^20 `u64 → u64` entries, a
/// ~32 MiB table — far beyond L2 and in the range of a shared L3 slice,
/// which is where this host's slow episodes show up.
const REF_KEYS: u64 = 1 << 20;

/// The host-drift reference: median of three timings of inserting
/// [`REF_KEYS`] pseudo-random keys into a presized `std` `HashMap`, in
/// ms. It runs none of the repository's code, so a shift in it is the
/// host, not the program.
pub fn host_ref_kernel_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|rep| {
            let mut rng = SplitMix64::new(0x5EED ^ rep);
            let mut map: HashMap<u64, u64> = HashMap::with_capacity(REF_KEYS as usize);
            let t = Instant::now();
            for i in 0..REF_KEYS {
                map.insert(rng.next_u64(), i);
            }
            black_box(&map);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}

/// Runs [`host_ref_kernel_ms`] in a child process of this binary, so
/// the kernel's table never counts toward this process's peak RSS.
/// Waits for the child. `NaN` if it could not run.
pub fn host_ref_ms() -> f64 {
    let Ok(exe) = std::env::current_exe() else {
        return f64::NAN;
    };
    std::process::Command::new(exe)
        .arg("--host-ref")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
    }
}
