//! Process and file-system helpers: peak-RSS control through procfs,
//! on-disk sizes, a seeded RNG, and a body digest.

use std::io;
use std::path::Path;

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// RSS, so a later [`peak_rss_mb`] covers only what runs after the call.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

/// This process's peak resident set size in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// The machine's cumulative CPU time from `/proc/stat`, in clock ticks:
/// (stolen by the hypervisor, all).
pub fn cpu_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no cpu line in /proc/stat"))?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let total = fields.iter().take(8).sum();
    Ok((fields.get(7).copied().unwrap_or(0), total))
}

/// Percent of the machine's CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_percent(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Total bytes of the regular files under `root`, or only of those named
/// `name` when it is given.
pub fn file_bytes(root: &Path, name: Option<&str>) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += file_bytes(&entry.path(), name)?;
        } else if name.is_none_or(|n| entry.file_name() == n) {
            total += meta.len();
        }
    }
    Ok(total)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running 64-bit FNV-1a digest.
pub fn fnv_extend(digest: u64, bytes: &[u8]) -> u64 {
    let mut h = digest;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a, used to digest response bodies.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

/// SplitMix64: a small seeded generator, so every input the benchmark
/// makes is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named stream within it.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn steal_is_a_share_of_all_cpu_time() {
        let (steal, total) = cpu_ticks().unwrap();
        assert!(total > 0 && steal <= total);
        assert_eq!(steal_percent((10, 100), (20, 200)), 10.0);
        assert_eq!(steal_percent((10, 100), (10, 100)), 0.0);
    }

    #[test]
    fn peak_rss_is_readable_and_resettable() {
        let _ = reset_peak_rss();
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
