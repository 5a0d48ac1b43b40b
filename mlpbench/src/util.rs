//! Small helpers: statistics, a seeded generator, process memory and
//! the golden reports.

use std::path::{Path, PathBuf};

/// Median of `xs`, the mean of the two middle values for an even count
/// (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d6c_7062_656e_6368)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process for
/// `None`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Millions per second.
pub fn mrate(count: f64, secs: f64) -> f64 {
    count / secs.max(1e-9) / 1e6
}

/// Where the golden reports live, relative to the checkout root. Every
/// output check reads them there, so a deliberate re-bless flows through.
pub const GOLDEN_DIR: &str = "tests/golden";

/// The golden file of experiment `name` at quick scale (`ext` is `txt` or
/// `json`).
pub fn golden_path(root: &Path, name: &str, ext: &str) -> PathBuf {
    root.join(GOLDEN_DIR).join(format!("{name}.quick.{ext}"))
}

/// A golden JSON report: experiment name and the exact bytes expected.
pub struct Golden {
    pub name: String,
    pub bytes: Vec<u8>,
}

/// Every golden JSON report, sorted by experiment name.
pub fn goldens(root: &Path) -> Result<Vec<Golden>, String> {
    let dir = root.join(GOLDEN_DIR);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
    {
        let file = entry.file_name().to_string_lossy().into_owned();
        if let Some(name) = file.strip_suffix(".quick.json") {
            let bytes = std::fs::read(entry.path()).map_err(|e| format!("{file}: {e}"))?;
            out.push(Golden {
                name: name.to_string(),
                bytes,
            });
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    if out.is_empty() {
        return Err(format!("no golden reports in {}", dir.display()));
    }
    Ok(out)
}
