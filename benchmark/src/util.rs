//! Host-side measurement helpers: `/proc` readers, order statistics,
//! the digest the determinism checks compare, and a seeded generator for
//! the benchmark's own inputs.

use serde::{Serialize, Value};

/// Peak resident set of this process so far, KiB (`VmHWM`).
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// User + system CPU seconds consumed by this process, every thread
/// (exited ones too), from `/proc/self/stat`. Kernel clock ticks are
/// `USER_HZ` = 100 on Linux, so the value moves in 10 ms steps; callers
/// sum it over a whole measurement window.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (utime + stime) as f64 / 100.0
}

/// Median of `values` (mean of the middle pair for even counts).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads printed here match the
/// ones the driver computes. Needs two values; fewer give `(x, x)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`q` in percent) of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it, as `(label, value)`; `None` under 100 samples.
pub fn supported_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    // Per mille, so that "ten beyond" is integer arithmetic.
    [("p99.9", 999), ("p99", 990), ("p90", 900)]
        .into_iter()
        .find(|&(_, q)| values.len() * (1000 - q) >= 10 * 1000)
        .map(|(label, q)| (label, percentile(values, q as f64 / 10.0)))
}

/// Member `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The value at the end of a path of object members.
pub fn at<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| field(v, key))
}

/// FNV-1a over the serialized simulated results. Equal digests mean
/// equal simulated numbers; the value itself carries no meaning.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in the JSON form of `value` — the same bytes a result file
    /// would hold, so float formatting is part of the comparison.
    pub fn json<T: Serialize + ?Sized>(&mut self, value: &T) {
        let text = serde_json::to_string(value).expect("simulated results serialize");
        self.bytes(text.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// splitmix64: the benchmark's own input generator (failure schedules,
/// payload keys). The crates under test never see it, only its output.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The splitmix64 finalizer: a cheap 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).unwrap().0, "p99");
        assert_eq!(supported_tail(&v[..100]).unwrap().0, "p90");
        assert!(supported_tail(&v[..99]).is_none());
    }
}
