//! Small numeric helpers: order statistics, the `Debug`-form reader for the
//! engine's counters, hashing, seed mixing and `/proc` readers.

use std::collections::BTreeMap;

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it (`None` below 20 samples, where only the median
/// qualifies).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Reads the numeric fields of a derived-`Debug` struct rendering, such as
/// `ScheduleStats { ranges: 3, restored_breakdown: RestoredBytes { memory:
/// 0 } }`, into a name → value map; nested fields are flattened with a `.`.
///
/// The benchmark reads the engine's counters only this way, so a counter
/// that a later change removes is simply absent from the map (reported as
/// `null`) instead of breaking the benchmark's build.
pub fn debug_fields(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    // One entry per open `{`: the field it belongs to (none for the
    // outermost struct).
    let mut prefix: Vec<Option<String>> = Vec::new();
    let mut field: Option<String> = None;
    let mut tokens = tokenize(text).into_iter().peekable();
    while let Some(tok) = tokens.next() {
        match tok.as_str() {
            "{" => prefix.push(field.take()),
            "}" => {
                field = None;
                prefix.pop();
            }
            "," => field = None,
            ":" => {}
            _ if tokens.peek().map(String::as_str) == Some(":") && field.is_none() => {
                field = Some(tok);
            }
            // The type name of a nested struct: its field stays pending and
            // becomes the prefix at the `{` that follows.
            _ if tokens.peek().map(String::as_str) == Some("{") => {}
            _ => {
                if let (Some(name), Ok(v)) = (field.take(), tok.parse::<f64>()) {
                    let key = prefix
                        .iter()
                        .flatten()
                        .chain(std::iter::once(&name))
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(".");
                    out.insert(key, v);
                }
            }
        }
    }
    out
}

/// Splits a `Debug` rendering into identifiers/numbers and the punctuation
/// `{ } : ,`.
fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || matches!(c, '_' | '.' | '-') {
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            tokens.push(std::mem::take(&mut word));
        }
        if matches!(c, '{' | '}' | ':' | ',') {
            tokens.push(c.to_string());
        }
    }
    if !word.is_empty() {
        tokens.push(word);
    }
    tokens
}

/// Adds every entry of `from` into `into`.
pub fn add_fields(into: &mut BTreeMap<String, f64>, from: &BTreeMap<String, f64>) {
    for (k, v) in from {
        *into.entry(k.clone()).or_insert(0.0) += v;
    }
}

/// 64-bit FNV-1a, the digest of campaign outcomes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// SplitMix64 of `seed` and `salt`: derives independent per-cell seeds
/// from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// User plus system CPU time of this process in seconds, from
/// `/proc/self/stat` (Linux clock ticks are 1/100 s).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_interpolate_and_tails_keep_ten_samples_beyond() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 97.5), Some(97.5));
        assert_eq!(percentile(&[2.0, 4.0], 50.0), Some(3.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(60), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn debug_fields_flatten_nested_structs() {
        let text = "ScheduleStats { ranges: 3, restores: 10, restored_breakdown: \
                    RestoredBytes { memory: 0, caches: 512 }, suffix_cycles: 123456, \
                    forks_retired: 7 }";
        let m = debug_fields(text);
        assert_eq!(m["ranges"], 3.0);
        assert_eq!(m["restored_breakdown.memory"], 0.0);
        assert_eq!(m["restored_breakdown.caches"], 512.0);
        assert_eq!(m["suffix_cycles"], 123456.0);
        assert_eq!(m["forks_retired"], 7.0);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn a_removed_counter_is_absent_not_an_error() {
        // The same struct after a change deleted `forks_merged` and turned
        // a counter into a non-numeric field: the rest still reads.
        let m = debug_fields("ScheduleStats { ranges: 2, mode: Batched, cow_breaks: 4 }");
        assert_eq!(m.get("forks_merged"), None);
        assert_eq!(m.get("mode"), None);
        assert_eq!(m["cow_breaks"], 4.0);
        let mut total = BTreeMap::new();
        add_fields(&mut total, &m);
        add_fields(&mut total, &m);
        assert_eq!(total["ranges"], 4.0);
    }

    #[test]
    fn reads_the_real_schedule_stats_rendering() {
        let m = debug_fields(&format!("{:?}", merlin_inject::ScheduleStats::default()));
        for key in ["ranges", "restores", "suffix_cycles", "forks_spawned"] {
            assert_eq!(m.get(key), Some(&0.0), "{key}");
        }
    }

    #[test]
    fn fnv_and_mix_are_stable() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
    }
}
