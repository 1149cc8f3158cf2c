//! Small statistics, host facts and the result-line writer.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `xs` (mean of the middle pair for an even count); `0` for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        // Position (n + 1) * i / 4 in 1-based order statistics.
        let m = (n + 1) as i64;
        let j = ((i as i64 * m) / 4).clamp(1, n as i64 - 1);
        let delta = i as i64 * m - j * 4;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)` by nearest rank; `None` below eleven samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = (100.0 * (n - 10) as f64 / n as f64).floor();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    Some((pct, v[rank - 1]))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_dev, point, fs) = (parts.next()?, parts.next()?, parts.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints one metric per line for a human reader.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let v = m.value;
        if v != 0.0 && v.abs() < 1e-3 {
            println!("  {:<28} {:>16.4e} {}", m.name, v, m.unit);
        } else {
            println!("  {:<28} {:>16.6} {}", m.name, v, m.unit);
        }
    }
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
    }

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
