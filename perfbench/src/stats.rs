//! Order statistics for latency samples.

/// A copy of `xs`, sorted ascending (total order, so NaN cannot panic).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; the mean of the two middle values for even counts.
/// Zero for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Smallest of `xs`; infinite for an empty slice, so a run with no
/// sample reports the metric as unmeasured.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value, the percentile it sits at, and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Percentile in 0..=100; 100 when the slowest sample is reported.
    pub pct: f64,
    pub n: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the 11th-largest sample, at percentile `100 * (n - 10) / n` (p99.5 of
/// 2,000 samples). Below 21 samples that percentile would fall under the
/// median, so the slowest sample is reported instead, at percentile 100.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            pct: 100.0,
            n,
        };
    }
    Tail {
        value: v[n - TAIL_BEYOND - 1],
        pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        n,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
