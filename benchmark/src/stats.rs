//! The benchmark's own arithmetic: order statistics, the overlap share and
//! the physical-bound self-check. Everything here is pure so the unit tests
//! below can pin it down.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Sample count, median and quartiles of one metric's samples — what a
/// report needs so two runs can be compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `samples` (any order). Quartiles use the same "exclusive"
    /// rule as Python's `statistics.quantiles(values, n=4)`.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        let median = quantile(&sorted, 0.5);
        let (q1, q3) = quartiles(&sorted).unwrap_or((median, median));
        Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
        }
    }

    /// A single exact value (a count or a deterministic ratio).
    pub fn exact(v: f64) -> Summary {
        Summary {
            n: 1,
            median: v,
            q1: v,
            q3: v,
        }
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of sorted data; NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// First and third quartile by Python's default ("exclusive") method;
/// `None` below two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0..1) of sorted data, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it — a tail figure resting on a
/// handful of samples is noise, not a measurement.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Typical latency of a mix of op kinds whose latencies differ by up to
/// 20×: the median of each kind, combined as a geometric mean weighted by
/// each kind's share of the samples. The pooled median of such a mix lies
/// where one kind's tail meets the next kind's body, and moves with
/// either; each kind's median lies inside its own mode. `kinds[i]` is the
/// kind of `samples[i]`. `None` when there are no samples, or a kind has
/// fewer than [`MIN_TAIL`] samples beyond its median.
pub fn mix_p50(kinds: &[usize], samples: &[f64]) -> Option<f64> {
    let mut by_kind: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for (&k, &v) in kinds.iter().zip(samples) {
        by_kind.entry(k).or_default().push(v);
    }
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in by_kind.values() {
        log_sum += v.len() as f64 * tail_percentile(&sorted(v), 0.5)?.ln();
        n += v.len();
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Median, over consecutive windows of time-ordered `samples`, of each
/// window's percentile `p`. A window holds just enough samples to leave
/// [`MIN_TAIL`] beyond `p`, and a trailing part window joins the last full
/// one, so one stall moves one window's figure and not the run's. `None`
/// when the samples do not fill a window. Returns the figure and every
/// window's percentile.
pub fn windowed_tail(samples: &[f64], p: f64) -> Option<(f64, Vec<f64>)> {
    let window = (MIN_TAIL as f64 / (1.0 - p)).round() as usize;
    let windows = samples.len() / window.max(1);
    let tails = (0..windows)
        .map(|k| {
            let end = if k + 1 == windows {
                samples.len()
            } else {
                (k + 1) * window
            };
            tail_percentile(&sorted(&samples[k * window..end]), p)
        })
        .collect::<Option<Vec<f64>>>()?;
    (!tails.is_empty()).then(|| (median(&tails), tails))
}

/// Share (0–100) of the shorter of two activities hidden behind the longer
/// one, measured from outside: the two ran for `a` and `b` on their own and
/// `wall` together. Anything the clock says beyond the bounds is noise.
pub fn hidden_pct(a: f64, b: f64, wall: f64) -> f64 {
    let shorter = a.min(b);
    if shorter.is_nan() || shorter <= 0.0 {
        return 0.0;
    }
    (100.0 * (a + b - wall) / shorter).clamp(0.0, 100.0)
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit, and
/// fit in 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Physical-bound violations among `(name, unit, value)` records: a
/// non-finite value, a percentage outside 0–100, or a rate above what the
/// same run's memcpy achieves. Returns one message per violation.
pub fn bound_violations(records: &[(String, &str, f64)], memcpy_gbps: f64) -> Vec<String> {
    let mut out = Vec::new();
    for (name, unit, v) in records {
        if !v.is_finite() {
            out.push(format!("{name} is not finite ({v})"));
        } else if (name.ends_with("_pct") || *unit == "%") && !(0.0..=100.0).contains(v) {
            out.push(format!("{name} = {v} lies outside 0-100"));
        } else if *unit == "MB/s" && *v > memcpy_gbps * 1000.0 {
            out.push(format!(
                "{name} = {v} MB/s exceeds this run's memcpy ({memcpy_gbps} GB/s)"
            ));
        }
        if !valid_name(name) {
            out.push(format!("metric name {name:?} is malformed"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, exactly ten beyond.
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        // p99 of 200 would leave two beyond.
        assert_eq!(tail_percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
        // Median of 21: rank 11, ten beyond.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), Some(11.0));
    }

    #[test]
    fn mix_p50_weights_each_kind_median_by_its_share() {
        // Kind 0: three in four samples, median 1; kind 1: median 16.
        let mut kinds = vec![0; 63];
        kinds.extend([1; 21]);
        let samples: Vec<f64> = (0..63)
            .map(|i| f64::from(i % 3))
            .chain((0..21).map(|i| 6.0 + f64::from(i)))
            .collect();
        let p50 = mix_p50(&kinds, &samples).unwrap();
        assert!((p50 - 16f64.powf(0.25)).abs() < 1e-12, "{p50}");
        // The pooled median lies inside kind 0 and ignores kind 1.
        assert_eq!(median(&samples), 1.5);
        // Too few samples of a kind to place its median.
        assert_eq!(mix_p50(&kinds[..82], &samples[..82]), None);
        assert_eq!(mix_p50(&[], &[]), None);
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three windows of 1000; the middle one holds a stall.
        let mut v: Vec<f64> = (0..3200).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        let (p99, tails) = windowed_tail(&v, 0.99).unwrap();
        // 3200 samples: windows of 1000, 1000 and 1200.
        assert_eq!(tails.len(), 3);
        assert_eq!(tails[1], 1e6);
        assert_eq!(p99, tails[0].max(tails[2]).min(tails[1]));
        assert!(p99 < 1000.0);
        assert_eq!(windowed_tail(&v[..999], 0.99), None);
        assert_eq!(windowed_tail(&v[..1000], 0.99).unwrap().1.len(), 1);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), None);
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.median), (3, 2.0));
    }

    #[test]
    fn hidden_pct_is_bounded() {
        // Perfect overlap: wall equals the longer activity.
        assert_eq!(hidden_pct(2.0, 1.0, 2.0), 100.0);
        // No overlap: wall is the sum.
        assert_eq!(hidden_pct(2.0, 1.0, 3.0), 0.0);
        assert_eq!(hidden_pct(2.0, 1.0, 2.5), 50.0);
        // Clock noise past either end is clamped, never published.
        assert_eq!(hidden_pct(2.0, 1.0, 1.5), 100.0);
        assert_eq!(hidden_pct(2.0, 1.0, 4.0), 0.0);
        assert_eq!(hidden_pct(0.0, 1.0, 1.0), 0.0);
        for wall in [0.0, 0.3, 1.0, 2.2, 9.0] {
            let h = hidden_pct(1.7, 0.4, wall);
            assert!((0.0..=100.0).contains(&h), "{h}");
        }
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "write_mbps",
            "pipeline.deflate.compress_ms",
            "host.crc32_mbps",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "a:b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn bound_check_flags_impossible_records() {
        let rec = |n: &str, u: &'static str, v: f64| (n.to_string(), u, v);
        let ok = [
            rec("read_mbps", "MB/s", 900.0),
            rec("archive.hidden_pct", "%", 42.0),
        ];
        assert!(bound_violations(&ok, 5.0).is_empty());
        // A stage that never ran must not turn into a huge rate.
        assert_eq!(
            bound_violations(&[rec("x_mbps", "MB/s", 1.68e10)], 5.0).len(),
            1
        );
        assert_eq!(
            bound_violations(&[rec("overlap_pct", "%", 121.0)], 5.0).len(),
            1
        );
        assert_eq!(
            bound_violations(&[rec("t_ms", "ms", f64::NAN)], 5.0).len(),
            1
        );
        assert_eq!(
            bound_violations(&[rec("bad name", "ms", 1.0)], 5.0).len(),
            1
        );
    }
}
