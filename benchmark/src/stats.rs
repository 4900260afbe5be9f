//! Order statistics and the hand-rolled JSON the result files use (the
//! build is offline: no serde).

/// Median of the samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile `p` in `[0, 1]` of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The highest of p90/p95/p99/p99.9 that still has ten samples beyond
/// it, as `(label, value)`; with fewer than a hundred samples no
/// percentile qualifies and the maximum is reported instead.
pub fn tail(samples: &[f64]) -> (&'static str, f64) {
    let s = sorted(samples);
    for (label, per_mille) in [("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900)] {
        if s.len() * (1000 - per_mille) / 1000 >= 10 {
            return (label, percentile(&s, per_mille as f64 / 1000.0));
        }
    }
    ("max", s.last().copied().unwrap_or(0.0))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the driver measures run-to-run
/// spread with exactly this.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit the measurement has, never NaN/inf.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p99");
        assert_eq!(tail(&v[..100]).0, "p90");
        assert_eq!(tail(&v[..50]), ("max", 49.0));
    }
}
