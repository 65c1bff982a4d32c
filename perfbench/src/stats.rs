//! Percentiles, the metric-name rule, the trajectory checksum and the
//! result line.

use std::fmt::Write as _;

/// Fewest samples a reported tail percentile must leave beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) and how many samples lie
/// beyond its rank.
pub fn nearest_rank(values: &[f64], q: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The nearest-rank `q`-quantile, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (the tail is not resolved).
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let (value, beyond) = nearest_rank(values, q);
    (beyond >= MIN_TAIL_SAMPLES).then_some(value)
}

/// Fewest samples for which [`tail`] resolves the `q`-quantile.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| nearest_rank(&vec![0.0; n], q).1 >= MIN_TAIL_SAMPLES)
        .expect("some sample count resolves the tail")
}

/// Median of the last quarter over median of the first quarter.
pub fn late_over_early(values: &[f64]) -> f64 {
    let q = values.len() / 4;
    assert!(q > 0, "need at least 4 samples");
    median(&values[values.len() - q..]) / median(&values[..q])
}

/// Whether `name` obeys the metric-name rule: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An order-sensitive FNV-1a digest of tick records — the same digest
/// `ShardedTestbed::checksum` computes, extended to any list of domains.
pub struct Checksum(u64);

/// The fields of one tick record the checksum covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordKey {
    pub time_ms: u64,
    pub power_w: f64,
    pub frozen: usize,
    pub u_target: f64,
    pub violation: bool,
    pub placed_jobs: u64,
    pub mean_freq: f64,
}

impl RecordKey {
    pub fn of(r: &ampere_experiments::DomainTickRecord) -> Self {
        Self {
            time_ms: r.time.as_millis(),
            power_w: r.power_w,
            frozen: r.frozen,
            u_target: r.u_target,
            violation: r.violation,
            placed_jobs: r.placed_jobs,
            mean_freq: r.mean_freq,
        }
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Digests `domains` in order: each domain's index, then its records.
    pub fn of_domains<I, R>(domains: I) -> u64
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = RecordKey>,
    {
        let mut h = Self::default();
        for (i, records) in domains.into_iter().enumerate() {
            h.mix(i as u64);
            for r in records {
                h.mix(r.time_ms);
                h.mix(r.power_w.to_bits());
                h.mix(r.frozen as u64);
                h.mix(r.u_target.to_bits());
                h.mix(u64::from(r.violation));
                h.mix(r.placed_jobs);
                h.mix(r.mean_freq.to_bits());
            }
        }
        h.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A named pass/fail output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Formats the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(m.name), "bad metric name {:?}", m.name);
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_p90_counts_the_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.9), (90.0, 10));
        assert_eq!(nearest_rank(&v, 0.5), (50.0, 50));
        let v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.9), (91.0, 10));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), Some(90.0));
        assert_eq!(
            tail(&v[..99], 0.9),
            None,
            "99 samples leave only 9 beyond p90"
        );
        assert_eq!(tail(&[], 0.9), None);
        assert_eq!(min_samples_for_tail(0.9), 100);
        assert_eq!(min_samples_for_tail(0.99), 1000);
    }

    #[test]
    fn late_over_early_compares_the_outer_quarters() {
        let v = [1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 2.0, 2.0];
        assert_eq!(late_over_early(&v), 2.0);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "tick_p50_ms",
            "setup_s",
            "scheduler.dispatch_us",
            "a-b.c_1",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            "a:b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let r = |t: u64, p: f64| RecordKey {
            time_ms: t,
            power_w: p,
            frozen: 0,
            u_target: 0.0,
            violation: false,
            placed_jobs: 1,
            mean_freq: 1.0,
        };
        let a = Checksum::of_domains([vec![r(1, 1.0), r(2, 2.0)]]);
        let b = Checksum::of_domains([vec![r(2, 2.0), r(1, 1.0)]]);
        let split = Checksum::of_domains([vec![r(1, 1.0)], vec![r(2, 2.0)]]);
        assert_ne!(a, b);
        assert_ne!(a, split);
        assert_eq!(a, Checksum::of_domains([vec![r(1, 1.0), r(2, 2.0)]]));
    }
}
