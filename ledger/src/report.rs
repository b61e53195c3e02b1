//! Metric lines, the result summary, sample statistics and the process
//! counters (resident memory, CPU time) read from `/proc/self`.

use crate::check::Tally;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// JSON number with every digit `f64` carries. A non-finite value has no
/// JSON form; it is printed as 0 and flagged on stderr.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("ledger: non-finite metric value {v}");
        "0".to_string()
    }
}

/// The ledger line of one metric.
pub fn line(workload: &str, m: &Metric) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
        m.name,
        number(m.value),
        m.unit,
        m.samples
    )
}

/// The final result line.
pub fn summary(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn status_kib(key: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let l = s.lines().find(|l| l.starts_with(key))?;
    l[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Reset the resident high-water mark (`VmHWM`) to the current resident
/// size and return that size in KiB: the baseline of
/// [`peak_growth_mib`]. Where the reset is refused the mark stays as it
/// was, which can only inflate the growth reported later.
pub fn reset_peak() -> f64 {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_kib("VmRSS:").unwrap_or(0.0)
}

/// Peak resident growth (MiB) since [`reset_peak`] returned `base_kib`.
pub fn peak_growth_mib(base_kib: f64) -> f64 {
    (status_kib("VmHWM:").unwrap_or(0.0) - base_kib) / 1024.0
}

/// User plus system CPU seconds of this process, every thread included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // utime and stime are fields 14 and 15 of the line, in clock ticks of
    // 1/100 s; the tokens after the parenthesized command name start at
    // field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_shape() {
        let m = [Metric::new("setup_s", 0.5, "s", 3)];
        let s = summary(
            true,
            Tally {
                attempted: 2,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
