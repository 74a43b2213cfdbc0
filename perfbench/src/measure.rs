//! Small measurement helpers: order statistics, process memory, the
//! metric list the run prints, and the machine calibration loop.

use std::time::Instant;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// This process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// This process's current resident set (`VmRSS`), in KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Renders samples for the log.
pub fn list(v: &[f64]) -> String {
    v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
}

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The `metrics` object of the result line. Values keep every digit
    /// Rust's shortest round-trip formatting gives them.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// A two-column table for people.
    pub fn table(&self, title: &str) -> String {
        let mut s = format!("{title}\n");
        for (name, value, unit) in &self.0 {
            s.push_str(&format!("  {name:<32} {value:>16.6} {unit}\n"));
        }
        s.pop();
        s
    }
}

/// Iterations of the calibration loop.
const CALIBRATION_STEPS: u64 = 2_000_000_000;
/// Calibration rounds; medians are reported.
const CALIBRATION_ROUNDS: usize = 3;

/// A fixed integer loop: the unit of the machine calibration.
fn calibration_loop() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..CALIBRATION_STEPS {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    secs(start)
}

/// Runs the calibration loop alone, then as two concurrent copies, and
/// renders the result as the `machine` JSON block. Two copies taking about
/// twice the solo time means the machine delivers about one core.
pub fn calibrate() -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut solo: Vec<f64> = (0..CALIBRATION_ROUNDS).map(|_| calibration_loop()).collect();
    let mut pair: Vec<f64> = (0..CALIBRATION_ROUNDS)
        .map(|_| {
            std::thread::scope(|s| {
                let copies: Vec<_> = (0..2).map(|_| s.spawn(calibration_loop)).collect();
                copies
                    .into_iter()
                    .map(|c| c.join().expect("calibration thread"))
                    .fold(0.0, f64::max)
            })
        })
        .collect();
    let (solo, pair) = (median(&mut solo), median(&mut pair));
    format!(
        "{{\"available_parallelism\": {parallelism}, \"calibration\": {{\"loop\": \
         \"{CALIBRATION_STEPS} rotate-xor-multiply steps\", \"rounds\": {CALIBRATION_ROUNDS}, \
         \"solo_s\": {solo:.3}, \"two_concurrent_s\": {pair:.3}, \"effective_cores\": {:.2}}}}}",
        2.0 * solo / pair
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn metrics_render_as_json_with_units() {
        let mut m = Metrics::default();
        m.add("replay_s", 1.25, "s");
        m.add("bad", f64::NAN, "s");
        assert_eq!(m.get("replay_s"), Some(1.25));
        assert_eq!(
            m.json(),
            "{\"replay_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn status_fields_parse() {
        let rss = rss_kb();
        assert!(rss > 0);
        assert!(peak_rss_kb() >= rss);
    }
}
