//! Result records, order statistics and the two output lines.

use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_owned(), value, unit));
    }

    fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.0 {
            self.set(&name, value, unit);
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// What one run measured and checked.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (devices simulated, or commands sent).
    pub attempted: u64,
    /// Operations that failed (see the README for each workload).
    pub failed: u64,
    /// The metrics named in `BENCHMARK.json` for this run's mode.
    pub metrics: Metrics,
    /// The same measurements under their path-specific names
    /// (`devices_per_s`, `ack_write_p50_us`, ...), plus extras.
    pub named: Metrics,
    /// Output checks: name and verdict.
    pub checks: Vec<(String, String)>,
}

impl Outcome {
    /// Records a check; a failing one makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            self.correct = false;
        }
        let verdict = if ok { "ok" } else { "FAILED" };
        self.checks
            .push((name.to_owned(), format!("{verdict}: {detail}")));
    }

    /// Merges another traced half into this one.
    pub fn absorb(self, other: Outcome) -> Outcome {
        let mut merged = self;
        merged.correct &= other.correct;
        merged.attempted += other.attempted;
        merged.failed += other.failed;
        merged.metrics.extend(other.metrics);
        merged.named.extend(other.named);
        merged.checks.extend(other.checks);
        merged
    }
}

/// Formats a finite number with all its digits; non-finite values (which
/// JSON cannot carry) print as `null`, which no consumer takes for a number.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Prints the detail line, then the result line (always the last line).
pub fn print(workload: &str, seed: u64, trace: bool, outcome: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, verdict)| format!("\"{}\": \"{}\"", escape(name), escape(verdict)))
        .collect();
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"baseline_seed\": {}, \"held_out_seed\": {}, \
         \"machine\": {{\"nproc\": {nproc}, \"cpu\": \"{}\"}}, \
         \"named\": {}, \"checks\": {{{}}}}}",
        crate::BASELINE_SEED,
        crate::HELD_OUT_SEED,
        escape(&cpu_model()),
        outcome.named.json(),
        checks.join(", "),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
}

/// The median of `samples` (sorts them).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The nearest-rank `q`-quantile of `samples` (sorts them); NaN when
/// there are none.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MB, of `pid` or of this
/// process when `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}
