//! Statistics, reply checks, failure tallies and the result line.

use recurs_net::client::{classify, ReplyKind};
use recurs_net::proto::json_u64_field;
use std::collections::BTreeSet;

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics. `NaN` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The reply was well-formed but its answers or version were wrong.
    WrongAnswer,
    /// Shed by admission (`"type":"overloaded"`).
    Shed,
    /// The request's deadline expired server-side.
    Deadline,
    /// Any other `"ok":false` reply.
    Error,
    /// The connection failed: no reply frame.
    Transport,
}

/// Operation counts by outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub wrong_answer: u64,
    pub shed: u64,
    pub deadline: u64,
    pub error: u64,
    pub transport: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {}
            Err(Failure::WrongAnswer) => self.wrong_answer += 1,
            Err(Failure::Shed) => self.shed += 1,
            Err(Failure::Deadline) => self.deadline += 1,
            Err(Failure::Error) => self.error += 1,
            Err(Failure::Transport) => self.transport += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.wrong_answer + self.shed + self.deadline + self.error + self.transport
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"attempted\":{},\"failed\":{},\"wrong_answer\":{},\"shed\":{},\"deadline\":{},\"error\":{},\"transport\":{}}}",
            self.attempted,
            self.failed(),
            self.wrong_answer,
            self.shed,
            self.deadline,
            self.error,
            self.transport
        )
    }
}

/// Maps a reply's failure taxonomy onto [`Failure`]; `Ok` for `"ok":true`.
pub fn reply_status(reply: &str) -> Result<(), Failure> {
    match classify(reply) {
        ReplyKind::Ok => Ok(()),
        ReplyKind::Overloaded { .. } => Err(Failure::Shed),
        ReplyKind::Deadline => Err(Failure::Deadline),
        ReplyKind::Error => Err(Failure::Error),
    }
}

/// The raw `"answers":[...]` array of an answers reply.
pub fn answers_slice(reply: &str) -> Option<&str> {
    let start = reply.find("\"answers\":[")? + "\"answers\":".len();
    let mut depth = 0usize;
    for (i, c) in reply[start..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&reply[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The answer set of a `P(k, y)` reply: each row is `["<number>"]`.
pub fn answer_set(reply: &str) -> Option<BTreeSet<u64>> {
    let slice = answers_slice(reply)?;
    let mut out = BTreeSet::new();
    for part in slice.split('"').skip(1).step_by(2) {
        out.insert(part.parse().ok()?);
    }
    (json_u64_field(reply, "count")? == out.len() as u64).then_some(out)
}

/// Peak resident set of this process in MB (`VmHWM`), which hosts the
/// server. `NaN` where `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the host facts and operation counts, then the result object as
/// the last line of standard output.
pub fn print_result(correct: bool, tally: &Tally, metrics: &[Metric]) {
    println!(
        "host {{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT")
    );
    println!("ops {}", tally.json());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed(),
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-9);
    }

    #[test]
    fn answer_sets_parse_and_check_the_count() {
        let r = r#"{"ok":true,"type":"answers","query":"P(1, y)","count":2,"answers":[["3"],["12"]],"stats":{"answers":2}}"#;
        assert_eq!(answers_slice(r), Some(r#"[["3"],["12"]]"#));
        assert_eq!(answer_set(r), Some(BTreeSet::from([3, 12])));
        let bad = r.replace("\"count\":2", "\"count\":3");
        assert_eq!(answer_set(&bad), None);
        let empty = r#"{"ok":true,"count":0,"answers":[],"stats":{}}"#;
        assert_eq!(answer_set(empty), Some(BTreeSet::new()));
    }

    #[test]
    fn reply_status_follows_the_reply_taxonomy() {
        assert_eq!(reply_status(r#"{"ok":true,"type":"answers"}"#), Ok(()));
        assert_eq!(
            reply_status(r#"{"ok":false,"type":"overloaded","retry_after_ms":5}"#),
            Err(Failure::Shed)
        );
        assert_eq!(
            reply_status(r#"{"ok":false,"type":"deadline"}"#),
            Err(Failure::Deadline)
        );
        assert_eq!(
            reply_status(r#"{"ok":false,"error":"x"}"#),
            Err(Failure::Error)
        );
    }
}
