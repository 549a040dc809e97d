//! `ledger --compare base.jsonl new.jsonl`: applies each end-to-end
//! metric's bound to two sets of result records (one JSON object per line,
//! as `--out` appends them). This is the tool for every before/after.

use crate::json::{self, Json};
use crate::spec::{END_TO_END, WORKLOADS};
use std::fmt::Write as _;

/// Runs per side from which a spread is worth computing.
const MIN_RUNS_FOR_SPREAD: usize = 4;

/// The result records of one file.
pub struct ResultSet {
    records: Vec<Json>,
}

impl ResultSet {
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let records = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, l)| json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultSet { records })
    }

    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Json> {
        self.records
            .iter()
            .filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.of(workload)
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn failed_share(&self, workload: &str) -> f64 {
        let sum = |key: &str| {
            self.of(workload)
                .filter_map(|r| r.get(key)?.as_f64())
                .fold(0.0, |a, b| a + b)
        };
        sum("failed") / sum("attempted").max(1.0)
    }

    fn all_noisy(&self, workload: &str) -> bool {
        let mut runs = self.of(workload).peekable();
        runs.peek().is_some() && runs.all(|r| r.get("noisy").and_then(Json::as_bool) == Some(true))
    }
}

/// The three cut points Python's `statistics.quantiles(values, n=4)` gives
/// (its default, exclusive method) — the rule the driver applies.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (len + 1);
        let j = (pos / 4).clamp(1, len - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    crate::loadgen::median(&mut v)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound: not "unchanged".
    Unresolved,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

fn judge(base: &[f64], new: &[f64], bound: f64) -> Verdict {
    if base.is_empty() || new.is_empty() {
        return Verdict::Missing;
    }
    let wide = |v: &[f64]| v.len() >= MIN_RUNS_FOR_SPREAD && spread(v).is_some_and(|s| s > bound);
    if wide(base) || wide(new) {
        Verdict::Unresolved
    } else if median(new) > median(base) * (1.0 + bound) {
        // Every end-to-end metric is lower-is-better.
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares two result sets; returns the table and whether anything was
/// found worse (or failed where the base did not).
pub fn compare(base: &ResultSet, new: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let (b, n) = (base.values(w.name, def.name), new.values(w.name, def.name));
            let bound = def.bound.unwrap_or(0.0);
            let verdict = judge(&b, &n, bound);
            bad |= verdict == Verdict::Worse;
            let (mb, mn) = (median(&b), median(&n));
            let _ = writeln!(
                out,
                "{:<12} {:<14} {:>12.4} {:>12.4} {:>7.3} {:>6.2}  {} ({}/{} runs)",
                w.name,
                def.name,
                mb,
                mn,
                if mb != 0.0 { mn / mb } else { 0.0 },
                bound,
                verdict.label(),
                b.len(),
                n.len()
            );
        }
        let (fb, fnew) = (base.failed_share(w.name), new.failed_share(w.name));
        let more_failures = fnew > fb;
        bad |= more_failures;
        let _ = writeln!(
            out,
            "{:<12} {:<14} {:>12.6} {:>12.6} {:>7} {:>6}  {}",
            w.name,
            "failed_share",
            fb,
            fnew,
            "",
            "0",
            if more_failures { "worse" } else { "ok" }
        );
        if base.all_noisy(w.name) && new.all_noisy(w.name) {
            let _ = writeln!(
                out,
                "{:<12} every run on both sides was flagged noisy",
                w.name
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&steady, &steady, 0.10), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&steady, &slower, 0.10), Verdict::Worse);
        assert_eq!(judge(&slower, &steady, 0.10), Verdict::Ok);
        let wild = [60.0, 100.0, 140.0, 180.0, 90.0];
        assert_eq!(judge(&steady, &wild, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&steady, &[], 0.10), Verdict::Missing);
        // One run a side has no spread: the ratio decides.
        assert_eq!(judge(&[100.0], &[109.0], 0.10), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[111.0], 0.10), Verdict::Worse);
    }
}
