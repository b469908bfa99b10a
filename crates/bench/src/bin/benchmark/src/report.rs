//! Summaries, the saved result-set format, `--compare`, and the Chrome
//! trace writer.

use crate::replay::Span;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Quartiles of a sample set the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// exclusive method), so spreads match that tool; one value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// One metric's samples on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stat {
    pub unit: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Stat {
    pub fn new(unit: &str, samples: Vec<f64>) -> Self {
        let (q1, median, q3) = quartiles(&samples);
        Stat {
            unit: unit.into(),
            median,
            q1,
            q3,
            samples,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One workload's results in a saved set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub end_to_end: BTreeMap<String, Stat>,
    pub per_layer: BTreeMap<String, Stat>,
    /// Output-check failures; empty when every check passed.
    pub problems: Vec<String>,
}

/// A full run over every workload, as `--out` saves it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSet {
    pub seed: u64,
    pub smoke: bool,
    pub cpus: usize,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// A metric's regression rule from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v: serde::Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let list = v
        .get("end_to_end")
        .and_then(|l| l.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(|x| x.as_str())
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(|x| x.as_str())
                .ok_or("metric without 'better'")?;
            let bound = match m.get("bound") {
                Some(serde::Value::Float(b)) => *b,
                Some(serde::Value::UInt(b)) => *b as f64,
                _ => return Err(format!("metric {name} has no numeric bound")),
            };
            Ok(Bound {
                name: name.into(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// How a metric moved from one set to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Classifies one (workload, metric) pair. A median worse by more than
/// the bound regresses; spread wider than the bound leaves the pair
/// unresolved unless every new sample beats every base sample; a gain
/// counts only when the new median beats the base by more than the
/// base's own spread and nine in ten sample pairs favour the new set.
pub fn classify(base: &Stat, new: &Stat, bound: f64, lower_is_better: bool) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    // Positive = worse, as a share of the base median.
    let worse_by = if base.median == 0.0 {
        if new.median == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        sign * (new.median - base.median) / base.median.abs()
    };
    let better = |n: f64, b: f64| sign * (n - b) < 0.0;
    let all_better = new
        .samples
        .iter()
        .all(|&n| base.samples.iter().all(|&b| better(n, b)));
    let pairs = new.samples.len() * base.samples.len();
    let wins = new
        .samples
        .iter()
        .map(|&n| base.samples.iter().filter(|&&b| better(n, b)).count())
        .sum::<usize>();
    if base.spread().max(new.spread()) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if all_better || (-worse_by > base.spread() && wins * 10 >= pairs * 9 && pairs > 0) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `--compare`: prints one verdict per (workload, end-to-end metric) and
/// returns false when any regressed.
pub fn compare(benchmark_json: &str, base: &RunSet, new: &RunSet) -> Result<bool, String> {
    let bounds = bounds(benchmark_json)?;
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "change", "bound"
    );
    for (w, b) in &base.workloads {
        let Some(n) = new.workloads.get(w) else {
            println!("{w:<14} missing from the new set");
            ok = false;
            continue;
        };
        for rule in &bounds {
            let (Some(bs), Some(ns)) = (b.end_to_end.get(&rule.name), n.end_to_end.get(&rule.name))
            else {
                continue;
            };
            let verdict = classify(bs, ns, rule.bound, rule.lower_is_better);
            ok &= verdict != Verdict::Regressed;
            let change = if bs.median == 0.0 {
                0.0
            } else {
                ns.median / bs.median - 1.0
            };
            println!(
                "{w:<14} {:<14} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {verdict:?}",
                rule.name,
                bs.median,
                ns.median,
                100.0 * change,
                100.0 * rule.bound
            );
        }
    }
    Ok(ok)
}

/// Writes replay spans as Chrome trace-event JSON: one lane per
/// workload, with the plan index and replication as span arguments.
pub fn write_chrome_trace(path: &str, lanes: &[(&str, &[Span])]) -> Result<(), String> {
    let mut events: Vec<String> = Vec::new();
    for (tid, (name, spans)) in lanes.iter().enumerate() {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":{}}}}}"#,
            serde_json::to_string(name).map_err(|e| e.to_string())?
        ));
        for s in spans.iter() {
            let mut args = Vec::new();
            if let Some(p) = s.point {
                args.push(format!(r#""point":{p}"#));
            }
            if let Some(r) = s.rep {
                args.push(format!(r#""rep":{r}"#));
            }
            events.push(format!(
                r#"{{"name":"{}","ph":"X","pid":1,"tid":{tid},"ts":{:.3},"dur":{:.3},"args":{{{}}}}}"#,
                s.name,
                s.start_s * 1e6,
                s.dur_s * 1e6,
                args.join(",")
            ));
        }
    }
    let text = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}
