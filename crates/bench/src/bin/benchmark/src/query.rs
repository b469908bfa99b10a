//! One WTQL script run the way the `wtql` CLI runs it: parse, run the
//! query, render the verdict table, print the store report. Shared by
//! the timed cold samples and by the serial reference the replay checks
//! against, plus the output checks both are held to.

use std::io::Write;
use std::time::Instant;
use windtunnel::prelude::*;
use windtunnel::report::Table;
use wt_wtql::{parse_script, run_query, store_stats, ExecOptions, Query, QueryOutcome, Statement};

/// A finished script run.
pub struct ScriptRun {
    pub query: Query,
    pub outcome: QueryOutcome,
    /// Wall time from parsing to the store report printed.
    pub query_s: f64,
    /// User+system CPU time of the whole process over the same interval.
    pub query_cpu_s: f64,
}

/// Runs a script holding exactly one query (plus any `STATS`) on
/// `workers` farm threads, writing what the CLI would print to `out`.
pub fn run_script(
    script: &str,
    base: &Scenario,
    tunnel: &WindTunnel,
    workers: usize,
    out: &mut dyn Write,
) -> Result<ScriptRun, String> {
    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let statements = parse_script(script).map_err(|e| e.to_string())?;
    let mut ran: Option<(Query, QueryOutcome)> = None;
    for stmt in statements {
        let text = match stmt {
            Statement::Stats => store_stats(tunnel.store()),
            Statement::Query(query) => {
                if ran.is_some() {
                    return Err("benchmark scripts hold exactly one query".into());
                }
                let mut opts = ExecOptions::from_query(&query);
                opts.threads = workers;
                let outcome = run_query(&query, base, tunnel, &opts).map_err(|e| e.to_string())?;
                let text = render(&query, &outcome);
                ran = Some((query, outcome));
                text
            }
        };
        out.write_all(text.as_bytes()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    let query_s = t0.elapsed().as_secs_f64();
    let query_cpu_s = cpu_seconds()? - cpu0;
    let (query, outcome) = ran.ok_or("script holds no query")?;
    Ok(ScriptRun {
        query,
        outcome,
        query_s,
        query_cpu_s,
    })
}

/// The verdict table and summary lines, as the `wtql` CLI prints them.
pub fn render(query: &Query, outcome: &QueryOutcome) -> String {
    let axes: Vec<&str> = query.sweeps.iter().map(|a| a.param.as_str()).collect();
    let mut headers = axes.clone();
    headers.extend(query.explore.iter().map(String::as_str));
    headers.push("status");
    let mut table = Table::new(&headers);
    for row in &outcome.rows {
        let mut cells: Vec<String> = row.assignment.iter().map(|(_, v)| v.to_string()).collect();
        for m in &query.explore {
            cells.push(row.metrics.get(m).map_or("-".into(), |v| format!("{v:.6}")));
        }
        let status = if row.pruned {
            "pruned"
        } else if row.screened {
            if row.passes {
                "PASS*"
            } else {
                "fail*"
            }
        } else if row.aborted {
            "aborted"
        } else if row.passes {
            if row.early_stopped {
                "PASS~"
            } else {
                "PASS"
            }
        } else if query.constraints.is_empty() {
            "done"
        } else if row.early_stopped {
            "fail~"
        } else {
            "fail"
        };
        cells.push(status.into());
        table.row(cells);
    }
    let mut text = table.render();
    text.push_str(&format!(
        "\nexecuted {} | pruned {} | screened {} | aborted {} | early-stopped {} | {} sim events\n",
        outcome.executed,
        outcome.pruned,
        outcome.screened,
        outcome.aborted,
        outcome.early_stopped,
        outcome.total_sim_events,
    ));
    if let Some(best) = outcome.best_row() {
        let desc: Vec<String> = best
            .assignment
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        text.push_str(&format!("best: {}\n", desc.join(", ")));
    } else if query.objective.is_some() {
        text.push_str("best: none (no configuration satisfied the constraints)\n");
    }
    text
}

/// FNV-1a over the verdict table in canonical form: one line per row
/// with its axes sorted by name, its pass/prune/screen/abort/early-stop
/// flags and the bits of every metric, lines sorted, then the objective
/// value of the best row. Axis order and plan order do not change it, so
/// every permutation of a workload's query must give the same digest;
/// any other difference means the verdicts are not bit-identical.
pub fn digest(query: &Query, outcome: &QueryOutcome) -> String {
    let mut lines: Vec<String> = outcome
        .rows
        .iter()
        .map(|row| {
            let mut axes: Vec<String> = row
                .assignment
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            axes.sort();
            let flags = [
                row.passes,
                row.pruned,
                row.screened,
                row.aborted,
                row.early_stopped,
            ];
            let mut line = format!("{} {:?}", axes.join(","), flags.map(u8::from));
            for (k, v) in &row.metrics {
                line.push_str(&format!(" {k}={:016x}", v.to_bits()));
            }
            line
        })
        .collect();
    lines.sort();
    let best = outcome
        .best_row()
        .zip(query.objective.as_ref())
        .and_then(|(row, o)| row.metrics.get(&o.metric))
        .map_or("best none".to_string(), |v| {
            format!("best {:016x}", v.to_bits())
        });
    lines.push(best);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.join("\n").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Rows that errored: not pruned, screened or aborted, and without
/// metrics.
pub fn failed_rows(outcome: &QueryOutcome) -> usize {
    outcome
        .rows
        .iter()
        .filter(|r| !r.pruned && !r.screened && !r.aborted && r.metrics.is_empty())
        .count()
}

/// Engine events over every record the store holds. Unlike
/// `QueryOutcome::total_sim_events`, this counts perf-engine runs too.
pub fn store_events(tunnel: &WindTunnel) -> u64 {
    tunnel.store().with(|s| {
        s.records()
            .filter_map(|r| r.telemetry.as_ref())
            .map(|t| t.events)
            .sum()
    })
}

/// True when no perf-engine record reached the store, so the outcome's
/// own event total is complete and must equal [`store_events`].
pub fn availability_only(tunnel: &WindTunnel) -> bool {
    tunnel
        .store()
        .with(|s| s.records().all(|r| !r.experiment.starts_with("perf")))
}

/// User+system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name: state is first, so
    // utime and stime (fields 14 and 15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // Linux reports these in USER_HZ, which is 100 on every platform the
    // kernel ABI supports.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
