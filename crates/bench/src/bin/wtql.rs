//! `wtql` — run WTQL what-if queries against the wind tunnel from the
//! command line.
//!
//! ```text
//! wtql <script.wtql | -> [--base scenario.json] [--explain] [--csv out.csv]
//!      [--workers N]
//! wtql --interactive [--base scenario.json] [--workers N]
//! ```
//!
//! * the script is read from the file (or stdin with `-`) and may contain
//!   any number of statements: queries, and `STATS` (print result-store
//!   statistics — a safe no-op on an empty store),
//! * `--interactive` starts a small REPL: end a query with a blank line or
//!   `;`, and use the dot commands (`.stats`, `.help`, `.quit`),
//! * `--base` loads a serialized `windtunnel::Scenario` as the fixed
//!   part of the configuration (defaults: 30-node HDD cluster, 1,000×4 GB
//!   objects, 3 simulated months),
//! * `--stress` swaps in a failure-heavy variant of the default base
//!   (40-day node lifetimes, 5-day failure detection) where analytic
//!   screens and dominance pruning have real work to do — the preset used
//!   by the guided-sweep experiments,
//! * `--explain` prints the optimizer plan and exits without simulating,
//! * `--csv` exports every recorded run for external plotting,
//! * `--workers N` (alias `--threads`) sizes the farm pool `run_query`'s
//!   [`windtunnel::sweep::SweepRunner`] dispatches onto, from 1 to
//!   `MAX_THREADS` (1,024); any other value exits 2.
//!   stdout is byte-identical for any worker count (with `prune = FALSE`);
//!   wall-clock timing goes to stderr.
//!
//! All statements in one invocation share a single result store, so a
//! trailing `STATS` reports on everything the script ran.

use std::io::{BufRead as _, Read as _, Write as _};
use windtunnel::prelude::*;
use wt_bench::Table;
use wt_wtql::{
    parse_script, run_query, store_stats, Assignment, ExecOptions, Plan, Query, Statement,
};

fn usage() -> ! {
    eprintln!(
        "usage: wtql <script.wtql | -> [--base scenario.json | --stress] [--explain] \
         [--csv out.csv] [--workers N]\n       wtql --interactive \
         [--base scenario.json | --stress] [--workers N]"
    );
    std::process::exit(2);
}

/// Reports an input that cannot be read or decoded as
/// `wtql: <path>: <error>` on stderr and exits 2, as [`usage`] does.
fn input_error(path: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("wtql: {path}: {err}");
    std::process::exit(2);
}

fn default_base() -> Scenario {
    ScenarioBuilder::new("wtql-base")
        .racks(3)
        .nodes_per_rack(10)
        .objects(1_000)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(42)
        .build()
}

/// The failure-heavy preset behind `--stress`: same 30-node cluster, but
/// nodes live ~40 days (Weibull, infant-mortality shape) and failures take
/// five days to detect. Expected failures over the quarter ≈ 68, which is
/// enough signal for the analytic availability screens to resolve weak
/// redundancy configurations without simulation.
fn stress_base() -> Scenario {
    let mut sc = default_base();
    sc.name = "wtql-stress".into();
    sc.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
    sc.repair.detection_delay_s = 5.0 * 86_400.0;
    sc
}

/// One configuration as `axis=value, ...`.
fn describe(assignment: &Assignment) -> String {
    let pairs: Vec<String> = assignment.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.join(", ")
}

/// Parses, plans and runs one query, printing the plan, the results table
/// and the summary line. Returns false when the query failed.
fn execute_query(query: &Query, base: &Scenario, tunnel: &WindTunnel, threads: usize) -> bool {
    let plan = match Plan::build(query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    println!("{}", plan.explain(query));

    let mut opts = ExecOptions::from_query(query);
    if threads > 1 {
        opts.threads = threads;
    }
    let t0 = std::time::Instant::now();
    let outcome = match run_query(query, base, tunnel, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let wall = t0.elapsed();

    // Results table: swept axes, then explored metrics, then the verdict.
    let axis_names: Vec<String> = query.sweeps.iter().map(|a| a.param.clone()).collect();
    let mut headers: Vec<&str> = axis_names.iter().map(String::as_str).collect();
    let metric_names = query.explore.clone();
    headers.extend(metric_names.iter().map(String::as_str));
    headers.push("status");
    let mut table = Table::new(&headers);
    for row in &outcome.rows {
        let mut cells: Vec<String> = row.assignment.iter().map(|(_, v)| v.to_string()).collect();
        for m in &metric_names {
            cells.push(
                row.metrics
                    .get(m)
                    .map(|v| format!("{v:.6}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        cells.push(
            if row.pruned {
                "pruned"
            } else if row.rejected.is_some() {
                // The scenario could not be built; the reason goes to stderr.
                "rejected"
            } else if row.screened {
                // Resolved analytically, no simulation behind this row.
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
            }
            .into(),
        );
        table.row(cells);
    }
    table.print();
    for row in &outcome.rows {
        if let Some(reason) = &row.rejected {
            eprintln!("rejected {}: {reason}", describe(&row.assignment));
        }
    }

    println!();
    println!(
        "executed {} | pruned {} | screened {} | aborted {} | early-stopped {} | {} sim events",
        outcome.executed,
        outcome.pruned,
        outcome.screened,
        outcome.aborted,
        outcome.early_stopped,
        outcome.total_sim_events,
    );
    eprintln!("{:.2}s wall", wall.as_secs_f64());
    if let Some(best) = outcome.best_row() {
        println!("best: {}", describe(&best.assignment));
    } else if query.objective.is_some() {
        println!("best: none (no configuration satisfied the constraints)");
    }
    true
}

/// Runs every statement in a script against a shared tunnel. `STATS`
/// statements print store statistics (safe anywhere, including first).
/// Returns false if any query failed.
fn execute_script(text: &str, base: &Scenario, tunnel: &WindTunnel, threads: usize) -> bool {
    let statements = match parse_script(text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let mut ok = true;
    for stmt in &statements {
        match stmt {
            Statement::Stats => print!("{}", store_stats(tunnel.store())),
            Statement::Query(q) => ok &= execute_query(q, base, tunnel, threads),
        }
    }
    ok
}

const REPL_HELP: &str = "\
WTQL interactive mode. Statements run against one shared result store.
  <query>     end with a blank line (or a line ending in ';') to run
  STATS       print result-store statistics (also works inside scripts)
  .stats      same as STATS
  .help       this text
  .quit       exit (also .exit or ctrl-d)";

/// The interactive loop: dot commands run immediately; query text
/// accumulates until a blank line or a trailing `;` submits it.
fn repl(base: &Scenario, tunnel: &WindTunnel, threads: usize) {
    println!("{REPL_HELP}");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let submit = |buffer: &mut String| {
        let text = buffer.trim().trim_end_matches(';').to_string();
        buffer.clear();
        if !text.is_empty() {
            execute_script(&text, base, tunnel, threads);
        }
    };
    loop {
        print!(
            "{}",
            if buffer.is_empty() {
                "wtql> "
            } else {
                "  ... "
            }
        );
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        match trimmed {
            ".quit" | ".exit" => break,
            ".help" => println!("{REPL_HELP}"),
            ".stats" => print!("{}", store_stats(tunnel.store())),
            "" => submit(&mut buffer),
            _ => {
                buffer.push_str(&line);
                if trimmed.ends_with(';') {
                    submit(&mut buffer);
                }
            }
        }
    }
    submit(&mut buffer);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut query_path: Option<String> = None;
    let mut base_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut explain_only = false;
    let mut interactive = false;
    let mut stress = false;
    let mut threads = 1usize;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--base" => base_path = Some(it.next().unwrap_or_else(|| usage())),
            "--stress" => stress = true,
            "--csv" => csv_path = Some(it.next().unwrap_or_else(|| usage())),
            "--workers" | "--threads" => {
                match wt_bench::knobs::parse_count(&arg, it.next().as_deref()) {
                    Ok(Some(n)) => threads = n,
                    Ok(None) => usage(),
                    Err(reason) => {
                        eprintln!("wtql: {reason}");
                        std::process::exit(2);
                    }
                }
            }
            "--explain" => explain_only = true,
            "--interactive" | "-i" => interactive = true,
            _ if query_path.is_none() => query_path = Some(arg),
            _ => usage(),
        }
    }

    let base = match &base_path {
        Some(_) if stress => usage(),
        Some(p) => {
            let json = std::fs::read_to_string(p).unwrap_or_else(|e| input_error(p, e));
            serde_json::from_str(&json)
                .unwrap_or_else(|e| input_error(p, format_args!("bad scenario: {e}")))
        }
        None if stress => stress_base(),
        None => default_base(),
    };
    let tunnel = WindTunnel::new();

    if interactive {
        if query_path.is_some() || explain_only || csv_path.is_some() {
            usage();
        }
        repl(&base, &tunnel, threads);
        return;
    }

    let query_path = query_path.unwrap_or_else(|| usage());
    let text = if query_path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            input_error("-", e);
        }
        buf
    } else {
        std::fs::read_to_string(&query_path).unwrap_or_else(|e| input_error(&query_path, e))
    };

    if explain_only {
        match parse_script(&text) {
            Ok(stmts) => {
                for stmt in &stmts {
                    if let Statement::Query(q) = stmt {
                        match Plan::build(q) {
                            Ok(p) => println!("{}", p.explain(q)),
                            Err(e) => {
                                eprintln!("{e}");
                                std::process::exit(1);
                            }
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if !execute_script(&text, &base, &tunnel, threads) {
        std::process::exit(1);
    }

    if let Some(path) = csv_path {
        let csv = tunnel.store().with(|s| {
            let mut out = String::new();
            for exp in ["availability", "perf"] {
                let part = s.export_csv(exp);
                if part.lines().count() > 1 {
                    out.push_str(&part);
                }
            }
            out
        });
        std::fs::write(&path, csv).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("recorded runs exported to {path}");
    }
}
