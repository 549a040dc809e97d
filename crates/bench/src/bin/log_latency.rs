//! Low-latency log path: closed-loop offered-load sweep (DESIGN.md §13).
//!
//! Sweeps K concurrent single-SET submitters. Usage:
//!
//! ```text
//! log_latency [--smoke] [--batches N] [--value-bytes N] [--conns a,b,..]
//!             [--json PATH]
//! ```
//!
//! The interesting comparisons: at K=1 every command must append exactly
//! once; as K grows, `ops/append` rises and the `flush_window` span widens
//! — group commit trading latency for amortization exactly where load
//! exists to amortize over.

use memorydb_bench::log_latency::{run, single_append_problems, to_json, LogLatencyParams};
use memorydb_bench::output::{kops, results_dir, Table};

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().expect("expected comma-separated integers"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = LogLatencyParams::full();
    let mut json_path: Option<String> = None;
    let mut smoke = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                params = LogLatencyParams::smoke();
                smoke = true;
            }
            "--batches" => {
                params.batches_per_conn = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--batches needs an integer");
            }
            "--value-bytes" => {
                params.value_bytes = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--value-bytes needs an integer");
            }
            "--conns" => params.cases = parse_list(it.next().expect("--conns needs a list")),
            "--json" => json_path = Some(it.next().expect("--json needs a path").clone()),
            other => panic!("unknown argument: {other}"),
        }
    }
    // The smoke rows double as the checked-in BENCH_log_latency.json
    // fixture unless the caller redirects them.
    if smoke && json_path.is_none() {
        json_path = Some("BENCH_log_latency.json".into());
    }

    let rows = run(&params);

    let mut table = Table::new(&[
        "conns",
        "op/s",
        "commands",
        "appends",
        "ops/append",
        "e2e_mean_us",
        "e2e_p50_us",
        "e2e_p99_us",
        "flush_win_us",
    ]);
    for r in &rows {
        table.row(vec![
            r.connections.to_string(),
            kops(r.ops),
            r.commands.to_string(),
            r.append_calls.to_string(),
            format!("{:.2}", r.ops_per_append),
            format!("{:.1}", r.e2e_mean_us),
            r.e2e_p50_us.to_string(),
            r.e2e_p99_us.to_string(),
            format!("{:.1}", r.flush_window_mean_us),
        ]);
    }
    println!(
        "Low-latency log path — closed-loop single-SET commit latency \
         ({}B values, {} batches/conn)",
        params.value_bytes, params.batches_per_conn
    );
    println!("{}", table.render());

    let csv = results_dir().join("log_latency.csv");
    if table.write_csv(&csv).is_ok() {
        println!("wrote {}", csv.display());
    }
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&params, &rows)).expect("write --json output");
        println!("wrote {path}");
    }
    println!(
        "\nClaims under test: K=1 appends exactly once per command; \
         ops/append and the flush_window span grow with K."
    );

    // Smoke gate: exact K=1 append accounting.
    if smoke {
        let problems = single_append_problems(&rows);
        if !problems.is_empty() {
            eprintln!("log-latency smoke FAILED:");
            for p in &problems {
                eprintln!("  {p}");
            }
            std::process::exit(1);
        }
        println!("log-latency smoke OK: K=1 appended exactly once per command");
    }
}
