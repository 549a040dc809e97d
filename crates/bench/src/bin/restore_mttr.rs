//! Restore-MTTR sweep (§4.2, DESIGN.md §14): parallel per-slot restore vs
//! the sequential path across dataset size × snapshot freshness. Usage:
//!
//! ```text
//! restore_mttr [--smoke] [--base-keys N] [--value-bytes N]
//!              [--scales a,b,..] [--suffixes a,b,..] [--workers N]
//!              [--json PATH]
//! ```
//!
//! `--smoke` is a gate that runs on any host: on every row the sequential
//! and the parallel restore must dump to identical bytes and neither may
//! take more than twice as long as the other.

use memorydb_bench::output::{results_dir, Table};
use memorydb_bench::restore_mttr::{cross, gate_problems, run, to_json, RestoreMttrParams};

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().expect("expected comma-separated integers"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = RestoreMttrParams::full();
    let mut scales: Vec<usize> = vec![1, 10];
    let mut suffixes: Vec<usize> = vec![0, 2_000];
    let mut json_path: Option<String> = None;
    let mut smoke = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                params = RestoreMttrParams::smoke();
                suffixes = vec![0, 500];
                smoke = true;
            }
            "--base-keys" => {
                params.base_keys = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--base-keys needs an integer");
            }
            "--value-bytes" => {
                params.value_bytes = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--value-bytes needs an integer");
            }
            "--workers" => {
                params.workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--workers needs an integer");
            }
            "--scales" => scales = parse_list(it.next().expect("--scales needs a list")),
            "--suffixes" => suffixes = parse_list(it.next().expect("--suffixes needs a list")),
            "--json" => json_path = Some(it.next().expect("--json needs a path").clone()),
            other => panic!("unknown argument: {other}"),
        }
    }
    params.cases = cross(&scales, &suffixes);
    // The smoke rows double as the checked-in BENCH_restore_mttr.json
    // fixture unless the caller redirects them.
    if smoke && json_path.is_none() {
        json_path = Some("BENCH_restore_mttr.json".into());
    }

    let rows = run(&params);

    let mut table = Table::new(&[
        "scale", "suffix", "keys", "workers", "seq_ms", "par_ms", "speedup",
    ]);
    for r in &rows {
        table.row(vec![
            r.scale.to_string(),
            r.suffix_entries.to_string(),
            r.keys.to_string(),
            r.workers.to_string(),
            format!("{:.2}", r.seq_ms),
            format!("{:.2}", r.par_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    println!(
        "Restore MTTR — chunked snapshot load + partitioned suffix replay \
         ({}B values, base {} keys)",
        params.value_bytes, params.base_keys
    );
    println!("{}", table.render());

    let csv = results_dir().join("restore_mttr.csv");
    if table.write_csv(&csv).is_ok() {
        println!("wrote {}", csv.display());
    }
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&params, &rows)).expect("write --json output");
        println!("wrote {path}");
    }
    println!(
        "\nClaims under test: restore time is snapshot-dominant (grows with \
         dataset, mildly with suffix); partitioning the restore changes \
         neither what is restored nor, by more than 2x, what it costs."
    );

    if smoke {
        let problems = gate_problems(&rows);
        if !problems.is_empty() {
            eprintln!("restore-mttr smoke FAILED:");
            for p in &problems {
                eprintln!("  {p}");
            }
            std::process::exit(1);
        }
        println!(
            "restore-mttr smoke OK: all rows restored complete, identical images \
             within 2x of each other (gate ran with no core-count skip)"
        );
    }
}
