//! Allocation census for the zero-copy serve path (DESIGN.md §15).
//!
//! Registers [`memorydb_metrics::CountingAlloc`] as the global allocator
//! and measures allocations-per-command and bytes-per-command on the K=1
//! multiplexed GET/SET path over real loopback TCP, plus allocations per
//! restored key of one sequential 16-chunk restore (DESIGN.md §14). Usage:
//!
//! ```text
//! alloc_census [--smoke] [--commands N] [--json PATH]
//! ```
//!
//! `--smoke` turns the run into a gate: every row must stay under its
//! pinned budget *and* ≥50% below the committed pre-PR baseline. This gate
//! has **no core-count skip-guard** — per-command allocation cost is
//! exactly what a 1-core box measures best.

use memorydb_bench::alloc_census::{gate_problems, run, to_json, BASELINE};
use memorydb_bench::output::Table;
use memorydb_metrics::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut commands: u64 = 4000;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--commands" => {
                commands = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--commands needs an integer");
            }
            "--json" => json_path = Some(it.next().expect("--json needs a path").clone()),
            other => panic!("unknown argument: {other}"),
        }
    }

    let rows = run(commands);

    let mut table = Table::new(&[
        "workload",
        "phase",
        "allocs/cmd",
        "bytes/cmd",
        "vs baseline",
    ]);
    for (w, allocs, bytes) in BASELINE {
        table.row(vec![
            w.to_string(),
            "baseline".into(),
            format!("{allocs:.2}"),
            format!("{bytes:.1}"),
            "1.00x".into(),
        ]);
    }
    for r in &rows {
        let base = BASELINE
            .iter()
            .find(|(w, _, _)| *w == r.workload)
            .map_or(f64::NAN, |&(_, a, _)| a);
        table.row(vec![
            r.workload.to_string(),
            "current".into(),
            format!("{:.2}", r.allocs_per_cmd),
            format!("{:.1}", r.bytes_per_cmd),
            format!("{:.2}x", r.allocs_per_cmd / base),
        ]);
    }
    println!(
        "Allocation census — K=1 multiplexed GET/SET, {commands} commands/phase; \
         restore_16chunk per restored key (counting global allocator)"
    );
    println!("{}", table.render());

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&rows)).expect("write --json output");
        println!("wrote {path}");
    }

    if smoke {
        let problems = gate_problems(&rows);
        if !problems.is_empty() {
            eprintln!("alloc census FAILED:");
            for p in &problems {
                eprintln!("  {p}");
            }
            std::process::exit(1);
        }
        println!(
            "alloc census OK: every workload under budget and >=50% below the \
             pre-PR baseline (gate ran with no core-count skip)"
        );
    }
}
