//! Closed-loop RESP-over-TCP throughput for the Enhanced-IO server.
//!
//! Sweeps K connections × pipeline depth P over real loopback sockets.
//! Usage:
//!
//! ```text
//! tcp_throughput [--smoke] [--duration S] [--value-bytes N] [--zipfian]
//!                [--conns a,b,..] [--pipeline a,b,..] [--stripes a,b,..]
//!                [--json PATH]
//! ```
//!
//! The interesting comparisons: P=16 pipelined SET vs P=1 (group commit
//! should hold `ops/append` near P the whole time), and 16 engine stripes
//! vs 1 at K>=8 (DESIGN.md §12 lock striping). `--zipfian` replaces the
//! disjoint per-connection keys with one shared hot-key distribution,
//! showing the contended end of the striping win.

use memorydb_bench::output::{kops, results_dir, Table};
use memorydb_bench::tcp::{
    attribution_problems, coalescing_problems, cross, run, scaling_gate_active, scaling_problems,
    to_json, TcpParams, TcpRow,
};

/// Mean µs for one attributed stage, `-` when the case never sampled it.
fn stage_mean(r: &TcpRow, name: &str) -> String {
    r.stage(name)
        .map_or_else(|| "-".to_string(), |s| format!("{:.1}", s.mean_us))
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().expect("expected comma-separated integers"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = TcpParams::full();
    let mut json_path: Option<String> = None;
    let mut conns: Option<Vec<usize>> = None;
    let mut pipelines: Option<Vec<usize>> = None;
    let mut stripes: Option<Vec<usize>> = None;
    let mut smoke = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                params = TcpParams::smoke();
                smoke = true;
            }
            "--zipfian" => params.zipfian = true,
            "--duration" => {
                params.duration_s = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--duration needs seconds");
            }
            "--value-bytes" => {
                params.value_bytes = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--value-bytes needs an integer");
            }
            "--conns" => conns = Some(parse_list(it.next().expect("--conns needs a list"))),
            "--pipeline" => {
                pipelines = Some(parse_list(it.next().expect("--pipeline needs a list")))
            }
            "--stripes" => stripes = Some(parse_list(it.next().expect("--stripes needs a list"))),
            "--json" => json_path = Some(it.next().expect("--json needs a path").clone()),
            other => panic!("unknown argument: {other}"),
        }
    }
    if conns.is_some() || pipelines.is_some() || stripes.is_some() {
        params.cases = cross(
            &conns.unwrap_or_else(|| vec![1, 8, 64]),
            &pipelines.unwrap_or_else(|| vec![1, 16, 64]),
            &stripes.unwrap_or_else(|| vec![1, 16]),
        );
    }

    let rows = run(&params);

    let mut table = Table::new(&[
        "conns",
        "pipeline",
        "stripes",
        "op/s",
        "appends",
        "batches",
        "ops/append",
        "appends/cmd",
    ]);
    for r in &rows {
        table.row(vec![
            r.connections.to_string(),
            r.pipeline.to_string(),
            r.stripes.to_string(),
            kops(r.ops),
            r.append_calls.to_string(),
            r.batches.to_string(),
            format!("{:.1}", r.ops_per_append),
            format!("{:.4}", r.appends_per_command),
        ]);
    }
    println!(
        "Enhanced-IO — closed-loop SET throughput over TCP ({}B values, {}s/case)",
        params.value_bytes, params.duration_s
    );
    println!("{}", table.render());

    // Per-stage latency attribution (§10): mean µs per stage, plus how much
    // of the e2e batch span the engine+durability breakdown accounts for.
    let mut attr = Table::new(&[
        "conns",
        "pipeline",
        "stripes",
        "io_read",
        "io_write",
        "parse",
        "engine",
        "stripe_hold",
        "apply",
        "cqw",
        "durability",
        "e2e",
        "e2e_p99",
        "stage/e2e",
    ]);
    for r in &rows {
        attr.row(vec![
            r.connections.to_string(),
            r.pipeline.to_string(),
            r.stripes.to_string(),
            stage_mean(r, "io_read"),
            stage_mean(r, "io_write"),
            stage_mean(r, "parse"),
            stage_mean(r, "engine"),
            stage_mean(r, "stripe_lock_hold"),
            stage_mean(r, "apply"),
            stage_mean(r, "commit_queue_wait"),
            stage_mean(r, "durability"),
            stage_mean(r, "e2e"),
            r.stage("e2e")
                .map_or_else(|| "-".to_string(), |s| s.p99_us.to_string()),
            format!("{:.3}", r.stage_sum_over_e2e),
        ]);
    }
    println!("Per-stage latency attribution (mean µs per span)");
    println!("{}", attr.render());

    let csv = results_dir().join("tcp_throughput.csv");
    if table.write_csv(&csv).is_ok() {
        println!("wrote {}", csv.display());
    }
    let attr_csv = results_dir().join("tcp_stage_latency.csv");
    if attr.write_csv(&attr_csv).is_ok() {
        println!("wrote {}", attr_csv.display());
    }
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&params, &rows)).expect("write --json output");
        println!("wrote {path}");
    }
    println!(
        "\nClaims under test: pipelined SET scales with P; ops/append tracks \
         the pipeline depth; 16 stripes beat 1 at K>=8."
    );

    // In smoke mode the attribution doubles as a gate: every declared
    // stage must have samples, the stage sums must be consistent with the
    // measured e2e span, cross-connection coalescing must be observed at
    // K >= 8 (append calls strictly below dispatched batches), and the
    // 16-stripe configuration must beat the 1-stripe baseline by >=1.5x
    // at K >= 8 (skipped on hosts with fewer than 4 cores, where stripes
    // just time-share one CPU).
    if smoke {
        let mut problems: Vec<String> = rows.iter().flat_map(attribution_problems).collect();
        problems.extend(coalescing_problems(&rows));
        problems.extend(scaling_problems(&rows));
        if !problems.is_empty() {
            eprintln!("metrics smoke FAILED:");
            for p in &problems {
                eprintln!("  {p}");
            }
            std::process::exit(1);
        }
        let scaling_note = if scaling_gate_active() {
            "stripe scaling gate held"
        } else {
            "stripe scaling gate skipped (<4 cores)"
        };
        println!(
            "metrics smoke OK: all stages sampled, stage sums consistent with e2e, \
             cross-connection coalescing observed, {scaling_note}"
        );
    }
}
