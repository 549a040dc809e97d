//! Command line of both binaries.
//!
//! ```text
//! ledger --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <file>]
//! ledger --seed <n> [...]                  every workload in turn
//! ledger --compare <base.jsonl> <new.jsonl>
//! ```
//!
//! Every metric is printed by name with its unit; the last line of standard
//! output is the one JSON object `../BENCHMARK.json`'s driver reads.

use crate::compare::{compare, ResultSet};
use crate::json::{obj, Json};
use crate::run::{run, Params, Report};
use crate::spec::{metric, workload, MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const DEFAULT_SECONDS: u64 = 12;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(workload(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.traced = number(value()?)? != 0,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// First line of a command's output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(report: &Report, defs: &[MetricDef]) -> Json {
    Json::Obj(
        defs.iter()
            .filter_map(|d| {
                let value = report.metric(d.name)?;
                Some((
                    d.name.to_string(),
                    obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(d.unit.into())),
                    ]),
                ))
            })
            .collect(),
    )
}

/// The record `--out` appends: the run's stamp and every metric it made.
pub fn record(report: &Report, host: &[(&str, Json)]) -> Json {
    let all: Vec<MetricDef> = report
        .metrics
        .iter()
        .filter_map(|(n, _)| metric(n).copied())
        .collect();
    let mut fields = vec![
        ("workload".to_string(), Json::Str(report.workload.into())),
        ("seed".to_string(), Json::Num(report.seed as f64)),
        (
            "trace".to_string(),
            Json::Num(u8::from(report.traced).into()),
        ),
    ];
    fields.extend(host.iter().map(|(k, v)| (k.to_string(), v.clone())));
    fields.extend([
        ("measured_s".to_string(), Json::Num(report.measured_s)),
        ("samples".to_string(), Json::Num(report.samples as f64)),
        (
            "windows_kept".to_string(),
            Json::Num(report.windows_kept as f64),
        ),
        (
            "paced_attempts".to_string(),
            Json::Num(report.paced_attempts as f64),
        ),
        ("attempted".to_string(), Json::Num(report.attempted as f64)),
        ("failed".to_string(), Json::Num(report.failed as f64)),
        ("failed_share".to_string(), Json::Num(report.failed_share())),
        (
            "lost_writes".to_string(),
            Json::Num(report.lost_writes as f64),
        ),
        ("noisy".to_string(), Json::Bool(report.noisy)),
        (
            "windows".to_string(),
            Json::Arr(
                report
                    .windows
                    .iter()
                    .map(|&(n, p50, p95)| {
                        Json::Arr(vec![Json::Num(n as f64), Json::Num(p50), Json::Num(p95)])
                    })
                    .collect(),
            ),
        ),
        (
            "window_cpu_us_per_op".to_string(),
            Json::Arr(report.window_cpu.iter().map(|&c| Json::Num(c)).collect()),
        ),
        ("metrics".to_string(), metrics_json(report, &all)),
    ]);
    Json::Obj(fields)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// the metrics the run's mode declares.
pub fn driver_line(report: &Report) -> String {
    let defs: &[MetricDef] = if report.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(report, defs)),
    ])
    .encode()
}

fn print_report(report: &Report, host: &[(&str, Json)]) {
    println!(
        "workload {}  seed {}  trace {}",
        report.workload,
        report.seed,
        u8::from(report.traced)
    );
    for (k, v) in host {
        println!("  {k:<40} {}", v.encode());
    }
    println!("  {:<40} {:.3} s", "measured", report.measured_s);
    println!(
        "  {:<40} {} in {} one-second windows kept, attempt {}",
        "samples behind p50/p95", report.samples, report.windows_kept, report.paced_attempts
    );
    println!(
        "  {:<40} {} of {} ({:.6}), {} acknowledged writes lost",
        "failed",
        report.failed,
        report.attempted,
        report.failed_share(),
        report.lost_writes
    );
    println!("  {:<40} {}", "noisy", report.noisy);
    for (name, value) in &report.metrics {
        let unit = metric(name).map_or("", |d| d.unit);
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

/// Where a traced run leaves its spans: `ledger/` beside the build
/// profile's directory, i.e. `target/ledger/trace-<workload>.json`.
fn trace_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.parent()?.join("ledger");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("trace-{workload}.json")))
}

fn run_compare(base: &PathBuf, new: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        ResultSet::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (table, bad) = compare(&load(base)?, &load(new)?);
    print!("{table}");
    Ok(bad)
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return match run_compare(base, new) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        };
    }

    let host = [
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(first_line_of("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seconds", Json::Num(args.seconds as f64)),
    ];
    let params = Params::full(args.seconds);
    let chosen: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    for w in chosen {
        let report = run(w, args.seed, &params, args.traced);
        print_report(&report, &host);
        if let (Some(doc), Some(path)) = (&report.trace, trace_path(w.name)) {
            match std::fs::write(&path, doc.encode()) {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => eprintln!("ledger: {}: {e}", path.display()),
            }
        }
        if let Some(path) = &args.out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", record(&report, &host).encode()));
            if let Err(e) = appended {
                eprintln!("ledger: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        println!("{}", driver_line(&report));
    }
    ExitCode::SUCCESS
}
