//! Smoke test: every workload, traced and untraced, at seconds-long sizes.
//! It checks that the ledger runs and reports what `BENCHMARK.json`
//! declares — not any number. One test function, because the parts boot
//! servers and busy-poll, and would disturb each other side by side.

use memorydb_ledger::cli::{driver_line, record};
use memorydb_ledger::compare::{compare, ResultSet};
use memorydb_ledger::gen::Stream;
use memorydb_ledger::harness::{lost_acknowledged_writes, Instance};
use memorydb_ledger::json::{self, Json};
use memorydb_ledger::loadgen::{
    run_paced, run_window, Edge, KeyState, PacedPlan, PhaseCfg, Stop, WindowPlan,
};
use memorydb_ledger::run::{run, Params};
use memorydb_ledger::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use memorydb_txlog::LogConfig;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn ledger_smoke() {
    benchmark_json_declares_what_the_ledger_emits();
    a_server_that_never_answers_counts_as_failures_not_a_hang();
    the_durability_check_bites();
    every_workload_emits_every_declared_metric_once();
}

fn name_is_plain(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn benchmark_json_declares_what_the_ledger_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON");
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();

    let declared = list("workloads");
    assert_eq!(declared.len(), WORKLOADS.len());
    for (d, w) in declared.iter().zip(&WORKLOADS) {
        assert_eq!(text(d, "name"), w.name);
        assert_eq!(text(d, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(name_is_plain(w.name));
    }
    let same = |declared: Vec<Json>, defs: &[MetricDef], bounded: bool| {
        assert_eq!(declared.len(), defs.len());
        for (d, def) in declared.iter().zip(defs) {
            assert_eq!(text(d, "name"), def.name);
            assert_eq!(text(d, "unit"), def.unit);
            let better = if def.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(text(d, "better"), better, "{}", def.name);
            assert_eq!(
                d.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
            assert_eq!(def.bound.is_some(), bounded);
            assert!(name_is_plain(def.name) && def.unit.len() <= 16);
        }
    };
    same(list("end_to_end"), &END_TO_END, true);
    same(list("per_layer"), &PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    for p in list("paths") {
        let dir = format!(
            "{}/../{}",
            env!("CARGO_MANIFEST_DIR"),
            p.as_str().expect("path")
        );
        assert!(std::path::Path::new(&dir).is_dir(), "{dir}");
    }
}

fn a_server_that_never_answers_counts_as_failures_not_a_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Accept and hold every connection, answer nothing.
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let holder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((conn, _)) => held.push(conn),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        })
    };
    let mut stream = Stream::default();
    for i in 0..700 {
        stream.push_get(i % 10);
    }
    let plan = |offset_us| PacedPlan {
        stream: &stream,
        interval: Duration::from_millis(1),
        offset: Duration::from_micros(offset_us),
    };
    let mut edges = Vec::new();
    let t0 = Instant::now();
    let res = run_paced(
        addr,
        &[plan(0), plan(500)],
        PhaseCfg {
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(500),
            timeout: Duration::from_millis(250),
        },
        &mut KeyState::new(10),
        &mut |e| edges.push(e),
    );
    assert!(t0.elapsed() < Duration::from_secs(3), "the phase hung");
    assert_eq!(res.attempted, 1400);
    assert_eq!(res.failed, res.attempted, "every request timed out");
    assert_eq!(res.acked, [0, 0]);
    assert_eq!(edges, [Edge::Start, Edge::End]);
    stop.store(true, Ordering::SeqCst);
    holder.join().expect("the silent server ends");
}

fn the_durability_check_bites() {
    let keys = 300;
    let inst = Instance::boot(LogConfig::instant(), Duration::from_millis(500));
    assert_eq!(inst.preload(keys), (keys as u64, 0));
    let before = inst.log_tail();
    // One more acknowledged write: key 7 at version 1.
    let mut one = Stream::default();
    one.push_set(7, 1);
    let res = run_window(
        inst.addr,
        &[WindowPlan {
            stream: &one,
            window: 1,
        }],
        Stop::StreamEnd,
    );
    assert_eq!((res.attempted, res.failed), (1, 0));
    let mut acked = vec![0u32; keys as usize];
    acked[7] = 1;

    let tail = inst.log_tail();
    assert!(tail > before);
    let (mut whole, _) = inst.restore(tail, 1);
    assert_eq!(lost_acknowledged_writes(&mut whole, &acked), 0);
    // A restore that stops before the write was logged loses it.
    let (mut short, _) = inst.restore(before, 1);
    assert_eq!(lost_acknowledged_writes(&mut short, &acked), 1);
    // And a version the client was never given cannot be found.
    acked[9] = 1;
    assert_eq!(lost_acknowledged_writes(&mut whole, &acked), 1);
    inst.teardown();
}

fn every_workload_emits_every_declared_metric_once() {
    let params = Params::smoke();
    let mut lines = String::new();
    for w in &WORKLOADS {
        for traced in [false, true] {
            let report = run(w, 42, &params, traced);
            assert_eq!(report.failed, 0, "{} failed requests: {report:?}", w.name);
            assert_eq!(report.lost_writes, 0);
            assert!(report.attempted > 0 && report.samples > 0);
            let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
            for def in defs {
                let found: Vec<f64> = report
                    .metrics
                    .iter()
                    .filter(|(n, _)| *n == def.name)
                    .map(|(_, v)| *v)
                    .collect();
                assert_eq!(
                    found.len(),
                    1,
                    "{} on {} (trace {traced})",
                    def.name,
                    w.name
                );
                assert!(found[0].is_finite(), "{} = {}", def.name, found[0]);
                if !traced {
                    assert!(found[0] > 0.0, "{} is zero on {}", def.name, w.name);
                }
            }
            assert_eq!(report.trace.is_some(), traced);

            // The driver's line: exactly four keys, exactly the mode's metrics,
            // each with its value and unit.
            let line = json::parse(&driver_line(&report)).expect("the driver line is JSON");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(metrics.len(), defs.len());
            for ((name, body), def) in metrics.iter().zip(defs) {
                assert_eq!(name, def.name);
                assert_eq!(body.get("unit").and_then(Json::as_str), Some(def.unit));
                assert!(body.get("value").and_then(Json::as_f64).is_some());
            }
            if !traced {
                lines.push_str(&record(&report, &[]).encode());
                lines.push('\n');
            }
        }
    }
    // A result file against itself is all `ok`.
    let set = ResultSet::parse(&lines).expect("result records parse back");
    let (table, bad) = compare(&set, &set);
    assert!(!bad, "{table}");
    let verdicts = table.lines().filter(|l| l.contains(" runs)")).count();
    assert_eq!(verdicts, WORKLOADS.len() * END_TO_END.len());
    assert!(
        !table.contains("worse") && !table.contains("unresolved") && !table.contains("missing"),
        "{table}"
    );
}
