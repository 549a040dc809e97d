//! Closed-loop RESP-over-TCP throughput: the proof harness for the
//! Enhanced-IO server (multiplexed IO threads + pipelined batch execution
//! + txlog group commit).
//!
//! Each case runs K client connections, each keeping a pipeline of P SET
//! commands outstanding against a real [`memorydb_server::Server`] over
//! loopback TCP. Alongside throughput it reports the txlog append-call
//! count over the measurement window: with group commit, one quorum ack
//! covers a whole pipeline, so `ops/append` should track P.

use memorydb_core::{ClusterBus, NodeIdGen, Shard, ShardConfig};
use memorydb_metrics::{CounterId, MetricsSnapshot};
use memorydb_objectstore::ObjectStore;
use memorydb_server::{BlockingClient, Server};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One (connections, pipeline-depth, stripe-count) point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct TcpCase {
    pub connections: usize,
    pub pipeline: usize,
    /// Engine stripe count for the case's shard (DESIGN.md §12). 1 is the
    /// pre-striping single-mutex configuration, the scaling baseline.
    pub stripes: usize,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct TcpParams {
    pub cases: Vec<TcpCase>,
    /// Measurement window per case, seconds.
    pub duration_s: f64,
    /// SET payload size, bytes.
    pub value_bytes: usize,
    /// Hot-key workload: draw keys from one shared, skewed (approximately
    /// Zipfian) distribution instead of disjoint per-connection key sets.
    /// Skewed keys concentrate on few stripes, so this exposes the
    /// contended end of the striping win.
    pub zipfian: bool,
    /// Leadership lease for the bench shard. Large sweeps oversubscribe
    /// the CPU with client threads, and an aggressive lease would let the
    /// primary's renewal starve and demote it mid-measurement; size this
    /// to the load (full sweep uses 5s).
    pub lease: Duration,
    /// Measurement windows per case; the best window is reported, which
    /// filters out scheduler noise on small machines.
    pub windows: usize,
}

impl TcpParams {
    /// The full sweep the benchmark binary runs by default. Stripes 1 vs 16
    /// at every point is the before/after of the §12 lock striping.
    pub fn full() -> TcpParams {
        TcpParams {
            cases: cross(&[1, 8, 64], &[1, 16, 64], &[1, 16]),
            duration_s: 1.0,
            value_bytes: 64,
            zipfian: false,
            lease: Duration::from_secs(5),
            windows: 3,
        }
    }

    /// A seconds-long sanity sweep for `cargo test` / CI. Includes K=8 so
    /// the cross-connection coalescing gate has a case to bite on, plus a
    /// 1-stripe twin of the K=8 point so the stripe-scaling gate has a
    /// baseline to compare against.
    pub fn smoke() -> TcpParams {
        let mut cases = cross(&[1, 8], &[1, 8], &[16]);
        cases.push(TcpCase {
            connections: 8,
            pipeline: 8,
            stripes: 1,
        });
        TcpParams {
            cases,
            duration_s: 0.2,
            value_bytes: 16,
            zipfian: false,
            lease: Duration::from_millis(600),
            windows: 1,
        }
    }
}

/// Cartesian product of connection counts × pipeline depths × stripe
/// counts. Stripe counts alternate innermost so the two configurations of
/// each (K, P) point run back-to-back — fairer when the host throttles
/// sustained CPU use.
pub fn cross(conns: &[usize], pipelines: &[usize], stripes: &[usize]) -> Vec<TcpCase> {
    let mut cases = Vec::new();
    for &connections in conns {
        for &pipeline in pipelines {
            for &stripes in stripes {
                cases.push(TcpCase {
                    connections,
                    pipeline,
                    stripes,
                });
            }
        }
    }
    cases
}

/// One stage's latency summary, lifted from a [`MetricsSnapshot`] after a
/// case finishes (§10 observability).
#[derive(Debug, Clone)]
pub struct StageLine {
    pub name: &'static str,
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    pub sum_us: u64,
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct TcpRow {
    pub connections: usize,
    pub pipeline: usize,
    /// Engine stripe count the case ran with.
    pub stripes: usize,
    /// Achieved SETs per second over the measurement window.
    pub ops: f64,
    /// Txlog append calls (= quorum acks) during the window.
    pub append_calls: u64,
    /// Engine batches dispatched during the window. The commit pipeline
    /// coalesces staged batches from many connections into single appends,
    /// so `append_calls < batches` whenever cross-connection group commit
    /// is working.
    pub batches: u64,
    /// Ops amortized per quorum ack; tracks the pipeline depth when group
    /// commit is working.
    pub ops_per_append: f64,
    /// Log appends amortized per acknowledged command — the paper-facing
    /// inverse of `ops_per_append` (lower is better; 1.0 means every
    /// command paid its own quorum round-trip).
    pub appends_per_command: f64,
    /// Per-stage latency attribution over the whole case (warmup included):
    /// every sampled stage from the node and txlog registries.
    pub stages: Vec<StageLine>,
    /// How much of the end-to-end batch span the stage breakdown accounts
    /// for: `(engine + durability) / e2e` by summed microseconds. The
    /// remaining sub-spans (lock hold, apply) nest inside `engine`, so a
    /// healthy pipeline sits just under 1.0.
    pub stage_sum_over_e2e: f64,
}

impl TcpRow {
    /// Looks up one attributed stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageLine> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// Stages every case must sample.
pub const REQUIRED_STAGES: &[&str] = &[
    "io_read",
    "io_write",
    "parse",
    "engine",
    "engine_lock_hold",
    "stripe_lock_hold",
    "apply",
    "commit_queue_wait",
    "flush_window",
    "durability",
    "e2e",
    "log_append",
    "quorum_ack",
];

/// Validates a row's stage attribution: every required stage sampled, and
/// `engine + durability` accounting for the end-to-end span within
/// tolerance. Returns human-readable problems; empty means the row passes.
pub fn attribution_problems(row: &TcpRow) -> Vec<String> {
    let mut problems = Vec::new();
    for name in REQUIRED_STAGES {
        if row.stage(name).is_none() {
            problems.push(format!(
                "K={} P={} S={}: stage `{name}` has no samples",
                row.connections, row.pipeline, row.stripes
            ));
        }
    }
    if !(0.80..=1.02).contains(&row.stage_sum_over_e2e) {
        problems.push(format!(
            "K={} P={} S={}: engine+commit_queue_wait+durability accounts for \
             {:.3} of e2e (want 0.80..=1.02)",
            row.connections, row.pipeline, row.stripes, row.stage_sum_over_e2e
        ));
    }
    problems
}

/// Validates that cross-connection group commit actually coalesced: with
/// enough concurrent connections (K ≥ 8) the flush leader must have merged
/// staged batches, so the window's append calls must be strictly fewer
/// than its dispatched batches. Empty means pass.
pub fn coalescing_problems(rows: &[TcpRow]) -> Vec<String> {
    let mut problems = Vec::new();
    for r in rows {
        if r.connections >= 8 && r.append_calls >= r.batches {
            problems.push(format!(
                "K={} P={} S={}: no cross-connection coalescing observed \
                 ({} appends for {} batches)",
                r.connections, r.pipeline, r.stripes, r.append_calls, r.batches
            ));
        }
    }
    problems
}

/// True when the host has enough cores for stripe scaling to be measurable.
/// On 1-2 core machines every stripe shares one CPU, so the ≥1.5× gate
/// would only measure scheduler noise; the smoke gate skips it there.
pub fn scaling_gate_active() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 4)
}

/// Validates the §12 scaling claim: for every K≥8 point that
/// was measured at both 1 stripe and 16 stripes (same K, P, workload), the
/// striped configuration must deliver ≥1.5× the ops/s of the single-mutex
/// baseline. Empty when the gate is inactive ([`scaling_gate_active`]) or
/// no such pair exists in the sweep.
pub fn scaling_problems(rows: &[TcpRow]) -> Vec<String> {
    let mut problems = Vec::new();
    if !scaling_gate_active() {
        return problems;
    }
    for base in rows {
        if base.connections < 8 || base.stripes != 1 {
            continue;
        }
        let striped = rows.iter().find(|r| {
            r.connections == base.connections && r.pipeline == base.pipeline && r.stripes == 16
        });
        if let Some(s) = striped {
            if s.ops < 1.5 * base.ops {
                problems.push(format!(
                    "K={} P={}: 16-stripe ops/s must be >=1.5x the 1-stripe \
                     baseline, got {:.0} vs {:.0} ({:.2}x)",
                    base.connections,
                    base.pipeline,
                    s.ops,
                    base.ops,
                    s.ops / base.ops.max(1.0)
                ));
            }
        }
    }
    problems
}

/// Runs the sweep. Each case gets a fresh single-node shard and server so
/// cases cannot interfere.
pub fn run(params: &TcpParams) -> Vec<TcpRow> {
    params.cases.iter().map(|c| run_case(c, params)).collect()
}

fn run_case(case: &TcpCase, params: &TcpParams) -> TcpRow {
    let lease = params.lease;
    let shard = Shard::bootstrap(
        0,
        ShardConfig {
            lease,
            renew_interval: lease / 5,
            backoff: lease + lease / 10,
            engine_stripes: case.stripes,
            ..ShardConfig::default()
        },
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    // The first election only starts after a full backoff.
    let primary = shard
        .wait_for_primary(3 * lease + Duration::from_secs(5))
        .expect("bench shard must elect a primary");
    let mut server =
        Server::start(Arc::clone(&primary), "127.0.0.1:0").expect("bench server must start");
    let addr = server.local_addr;

    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    // +1 for the measuring thread.
    let barrier = Arc::new(Barrier::new(case.connections + 1));
    let value = "x".repeat(params.value_bytes);

    let mut workers = Vec::with_capacity(case.connections);
    for conn_id in 0..case.connections {
        let stop = Arc::clone(&stop);
        let ops = Arc::clone(&ops);
        let barrier = Arc::clone(&barrier);
        let value = value.clone();
        let depth = case.pipeline;
        let zipfian = params.zipfian;
        workers.push(std::thread::spawn(move || {
            let mut client = BlockingClient::connect(addr).expect("bench client connect");
            barrier.wait();
            let mut i = 0u64;
            // Per-worker xorshift64* for the skewed key draw; seeded from
            // the connection id so streams differ but stay reproducible.
            let mut rng: u64 = 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(conn_id as u64 + 1);
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<Vec<String>> = (0..depth)
                    .map(|j| {
                        let key = if zipfian {
                            // Approximate Zipf by cubing a uniform draw:
                            // low indices get most of the mass (the top
                            // key sees ~10% of ops at N=1024). Every
                            // connection shares the `z` keyspace, so hot
                            // keys pile onto few stripes by design.
                            rng ^= rng >> 12;
                            rng ^= rng << 25;
                            rng ^= rng >> 27;
                            let u = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
                                / (1u64 << 53) as f64;
                            format!("z{}", (1024.0 * u * u * u) as usize)
                        } else {
                            format!("c{conn_id}:{}", (i + j as u64) % 1024)
                        };
                        vec!["SET".into(), key, value.clone()]
                    })
                    .collect();
                let replies = client.pipeline(batch).expect("bench pipeline");
                assert_eq!(replies.len(), depth);
                for r in &replies {
                    // Only acknowledged writes count as ops; anything else
                    // (MOVED after a demotion, CLUSTERDOWN) voids the case.
                    assert!(
                        matches!(r, memorydb_engine::Frame::Simple(s) if s == "OK"),
                        "bench SET failed: {r:?}"
                    );
                }
                i += depth as u64;
                ops.fetch_add(depth as u64, Ordering::Relaxed);
            }
        }));
    }

    barrier.wait();
    // Short warmup so connect storms and first-touch allocation stay out
    // of the measured windows.
    std::thread::sleep(Duration::from_secs_f64(params.duration_s * 0.25));
    let window = Duration::from_secs_f64(params.duration_s);

    // Several back-to-back windows; keep the best one. The shard, server,
    // and clients stay hot across windows, so the max is the steady state
    // with the least scheduler interference.
    let mut best: Option<(f64, u64, u64, u64)> = None;
    for _ in 0..params.windows.max(1) {
        let t0 = Instant::now();
        let ops0 = ops.load(Ordering::Relaxed);
        let appends0 = shard.ctx().log.append_calls();
        let batches0 = primary.metrics().counter(CounterId::BatchesDispatched);
        std::thread::sleep(window);
        let done = ops.load(Ordering::Relaxed) - ops0;
        let append_calls = shard.ctx().log.append_calls() - appends0;
        let batches = primary.metrics().counter(CounterId::BatchesDispatched) - batches0;
        let rate = done as f64 / t0.elapsed().as_secs_f64();
        let better = match best {
            Some((best_rate, _, _, _)) => rate > best_rate,
            None => true,
        };
        if better {
            best = Some((rate, done, append_calls, batches));
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("bench worker failed");
    }
    server.stop();

    // Stage attribution: both registries are cumulative over the case
    // (warmup + all windows), which is what latency percentiles want.
    let node_snap = primary.metrics().snapshot();
    let log_snap = shard.ctx().log.metrics().snapshot();
    let mut stages = Vec::new();
    for snap in [&node_snap, &log_snap] {
        for s in &snap.stages {
            if s.count > 0 {
                stages.push(StageLine {
                    name: s.name,
                    count: s.count,
                    mean_us: s.mean_us(),
                    p50_us: s.p50_us,
                    p99_us: s.p99_us,
                    max_us: s.max_us,
                    sum_us: s.sum_us,
                });
            }
        }
    }
    let sum_us = |snap: &MetricsSnapshot, name: &str| snap.stage(name).map_or(0, |s| s.sum_us);
    let e2e_sum = sum_us(&node_snap, "e2e");
    // Only the top-level spans: lock hold and apply nest inside `engine`,
    // io/parse happen outside the batch's e2e span, and the §11 pipeline
    // tiles the rest of e2e as engine → commit_queue_wait → durability.
    let accounted = sum_us(&node_snap, "engine")
        + sum_us(&node_snap, "commit_queue_wait")
        + sum_us(&node_snap, "durability");
    let stage_sum_over_e2e = if e2e_sum == 0 {
        0.0
    } else {
        accounted as f64 / e2e_sum as f64
    };

    let (rate, done, append_calls, batches) = best.expect("at least one window");
    TcpRow {
        connections: case.connections,
        pipeline: case.pipeline,
        stripes: case.stripes,
        ops: rate,
        append_calls,
        batches,
        ops_per_append: if append_calls == 0 {
            0.0
        } else {
            done as f64 / append_calls as f64
        },
        appends_per_command: if done == 0 {
            0.0
        } else {
            append_calls as f64 / done as f64
        },
        stages,
        stage_sum_over_e2e,
    }
}

/// Hand-rolled JSON encoding of the sweep (no serde dependency needed for
/// a flat numeric table).
pub fn to_json(params: &TcpParams, rows: &[TcpRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"tcp_throughput\",\n");
    s.push_str(&format!("  \"duration_s\": {},\n", params.duration_s));
    s.push_str(&format!("  \"value_bytes\": {},\n", params.value_bytes));
    s.push_str(&format!("  \"zipfian\": {},\n", params.zipfian));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let stages = r
            .stages
            .iter()
            .map(|st| {
                format!(
                    "\"{}\": {{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \
                     \"p99_us\": {}, \"max_us\": {}}}",
                    st.name, st.count, st.mean_us, st.p50_us, st.p99_us, st.max_us
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "    {{\"connections\": {}, \"pipeline\": {}, \
             \"stripes\": {}, \
             \"ops_per_s\": {:.1}, \"append_calls\": {}, \"batches\": {}, \
             \"ops_per_append\": {:.2}, \"appends_per_command\": {:.4}, \
             \"stage_sum_over_e2e\": {:.3}, \"stages\": {{{}}}}}{}\n",
            r.connections,
            r.pipeline,
            r.stripes,
            r.ops,
            r.append_calls,
            r.batches,
            r.ops_per_append,
            r.appends_per_command,
            r.stage_sum_over_e2e,
            stages,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` sweep, run as part of the normal test suite: every
    /// case must serve traffic and group commit must amortize appends.
    #[test]
    fn smoke_sweep_serves_and_group_commits() {
        let params = TcpParams::smoke();
        let rows = run(&params);
        assert_eq!(rows.len(), params.cases.len());
        for r in &rows {
            assert!(r.ops > 0.0, "case {r:?} made no progress");
            assert!(r.append_calls > 0, "case {r:?} recorded no appends");
        }
        // Group commit: at pipeline depth 8 each append must cover several
        // SETs (exact depth depends on how bursts land in the window).
        let deep = rows.iter().find(|r| r.pipeline == 8).unwrap();
        assert!(
            deep.ops_per_append > 2.0,
            "pipelined batches should group-commit, got {:.2} ops/append",
            deep.ops_per_append
        );
        // Cross-connection coalescing: with K=8 connections the committer
        // must merge staged batches across connections into fewer appends.
        let problems = coalescing_problems(&rows);
        assert!(
            problems.is_empty(),
            "coalescing gate failed:\n{}",
            problems.join("\n")
        );
        // Stripe scaling (§12): the K=8 P=8 point runs at both 1
        // and 16 stripes; on a machine with cores to use, 16 stripes must
        // beat the single-mutex baseline by >=1.5x.
        if scaling_gate_active() {
            let problems = scaling_problems(&rows);
            assert!(
                problems.is_empty(),
                "stripe scaling gate failed:\n{}",
                problems.join("\n")
            );
        } else {
            eprintln!("stripe scaling gate skipped: fewer than 4 cores available");
        }
        // Stage attribution (§10): every declared stage sampled and the
        // engine+durability sum consistent with the e2e span, per case.
        for r in &rows {
            let problems = attribution_problems(r);
            assert!(
                problems.is_empty(),
                "stage attribution failed:\n{}",
                problems.join("\n")
            );
        }
        // JSON encoding stays parseable in shape.
        let json = to_json(&params, &rows);
        assert!(json.contains("\"bench\": \"tcp_throughput\""));
        assert!(json.contains("\"appends_per_command\""));
        assert!(json.contains("\"batches\""));
        assert!(json.contains("\"stripes\": 16"));
        assert!(json.contains("\"stripes\": 1,"));
        assert!(json.contains("\"zipfian\": false"));
        assert!(json.contains("\"stage_sum_over_e2e\""));
        assert!(json.contains("\"e2e\": {\"count\""));
        assert!(json.contains("\"stripe_lock_hold\": {\"count\""));
        assert_eq!(json.matches("\"connections\"").count(), rows.len());
    }

    /// Full-size comparison (ignored by default: ~30s of wall clock).
    #[test]
    #[ignore = "heavy: full 64-connection sweep"]
    fn full_sweep_multiplexed_holds_64_connections() {
        let params = TcpParams {
            cases: cross(&[64], &[1, 16], &[16]),
            duration_s: 1.0,
            value_bytes: 64,
            zipfian: false,
            lease: Duration::from_secs(5),
            windows: 3,
        };
        let rows = run(&params);
        for r in &rows {
            assert!(r.ops > 0.0, "case {r:?} made no progress");
        }
        let mux16 = rows.iter().find(|r| r.pipeline == 16).unwrap();
        let mux1 = rows.iter().find(|r| r.pipeline == 1).unwrap();
        assert!(
            mux16.ops > 3.0 * mux1.ops,
            "P=16 pipelining should beat unpipelined by >=3x ({:.0} vs {:.0})",
            mux16.ops,
            mux1.ops
        );
    }
}
