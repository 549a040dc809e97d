//! What the ledger measures: the named workloads and the named metrics.
//! `../BENCHMARK.json` declares the same lists to the driver; a test holds
//! the two together.

use crate::gen::{Class, ConnSpec, KeyDist};

/// Keys in the keyspace: 100 000 × (16 + 100) bytes ≈ 12 MB of user data
/// (about 18 MB in the engine), several times this box's 2 MB L2 and far
/// smaller than RAM. The store has no cache of its own to fit or miss.
pub const KEYS: u32 = 100_000;

/// Which transaction log the shard runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// No injected latency: commits resolve at once.
    Instant,
    /// Per-AZ ack 1.2 ms + U(0, 0.8 ms), quorum 2 of 3: the injected median
    /// commit is about 1.6 ms and everything above that is the program's.
    MultiAz,
}

/// One named workload: a traffic mix on two connections, and the operation
/// class whose latency it gates.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub log: LogKind,
    pub conns: [ConnSpec; 2],
    /// The class `p50_us` / `p95_us` report.
    pub gated: Class,
    /// Requests outstanding per connection in the closed-loop burst.
    pub burst_window: [u64; 2],
}

const fn conn(class: Class, rate: u32, dist: KeyDist, parity: Option<u32>) -> ConnSpec {
    ConnSpec {
        class,
        rate,
        dist,
        parity,
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "read",
        why: "GET only, uniform keys, 20K req/s, instant log: server, resp, engine and stripes do all the work; a log or commit change must show no change here",
        log: LogKind::Instant,
        conns: [
            conn(Class::Get, 10_000, KeyDist::Uniform, None),
            conn(Class::Get, 10_000, KeyDist::Uniform, None),
        ],
        gated: Class::Get,
        burst_window: [32, 32],
    },
    Workload {
        name: "write",
        why: "SET only, uniform keys, 10K req/s through the multi-AZ log: adds record, staging, ticketing, group commit, quorum and reply release to the read path",
        log: LogKind::MultiAz,
        conns: [
            conn(Class::Set, 5_000, KeyDist::Uniform, Some(0)),
            conn(Class::Set, 5_000, KeyDist::Uniform, Some(1)),
        ],
        gated: Class::Set,
        burst_window: [256, 256],
    },
    Workload {
        name: "mixed",
        why: "GET 24K/s beside SET 6K/s on skewed keys, multi-AZ log, GET latency gated: hazard reads park on commits, so batching writes longer shows here as slower reads",
        log: LogKind::MultiAz,
        conns: [
            conn(Class::Get, 24_000, KeyDist::Skewed, None),
            conn(Class::Set, 6_000, KeyDist::Skewed, None),
        ],
        gated: Class::Get,
        burst_window: [32, 256],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may get worse before it counts as a regression;
/// per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", 0.25),
    e2e("p50_us", "us", 0.15),
    e2e("p95_us", "us", 0.25),
    e2e("cpu_us_per_op", "us", 0.25),
    e2e("peak_rss_mb", "MB", 0.10),
    e2e("snapshot_s", "s", 0.25),
    e2e("restore_s", "s", 0.25),
];

/// Single layers, from the traced run.
pub const PER_LAYER: [MetricDef; 66] = [
    lower("resp.decode_get_ns", "ns"),
    lower("resp.decode_set_ns", "ns"),
    lower("resp.encode_bulk_ns", "ns"),
    lower("resp.encode_ok_ns", "ns"),
    lower("engine.get_ns", "ns"),
    lower("engine.set_ns", "ns"),
    lower("engine.apply_effect_ns", "ns"),
    higher("engine.rdb_dump_mb_s", "MB/s"),
    higher("engine.rdb_load_mb_s", "MB/s"),
    lower("engine.mem_bytes_per_key", "B"),
    lower("record.encode_ns", "ns"),
    lower("record.decode_ns", "ns"),
    lower("record.log_bytes_per_user_byte", "ratio"),
    lower("node.get_ns", "ns"),
    lower("node.set_ns", "ns"),
    lower("node.set_batch32_ns", "ns"),
    lower("node.self_get_ns", "ns"),
    lower("node.self_set_ns", "ns"),
    higher("pipeline.cmds_per_append", "ratio"),
    lower("pipeline.commit_queue_wait_mean_us", "us"),
    lower("pipeline.flush_window_mean_us", "us"),
    lower("pipeline.durability_mean_us", "us"),
    lower("stripes.lock_hold_mean_us", "us"),
    lower("stripes.conflicts_per_kcmd", "count"),
    lower("txlog.append1_ns", "ns"),
    lower("txlog.append32_ns", "ns"),
    lower("txlog.read_ns", "ns"),
    lower("txlog.commit_over_injected_us", "us"),
    lower("txlog.quorum_ack_mean_us", "us"),
    lower("server.outside_node_mean_us", "us"),
    higher("server.cmds_per_batch", "ratio"),
    lower("server.reads_per_cmd", "ratio"),
    lower("server.writes_per_cmd", "ratio"),
    lower("server.parse_mean_us", "us"),
    lower("proc.io_cpu_us_per_op", "us"),
    lower("proc.node_cpu_us_per_op", "us"),
    lower("proc.committer_cpu_us_per_op", "us"),
    lower("proc.completer_cpu_us_per_op", "us"),
    lower("proc.txlog_cpu_us_per_op", "us"),
    lower("proc.other_cpu_us_per_op", "us"),
    lower("proc.io_ctxsw_per_op", "ratio"),
    lower("proc.commit_ctxsw_per_op", "ratio"),
    lower("proc.runq_wait_us_per_op", "us"),
    lower("alloc.calls_per_cmd", "count"),
    lower("alloc.bytes_per_cmd", "B"),
    lower("snapshot.full_s", "s"),
    lower("snapshot.delta_s", "s"),
    lower("snapshot.stored_bytes_per_user_byte", "ratio"),
    higher("objectstore.put_mb_s", "MB/s"),
    higher("objectstore.get_mb_s", "MB/s"),
    lower("restore.seq_s", "s"),
    lower("restore.image_s", "s"),
    higher("restore.replay_entries_per_s", "1/s"),
    lower("loadgen.late_p99_us", "us"),
    lower("loadgen.max_backlog", "count"),
    higher("loadgen.achieved_over_offered", "ratio"),
    higher("loadgen.sat_ops_per_s", "1/s"),
    lower("loadgen.p99_us", "us"),
    lower("loadgen.p999_us", "us"),
    lower("loadgen.max_us", "us"),
    lower("loadgen.hazard_read_share", "ratio"),
    lower("loadgen.steal_share", "ratio"),
    lower("loadgen.other_p50_us", "us"),
    lower("loadgen.other_p95_us", "us"),
    lower("loadgen.traced_p50_us", "us"),
    lower("loadgen.traced_p95_us", "us"),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
