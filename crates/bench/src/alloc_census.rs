//! Allocation census over the K=1 multiplexed GET/SET hot path, plus one
//! row for the restore path (allocations per restored key).
//!
//! BtrLog's low-concurrency thesis applies to the wire path too: at
//! pipeline depth 1 there is no batching to amortize anything, so
//! allocations-per-command is a direct proxy for the per-command constant
//! cost — and being a count, not a time, a 1-core CI box measures it
//! perfectly well. The harness drives a real multiplexed
//! [`memorydb_server::Server`] over loopback TCP with **pre-encoded wire
//! bytes** and `read_exact` reply verification, so the client side of the
//! loop allocates nothing and the census (the process-wide counters behind
//! [`memorydb_metrics::CountingAlloc`], registered as the global allocator
//! by the `alloc_census` binary) is dominated by the serve path under
//! test: socket sweep → decode → submit → execute → stage → encode.
//!
//! The `restore_16chunk` row counts one sequential `restore_replica_opts`
//! over a 16-chunk image of [`RESTORE_KEYS`] keys, per key: a restore that
//! indexes every key once pays for the key, the value and amortised table
//! growth — every extra pass over the keyspace shows up as whole
//! allocations per key, on any number of cores.
//!
//! There is deliberately **no core-count skip-guard** anywhere in this
//! module: this gate always runs.

use memorydb_core::restore::{restore_replica_opts, ReplayTarget, RestoreOptions};
use memorydb_core::{ClusterBus, Node, NodeIdGen, OffboxSnapshotter, Shard, ShardConfig};
use memorydb_engine::{cmd, EngineVersion, Frame, SessionState};
use memorydb_metrics::alloc_counts;
use memorydb_objectstore::ObjectStore;
use memorydb_server::Server;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One measured workload row.
#[derive(Debug, Clone)]
pub struct AllocRow {
    pub workload: &'static str,
    pub commands: u64,
    pub allocs_per_cmd: f64,
    pub bytes_per_cmd: f64,
}

/// Pre-PR baseline rows, measured on this CI box at the parent commit of
/// the zero-copy PR (owned `Vec<u8>` connection buffers, copying RESP
/// decode, per-batch `cmds[i].clone()`, `String` reply frames): the
/// numbers the ≥50%-fewer-allocations acceptance bar is judged against.
/// `(workload, allocs_per_cmd, bytes_per_cmd)`.
///
/// `restore_16chunk` was measured the same way at the parent commit of the
/// build-the-keyspace-once PR (per-chunk `Db` → merge → split → absorb,
/// each pass re-inserting every key into five hash tables).
pub const BASELINE: &[(&str, f64, f64)] = &[
    ("set_k1", 52.17, 4626.7),
    ("get_k1", 26.00, 1670.1),
    ("restore_16chunk", 5.16, 2353.0),
];

/// Pinned absolute budgets for the smoke gate, `(workload,
/// allocs_per_cmd)`. Set just above the measured post-PR steady state
/// (25.11 / 7.00 on this box, and 2.00 per restored key — the key and the
/// value): allocation counts are count-based, not time-based, so they
/// barely jitter, and one new allocation per command is a >3% move that
/// must fail the gate.
pub const ALLOC_BUDGET: &[(&str, f64)] =
    &[("set_k1", 26.0), ("get_k1", 9.0), ("restore_16chunk", 2.25)];

/// Keys in the image the `restore_16chunk` row restores.
pub const RESTORE_KEYS: u64 = 20_000;

/// Encodes one RESP command as wire bytes (flat array of bulk strings).
fn wire(parts: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(format!("*{}\r\n", parts.len()).as_bytes());
    for p in parts {
        out.extend_from_slice(format!("${}\r\n", p.len()).as_bytes());
        out.extend_from_slice(p);
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// One closed-loop phase: `commands` round-trips of `req`, each reply
/// byte-compared against `expect`. Returns (allocs, bytes) per command.
fn phase(stream: &mut TcpStream, req: &[u8], expect: &[u8], commands: u64) -> (f64, f64) {
    let mut reply = vec![0u8; expect.len()];
    // Warmup: first-touch buffer growth, engine key creation, metrics
    // bucket paging — none of that is steady-state per-command cost.
    for _ in 0..WARMUP {
        stream.write_all(req).expect("census write");
        stream.read_exact(&mut reply).expect("census read");
        assert_eq!(reply, expect, "unexpected reply during census warmup");
    }
    let before = alloc_counts();
    for _ in 0..commands {
        stream.write_all(req).expect("census write");
        stream.read_exact(&mut reply).expect("census read");
        assert_eq!(reply, expect, "unexpected reply during census");
    }
    let d = alloc_counts().since(before);
    (
        d.calls as f64 / commands as f64,
        d.bytes as f64 / commands as f64,
    )
}

const WARMUP: u64 = 500;
const VALUE: &[u8] = b"xxxxxxxxxxxxxxxx"; // 16B, matching the smoke sweep

/// Loads [`RESTORE_KEYS`] keys through the primary, cuts one full off-box
/// snapshot (16 chunks, log trimmed) and counts the allocations of one
/// sequential restore from it, per key.
fn restore_phase(shard: &Shard, primary: &Node) -> (f64, f64) {
    let mut session = SessionState::new();
    for i in 0..RESTORE_KEYS {
        let reply = primary.handle(&mut session, &cmd(["SET", &format!("key:{i:08}"), "value"]));
        assert_eq!(reply, Frame::ok(), "census load SET failed");
    }
    let ctx = shard.ctx();
    OffboxSnapshotter::new(Arc::clone(ctx), EngineVersion::CURRENT, 40_001)
        .create_snapshot(true)
        .expect("census snapshot must succeed");
    let tail = ctx.log.committed_tail();
    let before = alloc_counts();
    let rp = restore_replica_opts(
        &ctx.store,
        &ctx.log,
        70_001,
        &ctx.name,
        EngineVersion::CURRENT,
        ReplayTarget::Exactly(tail),
        RestoreOptions { workers: 1 },
    )
    .expect("census restore must succeed");
    let d = alloc_counts().since(before);
    // The GET/SET phases left their one key behind.
    assert_eq!(rp.engine.db.len() as u64, RESTORE_KEYS + 1);
    (
        d.calls as f64 / RESTORE_KEYS as f64,
        d.bytes as f64 / RESTORE_KEYS as f64,
    )
}

/// Runs the census: a fresh 1-node shard + multiplexed server, one K=1
/// connection, `commands` SETs then `commands` GETs of one 16-byte value,
/// then the restore row.
pub fn run(commands: u64) -> Vec<AllocRow> {
    let lease = Duration::from_secs(5);
    let shard = Shard::bootstrap(
        0,
        ShardConfig {
            lease,
            renew_interval: lease / 5,
            backoff: lease + lease / 10,
            ..ShardConfig::default()
        },
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    let primary = shard
        .wait_for_primary(3 * lease + Duration::from_secs(5))
        .expect("census shard must elect a primary");
    let mut server =
        Server::start(Arc::clone(&primary), "127.0.0.1:0").expect("census server must start");

    let mut stream = TcpStream::connect(server.local_addr).expect("census connect");
    stream.set_nodelay(true).expect("census nodelay");

    let set = wire(&[b"SET", b"k", VALUE]);
    let get = wire(&[b"GET", b"k"]);
    let get_reply = {
        let mut r = format!("${}\r\n", VALUE.len()).into_bytes();
        r.extend_from_slice(VALUE);
        r.extend_from_slice(b"\r\n");
        r
    };

    let (set_allocs, set_bytes) = phase(&mut stream, &set, b"+OK\r\n", commands);
    let (get_allocs, get_bytes) = phase(&mut stream, &get, &get_reply, commands);

    drop(stream);
    server.stop();
    let (restore_allocs, restore_bytes) = restore_phase(&shard, &primary);

    vec![
        AllocRow {
            workload: "set_k1",
            commands,
            allocs_per_cmd: set_allocs,
            bytes_per_cmd: set_bytes,
        },
        AllocRow {
            workload: "get_k1",
            commands,
            allocs_per_cmd: get_allocs,
            bytes_per_cmd: get_bytes,
        },
        AllocRow {
            workload: "restore_16chunk",
            commands: RESTORE_KEYS,
            allocs_per_cmd: restore_allocs,
            bytes_per_cmd: restore_bytes,
        },
    ]
}

/// The smoke gate. Always active — allocation counting needs exactly one
/// core, so there is no parallelism guard.
/// Each measured row must (a) stay under its pinned absolute budget and
/// (b) show ≥50% fewer allocations-per-command than the pre-PR baseline
/// row. Empty means pass.
pub fn gate_problems(rows: &[AllocRow]) -> Vec<String> {
    // NaN-hostile: an unset/NaN budget or measurement must FAIL the gate,
    // never slide through a comparison that silently returns false.
    fn within(x: f64, bound: f64) -> bool {
        matches!(
            x.partial_cmp(&bound),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    }
    let mut problems = Vec::new();
    for r in rows {
        let Some(&(_, base_allocs, _)) = BASELINE.iter().find(|(w, _, _)| *w == r.workload) else {
            problems.push(format!("{}: no baseline row", r.workload));
            continue;
        };
        let Some(&(_, budget)) = ALLOC_BUDGET.iter().find(|(w, _)| *w == r.workload) else {
            problems.push(format!("{}: no pinned budget", r.workload));
            continue;
        };
        if !within(r.allocs_per_cmd, budget) {
            problems.push(format!(
                "{}: {:.2} allocs/cmd exceeds the pinned budget {:.2}",
                r.workload, r.allocs_per_cmd, budget
            ));
        }
        if !within(r.allocs_per_cmd, 0.5 * base_allocs) {
            problems.push(format!(
                "{}: {:.2} allocs/cmd is not >=50% below the pre-PR baseline {:.2}",
                r.workload, r.allocs_per_cmd, base_allocs
            ));
        }
    }
    problems
}

/// Hand-rolled JSON: the committed baseline rows plus the current run.
pub fn to_json(rows: &[AllocRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"alloc_census\",\n");
    s.push_str(
        "  \"note\": \"K=1 multiplexed GET/SET over loopback TCP, pre-encoded \
         requests + read_exact replies (client side allocation-free); \
         restore_16chunk = one sequential restore_replica_opts over a 20K-key \
         16-chunk image, per restored key; counters from \
         memorydb_metrics::CountingAlloc as #[global_allocator]; gate runs on \
         1 core, no skip-guard\",\n",
    );
    s.push_str("  \"rows\": [\n");
    let mut lines = Vec::new();
    for (w, allocs, bytes) in BASELINE {
        lines.push(format!(
            "    {{\"phase\": \"baseline\", \"workload\": \"{w}\", \
             \"allocs_per_cmd\": {allocs:.2}, \"bytes_per_cmd\": {bytes:.1}}}"
        ));
    }
    for r in rows {
        lines.push(format!(
            "    {{\"phase\": \"current\", \"workload\": \"{}\", \
             \"commands\": {}, \"allocs_per_cmd\": {:.2}, \"bytes_per_cmd\": {:.1}}}",
            r.workload, r.commands, r.allocs_per_cmd, r.bytes_per_cmd
        ));
    }
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_encodes_flat_resp() {
        assert_eq!(
            wire(&[b"GET", b"k"]),
            b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n".to_vec()
        );
    }

    #[test]
    fn json_carries_baseline_and_current_rows() {
        let rows = vec![AllocRow {
            workload: "set_k1",
            commands: 10,
            allocs_per_cmd: 3.0,
            bytes_per_cmd: 128.0,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"bench\": \"alloc_census\""));
        assert!(json.contains("\"phase\": \"baseline\""));
        assert!(json.contains("\"phase\": \"current\""));
        assert_eq!(json.matches("\"workload\"").count(), BASELINE.len() + 1);
    }

    #[test]
    fn gate_flags_budget_and_baseline_misses() {
        let rows = vec![AllocRow {
            workload: "set_k1",
            commands: 10,
            allocs_per_cmd: 1e9,
            bytes_per_cmd: 1e9,
        }];
        let problems = gate_problems(&rows);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
