//! Restore-MTTR sweep (§4.2, DESIGN.md §14): parallel per-slot restore vs
//! the sequential path, across dataset size × snapshot freshness.
//!
//! Each case builds a shard, loads `scale × base_keys` keys, takes an
//! off-box chunked snapshot (trimming the log), then commits a suffix of
//! `suffix_entries` further writes so the restore has both a snapshot image
//! to load and a log tail to replay. The measured quantity is the wall
//! clock of `restore_replica_opts` — chunk fetch/decode plus partitioned
//! suffix replay — once with one worker (the sequential baseline) and once
//! with a worker pool. The gate runs on any number of cores: both restores
//! must produce byte-identical dumps, and neither may take more than twice
//! as long as the other — partitioning must never cost a second pass over
//! the keyspace, whether or not there are cores to win from it. (The
//! cost-per-key gate is the allocation census's `restore_16chunk` row.)

use memorydb_core::restore::{restore_replica_opts, ReplayTarget, RestoreOptions};
use memorydb_core::{ClusterBus, NodeIdGen, OffboxSnapshotter, Shard, ShardConfig};
use memorydb_engine::{cmd, rdb, EngineVersion, Frame, SessionState};
use memorydb_objectstore::ObjectStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct RestoreMttrCase {
    /// Dataset multiplier over [`RestoreMttrParams::base_keys`].
    pub scale: usize,
    /// Entries committed after the snapshot (the staleness the restore
    /// must replay from the log).
    pub suffix_entries: usize,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct RestoreMttrParams {
    pub cases: Vec<RestoreMttrCase>,
    /// Keys at scale 1.
    pub base_keys: usize,
    /// SET payload size, bytes.
    pub value_bytes: usize,
    /// Worker-pool size for the parallel rows (0 = auto).
    pub workers: usize,
}

impl RestoreMttrParams {
    /// The full sweep the binary runs by default.
    pub fn full() -> RestoreMttrParams {
        RestoreMttrParams {
            cases: cross(&[1, 10], &[0, 2_000]),
            base_keys: 5_000,
            value_bytes: 64,
            workers: 0,
        }
    }

    /// A small sweep for CI, still spanning 1× → 10×.
    pub fn smoke() -> RestoreMttrParams {
        RestoreMttrParams {
            cases: cross(&[1, 10], &[0, 500]),
            base_keys: 1_000,
            value_bytes: 64,
            workers: 0,
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    }
}

/// Cartesian product, scale outermost so each freshness pair of one
/// dataset size runs back-to-back.
pub fn cross(scales: &[usize], suffixes: &[usize]) -> Vec<RestoreMttrCase> {
    let mut cases = Vec::new();
    for &scale in scales {
        for &suffix_entries in suffixes {
            cases.push(RestoreMttrCase {
                scale,
                suffix_entries,
            });
        }
    }
    cases
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct RestoreMttrRow {
    pub scale: usize,
    pub suffix_entries: usize,
    /// Keys in the restored image (snapshot + suffix; suffix writes hit
    /// fresh keys, so this is `scale × base_keys + suffix_entries`).
    pub keys: usize,
    /// Worker-pool size used for the parallel measurement.
    pub workers: usize,
    /// Sequential restore wall clock (workers = 1), best of three runs.
    pub seq_ms: f64,
    /// Parallel restore wall clock, best of three runs.
    pub par_ms: f64,
    /// `seq_ms / par_ms`.
    pub speedup: f64,
    /// Whether both restores dumped to the same bytes.
    pub identical: bool,
}

/// Runs the sweep. Each case gets a fresh single-node shard.
pub fn run(params: &RestoreMttrParams) -> Vec<RestoreMttrRow> {
    params.cases.iter().map(|c| run_case(c, params)).collect()
}

fn run_case(case: &RestoreMttrCase, params: &RestoreMttrParams) -> RestoreMttrRow {
    let shard = Shard::bootstrap(
        0,
        ShardConfig::fast(),
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
    let mut session = SessionState::new();
    let base = case.scale * params.base_keys;
    for i in 0..base {
        let reply = primary.handle(&mut session, &cmd(["SET", &format!("base{i}"), &value]));
        assert_eq!(reply, Frame::ok(), "bench load SET failed");
    }

    // Chunked off-box snapshot; trimming makes the restore snapshot-seeded
    // rather than a full log replay.
    let offbox = OffboxSnapshotter::new(Arc::clone(shard.ctx()), EngineVersion::CURRENT, 40_001);
    offbox
        .create_snapshot(true)
        .expect("bench snapshot must succeed");

    // Staleness: the suffix the restore replays from the log.
    for i in 0..case.suffix_entries {
        let reply = primary.handle(&mut session, &cmd(["SET", &format!("suffix{i}"), &value]));
        assert_eq!(reply, Frame::ok(), "bench suffix SET failed");
    }
    let want_keys = base + case.suffix_entries;
    let tail = shard.ctx().log.committed_tail();

    let workers = params.resolved_workers();
    let best_of_three = |workers: usize| {
        let (mut best, dump) = timed_restore(&shard, tail, workers, want_keys);
        for _ in 0..2 {
            best = best.min(timed_restore(&shard, tail, workers, want_keys).0);
        }
        (best, dump)
    };
    let (seq_ms, seq_dump) = best_of_three(1);
    let (par_ms, par_dump) = best_of_three(workers);

    RestoreMttrRow {
        scale: case.scale,
        suffix_entries: case.suffix_entries,
        keys: want_keys,
        workers,
        seq_ms,
        par_ms,
        speedup: if par_ms > 0.0 { seq_ms / par_ms } else { 0.0 },
        identical: seq_dump == par_dump,
    }
}

/// One restore at a fixed replay target, returning milliseconds and the
/// canonical dump of what it restored. Asserts the image is complete so a
/// fast-but-wrong restore can never win.
fn timed_restore(
    shard: &Shard,
    tail: memorydb_txlog::EntryId,
    workers: usize,
    want: usize,
) -> (f64, Vec<u8>) {
    let t0 = Instant::now();
    let rp = restore_replica_opts(
        &shard.ctx().store,
        &shard.ctx().log,
        70_000 + workers as u64,
        &shard.ctx().name,
        EngineVersion::CURRENT,
        ReplayTarget::Exactly(tail),
        RestoreOptions { workers },
    )
    .expect("bench restore must succeed");
    let elapsed = t0.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(
        rp.engine.db.len(),
        want,
        "restore (workers={workers}) produced an incomplete image"
    );
    assert_eq!(rp.rs.applied, tail, "restore stopped short of the target");
    (elapsed, rdb::dump(&rp.engine.db))
}

/// Gate, on every row and every host: the sequential and the parallel
/// restore must dump to identical bytes, and neither may exceed the other
/// by 2× (best of three runs each). Empty means pass.
pub fn gate_problems(rows: &[RestoreMttrRow]) -> Vec<String> {
    let mut problems = Vec::new();
    for r in rows {
        let case = format!(
            "{}x dataset ({} keys, suffix {}, {} workers)",
            r.scale, r.keys, r.suffix_entries, r.workers
        );
        if !r.identical {
            problems.push(format!(
                "{case}: sequential and parallel restores dumped different bytes"
            ));
        }
        // NaN-hostile: a comparison that is not provably true fails.
        let balanced = r.seq_ms <= 2.0 * r.par_ms && r.par_ms <= 2.0 * r.seq_ms;
        if !balanced {
            problems.push(format!(
                "{case}: {:.1}ms sequential vs {:.1}ms parallel — one path costs \
                 more than 2x the other",
                r.seq_ms, r.par_ms
            ));
        }
    }
    problems
}

/// Hand-rolled JSON encoding of the sweep (flat numeric rows).
pub fn to_json(params: &RestoreMttrParams, rows: &[RestoreMttrRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"restore_mttr\",\n");
    s.push_str(&format!("  \"base_keys\": {},\n", params.base_keys));
    s.push_str(&format!("  \"value_bytes\": {},\n", params.value_bytes));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scale\": {}, \"suffix_entries\": {}, \"keys\": {}, \
             \"workers\": {}, \"seq_ms\": {:.2}, \"par_ms\": {:.2}, \
             \"speedup\": {:.2}, \"identical\": {}}}{}\n",
            r.scale,
            r.suffix_entries,
            r.keys,
            r.workers,
            r.seq_ms,
            r.par_ms,
            r.speedup,
            r.identical,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` sweep as a CI test: every row restores a complete
    /// image at both worker counts (asserted inside `timed_restore`) and
    /// both restores dump to the same bytes. The 2× balance half of the
    /// gate is left to the binary: a test thread shares its cores with the
    /// rest of the suite.
    #[test]
    fn smoke_sweep_restores_completely_at_both_worker_counts() {
        let mut params = RestoreMttrParams::smoke();
        // Keep the CI test itself lean; the binary's --smoke runs the
        // full smoke shape.
        params.cases = cross(&[1, 4], &[0, 200]);
        params.base_keys = 400;
        params.workers = 4;
        let rows = run(&params);
        assert_eq!(rows.len(), params.cases.len());
        for r in &rows {
            assert!(
                r.seq_ms > 0.0 && r.par_ms > 0.0,
                "case {r:?} measured nothing"
            );
            assert_eq!(r.keys, r.scale * params.base_keys + r.suffix_entries);
            assert!(r.identical, "case {r:?}: dumps differ");
        }
        let json = to_json(&params, &rows);
        assert!(json.contains("\"bench\": \"restore_mttr\""));
        assert_eq!(json.matches("\"scale\"").count(), rows.len());
    }
}
