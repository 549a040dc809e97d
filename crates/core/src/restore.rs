//! Data restoration (paper §4.2.1).
//!
//! Restoring is local to the restoring replica: fetch the latest verified
//! snapshot image from the object store (a chunked manifest chain, see
//! [`crate::manifest`]), then replay the transaction log suffix — never
//! talking to healthy peers, so any number of replicas can restore in
//! parallel without a centralized bottleneck.
//!
//! The keyspace is built once. With [`RestoreOptions::workers`] = `k`, the
//! image is decoded straight into `k` slot-range partitions (one worker
//! each, see [`crate::manifest`]), log replay folds control state
//! sequentially while fanning the data work out per partition — each
//! partition's queue preserves log order, and an effect's keys share one
//! slot, so every key sees its effects in log order — and the disjoint
//! partitions are finally moved, not re-inserted, into the one engine of the
//! [`RestorePoint`].

use crate::apply::{effect_slot, fold_entry_deferred, DeferredWork, HaltReason, ReplicaState};
use crate::manifest;
use crate::slotset::{partition_of, SlotSet};
use memorydb_engine::exec::Role;
use memorydb_engine::{EffectCmd, Engine, EngineVersion};
use memorydb_objectstore::ObjectStore;
use memorydb_txlog::{ClientId, EntryId, LogService, ReadError};
use std::time::Instant;

/// Knobs for a restore run.
#[derive(Debug, Clone, Copy)]
pub struct RestoreOptions {
    /// Slot-range partitions the image is decoded into and the log suffix
    /// is replayed on, one worker thread each.
    /// `0` = auto (one per available core), `1` = fully sequential.
    pub workers: usize,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions { workers: 1 }
    }
}

impl RestoreOptions {
    fn resolved_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Where the restored image was seeded from (None = empty store, replay
/// from the log head). The off-box snapshotter uses this to decide whether
/// an incremental snapshot may extend the chain it restored from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedInfo {
    /// Last log entry the seed image covered.
    pub covered: EntryId,
    /// Deltas above the full base (0 = full image).
    pub chain_len: u32,
    /// Covered position of the anchoring full snapshot.
    pub full_covered: EntryId,
    /// Whether the seed was the newest candidate in the store. False when
    /// restore fell back past a broken/corrupt newer candidate — extending
    /// such a seed with a delta would fork the chain, so the snapshotter
    /// forces a full snapshot instead.
    pub newest: bool,
}

/// A fully restored replica image: engine + log-derived state, positioned
/// at `rs.applied`.
pub struct RestorePoint {
    /// The restored execution engine (in replica role).
    pub engine: Engine,
    /// Log-derived state at the restore position.
    pub rs: ReplicaState,
    /// Provenance of the snapshot seed, if any.
    pub seeded_from: Option<SeedInfo>,
}

/// Errors during restoration.
#[derive(Debug)]
pub enum RestoreError {
    /// Snapshots exist but none passed integrity or structural checks.
    Snapshot(manifest::SnapshotError),
    /// The log suffix needed is unavailable (trimmed without a covering
    /// snapshot, or the client is partitioned).
    Log(ReadError),
    /// Replay halted (checksum mismatch / upgrade stall / broken effect).
    Halted(HaltReason),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Snapshot(e) => write!(f, "restore failed on snapshot: {e}"),
            RestoreError::Log(e) => write!(f, "restore failed on log: {e}"),
            RestoreError::Halted(e) => write!(f, "restore halted: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// How far to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayTarget {
    /// Replay at least to the committed tail as it stood when the restore
    /// attempt started, then stop. A live primary appends a lease renewal
    /// every `renew_interval`, so the tail never stands still: entries past
    /// that mark which arrive in the same read as it are applied, none is
    /// waited for, and the caller's replication loop takes over from
    /// `rs.applied`.
    Tail,
    /// Replay up to exactly this entry and stop — the off-box snapshotter's
    /// static data view (§4.2.2).
    Exactly(EntryId),
}

/// Restores a replica image for `shard_name` from the object store plus the
/// transaction log, fully sequentially. See [`restore_replica_opts`].
pub fn restore_replica(
    store: &ObjectStore,
    log: &LogService,
    client: ClientId,
    shard_name: &str,
    my_version: EngineVersion,
    target: ReplayTarget,
) -> Result<RestorePoint, RestoreError> {
    restore_replica_opts(
        store,
        log,
        client,
        shard_name,
        my_version,
        target,
        RestoreOptions::default(),
    )
}

/// Restores a replica image for `shard_name` from the object store plus the
/// transaction log.
///
/// With `ReplayTarget::Tail` the returned state covers everything committed
/// before the call; the caller's replication loop continues from
/// `rs.applied`.
///
/// **Trim races.** An off-box snapshotter may publish a snapshot and trim
/// the log prefix *between* our snapshot fetch and a replay read, making the
/// suffix we were replaying unavailable mid-restore. The snapshotter's
/// ordering contract (put-before-trim, see [`crate::offbox`]) guarantees a
/// `Trimmed` error implies a newer snapshot covering at least the trim point
/// is already in the store — so the correct response is to start over from
/// that fresher snapshot, not to fail. The same bound covers a *broken
/// incremental chain*: the log is only ever trimmed to the newest **full**
/// snapshot's covered position, so when a delta manifest's chain no longer
/// resolves, the candidate walk in [`crate::manifest::fetch_latest_image`]
/// falls back to that full snapshot and the (untrimmed) suffix above it.
/// Retries are bounded: each one requires a whole snapshot+trim cycle to
/// land inside our replay window, so repeated losses indicate a trimming
/// policy violation and surface as the final `Trimmed` error rather than
/// looping forever.
#[allow(clippy::too_many_arguments)]
pub fn restore_replica_opts(
    store: &ObjectStore,
    log: &LogService,
    client: ClientId,
    shard_name: &str,
    my_version: EngineVersion,
    target: ReplayTarget,
    opts: RestoreOptions,
) -> Result<RestorePoint, RestoreError> {
    const MAX_TRIM_RETRIES: usize = 5;
    let workers = opts.resolved_workers();
    let mut attempt = 0;
    loop {
        match restore_replica_once(store, log, client, shard_name, my_version, target, workers) {
            Err(RestoreError::Log(ReadError::Trimmed { .. })) if attempt < MAX_TRIM_RETRIES => {
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn restore_replica_once(
    store: &ObjectStore,
    log: &LogService,
    client: ClientId,
    shard_name: &str,
    my_version: EngineVersion,
    target: ReplayTarget,
    workers: usize,
) -> Result<RestorePoint, RestoreError> {
    // Where replay may stop, and (`Exactly` only) where a read is clipped.
    let (stop_at, upper) = match target {
        ReplayTarget::Tail => (log.committed_tail(), None),
        ReplayTarget::Exactly(id) => (id, Some(id)),
    };
    let mut rs = ReplicaState::new();
    let mut seeded_from = None;
    let k = workers.max(1);
    let mut parts: Vec<Engine> = (0..k)
        .map(|_| Engine::with_version(Role::Replica, my_version))
        .collect();

    // Step 1: newest restorable snapshot image, if any (§4.2.1 "loads a
    // recent point-in-time snapshot"), decoded directly into the `k`
    // partitions replay runs on; a corrupt newest candidate degrades to the
    // next older restorable one.
    if let Some(image) =
        manifest::fetch_latest_image(store, shard_name, k).map_err(RestoreError::Snapshot)?
    {
        seeded_from = Some(SeedInfo {
            covered: image.covered,
            chain_len: image.chain_len,
            full_covered: image.full_covered,
            newest: image.newest,
        });
        for (part, db) in parts.iter_mut().zip(image.parts) {
            part.db = db;
        }
        rs.applied = image.covered;
        rs.running_crc = image.running_crc;
        rs.epoch = image.epoch;
        rs.owned_slots = SlotSet::from_ranges(&image.slot_ranges);
        rs.blocked_slots = image.blocked_slots.iter().copied().collect();
    }

    // Step 2: replay the log suffix ("replays subsequent transactions").
    // Each batch folds control state sequentially and drains the deferred
    // data work per partition concurrently.
    'replay: loop {
        if rs.applied >= stop_at {
            break;
        }
        let batch = log
            .read_committed_from(client, rs.applied, 512)
            .map_err(RestoreError::Log)?;
        if batch.is_empty() {
            match target {
                ReplayTarget::Tail => break,
                ReplayTarget::Exactly(limit) => {
                    // The target entry must commit eventually; wait for it.
                    let more = log
                        .wait_for_entries(
                            client,
                            rs.applied,
                            512,
                            std::time::Duration::from_millis(100),
                        )
                        .map_err(RestoreError::Log)?;
                    if more.is_empty() && rs.applied < limit {
                        continue;
                    }
                    if !apply_batch_partitioned(
                        &mut parts,
                        &mut rs,
                        &more,
                        my_version,
                        Some(limit),
                    )? {
                        break 'replay;
                    }
                    continue;
                }
            }
        }
        if !apply_batch_partitioned(&mut parts, &mut rs, &batch, my_version, upper)? {
            break 'replay;
        }
    }
    // Restoration is replay of already-persisted data: nothing it "applied"
    // is a fresh leadership signal, so reset the election timer reference.
    rs.last_leadership_signal = Instant::now();

    // Move the partitions into one engine: they are disjoint, so every
    // entry moves exactly once, into a table sized for all of them.
    let total: usize = parts.iter().map(|p| p.db.len()).sum();
    let mut parts_it = parts.into_iter();
    let Some(mut engine) = parts_it.next() else {
        return Err(RestoreError::Halted(HaltReason::EffectFailed(
            "restore produced no engine partitions".into(),
        )));
    };
    engine.db.reserve(total - engine.db.len());
    for p in parts_it {
        engine.db.absorb(p.db);
    }
    Ok(RestorePoint {
        engine,
        rs,
        seeded_from,
    })
}

/// One unit of deferred per-partition work, in log order within its queue.
enum PartitionTask {
    Effect(EffectCmd),
    DeleteSlot(u16),
}

/// Applies a batch against the partitioned engines. Control state folds
/// sequentially (checksums, probes, leadership, ownership must see exact
/// log order); the data work each entry defers is queued per partition and
/// drained concurrently afterwards — per-partition queue order equals log
/// order, so the fold-order invariant holds within every partition.
///
/// Returns `Ok(false)` when replay must stop because the consumer
/// upgrade-stalled (§7.1) — the node still boots, parked at its last
/// safely-applied position with `rs.halted` set; work deferred by entries
/// before the stall is still drained. Corruption-class halts remain hard
/// errors and discard the whole restore attempt.
fn apply_batch_partitioned(
    parts: &mut [Engine],
    rs: &mut ReplicaState,
    batch: &[memorydb_txlog::LogEntry],
    my_version: EngineVersion,
    upper: Option<EntryId>,
) -> Result<bool, RestoreError> {
    let k = parts.len();
    let mut queues: Vec<Vec<PartitionTask>> = (0..k).map(|_| Vec::new()).collect();
    let mut keep_going = true;
    let mut hard_halt = None;
    for entry in batch {
        if let Some(limit) = upper {
            if entry.id > limit {
                break;
            }
        }
        match fold_entry_deferred(rs, entry, my_version) {
            Ok(DeferredWork::None) => {}
            Ok(DeferredWork::Effects(effects)) => {
                for eff in effects {
                    enqueue_effect(&mut queues, eff);
                }
            }
            Ok(DeferredWork::DeleteSlot(slot)) => {
                if let Some(q) = queues.get_mut(partition_of(slot, k)) {
                    q.push(PartitionTask::DeleteSlot(slot));
                }
            }
            // `fold_entry_deferred` has already recorded the halt in
            // `rs.halted` and left `rs.applied` before the offending entry.
            Err(HaltReason::StalledUpgrade(_)) => {
                keep_going = false;
                break;
            }
            Err(halt) => {
                hard_halt = Some(halt);
                break;
            }
        }
    }
    // Entries folded before any stop are applied: drain their queued work.
    drain_queues(parts, queues).map_err(RestoreError::Halted)?;
    if let Some(halt) = hard_halt {
        return Err(RestoreError::Halted(halt));
    }
    Ok(keep_going)
}

/// Routes one effect to its partition queue: keyed effects go to the
/// partition owning the key's slot, `FLUSHALL`/`FLUSHDB` to every
/// partition, other keyless effects to the first.
fn enqueue_effect(queues: &mut [Vec<PartitionTask>], eff: EffectCmd) {
    let k = queues.len();
    if let Some(slot) = effect_slot(&eff) {
        if let Some(q) = queues.get_mut(partition_of(slot, k)) {
            q.push(PartitionTask::Effect(eff));
        }
    } else if eff.first().is_some_and(|name| {
        name.eq_ignore_ascii_case(b"FLUSHALL") || name.eq_ignore_ascii_case(b"FLUSHDB")
    }) {
        for q in queues.iter_mut() {
            q.push(PartitionTask::Effect(eff.clone()));
        }
    } else if let Some(q) = queues.first_mut() {
        q.push(PartitionTask::Effect(eff));
    }
}

/// Drains every partition's queue; one worker thread per non-empty queue
/// when there is more than one partition, inline otherwise.
fn drain_queues(parts: &mut [Engine], queues: Vec<Vec<PartitionTask>>) -> Result<(), HaltReason> {
    if parts.len() <= 1 {
        for (part, queue) in parts.iter_mut().zip(queues) {
            run_queue(part, queue).map_err(HaltReason::EffectFailed)?;
        }
        return Ok(());
    }
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter_mut()
            .zip(queues)
            .map(|(part, queue)| s.spawn(move || run_queue(part, queue)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("restore worker panicked".into()))
            })
            .collect()
    });
    for r in results {
        r.map_err(HaltReason::EffectFailed)?;
    }
    Ok(())
}

fn run_queue(part: &mut Engine, queue: Vec<PartitionTask>) -> Result<(), String> {
    for task in queue {
        match task {
            PartitionTask::Effect(eff) => part.apply_effect(&eff)?,
            PartitionTask::DeleteSlot(slot) => {
                part.db.delete_slot(slot);
            }
        }
    }
    Ok(())
}
