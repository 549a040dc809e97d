//! Off-box snapshotting and snapshot verification (paper §4.2.2, §7.2.1).
//!
//! Snapshots are never taken on customer nodes: an ephemeral **shadow
//! replica** — sharing only the durable data sources (object store and
//! transaction log) with the customer cluster — restores the latest
//! snapshot, replays the log to a tail position recorded at creation time,
//! and dumps a fresh snapshot. Because it is not part of the cluster, it
//! steals no CPU, no memory headroom, and no replica read capacity from
//! customer traffic (the Figure 7 result).
//!
//! Snapshots are **incremental** where possible: when the shadow replica
//! restored from the newest manifest chain and the chain is still short
//! (`ShardConfig::snapshot_max_chain`), only the slots the replayed suffix
//! dirtied are dumped, as a *delta* manifest whose `base` points at the
//! restored position. Otherwise a *full* snapshot is cut, chunked into
//! `ShardConfig::snapshot_chunks` slot ranges so restore can fetch and load
//! them in parallel (see [`crate::manifest`]).
//!
//! Every new snapshot is **verified before it is made available**: the
//! shadow replica recomputes the running checksum while replaying and
//! cross-checks it against the checksum probes the primary injects into the
//! log; every produced chunk is then decoded, its key placement checked
//! against the live keyspace, and the manifest — whose chunk references
//! carry the checksums that decode verified — round-tripped (§7.2.1's
//! "rehearse restoring it"), all before anything is published.

use crate::manifest::{ChunkRef, SnapshotManifest};
use crate::node::ShardContext;
use crate::restore::{restore_replica_opts, ReplayTarget, RestoreError, RestoreOptions};
use crate::slotset::partition_slot_range;
use bytes::Bytes;
use memorydb_engine::rdb;
use memorydb_engine::{key_hash_slot, EngineVersion};
use memorydb_txlog::EntryId;
use std::sync::Arc;

/// Errors from an off-box snapshot run.
#[derive(Debug)]
pub enum OffboxError {
    /// Restoring the shadow replica failed (incl. checksum-probe mismatch
    /// during replay — the §7.2.1 verification failing).
    Restore(RestoreError),
    /// The freshly produced snapshot failed its own verification rehearsal.
    Verification(String),
}

impl std::fmt::Display for OffboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffboxError::Restore(e) => write!(f, "off-box restore failed: {e}"),
            OffboxError::Verification(e) => write!(f, "snapshot verification failed: {e}"),
        }
    }
}

impl std::error::Error for OffboxError {}

/// The off-box snapshotter: an ephemeral worker bound to one shard's
/// durable data sources.
pub struct OffboxSnapshotter {
    ctx: Arc<ShardContext>,
    /// Engine version the shadow replica runs. During rolling upgrades the
    /// control plane pins this to the OLDEST version in the cluster so
    /// old-engine nodes can still be re-seeded from the result (§7.1).
    version: EngineVersion,
    /// Txlog client id of the shadow replica.
    client_id: u64,
}

impl OffboxSnapshotter {
    /// Creates a snapshotter for a shard.
    pub fn new(
        ctx: Arc<ShardContext>,
        version: EngineVersion,
        client_id: u64,
    ) -> OffboxSnapshotter {
        OffboxSnapshotter {
            ctx,
            version,
            client_id,
        }
    }

    /// Runs one off-box snapshot cycle and returns the new snapshot's
    /// manifest store key and covered position. `trim_log` additionally
    /// trims the log prefix that is now safely re-derivable (§4.2.3).
    ///
    /// **Ordering contract (trim safety).** Publication is ordered: chunk
    /// blobs first, the manifest referencing them *last* — a manifest in
    /// the store implies its chunks are too. The log prefix is trimmed only
    /// *after* that, and the trim point is the covered position of the
    /// newest **full** snapshot — never a delta's. Consequences restorers
    /// may rely on:
    ///
    /// 1. Every committed entry is always reachable as (some stored
    ///    snapshot) + (the untrimmed log suffix): `first_available()` never
    ///    exceeds `newest_full.covered + 1`.
    /// 2. A restore that observes `ReadError::Trimmed` mid-replay raced a
    ///    concurrent snapshot+trim cycle, and a *fresher* snapshot covering
    ///    at least the trim point is already fetchable — retrying from the
    ///    latest snapshot always makes progress (see
    ///    [`crate::restore::restore_replica`]).
    /// 3. A delta chain that breaks (corrupt or lost intermediate) never
    ///    strands a restorer: the suffix above the newest full snapshot is
    ///    still in the log, so falling back to that full and replaying
    ///    reaches the same position the chain covered.
    ///
    /// Violating this order (trim first, put after; or trimming to a
    /// delta's covered) would open a window where a crash — or a single
    /// corrupt delta — loses the only copy of committed data.
    pub fn create_snapshot(&self, trim_log: bool) -> Result<(String, EntryId), OffboxError> {
        // (1) Record the tail at creation time, restore to exactly there —
        // a static data view guaranteed fresher than any previous snapshot.
        let tail = self.ctx.log.committed_tail();
        let rp = restore_replica_opts(
            &self.ctx.store,
            &self.ctx.log,
            self.client_id,
            &self.ctx.name,
            self.version,
            ReplayTarget::Exactly(tail),
            RestoreOptions {
                workers: self.ctx.cfg.restore_workers,
            },
        )
        .map_err(OffboxError::Restore)?;
        let seed = rp.seeded_from;

        // Nothing committed since the seed we restored from, and that seed
        // is the newest manifest in the store: re-publishing would create a
        // delta whose base is itself. Point at the existing manifest.
        if let Some(s) = seed {
            if s.newest && s.covered == rp.rs.applied {
                let key = SnapshotManifest::store_key(&self.ctx.name, s.covered);
                return Ok((key, s.covered));
            }
        }

        // (2) Full or delta? A delta may only extend the chain we actually
        // restored from, and only while that chain is the newest thing in
        // the store and still under the configured length bound.
        let max_chain = self.ctx.cfg.snapshot_max_chain;
        let delta_base =
            seed.filter(|s| s.newest && s.chain_len < max_chain && rp.rs.applied > s.covered);

        // (3) Choose chunk slot ranges. Full: an even partition of the slot
        // space. Delta: the slots the replayed suffix dirtied, coalesced to
        // at most `snapshot_chunks` ranges (coalescing pulls in clean slots
        // between dirty ones — their chunk data is current, so claims stay
        // correct, the chunks are just slightly bigger).
        let n_chunks = self.ctx.cfg.snapshot_chunks.max(1);
        let ranges: Vec<(u16, u16)> = match delta_base {
            None => (0..n_chunks)
                .map(|i| partition_slot_range(i, n_chunks))
                .collect(),
            Some(_) => coalesce_ranges(&rp.rs.dirty_slots.to_ranges(), n_chunks),
        };

        // (4) Dump every range in one pass over the keyspace.
        let covered = rp.rs.applied;
        let blobs: Vec<Bytes> = rdb::dump_slot_ranges(&rp.engine.db, &ranges)
            .into_iter()
            .map(Bytes::from)
            .collect();

        // (5) Verification rehearsal before publication (§7.2.1): every
        // chunk must decode and hold exactly the live keys of its slot
        // range — no more, no fewer — and the manifest must round-trip.
        // The decode that checks a chunk also yields the checksum its
        // manifest reference binds it by.
        let chunks = rehearse_chunks(&ranges, &blobs, &rp.engine.db, delta_base.is_none())?;
        let manifest = SnapshotManifest {
            covered,
            running_crc: rp.rs.running_crc,
            engine_version: self.version,
            epoch: rp.rs.epoch,
            slot_ranges: rp.rs.owned_slots.to_ranges(),
            blocked_slots: rp.rs.blocked_slots.iter().copied().collect(),
            base: delta_base.map_or(EntryId::ZERO, |s| s.covered),
            chain_len: delta_base.map_or(0, |s| s.chain_len + 1),
            chunks,
        };
        let reparsed = SnapshotManifest::decode(&manifest.encode())
            .map_err(|e| OffboxError::Verification(e.to_string()))?;
        if reparsed != manifest {
            return Err(OffboxError::Verification(
                "manifest did not round-trip".into(),
            ));
        }

        // (6) Publication: chunks first, manifest last. The manifest is the
        // publication point — only verified, fully-uploaded snapshots are
        // ever visible to a restorer.
        for (chunk, blob) in manifest.chunks.iter().zip(&blobs) {
            let key = SnapshotManifest::chunk_key(&self.ctx.name, covered, chunk.lo, chunk.hi);
            self.ctx.store.put(&key, blob.clone());
        }
        let key = SnapshotManifest::store_key(&self.ctx.name, covered);
        self.ctx.store.put(&key, manifest.encode());

        if trim_log {
            // Trim to the newest FULL snapshot only: a delta's prefix must
            // stay replayable in case its chain breaks (consequence 3).
            let trim_to = delta_base.map_or(covered, |s| s.full_covered);
            self.ctx.log.trim_prefix(trim_to);
        }
        Ok((key, covered))
    }
}

/// §7.2.1 rehearsal: decode every chunk as a restorer would — same decoder,
/// no keyspace built — and cross-check its contents against the live
/// keyspace: each chunk must hold exactly as many keys as the live per-slot
/// counts say its range has, every one of them inside that range, and a
/// `full` snapshot must hold them all. Returns the chunk references, each
/// carrying the payload checksum that decode just verified.
fn rehearse_chunks(
    ranges: &[(u16, u16)],
    blobs: &[Bytes],
    db: &memorydb_engine::Db,
    full: bool,
) -> Result<Vec<ChunkRef>, OffboxError> {
    let mut chunks = Vec::with_capacity(ranges.len());
    let mut total = 0usize;
    for (&(lo, hi), blob) in ranges.iter().zip(blobs) {
        let fail = |what: &dyn std::fmt::Display| {
            OffboxError::Verification(format!("chunk {lo}-{hi}: {what}"))
        };
        let want: usize = (lo..=hi).map(|slot| db.count_keys_in_slot(slot)).sum();
        let mut got = 0usize;
        let mut entries = rdb::Entries::open(blob).map_err(|e| fail(&e))?;
        let crc = entries.payload_crc();
        for entry in &mut entries {
            let (key, _, _) = entry.map_err(|e| fail(&e))?;
            if !(lo..=hi).contains(&key_hash_slot(&key)) {
                return Err(fail(&"holds a key outside its slot range"));
            }
            got += 1;
        }
        if got != want {
            return Err(fail(&format!("rehearsal count mismatch: {got} vs {want}")));
        }
        total += got;
        chunks.push(ChunkRef {
            lo,
            hi,
            len: blob.len() as u64,
            crc,
        });
    }
    if full && total != db.len() {
        return Err(OffboxError::Verification(format!(
            "full snapshot ranges miss {} keys",
            db.len() - total
        )));
    }
    Ok(chunks)
}

/// Reduces a sorted, disjoint range list to at most `max` ranges by merging
/// across the smallest gaps first (keeping the `max - 1` largest gaps).
fn coalesce_ranges(ranges: &[(u16, u16)], max: usize) -> Vec<(u16, u16)> {
    if ranges.len() <= max || max == 0 {
        return ranges.to_vec();
    }
    let mut gaps: Vec<usize> = (0..ranges.len() - 1).collect();
    gaps.sort_by_key(|&i| std::cmp::Reverse(ranges[i + 1].0 - ranges[i].1));
    let keep: std::collections::HashSet<usize> = gaps.into_iter().take(max - 1).collect();
    let mut out = Vec::with_capacity(max);
    let mut cur = ranges[0];
    for (i, r) in ranges.iter().enumerate().skip(1) {
        if keep.contains(&(i - 1)) {
            out.push(cur);
            cur = *r;
        } else {
            cur.1 = r.1;
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_keeps_largest_gaps() {
        let ranges = vec![(0, 10), (12, 20), (100, 110), (112, 120), (500, 600)];
        // max 3: keep the two largest gaps (20→100 and 120→500).
        let out = coalesce_ranges(&ranges, 3);
        assert_eq!(out, vec![(0, 20), (100, 120), (500, 600)]);
        // max >= len: unchanged.
        assert_eq!(coalesce_ranges(&ranges, 5), ranges);
        // max 1: one covering range.
        assert_eq!(coalesce_ranges(&ranges, 1), vec![(0, 600)]);
        assert!(coalesce_ranges(&[], 4).is_empty());
    }
}
