//! Incremental snapshot manifests and chain resolution (DESIGN.md §14).
//!
//! The one snapshot format. Uploading the whole dataset when only a sliver
//! changed between snapshot cycles does not scale, so a snapshot is a small
//! **manifest** plus chunked per-slot-range **blobs**:
//!
//! * a **full** manifest (`chain_len == 0`, `base == EntryId::ZERO`) chunks
//!   the entire keyspace into contiguous slot ranges;
//! * a **delta** manifest chunks only the slots dirtied since its `base`
//!   snapshot (the dirty-slot bitmap the replica state maintains at fold
//!   time), and names that base by covered position;
//! * chains are bounded: after `snapshot_max_chain` deltas the off-box
//!   snapshotter forces a full snapshot, so restore cost and blast radius
//!   of a lost base stay bounded.
//!
//! Restoration resolves the chain newest → oldest down to its full base and
//! decodes the chunks straight into the slot-range partitions log replay
//! runs on (one worker per partition when the restore is configured with
//! workers), newest manifest first: once a newer manifest's chunk has
//! claimed a slot range, older data in those slots is ignored — which is
//! also how deletions propagate, since a dirtied-but-now-empty slot still
//! claims its range.
//!
//! Store layout:
//!
//! ```text
//! snapmeta/{shard}/{covered:020}                 manifest (publication point)
//! snapchunk/{shard}/{covered:020}/{lo:05}-{hi:05} chunk blob (RDB format)
//! ```
//!
//! Chunks are uploaded **before** their manifest: a manifest in the store
//! implies every chunk it references is fetchable (the same
//! publication-point discipline as put-before-trim, see [`crate::offbox`]).

use crate::slotset::{partition_slot_range, SlotSet};
use bytes::Bytes;
use memorydb_engine::rdb::{self, crc64};
use memorydb_engine::{key_hash_slot, Db, EngineVersion};
use memorydb_objectstore::ObjectStore;
use memorydb_txlog::EntryId;

/// Manifest v2. v1 (`MDSM`) recorded a whole-blob chunk CRC that was zero
/// by construction; it fails the magic check like any foreign blob.
const MAGIC: &[u8; 4] = b"MDS2";

/// Errors decoding or verifying a snapshot manifest or one of its chunks.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The blob is structurally invalid or its checksum fails.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Longest base-pointer walk we will follow before declaring a cycle. Far
/// above any real `snapshot_max_chain`; guards against a corrupted or
/// adversarial manifest graph.
const MAX_CHAIN_WALK: usize = 1024;

/// One chunk of a snapshot: the keys of slot range `lo..=hi` at the
/// manifest's covered position, stored as an RDB-format blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRef {
    /// First slot of the inclusive range.
    pub lo: u16,
    /// Last slot of the inclusive range.
    pub hi: u16,
    /// Size of the stored blob in bytes.
    pub len: u64,
    /// CRC64 of the blob's payload — every byte before its 8-byte trailer,
    /// i.e. the value that trailer stores (verified before decode on
    /// restore). Together with `len` it binds the reference to one chunk's
    /// content: a stale or swapped blob at the same key fails the check.
    pub crc: u64,
}

/// A snapshot manifest: the metadata of one (full or delta) snapshot plus
/// references to its chunk blobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotManifest {
    /// Last transaction-log entry included in this image.
    pub covered: EntryId,
    /// Running checksum of the record payload sequence through `covered`.
    pub running_crc: u64,
    /// Engine version that produced the image (§7.1).
    pub engine_version: EngineVersion,
    /// Leadership epoch at snapshot time (diagnostics).
    pub epoch: u64,
    /// Slot ownership at snapshot time, as inclusive ranges.
    pub slot_ranges: Vec<(u16, u16)>,
    /// Slots blocked mid-migration at snapshot time.
    pub blocked_slots: Vec<u16>,
    /// Covered position of the snapshot this delta builds on;
    /// `EntryId::ZERO` for a full snapshot.
    pub base: EntryId,
    /// Number of deltas between this manifest and its full base (0 = full).
    pub chain_len: u32,
    /// The chunk blobs making up the image, ascending disjoint slot ranges.
    pub chunks: Vec<ChunkRef>,
}

impl SnapshotManifest {
    /// Whether this manifest is a chain-anchoring full snapshot.
    pub fn is_full(&self) -> bool {
        self.chain_len == 0
    }

    /// Object-store key of a shard's manifest at a covered position;
    /// zero-padded so lexicographic order equals log order.
    pub fn store_key(shard_name: &str, covered: EntryId) -> String {
        format!("snapmeta/{shard_name}/{:020}", covered.0)
    }

    /// Object-store key of one chunk blob of a manifest.
    pub fn chunk_key(shard_name: &str, covered: EntryId, lo: u16, hi: u16) -> String {
        format!("snapchunk/{shard_name}/{:020}/{lo:05}-{hi:05}", covered.0)
    }

    /// Serializes the manifest for the object store.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(64 + self.chunks.len() * 20);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.covered.0.to_le_bytes());
        out.extend_from_slice(&self.running_crc.to_le_bytes());
        out.extend_from_slice(&self.engine_version.major.to_le_bytes());
        out.extend_from_slice(&self.engine_version.minor.to_le_bytes());
        out.extend_from_slice(&self.engine_version.patch.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.base.0.to_le_bytes());
        out.extend_from_slice(&self.chain_len.to_le_bytes());
        out.extend_from_slice(&(self.slot_ranges.len() as u32).to_le_bytes());
        for (lo, hi) in &self.slot_ranges {
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        out.extend_from_slice(&(self.blocked_slots.len() as u32).to_le_bytes());
        for s in &self.blocked_slots {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.lo.to_le_bytes());
            out.extend_from_slice(&c.hi.to_le_bytes());
            out.extend_from_slice(&c.len.to_le_bytes());
            out.extend_from_slice(&c.crc.to_le_bytes());
        }
        let crc = crc64(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        Bytes::from(out)
    }

    /// Parses and integrity-checks a blob produced by [`encode`]. Every
    /// declared count is validated against the remaining buffer before any
    /// allocation sized from it.
    ///
    /// [`encode`]: SnapshotManifest::encode
    pub fn decode(data: &[u8]) -> Result<SnapshotManifest, SnapshotError> {
        if data.len() < 4 + 8 + 8 + 6 + 8 + 8 + 4 + 4 + 4 + 4 + 8 {
            return Err(SnapshotError::Corrupt("manifest too short".into()));
        }
        let (payload, trailer) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        if crc64(payload) != stored {
            return Err(SnapshotError::Corrupt(
                "manifest envelope checksum mismatch".into(),
            ));
        }
        if &payload[..4] != MAGIC {
            return Err(SnapshotError::Corrupt("bad manifest magic".into()));
        }
        struct Cur<'a> {
            d: &'a [u8],
            p: usize,
        }
        impl<'a> Cur<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
                // Checked arithmetic: `n` comes from untrusted length fields,
                // so `p + n` must not be allowed to wrap before the range
                // check sees it.
                let end = self
                    .p
                    .checked_add(n)
                    .ok_or_else(|| SnapshotError::Corrupt("length overflow".into()))?;
                let out = self
                    .d
                    .get(self.p..end)
                    .ok_or_else(|| SnapshotError::Corrupt("truncated manifest".into()))?;
                self.p = end;
                Ok(out)
            }
            fn remaining(&self) -> usize {
                self.d.len().saturating_sub(self.p)
            }
            fn u16(&mut self) -> Result<u16, SnapshotError> {
                Ok(u16::from_le_bytes(
                    self.take(2)?.try_into().expect("2 bytes"),
                ))
            }
            fn u32(&mut self) -> Result<u32, SnapshotError> {
                Ok(u32::from_le_bytes(
                    self.take(4)?.try_into().expect("4 bytes"),
                ))
            }
            fn u64(&mut self) -> Result<u64, SnapshotError> {
                Ok(u64::from_le_bytes(
                    self.take(8)?.try_into().expect("8 bytes"),
                ))
            }
        }
        let mut c = Cur { d: payload, p: 4 };
        let covered = EntryId(c.u64()?);
        let running_crc = c.u64()?;
        let engine_version = EngineVersion::new(c.u16()?, c.u16()?, c.u16()?);
        let epoch = c.u64()?;
        let base = EntryId(c.u64()?);
        let chain_len = c.u32()?;
        if (chain_len == 0) != (base == EntryId::ZERO) {
            return Err(SnapshotError::Corrupt(
                "chain_len/base disagree on full vs delta".into(),
            ));
        }
        let nranges = c.u32()? as usize;
        if nranges > 16384 || nranges.saturating_mul(4) > c.remaining() {
            return Err(SnapshotError::Corrupt("too many slot ranges".into()));
        }
        let mut slot_ranges = Vec::with_capacity(nranges);
        for _ in 0..nranges {
            let lo = c.u16()?;
            let hi = c.u16()?;
            slot_ranges.push((lo, hi));
        }
        let nblocked = c.u32()? as usize;
        if nblocked > 16384 || nblocked.saturating_mul(2) > c.remaining() {
            return Err(SnapshotError::Corrupt("too many blocked slots".into()));
        }
        let mut blocked_slots = Vec::with_capacity(nblocked);
        for _ in 0..nblocked {
            blocked_slots.push(c.u16()?);
        }
        let nchunks = c.u32()? as usize;
        if nchunks > 16384 || nchunks.saturating_mul(20) > c.remaining() {
            return Err(SnapshotError::Corrupt("too many chunks".into()));
        }
        let mut chunks = Vec::with_capacity(nchunks);
        let mut prev_hi: Option<u16> = None;
        for _ in 0..nchunks {
            let lo = c.u16()?;
            let hi = c.u16()?;
            let len = c.u64()?;
            let crc = c.u64()?;
            if lo > hi || hi >= memorydb_engine::NUM_SLOTS {
                return Err(SnapshotError::Corrupt("bad chunk slot range".into()));
            }
            if let Some(p) = prev_hi {
                if lo <= p {
                    return Err(SnapshotError::Corrupt(
                        "chunk ranges not ascending/disjoint".into(),
                    ));
                }
            }
            prev_hi = Some(hi);
            chunks.push(ChunkRef { lo, hi, len, crc });
        }
        if c.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing manifest bytes".into()));
        }
        Ok(SnapshotManifest {
            covered,
            running_crc,
            engine_version,
            epoch,
            slot_ranges,
            blocked_slots,
            base,
            chain_len,
            chunks,
        })
    }

    /// Fetches and verifies the manifest stored for `covered`, if present.
    pub fn fetch_at(
        store: &ObjectStore,
        shard_name: &str,
        covered: EntryId,
    ) -> Result<SnapshotManifest, SnapshotError> {
        let key = Self::store_key(shard_name, covered);
        let (_, blob) = store
            .get(&key)
            .map_err(|e| SnapshotError::Corrupt(format!("manifest {key}: {e}")))?;
        let m = Self::decode(&blob)?;
        if m.covered != covered {
            return Err(SnapshotError::Corrupt(format!(
                "manifest {key} claims covered {}",
                m.covered.0
            )));
        }
        Ok(m)
    }
}

/// A resolved incremental chain: manifests newest → oldest, the last one
/// full. Produced by [`resolve_chain`]; the restorable image is the merge
/// of the chunks newest-first.
#[derive(Debug, Clone)]
pub struct SnapshotChain {
    /// Manifests newest → oldest; `manifests[0]` is the chain head whose
    /// `covered`/`running_crc` seed the restored replica state, the last
    /// element is the anchoring full snapshot.
    pub manifests: Vec<SnapshotManifest>,
}

impl SnapshotChain {
    /// Covered position of the chain head.
    pub fn covered(&self) -> EntryId {
        self.manifests
            .first()
            .map(|m| m.covered)
            .unwrap_or(EntryId::ZERO)
    }

    /// Covered position of the anchoring full snapshot — the log position
    /// trims must never pass while deltas still build on it.
    pub fn full_covered(&self) -> EntryId {
        self.manifests
            .last()
            .map(|m| m.covered)
            .unwrap_or(EntryId::ZERO)
    }

    /// Deltas above the full base.
    pub fn chain_len(&self) -> u32 {
        self.manifests
            .first()
            .map(|m| m.chain_len)
            .unwrap_or_default()
    }
}

/// Walks base pointers from `head` down to its full snapshot. Fails —
/// without touching any chunk — when a base manifest is missing or corrupt,
/// when covered positions do not strictly decrease, or when the walk
/// exceeds [`MAX_CHAIN_WALK`]: a broken chain, which restoration answers by
/// falling back to an older candidate (ultimately the newest full).
pub fn resolve_chain(
    store: &ObjectStore,
    shard_name: &str,
    head: SnapshotManifest,
) -> Result<SnapshotChain, SnapshotError> {
    let mut manifests = vec![head];
    while let Some(last) = manifests.last() {
        if last.is_full() {
            break;
        }
        if manifests.len() >= MAX_CHAIN_WALK {
            return Err(SnapshotError::Corrupt("manifest chain too long".into()));
        }
        if last.base >= last.covered {
            return Err(SnapshotError::Corrupt(
                "manifest base does not precede it".into(),
            ));
        }
        let base = SnapshotManifest::fetch_at(store, shard_name, last.base)
            .map_err(|e| SnapshotError::Corrupt(format!("broken chain: {e}")))?;
        manifests.push(base);
    }
    Ok(SnapshotChain { manifests })
}

/// Covered positions of every manifest a shard has published, newest
/// first — the candidates a restore walks.
pub fn list_candidates(store: &ObjectStore, shard_name: &str) -> Vec<EntryId> {
    let mut out: Vec<EntryId> = store
        .list(&format!("snapmeta/{shard_name}/"))
        .iter()
        .filter_map(|meta| meta.key.rsplit('/').next()?.parse::<u64>().ok())
        .map(EntryId)
        .collect();
    out.sort_by_key(|&covered| std::cmp::Reverse(covered));
    out
}

/// A materialized point-in-time image — everything restore needs before log
/// replay.
#[derive(Debug)]
pub struct SnapshotImage {
    /// The keyspace at `covered`, as the `k` disjoint slot-range
    /// partitions ([`partition_of`]`(slot, k)`) the caller asked for.
    ///
    /// [`partition_of`]: crate::slotset::partition_of
    pub parts: Vec<Db>,
    /// Last transaction-log entry included.
    pub covered: EntryId,
    /// Running checksum through `covered`.
    pub running_crc: u64,
    /// Leadership epoch at snapshot time.
    pub epoch: u64,
    /// Slot ownership at snapshot time.
    pub slot_ranges: Vec<(u16, u16)>,
    /// Slots blocked mid-migration at snapshot time.
    pub blocked_slots: Vec<u16>,
    /// Deltas above the full base (0 when the image is/derives from a full).
    pub chain_len: u32,
    /// Covered position of the anchoring full snapshot.
    pub full_covered: EntryId,
    /// Whether the image came from the newest candidate in the store (a
    /// fallback past a broken newer candidate clears this; the off-box
    /// snapshotter then forces a full snapshot rather than extending a
    /// chain that is no longer the freshest).
    pub newest: bool,
}

/// Fetches the newest restorable snapshot image, degrading candidate by
/// candidate: a corrupt manifest, broken chain, or corrupt, mismatched or
/// unfetchable chunk fails only that candidate. The image comes back as
/// `partitions` (min 1) slot-range partitions, each decoded on its own
/// thread. Returns
/// `Ok(None)` on an empty store and the last error when candidates exist
/// but none restores.
pub fn fetch_latest_image(
    store: &ObjectStore,
    shard_name: &str,
    partitions: usize,
) -> Result<Option<SnapshotImage>, SnapshotError> {
    let candidates = list_candidates(store, shard_name);
    if candidates.is_empty() {
        return Ok(None);
    }
    let mut last_err = SnapshotError::Corrupt("no restorable snapshot".into());
    for (i, &covered) in candidates.iter().enumerate() {
        match materialize(store, shard_name, covered, partitions.max(1)) {
            Ok(mut image) => {
                image.newest = i == 0;
                return Ok(Some(image));
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Covered position of the newest snapshot whose *metadata* verifies: the
/// manifest chain resolves down to its full base. Cheap relative to
/// [`fetch_latest_image`] — chunk blobs are not fetched — so monitoring can
/// sample freshness without materializing a keyspace. `None` when no
/// candidate verifies.
pub fn newest_restorable_covered(store: &ObjectStore, shard_name: &str) -> Option<EntryId> {
    list_candidates(store, shard_name)
        .into_iter()
        .find(|&covered| {
            SnapshotManifest::fetch_at(store, shard_name, covered)
                .and_then(|head| resolve_chain(store, shard_name, head))
                .is_ok()
        })
}

/// Materializes the candidate at `covered` into an image (`newest` left
/// true; the caller that walked the candidate list sets it).
fn materialize(
    store: &ObjectStore,
    shard_name: &str,
    covered: EntryId,
    k: usize,
) -> Result<SnapshotImage, SnapshotError> {
    let head = SnapshotManifest::fetch_at(store, shard_name, covered)?;
    let chain = resolve_chain(store, shard_name, head)?;
    let parts = load_chain(store, shard_name, &chain, k)?;
    let full_covered = chain.full_covered();
    let chain_len = chain.chain_len();
    let Some(head) = chain.manifests.into_iter().next() else {
        return Err(SnapshotError::Corrupt("empty chain".into()));
    };
    Ok(SnapshotImage {
        parts,
        covered: head.covered,
        running_crc: head.running_crc,
        epoch: head.epoch,
        slot_ranges: head.slot_ranges,
        blocked_slots: head.blocked_slots,
        chain_len,
        full_covered,
        newest: true,
    })
}

/// Fetches one chunk blob, verifies it against its own trailer and — same
/// digest, same single checksum pass — its manifest reference, and decodes
/// its entries straight into `part`, skipping keys whose slot `keep`
/// rejects. A key
/// outside the chunk's declared slot range fails the chunk: partitioned
/// replay routes by slot, so a misplaced key would silently diverge.
fn load_chunk_into(
    part: &mut Db,
    store: &ObjectStore,
    shard_name: &str,
    covered: EntryId,
    chunk: &ChunkRef,
    keep: impl Fn(u16) -> bool,
) -> Result<(), SnapshotError> {
    let key = SnapshotManifest::chunk_key(shard_name, covered, chunk.lo, chunk.hi);
    let corrupt =
        |what: &dyn std::fmt::Display| SnapshotError::Corrupt(format!("chunk {key}: {what}"));
    let (_, blob) = store.get(&key).map_err(|e| corrupt(&e))?;
    let entries = rdb::Entries::open(&blob).map_err(|e| corrupt(&e))?;
    if blob.len() as u64 != chunk.len || entries.payload_crc() != chunk.crc {
        return Err(corrupt(&"does not match its manifest reference"));
    }
    part.reserve(entries.size_hint_capped());
    for entry in entries {
        let (k, value, expire_at) = entry.map_err(|e| corrupt(&e))?;
        let slot = key_hash_slot(&k);
        if !(chunk.lo..=chunk.hi).contains(&slot) {
            return Err(corrupt(&"holds a key outside its slot range"));
        }
        if keep(slot) {
            part.insert_loaded(k, value, expire_at);
        }
    }
    Ok(())
}

/// Builds partition `p` of `k` (the slots `partition_of` maps to `p`) from
/// the chain, newest manifest first: a slot range claimed by a newer
/// manifest masks older data in those slots — including deletions, because
/// an empty dirtied slot still claims its range. Only chunks overlapping
/// the partition's slot range are fetched at all.
fn load_partition(
    store: &ObjectStore,
    shard_name: &str,
    chain: &SnapshotChain,
    p: usize,
    k: usize,
) -> Result<Db, SnapshotError> {
    let (lo, hi) = partition_slot_range(p, k);
    let mut part = Db::new();
    let mut claimed = SlotSet::empty();
    for m in &chain.manifests {
        let mine = m.chunks.iter().filter(|c| c.lo <= hi && c.hi >= lo);
        for chunk in mine.clone() {
            load_chunk_into(&mut part, store, shard_name, m.covered, chunk, |slot| {
                (lo..=hi).contains(&slot) && !claimed.contains(slot)
            })?;
        }
        for chunk in mine {
            for slot in chunk.lo.max(lo)..=chunk.hi.min(hi) {
                claimed.insert(slot);
            }
        }
    }
    Ok(part)
}

/// Decodes the chain directly into the `k` slot-range partitions replay
/// runs on, one worker per partition when `k > 1`. Full snapshots are
/// chunked on the same [`partition_slot_range`] boundaries, so each worker reads
/// only its own chunks and the workers share nothing; a chunk straddling a
/// partition boundary (a delta range, or `k` not dividing the chunk count)
/// is decoded by each partition it overlaps, which keeps only its own keys.
fn load_chain(
    store: &ObjectStore,
    shard_name: &str,
    chain: &SnapshotChain,
    k: usize,
) -> Result<Vec<Db>, SnapshotError> {
    let k = k.max(1);
    if k == 1 {
        return Ok(vec![load_partition(store, shard_name, chain, 0, 1)?]);
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..k)
            .map(|p| scope.spawn(move || load_partition(store, shard_name, chain, p, k)))
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join().unwrap_or_else(|_| {
                    Err(SnapshotError::Corrupt("restore worker panicked".into()))
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> SnapshotManifest {
        SnapshotManifest {
            covered: EntryId(42),
            running_crc: 0xDEAD_BEEF,
            engine_version: EngineVersion::CURRENT,
            epoch: 7,
            slot_ranges: vec![(0, 16383)],
            blocked_slots: vec![9, 400],
            base: EntryId(17),
            chain_len: 2,
            chunks: vec![
                ChunkRef {
                    lo: 0,
                    hi: 100,
                    len: 321,
                    crc: 0x1111,
                },
                ChunkRef {
                    lo: 5000,
                    hi: 8191,
                    len: 4,
                    crc: 0x2222,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample_manifest();
        let back = SnapshotManifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert!(!back.is_full());
        let mut full = m.clone();
        full.base = EntryId::ZERO;
        full.chain_len = 0;
        let back = SnapshotManifest::decode(&full.encode()).unwrap();
        assert!(back.is_full());
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        let m = sample_manifest();
        let blob = m.encode().to_vec();
        // Flip a byte: envelope CRC catches it.
        let mut flipped = blob.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x55;
        assert!(SnapshotManifest::decode(&flipped).is_err());
        assert!(SnapshotManifest::decode(&blob[..11]).is_err());
        // Inconsistent full/delta markers.
        let mut bad = m.clone();
        bad.base = EntryId::ZERO; // chain_len still 2
        assert!(SnapshotManifest::decode(&bad.encode()).is_err());
        // Overlapping chunk ranges.
        let mut bad = m;
        bad.chunks[1].lo = 50;
        assert!(SnapshotManifest::decode(&bad.encode()).is_err());
    }

    #[test]
    fn keys_order_lexicographically() {
        let a = SnapshotManifest::store_key("s", EntryId(9));
        let b = SnapshotManifest::store_key("s", EntryId(10));
        assert!(a < b);
        let c = SnapshotManifest::chunk_key("s", EntryId(9), 0, 99);
        let d = SnapshotManifest::chunk_key("s", EntryId(9), 100, 200);
        assert!(c < d);
        assert!(a.starts_with("snapmeta/"));
        assert!(c.starts_with("snapchunk/"));
    }

    #[test]
    fn resolve_chain_walks_to_full_and_reports_breaks() {
        let store = ObjectStore::new();
        let mut full = sample_manifest();
        full.covered = EntryId(10);
        full.base = EntryId::ZERO;
        full.chain_len = 0;
        let mut d1 = sample_manifest();
        d1.covered = EntryId(20);
        d1.base = EntryId(10);
        d1.chain_len = 1;
        let mut d2 = sample_manifest();
        d2.covered = EntryId(30);
        d2.base = EntryId(20);
        d2.chain_len = 2;
        for m in [&full, &d1, &d2] {
            store.put(&SnapshotManifest::store_key("s", m.covered), m.encode());
        }
        let chain = resolve_chain(&store, "s", d2.clone()).unwrap();
        assert_eq!(chain.manifests.len(), 3);
        assert_eq!(chain.covered(), EntryId(30));
        assert_eq!(chain.full_covered(), EntryId(10));
        assert_eq!(chain.chain_len(), 2);
        // Removing the middle manifest breaks the chain.
        store.delete(&SnapshotManifest::store_key("s", EntryId(20)));
        assert!(resolve_chain(&store, "s", d2).is_err());
        // A full head resolves to itself without any store reads.
        let solo = resolve_chain(&ObjectStore::new(), "s", full).unwrap();
        assert_eq!(solo.manifests.len(), 1);
    }

    #[test]
    fn candidates_list_manifests_newest_first() {
        let store = ObjectStore::new();
        for covered in [30, 40, 10] {
            store.put(
                &SnapshotManifest::store_key("s", EntryId(covered)),
                Bytes::from_static(b"m"),
            );
        }
        // Chunk blobs and other shards' manifests are not candidates.
        store.put(
            &SnapshotManifest::chunk_key("s", EntryId(50), 0, 9),
            Bytes::from_static(b"c"),
        );
        store.put(
            &SnapshotManifest::store_key("s2", EntryId(60)),
            Bytes::from_static(b"m"),
        );
        assert_eq!(
            list_candidates(&store, "s"),
            vec![EntryId(40), EntryId(30), EntryId(10)]
        );
        assert!(list_candidates(&store, "other").is_empty());
    }
}
