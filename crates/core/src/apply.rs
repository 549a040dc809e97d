//! Shared log-application logic: how a consumer (replica, restoring node,
//! off-box snapshotter) folds transaction-log records into its state.
// Serving/apply path: panic-freedom is an enforced invariant (DESIGN.md §9;
// `cargo run -p memorydb-analysis`). Keep clippy aligned with the analyzer.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::record::{NodeId, Record};
use crate::slotset::SlotSet;
use bytes::Bytes;
use memorydb_engine::rdb::Crc64;
use memorydb_engine::{key_hash_slot, keys_for, DirtySet, EffectCmd, Engine, EngineVersion};
use memorydb_txlog::{EntryId, LogEntry};
use std::collections::HashSet;
use std::time::Instant;

/// Chains the running checksum over one more record payload (§7.2.1).
pub fn chain_crc(prev: u64, payload: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(&prev.to_le_bytes());
    c.update(payload);
    c.digest()
}

/// Why a consumer stopped applying the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaltReason {
    /// The stream was produced by a newer engine than this consumer runs
    /// (upgrade protection, §7.1). Carries the producer's version.
    StalledUpgrade(EngineVersion),
    /// A checksum probe did not match the locally recomputed running
    /// checksum — the log prefix and local state have diverged.
    ChecksumMismatch {
        /// Value carried in the probe.
        expected: u64,
        /// Value recomputed locally.
        actual: u64,
    },
    /// An effect failed to apply (deterministic replay broke).
    EffectFailed(String),
}

impl std::fmt::Display for HaltReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaltReason::StalledUpgrade(v) => {
                write!(
                    f,
                    "stream produced by newer engine {v}; consumption stopped"
                )
            }
            HaltReason::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "running checksum mismatch: log says {expected:#x}, local {actual:#x}"
                )
            }
            HaltReason::EffectFailed(e) => write!(f, "effect application failed: {e}"),
        }
    }
}

/// The log-derived state every consumer tracks alongside its engine.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    /// Last log entry applied (or, on a primary, appended).
    pub applied: EntryId,
    /// Running checksum through `applied`.
    pub running_crc: u64,
    /// Current leadership epoch.
    pub epoch: u64,
    /// Current leader, as learned from the log.
    pub leader: Option<NodeId>,
    /// Slots this shard owns.
    pub owned_slots: SlotSet,
    /// Slots whose writes are blocked mid-ownership-transfer (§5.2).
    pub blocked_slots: HashSet<u16>,
    /// Lease duration the current leader operates under.
    pub observed_lease_ms: u64,
    /// Local time the last leadership signal (claim/renewal) was applied —
    /// the replica's backoff timer is measured from here (§4.1.3).
    pub last_leadership_signal: Instant,
    /// The current leader voluntarily released its lease (collaborative
    /// transfer, §5.2); observers may campaign without waiting out backoff.
    pub release_observed: bool,
    /// Set when the consumer must stop applying (upgrade/corruption).
    pub halted: Option<HaltReason>,
    /// Slots whose data changed since this state was last seeded from a
    /// snapshot (or since boot, when no snapshot was loaded). Maintained at
    /// fold time on primaries and at apply time on consumers; a restore that
    /// replays the log suffix on top of a snapshot therefore ends with
    /// exactly the slots dirtied *since that snapshot* — the delta the
    /// incremental off-box snapshotter captures (DESIGN.md §14).
    pub dirty_slots: SlotSet,
}

impl ReplicaState {
    /// Fresh state at the beginning of the log.
    pub fn new() -> ReplicaState {
        ReplicaState {
            applied: EntryId::ZERO,
            running_crc: 0,
            epoch: 0,
            leader: None,
            owned_slots: SlotSet::empty(),
            blocked_slots: HashSet::new(),
            observed_lease_ms: 0,
            last_leadership_signal: Instant::now(),
            release_observed: false,
            halted: None,
            dirty_slots: SlotSet::empty(),
        }
    }

    /// Folds an executed command's dirty-key set into the dirty-slot bitmap
    /// (primaries call this next to [`fold_appended_payload`]; consumers get
    /// the equivalent marking inside [`fold_entry_deferred`]).
    pub fn mark_dirty(&mut self, dirty: &DirtySet) {
        match dirty {
            DirtySet::None => {}
            DirtySet::All => self.dirty_slots = SlotSet::full(),
            DirtySet::Keys(keys) => {
                for key in keys {
                    self.dirty_slots.insert(key_hash_slot(key));
                }
            }
        }
    }
}

impl Default for ReplicaState {
    fn default() -> Self {
        Self::new()
    }
}

/// The slot an effect touches, for routing and dirty-slot tracking: keyed
/// effects touch the slot of their first key (all of an effect's keys share
/// a slot — the primary enforced CROSSSLOT before logging, and effect
/// rewrites preserve the keys of the command they replace); keyless effects
/// touch no single slot.
pub(crate) fn effect_slot(eff: &EffectCmd) -> Option<u16> {
    keys_for(eff)
        .and_then(|keys| keys.into_iter().next())
        .map(|key| key_hash_slot(&key))
}

/// Data-changing work an entry defers to the engine after the control
/// fold. Produced by [`fold_entry_deferred`]; the immediate path
/// ([`apply_entry`]) executes it on the spot, the parallel restore queues it
/// per slot partition and drains the queues concurrently — per-partition
/// queue order equals log order.
pub(crate) enum DeferredWork {
    /// Nothing to run on an engine (pure control record).
    None,
    /// Version-checked effects, in log order.
    Effects(Vec<EffectCmd>),
    /// `MigrationDone`: delete the slot's data (§5.2).
    DeleteSlot(u16),
}

/// Folds one committed entry's *control* state into `rs` — decode, upgrade
/// gate, leadership/epoch, checksum chain + probe verification, slot
/// ownership, dirty-slot tracking — and returns the data-changing work to
/// run against the engine. The single source of truth for log application:
/// both the immediate apply and the parallel restore build on it.
///
/// On `Err` the halt is recorded in `rs.halted` and `rs.applied` does not
/// advance. On `Ok` the checksum and position have already advanced; a
/// caller whose engine-side application then fails must either roll those
/// two fields back (the immediate path does) or discard the whole state
/// (restore does).
pub(crate) fn fold_entry_deferred(
    rs: &mut ReplicaState,
    entry: &LogEntry,
    my_version: EngineVersion,
) -> Result<DeferredWork, HaltReason> {
    debug_assert_eq!(entry.id, rs.applied.next(), "entries must apply in order");
    // The frame check pins corruption to the exact record: a bad magic (an
    // unframed payload) or a CRC mismatch halts with the typed frame error
    // naming this entry, instead of a generic decode failure.
    let record = match Record::decode_framed(&entry.payload) {
        Ok(record) => record,
        Err(e) => {
            let halt = HaltReason::EffectFailed(format!("record at {}: {e}", entry.id));
            rs.halted = Some(halt.clone());
            return Err(halt);
        }
    };
    let mut work = DeferredWork::None;
    match record {
        Record::Effects { version, effects } => {
            // Upgrade protection (§7.1): an older engine must not interpret
            // a stream produced by a newer one.
            if !my_version.can_consume_stream_from(version) {
                let halt = HaltReason::StalledUpgrade(version);
                rs.halted = Some(halt.clone());
                return Err(halt);
            }
            for eff in &effects {
                // Dirty-slot tracking: a keyed effect dirties its slot; a
                // keyless one (FLUSHALL and kin) can touch anything.
                match effect_slot(eff) {
                    Some(slot) => rs.dirty_slots.insert(slot),
                    None => rs.dirty_slots = SlotSet::full(),
                }
            }
            work = DeferredWork::Effects(effects);
        }
        Record::LeaderClaim {
            node,
            epoch,
            lease_ms,
        } => {
            rs.epoch = epoch;
            rs.leader = Some(node);
            rs.observed_lease_ms = lease_ms;
            rs.last_leadership_signal = Instant::now();
            rs.release_observed = false;
        }
        Record::LeaseRenewal {
            node,
            epoch,
            lease_ms,
        } => {
            rs.epoch = epoch.max(rs.epoch);
            rs.leader = Some(node);
            rs.observed_lease_ms = lease_ms;
            rs.last_leadership_signal = Instant::now();
            rs.release_observed = false;
        }
        Record::LeaseRelease { node, .. } => {
            if rs.leader == Some(node) {
                rs.release_observed = true;
            }
        }
        Record::ChecksumProbe { crc } => {
            // Verify, do NOT fold the probe into the checksum.
            if crc != rs.running_crc {
                let halt = HaltReason::ChecksumMismatch {
                    expected: crc,
                    actual: rs.running_crc,
                };
                rs.halted = Some(halt.clone());
                return Err(halt);
            }
            rs.applied = entry.id;
            return Ok(DeferredWork::None);
        }
        Record::MigrationPrepare { slot, .. } => {
            rs.blocked_slots.insert(slot);
        }
        Record::MigrationCommit { slot, .. } => {
            rs.owned_slots.insert(slot);
        }
        Record::MigrationDone { slot } => {
            rs.blocked_slots.remove(&slot);
            rs.owned_slots.remove(slot);
            // Deleting the transferred data (§5.2) is a data change: the
            // slot is dirty relative to any earlier snapshot.
            rs.dirty_slots.insert(slot);
            work = DeferredWork::DeleteSlot(slot);
        }
        Record::MigrationAbort { slot } => {
            rs.blocked_slots.remove(&slot);
        }
        Record::SlotOwnership { ranges } => {
            rs.owned_slots = SlotSet::from_ranges(&ranges);
        }
    }
    rs.running_crc = chain_crc(rs.running_crc, &entry.payload);
    rs.applied = entry.id;
    Ok(work)
}

/// Applies one committed log entry to `(engine, rs)`.
///
/// Returns `Err` with the halt reason when consumption must stop; in that
/// case `rs.applied` does NOT advance past the offending entry and
/// `rs.halted` is set.
pub fn apply_entry(
    engine: &mut Engine,
    rs: &mut ReplicaState,
    entry: &LogEntry,
    my_version: EngineVersion,
) -> Result<(), HaltReason> {
    let (prev_applied, prev_crc) = (rs.applied, rs.running_crc);
    match fold_entry_deferred(rs, entry, my_version)? {
        DeferredWork::None => {}
        DeferredWork::Effects(effects) => {
            for eff in &effects {
                if let Err(e) = engine.apply_effect(eff) {
                    // A halted entry is not applied: undo the position/
                    // checksum advance the fold made (dirty-slot marks may
                    // stay — over-approximation is safe).
                    rs.applied = prev_applied;
                    rs.running_crc = prev_crc;
                    let halt = HaltReason::EffectFailed(e);
                    rs.halted = Some(halt.clone());
                    return Err(halt);
                }
            }
        }
        DeferredWork::DeleteSlot(slot) => {
            engine.db.delete_slot(slot);
        }
    }
    Ok(())
}

/// Convenience used by primaries when *appending*: fold a payload into a
/// running checksum exactly as consumers will (probes excluded).
pub fn fold_appended_payload(rs: &mut ReplicaState, id: EntryId, payload: &Bytes, is_probe: bool) {
    if !is_probe {
        rs.running_crc = chain_crc(rs.running_crc, payload);
    }
    rs.applied = id;
}

#[cfg(test)]
mod tests {
    use super::*;
    use memorydb_engine::cmd;
    use memorydb_engine::exec::{Role, SessionState};

    fn entry(id: u64, rec: &Record) -> LogEntry {
        LogEntry {
            id: EntryId(id),
            payload: rec.encode_framed(),
            chain_checksum: 0,
        }
    }

    #[test]
    fn effects_apply_and_advance() {
        let mut engine = Engine::new(Role::Replica);
        let mut rs = ReplicaState::new();
        let rec = Record::Effects {
            version: EngineVersion::CURRENT,
            effects: vec![cmd(["SET", "k", "v"])],
        };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(1, &rec),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert_eq!(rs.applied, EntryId(1));
        assert!(rs.running_crc != 0);
        let mut s = SessionState::new();
        assert_eq!(
            engine.execute(&mut s, &cmd(["GET", "k"])).reply,
            memorydb_engine::Frame::Bulk(Bytes::from_static(b"v"))
        );
    }

    #[test]
    fn newer_stream_halts_old_engine() {
        let mut engine = Engine::new(Role::Replica);
        let mut rs = ReplicaState::new();
        let rec = Record::Effects {
            version: EngineVersion::new(8, 0, 0),
            effects: vec![cmd(["SET", "k", "v"])],
        };
        let err = apply_entry(
            &mut engine,
            &mut rs,
            &entry(1, &rec),
            EngineVersion::CURRENT,
        )
        .unwrap_err();
        assert_eq!(err, HaltReason::StalledUpgrade(EngineVersion::new(8, 0, 0)));
        assert_eq!(rs.applied, EntryId::ZERO); // did not advance
        assert!(rs.halted.is_some());
        // A NEWER engine consumes an older stream fine.
        let mut rs2 = ReplicaState::new();
        apply_entry(
            &mut engine,
            &mut rs2,
            &entry(1, &rec),
            EngineVersion::new(8, 1, 0),
        )
        .unwrap();
    }

    #[test]
    fn checksum_probe_verifies() {
        let mut engine = Engine::new(Role::Replica);
        let mut rs = ReplicaState::new();
        let eff = Record::Effects {
            version: EngineVersion::CURRENT,
            effects: vec![cmd(["SET", "a", "1"])],
        };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(1, &eff),
            EngineVersion::CURRENT,
        )
        .unwrap();
        let good = Record::ChecksumProbe {
            crc: rs.running_crc,
        };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(2, &good),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert_eq!(rs.applied, EntryId(2));
        // A wrong probe halts consumption.
        let bad = Record::ChecksumProbe {
            crc: rs.running_crc ^ 1,
        };
        let err = apply_entry(
            &mut engine,
            &mut rs,
            &entry(3, &bad),
            EngineVersion::CURRENT,
        )
        .unwrap_err();
        assert!(matches!(err, HaltReason::ChecksumMismatch { .. }));
        assert_eq!(rs.applied, EntryId(2));
    }

    #[test]
    fn leadership_records_update_state() {
        let mut engine = Engine::new(Role::Replica);
        let mut rs = ReplicaState::new();
        let claim = Record::LeaderClaim {
            node: 7,
            epoch: 3,
            lease_ms: 500,
        };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(1, &claim),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert_eq!(rs.leader, Some(7));
        assert_eq!(rs.epoch, 3);
        assert_eq!(rs.observed_lease_ms, 500);
        let release = Record::LeaseRelease { node: 7, epoch: 3 };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(2, &release),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert!(rs.release_observed);
        // A renewal clears the release flag.
        let renew = Record::LeaseRenewal {
            node: 7,
            epoch: 3,
            lease_ms: 500,
        };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(3, &renew),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert!(!rs.release_observed);
    }

    #[test]
    fn migration_records_update_slots_and_delete_data() {
        let mut engine = Engine::new(Role::Replica);
        let mut rs = ReplicaState::new();
        let own = Record::SlotOwnership {
            ranges: vec![(0, 16383)],
        };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(1, &own),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert_eq!(rs.owned_slots.len(), 16384);

        // Put a key into some slot, then migrate that slot away.
        engine.apply_effect(&cmd(["SET", "foo", "v"])).unwrap();
        let slot = memorydb_engine::key_hash_slot(b"foo");
        let prep = Record::MigrationPrepare { slot, target: 9 };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(2, &prep),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert!(rs.blocked_slots.contains(&slot));
        let done = Record::MigrationDone { slot };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(3, &done),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert!(!rs.owned_slots.contains(slot));
        assert!(!rs.blocked_slots.contains(&slot));
        assert_eq!(engine.db.len(), 0, "transferred data deleted");

        // Receiving side.
        let commit = Record::MigrationCommit { slot, source: 1 };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(4, &commit),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert!(rs.owned_slots.contains(slot));

        // Abort path unblocks without disowning.
        let prep2 = Record::MigrationPrepare { slot, target: 9 };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(5, &prep2),
            EngineVersion::CURRENT,
        )
        .unwrap();
        let abort = Record::MigrationAbort { slot };
        apply_entry(
            &mut engine,
            &mut rs,
            &entry(6, &abort),
            EngineVersion::CURRENT,
        )
        .unwrap();
        assert!(rs.owned_slots.contains(slot));
        assert!(!rs.blocked_slots.contains(&slot));
    }

    #[test]
    fn primary_fold_matches_consumer_chain() {
        // The checksum a primary computes while appending must equal what a
        // consumer recomputes while applying.
        let mut engine = Engine::new(Role::Replica);
        let mut consumer = ReplicaState::new();
        let mut producer = ReplicaState::new();
        let recs = [
            Record::Effects {
                version: EngineVersion::CURRENT,
                effects: vec![cmd(["SET", "a", "1"])],
            },
            Record::LeaseRenewal {
                node: 1,
                epoch: 1,
                lease_ms: 100,
            },
            Record::Effects {
                version: EngineVersion::CURRENT,
                effects: vec![cmd(["DEL", "a"])],
            },
        ];
        for (i, rec) in recs.iter().enumerate() {
            let payload = rec.encode_framed();
            fold_appended_payload(&mut producer, EntryId(i as u64 + 1), &payload, false);
            apply_entry(
                &mut engine,
                &mut consumer,
                &entry(i as u64 + 1, rec),
                EngineVersion::CURRENT,
            )
            .unwrap();
        }
        assert_eq!(producer.running_crc, consumer.running_crc);
        assert_eq!(producer.applied, consumer.applied);
    }

    /// A v1 payload — the bare tag-level body, here a hand-built
    /// `[TAG_CHECKSUM][u64]` that would verify against a fresh state — is
    /// not a log record: replay halts with the bad-magic frame error naming
    /// the entry instead of applying it unchecked.
    #[test]
    fn unframed_v1_payload_halts_with_bad_magic_at_entry() {
        let mut engine = Engine::new(Role::Replica);
        let mut rs = ReplicaState::new();
        let mut raw = vec![5u8];
        raw.extend_from_slice(&0u64.to_le_bytes());
        let v1 = LogEntry {
            id: EntryId(1),
            payload: Bytes::from(raw),
            chain_checksum: 0,
        };
        let err = apply_entry(&mut engine, &mut rs, &v1, EngineVersion::CURRENT).unwrap_err();
        let HaltReason::EffectFailed(msg) = err else {
            panic!("expected EffectFailed, got {err:?}");
        };
        assert!(msg.contains("record at #1"), "names the entry: {msg}");
        assert!(
            msg.contains(&crate::record::FrameError::BadMagic.to_string()),
            "typed bad-magic error: {msg}"
        );
        assert_eq!(rs.applied, EntryId::ZERO);
        assert!(rs.halted.is_some());
    }

    /// A corrupted frame (flipped body byte) halts with the typed CRC
    /// error naming the exact entry — not a generic decode failure.
    #[test]
    fn corrupted_frame_halts_with_crc_error_at_entry() {
        let mut engine = Engine::new(Role::Replica);
        let mut rs = ReplicaState::new();
        let mut raw = Record::Effects {
            version: EngineVersion::CURRENT,
            effects: vec![cmd(["SET", "k", "v"])],
        }
        .encode_framed()
        .to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        let bad = LogEntry {
            id: EntryId(1),
            payload: Bytes::from(raw),
            chain_checksum: 0,
        };
        let err = apply_entry(&mut engine, &mut rs, &bad, EngineVersion::CURRENT).unwrap_err();
        let HaltReason::EffectFailed(msg) = err else {
            panic!("expected EffectFailed, got {err:?}");
        };
        assert!(msg.contains("record at #1"), "names the entry: {msg}");
        assert!(msg.contains("crc mismatch"), "typed CRC error: {msg}");
        assert_eq!(rs.applied, EntryId::ZERO);
    }

    /// Panic-freedom regression (analyzer invariant 1): malformed or
    /// truncated log payloads — exactly what a corrupted or adversarial log
    /// stream would feed a replica — must halt consumption with a typed
    /// error, never panic the apply path.
    #[test]
    fn garbage_log_payloads_halt_without_panicking() {
        let payloads: [&[u8]; 5] = [
            b"",                       // empty
            b"\xff\xff\xff\xff",       // no frame magic
            b"\x00",                   // truncated header
            b"{\"not\":\"a record\"}", // wrong encoding entirely
            &[0u8; 64],                // zero padding
        ];
        for (i, raw) in payloads.iter().enumerate() {
            let mut engine = Engine::new(Role::Replica);
            let mut rs = ReplicaState::new();
            let bad = LogEntry {
                id: EntryId(1),
                payload: Bytes::copy_from_slice(raw),
                chain_checksum: 0,
            };
            let err = apply_entry(&mut engine, &mut rs, &bad, EngineVersion::CURRENT);
            assert!(
                matches!(err, Err(HaltReason::EffectFailed(_))),
                "payload #{i} must halt with a typed error, got {err:?}"
            );
            assert_eq!(rs.applied, EntryId::ZERO, "payload #{i} must not advance");
            assert!(rs.halted.is_some(), "payload #{i} must mark the halt");
        }
    }
}
