//! A MemoryDB node: the in-memory engine wired to the transaction log.
//!
//! One [`Node`] is one database process. A primary executes commands,
//! intercepts the engine's effect stream, appends it to the shard's
//! transaction log, and **withholds replies until the log acknowledges
//! durability** (paper §3.2). Replicas consume the committed log and serve
//! sequentially consistent reads. Leader election runs purely against the
//! log's conditional-append API with leases (§4.1); no cluster quorum is
//! involved.
// Serving/apply path: panic-freedom is an enforced invariant (DESIGN.md §9;
// `cargo run -p memorydb-analysis`). Keep clippy aligned with the analyzer.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::apply::{apply_entry, fold_appended_payload, ReplicaState};
use crate::bus::{BusRole, ClusterBus};
use crate::config::ShardConfig;
use crate::pipeline::{CommitPipeline, Ticket, TicketOutcome};
use crate::record::{NodeId, Record, ShardId};
use crate::restore::{restore_replica_opts, ReplayTarget, RestoreOptions, RestorePoint};
use crate::tracker::Tracker;
use bytes::Bytes;
use memorydb_engine::exec::Role;
use memorydb_engine::{DirtySet, EffectCmd, Engine, SessionState};
use memorydb_metrics::{GaugeId, Registry};
use memorydb_objectstore::ObjectStore;
use memorydb_txlog::{AppendError, EntryId, LogService, ReadError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Everything a node needs to know about its shard's environment.
pub struct ShardContext {
    /// Shard identifier within the cluster.
    pub shard_id: ShardId,
    /// Human-readable shard name (object-store key prefix).
    pub name: String,
    /// The shard's transaction log.
    pub log: Arc<LogService>,
    /// The snapshot store (shared cluster-wide).
    pub store: Arc<ObjectStore>,
    /// The cluster bus (gossip).
    pub bus: Arc<ClusterBus>,
    /// Tunables.
    pub cfg: ShardConfig,
}

impl std::fmt::Debug for ShardContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardContext")
            .field("shard_id", &self.shard_id)
            .field("name", &self.name)
            .finish()
    }
}

/// Everything `st` guards. The serve path (`serve.rs`) and the commit side
/// (`commit.rs`) read and fold into it under the same lock.
pub(crate) struct NodeState {
    pub(crate) role: Role,
    pub(crate) rs: ReplicaState,
    pub(crate) tracker: Tracker,
    /// Primary: my lease is valid until here; I stop serving at expiry.
    pub(crate) lease_valid_until: Instant,
    /// Primary: a renewal staged but not yet confirmed durable. The ticket
    /// (not `is_durable` on the prospective id) is the confirmation: after
    /// a fence another leader's entry may occupy that id, and extending the
    /// lease from it would break lease disjointness.
    pending_renewal: Option<(Arc<Ticket>, Instant)>,
    /// Primary: when to append the next renewal.
    next_renewal_at: Instant,
    pub(crate) effects_since_probe: u64,
    pub(crate) demote_requested: bool,
    /// The engine executed mutations whose log append was REJECTED (fenced
    /// or partitioned): those keys are dirty but not hazard-tracked, so the
    /// node must not serve anything — not even reads — until the rebuild
    /// discards them. A timed-out append is different: its entries are in
    /// the log and in the tracker, so clean reads stay safe.
    pub(crate) state_poisoned: bool,
    /// A rebuild (restore from snapshot+log) is in progress.
    pub(crate) rebuilding: bool,
    /// Migration forwarding: writes to these slots are mirrored to the
    /// target shard's primary during the data-movement phase (§5.2).
    pub(crate) forward: HashMap<u16, Arc<Node>>,
}

/// Wall-clock milliseconds (the engine clock source in the threaded
/// runtime).
pub fn wall_ms() -> u64 {
    // A pre-epoch clock yields 0 rather than panicking the serving path.
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// A MemoryDB node (primary or replica).
pub struct Node {
    /// Globally unique node id (also its txlog client id).
    pub id: NodeId,
    pub(crate) ctx: Arc<ShardContext>,
    /// The engine behind its one lock (DESIGN.md §12): like Redis, commands
    /// execute strictly one at a time; the IO threads parallelise socket
    /// read, parse and reply write around it. Held through execution *and*
    /// the fold/stage step under `st`, so execution order equals fold order
    /// equals log order.
    pub(crate) engine: Mutex<Engine>,
    pub(crate) st: Mutex<NodeState>,
    pub(crate) alive: AtomicBool,
    /// Per-node observability: stage latency histograms, counters, and the
    /// slowlog ring surfaced by `INFO`/`SLOWLOG`/`LATENCY` (DESIGN.md §10).
    pub(crate) metrics: Arc<Registry>,
    /// Commit pipeline (DESIGN.md §11): staged runs awaiting the flush
    /// leader's coalesced append, and appended tickets awaiting the
    /// completer thread's watermark check.
    pub(crate) pipeline: Arc<CommitPipeline>,
    /// Group-commit leadership: whoever holds this drains the staged queue
    /// and appends. Serializing drain+append here is what keeps log order
    /// equal to fold order when submitters flush on their own thread.
    pub(crate) flush_token: Mutex<()>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("role", &self.role())
            .finish()
    }
}

impl Node {
    /// Starts a node from a restore point, spawning its run loop.
    pub fn start(ctx: Arc<ShardContext>, id: NodeId, rp: RestorePoint) -> Arc<Node> {
        let mut rs = rp.rs;
        // A fresh node always starts as a replica (paper §4.2) and must
        // wait out a full backoff before campaigning.
        rs.last_leadership_signal = Instant::now();
        let node = Arc::new(Node {
            id,
            ctx,
            engine: Mutex::new(rp.engine),
            st: Mutex::new(NodeState {
                role: Role::Replica,
                rs,
                tracker: Tracker::new(),
                lease_valid_until: Instant::now(),
                pending_renewal: None,
                next_renewal_at: Instant::now(),
                effects_since_probe: 0,
                demote_requested: false,
                state_poisoned: false,
                rebuilding: false,
                forward: HashMap::new(),
            }),
            alive: AtomicBool::new(true),
            metrics: Arc::new(Registry::new()),
            pipeline: Arc::new(CommitPipeline::new()),
            flush_token: Mutex::new(()),
        });
        let runner = Arc::clone(&node);
        // Baselined in analysis.toml: failing to spawn at node startup is a
        // boot error, not a serving-path panic — no lease is held yet.
        #[allow(clippy::expect_used)]
        std::thread::Builder::new()
            .name(format!("node-{id}"))
            .spawn(move || runner.run_loop())
            .expect("spawn node loop");
        let committer = Arc::clone(&node);
        #[allow(clippy::expect_used)]
        std::thread::Builder::new()
            .name(format!("node-{id}-committer"))
            .spawn(move || committer.committer_loop())
            .expect("spawn committer");
        let completer = Arc::clone(&node);
        #[allow(clippy::expect_used)]
        std::thread::Builder::new()
            .name(format!("node-{id}-completer"))
            .spawn(move || completer.completer_loop())
            .expect("spawn completer");
        node
    }

    /// Starts a brand-new node that restores itself from the object store
    /// and log (the path every recovering or scaling replica takes, §4.2.1).
    pub fn start_restored(
        ctx: Arc<ShardContext>,
        id: NodeId,
    ) -> Result<Arc<Node>, crate::restore::RestoreError> {
        Node::start_restored_with_version(ctx, id, memorydb_engine::EngineVersion::CURRENT)
    }

    /// Like [`Node::start_restored`] but pinning an engine version — used
    /// to stage mixed-version clusters for the §7.1 upgrade-protection
    /// scenarios.
    pub fn start_restored_with_version(
        ctx: Arc<ShardContext>,
        id: NodeId,
        version: memorydb_engine::EngineVersion,
    ) -> Result<Arc<Node>, crate::restore::RestoreError> {
        let mut rp = restore_replica_opts(
            &ctx.store,
            &ctx.log,
            id,
            &ctx.name,
            version,
            ReplayTarget::Tail,
            RestoreOptions {
                workers: ctx.cfg.restore_workers,
            },
        )?;
        // restore_replica builds the engine at `version` already; assert the
        // invariant here so a future refactor cannot silently drop it.
        debug_assert_eq!(rp.engine.version(), version);
        rp.engine.set_role(Role::Replica);
        Ok(Node::start(ctx, id, rp))
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.st.lock().role
    }

    /// Is this node the shard primary with a currently valid lease?
    ///
    /// A primary with a pending demotion (fenced append, voluntary release)
    /// no longer counts: its in-memory state may contain executed-but-
    /// uncommitted mutations that the rebuild is about to discard.
    pub fn is_active_primary(&self) -> bool {
        let st = self.st.lock();
        st.role == Role::Primary
            && Instant::now() < st.lease_valid_until
            && !st.rebuilding
            && !st.demote_requested
    }

    /// Last applied (or appended) log position.
    pub fn applied(&self) -> EntryId {
        self.st.lock().rs.applied
    }

    /// Current leadership epoch.
    pub fn epoch(&self) -> u64 {
        self.st.lock().rs.epoch
    }

    /// Running checksum over everything applied so far — equal positions
    /// must have equal checksums on every node (the convergence invariant
    /// the chaos harness asserts).
    pub fn running_crc(&self) -> u64 {
        self.st.lock().rs.running_crc
    }

    /// Applied position and running checksum read under one lock (an
    /// un-torn pair — reading them separately can interleave with apply).
    pub fn position(&self) -> (EntryId, u64) {
        let st = self.st.lock();
        (st.rs.applied, st.rs.running_crc)
    }

    /// Why this node stopped consuming the log, if it did.
    pub fn halted(&self) -> Option<crate::apply::HaltReason> {
        self.st.lock().rs.halted.clone()
    }

    /// Number of keys currently dirtied by unpersisted writes.
    pub fn pending_writes(&self) -> usize {
        self.st.lock().tracker.pending_keys()
    }

    /// The shard context (tests & controllers).
    pub fn ctx(&self) -> &Arc<ShardContext> {
        &self.ctx
    }

    /// In-flight window occupancy (entries, bytes) — regression-test
    /// visibility into the exactly-once release accounting.
    #[cfg(test)]
    pub(crate) fn pipeline_inflight(&self) -> (usize, usize) {
        self.pipeline.inflight()
    }

    /// This node's metrics registry (stage histograms, counters, slowlog).
    /// The server layer records its IO/parse stages here so one registry
    /// holds the full per-request breakdown; the transaction log keeps its
    /// own (see [`LogService::metrics`]).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Simulates a hard crash: the run loop exits, the node stops serving.
    /// No parked reply is left hanging: the committer flushes what is still
    /// staged, and the completer resolves every appended ticket as
    /// ambiguous and exits within one 50 ms slice — a dead node acks
    /// nothing more, whether or not the log is still committing.
    pub fn crash(&self) {
        self.alive.store(false, Ordering::SeqCst);
        self.ctx.bus.remove(self.id);
        self.pipeline.notify_all();
    }

    /// Is the node alive (not crashed)?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Requests voluntary demotion (used by tests and scaling).
    pub fn request_demotion(&self) {
        self.st.lock().demote_requested = true;
    }

    /// Collaborative leadership transfer (§5.2): the primary appends a
    /// lease release, letting observers campaign immediately, then demotes.
    /// Returns whether the release was durably recorded.
    pub fn release_leadership(&self) -> bool {
        let ticket = {
            let mut st = self.st.lock();
            if st.role != Role::Primary || st.state_poisoned || st.rebuilding {
                return false;
            }
            let rec = Record::LeaseRelease {
                node: self.id,
                epoch: st.rs.epoch,
            };
            self.stage_internal_locked(&mut st, rec.encode_framed(), None)
        };
        let ok = matches!(
            ticket.wait(self.ticket_wait_cap()),
            Some(TicketOutcome::Durable)
        );
        self.st.lock().demote_requested = true;
        ok
    }

    /// Upper bound on any single ticket wait: generous enough that the
    /// pipeline threads always resolve first (the completer enforces
    /// `commit_timeout`), yet finite so a caller can never hang even if
    /// the node died mid-flight.
    pub(crate) fn ticket_wait_cap(&self) -> Duration {
        self.ctx.cfg.commit_timeout * 2 + Duration::from_secs(1)
    }

    // ---------------------------------------------------------------------
    // Migration support (used by the migration controller, §5.2)
    // ---------------------------------------------------------------------

    /// Applies a batch of effect commands *as a primary* and logs the
    /// realized effects as one atomic record. With `lenient`, individual
    /// command errors are skipped (data-movement forwarding may race the
    /// key snapshot; the final `RESTORE` and the integrity handshake make
    /// the end state exact). Returns the appended entry (or the current
    /// position when nothing was logged).
    pub fn ingest_effects(&self, cmds: &[EffectCmd], lenient: bool) -> Result<EntryId, String> {
        let mut engine = self.engine.lock();
        let mut st = self.st.lock();
        if st.role != Role::Primary {
            return Err("not the primary".into());
        }
        if st.state_poisoned || st.rebuilding {
            return Err("uncommitted state pending rebuild".into());
        }
        engine.set_time_ms(wall_ms());
        let mut effects: Vec<EffectCmd> = Vec::new();
        let mut dirty = DirtySet::None;
        let mut session = SessionState::new();
        for cmd in cmds {
            let out = engine.execute(&mut session, cmd);
            if out.reply.is_error() && !lenient {
                return Err(format!("effect {cmd:?} failed: {:?}", out.reply));
            }
            effects.extend(out.effects);
            dirty.merge(out.dirty);
        }
        if effects.is_empty() {
            return Ok(st.rs.applied);
        }
        let record = Record::Effects {
            version: engine.version(),
            effects,
        };
        // Staged on the commit pipeline like any client mutation (a fenced
        // flush poisons the state); the migration controller drains via
        // `max_pending_write` before any ownership transfer.
        let ticket = self.stage_internal_locked(&mut st, record.encode_framed(), Some(&dirty));
        Ok(ticket.last_id())
    }

    /// Durably appends a control record (migration 2PC messages). Blocks
    /// until committed. The record's semantics are also applied to this
    /// primary's own state (primaries do not consume their own log).
    pub fn commit_record(&self, record: &Record) -> Result<EntryId, String> {
        let ticket = {
            let mut engine = self.engine.lock();
            let mut st = self.st.lock();
            if st.role != Role::Primary {
                return Err("not the primary".into());
            }
            if st.state_poisoned || st.rebuilding {
                return Err("uncommitted state pending rebuild".into());
            }
            let ticket = self.stage_internal_locked(&mut st, record.encode_framed(), None);
            // Mirror the consumer-side semantics locally (primaries do not
            // consume their own log). Optimistic like the fold: a fenced
            // flush poisons the state and the rebuild discards this.
            match record {
                Record::MigrationPrepare { slot, .. } => {
                    st.rs.blocked_slots.insert(*slot);
                }
                Record::MigrationCommit { slot, .. } => {
                    st.rs.owned_slots.insert(*slot);
                }
                Record::MigrationDone { slot } => {
                    st.rs.blocked_slots.remove(slot);
                    st.rs.owned_slots.remove(*slot);
                    // Deleting the handed-off data dirties the slot relative
                    // to any earlier snapshot (mirrors the consumer fold).
                    st.rs.dirty_slots.insert(*slot);
                    engine.db.delete_slot(*slot);
                }
                Record::MigrationAbort { slot } => {
                    st.rs.blocked_slots.remove(slot);
                }
                Record::SlotOwnership { ranges } => {
                    st.rs.owned_slots = crate::slotset::SlotSet::from_ranges(ranges);
                }
                _ => {}
            }
            ticket
        };
        match ticket.wait(self.ticket_wait_cap()) {
            Some(TicketOutcome::Durable) => Ok(ticket.last_id()),
            Some(TicketOutcome::Poisoned(e)) => Err(format!("log append failed: {e}")),
            _ => {
                self.st.lock().demote_requested = true;
                Err("control record did not commit".into())
            }
        }
    }

    /// Serializes every key in `slot` (with expiry) for transfer.
    pub fn serialize_slot(&self, slot: u16) -> Vec<(Bytes, Vec<u8>)> {
        let engine = self.engine.lock();
        let mut out = Vec::new();
        for key in engine.db.keys_in_slot(slot) {
            // Serialize physical state including logically-expired entries;
            // the target inherits the same expiry.
            if let Some((value, expiry)) = engine
                .db
                .lookup(&key, 0)
                .map(|v| (v.clone(), engine.db.expiry(&key)))
            {
                out.push((key, memorydb_engine::rdb::serialize_entry(&value, expiry)));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Keys currently stored in a slot.
    pub fn slot_keys(&self, slot: u16) -> Vec<Bytes> {
        self.engine.lock().db.keys_in_slot(slot)
    }

    /// Digest of a slot's content for the §5.2 integrity handshake.
    pub fn slot_digest(&self, slot: u16) -> (usize, u64) {
        let entries = self.serialize_slot(slot);
        let mut crc = memorydb_engine::rdb::Crc64::new();
        for (key, blob) in &entries {
            crc.update(key);
            crc.update(blob);
        }
        (entries.len(), crc.digest())
    }

    /// Starts/stops mirroring writes for a slot to a migration target.
    pub fn set_forward(&self, slot: u16, target: Option<Arc<Node>>) {
        let mut st = self.st.lock();
        match target {
            Some(t) => {
                st.forward.insert(slot, t);
            }
            None => {
                st.forward.remove(&slot);
            }
        }
    }

    /// Locally blocks writes to a slot ahead of the durable
    /// `MigrationPrepare` record (the source primary's immediate gate).
    pub fn block_slot_local(&self, slot: u16, blocked: bool) {
        let mut st = self.st.lock();
        if blocked {
            st.rs.blocked_slots.insert(slot);
        } else {
            st.rs.blocked_slots.remove(&slot);
        }
    }

    /// The highest staged-but-unacked write, to drain before ownership
    /// transfer.
    pub fn max_pending_write(&self) -> Option<EntryId> {
        self.st.lock().tracker.max_pending()
    }

    /// Does this node currently own `slot`?
    pub fn owns_slot(&self, slot: u16) -> bool {
        self.st.lock().rs.owned_slots.contains(slot)
    }

    /// Owned slots as ranges (CLUSTER SLOTS-style).
    pub fn owned_ranges(&self) -> Vec<(u16, u16)> {
        self.st.lock().rs.owned_slots.to_ranges()
    }

    // ---------------------------------------------------------------------
    // Snapshots
    // ---------------------------------------------------------------------

    /// A consistent cut of this node's state: `(covered, running_crc,
    /// keyspace dump)` taken under the engine lock — the reference the
    /// primary fold ≡ replica replay ≡ cold restore tests compare. Stored
    /// snapshots are taken off-box, see `offbox.rs`.
    pub fn capture_snapshot(&self) -> (EntryId, u64, Vec<u8>) {
        let engine = self.engine.lock();
        let st = self.st.lock();
        (
            st.rs.applied,
            st.rs.running_crc,
            memorydb_engine::rdb::dump(&engine.db),
        )
    }

    /// Approximate dataset size in bytes (snapshot scheduling input).
    pub fn dataset_bytes(&self) -> usize {
        self.engine.lock().db.used_memory()
    }

    /// Number of keys stored.
    pub fn key_count(&self) -> usize {
        self.engine.lock().db.len()
    }

    // ---------------------------------------------------------------------
    // Run loop: replication, election, lease maintenance
    // ---------------------------------------------------------------------

    fn run_loop(self: Arc<Node>) {
        while self.alive.load(Ordering::SeqCst) {
            let role = {
                let st = self.st.lock();
                st.role
            };
            match role {
                Role::Replica => self.replica_step(),
                Role::Primary => self.primary_step(),
            }
            let role_now = self.st.lock().role;
            self.ctx.bus.heartbeat(
                self.id,
                self.ctx.shard_id,
                match role_now {
                    Role::Primary => BusRole::Primary,
                    Role::Replica => BusRole::Replica,
                },
            );
        }
        self.ctx.bus.remove(self.id);
    }

    fn replica_step(&self) {
        let cfg = &self.ctx.cfg;
        let (applied, halted) = {
            let st = self.st.lock();
            (st.rs.applied, st.rs.halted.is_some())
        };

        if halted {
            // Upgrade-stalled or corrupt: stay passive (§7.1).
            std::thread::sleep(cfg.tick);
            return;
        }

        match self
            .ctx
            .log
            .wait_for_entries(self.id, applied, 256, cfg.tick)
        {
            Ok(entries) if !entries.is_empty() => {
                let mut engine = self.engine.lock();
                let mut st = self.st.lock();
                engine.set_time_ms(wall_ms());
                let version = engine.version();
                for entry in &entries {
                    if entry.id != st.rs.applied.next() {
                        break; // raced with a state swap; re-read next tick
                    }
                    if apply_entry(&mut engine, &mut st.rs, entry, version).is_err() {
                        break;
                    }
                }
            }
            Ok(_) => {}
            Err(ReadError::Trimmed { .. }) => {
                // Fell behind a trim: restore from snapshot + log (§4.2.1).
                self.rebuild();
                return;
            }
            Err(ReadError::Partitioned) => {
                std::thread::sleep(cfg.tick);
            }
        }

        // Replica staleness: committed entries this replica has not yet
        // applied (the monitor also samples this cluster-wide).
        let tail = self.ctx.log.committed_tail().0;
        let applied_now = self.st.lock().rs.applied.0;
        self.metrics.set_gauge(
            GaugeId::ReplicaStalenessEntries,
            tail.saturating_sub(applied_now) as i64,
        );

        // Election check (§4.1.3): campaign when no leadership signal has
        // been observed for a full backoff (strictly greater than the
        // lease), or immediately after a voluntary release.
        let now = Instant::now();
        let campaign = {
            let st = self.st.lock();
            st.rs.halted.is_none()
                && (st.rs.release_observed
                    || now.duration_since(st.rs.last_leadership_signal) >= cfg.backoff)
        };
        if campaign {
            self.try_campaign();
        }
    }

    fn try_campaign(&self) {
        let cfg = &self.ctx.cfg;
        let (claim_at, epoch, payload) = {
            let st = self.st.lock();
            let epoch = st.rs.epoch + 1;
            let rec = Record::LeaderClaim {
                node: self.id,
                epoch,
                lease_ms: cfg.lease.as_millis() as u64,
            };
            (st.rs.applied, epoch, rec.encode_framed())
        };
        let t0 = Instant::now();
        match self
            .ctx
            .log
            .append_after(self.id, claim_at, payload.clone())
        {
            Ok(id) => {
                // Serve only after the claim itself is durable.
                if self.ctx.log.wait_durable(id, cfg.commit_timeout) {
                    let mut engine = self.engine.lock();
                    let mut st = self.st.lock();
                    // The append succeeded at our applied tail, so we had
                    // observed every committed update — the §4.1.2
                    // consistent-failover guarantee.
                    fold_appended_payload(&mut st.rs, id, &payload, false);
                    st.rs.epoch = epoch;
                    st.rs.leader = Some(self.id);
                    st.rs.release_observed = false;
                    st.rs.last_leadership_signal = Instant::now();
                    st.role = Role::Primary;
                    engine.set_role(Role::Primary);
                    st.lease_valid_until = t0 + cfg.lease;
                    st.next_renewal_at = t0 + cfg.renew_interval;
                    st.pending_renewal = None;
                    st.tracker.reset();
                    st.tracker.advance_committed(id);
                    st.demote_requested = false;
                    // A stale poison resolution (from a pre-rebuild flush)
                    // may have landed while we were a replica; winning the
                    // campaign proves our state is exactly the log prefix.
                    st.state_poisoned = false;
                    drop(st);
                    drop(engine);
                    self.metrics.set_gauge(GaugeId::LeaseEpoch, epoch as i64);
                    self.ctx
                        .bus
                        .heartbeat(self.id, self.ctx.shard_id, BusRole::Primary);
                }
                // If the claim did not commit in time we stay a replica;
                // the replication loop will apply our own claim entry when
                // it eventually commits and backoff restarts from there.
            }
            Err(AppendError::Conflict { .. }) => {
                // Not fully caught up, or another replica won: keep
                // consuming (§4.1.2 — only caught-up replicas can win).
            }
            Err(AppendError::Partitioned) => {}
        }
    }

    /// One active-expire pass (Redis's background expiration, §2.1): the
    /// primary reaps expired keys and replicates explicit `DEL`s so
    /// replicas converge without consulting their own clocks.
    fn active_expire(&self) {
        let mut engine = self.engine.lock();
        let mut st = self.st.lock();
        if st.role != Role::Primary || st.rebuilding || st.state_poisoned {
            return;
        }
        engine.set_time_ms(wall_ms());
        let effects = engine.active_expire_cycle(64);
        if effects.is_empty() {
            return;
        }
        let dirty = DirtySet::Keys(effects.iter().filter_map(|e| e.get(1).cloned()).collect());
        let record = Record::Effects {
            version: engine.version(),
            effects,
        };
        // Fire-and-forget through the commit pipeline: the DELs are hazard-
        // tracked until commit, and a fenced flush poisons the state. Staged
        // while the engine lock is held, so fold order is execution order.
        let _ticket = self.stage_internal_locked(&mut st, record.encode_framed(), Some(&dirty));
    }

    fn primary_step(&self) {
        let cfg = &self.ctx.cfg;
        self.active_expire();
        let now = Instant::now();
        let mut demote = false;
        {
            let mut st = self.st.lock();
            // Confirm a pending renewal's durability: the lease extends
            // from the moment the renewal was *sent*, and only once its
            // ticket resolves durable. The ticket — not `is_durable` on the
            // prospective id — is the proof: after a fence, another
            // leader's entry may occupy that id.
            let renewal = st
                .pending_renewal
                .as_ref()
                .and_then(|(t, sent_at)| t.outcome().map(|o| (o, *sent_at)));
            if let Some((outcome, sent_at)) = renewal {
                st.pending_renewal = None;
                match outcome {
                    TicketOutcome::Durable => st.lease_valid_until = sent_at + cfg.lease,
                    // Fenced or ambiguous: never extend; demote.
                    _ => demote = true,
                }
            }
            // Decide demotion BEFORE staging any renewal: an expired
            // lease (or a requested demotion) means we are no longer the
            // leader, and appending a renewal past that point would reset
            // the replicas' election timers and delay the failover we are
            // supposed to be enabling.
            if st.demote_requested || now >= st.lease_valid_until {
                demote = true;
            }
            // Stage a renewal when due; the committer flushes it together
            // with any client mutations in the queue.
            if !demote
                && !st.state_poisoned
                && st.pending_renewal.is_none()
                && now >= st.next_renewal_at
            {
                let rec = Record::LeaseRenewal {
                    node: self.id,
                    epoch: st.rs.epoch,
                    lease_ms: cfg.lease.as_millis() as u64,
                };
                let ticket = self.stage_internal_locked(&mut st, rec.encode_framed(), None);
                st.pending_renewal = Some((ticket, now));
                st.next_renewal_at = now + cfg.renew_interval;
            }
            // The committer can detect fencing and request demotion at any
            // point; re-check before continuing to serve.
            if st.demote_requested {
                demote = true;
            }
            if !demote {
                st.tracker.advance_committed(self.ctx.log.committed_tail());
            }
        }
        if demote {
            self.rebuild();
        } else {
            std::thread::sleep(cfg.tick);
        }
    }

    /// Demotes to replica by rebuilding local state from the snapshot store
    /// plus the transaction log. A demoted primary may hold executed-but-
    /// uncommitted mutations; those must not stay visible (§3.2), and a full
    /// restore discards exactly them.
    fn rebuild(&self) {
        {
            let mut st = self.st.lock();
            st.rebuilding = true;
            st.role = Role::Replica;
            st.pending_renewal = None;
            st.demote_requested = false;
            st.forward.clear();
        }
        self.ctx
            .bus
            .heartbeat(self.id, self.ctx.shard_id, BusRole::Replica);
        while self.alive.load(Ordering::SeqCst) {
            let version = self.engine.lock().version();
            match restore_replica_opts(
                &self.ctx.store,
                &self.ctx.log,
                self.id,
                &self.ctx.name,
                version,
                ReplayTarget::Tail,
                RestoreOptions {
                    workers: self.ctx.cfg.restore_workers,
                },
            ) {
                Ok(rp) => {
                    // Engine and log-derived state swap under both locks, so
                    // no reader observes a mix of old and new state.
                    let mut engine = self.engine.lock();
                    let mut st = self.st.lock();
                    *engine = rp.engine;
                    st.rs = rp.rs;
                    st.rs.last_leadership_signal = Instant::now();
                    // A demoted primary defers to the other replicas even if
                    // it observed its own lease release during replay.
                    st.rs.release_observed = false;
                    st.tracker.reset();
                    st.state_poisoned = false;
                    st.rebuilding = false;
                    return;
                }
                Err(_) => {
                    // Likely partitioned from the log/store; retry.
                    std::thread::sleep(self.ctx.cfg.tick.max(Duration::from_millis(10)));
                }
            }
        }
    }
}
