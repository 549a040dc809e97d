//! The one client command path (paper §3.2, DESIGN.md §11–§12): a batch
//! executes command by command under the engine lock — `admit` →
//! `node_local` → `Engine::execute` — and its mutations are staged on the
//! commit pipeline as one ticket
//! (`stage_batch`). The replies come back parked in a [`SubmittedBatch`];
//! finishing it installs or fails them by the ticket's outcome. Blocking
//! callers are submit + wait over this same path.
// Serving path: same panic-freedom bar as node.rs (DESIGN.md §9).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::apply::fold_appended_payload;
use crate::node::{wall_ms, Node, NodeState};
use crate::pipeline::{Ticket, TicketOutcome};
use crate::record::{Record, ShardId};
use bytes::Bytes;
use memorydb_engine::command::command_spec;
use memorydb_engine::exec::Role;
use memorydb_engine::{
    key_hash_slot, keys_for, CmdName, DirtySet, EffectCmd, Engine, ExecOutcome, Frame, SessionState,
};
use memorydb_metrics::{CounterId, StageId};
use memorydb_txlog::EntryId;
use parking_lot::MutexGuard;
use std::sync::Arc;
use std::time::Instant;

/// A batch that has executed and staged its mutations on the commit
/// pipeline, with the mutation replies still parked on its [`Ticket`]
/// (DESIGN.md §11). Produced by [`Node::handle_batch_submit`], consumed by
/// [`Node::try_finish`] / [`Node::wait_finish`].
#[derive(Default)]
pub struct SubmittedBatch {
    /// Replies in submission order; mutation slots hold `Frame::Null`
    /// placeholders until the ticket resolves.
    replies: Vec<Frame>,
    /// `(index, reply)` for each staged mutation — installed only on a
    /// durable resolution.
    staged_replies: Vec<(usize, Frame)>,
    /// `(index, hazard entry)` for reads before the first mutation; later
    /// reads are covered by the batch's own (newer) log entries.
    hazard_reads: Vec<(usize, EntryId)>,
    /// Indices of successfully-validated `WAIT` commands: on a timed-out
    /// ticket these report the replica count actually achieved instead of
    /// inheriting the blanket ambiguous-commit error.
    wait_indices: Vec<usize>,
    first_write_index: Option<usize>,
    /// `None` when the batch never touched the pipeline (pure reads with
    /// no hazards): the replies are final already.
    ticket: Option<Arc<Ticket>>,
}

/// The staging-time CLUSTERDOWN: a fence left executed-but-unlogged
/// mutations in the engine, and serving anything — even a read — could
/// expose values the imminent rebuild will discard (a read-then-unread
/// anomaly the chaos harness caught).
const POISONED: &str = "CLUSTERDOWN uncommitted state pending rebuild; demoting";

impl SubmittedBatch {
    /// Has the pipeline resolved this batch's ticket (or was none needed)?
    pub fn is_complete(&self) -> bool {
        self.ticket.as_ref().is_none_or(|t| t.is_resolved())
    }

    /// Registers a completion callback on the pending ticket; fires
    /// immediately when the batch is already complete.
    pub fn set_waker(&self, waker: Box<dyn FnOnce() + Send>) {
        match &self.ticket {
            Some(t) => t.set_waker(waker),
            None => waker(),
        }
    }

    /// The batch's commit ticket, if it staged one (test visibility).
    #[cfg(test)]
    pub(crate) fn ticket_ref(&self) -> Option<&Arc<Ticket>> {
        self.ticket.as_ref()
    }

    /// The CLUSTERDOWN reply rules, owned in one place. Every reply from
    /// the first staged mutation on becomes `suffix`: the rebuild discards
    /// (or may discard) that mutation, and the later commands observed it,
    /// so none of their replies may be released. A read before it that saw
    /// an unacknowledged write keeps its reply only if `hazard_committed`
    /// vouches for the entry it depends on — hazard ids are prospective, so
    /// after a fence another leader's entry may occupy them and nothing can.
    fn fail(&mut self, suffix: Frame, hazard_committed: impl Fn(EntryId) -> bool) {
        if let Some(first) = self.first_write_index {
            for reply in self.replies.iter_mut().skip(first) {
                *reply = suffix.clone();
            }
        }
        for &(i, h) in &self.hazard_reads {
            if !hazard_committed(h) {
                if let Some(slot) = self.replies.get_mut(i) {
                    *slot = Frame::Error("CLUSTERDOWN timed out waiting for hazard commit".into());
                }
            }
        }
    }
}

/// What the serve path knows about one command before it reads any node
/// state — a pure function of the arguments.
struct CmdFacts<'a> {
    name: CmdName,
    args: &'a [Bytes],
    keys: Option<Vec<Bytes>>,
    is_write: bool,
    /// Hash slot of the command's first key.
    slot: Option<u16>,
    /// The keys hash to more than one slot.
    crossslot: bool,
}

impl<'a> CmdFacts<'a> {
    /// `None` for an empty command.
    fn of(args: &'a [Bytes]) -> Option<CmdFacts<'a>> {
        let name = CmdName::from_arg(args.first()?);
        let keys = keys_for(args);
        let mut slots = keys.iter().flatten().map(|k| key_hash_slot(k));
        let slot = slots.next();
        Some(CmdFacts {
            is_write: command_spec(&name).is_some_and(|s| s.flags.write),
            crossslot: slots.any(|s| Some(s) != slot),
            name,
            args,
            keys,
            slot,
        })
    }
}

/// A mutation executed under the engine lock, awaiting the batch's single
/// group-commit fold.
struct StagedWrite {
    payload: Bytes,
    dirty: DirtySet,
    slot: Option<u16>,
    effects: Vec<EffectCmd>,
}

/// Commands answered from node-level state (replication, metrics), not the
/// keyspace: they stay available on a syncing, halted, or demoting node.
const NODE_LEVEL: &[&str] = &["WAIT", "INFO", "SLOWLOG", "LATENCY"];

/// The node-state gate: may this node serve `cmd` right now? Returns the
/// refusal, if any. Runs under a short `st` section per command — the
/// engine lock (not `st`) is what serializes execution, so a fenced flush
/// can still poison the node mid-batch; staging re-checks.
fn admit(st: &NodeState, cmd: &CmdFacts<'_>, shard_id: ShardId) -> Option<Frame> {
    if NODE_LEVEL.contains(&cmd.name.as_str()) {
        return None;
    }
    if st.rebuilding {
        return Some(Frame::Error(
            "CLUSTERDOWN node is syncing from the transaction log".into(),
        ));
    }
    if let Some(halt) = &st.rs.halted {
        return Some(Frame::Error(
            format!("CLUSTERDOWN replication halted: {halt}").into(),
        ));
    }
    match st.role {
        Role::Primary if st.state_poisoned => Some(Frame::Error(POISONED.into())),
        // §4.1.3: a primary that cannot keep its lease voluntarily stops
        // servicing reads and writes.
        Role::Primary if Instant::now() >= st.lease_valid_until => Some(Frame::Error(
            "CLUSTERDOWN leadership lease expired; demoting".into(),
        )),
        Role::Replica if cmd.is_write => Some(Frame::Error(
            format!("MOVED {} shard-{shard_id}", cmd.slot.unwrap_or(0)).into(),
        )),
        _ if cmd.crossslot => Some(Frame::Error(
            "CROSSSLOT Keys in request don't hash to the same slot".into(),
        )),
        _ => match cmd.slot {
            Some(slot) if !st.rs.owned_slots.contains(slot) => {
                Some(Frame::Error(format!("MOVED {slot} ?").into()))
            }
            Some(slot) if cmd.is_write && st.rs.blocked_slots.contains(&slot) => Some(
                Frame::Error("TRYAGAIN slot ownership transfer in progress".into()),
            ),
            _ => None,
        },
    }
}

impl Node {
    /// Executes one client command against this node, blocking until the
    /// reply may be released (commit for writes; hazard commit for reads).
    /// The single-command view of [`Node::handle_batch`].
    pub fn handle(&self, session: &mut SessionState, args: &[Bytes]) -> Frame {
        let one = [args.to_vec()];
        self.handle_batch(session, &one)
            .pop()
            .unwrap_or_else(|| Frame::error("ERR internal: batch returned no reply"))
    }

    /// Executes a pipeline of commands with **one** engine-lock
    /// acquisition and **one** commit ticket covering every mutation
    /// (group commit, §3.1's BtrLog batching), blocking until the commit
    /// pipeline releases the whole pipeline of replies (§3.2):
    /// [`Node::handle_batch_submit`] + [`Node::wait_finish`].
    pub fn handle_batch(&self, session: &mut SessionState, cmds: &[Vec<Bytes>]) -> Vec<Frame> {
        let sb = self.handle_batch_submit(session, cmds);
        self.wait_finish(sb)
    }

    /// Executes the batch under the engine lock (DESIGN.md §12), stages its
    /// mutations (and read hazards) on the commit pipeline under the same
    /// hold, and returns with the mutation replies still parked on the
    /// batch's ticket — the server's IO threads park the batch and sweep on
    /// (DESIGN.md §11). [`Node::try_finish`] / [`Node::wait_finish`] release
    /// the replies once the ticket resolves.
    ///
    /// Replies come back in submission order. Semantics match running the
    /// same commands one at a time: per-command role/slot checks,
    /// MULTI/EXEC session state, read hazards, and the
    /// no-unacknowledged-data-loss rule (a mutation whose append is fenced
    /// poisons every later command in the batch, because those executed
    /// against state that will be discarded on demotion).
    pub fn handle_batch_submit(
        &self,
        session: &mut SessionState,
        cmds: &[Vec<Bytes>],
    ) -> SubmittedBatch {
        let mut sb = SubmittedBatch {
            replies: Vec::with_capacity(cmds.len()),
            ..SubmittedBatch::default()
        };
        if cmds.is_empty() {
            return sb;
        }
        let e2e_start = self.metrics.now_us();
        self.enter_window(cmds.len());
        let engine_start = self.metrics.now_us();
        // Bound to one name from the `try_lock` on, so the analyzer's guard
        // tracking (DESIGN.md §9) covers the hold either way it was won.
        let engine = self.engine.try_lock();
        let mut engine = engine.unwrap_or_else(|| self.lock_engine_contended());
        let lock_acquired_us = self.metrics.now_us();
        engine.set_time_ms(wall_ms());
        let mut writes: Vec<StagedWrite> = Vec::new();
        for args in cmds {
            let reply = self.serve_one(&mut engine, session, args, &mut sb, &mut writes);
            sb.replies.push(reply);
        }
        // Staged while the engine lock is still held: log order equals
        // execution order (§3.2).
        self.stage_batch(&mut sb, &writes, e2e_start);
        drop(engine);

        let lock_dropped_us = self.metrics.now_us();
        let held_us = lock_dropped_us.saturating_sub(lock_acquired_us);
        self.metrics.record_stage(StageId::EngineLockHold, held_us);
        self.metrics.record_stage(
            StageId::Engine,
            lock_dropped_us.saturating_sub(engine_start),
        );
        match &sb.ticket {
            // Re-stamp queue entry so the `commit_queue_wait` span starts
            // where the `engine` span ends (no double counting). When the
            // pipeline already resolved the ticket — flush, quorum, and
            // completer all outran this thread's bookkeeping — the reply
            // could not have shipped before now, so this thread records the
            // spans with the lock drop as the end stamp.
            Some(t) => {
                if t.note_unlocked(lock_dropped_us) {
                    self.record_ticket_spans(t, lock_dropped_us);
                }
                self.try_self_flush();
            }
            // No pipeline involvement: the batch is complete right now.
            None => self
                .metrics
                .record_stage(StageId::E2e, lock_dropped_us.saturating_sub(e2e_start)),
        }
        sb
    }

    /// The slow half of a client batch's engine-lock acquisition: its
    /// `try_lock` missed, so count the conflict and block.
    fn lock_engine_contended(&self) -> MutexGuard<'_, Engine> {
        self.metrics.incr(CounterId::EngineLockConflicts);
        self.engine.lock()
    }

    /// Backpressure (§11): blocks while the in-flight commit window is
    /// full, before taking any lock (the pipeline threads need them to
    /// drain the window). Attributed to `commit_queue_wait` so the e2e
    /// breakdown still closes when the window engages.
    fn enter_window(&self, commands: usize) {
        let cfg = &self.ctx.cfg;
        let waited_us = self
            .pipeline
            .wait_for_window(
                cfg.commit_window_entries,
                cfg.commit_window_bytes,
                cfg.commit_timeout,
            )
            .as_micros() as u64;
        if waited_us > 0 {
            self.metrics
                .record_stage(StageId::CommitQueueWait, waited_us);
        }
        self.metrics.incr(CounterId::BatchesDispatched);
        self.metrics
            .add(CounterId::CommandsDispatched, commands as u64);
    }

    /// One command of a batch, under the batch's engine lock. Returns
    /// what goes in its reply slot: the final reply, or the `Frame::Null`
    /// placeholder of a mutation pushed onto `writes` (its real reply waits
    /// in `sb.staged_replies` for the commit).
    fn serve_one(
        &self,
        engine: &mut Engine,
        session: &mut SessionState,
        args: &[Bytes],
        sb: &mut SubmittedBatch,
        writes: &mut Vec<StagedWrite>,
    ) -> Frame {
        let Some(cmd) = CmdFacts::of(args) else {
            return Frame::error("empty command");
        };
        let refusal = {
            let st = self.st.lock();
            admit(&st, &cmd, self.ctx.shard_id)
        };
        if let Some(err) = refusal {
            return err;
        }
        let i = sb.replies.len();
        if let Some(reply) = self.node_local(engine, &cmd, sb) {
            return reply;
        }
        let outcome = self.execute_timed(engine, session, &cmd);
        if outcome.effects.is_empty() {
            // Read (or no-op write). After the batch's first mutation its
            // own entries are newer than any tracked hazard, so the single
            // batch wait covers the read.
            if sb.first_write_index.is_none() {
                if let Some(h) = self.read_hazard(&cmd) {
                    sb.hazard_reads.push((i, h));
                }
            }
            return outcome.reply;
        }
        let record = Record::Effects {
            version: engine.version(),
            effects: outcome.effects,
        };
        let payload = record.encode_framed();
        // Take the effects back out — encoding borrowed them, so the
        // argument vectors never re-clone on the hot path.
        let effects = match record {
            Record::Effects { effects, .. } => effects,
            _ => Vec::new(),
        };
        sb.first_write_index.get_or_insert(i);
        sb.staged_replies.push((i, outcome.reply));
        writes.push(StagedWrite {
            payload,
            dirty: outcome.dirty,
            slot: cmd.slot,
            effects,
        });
        Frame::Null
    }

    /// Commands the node answers itself instead of routing to the engine,
    /// whose own versions are keyspace-only or empty-shaped fallbacks.
    fn node_local(
        &self,
        engine: &Engine,
        cmd: &CmdFacts<'_>,
        sb: &mut SubmittedBatch,
    ) -> Option<Frame> {
        let args = cmd.args;
        Some(match cmd.name.as_str() {
            "WAIT" => {
                let reply = self.wait_reply(args);
                if matches!(reply, Frame::Integer(_)) {
                    sb.wait_indices.push(sb.replies.len());
                }
                reply
            }
            "INFO" => {
                let st = self.st.lock();
                self.info_reply_locked(engine, &st, args.get(1))
            }
            "SLOWLOG" => self.slowlog_reply(args),
            "LATENCY" => self.latency_reply(args),
            _ => return None,
        })
    }

    /// `WAIT numreplicas timeout`: every acknowledged write is already
    /// durable across AZs, so any satisfiable replica count is met
    /// immediately; reply with the number of gossiping replicas, like
    /// MemoryDB (an integer reply means the WAIT was valid). The arguments
    /// are still validated like Redis.
    fn wait_reply(&self, args: &[Bytes]) -> Frame {
        let (Some(raw_replicas), Some(raw_timeout), 3) = (args.get(1), args.get(2), args.len())
        else {
            return Frame::error("ERR wrong number of arguments for 'wait' command");
        };
        let numreplicas = String::from_utf8_lossy(raw_replicas).parse::<i64>();
        let timeout_ms = String::from_utf8_lossy(raw_timeout).parse::<i64>();
        match (numreplicas, timeout_ms) {
            (Ok(_), Ok(t)) if t >= 0 => {
                Frame::Integer(self.ctx.bus.replica_count(self.ctx.shard_id) as i64)
            }
            (Ok(_), Ok(_)) => Frame::error("ERR timeout is negative"),
            _ => Frame::error("ERR value is not an integer or out of range"),
        }
    }

    /// Runs `cmd` on the engine, recording the `apply` stage and feeding the
    /// slowlog.
    fn execute_timed(
        &self,
        engine: &mut Engine,
        session: &mut SessionState,
        cmd: &CmdFacts<'_>,
    ) -> ExecOutcome {
        let apply_start = self.metrics.now_us();
        let outcome = engine.execute(session, cmd.args);
        let apply_us = self.metrics.now_us().saturating_sub(apply_start);
        self.metrics.record_stage(StageId::Apply, apply_us);
        if self
            .metrics
            .slowlog()
            .observe(apply_us, (wall_ms() / 1000) as i64, || {
                cmd.args.iter().map(|a| a.to_vec()).collect()
            })
        {
            self.metrics.incr(CounterId::SlowlogRecorded);
        }
        // `CONFIG SET slowlog-log-slower-than` lands in engine config;
        // after any command one can execute through, mirror it into the
        // registry's slowlog under the lock that ordered it, so whatever
        // runs next on any connection runs under it.
        if matches!(cmd.name.as_str(), "CONFIG" | "EXEC" | "EVAL" | "EVALSHA") {
            if let Some(t) = engine
                .config_param("slowlog-log-slower-than")
                .and_then(|v| v.parse::<i64>().ok())
            {
                self.metrics.slowlog().set_threshold_us(t);
            }
        }
        outcome
    }

    /// Key-level hazard check for a read (§3.2): the newest unacknowledged
    /// entry the reply could have observed. EXEC has no keys of its own; be
    /// conservative and use the max pending. Writers hold the engine lock
    /// through the fold, so the tracker already carries any hazard the read
    /// could have seen.
    fn read_hazard(&self, cmd: &CmdFacts<'_>) -> Option<EntryId> {
        let st = self.st.lock();
        match &cmd.keys {
            Some(ks) if cmd.name != "EXEC" => st.tracker.hazard_for(ks.iter()),
            _ if matches!(cmd.name.as_str(), "EXEC" | "FLUSHALL" | "FLUSHDB") => {
                st.tracker.max_pending()
            }
            _ => None,
        }
    }

    /// Group commit, decoupled (§11): folds the batch's mutations into the
    /// prospective tail under `st` and enqueues ONE commit ticket for them;
    /// a read-only batch with hazards rides the queue with an empty run
    /// waiting on its newest hazard. Nothing to wait on stages nothing.
    ///
    /// The per-command gate no longer holds `st` through execution, so a
    /// fence can land between execution and here. The mutations executed
    /// but must not fold — they are exactly the executed-but-unlogged state
    /// the imminent rebuild discards — and an unpoisoned hazard run staged
    /// after the poison drain would wait out its full deadline against ids
    /// another leader may now own. Both fail like a poisoned ticket would.
    fn stage_batch(&self, sb: &mut SubmittedBatch, writes: &[StagedWrite], e2e_start_us: u64) {
        let newest_hazard = sb.hazard_reads.iter().map(|&(_, h)| h).max();
        if writes.is_empty() && newest_hazard.is_none() {
            return;
        }
        let mut st = self.st.lock();
        if st.state_poisoned || st.rebuilding || st.role != Role::Primary {
            drop(st);
            sb.fail(Frame::Error(POISONED.into()), |_| false);
            return;
        }
        let payloads = self.fold_writes(&mut st, writes);
        let last_id = match newest_hazard {
            Some(h) if writes.is_empty() => h,
            _ => st.rs.applied,
        };
        sb.ticket = Some(self.stage_locked(&st, last_id, payloads, Some(e2e_start_us)));
    }

    /// Folds each write's prospective entry id into the replica state and
    /// the hazard tracker, appends a checksum probe when one is due, and
    /// mirrors the effects to migration targets (§5.2) — all while the
    /// caller holds the engine lock, so the fold and the target both
    /// observe execution order. Returns the payloads to append.
    fn fold_writes(&self, st: &mut NodeState, writes: &[StagedWrite]) -> Vec<Bytes> {
        if writes.is_empty() {
            return Vec::new();
        }
        let mut payloads: Vec<Bytes> = Vec::with_capacity(writes.len() + 1);
        for w in writes {
            let id = st.rs.applied.next();
            fold_appended_payload(&mut st.rs, id, &w.payload, false);
            st.rs.mark_dirty(&w.dirty);
            st.tracker.stage(id, &w.dirty);
            payloads.push(w.payload.clone());
        }
        st.effects_since_probe += writes.len() as u64;
        if st.effects_since_probe >= self.ctx.cfg.checksum_probe_every {
            st.effects_since_probe = 0;
            let probe = Record::ChecksumProbe {
                crc: st.rs.running_crc,
            }
            .encode_framed();
            let pid = st.rs.applied.next();
            fold_appended_payload(&mut st.rs, pid, &probe, true);
            payloads.push(probe);
        }
        for w in writes {
            if let Some(target) = w.slot.and_then(|slot| st.forward.get(&slot).cloned()) {
                let _ = target.ingest_effects(&w.effects, true);
            }
        }
        payloads
    }

    /// Blocks until the batch's ticket resolves and returns the final
    /// replies (the blocking half of the submit/finish split).
    pub fn wait_finish(&self, sb: SubmittedBatch) -> Vec<Frame> {
        let outcome = sb.ticket.as_ref().map(|t| {
            t.wait(self.ticket_wait_cap())
                .unwrap_or(TicketOutcome::TimedOut)
        });
        self.finish_batch(sb, outcome)
    }

    /// Non-blocking finish: the final replies if the batch's ticket has
    /// resolved, or the batch handed back for re-parking.
    pub fn try_finish(&self, sb: SubmittedBatch) -> Result<Vec<Frame>, SubmittedBatch> {
        match &sb.ticket {
            None => Ok(self.finish_batch(sb, None)),
            Some(t) => match t.outcome() {
                Some(o) => Ok(self.finish_batch(sb, Some(o))),
                None => Err(sb),
            },
        }
    }

    /// Installs or fails the parked replies according to the ticket's
    /// outcome.
    fn finish_batch(&self, mut sb: SubmittedBatch, outcome: Option<TicketOutcome>) -> Vec<Frame> {
        match outcome {
            None => {}
            Some(TicketOutcome::Durable) => {
                for (i, r) in sb.staged_replies.drain(..) {
                    if let Some(slot) = sb.replies.get_mut(i) {
                        *slot = r;
                    }
                }
            }
            Some(TicketOutcome::Poisoned(e)) => sb.fail(
                Frame::Error(
                    format!("CLUSTERDOWN cannot commit to transaction log ({e}); demoting").into(),
                ),
                |_| false,
            ),
            // A timed-out ticket's entries were genuinely appended (it
            // reached the committed queue), so settling each hazard against
            // `is_durable` is sound here.
            Some(TicketOutcome::TimedOut) => {
                sb.fail(
                    Frame::Error(
                        "CLUSTERDOWN write could not be committed durably; demoting".into(),
                    ),
                    |h| self.ctx.log.is_durable(h),
                );
                // WAIT asks "how many replicas hold this write" — on a
                // timeout the count achieved so far IS the answer, not an
                // ambiguous-commit error (Redis semantics: WAIT returns the
                // replica count reached when its timeout expires). Restore
                // those replies after the blanket overwrite above.
                if let (Some(first), Some(t), false) =
                    (sb.first_write_index, &sb.ticket, sb.wait_indices.is_empty())
                {
                    let acked = self.ctx.log.acked_count(t.last_id()) as i64;
                    for &i in sb.wait_indices.iter().filter(|&&i| i >= first) {
                        if let Some(slot) = sb.replies.get_mut(i) {
                            *slot = Frame::Integer(acked);
                        }
                    }
                }
            }
        }
        sb.replies
    }

    /// Builds the `INFO [section]` reply: engine keyspace stats plus the
    /// node's replication and durability state, and — from the metrics
    /// registries — a `stats` counter section and a `latencystats` section
    /// with per-stage latency percentiles (DESIGN.md §10).
    fn info_reply_locked(&self, engine: &Engine, st: &NodeState, section: Option<&Bytes>) -> Frame {
        let filter = section.map(|s| String::from_utf8_lossy(s).to_ascii_lowercase());
        // Bare INFO keeps its historic shape (no stats sections): existing
        // parsers split on `# ` headers and count sections.
        let wants = |name: &str, by_default: bool| match filter.as_deref() {
            None | Some("default") => by_default,
            Some("all") | Some("everything") => true,
            Some(f) => f == name,
        };
        let role = match st.role {
            Role::Primary => "master",
            Role::Replica => "slave",
        };
        let lease_remaining_ms = if st.role == Role::Primary {
            st.lease_valid_until
                .saturating_duration_since(Instant::now())
                .as_millis() as i64
        } else {
            -1
        };
        let mut text = String::new();
        if wants("server", true) {
            text.push_str(&format!(
                "# Server\r\nredis_version:{version}\r\nengine:memorydb-repro\r\nnode_id:{id}\r\n",
                version = engine.version(),
                id = self.id,
            ));
        }
        if wants("replication", true) {
            text.push_str(&format!(
                "# Replication\r\nrole:{role}\r\nleader_epoch:{epoch}\r\nknown_leader:{leader}\r\n\
                 applied_log_entry:{applied}\r\ncommitted_log_tail:{committed}\r\n\
                 lease_remaining_ms:{lease_remaining_ms}\r\npending_unacked_keys:{pending}\r\n\
                 halted:{halted}\r\n",
                epoch = st.rs.epoch,
                leader = st
                    .rs
                    .leader
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "?".into()),
                applied = st.rs.applied.0,
                committed = self.ctx.log.committed_tail().0,
                pending = st.tracker.pending_keys(),
                halted = st
                    .rs
                    .halted
                    .as_ref()
                    .map(|h| h.to_string())
                    .unwrap_or_else(|| "no".into()),
            ));
        }
        if wants("cluster", true) {
            text.push_str(&format!(
                "# Cluster\r\nshard_id:{shard}\r\nowned_slots:{slots}\r\nconnected_replicas:{replicas}\r\n",
                shard = self.ctx.shard_id,
                slots = st.rs.owned_slots.len(),
                replicas = self.ctx.bus.replica_count(self.ctx.shard_id),
            ));
        }
        if wants("keyspace", true) {
            let keys = engine.db.len();
            text.push_str(&format!("# Keyspace\r\ndb0:keys={keys}\r\n"));
        }
        if wants("memory", true) {
            let used = engine.db.used_memory();
            text.push_str(&format!("# Memory\r\nused_memory:{used}\r\n"));
        }
        if wants("stats", false) {
            let node = self.metrics.snapshot();
            let log = self.ctx.log.metrics().snapshot();
            text.push_str("# Stats\r\n");
            for (name, v) in &node.counters {
                text.push_str(&format!("{name}:{v}\r\n"));
            }
            for (name, v) in &node.gauges {
                text.push_str(&format!("{name}:{v}\r\n"));
            }
            for (name, v) in &log.counters {
                text.push_str(&format!("txlog_{name}:{v}\r\n"));
            }
            for (name, v) in &log.gauges {
                text.push_str(&format!("txlog_{name}:{v}\r\n"));
            }
        }
        if wants("latencystats", false) {
            text.push_str("# Latencystats\r\n");
            for snap in [self.metrics.snapshot(), self.ctx.log.metrics().snapshot()] {
                for s in &snap.stages {
                    if s.count == 0 {
                        continue;
                    }
                    text.push_str(&format!(
                        "latency_percentiles_usec_{}:p50={},p99={},p99.9={},max={},calls={}\r\n",
                        s.name, s.p50_us, s.p99_us, s.p999_us, s.max_us, s.count
                    ));
                }
            }
        }
        if text.is_empty() {
            // Unknown section: Redis replies with an empty bulk.
            return Frame::Bulk(Bytes::new());
        }
        Frame::Bulk(Bytes::from(text))
    }

    /// `SLOWLOG GET [n] | RESET | LEN`, served from the node registry's
    /// slowlog ring (the engine's SLOWLOG is an empty-shaped fallback).
    fn slowlog_reply(&self, args: &[Bytes]) -> Frame {
        let Some(sub) = args.get(1) else {
            return Frame::error("ERR wrong number of arguments for 'slowlog' command");
        };
        match String::from_utf8_lossy(sub).to_ascii_uppercase().as_str() {
            "GET" => {
                let n = match args.get(2) {
                    Some(raw) => match String::from_utf8_lossy(raw).parse::<i64>() {
                        // Redis: a negative count means "everything".
                        Ok(v) if v < 0 => usize::MAX,
                        Ok(v) => v as usize,
                        Err(_) => {
                            return Frame::error("ERR value is not an integer or out of range")
                        }
                    },
                    None => 10,
                };
                Frame::Array(
                    self.metrics
                        .slowlog()
                        .get(n)
                        .into_iter()
                        .map(|e| {
                            Frame::Array(vec![
                                Frame::Integer(e.id as i64),
                                Frame::Integer(e.unix_time_s),
                                Frame::Integer(e.duration_us as i64),
                                Frame::Array(
                                    e.args
                                        .into_iter()
                                        .map(|a| Frame::Bulk(Bytes::from(a)))
                                        .collect(),
                                ),
                            ])
                        })
                        .collect(),
                )
            }
            "RESET" => {
                self.metrics.slowlog().reset();
                Frame::ok()
            }
            "LEN" => Frame::Integer(self.metrics.slowlog().len() as i64),
            other => Frame::error(format!("ERR Unknown SLOWLOG subcommand '{other}'")),
        }
    }

    /// `LATENCY HISTOGRAM | RESET`: per-stage latency summaries from both
    /// the node registry (io/parse/engine/apply/durability/e2e) and the
    /// shard's transaction-log registry (append/quorum-ack/read stages).
    /// Only stages with at least one sample are reported.
    fn latency_reply(&self, args: &[Bytes]) -> Frame {
        let Some(sub) = args.get(1) else {
            return Frame::error("ERR wrong number of arguments for 'latency' command");
        };
        match String::from_utf8_lossy(sub).to_ascii_uppercase().as_str() {
            "HISTOGRAM" => {
                let mut out: Vec<(Frame, Frame)> = Vec::new();
                for snap in [self.metrics.snapshot(), self.ctx.log.metrics().snapshot()] {
                    for s in &snap.stages {
                        if s.count == 0 {
                            continue;
                        }
                        let field = |k: &str, v: u64| {
                            (
                                Frame::Bulk(Bytes::from(k.to_string())),
                                Frame::Integer(v as i64),
                            )
                        };
                        out.push((
                            Frame::Bulk(Bytes::from(s.name.to_string())),
                            Frame::Map(vec![
                                field("calls", s.count),
                                field("p50_us", s.p50_us),
                                field("p99_us", s.p99_us),
                                field("p999_us", s.p999_us),
                                field("max_us", s.max_us),
                                field("sum_us", s.sum_us),
                            ]),
                        ));
                    }
                }
                Frame::Map(out)
            }
            // Stage histograms are cumulative (like Redis's latencystats);
            // RESET acknowledges with the Redis shape without clearing.
            "RESET" => Frame::Integer(0),
            other => Frame::error(format!("ERR Unknown LATENCY subcommand '{other}'")),
        }
    }
}
