//! The commit side of a node (DESIGN.md §11): staging runs onto the
//! pipeline, the flush that appends them, ticket resolution, and the
//! committer and completer threads.
//!
//! One discipline: every staging site enqueues through
//! [`Node::stage_locked`]; a submitter that finds the flush token free
//! leads one drain pass, else the committer thread sweeps — both through
//! [`Node::drain_and_flush`]; committed tickets resolve inline after the
//! append or later on the completer — both through
//! [`Node::resolve_committed`].
// Serving path: same panic-freedom bar as node.rs (DESIGN.md §9).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::apply::fold_appended_payload;
use crate::node::{Node, NodeState};
use crate::pipeline::{StagedRun, Ticket, TicketOutcome, TicketSpec};
use bytes::Bytes;
use memorydb_engine::exec::Role;
use memorydb_engine::DirtySet;
use memorydb_metrics::{CounterId, StageId};
use memorydb_txlog::EntryId;
use parking_lot::MutexGuard;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on any single blocking step of a pipeline thread, so both
/// notice a crash within one slice.
const SLICE: Duration = Duration::from_millis(50);

impl Node {
    /// The one place a commit [`Ticket`] is built and its run enqueued.
    /// `payloads` are already folded into the prospective tail at the
    /// consecutive ids ending at `last_id`; a hazard-only run has none, and
    /// its `last_id` is its newest read hazard (it still rides the queue so
    /// a fence poisons it in submission order). The caller holds `st` and
    /// has checked role / poison / rebuild state under that same hold:
    /// queue order is fold order, which the fencing argument relies on.
    /// `e2e_start_us` is `Some` for client batches, which record per-ticket
    /// stages; internal traffic (renewals, expiry, control records) does not.
    pub(crate) fn stage_locked(
        &self,
        st: &NodeState,
        last_id: EntryId,
        payloads: Vec<Bytes>,
        e2e_start_us: Option<u64>,
    ) -> Arc<Ticket> {
        let now_us = self.metrics.now_us();
        let ticket = Ticket::new(TicketSpec {
            last_id,
            entries: payloads.len(),
            bytes: payloads.iter().map(Bytes::len).sum(),
            epoch: st.rs.epoch,
            deadline: Instant::now() + self.ctx.cfg.commit_timeout,
            e2e_start_us,
            now_us,
        });
        self.pipeline.stage(StagedRun {
            ticket: Arc::clone(&ticket),
            first_id: EntryId((last_id.0 + 1).saturating_sub(payloads.len() as u64)),
            payloads,
        });
        ticket
    }

    /// Folds one internal record into the prospective tail and stages it.
    /// `dirty` is `Some` for an effects record, whose keys must be hazard-
    /// tracked until commit; control records carry none. A caller whose
    /// record came out of the engine still holds the engine lock, so fold
    /// order is execution order. Same locking contract as
    /// [`Node::stage_locked`].
    pub(crate) fn stage_internal_locked(
        &self,
        st: &mut NodeState,
        payload: Bytes,
        dirty: Option<&DirtySet>,
    ) -> Arc<Ticket> {
        let id = st.rs.applied.next();
        fold_appended_payload(&mut st.rs, id, &payload, false);
        if let Some(dirty) = dirty {
            st.rs.mark_dirty(dirty);
            st.tracker.stage(id, dirty);
        }
        self.stage_locked(st, id, vec![payload], None)
    }

    /// Committer thread: the fallback flusher. Submitting threads usually
    /// beat it to the flush (see [`Node::try_self_flush`]); it guarantees
    /// staged runs never linger when every submitter has parked, and after
    /// a crash it keeps sweeping until nothing more races in.
    pub(crate) fn committer_loop(self: Arc<Node>) {
        loop {
            let staged = self.pipeline.wait_for_staged(SLICE);
            let exiting = !staged && !self.alive.load(Ordering::SeqCst);
            let token = self.flush_token.lock();
            let flushed = self.drain_and_flush(&token);
            drop(token);
            if exiting && !flushed {
                return;
            }
        }
    }

    /// Group-commit leader election: the submitting thread flushes the
    /// staged queue itself when no other flush is in progress, sparing the
    /// committer-thread handoff on the uncontended path (on a small host
    /// every saved wakeup is throughput). Contended submitters just park on
    /// their tickets — the current leader's drain or the committer picks
    /// their runs up. Leadership is a *single* drain pass: looping here
    /// traps one submitter (in the server, an IO thread) flushing everyone
    /// else's runs while its own connections starve; whatever stages
    /// mid-flush belongs to the committer thread, which `stage()` has
    /// already woken. BLOCKING on the log append: must not be called with
    /// the engine guard or `st` held (the analyzer's lock-discipline pass
    /// enforces it).
    pub(crate) fn try_self_flush(&self) {
        if let Some(token) = self.flush_token.try_lock() {
            self.drain_and_flush(&token);
        }
    }

    /// The flush body: drains every staged run and appends them as one
    /// coalesced batch. Holding the flush token (the argument is the proof)
    /// serializes drain + append, so log order equals fold order no matter
    /// which thread leads. Returns whether anything was staged.
    fn drain_and_flush(&self, _token: &MutexGuard<'_, ()>) -> bool {
        let runs = self.pipeline.take_staged_now();
        if runs.is_empty() {
            return false;
        }
        self.flush_runs(runs);
        true
    }

    /// One coalesced conditional append, chained after the prospective tail
    /// of the first run. The conditional-append fencing contract is
    /// preserved: if another leader slipped an entry in, the whole flush
    /// conflicts and every staged ticket poisons.
    fn flush_runs(&self, runs: Vec<StagedRun>) {
        // Fold order is queue order: ids are assigned and runs enqueued
        // under one `st` hold, so write runs drain in strictly ascending
        // `first_id` — the order the one coalesced append below relies on.
        debug_assert!(
            runs.iter()
                .filter(|r| !r.payloads.is_empty())
                .map(|r| r.first_id)
                .is_sorted_by(|a, b| a < b),
            "staged write runs out of fold order"
        );
        let mut payloads: Vec<Bytes> = Vec::new();
        let mut first_id: Option<EntryId> = None;
        let mut write_runs: u64 = 0;
        for run in &runs {
            if !run.payloads.is_empty() {
                first_id.get_or_insert(run.first_id);
                write_runs += 1;
                payloads.extend(run.payloads.iter().cloned());
            }
        }
        // Hazard-only runs have nothing to append; they ride straight to
        // the committed queue (their hazards were appended by earlier
        // flushes, or this one).
        if let Some(first) = first_id {
            if let Err(e) =
                self.ctx
                    .log
                    .append_batch_after(self.id, EntryId(first.0 - 1), &payloads)
            {
                self.poison_pipeline(e.to_string(), runs);
                return;
            }
            self.metrics
                .record_stage(StageId::CommitFlushEntries, payloads.len() as u64);
            if write_runs > 1 {
                // Appends saved vs the one-append-per-batch world.
                self.metrics
                    .add(CounterId::AppendsCoalesced, write_runs - 1);
            }
        }
        // Attribution happens at resolve time (the enqueued→appended span
        // is only meaningful once `note_unlocked` has re-stamped the queue
        // entry; this flush can race ahead of the client's lock drop).
        let appended_us = self.metrics.now_us();
        let mut oldest_enqueued = u64::MAX;
        for run in &runs {
            // Release pairs with the completer's Acquire in
            // record_ticket_spans: a nonzero appended stamp guarantees the
            // enqueue stamp it is compared against is visible too.
            run.ticket.appended_us.store(appended_us, Ordering::Release);
            if run.ticket.e2e_start_us.is_some() && !run.payloads.is_empty() {
                oldest_enqueued =
                    oldest_enqueued.min(run.ticket.enqueued_us.load(Ordering::Acquire));
            }
        }
        if first_id.is_some() && oldest_enqueued != u64::MAX {
            // Realized flush-window width: how long the oldest client run
            // in this flush sat staged before the append handoff. Near zero
            // when the submitter leads its own flush; widens with
            // coalescing under load.
            self.metrics.record_stage(
                StageId::FlushWindow,
                appended_us.saturating_sub(oldest_enqueued),
            );
        }
        // Anything the log already committed (zero-latency quorums promote
        // inline during the append) resolves right here, in submission
        // order, sparing a completer-thread handoff per flush. The rest
        // waits on the watermark — unless the completer has already shut
        // the queue after a crash, in which case nothing will ever watch
        // the watermark for these tickets and they resolve ambiguous now.
        let tail = self.ctx.log.committed_tail();
        let (committed, waiting): (Vec<_>, Vec<_>) = runs
            .into_iter()
            .map(|run| run.ticket)
            .partition(|t| t.last_id() <= tail);
        self.resolve_committed(&committed, tail);
        for t in self.pipeline.push_committed(waiting) {
            self.resolve_ticket(&t, TicketOutcome::TimedOut);
        }
    }

    /// Resolves tickets whose entries the log has committed up to `tail`,
    /// re-validating leadership first (pipelined-quorum fencing, DESIGN.md
    /// §13). The fence is read under `st` in the same critical section that
    /// advances the committed tracker. A demoted, poisoned, or rebuilding
    /// node — or a ticket staged under an epoch this node has since left —
    /// may no longer ack, even though the batch went on to commit: the
    /// entries really are in the log, but the parked replies were computed
    /// against state the rebuild discards. Those resolve ambiguous
    /// (`TimedOut`) instead of `Durable`.
    fn resolve_committed(&self, tickets: &[Arc<Ticket>], tail: EntryId) {
        if tickets.is_empty() {
            return;
        }
        let (fenced, epoch) = {
            let mut st = self.st.lock();
            st.tracker.advance_committed(tail);
            (
                st.state_poisoned
                    || st.rebuilding
                    || st.demote_requested
                    || st.role != Role::Primary,
                st.rs.epoch,
            )
        };
        for t in tickets {
            let outcome = if fenced || t.epoch != epoch {
                TicketOutcome::TimedOut
            } else {
                TicketOutcome::Durable
            };
            self.resolve_ticket(t, outcome);
        }
    }

    /// A fenced or partitioned coalesced append: demote, poison the engine
    /// state, and fail every staged ticket. The flags are set under `st`
    /// *before* draining the queue, and staging checks them under `st`, so
    /// no run can slip into the queue unpoisoned afterwards.
    fn poison_pipeline(&self, err: String, drained: Vec<StagedRun>) {
        {
            let mut st = self.st.lock();
            st.demote_requested = true;
            st.state_poisoned = true;
        }
        let rest = self.pipeline.take_staged_now();
        for run in drained.into_iter().chain(rest) {
            self.resolve_ticket(&run.ticket, TicketOutcome::Poisoned(err.clone()));
        }
    }

    /// Resolves a ticket: releases its in-flight window claim, records its
    /// attribution spans (unless the staging thread has not yet dropped
    /// the engine lock, in which case it records them), and fires its
    /// waker. Span recording happens before any waiter can observe the
    /// outcome, so a released reply never outruns its own metrics.
    pub(crate) fn resolve_ticket(&self, ticket: &Arc<Ticket>, outcome: TicketOutcome) {
        let resolved_us = self.metrics.now_us();
        // Exactly-once window release: resolution paths can race (the
        // flush leader's inline resolve, the completer's watermark pass,
        // the poison drain), and `resolve` only dedupes the outcome — a
        // second caller must not return the window claim again, or the
        // in-flight accounting undercounts and backpressure opens early.
        if ticket.begin_release() {
            self.pipeline.release_window(ticket.entries, ticket.bytes);
        }
        ticket.resolve(outcome, |unlocked| {
            if unlocked {
                self.record_ticket_spans(ticket, resolved_us);
            }
        });
    }

    /// Attribution for one resolved client ticket, ending at `end_us`: the
    /// `commit_queue_wait` span runs from the engine-lock drop to the
    /// flush's append, `durability` from the append to resolution, and
    /// `e2e` covers the whole batch. Stamps are clamped so the spans tile
    /// e2e without overlapping `engine` regardless of which thread won the
    /// race to record them.
    pub(crate) fn record_ticket_spans(&self, ticket: &Ticket, end_us: u64) {
        let Some(e2e_start_us) = ticket.e2e_start_us else {
            return; // internal traffic records no client stages
        };
        let appended = ticket.appended_us.load(Ordering::Acquire);
        if appended != 0 {
            let enqueued = ticket.enqueued_us.load(Ordering::Acquire);
            self.metrics
                .record_stage(StageId::CommitQueueWait, appended.saturating_sub(enqueued));
            self.metrics.record_stage(
                StageId::Durability,
                end_us.saturating_sub(appended.max(enqueued)),
            );
        }
        self.metrics
            .record_stage(StageId::E2e, end_us.saturating_sub(e2e_start_us));
    }

    /// Completer thread: watches the log's commit watermark and resolves
    /// appended tickets — durable once the watermark passes their last
    /// entry, timed out past their deadline (which requests demotion: the
    /// commit is ambiguous). A crashed node acks nothing more: the loop
    /// ends within one slice of [`Node::crash`], shuts the committed queue,
    /// and resolves what is still parked as ambiguous instead of sleeping
    /// to each ticket's deadline.
    pub(crate) fn completer_loop(self: Arc<Node>) {
        while self.alive.load(Ordering::SeqCst) {
            let Some((target, deadline)) = self.pipeline.next_wait_target() else {
                self.pipeline.wait_for_committed_work(SLICE);
                continue;
            };
            let slice = deadline
                .saturating_duration_since(Instant::now())
                .min(SLICE);
            let tail = self.ctx.log.wait_committed_at_least(target, slice);
            let (durable, timed_out) = self.pipeline.split_resolved(tail, Instant::now());
            self.resolve_committed(&durable, tail);
            if !timed_out.is_empty() {
                self.st.lock().demote_requested = true;
                for t in &timed_out {
                    self.resolve_ticket(t, TicketOutcome::TimedOut);
                }
            }
        }
        for t in self.pipeline.close_committed() {
            self.resolve_ticket(&t, TicketOutcome::TimedOut);
        }
    }
}
