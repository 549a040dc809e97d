//! Per-node commit pipeline: decoupled durability with cross-connection
//! group commit (DESIGN.md §11).
//!
//! The serving path *stages* encoded mutations under the engine lock —
//! folding prospective entry ids into the replica state so execution order
//! equals log order — and enqueues a [`Ticket`], then releases the lock.
//! Whoever holds the node's flush token (a submitting thread, else the
//! committer thread — `commit.rs`) drains the staged queue and coalesces
//! runs from many connections into single conditional `append_batch_after`
//! calls; a completer thread watches the commit watermark and resolves
//! tickets in order. Callers (the server's IO threads) park replies against
//! the ticket instead of blocking in `wait_durable`, so N connections no
//! longer pay N independent quorum round trips.
// Pipeline types sit on the serving path: same panic-freedom bar as node.rs.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use bytes::Bytes;
use memorydb_txlog::EntryId;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a commit ticket resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TicketOutcome {
    /// Every staged entry (and hazard) is durable; staged replies may ship.
    Durable,
    /// The committer's append was fenced or the node is shutting down: the
    /// staged mutations were never logged and the engine state is poisoned.
    /// Every reply at-or-after the first staged mutation must error.
    Poisoned(String),
    /// The append was accepted but did not commit within the timeout. The
    /// entries are in the log and hazard-tracked; writes error (ambiguous)
    /// and reads settle against their individual hazards.
    TimedOut,
}

struct TicketInner {
    outcome: Option<TicketOutcome>,
    /// Fired exactly once at resolution — the server layer uses this to
    /// nudge the owning IO thread instead of polling.
    waker: Option<Box<dyn FnOnce() + Send>>,
    /// Set by [`Ticket::note_unlocked`]: the staging thread dropped the
    /// engine lock and re-stamped `enqueued_us`. Attribution spans are
    /// recorded by whichever of note_unlocked/resolve runs *second*, so
    /// they never overlap the `engine` span even when the commit pipeline
    /// outruns the staging thread's bookkeeping.
    unlocked: bool,
}

/// One staged batch's claim on the commit pipeline. Created under the node
/// state lock (so ticket order equals fold order), resolved by the
/// committer (poison) or completer (durable / timed out).
pub struct Ticket {
    /// Highest prospective entry id this ticket waits on (for hazard-only
    /// read tickets: the newest read hazard).
    pub(crate) last_id: EntryId,
    /// Staged payload count — in-flight window accounting.
    pub(crate) entries: usize,
    /// Staged payload bytes — in-flight window accounting.
    pub(crate) bytes: usize,
    /// Ticket must resolve by here (staged time + commit timeout).
    pub(crate) deadline: Instant,
    /// When the client batch entered the pipeline (for e2e attribution).
    /// `None` for internal traffic (renewals, expiry, control records),
    /// which records no per-ticket stages (queue wait, durability, e2e).
    pub(crate) e2e_start_us: Option<u64>,
    /// Stamped at stage time, overwritten at engine-lock drop so the
    /// `commit_queue_wait` stage starts where the `engine` stage ends.
    pub(crate) enqueued_us: AtomicU64,
    /// Stamped by the committer when the append is accepted.
    pub(crate) appended_us: AtomicU64,
    /// Leadership epoch observed when the ticket was staged. The completer
    /// re-validates it at watermark advance: a ticket staged under a lease
    /// this node has since lost must not ack, even if its pipelined batch
    /// went on to commit (pipelined-quorum fencing).
    pub(crate) epoch: u64,
    /// Exactly-once guard for the ticket's in-flight window claim: the
    /// resolver that wins this CAS releases the window; any later resolver
    /// (flush leader's inline resolve vs. completer vs. poison drain races)
    /// must not.
    released: AtomicBool,
    inner: Mutex<TicketInner>,
    cv: Condvar,
}

/// Constructor arguments for [`Ticket::new`], named so the staging site
/// cannot transpose same-typed fields.
pub(crate) struct TicketSpec {
    pub last_id: EntryId,
    pub entries: usize,
    pub bytes: usize,
    /// Leadership epoch at staging time (see [`Ticket::epoch`]).
    pub epoch: u64,
    pub deadline: Instant,
    pub e2e_start_us: Option<u64>,
    pub now_us: u64,
}

impl Ticket {
    pub(crate) fn new(spec: TicketSpec) -> Arc<Ticket> {
        Arc::new(Ticket {
            last_id: spec.last_id,
            entries: spec.entries,
            bytes: spec.bytes,
            deadline: spec.deadline,
            e2e_start_us: spec.e2e_start_us,
            enqueued_us: AtomicU64::new(spec.now_us),
            appended_us: AtomicU64::new(0),
            epoch: spec.epoch,
            released: AtomicBool::new(false),
            inner: Mutex::new(TicketInner {
                outcome: None,
                waker: None,
                unlocked: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Claims the right to release this ticket's window accounting. True
    /// exactly once across all resolvers — the idempotence guard behind
    /// `Node::resolve_ticket`.
    pub(crate) fn begin_release(&self) -> bool {
        self.released
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The prospective id of this ticket's newest entry.
    pub fn last_id(&self) -> EntryId {
        self.last_id
    }

    /// Re-stamps the queue-entry time (called right after the engine lock
    /// drops so the `commit_queue_wait` span starts where `engine` ends).
    /// Returns true when the ticket already resolved — the pipeline outran
    /// this thread's bookkeeping, so the *caller* must record the
    /// attribution spans (resolve skipped them).
    pub(crate) fn note_unlocked(&self, now_us: u64) -> bool {
        // Release pairs with the flush thread's Acquire load: the stamp must
        // be visible before the flusher computes the realized window width.
        self.enqueued_us.store(now_us, Ordering::Release);
        let mut inner = self.inner.lock();
        inner.unlocked = true;
        inner.outcome.is_some()
    }

    /// The resolved outcome, if any (non-blocking).
    pub fn outcome(&self) -> Option<TicketOutcome> {
        self.inner.lock().outcome.clone()
    }

    /// Has this ticket resolved?
    pub fn is_resolved(&self) -> bool {
        self.inner.lock().outcome.is_some()
    }

    /// Blocks until resolution or `timeout`. `None` only if the resolver
    /// threads died (callers treat that as a timed-out commit).
    pub fn wait(&self, timeout: Duration) -> Option<TicketOutcome> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if let Some(o) = &inner.outcome {
                return Some(o.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut inner, deadline - now);
        }
    }

    /// Registers a completion callback; fires immediately when already
    /// resolved. At most one waker is retained.
    pub fn set_waker(&self, waker: Box<dyn FnOnce() + Send>) {
        let mut inner = self.inner.lock();
        if inner.outcome.is_some() {
            drop(inner);
            waker();
        } else {
            inner.waker = Some(waker);
        }
    }

    /// Resolves the ticket (first resolution wins) and fires the waker.
    /// `before_wake` runs once with the `note_unlocked` flag *before* any
    /// waiter or waker can observe the outcome — the resolver records its
    /// attribution spans there, so a released reply can never race ahead
    /// of the metrics it contributes to (when the flag is false the
    /// staging thread records instead, with the lock-drop stamp as the
    /// span end). Returns false on a double resolve (no-op).
    pub(crate) fn resolve(&self, outcome: TicketOutcome, before_wake: impl FnOnce(bool)) -> bool {
        let waker = {
            let mut inner = self.inner.lock();
            if inner.outcome.is_some() {
                return false;
            }
            inner.outcome = Some(outcome);
            before_wake(inner.unlocked);
            self.cv.notify_all();
            inner.waker.take()
        };
        if let Some(w) = waker {
            w();
        }
        true
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("last_id", &self.last_id)
            .field("entries", &self.entries)
            .field("outcome", &self.outcome())
            .finish()
    }
}

/// One staged run: the encoded payloads of a batch plus its ticket.
/// Hazard-only read tickets carry no payloads but still ride the queue so
/// poison ordering covers them (their hazards reference prospective ids).
pub(crate) struct StagedRun {
    pub ticket: Arc<Ticket>,
    pub payloads: Vec<Bytes>,
    /// Prospective id of `payloads[0]` (unused when payloads is empty).
    /// Ids are assigned and runs enqueued under one `st` hold, so write
    /// runs sit in the queue in strictly ascending `first_id` order — the
    /// flush asserts this before appending.
    pub first_id: EntryId,
}

struct StagedQueue {
    runs: VecDeque<StagedRun>,
    inflight_entries: usize,
    inflight_bytes: usize,
}

/// Appended-but-unresolved tickets awaiting the commit watermark.
struct CommittedQueue {
    tickets: Vec<Arc<Ticket>>,
    /// Set once by the exiting completer: nobody watches the watermark any
    /// more, so later pushes are handed back to the pusher.
    closed: bool,
}

/// The shared queues between the serving path, the committer, and the
/// completer. Lock order: node `engine` < node `st` < `q` < `cq`.
pub(crate) struct CommitPipeline {
    q: Mutex<StagedQueue>,
    /// Committer wakeup: staged work arrived.
    work_cv: Condvar,
    /// Submitter wakeup: in-flight window shrank.
    window_cv: Condvar,
    cq: Mutex<CommittedQueue>,
    /// Completer wakeup: tickets entered the committed queue.
    done_cv: Condvar,
}

impl CommitPipeline {
    pub fn new() -> CommitPipeline {
        CommitPipeline {
            q: Mutex::new(StagedQueue {
                runs: VecDeque::new(),
                inflight_entries: 0,
                inflight_bytes: 0,
            }),
            work_cv: Condvar::new(),
            window_cv: Condvar::new(),
            cq: Mutex::new(CommittedQueue {
                tickets: Vec::new(),
                closed: false,
            }),
            done_cv: Condvar::new(),
        }
    }

    /// Blocks while the in-flight window is full. Called with NO other
    /// pipeline/node locks held (the committer and completer need those to
    /// drain the window). Returns the µs spent waiting.
    pub fn wait_for_window(
        &self,
        max_entries: usize,
        max_bytes: usize,
        timeout: Duration,
    ) -> Duration {
        let start = Instant::now();
        let deadline = start + timeout;
        let mut q = self.q.lock();
        while q.inflight_entries >= max_entries || q.inflight_bytes >= max_bytes {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.window_cv.wait_for(&mut q, deadline - now);
        }
        start.elapsed()
    }

    /// Enqueues a staged run. MUST be called while holding the node state
    /// lock: queue order is fold order, which the fencing argument needs.
    pub fn stage(&self, run: StagedRun) {
        let mut q = self.q.lock();
        q.inflight_entries += run.ticket.entries;
        q.inflight_bytes += run.ticket.bytes;
        q.runs.push_back(run);
        self.work_cv.notify_one();
    }

    /// Current in-flight window occupancy (entries, bytes) — regression-test
    /// visibility into the exactly-once release accounting.
    #[cfg(test)]
    pub fn inflight(&self) -> (usize, usize) {
        let q = self.q.lock();
        (q.inflight_entries, q.inflight_bytes)
    }

    /// Committer: blocks up to `timeout` for staged work; returns whether
    /// the queue is non-empty. Draining is separate (`take_staged_now`)
    /// because it must happen under the node's flush token.
    pub fn wait_for_staged(&self, timeout: Duration) -> bool {
        let mut q = self.q.lock();
        if q.runs.is_empty() {
            self.work_cv.wait_for(&mut q, timeout);
        }
        !q.runs.is_empty()
    }

    /// Takes everything staged right now without waiting (poison drain).
    pub fn take_staged_now(&self) -> Vec<StagedRun> {
        self.q.lock().runs.drain(..).collect()
    }

    /// Moves appended tickets to the committed queue for the completer.
    /// Returns them instead when the completer has closed the queue — the
    /// caller must resolve those itself.
    #[must_use]
    pub fn push_committed(&self, tickets: Vec<Arc<Ticket>>) -> Vec<Arc<Ticket>> {
        if tickets.is_empty() {
            return tickets;
        }
        let mut cq = self.cq.lock();
        if cq.closed {
            return tickets;
        }
        cq.tickets.extend(tickets);
        self.done_cv.notify_one();
        Vec::new()
    }

    /// Completer exit: closes the committed queue and takes whatever is
    /// still parked on it. Close and every push serialize on the queue
    /// lock, so each appended ticket is either returned here or handed
    /// back to its pusher — none is left with nobody to resolve it.
    pub fn close_committed(&self) -> Vec<Arc<Ticket>> {
        let mut cq = self.cq.lock();
        cq.closed = true;
        std::mem::take(&mut cq.tickets)
    }

    /// Completer: the lowest unresolved ticket id and earliest deadline,
    /// or `None` when the committed queue is empty. Ticket ids are not
    /// monotone in queue order (hazard-only tickets wait on older ids), so
    /// both are scans.
    pub fn next_wait_target(&self) -> Option<(EntryId, Instant)> {
        let cq = self.cq.lock();
        let target = cq.tickets.iter().map(|t| t.last_id).min()?;
        let deadline = cq.tickets.iter().map(|t| t.deadline).min()?;
        Some((target, deadline))
    }

    /// Completer: blocks until tickets arrive in the committed queue.
    pub fn wait_for_committed_work(&self, timeout: Duration) {
        let mut cq = self.cq.lock();
        if cq.tickets.is_empty() {
            self.done_cv.wait_for(&mut cq, timeout);
        }
    }

    /// Completer: splits the committed queue into (durable-at-`tail`,
    /// past-deadline) tickets, leaving the rest queued.
    pub fn split_resolved(
        &self,
        tail: EntryId,
        now: Instant,
    ) -> (Vec<Arc<Ticket>>, Vec<Arc<Ticket>>) {
        let mut cq = self.cq.lock();
        let mut durable = Vec::new();
        let mut timed_out = Vec::new();
        cq.tickets.retain(|t| {
            if t.last_id <= tail {
                durable.push(Arc::clone(t));
                false
            } else if now >= t.deadline {
                timed_out.push(Arc::clone(t));
                false
            } else {
                true
            }
        });
        (durable, timed_out)
    }

    /// Returns a resolved ticket's window claim and wakes blocked
    /// submitters.
    pub fn release_window(&self, entries: usize, bytes: usize) {
        if entries == 0 && bytes == 0 {
            return;
        }
        let mut q = self.q.lock();
        q.inflight_entries = q.inflight_entries.saturating_sub(entries);
        q.inflight_bytes = q.inflight_bytes.saturating_sub(bytes);
        self.window_cv.notify_all();
    }

    /// Wakes both pipeline threads (shutdown nudge).
    pub fn notify_all(&self) {
        self.work_cv.notify_all();
        self.done_cv.notify_all();
        self.window_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(last: u64, entries: usize, bytes: usize) -> Arc<Ticket> {
        Ticket::new(TicketSpec {
            last_id: EntryId(last),
            entries,
            bytes,
            epoch: 1,
            deadline: Instant::now() + Duration::from_secs(5),
            e2e_start_us: Some(0),
            now_us: 0,
        })
    }

    #[test]
    fn ticket_resolution_is_sticky_and_wakes_waiters() {
        let t = ticket(3, 1, 10);
        assert!(!t.is_resolved());
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || t2.wait(Duration::from_secs(2)));
        t.resolve(TicketOutcome::Durable, |_| {});
        assert!(!t.resolve(TicketOutcome::TimedOut, |_| {})); // first resolution wins
        assert_eq!(waiter.join().ok().flatten(), Some(TicketOutcome::Durable));
        assert_eq!(t.outcome(), Some(TicketOutcome::Durable));
    }

    #[test]
    fn waker_fires_on_resolve_and_immediately_when_late() {
        let fired = Arc::new(AtomicU64::new(0));
        let t = ticket(1, 1, 1);
        let f = Arc::clone(&fired);
        t.set_waker(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        t.resolve(TicketOutcome::Durable, |_| {});
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Registering after resolution fires right away.
        let f = Arc::clone(&fired);
        t.set_waker(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn window_blocks_until_released() {
        let p = CommitPipeline::new();
        let t = ticket(1, 4, 100);
        p.stage(StagedRun {
            ticket: Arc::clone(&t),
            payloads: Vec::new(),
            first_id: EntryId(1),
        });
        // Window of 4 entries is now full; the wait should consume most of
        // its timeout.
        let waited = p.wait_for_window(4, 1 << 20, Duration::from_millis(40));
        assert!(waited >= Duration::from_millis(30));
        p.release_window(t.entries, t.bytes);
        let waited = p.wait_for_window(4, 1 << 20, Duration::from_millis(40));
        assert!(waited < Duration::from_millis(30));
    }

    #[test]
    fn begin_release_wins_exactly_once() {
        let t = ticket(1, 2, 20);
        assert!(t.begin_release());
        assert!(!t.begin_release());
        assert!(!t.begin_release());
    }

    #[test]
    fn window_claim_survives_the_drain_until_release() {
        let p = CommitPipeline::new();
        assert_eq!(p.inflight(), (0, 0));
        let t = ticket(1, 2, 20);
        p.stage(StagedRun {
            ticket: Arc::clone(&t),
            payloads: Vec::new(),
            first_id: EntryId(1),
        });
        assert_eq!(p.inflight(), (2, 20));
        let _drained = p.take_staged_now();
        // Window claim survives the drain until the ticket resolves.
        assert_eq!(p.inflight(), (2, 20));
        p.release_window(t.entries, t.bytes);
        assert_eq!(p.inflight(), (0, 0));
    }

    #[test]
    fn closed_committed_queue_hands_pushes_back() {
        let p = CommitPipeline::new();
        assert!(p.push_committed(vec![ticket(1, 1, 1)]).is_empty());
        let parked = p.close_committed();
        assert_eq!(parked.len(), 1);
        assert!(p.next_wait_target().is_none());
        // After the close nobody watches the watermark: the pusher keeps
        // the tickets and must resolve them itself.
        let back = p.push_committed(vec![ticket(2, 1, 1), ticket(3, 1, 1)]);
        assert_eq!(back.len(), 2);
        assert!(p.next_wait_target().is_none());
    }

    #[test]
    fn split_resolved_handles_non_monotone_ids() {
        let p = CommitPipeline::new();
        let write = ticket(7, 3, 30);
        let hazard = ticket(5, 0, 0);
        assert!(p
            .push_committed(vec![Arc::clone(&write), Arc::clone(&hazard)])
            .is_empty());
        let (target, _) = p.next_wait_target().expect("queued");
        assert_eq!(target, EntryId(5));
        let (durable, timed_out) = p.split_resolved(EntryId(6), Instant::now());
        assert_eq!(durable.len(), 1);
        assert_eq!(durable[0].last_id, EntryId(5));
        assert!(timed_out.is_empty());
        let (durable, _) = p.split_resolved(EntryId(7), Instant::now());
        assert_eq!(durable.len(), 1);
        assert_eq!(durable[0].last_id, EntryId(7));
        assert!(p.next_wait_target().is_none());
    }
}
