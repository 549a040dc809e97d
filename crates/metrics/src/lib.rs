//! In-process observability substrate for the MemoryDB reproduction.
//!
//! The paper's evaluation (§6) is a story about *where time goes* — IO
//! threads vs. engine execution vs. txlog quorum wait — so every serving
//! and durability layer records into one of these registries and the
//! `INFO` / `SLOWLOG` / `LATENCY HISTOGRAM` commands (plus the bench
//! drivers) read them back out.
//!
//! Design constraints, in order:
//!
//! 1. **Dependency-free**: std + `parking_lot` (the workspace-mandated
//!    lock) only. No hdrhistogram / metrics-rs / prometheus.
//! 2. **Panic-free and lock-free on the hot path**: counters, gauges and
//!    histogram buckets are plain atomics; the only mutex in the crate
//!    guards the slowlog ring, which is touched at most once per slow
//!    command.
//! 3. **Deterministic clock seam**: every duration measurement goes
//!    through [`Clock`], which is wall (monotonic `Instant`) in the real
//!    stack and manually tick-driven inside the sim/chaos scopes, where
//!    the analyzer's sim-determinism lint forbids ambient time.
//!
//! Histograms are HdrHistogram-flavored power-of-two buckets: bucket `i`
//! (for `i >= 1`) covers `[2^(i-1), 2^i)` microseconds, bucket 0 holds
//! zero. That gives ~2x value resolution over a 0..u64::MAX range with a
//! fixed 65-slot atomic array — coarse, but stage attribution cares about
//! orders of magnitude, not microsecond precision.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;

pub use alloc::{alloc_counts, AllocCounts, CountingAlloc};

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Identifier enums: fixed taxonomies, so the registry is a handful of flat
// atomic arrays with infallible indexing and zero allocation per record.
// ---------------------------------------------------------------------------

/// A latency stage. One fixed histogram per stage per registry.
///
/// Serving path (server + node registries):
/// `io_read`/`io_write`/`parse` are per-sweep server spans, `engine` is the
/// node span from engine-lock request to lock release (queueing + hold),
/// `stripe_lock_hold` is the hold alone (see [`StageId::EngineLockHold`] for
/// the name), `apply` is one command's
/// execution, `commit_queue_wait` runs from lock release to the flush's
/// append, `durability` from the append to the ticket resolving, and `e2e`
/// is the node's whole batch span — so
/// `engine + commit_queue_wait + durability ≈ e2e`.
///
/// Durability path (txlog registry): `log_append` is the synchronous
/// accept call, `quorum_ack` is accept→commit per entry, `log_read` is one
/// read call (including any injected delay), `read_delay` records the
/// injected delay itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageId {
    /// Server: socket read sweep (time spent in `read(2)` per sweep).
    IoRead,
    /// Server: reply flush (time spent in `write(2)` per sweep).
    IoWrite,
    /// Server: RESP/inline parse loop for one batch.
    Parse,
    /// Node: engine-lock request → release (queueing + execution + staging).
    Engine,
    /// Node: one client batch's engine-lock hold, acquisition → release.
    /// Its wire name and [`CounterId::EngineLockConflicts`]'s still say
    /// "stripe", from when the engine lock was sixteen slot-range stripes:
    /// the perf ledger reads both rows by name, so renaming them is a
    /// benchmark change, not a registry one.
    EngineLockHold,
    /// Node: one command's `Engine::execute` call.
    Apply,
    /// Node: ticket enqueue → committer append (commit-pipeline queueing).
    CommitQueueWait,
    /// Node: adaptive flush-window width per flush — oldest staged ticket's
    /// enqueue → append handoff (idle fast path ≈ 0, widens under load).
    FlushWindow,
    /// Node: committer append → commit watermark passing the ticket.
    Durability,
    /// Node: entries per committer flush (a count histogram, not µs —
    /// the cross-connection group-commit batch size).
    CommitFlushEntries,
    /// Node: one client batch, submission → replies releasable.
    E2e,
    /// Txlog: one (batch) append accept call.
    LogAppend,
    /// Txlog: accept → quorum commit, per entry.
    QuorumAck,
    /// Txlog: one committed-read call, including injected delay.
    LogRead,
    /// Txlog: the injected read-side delay actually applied.
    ReadDelay,
}

impl StageId {
    /// Every stage, in display order.
    pub const ALL: [StageId; 15] = [
        StageId::IoRead,
        StageId::IoWrite,
        StageId::Parse,
        StageId::Engine,
        StageId::EngineLockHold,
        StageId::Apply,
        StageId::CommitQueueWait,
        StageId::FlushWindow,
        StageId::Durability,
        StageId::CommitFlushEntries,
        StageId::E2e,
        StageId::LogAppend,
        StageId::QuorumAck,
        StageId::LogRead,
        StageId::ReadDelay,
    ];

    /// Stable snake_case name used by INFO/LATENCY and the bench CSVs.
    pub fn name(self) -> &'static str {
        match self {
            StageId::IoRead => "io_read",
            StageId::IoWrite => "io_write",
            StageId::Parse => "parse",
            StageId::Engine => "engine",
            StageId::EngineLockHold => "stripe_lock_hold",
            StageId::Apply => "apply",
            StageId::CommitQueueWait => "commit_queue_wait",
            StageId::FlushWindow => "flush_window",
            StageId::Durability => "durability",
            StageId::CommitFlushEntries => "commit_flush_entries",
            StageId::E2e => "e2e",
            StageId::LogAppend => "log_append",
            StageId::QuorumAck => "quorum_ack",
            StageId::LogRead => "log_read",
            StageId::ReadDelay => "read_delay",
        }
    }
}

/// A monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Server: connections accepted.
    ConnectionsAccepted,
    /// Node: commands executed through `handle_batch`.
    CommandsDispatched,
    /// Node: batches executed through `handle_batch`.
    BatchesDispatched,
    /// Node: tickets that shared a committer flush with an earlier ticket
    /// (`tickets_in_flush - 1` per flush — cross-connection coalescing).
    AppendsCoalesced,
    /// Node: client batches that found the engine lock already held (the
    /// opportunistic `try_lock` missed and had to block).
    EngineLockConflicts,
    /// Server: protocol errors that closed a connection.
    ProtocolErrors,
    /// Node: commands recorded into the slowlog ring.
    SlowlogRecorded,
    /// Txlog: reads rejected with `Trimmed`.
    ReadsTrimmed,
    /// Txlog: conditional appends rejected with `Conflict`.
    AppendConflicts,
    /// Txlog: appends/reads rejected because the client was partitioned.
    PartitionRejections,
    /// Txlog fault hook: `set_az_up` trips.
    FaultAzFlips,
    /// Txlog fault hook: `set_client_partitioned` trips.
    FaultPartitionFlips,
    /// Txlog fault hook: `set_read_delay` trips.
    FaultReadDelaySets,
    /// Txlog fault hook: `set_commits_suspended` trips.
    FaultCommitSuspendFlips,
    /// Txlog fault hook: `clear_faults` trips.
    FaultClears,
}

impl CounterId {
    /// Every counter, in display order.
    pub const ALL: [CounterId; 15] = [
        CounterId::ConnectionsAccepted,
        CounterId::CommandsDispatched,
        CounterId::BatchesDispatched,
        CounterId::AppendsCoalesced,
        CounterId::EngineLockConflicts,
        CounterId::ProtocolErrors,
        CounterId::SlowlogRecorded,
        CounterId::ReadsTrimmed,
        CounterId::AppendConflicts,
        CounterId::PartitionRejections,
        CounterId::FaultAzFlips,
        CounterId::FaultPartitionFlips,
        CounterId::FaultReadDelaySets,
        CounterId::FaultCommitSuspendFlips,
        CounterId::FaultClears,
    ];

    /// Stable snake_case name used by INFO and the bench CSVs.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::ConnectionsAccepted => "connections_accepted",
            CounterId::CommandsDispatched => "commands_dispatched",
            CounterId::BatchesDispatched => "batches_dispatched",
            CounterId::AppendsCoalesced => "appends_coalesced",
            CounterId::EngineLockConflicts => "stripe_conflicts",
            CounterId::ProtocolErrors => "protocol_errors",
            CounterId::SlowlogRecorded => "slowlog_recorded",
            CounterId::ReadsTrimmed => "reads_trimmed",
            CounterId::AppendConflicts => "append_conflicts",
            CounterId::PartitionRejections => "partition_rejections",
            CounterId::FaultAzFlips => "fault_az_flips",
            CounterId::FaultPartitionFlips => "fault_partition_flips",
            CounterId::FaultReadDelaySets => "fault_read_delay_sets",
            CounterId::FaultCommitSuspendFlips => "fault_commit_suspend_flips",
            CounterId::FaultClears => "fault_clears",
        }
    }
}

/// A point-in-time gauge (last write wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Node: leadership epoch of the current lease (0 = never led).
    LeaseEpoch,
    /// Monitor: last snapshot-covered log position for the shard.
    SnapshotCoveredEntry,
    /// Node (replica): committed-tail minus applied position.
    ReplicaStalenessEntries,
    /// Txlog: last committed entry id.
    LogCommittedTail,
    /// Txlog: first readable entry id (trim boundary + 1).
    LogFirstAvailable,
    /// Txlog: accepted-but-uncommitted entries.
    LogPendingEntries,
    /// Txlog: AZs currently marked up.
    AzUpCount,
    /// Txlog: appended batches whose quorum ack is still outstanding
    /// (the pipelined-quorum in-flight depth).
    QuorumInflight,
    /// Server: currently connected clients.
    ConnectedClients,
}

impl GaugeId {
    /// Every gauge, in display order.
    pub const ALL: [GaugeId; 9] = [
        GaugeId::LeaseEpoch,
        GaugeId::SnapshotCoveredEntry,
        GaugeId::ReplicaStalenessEntries,
        GaugeId::LogCommittedTail,
        GaugeId::LogFirstAvailable,
        GaugeId::LogPendingEntries,
        GaugeId::AzUpCount,
        GaugeId::QuorumInflight,
        GaugeId::ConnectedClients,
    ];

    /// Stable snake_case name used by INFO and the bench CSVs.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::LeaseEpoch => "lease_epoch",
            GaugeId::SnapshotCoveredEntry => "snapshot_covered_entry",
            GaugeId::ReplicaStalenessEntries => "replica_staleness_entries",
            GaugeId::LogCommittedTail => "log_committed_tail",
            GaugeId::LogFirstAvailable => "log_first_available",
            GaugeId::LogPendingEntries => "log_pending_entries",
            GaugeId::AzUpCount => "az_up_count",
            GaugeId::QuorumInflight => "quorum_inflight",
            GaugeId::ConnectedClients => "connected_clients",
        }
    }
}

// ---------------------------------------------------------------------------
// Clock seam
// ---------------------------------------------------------------------------

enum ClockInner {
    /// Monotonic wall time since registry creation.
    Wall(Instant),
    /// Manually advanced tick counter (microseconds) — the deterministic
    /// seam for sim/chaos scopes, where the analyzer forbids ambient time.
    Manual(AtomicU64),
}

/// Microsecond clock behind every duration measurement in a [`Registry`].
pub struct Clock(ClockInner);

impl Clock {
    /// Wall clock (monotonic, microseconds since creation).
    pub fn wall() -> Clock {
        Clock(ClockInner::Wall(Instant::now()))
    }

    /// Manual tick-driven clock starting at 0 µs.
    pub fn manual() -> Clock {
        Clock(ClockInner::Manual(AtomicU64::new(0)))
    }

    /// Current time in microseconds.
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            ClockInner::Wall(origin) => {
                // Saturate instead of wrapping ~584k years out.
                u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
            }
            ClockInner::Manual(t) => t.load(Ordering::Relaxed),
        }
    }

    /// Advances a manual clock by `us` microseconds; no-op on a wall clock.
    pub fn advance_us(&self, us: u64) {
        if let ClockInner::Manual(t) = &self.0 {
            t.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Whether this is the deterministic manual clock.
    pub fn is_manual(&self) -> bool {
        matches!(self.0, ClockInner::Manual(_))
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of power-of-two buckets: bucket 0 for value 0, bucket `i` for
/// `[2^(i-1), 2^i)`, bucket 64 for `>= 2^63`.
const NUM_BUCKETS: usize = 65;

/// Lock-free fixed-bucket latency histogram (microsecond values).
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

fn bucket_for(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Representative (upper-bound) value for a bucket index.
fn bucket_upper(idx: usize) -> u64 {
    if idx >= 64 {
        u64::MAX
    } else {
        // Bucket 0 holds only the value 0; bucket i covers [2^(i-1), 2^i).
        (1u64 << idx) - 1
    }
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one microsecond sample.
    pub fn record_us(&self, v: u64) {
        if let Some(b) = self.buckets.get(bucket_for(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(v, Ordering::Relaxed);
        self.max_us.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest sample in microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    /// Approximate quantile (bucket upper bound, clamped to the observed
    /// max). Concurrent recording can skew the answer by a sample or two;
    /// counters are monotonic so it never goes backwards structurally.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b.load(Ordering::Relaxed));
            if seen >= rank {
                return bucket_upper(idx).min(self.max_us());
            }
        }
        self.max_us()
    }

    /// Per-bucket (upper_bound_us, count) pairs for non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_upper(idx), n))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Slowlog
// ---------------------------------------------------------------------------

/// One slowlog entry (Redis-shaped: id, unix time, duration, argv).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowlogEntry {
    /// Monotonically increasing entry id, never reset.
    pub id: u64,
    /// Unix timestamp (seconds) when the command finished.
    pub unix_time_s: i64,
    /// Execution duration in microseconds.
    pub duration_us: u64,
    /// Command arguments as received.
    pub args: Vec<Vec<u8>>,
}

/// Fixed-capacity ring of the slowest commands, Redis `SLOWLOG` semantics:
/// threshold < 0 disables recording, 0 records everything, otherwise a
/// command is recorded when its duration (µs) is >= the threshold.
pub struct Slowlog {
    next_id: AtomicU64,
    threshold_us: AtomicI64,
    max_len: usize,
    entries: Mutex<VecDeque<SlowlogEntry>>,
}

impl Slowlog {
    /// Default recording threshold: 10ms, like Redis.
    pub const DEFAULT_THRESHOLD_US: i64 = 10_000;
    /// Default ring capacity.
    pub const DEFAULT_MAX_LEN: usize = 128;

    fn new() -> Slowlog {
        Slowlog {
            next_id: AtomicU64::new(0),
            threshold_us: AtomicI64::new(Self::DEFAULT_THRESHOLD_US),
            max_len: Self::DEFAULT_MAX_LEN,
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Current recording threshold in microseconds.
    pub fn threshold_us(&self) -> i64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Sets the recording threshold in microseconds.
    pub fn set_threshold_us(&self, v: i64) {
        self.threshold_us.store(v, Ordering::Relaxed);
    }

    /// Records the command if it crossed the threshold; `make_args` is only
    /// called when recording (no per-command allocation on the fast path).
    /// Returns whether an entry was recorded.
    pub fn observe<F>(&self, duration_us: u64, unix_time_s: i64, make_args: F) -> bool
    where
        F: FnOnce() -> Vec<Vec<u8>>,
    {
        let threshold = self.threshold_us();
        if threshold < 0 {
            return false; // recording disabled
        }
        if threshold > 0 && duration_us < threshold.unsigned_abs() {
            return false; // fast command
        }
        let entry = SlowlogEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            unix_time_s,
            duration_us,
            args: make_args(),
        };
        let mut ring = self.entries.lock();
        if ring.len() >= self.max_len {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// Up to `n` most recent entries, newest first (Redis `SLOWLOG GET`).
    pub fn get(&self, n: usize) -> Vec<SlowlogEntry> {
        self.entries.lock().iter().rev().take(n).cloned().collect()
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Clears the ring (ids keep increasing, like Redis).
    pub fn reset(&self) {
        self.entries.lock().clear();
    }
}

// ---------------------------------------------------------------------------
// Registry + snapshot
// ---------------------------------------------------------------------------

/// One component's metrics: flat atomic arrays keyed by the id enums, a
/// slowlog ring, and the clock seam. Cheap to share (`Arc<Registry>`), safe
/// to record into from any thread, and panic-free by construction.
pub struct Registry {
    clock: Clock,
    counters: [AtomicU64; CounterId::ALL.len()],
    gauges: [AtomicI64; GaugeId::ALL.len()],
    stages: [Histogram; StageId::ALL.len()],
    slowlog: Slowlog,
}

impl Registry {
    /// Registry on the wall clock (the real serving stack).
    pub fn new() -> Registry {
        Registry::with_clock(Clock::wall())
    }

    /// Registry on the manual tick clock (sim/chaos scopes).
    pub fn new_manual() -> Registry {
        Registry::with_clock(Clock::manual())
    }

    fn with_clock(clock: Clock) -> Registry {
        Registry {
            clock,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            stages: std::array::from_fn(|_| Histogram::new()),
            slowlog: Slowlog::new(),
        }
    }

    /// The clock behind this registry.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current registry time in microseconds — pair two calls to time a span.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Adds `n` to a counter.
    pub fn add(&self, c: CounterId, n: u64) {
        if let Some(slot) = self.counters.get(c as usize) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.
    pub fn incr(&self, c: CounterId) {
        self.add(c, 1);
    }

    /// Current counter value.
    pub fn counter(&self, c: CounterId) -> u64 {
        self.counters
            .get(c as usize)
            .map_or(0, |slot| slot.load(Ordering::Relaxed))
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, g: GaugeId, v: i64) {
        if let Some(slot) = self.gauges.get(g as usize) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` to a gauge in one atomic step, so concurrent updates
    /// from several threads cannot publish out of order.
    pub fn add_gauge(&self, g: GaugeId, delta: i64) {
        if let Some(slot) = self.gauges.get(g as usize) {
            slot.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current gauge value.
    pub fn gauge(&self, g: GaugeId) -> i64 {
        self.gauges
            .get(g as usize)
            .map_or(0, |slot| slot.load(Ordering::Relaxed))
    }

    /// Records one duration sample into a stage histogram.
    pub fn record_stage(&self, s: StageId, dur_us: u64) {
        if let Some(h) = self.stages.get(s as usize) {
            h.record_us(dur_us);
        }
    }

    /// The histogram behind a stage.
    pub fn stage(&self, s: StageId) -> &Histogram {
        // The array is sized by StageId::ALL so the lookup always hits; the
        // fallback keeps the accessor total without a panic path.
        match self.stages.get(s as usize) {
            Some(h) => h,
            None => &self.stages[0],
        }
    }

    /// The slowlog ring.
    pub fn slowlog(&self) -> &Slowlog {
        &self.slowlog
    }

    /// A consistent-enough point-in-time copy of everything (counters,
    /// gauges, stage summaries) for INFO/LATENCY rendering and bench output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: CounterId::ALL
                .iter()
                .map(|&c| (c.name(), self.counter(c)))
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|&g| (g.name(), self.gauge(g)))
                .collect(),
            stages: StageId::ALL
                .iter()
                .map(|&s| {
                    let h = self.stage(s);
                    StageSummary {
                        name: s.name(),
                        count: h.count(),
                        sum_us: h.sum_us(),
                        p50_us: h.quantile_us(0.50),
                        p99_us: h.quantile_us(0.99),
                        p999_us: h.quantile_us(0.999),
                        max_us: h.max_us(),
                    }
                })
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Point-in-time copy of a [`Registry`], consumed by the bench drivers and
/// the INFO/LATENCY renderers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`CounterId::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, in [`GaugeId::ALL`] order.
    pub gauges: Vec<(&'static str, i64)>,
    /// One summary per stage, in [`StageId::ALL`] order.
    pub stages: Vec<StageSummary>,
}

impl MetricsSnapshot {
    /// Looks up a stage summary by name.
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Summary of one stage histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage name (see [`StageId::name`]).
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (µs).
    pub sum_us: u64,
    /// Approximate 50th percentile (µs).
    pub p50_us: u64,
    /// Approximate 99th percentile (µs).
    pub p99_us: u64,
    /// Approximate 99.9th percentile (µs).
    pub p999_us: u64,
    /// Largest sample (µs).
    pub max_us: u64,
}

impl StageSummary {
    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(2), 2);
        assert_eq!(bucket_for(3), 2);
        assert_eq!(bucket_for(4), 3);
        assert_eq!(bucket_for(1023), 10);
        assert_eq!(bucket_for(1024), 11);
        assert_eq!(bucket_for(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles_and_stats() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record_us(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_us(), 500_500);
        assert_eq!(h.max_us(), 1000);
        // p50 of 1..=1000 is ~500; bucket resolution is 2x, so accept the
        // covering bucket's upper bound.
        let p50 = h.quantile_us(0.50);
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        let p999 = h.quantile_us(0.999);
        assert!((999..=1000).contains(&p999), "p999 {p999}");
        assert_eq!(h.quantile_us(1.0), 1000);
    }

    #[test]
    fn histogram_empty_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn manual_clock_is_tick_driven() {
        let reg = Registry::new_manual();
        assert!(reg.clock().is_manual());
        let t0 = reg.now_us();
        assert_eq!(t0, 0);
        reg.clock().advance_us(250);
        assert_eq!(reg.now_us(), 250);
        // A span measured across ticks records exactly the ticked amount —
        // the determinism seam the sim/chaos scopes rely on.
        let start = reg.now_us();
        reg.clock().advance_us(1_000);
        reg.record_stage(StageId::Apply, reg.now_us() - start);
        assert_eq!(reg.stage(StageId::Apply).max_us(), 1_000);
    }

    #[test]
    fn wall_clock_advances() {
        let c = Clock::wall();
        let a = c.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now_us() > a);
        c.advance_us(1_000_000); // no-op on wall clocks
        assert!(c.now_us() < 60_000_000);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new();
        reg.incr(CounterId::CommandsDispatched);
        reg.add(CounterId::CommandsDispatched, 4);
        assert_eq!(reg.counter(CounterId::CommandsDispatched), 5);
        reg.set_gauge(GaugeId::LeaseEpoch, 7);
        assert_eq!(reg.gauge(GaugeId::LeaseEpoch), 7);
        reg.set_gauge(GaugeId::LeaseEpoch, -1);
        assert_eq!(reg.gauge(GaugeId::LeaseEpoch), -1);
    }

    #[test]
    fn add_gauge_from_four_threads_sums_exactly() {
        let reg = Registry::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..10_000 {
                        reg.add_gauge(GaugeId::ConnectedClients, 2);
                        reg.add_gauge(GaugeId::ConnectedClients, -1);
                    }
                });
            }
        });
        assert_eq!(reg.gauge(GaugeId::ConnectedClients), 40_000);
    }

    #[test]
    fn slowlog_threshold_and_ring_order() {
        let log = Slowlog::new();
        log.set_threshold_us(100);
        assert!(!log.observe(99, 0, || vec![b"FAST".to_vec()]));
        assert!(log.observe(100, 1, || vec![b"SLOW1".to_vec()]));
        assert!(log.observe(500, 2, || vec![b"SLOW2".to_vec()]));
        assert_eq!(log.len(), 2);
        let got = log.get(10);
        // Newest first.
        assert_eq!(got[0].args, vec![b"SLOW2".to_vec()]);
        assert_eq!(got[1].args, vec![b"SLOW1".to_vec()]);
        assert!(got[0].id > got[1].id);
        log.reset();
        assert!(log.is_empty());
        // Ids keep increasing across RESET.
        assert!(log.observe(101, 3, || vec![b"SLOW3".to_vec()]));
        assert!(log.get(1)[0].id > got[0].id);
    }

    #[test]
    fn slowlog_negative_threshold_disables_zero_records_all() {
        let log = Slowlog::new();
        log.set_threshold_us(-1);
        assert!(!log.observe(u64::MAX, 0, Vec::new));
        log.set_threshold_us(0);
        assert!(log.observe(0, 0, Vec::new));
    }

    #[test]
    fn slowlog_ring_caps_length() {
        let log = Slowlog::new();
        log.set_threshold_us(0);
        for i in 0..(Slowlog::DEFAULT_MAX_LEN as u64 + 50) {
            log.observe(i, 0, Vec::new);
        }
        assert_eq!(log.len(), Slowlog::DEFAULT_MAX_LEN);
        // The retained entries are the most recent ones.
        let newest = log.get(1);
        assert_eq!(newest[0].id, Slowlog::DEFAULT_MAX_LEN as u64 + 49);
    }

    #[test]
    fn snapshot_contains_every_id() {
        let reg = Registry::new();
        reg.record_stage(StageId::Engine, 42);
        reg.incr(CounterId::BatchesDispatched);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), CounterId::ALL.len());
        assert_eq!(snap.gauges.len(), GaugeId::ALL.len());
        assert_eq!(snap.stages.len(), StageId::ALL.len());
        let engine = snap.stage("engine").unwrap();
        assert_eq!(engine.count, 1);
        assert_eq!(engine.sum_us, 42);
        assert!(engine.p50_us >= 42 && engine.p50_us <= 63);
        assert_eq!(snap.counter("batches_dispatched"), Some(1));
        assert!(snap.stage("no_such_stage").is_none());
    }
}
