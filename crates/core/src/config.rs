//! Shard and cluster configuration.

use memorydb_txlog::LogConfig;
use std::time::Duration;

/// Tunables of one MemoryDB shard.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Leadership lease duration (paper §4.1.3). A primary that cannot
    /// renew self-demotes at lease end.
    pub lease: Duration,
    /// How often a primary renews its lease. `Default` and `fast()` set
    /// `lease / 3`; `validate` requires it to be below `lease`.
    pub renew_interval: Duration,
    /// How long a replica refrains from campaigning after observing a
    /// renewal. MUST be strictly greater than `lease` so leases stay
    /// disjoint (paper: "backoff is ensured to be strictly greater than the
    /// lease duration").
    pub backoff: Duration,
    /// Background tick granularity for lease/election timers.
    pub tick: Duration,
    /// How long a client write waits for durability before the node treats
    /// the commit as failed.
    pub commit_timeout: Duration,
    /// Inject a checksum probe every this many Effects records (§7.2.1).
    pub checksum_probe_every: u64,
    /// Commit-pipeline backpressure: max staged-but-unresolved log entries
    /// in flight before new batches block at submission.
    pub commit_window_entries: usize,
    /// Commit-pipeline backpressure: max staged-but-unresolved payload
    /// bytes in flight before new batches block at submission.
    pub commit_window_bytes: usize,
    /// Transaction-log service configuration for this shard.
    pub log: LogConfig,
    /// Worker threads for restore: parallel snapshot-chunk fetch/decode and
    /// partitioned log replay (§4.2.1). `0` = auto (one per available
    /// core), `1` = fully sequential.
    pub restore_workers: usize,
    /// How many slot-range chunks a full snapshot is split into (and the
    /// upper bound on a delta's dirty ranges after coalescing). More chunks
    /// = more restore parallelism, more objects per snapshot.
    pub snapshot_chunks: usize,
    /// Max deltas stacked on one full snapshot before the off-box
    /// snapshotter forces a fresh full (bounds restore chain length and the
    /// blast radius of a lost delta).
    pub snapshot_max_chain: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            lease: Duration::from_millis(600),
            renew_interval: Duration::from_millis(200),
            backoff: Duration::from_millis(900),
            tick: Duration::from_millis(25),
            commit_timeout: Duration::from_secs(5),
            checksum_probe_every: 64,
            commit_window_entries: 1024,
            commit_window_bytes: 4 << 20,
            log: LogConfig::instant(),
            restore_workers: 0,
            snapshot_chunks: 16,
            snapshot_max_chain: 4,
        }
    }
}

impl ShardConfig {
    /// Fast timings for tests: short lease/backoff so failovers complete in
    /// tens of milliseconds.
    pub fn fast() -> ShardConfig {
        ShardConfig {
            lease: Duration::from_millis(150),
            renew_interval: Duration::from_millis(50),
            backoff: Duration::from_millis(225),
            tick: Duration::from_millis(10),
            commit_timeout: Duration::from_secs(2),
            ..ShardConfig::default()
        }
    }

    /// Validates the invariants the election safety argument needs.
    pub fn validate(&self) -> Result<(), String> {
        if self.backoff <= self.lease {
            return Err(format!(
                "backoff ({:?}) must be strictly greater than lease ({:?})",
                self.backoff, self.lease
            ));
        }
        if self.renew_interval >= self.lease {
            return Err(format!(
                "renew interval ({:?}) must be below the lease ({:?})",
                self.renew_interval, self.lease
            ));
        }
        if self.commit_window_entries == 0 || self.commit_window_bytes == 0 {
            return Err("commit window must allow at least one entry/byte".into());
        }
        if self.log.quorum_pipeline_depth == 0 {
            return Err("quorum_pipeline_depth must allow at least one in-flight batch".into());
        }
        if self.snapshot_chunks == 0 || self.snapshot_chunks > 1024 {
            return Err(format!(
                "snapshot_chunks ({}) must be in 1..=1024",
                self.snapshot_chunks
            ));
        }
        if self.snapshot_max_chain > 64 {
            return Err(format!(
                "snapshot_max_chain ({}) must be at most 64",
                self.snapshot_max_chain
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ShardConfig::default().validate().unwrap();
        ShardConfig::fast().validate().unwrap();
    }

    #[test]
    fn backoff_must_exceed_lease() {
        let cfg = ShardConfig {
            backoff: Duration::from_millis(100),
            lease: Duration::from_millis(100),
            ..ShardConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn commit_window_must_be_nonzero() {
        let cfg = ShardConfig {
            commit_window_entries: 0,
            ..ShardConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ShardConfig {
            commit_window_bytes: 0,
            ..ShardConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn quorum_pipeline_depth_must_be_nonzero() {
        let mut cfg = ShardConfig::default();
        cfg.log.quorum_pipeline_depth = 0;
        assert!(cfg.validate().is_err());
        cfg.log.quorum_pipeline_depth = 1;
        cfg.validate().unwrap();
    }

    #[test]
    fn snapshot_chunks_and_chain_are_bounded() {
        let cfg = ShardConfig {
            snapshot_chunks: 0,
            ..ShardConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ShardConfig {
            snapshot_chunks: 4096,
            ..ShardConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ShardConfig {
            snapshot_max_chain: 65,
            ..ShardConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ShardConfig {
            snapshot_max_chain: 0, // every snapshot full — valid
            ..ShardConfig::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn renew_interval_below_lease() {
        let cfg = ShardConfig {
            renew_interval: Duration::from_secs(10),
            ..ShardConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
