//! The program under test, as the benchmark runs it: one real single-shard
//! primary behind the default multiplexed server, in this process, plus the
//! off-box snapshot and restore paths that share only its object store and
//! log.

use crate::gen::{key_name, parse_value, preload_streams};
use crate::loadgen::{run_window, Stop, WindowPlan};
use crate::procfs;
use memorydb_core::restore::{restore_replica_opts, ReplayTarget, RestoreOptions, RestorePoint};
use memorydb_core::{ClusterBus, Node, NodeIdGen, OffboxSnapshotter, Shard, ShardConfig};
use memorydb_engine::{cmd, EngineVersion, Frame, SessionState};
use memorydb_objectstore::ObjectStore;
use memorydb_server::Server;
use memorydb_txlog::{EntryId, LogConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the preload keeps outstanding per connection: pipelines of 100,
/// a few of them in flight so the commit latency overlaps.
const PRELOAD_WINDOW: u64 = 400;

/// A booted shard with its server.
pub struct Instance {
    pub shard: Arc<Shard>,
    pub primary: Arc<Node>,
    server: Server,
    pub addr: SocketAddr,
    threads_before: usize,
}

impl Instance {
    /// Boots a one-node shard (16 stripes, no replicas) on `log`, waits for
    /// it to elect itself, and starts the server on an ephemeral loopback
    /// port. `lease` is long against any stall the machine can impose, so
    /// the primary is never demoted mid-run.
    pub fn boot(log: LogConfig, lease: Duration) -> Instance {
        let threads_before = procfs::thread_count();
        let shard = Shard::bootstrap(
            0,
            ShardConfig {
                lease,
                renew_interval: lease / 5,
                backoff: lease + lease / 10,
                log,
                ..ShardConfig::default()
            },
            Arc::new(ObjectStore::new()),
            Arc::new(ClusterBus::new()),
            Arc::new(NodeIdGen::new()),
            vec![(0, 16383)],
            0,
        );
        // The first election starts only after a full backoff.
        let primary = shard
            .wait_for_primary(3 * lease + Duration::from_secs(5))
            .expect("the shard elects its only node");
        let server =
            Server::start(Arc::clone(&primary), "127.0.0.1:0").expect("the server binds loopback");
        let addr = server.local_addr;
        Instance {
            shard,
            primary,
            server,
            addr,
            threads_before,
        }
    }

    /// Loads every key at version 0 over TCP, closed loop on two
    /// connections. Returns `(attempted, failed)`.
    pub fn preload(&self, keys: u32) -> (u64, u64) {
        let streams = preload_streams(keys, 2);
        let plans: Vec<WindowPlan<'_>> = streams
            .iter()
            .map(|stream| WindowPlan {
                stream,
                window: PRELOAD_WINDOW,
            })
            .collect();
        let res = run_window(self.addr, &plans, Stop::StreamEnd);
        (res.attempted, res.failed)
    }

    /// One off-box snapshot cycle with log trim; returns how long it took.
    pub fn cut_snapshot(&self) -> Duration {
        let offbox =
            OffboxSnapshotter::new(Arc::clone(self.shard.ctx()), EngineVersion::CURRENT, 40_001);
        let t0 = Instant::now();
        offbox
            .create_snapshot(true)
            .expect("the off-box snapshot verifies and publishes");
        t0.elapsed()
    }

    pub fn log_tail(&self) -> EntryId {
        self.shard.ctx().log.committed_tail()
    }

    /// Restores a replica image from the object store and the log only —
    /// never from the primary's memory — up to exactly `tail`.
    pub fn restore(&self, tail: EntryId, workers: usize) -> (RestorePoint, Duration) {
        let ctx = self.shard.ctx();
        let t0 = Instant::now();
        let rp = restore_replica_opts(
            &ctx.store,
            &ctx.log,
            70_000 + workers as u64,
            &ctx.name,
            EngineVersion::CURRENT,
            ReplayTarget::Exactly(tail),
            RestoreOptions { workers },
        )
        .expect("restore from the object store and the log succeeds");
        let took = t0.elapsed();
        assert_eq!(rp.rs.applied, tail, "restore stopped short of its target");
        (rp, took)
    }

    /// Stops the server and the node, and waits until their threads are
    /// gone, so nothing of this instance runs during a later measurement.
    pub fn teardown(mut self) {
        self.server.stop();
        stop_shard(&self.shard, &self.primary, self.threads_before);
    }
}

/// Stops a one-node shard's threads. The log keeps committing until the
/// node's own threads have drained what they had in flight: shut down
/// first, it would leave them waiting out the commit timeout.
pub fn stop_shard(shard: &Shard, node: &Node, threads_before: usize) {
    node.crash();
    procfs::wait_for_threads(threads_before + 1);
    shard.ctx().log.shutdown();
    procfs::wait_for_threads(threads_before);
}

/// Counts the keys whose restored value is missing, foreign, or older than
/// the newest version acknowledged to the client: acknowledged writes lost.
pub fn lost_acknowledged_writes(rp: &mut RestorePoint, acked: &[u32]) -> u64 {
    let mut session = SessionState::new();
    let mut lost = 0;
    for (i, &want) in acked.iter().enumerate() {
        let reply = rp
            .engine
            .execute(&mut session, &cmd(["GET", &key_name(i as u32)]))
            .reply;
        let held = match &reply {
            Frame::Bulk(v) => parse_value(v),
            _ => None,
        };
        match held {
            Some((key, seq)) if key as usize == i && seq >= want => {}
            _ => lost += 1,
        }
    }
    lost
}
