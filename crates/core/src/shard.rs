//! A shard: one transaction log, one primary, zero or more replicas.

use crate::bus::ClusterBus;
use crate::config::ShardConfig;
use crate::node::{Node, ShardContext};
use crate::record::{NodeId, Record, ShardId};
use memorydb_engine::exec::Role;
use memorydb_objectstore::ObjectStore;
use memorydb_txlog::LogService;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Source of unique node ids across a cluster.
#[derive(Debug, Default)]
pub struct NodeIdGen(AtomicU64);

impl NodeIdGen {
    /// Fresh generator starting at 1.
    pub fn new() -> NodeIdGen {
        NodeIdGen(AtomicU64::new(1))
    }

    /// Next unique id.
    pub fn next(&self) -> NodeId {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// A MemoryDB shard.
pub struct Shard {
    /// Shard id within the cluster.
    pub id: ShardId,
    ctx: Arc<ShardContext>,
    nodes: RwLock<Vec<Arc<Node>>>,
    ids: Arc<NodeIdGen>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("nodes", &self.nodes.read().len())
            .finish()
    }
}

impl Shard {
    /// Bootstraps a shard: creates its transaction log, durably records its
    /// initial slot ownership, and starts `1 + replicas` nodes. The first
    /// primary emerges through the normal election path (a conditional
    /// append on the empty-but-for-ownership log), not by fiat.
    pub fn bootstrap(
        id: ShardId,
        cfg: ShardConfig,
        store: Arc<ObjectStore>,
        bus: Arc<ClusterBus>,
        ids: Arc<NodeIdGen>,
        slot_ranges: Vec<(u16, u16)>,
        replicas: usize,
    ) -> Arc<Shard> {
        cfg.validate().expect("invalid shard config");
        let log = LogService::new(cfg.log.clone());
        // Durable statement of initial ownership so it is recoverable from
        // the log alone.
        let ownership = Record::SlotOwnership {
            ranges: slot_ranges,
        }
        .encode_framed();
        let entry = log.append(0, ownership).expect("bootstrap append");
        assert!(log.wait_durable(entry, Duration::from_secs(10)));

        let ctx = Arc::new(ShardContext {
            shard_id: id,
            name: format!("shard-{id}"),
            log,
            store,
            bus,
            cfg,
        });
        let shard = Arc::new(Shard {
            id,
            ctx: Arc::clone(&ctx),
            nodes: RwLock::new(Vec::new()),
            ids,
        });
        for _ in 0..replicas + 1 {
            shard.add_node();
        }
        shard
    }

    /// The shard's environment (log, store, bus, config).
    pub fn ctx(&self) -> &Arc<ShardContext> {
        &self.ctx
    }

    /// Starts one more node, restored from the object store + log
    /// (replica scaling, §5.2; recovery, §4.2).
    pub fn add_node(&self) -> Arc<Node> {
        self.add_node_with_version(memorydb_engine::EngineVersion::CURRENT)
    }

    /// Starts one more node pinned to an engine version (rolling-upgrade
    /// scenarios, §7.1).
    ///
    /// The restore is retried: a node joining a live shard can race a
    /// concurrent snapshot+trim cycle or a transient log partition, both of
    /// which are recoverable — only persistent failure (e.g. corrupt
    /// snapshot store) panics.
    pub fn add_node_with_version(&self, version: memorydb_engine::EngineVersion) -> Arc<Node> {
        let id = self.ids.next();
        let mut last_err = None;
        for _ in 0..100 {
            match Node::start_restored_with_version(Arc::clone(&self.ctx), id, version) {
                Ok(node) => {
                    self.nodes.write().push(Arc::clone(&node));
                    return node;
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        panic!(
            "restore for a live shard kept failing: {}",
            last_err.expect("loop ran")
        );
    }

    /// All live nodes.
    pub fn nodes(&self) -> Vec<Arc<Node>> {
        self.nodes
            .read()
            .iter()
            .filter(|n| n.is_alive())
            .cloned()
            .collect()
    }

    /// The current active primary, if one holds a valid lease.
    pub fn primary(&self) -> Option<Arc<Node>> {
        self.nodes
            .read()
            .iter()
            .find(|n| n.is_alive() && n.is_active_primary())
            .cloned()
    }

    /// Blocks until a primary with a valid lease exists (bounded by
    /// `timeout`). Returns it.
    pub fn wait_for_primary(&self, timeout: Duration) -> Option<Arc<Node>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.primary() {
                return Some(p);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Replicas (alive, non-primary nodes).
    pub fn replicas(&self) -> Vec<Arc<Node>> {
        self.nodes
            .read()
            .iter()
            .filter(|n| n.is_alive() && n.role() == Role::Replica)
            .cloned()
            .collect()
    }

    /// Crashes the current primary (fault injection for tests/benches).
    pub fn crash_primary(&self) -> Option<Arc<Node>> {
        let p = self.primary()?;
        p.crash();
        Some(p)
    }

    /// Terminates one replica (replica scale-in, §5.2). Returns it.
    pub fn remove_replica(&self) -> Option<Arc<Node>> {
        let victim = self.replicas().into_iter().next()?;
        victim.crash();
        self.reap_dead();
        Some(victim)
    }

    /// Drops crashed nodes from the member list (monitoring action).
    pub fn reap_dead(&self) -> usize {
        let mut nodes = self.nodes.write();
        let before = nodes.len();
        nodes.retain(|n| n.is_alive());
        before - nodes.len()
    }

    /// Blocks until every live replica has applied the log through the
    /// current committed tail.
    pub fn wait_replicas_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let tail = self.ctx.log.committed_tail();
            if self
                .replicas()
                .iter()
                .all(|r| r.applied() >= tail && r.halted().is_none())
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
