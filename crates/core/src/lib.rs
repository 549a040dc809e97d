//! # memorydb-core — the MemoryDB database (the paper's contribution)
//!
//! A fast, durable, memory-first database built by **decoupling durability
//! from the in-memory execution engine** (paper §3): a Redis-compatible
//! engine (`memorydb-engine`) executes commands; its deterministic effect
//! stream is intercepted and appended to a multi-AZ durable transaction log
//! (`memorydb-txlog`); replies are withheld until the log acknowledges
//! persistence. Replicas consume the committed log. Leader election,
//! fencing, and leases are built purely on the log's conditional-append API
//! (§4.1) — no cluster quorum is needed for liveness.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 decoupled durability, effect interception | [`serve`], [`record`] |
//! | §3.2 client-blocking tracker, key-level hazards | [`tracker`], [`serve`] |
//! | §3.2 commit pipeline, cross-connection group commit | [`pipeline`], `commit` |
//! | §4.1 leader election, leases, fencing | [`node`], [`record`] |
//! | §4.2 recovery, data restoration | [`restore`], [`manifest`], [`monitor`] |
//! | §4.2.2 off-box snapshotting (incremental) | [`offbox`], [`manifest`] |
//! | §4.2.3 snapshot scheduling | [`scheduler`] |
//! | §5.1 monitoring (external + internal views) | [`monitor`], [`bus`] |
//! | §5.2 scaling & slot migration (2PC) | [`migration`], [`cluster`], [`shard`] |
//! | §7.1 upgrade protection | [`apply`], `memorydb_engine::version` |
//! | §7.2.1 snapshot verification | [`offbox`], [`manifest`], [`apply`] |

pub mod apply;
pub mod bus;
pub mod client;
pub mod cluster;
mod commit;
pub mod config;
pub mod manifest;
pub mod migration;
pub mod monitor;
pub mod node;
pub mod offbox;
pub mod pipeline;
pub mod record;
pub mod restore;
pub mod scheduler;
pub mod serve;
pub mod shard;
pub mod slotset;
pub mod tracker;

pub use apply::{HaltReason, ReplicaState};
pub use bus::{BusRole, ClusterBus};
pub use client::ClusterClient;
pub use cluster::Cluster;
pub use config::ShardConfig;
pub use manifest::{ChunkRef, SnapshotImage, SnapshotManifest};
pub use migration::{migrate_slot, MigrationError};
pub use monitor::MonitoringService;
pub use node::{Node, ShardContext};
pub use offbox::OffboxSnapshotter;
pub use pipeline::TicketOutcome;
pub use record::{NodeId, Record, ShardId};
pub use restore::{RestoreOptions, SeedInfo};
pub use scheduler::SnapshotScheduler;
pub use serve::SubmittedBatch;
pub use shard::{NodeIdGen, Shard};
pub use slotset::SlotSet;
pub use tracker::Tracker;

#[cfg(test)]
mod tests;
