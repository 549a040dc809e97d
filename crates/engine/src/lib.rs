//! # memorydb-engine — the in-memory execution engine
//!
//! A from-scratch, Redis-compatible data-structure store. MemoryDB (the
//! paper's contribution, in `memorydb-core`) uses this crate exactly the way
//! the real service uses OSS Redis: as a single-threaded in-memory execution
//! engine whose **replication stream of deterministic effects** is
//! intercepted and redirected into a durable transaction log (paper §3.1).
//!
//! ## What the engine provides
//!
//! * The data structures: strings, lists, hashes, sets, sorted sets (a
//!   from-scratch skiplist with rank spans, like Redis), streams, and
//!   HyperLogLog.
//! * A command executor ([`Engine::execute`]) covering the commonly used
//!   Redis command surface, returning a RESP reply plus the command's
//!   **effects**.
//! * Effect-based replication (paper §2.1): non-deterministic commands are
//!   rewritten into deterministic effects — `SPOP` becomes an `SREM` of the
//!   chosen members, `EXPIRE` becomes an absolute `PEXPIREAT`, `INCRBYFLOAT`
//!   becomes a `SET` of the result, `XADD key *` becomes an `XADD` with the
//!   concrete id. Applying the effect stream to a fresh engine reproduces
//!   the primary's state.
//! * Key expiration with primary/replica discipline: only a primary turns an
//!   expired key into an explicit `DEL` effect; replicas treat logically
//!   expired keys as missing and wait for the primary's `DEL` (Redis
//!   semantics, required for deterministic replication).
//! * `MULTI`/`EXEC`/`DISCARD`/`WATCH` transactions, executed atomically with
//!   their effects grouped.
//! * Cluster key-space plumbing: CRC16 key→slot mapping over 16384 slots
//!   with hash-tag support, and a per-slot key index used by slot migration.
//! * An RDB-like binary snapshot format ([`rdb`]) with CRC64 integrity.
//!
//! ## Determinism
//!
//! All internal randomness (e.g. `SPOP`, skiplist level choice) comes from a
//! seedable RNG, and the engine's clock is injected by the caller, so a
//! primary's execution is reproducible in tests and in the deterministic
//! simulator.

pub mod command;
pub mod db;
pub mod ds;
pub mod effects;
pub mod exec;
pub mod rdb;
pub mod script;
pub mod slots;
pub mod value;
pub mod version;

pub use command::{command_spec, keys_for, CmdName, CommandFlags, CommandSpec};
pub use db::Db;
pub use effects::{DirtySet, EffectCmd, ExecOutcome};
pub use exec::{Engine, SessionState};
pub use memorydb_resp::Frame;
pub use slots::{key_hash_slot, NUM_SLOTS};
pub use value::Value;
pub use version::EngineVersion;

/// Convenience: builds a command argument vector from string-likes, the form
/// accepted by [`Engine::execute`].
pub fn cmd<I, S>(parts: I) -> Vec<bytes::Bytes>
where
    I: IntoIterator<Item = S>,
    S: Into<Vec<u8>>,
{
    parts
        .into_iter()
        .map(|s| bytes::Bytes::from(s.into()))
        .collect()
}
