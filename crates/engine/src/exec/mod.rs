//! The command executor: dispatch, transactions, expiry discipline, and
//! effect generation.
// Serving/apply path: panic-freedom is an enforced invariant (DESIGN.md §9;
// `cargo run -p memorydb-analysis`). Keep clippy aligned with the analyzer.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::command::{arity_ok, command_spec, CmdName};
use crate::db::Db;
use crate::effects::{DirtySet, EffectCmd, ExecOutcome};
use crate::version::EngineVersion;
use bytes::Bytes;
use memorydb_resp::Frame;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

mod bitmaps;
mod hashes;
mod hllcmd;
mod keyspace;
mod lists;
mod server;
mod sets;
mod streams;
mod strings;
mod zsets;

/// Handler result: `Err` carries an error outcome for early return via `?`.
pub(crate) type CmdResult = Result<ExecOutcome, ExecOutcome>;

/// Role of the engine within a shard, governing expiry behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Reaps expired keys and emits `DEL` effects for them.
    Primary,
    /// Never reaps; waits for the primary's `DEL` (paper §2.1).
    Replica,
}

/// Per-connection state: `MULTI` queue and `WATCH`es.
#[derive(Debug, Default)]
pub struct SessionState {
    queued: Option<Vec<Vec<Bytes>>>,
    queue_error: bool,
    watches: Vec<(Bytes, u64)>,
}

impl SessionState {
    /// Fresh session with no transaction in progress.
    pub fn new() -> SessionState {
        SessionState::default()
    }

    /// Is a `MULTI` block open?
    pub fn in_multi(&self) -> bool {
        self.queued.is_some()
    }

    fn reset(&mut self) {
        self.queued = None;
        self.queue_error = false;
        self.watches.clear();
    }
}

/// The single-threaded execution engine.
///
/// One instance backs one node (primary or replica). All entry points take
/// `&mut self`: like Redis, command execution is strictly sequential, which
/// is what makes the effect stream a faithful serialization of state
/// changes.
pub struct Engine {
    /// The keyspace.
    pub db: Db,
    now_ms: u64,
    role: Role,
    version: EngineVersion,
    rng: StdRng,
    applying_effects: bool,
    config: HashMap<String, String>,
    scripts: HashMap<String, Bytes>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("keys", &self.db.len())
            .field("role", &self.role)
            .field("version", &self.version)
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(Role::Primary)
    }
}

impl Engine {
    /// Creates an engine with the given role at version
    /// [`EngineVersion::CURRENT`].
    pub fn new(role: Role) -> Engine {
        Engine::with_version(role, EngineVersion::CURRENT)
    }

    /// Creates an engine at an explicit version (used by the rolling-upgrade
    /// tests, paper §7.1).
    pub fn with_version(role: Role, version: EngineVersion) -> Engine {
        Engine {
            db: Db::new(),
            now_ms: 0,
            role,
            version,
            rng: StdRng::seed_from_u64(0x5EED),
            applying_effects: false,
            config: HashMap::new(),
            scripts: HashMap::new(),
        }
    }

    /// Reseeds the engine's RNG (tests and the deterministic simulator).
    pub fn seed_rng(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Engine version (stamped onto the replication stream by the core).
    pub fn version(&self) -> EngineVersion {
        self.version
    }

    /// Current engine time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Role of this engine.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Changes role (replica promotion during failover).
    pub fn set_role(&mut self, role: Role) {
        self.role = role;
    }

    /// Advances the engine clock. The clock is injected — never read from
    /// the OS — so execution is deterministic under test and simulation.
    pub fn set_time_ms(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
    }

    /// Effective "now" for expiry decisions: while applying replicated
    /// effects, expiry is ignored entirely (the primary already converted
    /// expirations into explicit `DEL`s), preventing clock-skew divergence.
    pub(crate) fn now(&self) -> u64 {
        if self.applying_effects {
            0
        } else {
            self.now_ms
        }
    }

    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Executes one client command against this engine.
    ///
    /// Handles `MULTI`/`EXEC` queueing itself; everything else dispatches to
    /// the per-type handlers. The returned outcome carries the reply, the
    /// deterministic effects to replicate, and the dirtied keys.
    pub fn execute(&mut self, session: &mut SessionState, args: &[Bytes]) -> ExecOutcome {
        if args.is_empty() {
            return ExecOutcome::error("empty command");
        }
        let name = CmdName::from_arg(&args[0]);

        // Transaction control commands act on the session, not the keyspace.
        match name.as_str() {
            "MULTI" => {
                if session.in_multi() {
                    return ExecOutcome::error("MULTI calls can not be nested");
                }
                session.queued = Some(Vec::new());
                session.queue_error = false;
                return ExecOutcome::read(Frame::ok());
            }
            "DISCARD" => {
                if !session.in_multi() {
                    return ExecOutcome::error("DISCARD without MULTI");
                }
                session.reset();
                return ExecOutcome::read(Frame::ok());
            }
            "EXEC" => return self.exec_transaction(session),
            "WATCH" => {
                if session.in_multi() {
                    return ExecOutcome::error("WATCH inside MULTI is not allowed");
                }
                if args.len() < 2 {
                    return wrong_arity("watch");
                }
                for key in &args[1..] {
                    let v = self.db.version(key);
                    session.watches.push((key.clone(), v));
                }
                return ExecOutcome::read(Frame::ok());
            }
            "UNWATCH" => {
                session.watches.clear();
                return ExecOutcome::read(Frame::ok());
            }
            _ => {}
        }

        // Inside MULTI: validate and queue.
        if session.in_multi() {
            let valid = match command_spec(&name) {
                Some(spec) => arity_ok(spec, args.len()),
                None => false,
            };
            if !valid {
                session.queue_error = true;
                return ExecOutcome::error(format!(
                    "unknown command or wrong arity '{}'",
                    name.to_ascii_lowercase()
                ));
            }
            if let Some(queued) = session.queued.as_mut() {
                queued.push(args.to_vec());
            } else {
                // in_multi() implies a queue; recover instead of panicking.
                session.queued = Some(vec![args.to_vec()]);
            }
            return ExecOutcome::read(Frame::Simple("QUEUED".into()));
        }

        self.execute_one(&name, args)
    }

    fn exec_transaction(&mut self, session: &mut SessionState) -> ExecOutcome {
        if !session.in_multi() {
            return ExecOutcome::error("EXEC without MULTI");
        }
        if session.queue_error {
            session.reset();
            return ExecOutcome::read(Frame::Error(
                "EXECABORT Transaction discarded because of previous errors.".into(),
            ));
        }
        // WATCH validation: any watched key modified since WATCH aborts.
        let aborted = session
            .watches
            .iter()
            .any(|(key, ver)| self.db.version(key) != *ver);
        let queued = session.queued.take().unwrap_or_default();
        session.reset();
        if aborted {
            return ExecOutcome::read(Frame::Null);
        }
        let mut replies = Vec::with_capacity(queued.len());
        let mut effects: Vec<EffectCmd> = Vec::new();
        let mut dirty = DirtySet::None;
        for cmd in queued {
            let name = CmdName::from_arg(&cmd[0]);
            let outcome = self.execute_one(&name, &cmd);
            replies.push(outcome.reply);
            effects.extend(outcome.effects);
            dirty.merge(outcome.dirty);
        }
        // The whole transaction's effects form one atomic replication unit;
        // the core layer commits them as a single log record.
        ExecOutcome::write(Frame::Array(replies), effects, dirty)
    }

    /// Executes a single (non-transactional) command.
    fn execute_one(&mut self, name: &str, args: &[Bytes]) -> ExecOutcome {
        let Some(spec) = command_spec(name) else {
            return ExecOutcome::error(format!(
                "unknown command '{}'",
                String::from_utf8_lossy(&args[0])
            ));
        };
        if !arity_ok(spec, args.len()) {
            return wrong_arity(&name.to_ascii_lowercase());
        }

        // Primary-side expiry reaping: convert logically expired keys the
        // command touches into explicit DEL effects *before* execution, so
        // replicas see deterministic deletes (paper §2.1).
        let mut pre_effects: Vec<EffectCmd> = Vec::new();
        let mut pre_dirty = DirtySet::None;
        if self.role == Role::Primary && !self.applying_effects {
            let now_ms = self.now_ms;
            let db = &mut self.db;
            let _ = crate::command::for_each_key(args, |key| {
                if db.reap_if_expired(key, now_ms) {
                    pre_effects.push(vec![Bytes::from_static(b"DEL"), key.clone()]);
                    pre_dirty.merge(DirtySet::Keys(vec![key.clone()]));
                }
            });
        }

        let result = self.dispatch(name, args);
        let mut outcome = result.unwrap_or_else(|e| e);
        if !pre_effects.is_empty() {
            pre_effects.extend(std::mem::take(&mut outcome.effects));
            outcome.effects = pre_effects;
            pre_dirty.merge(std::mem::take(&mut outcome.dirty));
            outcome.dirty = pre_dirty;
        }
        outcome
    }

    /// Applies one replicated effect command (replica path / log replay).
    ///
    /// Effects are deterministic by construction; an error reply here means
    /// the stream and the local state have diverged, which callers treat as
    /// corruption.
    pub fn apply_effect(&mut self, cmd: &[Bytes]) -> Result<(), String> {
        if cmd.is_empty() {
            return Err("empty effect".into());
        }
        let name = CmdName::from_arg(&cmd[0]);
        self.applying_effects = true;
        let outcome = self.execute_one(&name, cmd);
        self.applying_effects = false;
        match outcome.reply {
            Frame::Error(e) => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// Runs one active-expire cycle: reaps up to `limit` expired keys,
    /// returning the `DEL` effects to replicate. Only meaningful on a
    /// primary.
    pub fn active_expire_cycle(&mut self, limit: usize) -> Vec<EffectCmd> {
        if self.role != Role::Primary {
            return Vec::new();
        }
        let victims = self.db.expired_keys(self.now_ms, limit);
        let mut effects = Vec::with_capacity(victims.len());
        for key in victims {
            if self.db.reap_if_expired(&key, self.now_ms) {
                effects.push(vec![Bytes::from_static(b"DEL"), key]);
            }
        }
        effects
    }

    fn dispatch(&mut self, name: &str, args: &[Bytes]) -> CmdResult {
        let a = args;
        match name {
            // strings
            "GET" => strings::get(self, a),
            "SET" => strings::set(self, a),
            "SETNX" => strings::setnx(self, a),
            "SETEX" => strings::setex(self, a, false),
            "PSETEX" => strings::setex(self, a, true),
            "GETSET" => strings::getset(self, a),
            "GETDEL" => strings::getdel(self, a),
            "GETEX" => strings::getex(self, a),
            "APPEND" => strings::append(self, a),
            "STRLEN" => strings::strlen(self, a),
            "INCR" => strings::incr_by(self, &a[1], 1),
            "DECR" => strings::incr_by(self, &a[1], -1),
            "INCRBY" => strings::incrby(self, a, false),
            "DECRBY" => strings::incrby(self, a, true),
            "INCRBYFLOAT" => strings::incrbyfloat(self, a),
            "MGET" => strings::mget(self, a),
            "MSET" => strings::mset(self, a),
            "MSETNX" => strings::msetnx(self, a),
            "SETRANGE" => strings::setrange(self, a),
            "GETRANGE" | "SUBSTR" => strings::getrange(self, a),
            // keyspace
            "DEL" | "UNLINK" => keyspace::del(self, a),
            "EXISTS" => keyspace::exists(self, a),
            "TYPE" => keyspace::type_cmd(self, a),
            "EXPIRE" => keyspace::expire_generic(self, a, 1000, false),
            "PEXPIRE" => keyspace::expire_generic(self, a, 1, false),
            "EXPIREAT" => keyspace::expire_generic(self, a, 1000, true),
            "PEXPIREAT" => keyspace::expire_generic(self, a, 1, true),
            "TTL" => keyspace::ttl(self, a, 1000),
            "PTTL" => keyspace::ttl(self, a, 1),
            "EXPIRETIME" => keyspace::expiretime(self, a, 1000),
            "PEXPIRETIME" => keyspace::expiretime(self, a, 1),
            "PERSIST" => keyspace::persist(self, a),
            "KEYS" => keyspace::keys(self, a),
            "SCAN" => keyspace::scan(self, a),
            "RANDOMKEY" => keyspace::randomkey(self, a),
            "RENAME" => keyspace::rename(self, a, false),
            "RENAMENX" => keyspace::rename(self, a, true),
            "COPY" => keyspace::copy(self, a),
            "RESTORE" => keyspace::restore(self, a),
            "DBSIZE" => keyspace::dbsize(self, a),
            "FLUSHALL" | "FLUSHDB" => keyspace::flushall(self, a),
            "TOUCH" => keyspace::touch(self, a),
            // bitmaps
            "SETBIT" => bitmaps::setbit(self, a),
            "GETBIT" => bitmaps::getbit(self, a),
            "BITCOUNT" => bitmaps::bitcount(self, a),
            "BITPOS" => bitmaps::bitpos(self, a),
            "BITOP" => bitmaps::bitop(self, a),
            // hashes
            "HSET" | "HMSET" => hashes::hset(self, a, name == "HMSET"),
            "HSETNX" => hashes::hsetnx(self, a),
            "HGET" => hashes::hget(self, a),
            "HMGET" => hashes::hmget(self, a),
            "HDEL" => hashes::hdel(self, a),
            "HLEN" => hashes::hlen(self, a),
            "HEXISTS" => hashes::hexists(self, a),
            "HKEYS" => hashes::hkeys(self, a),
            "HVALS" => hashes::hvals(self, a),
            "HGETALL" => hashes::hgetall(self, a),
            "HINCRBY" => hashes::hincrby(self, a),
            "HINCRBYFLOAT" => hashes::hincrbyfloat(self, a),
            "HSTRLEN" => hashes::hstrlen(self, a),
            "HRANDFIELD" => hashes::hrandfield(self, a),
            "HSCAN" => hashes::hscan(self, a),
            // lists
            "LPUSH" => lists::push(self, a, true, false),
            "RPUSH" => lists::push(self, a, false, false),
            "LPUSHX" => lists::push(self, a, true, true),
            "RPUSHX" => lists::push(self, a, false, true),
            "LPOP" => lists::pop(self, a, true),
            "RPOP" => lists::pop(self, a, false),
            "LLEN" => lists::llen(self, a),
            "LRANGE" => lists::lrange(self, a),
            "LINDEX" => lists::lindex(self, a),
            "LSET" => lists::lset(self, a),
            "LINSERT" => lists::linsert(self, a),
            "LREM" => lists::lrem(self, a),
            "LTRIM" => lists::ltrim(self, a),
            "RPOPLPUSH" => lists::lmove_compat(self, a),
            "LMOVE" => lists::lmove(self, a),
            "LPOS" => lists::lpos(self, a),
            // sets
            "SADD" => sets::sadd(self, a),
            "SREM" => sets::srem(self, a),
            "SMEMBERS" => sets::smembers(self, a),
            "SISMEMBER" => sets::sismember(self, a),
            "SMISMEMBER" => sets::smismember(self, a),
            "SCARD" => sets::scard(self, a),
            "SPOP" => sets::spop(self, a),
            "SRANDMEMBER" => sets::srandmember(self, a),
            "SMOVE" => sets::smove(self, a),
            "SUNION" => sets::setop(self, a, sets::SetOp::Union, false),
            "SINTER" => sets::setop(self, a, sets::SetOp::Inter, false),
            "SDIFF" => sets::setop(self, a, sets::SetOp::Diff, false),
            "SUNIONSTORE" => sets::setop(self, a, sets::SetOp::Union, true),
            "SINTERSTORE" => sets::setop(self, a, sets::SetOp::Inter, true),
            "SDIFFSTORE" => sets::setop(self, a, sets::SetOp::Diff, true),
            "SINTERCARD" => sets::sintercard(self, a),
            "SSCAN" => sets::sscan(self, a),
            // zsets
            "ZADD" => zsets::zadd(self, a),
            "ZREM" => zsets::zrem(self, a),
            "ZSCORE" => zsets::zscore(self, a),
            "ZMSCORE" => zsets::zmscore(self, a),
            "ZINCRBY" => zsets::zincrby(self, a),
            "ZCARD" => zsets::zcard(self, a),
            "ZCOUNT" => zsets::zcount(self, a),
            "ZLEXCOUNT" => zsets::zlexcount(self, a),
            "ZRANGE" => zsets::zrange(self, a),
            "ZREVRANGE" => zsets::zrevrange(self, a),
            "ZRANGEBYSCORE" => zsets::zrangebyscore(self, a, false),
            "ZREVRANGEBYSCORE" => zsets::zrangebyscore(self, a, true),
            "ZRANGEBYLEX" => zsets::zrangebylex(self, a, false),
            "ZREVRANGEBYLEX" => zsets::zrangebylex(self, a, true),
            "ZRANK" => zsets::zrank(self, a, false),
            "ZREVRANK" => zsets::zrank(self, a, true),
            "ZPOPMIN" => zsets::zpop(self, a, true),
            "ZPOPMAX" => zsets::zpop(self, a, false),
            "ZRANDMEMBER" => zsets::zrandmember(self, a),
            "ZREMRANGEBYRANK" => zsets::zremrangebyrank(self, a),
            "ZREMRANGEBYSCORE" => zsets::zremrangebyscore(self, a),
            "ZREMRANGEBYLEX" => zsets::zremrangebylex(self, a),
            "ZUNION" => zsets::zread_op(self, a, zsets::ZOp::Union),
            "ZINTER" => zsets::zread_op(self, a, zsets::ZOp::Inter),
            "ZDIFF" => zsets::zread_op(self, a, zsets::ZOp::Diff),
            "ZUNIONSTORE" => zsets::zstore(self, a, zsets::ZOp::Union),
            "ZINTERSTORE" => zsets::zstore(self, a, zsets::ZOp::Inter),
            "ZDIFFSTORE" => zsets::zstore(self, a, zsets::ZOp::Diff),
            "ZSCAN" => zsets::zscan(self, a),
            // streams
            "XADD" => streams::xadd(self, a),
            "XLEN" => streams::xlen(self, a),
            "XRANGE" => streams::xrange(self, a, false),
            "XREVRANGE" => streams::xrange(self, a, true),
            "XDEL" => streams::xdel(self, a),
            "XTRIM" => streams::xtrim(self, a),
            "XREAD" => streams::xread(self, a),
            "XSETID" => streams::xsetid(self, a),
            "XGROUP" => streams::xgroup(self, a),
            "XREADGROUP" => streams::xreadgroup(self, a),
            "XACK" => streams::xack(self, a),
            "XPENDING" => streams::xpending(self, a),
            "XCLAIM" => streams::xclaim(self, a),
            "XINFO" => streams::xinfo(self, a),
            // hyperloglog
            "PFADD" => hllcmd::pfadd(self, a),
            "PFCOUNT" => hllcmd::pfcount(self, a),
            "PFMERGE" => hllcmd::pfmerge(self, a),
            // scripting
            "EVAL" => crate::script::eval(self, a),
            "EVALSHA" => crate::script::evalsha(self, a),
            "SCRIPT" => crate::script::script_cmd(self, a),
            // server / connection
            "PING" => server::ping(self, a),
            "ECHO" => server::echo(self, a),
            "SELECT" => server::select(self, a),
            "TIME" => server::time(self, a),
            "INFO" => server::info(self, a),
            "COMMAND" => server::command(self, a),
            "CLIENT" => server::client(self, a),
            "CONFIG" => server::config(self, a),
            "MEMORY" => server::memory(self, a),
            "DEBUG" => server::debug(self, a),
            "OBJECT" => server::object(self, a),
            "CLUSTER" => server::cluster(self, a),
            "SLOWLOG" => server::slowlog(self, a),
            "LATENCY" => server::latency(self, a),
            // Replication-adjacent commands answered at the engine level
            // with standalone semantics; the core/server layers intercept
            // them before they reach the engine when a shard is attached.
            "WAIT" => Ok(ExecOutcome::read(Frame::Integer(0))),
            "READONLY" | "READWRITE" | "REPLCONF" => Ok(ExecOutcome::read(Frame::ok())),
            other => Err(ExecOutcome::error(format!("unknown command '{other}'"))),
        }
    }

    pub(crate) fn config_mut(&mut self) -> &mut HashMap<String, String> {
        &mut self.config
    }

    /// The SCRIPT LOAD cache (node-local, never replicated — scripts
    /// replicate by their effects, §2.1).
    pub(crate) fn script_cache_mut(&mut self) -> &mut HashMap<String, Bytes> {
        &mut self.scripts
    }

    pub(crate) fn config(&self) -> &HashMap<String, String> {
        &self.config
    }

    /// Reads one CONFIG parameter. The node layer mirrors observability knobs
    /// (e.g. `slowlog-log-slower-than`) from here under the engine lock it
    /// already holds, so `CONFIG SET` takes effect without extra plumbing.
    pub fn config_param(&self, key: &str) -> Option<&str> {
        self.config.get(key).map(String::as_str)
    }
}

// --- shared helpers for handler modules -----------------------------------

pub(crate) fn wrong_arity(name: &str) -> ExecOutcome {
    ExecOutcome::error(format!("wrong number of arguments for '{name}' command"))
}

pub(crate) fn wrongtype() -> ExecOutcome {
    ExecOutcome::read(Frame::Error(
        "WRONGTYPE Operation against a key holding the wrong kind of value".into(),
    ))
}

pub(crate) fn p_i64(arg: &[u8]) -> Result<i64, ExecOutcome> {
    std::str::from_utf8(arg)
        .ok()
        .and_then(|s| s.parse::<i64>().ok())
        .ok_or_else(|| ExecOutcome::error("value is not an integer or out of range"))
}

/// Parses a SCAN-family cursor. Cursors are unsigned: Redis rejects
/// negative or non-numeric cursors outright instead of letting them wrap
/// into huge valid positions (`SCAN -1` must not become `SCAN 2^64-1`).
pub(crate) fn p_cursor(arg: &[u8]) -> Result<u64, ExecOutcome> {
    std::str::from_utf8(arg)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| ExecOutcome::error("invalid cursor"))
}

pub(crate) fn p_f64(arg: &[u8]) -> Result<f64, ExecOutcome> {
    let v = std::str::from_utf8(arg)
        .ok()
        .and_then(|s| match s {
            "inf" | "+inf" | "Inf" | "+Inf" => Some(f64::INFINITY),
            "-inf" | "-Inf" => Some(f64::NEG_INFINITY),
            _ => s.parse::<f64>().ok(),
        })
        .ok_or_else(|| ExecOutcome::error("value is not a valid float"))?;
    if v.is_nan() {
        return Err(ExecOutcome::error("value is not a valid float"));
    }
    Ok(v)
}

pub(crate) fn upper(arg: &[u8]) -> String {
    String::from_utf8_lossy(arg).to_ascii_uppercase()
}

/// Formats a float the way Redis replies do (no trailing `.0` on integers).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e17 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Builds a write outcome whose effect is the original command verbatim —
/// the common case for deterministic commands.
pub(crate) fn verbatim_write(reply: Frame, args: &[Bytes], dirty_keys: Vec<Bytes>) -> ExecOutcome {
    ExecOutcome::write(reply, vec![args.to_vec()], DirtySet::Keys(dirty_keys))
}

/// Builds a write outcome with explicit (rewritten) effects.
pub(crate) fn effect_write(
    reply: Frame,
    effects: Vec<EffectCmd>,
    dirty_keys: Vec<Bytes>,
) -> ExecOutcome {
    ExecOutcome::write(reply, effects, DirtySet::Keys(dirty_keys))
}

/// Bulk-or-null reply.
pub(crate) fn bulk_or_null(v: Option<Bytes>) -> Frame {
    match v {
        Some(b) => Frame::Bulk(b),
        None => Frame::Null,
    }
}

#[cfg(test)]
mod tests;
