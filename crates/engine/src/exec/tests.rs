//! Executor tests: command semantics, effect rewrites, transactions, and
//! the effect-replay equivalence property at the heart of the paper's
//! replication model.

use crate::effects::DirtySet;
use crate::exec::{Engine, Role, SessionState};
use crate::{cmd, Frame};
use bytes::Bytes;
use proptest::prelude::*;

fn engine() -> Engine {
    let mut e = Engine::new(Role::Primary);
    e.set_time_ms(1_000_000);
    e
}

/// Runs a command, returning just the reply.
fn run(e: &mut Engine, parts: &[&str]) -> Frame {
    let mut s = SessionState::new();
    e.execute(&mut s, &cmd(parts.to_vec())).reply
}

/// Runs a command, returning the whole outcome.
fn run_full(e: &mut Engine, parts: &[&str]) -> crate::ExecOutcome {
    let mut s = SessionState::new();
    e.execute(&mut s, &cmd(parts.to_vec()))
}

fn bulk(s: &str) -> Frame {
    Frame::Bulk(Bytes::copy_from_slice(s.as_bytes()))
}

#[test]
fn set_get_roundtrip() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["SET", "k", "v"]), Frame::ok());
    assert_eq!(run(&mut e, &["GET", "k"]), bulk("v"));
    assert_eq!(run(&mut e, &["GET", "missing"]), Frame::Null);
}

#[test]
fn set_nx_xx() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["SET", "k", "v1", "NX"]), Frame::ok());
    assert_eq!(run(&mut e, &["SET", "k", "v2", "NX"]), Frame::Null);
    assert_eq!(run(&mut e, &["GET", "k"]), bulk("v1"));
    assert_eq!(run(&mut e, &["SET", "k", "v3", "XX"]), Frame::ok());
    assert_eq!(run(&mut e, &["SET", "nope", "v", "XX"]), Frame::Null);
    assert!(run(&mut e, &["SET", "k", "v", "NX", "XX"]).is_error());
}

#[test]
fn set_get_option_returns_old() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["SET", "k", "v1"]), Frame::ok());
    assert_eq!(run(&mut e, &["SET", "k", "v2", "GET"]), bulk("v1"));
    assert_eq!(run(&mut e, &["SET", "fresh", "v", "GET"]), Frame::Null);
}

#[test]
fn set_expiry_rewritten_to_pxat_effect() {
    let mut e = engine();
    let out = run_full(&mut e, &["SET", "k", "v", "EX", "10"]);
    assert_eq!(out.reply, Frame::ok());
    assert_eq!(out.effects.len(), 1);
    let eff = &out.effects[0];
    assert_eq!(eff[0], Bytes::from_static(b"SET"));
    assert_eq!(eff[3], Bytes::from_static(b"PXAT"));
    let at: u64 = std::str::from_utf8(&eff[4]).unwrap().parse().unwrap();
    assert_eq!(at, 1_000_000 + 10_000);
    // The key actually expires.
    e.set_time_ms(1_000_000 + 10_000);
    assert_eq!(run(&mut e, &["GET", "k"]), Frame::Null);
}

#[test]
fn expired_key_access_emits_del_effect() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "v", "PX", "5"]);
    e.set_time_ms(1_000_100);
    let out = run_full(&mut e, &["GET", "k"]);
    assert_eq!(out.reply, Frame::Null);
    assert_eq!(out.effects, vec![cmd(["DEL", "k"])]);
    assert_eq!(out.dirty, DirtySet::Keys(cmd(["k"])));
}

#[test]
fn incr_decr_semantics_and_errors() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["INCR", "n"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["INCRBY", "n", "10"]), Frame::Integer(11));
    assert_eq!(run(&mut e, &["DECR", "n"]), Frame::Integer(10));
    assert_eq!(run(&mut e, &["DECRBY", "n", "4"]), Frame::Integer(6));
    run(&mut e, &["SET", "s", "abc"]);
    assert!(run(&mut e, &["INCR", "s"]).is_error());
    run(&mut e, &["SET", "big", &i64::MAX.to_string()]);
    assert!(run(&mut e, &["INCR", "big"]).is_error());
}

#[test]
fn incrbyfloat_effect_is_set_of_result() {
    let mut e = engine();
    let out = run_full(&mut e, &["INCRBYFLOAT", "f", "1.5"]);
    assert_eq!(out.reply, bulk("1.5"));
    assert_eq!(out.effects, vec![cmd(["SET", "f", "1.5", "KEEPTTL"])]);
    let out2 = run_full(&mut e, &["INCRBYFLOAT", "f", "0.25"]);
    assert_eq!(out2.effects, vec![cmd(["SET", "f", "1.75", "KEEPTTL"])]);
}

#[test]
fn incrbyfloat_preserves_ttl_on_replica() {
    // Regression: INCRBYFLOAT keeps the key's TTL on the primary, so its
    // replicated SET must carry KEEPTTL or the replica silently drops the
    // expiry and the keyspaces diverge.
    assert_replica_convergence(&[
        cmd(["SET", "k", "1"]),
        cmd(["PEXPIRE", "k", "289"]),
        cmd(["INCRBYFLOAT", "k", "0.5"]),
    ]);
}

#[test]
fn append_strlen_getrange_setrange() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["APPEND", "k", "Hello "]), Frame::Integer(6));
    assert_eq!(run(&mut e, &["APPEND", "k", "World"]), Frame::Integer(11));
    assert_eq!(run(&mut e, &["STRLEN", "k"]), Frame::Integer(11));
    assert_eq!(run(&mut e, &["GETRANGE", "k", "0", "4"]), bulk("Hello"));
    assert_eq!(run(&mut e, &["GETRANGE", "k", "-5", "-1"]), bulk("World"));
    assert_eq!(run(&mut e, &["GETRANGE", "k", "99", "100"]), bulk(""));
    assert_eq!(
        run(&mut e, &["SETRANGE", "k", "6", "Redis"]),
        Frame::Integer(11)
    );
    assert_eq!(run(&mut e, &["GET", "k"]), bulk("Hello Redis"));
    // Extending past the end zero-pads.
    assert_eq!(
        run(&mut e, &["SETRANGE", "pad", "3", "x"]),
        Frame::Integer(4)
    );
    assert_eq!(
        run(&mut e, &["GET", "pad"]),
        Frame::Bulk(Bytes::from_static(b"\0\0\0x"))
    );
}

#[test]
fn mset_mget_msetnx() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["MSET", "a", "1", "b", "2"]), Frame::ok());
    assert_eq!(
        run(&mut e, &["MGET", "a", "b", "nope"]),
        Frame::Array(vec![bulk("1"), bulk("2"), Frame::Null])
    );
    assert_eq!(
        run(&mut e, &["MSETNX", "c", "3", "a", "x"]),
        Frame::Integer(0)
    );
    assert_eq!(run(&mut e, &["GET", "c"]), Frame::Null);
    assert_eq!(
        run(&mut e, &["MSETNX", "c", "3", "d", "4"]),
        Frame::Integer(1)
    );
}

#[test]
fn del_exists_type() {
    let mut e = engine();
    run(&mut e, &["SET", "a", "1"]);
    run(&mut e, &["RPUSH", "l", "x"]);
    assert_eq!(
        run(&mut e, &["EXISTS", "a", "l", "a", "nope"]),
        Frame::Integer(3)
    );
    assert_eq!(run(&mut e, &["TYPE", "a"]), Frame::Simple("string".into()));
    assert_eq!(run(&mut e, &["TYPE", "l"]), Frame::Simple("list".into()));
    assert_eq!(run(&mut e, &["TYPE", "nope"]), Frame::Simple("none".into()));
    let out = run_full(&mut e, &["DEL", "a", "l", "nope"]);
    assert_eq!(out.reply, Frame::Integer(2));
    // Effect names only the keys that actually existed.
    assert_eq!(out.effects, vec![cmd(["DEL", "a", "l"])]);
    let noop = run_full(&mut e, &["DEL", "nope"]);
    assert_eq!(noop.reply, Frame::Integer(0));
    assert!(noop.effects.is_empty());
}

#[test]
fn expire_ttl_persist() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "v"]);
    assert_eq!(run(&mut e, &["TTL", "k"]), Frame::Integer(-1));
    assert_eq!(run(&mut e, &["TTL", "none"]), Frame::Integer(-2));
    let out = run_full(&mut e, &["EXPIRE", "k", "100"]);
    assert_eq!(out.reply, Frame::Integer(1));
    // Effect is an absolute PEXPIREAT.
    assert_eq!(out.effects[0][0], Bytes::from_static(b"PEXPIREAT"));
    assert_eq!(run(&mut e, &["TTL", "k"]), Frame::Integer(100));
    assert_eq!(run(&mut e, &["PTTL", "k"]), Frame::Integer(100_000));
    assert_eq!(run(&mut e, &["PERSIST", "k"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["TTL", "k"]), Frame::Integer(-1));
    assert_eq!(run(&mut e, &["PERSIST", "k"]), Frame::Integer(0));
}

#[test]
fn expire_with_flags() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "v"]);
    assert_eq!(
        run(&mut e, &["EXPIRE", "k", "100", "XX"]),
        Frame::Integer(0)
    );
    assert_eq!(
        run(&mut e, &["EXPIRE", "k", "100", "NX"]),
        Frame::Integer(1)
    );
    assert_eq!(run(&mut e, &["EXPIRE", "k", "50", "NX"]), Frame::Integer(0));
    assert_eq!(
        run(&mut e, &["EXPIRE", "k", "200", "GT"]),
        Frame::Integer(1)
    );
    assert_eq!(
        run(&mut e, &["EXPIRE", "k", "100", "GT"]),
        Frame::Integer(0)
    );
    assert_eq!(
        run(&mut e, &["EXPIRE", "k", "100", "LT"]),
        Frame::Integer(1)
    );
    assert_eq!(run(&mut e, &["TTL", "k"]), Frame::Integer(100));
}

#[test]
fn expire_in_past_deletes() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "v"]);
    let out = run_full(&mut e, &["EXPIRE", "k", "-5"]);
    assert_eq!(out.reply, Frame::Integer(1));
    assert_eq!(out.effects, vec![cmd(["DEL", "k"])]);
    assert_eq!(run(&mut e, &["EXISTS", "k"]), Frame::Integer(0));
}

#[test]
fn rename_and_copy() {
    let mut e = engine();
    run(&mut e, &["SET", "a", "v"]);
    run(&mut e, &["EXPIRE", "a", "100"]);
    assert_eq!(run(&mut e, &["RENAME", "a", "b"]), Frame::ok());
    assert_eq!(run(&mut e, &["EXISTS", "a"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["TTL", "b"]), Frame::Integer(100));
    assert!(run(&mut e, &["RENAME", "missing", "x"]).is_error());
    run(&mut e, &["SET", "c", "other"]);
    assert_eq!(run(&mut e, &["RENAMENX", "b", "c"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["COPY", "b", "d"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["GET", "d"]), bulk("v"));
    assert_eq!(run(&mut e, &["COPY", "b", "c"]), Frame::Integer(0));
    assert_eq!(
        run(&mut e, &["COPY", "b", "c", "REPLACE"]),
        Frame::Integer(1)
    );
}

#[test]
fn keys_and_dbsize() {
    let mut e = engine();
    run(
        &mut e,
        &["MSET", "user:1", "a", "user:2", "b", "order:1", "c"],
    );
    assert_eq!(run(&mut e, &["DBSIZE"]), Frame::Integer(3));
    let reply = run(&mut e, &["KEYS", "user:*"]);
    assert_eq!(reply.as_array().unwrap().len(), 2);
    assert_eq!(run(&mut e, &["FLUSHALL"]), Frame::ok());
    assert_eq!(run(&mut e, &["DBSIZE"]), Frame::Integer(0));
}

#[test]
fn hash_commands() {
    let mut e = engine();
    assert_eq!(
        run(&mut e, &["HSET", "h", "f1", "v1", "f2", "v2"]),
        Frame::Integer(2)
    );
    assert_eq!(run(&mut e, &["HSET", "h", "f1", "v1b"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["HGET", "h", "f1"]), bulk("v1b"));
    assert_eq!(run(&mut e, &["HLEN", "h"]), Frame::Integer(2));
    assert_eq!(run(&mut e, &["HEXISTS", "h", "f2"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["HSTRLEN", "h", "f1"]), Frame::Integer(3));
    assert_eq!(
        run(&mut e, &["HMGET", "h", "f1", "zz"]),
        Frame::Array(vec![bulk("v1b"), Frame::Null])
    );
    assert_eq!(run(&mut e, &["HSETNX", "h", "f1", "x"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["HSETNX", "h", "f3", "x"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["HINCRBY", "h", "n", "5"]), Frame::Integer(5));
    assert_eq!(
        run(&mut e, &["HINCRBYFLOAT", "h", "fl", "2.5"]),
        bulk("2.5")
    );
    assert_eq!(run(&mut e, &["HDEL", "h", "f1", "zz"]), Frame::Integer(1));
    // Deleting the last fields removes the key.
    run(&mut e, &["HDEL", "h", "f2", "f3", "n", "fl"]);
    assert_eq!(run(&mut e, &["EXISTS", "h"]), Frame::Integer(0));
}

#[test]
fn hash_wrongtype() {
    let mut e = engine();
    run(&mut e, &["SET", "s", "v"]);
    assert!(run(&mut e, &["HSET", "s", "f", "v"]).is_error());
    assert!(run(&mut e, &["HGET", "s", "f"]).is_error());
    // And the failed HSET must not clobber the string.
    assert_eq!(run(&mut e, &["GET", "s"]), bulk("v"));
}

#[test]
fn list_push_pop_range() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["RPUSH", "l", "b", "c"]), Frame::Integer(2));
    assert_eq!(run(&mut e, &["LPUSH", "l", "a"]), Frame::Integer(3));
    assert_eq!(
        run(&mut e, &["LRANGE", "l", "0", "-1"]),
        Frame::Array(vec![bulk("a"), bulk("b"), bulk("c")])
    );
    assert_eq!(run(&mut e, &["LLEN", "l"]), Frame::Integer(3));
    assert_eq!(run(&mut e, &["LPOP", "l"]), bulk("a"));
    assert_eq!(run(&mut e, &["RPOP", "l"]), bulk("c"));
    assert_eq!(
        run(&mut e, &["LPOP", "l", "5"]),
        Frame::Array(vec![bulk("b")])
    );
    assert_eq!(run(&mut e, &["EXISTS", "l"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["LPOP", "l"]), Frame::Null);
    assert_eq!(run(&mut e, &["LPUSHX", "l", "x"]), Frame::Integer(0));
}

#[test]
fn list_index_set_insert_rem_trim() {
    let mut e = engine();
    run(&mut e, &["RPUSH", "l", "a", "b", "c", "b", "a"]);
    assert_eq!(run(&mut e, &["LINDEX", "l", "0"]), bulk("a"));
    assert_eq!(run(&mut e, &["LINDEX", "l", "-1"]), bulk("a"));
    assert_eq!(run(&mut e, &["LINDEX", "l", "99"]), Frame::Null);
    assert_eq!(run(&mut e, &["LSET", "l", "2", "C"]), Frame::ok());
    assert!(run(&mut e, &["LSET", "l", "99", "x"]).is_error());
    assert_eq!(
        run(&mut e, &["LINSERT", "l", "BEFORE", "C", "pre"]),
        Frame::Integer(6)
    );
    assert_eq!(
        run(&mut e, &["LINSERT", "l", "AFTER", "zz", "x"]),
        Frame::Integer(-1)
    );
    assert_eq!(run(&mut e, &["LREM", "l", "1", "a"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["LREM", "l", "-1", "a"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["LTRIM", "l", "1", "2"]), Frame::ok());
    assert_eq!(run(&mut e, &["LLEN", "l"]), Frame::Integer(2));
    run(&mut e, &["LTRIM", "l", "5", "3"]);
    assert_eq!(run(&mut e, &["EXISTS", "l"]), Frame::Integer(0));
}

#[test]
fn lmove_and_rpoplpush() {
    let mut e = engine();
    run(&mut e, &["RPUSH", "src", "a", "b", "c"]);
    assert_eq!(
        run(&mut e, &["LMOVE", "src", "dst", "LEFT", "RIGHT"]),
        bulk("a")
    );
    assert_eq!(run(&mut e, &["RPOPLPUSH", "src", "dst"]), bulk("c"));
    assert_eq!(
        run(&mut e, &["LRANGE", "dst", "0", "-1"]),
        Frame::Array(vec![bulk("c"), bulk("a")])
    );
    assert_eq!(
        run(&mut e, &["LMOVE", "missing", "dst", "LEFT", "LEFT"]),
        Frame::Null
    );
}

#[test]
fn lpos_ranks_and_counts() {
    let mut e = engine();
    run(&mut e, &["RPUSH", "l", "a", "b", "c", "b", "b"]);
    assert_eq!(run(&mut e, &["LPOS", "l", "b"]), Frame::Integer(1));
    assert_eq!(
        run(&mut e, &["LPOS", "l", "b", "RANK", "2"]),
        Frame::Integer(3)
    );
    assert_eq!(
        run(&mut e, &["LPOS", "l", "b", "RANK", "-1"]),
        Frame::Integer(4)
    );
    assert_eq!(
        run(&mut e, &["LPOS", "l", "b", "COUNT", "0"]),
        Frame::Array(vec![
            Frame::Integer(1),
            Frame::Integer(3),
            Frame::Integer(4)
        ])
    );
    assert_eq!(run(&mut e, &["LPOS", "l", "zz"]), Frame::Null);
}

#[test]
fn set_commands() {
    let mut e = engine();
    assert_eq!(
        run(&mut e, &["SADD", "s", "a", "b", "c"]),
        Frame::Integer(3)
    );
    assert_eq!(run(&mut e, &["SADD", "s", "a"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["SCARD", "s"]), Frame::Integer(3));
    assert_eq!(run(&mut e, &["SISMEMBER", "s", "a"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["SISMEMBER", "s", "z"]), Frame::Integer(0));
    assert_eq!(
        run(&mut e, &["SMISMEMBER", "s", "a", "z"]),
        Frame::Array(vec![Frame::Integer(1), Frame::Integer(0)])
    );
    assert_eq!(run(&mut e, &["SREM", "s", "a", "zz"]), Frame::Integer(1));
    assert_eq!(
        run(&mut e, &["SMEMBERS", "s"]),
        Frame::Array(vec![bulk("b"), bulk("c")])
    );
    run(&mut e, &["SREM", "s", "b", "c"]);
    assert_eq!(run(&mut e, &["EXISTS", "s"]), Frame::Integer(0));
}

#[test]
fn spop_effect_is_srem_of_chosen() {
    let mut e = engine();
    run(&mut e, &["SADD", "s", "a", "b", "c", "d"]);
    let out = run_full(&mut e, &["SPOP", "s"]);
    let popped = match &out.reply {
        Frame::Bulk(b) => b.clone(),
        other => panic!("expected bulk, got {other:?}"),
    };
    assert_eq!(out.effects.len(), 1);
    assert_eq!(out.effects[0][0], Bytes::from_static(b"SREM"));
    assert_eq!(out.effects[0][2], popped);
    // Popping everything rewrites to DEL.
    let out2 = run_full(&mut e, &["SPOP", "s", "10"]);
    assert_eq!(out2.effects[0][0], Bytes::from_static(b"DEL"));
    assert_eq!(run(&mut e, &["EXISTS", "s"]), Frame::Integer(0));
}

#[test]
fn smove_between_sets() {
    let mut e = engine();
    run(&mut e, &["SADD", "a", "x", "y"]);
    run(&mut e, &["SADD", "b", "z"]);
    assert_eq!(run(&mut e, &["SMOVE", "a", "b", "x"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["SMOVE", "a", "b", "nope"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["SCARD", "b"]), Frame::Integer(2));
}

#[test]
fn set_algebra() {
    let mut e = engine();
    run(&mut e, &["SADD", "a", "1", "2", "3"]);
    run(&mut e, &["SADD", "b", "2", "3", "4"]);
    assert_eq!(
        run(&mut e, &["SUNION", "a", "b"]).as_array().unwrap().len(),
        4
    );
    assert_eq!(
        run(&mut e, &["SINTER", "a", "b"]).as_array().unwrap().len(),
        2
    );
    assert_eq!(
        run(&mut e, &["SDIFF", "a", "b"]).as_array().unwrap().len(),
        1
    );
    assert_eq!(
        run(&mut e, &["SINTERSTORE", "dst", "a", "b"]),
        Frame::Integer(2)
    );
    assert_eq!(run(&mut e, &["SCARD", "dst"]), Frame::Integer(2));
    // Empty result deletes the destination.
    assert_eq!(
        run(&mut e, &["SINTERSTORE", "dst", "a", "missing"]),
        Frame::Integer(0)
    );
    assert_eq!(run(&mut e, &["EXISTS", "dst"]), Frame::Integer(0));
    assert_eq!(
        run(&mut e, &["SINTERCARD", "2", "a", "b"]),
        Frame::Integer(2)
    );
    assert_eq!(
        run(&mut e, &["SINTERCARD", "2", "a", "b", "LIMIT", "1"]),
        Frame::Integer(1)
    );
}

#[test]
fn zset_basic() {
    let mut e = engine();
    assert_eq!(
        run(&mut e, &["ZADD", "z", "1", "a", "2", "b", "3", "c"]),
        Frame::Integer(3)
    );
    assert_eq!(run(&mut e, &["ZCARD", "z"]), Frame::Integer(3));
    assert_eq!(run(&mut e, &["ZSCORE", "z", "b"]), bulk("2"));
    assert_eq!(run(&mut e, &["ZSCORE", "z", "zz"]), Frame::Null);
    assert_eq!(run(&mut e, &["ZRANK", "z", "a"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["ZREVRANK", "z", "a"]), Frame::Integer(2));
    assert_eq!(
        run(&mut e, &["ZRANGE", "z", "0", "-1"]),
        Frame::Array(vec![bulk("a"), bulk("b"), bulk("c")])
    );
    assert_eq!(
        run(&mut e, &["ZRANGE", "z", "0", "0", "WITHSCORES"]),
        Frame::Array(vec![bulk("a"), bulk("1")])
    );
    assert_eq!(run(&mut e, &["ZREM", "z", "b"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["ZCARD", "z"]), Frame::Integer(2));
}

#[test]
fn zadd_flags() {
    let mut e = engine();
    run(&mut e, &["ZADD", "z", "5", "m"]);
    assert_eq!(
        run(&mut e, &["ZADD", "z", "NX", "9", "m"]),
        Frame::Integer(0)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "z", "m"]), bulk("5"));
    assert_eq!(
        run(&mut e, &["ZADD", "z", "XX", "CH", "9", "m"]),
        Frame::Integer(1)
    );
    assert_eq!(
        run(&mut e, &["ZADD", "z", "GT", "7", "m"]),
        Frame::Integer(0)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "z", "m"]), bulk("9"));
    assert_eq!(
        run(&mut e, &["ZADD", "z", "LT", "7", "m"]),
        Frame::Integer(0)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "z", "m"]), bulk("7"));
    assert_eq!(run(&mut e, &["ZADD", "z", "INCR", "3", "m"]), bulk("10"));
    assert_eq!(
        run(&mut e, &["ZADD", "z", "XX", "INCR", "1", "nope"]),
        Frame::Null
    );
    assert!(run(&mut e, &["ZADD", "z", "NX", "XX", "1", "m"]).is_error());
}

#[test]
fn zrange_byscore_bylex_rev_limit() {
    let mut e = engine();
    run(
        &mut e,
        &["ZADD", "z", "1", "a", "2", "b", "3", "c", "4", "d"],
    );
    assert_eq!(
        run(&mut e, &["ZRANGEBYSCORE", "z", "2", "3"]),
        Frame::Array(vec![bulk("b"), bulk("c")])
    );
    assert_eq!(
        run(&mut e, &["ZRANGEBYSCORE", "z", "(2", "+inf"]),
        Frame::Array(vec![bulk("c"), bulk("d")])
    );
    assert_eq!(
        run(&mut e, &["ZREVRANGEBYSCORE", "z", "3", "2"]),
        Frame::Array(vec![bulk("c"), bulk("b")])
    );
    assert_eq!(
        run(
            &mut e,
            &["ZRANGEBYSCORE", "z", "-inf", "+inf", "LIMIT", "1", "2"]
        ),
        Frame::Array(vec![bulk("b"), bulk("c")])
    );
    assert_eq!(
        run(&mut e, &["ZRANGE", "z", "(1", "3", "BYSCORE"]),
        Frame::Array(vec![bulk("b"), bulk("c")])
    );
    assert_eq!(
        run(&mut e, &["ZRANGE", "z", "3", "1", "BYSCORE", "REV"]),
        Frame::Array(vec![bulk("c"), bulk("b"), bulk("a")])
    );
    // Lex on same-score members.
    run(&mut e, &["ZADD", "lex", "0", "aa", "0", "ab", "0", "b"]);
    assert_eq!(
        run(&mut e, &["ZRANGEBYLEX", "lex", "[aa", "(b"]),
        Frame::Array(vec![bulk("aa"), bulk("ab")])
    );
    assert_eq!(
        run(&mut e, &["ZLEXCOUNT", "lex", "-", "+"]),
        Frame::Integer(3)
    );
    assert_eq!(
        run(&mut e, &["ZREVRANGE", "lex", "0", "0"]),
        Frame::Array(vec![bulk("b")])
    );
}

#[test]
fn zincrby_and_zpop() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["ZINCRBY", "z", "2.5", "m"]), bulk("2.5"));
    let out = run_full(&mut e, &["ZINCRBY", "z", "1.5", "m"]);
    assert_eq!(out.reply, bulk("4"));
    // Effect is a deterministic ZADD of the result.
    assert_eq!(out.effects, vec![cmd(["ZADD", "z", "4", "m"])]);
    run(&mut e, &["ZADD", "z", "1", "low", "9", "high"]);
    let popped = run_full(&mut e, &["ZPOPMIN", "z"]);
    assert_eq!(popped.reply, Frame::Array(vec![bulk("low"), bulk("1")]));
    assert_eq!(popped.effects, vec![cmd(["ZREM", "z", "low"])]);
    assert_eq!(
        run(&mut e, &["ZPOPMAX", "z", "2"]),
        Frame::Array(vec![bulk("high"), bulk("9"), bulk("m"), bulk("4")])
    );
    assert_eq!(run(&mut e, &["EXISTS", "z"]), Frame::Integer(0));
}

#[test]
fn zremrange_variants() {
    let mut e = engine();
    run(
        &mut e,
        &[
            "ZADD", "z", "1", "a", "2", "b", "3", "c", "4", "d", "5", "e",
        ],
    );
    assert_eq!(
        run(&mut e, &["ZREMRANGEBYRANK", "z", "0", "1"]),
        Frame::Integer(2)
    );
    assert_eq!(
        run(&mut e, &["ZREMRANGEBYSCORE", "z", "4", "4"]),
        Frame::Integer(1)
    );
    assert_eq!(run(&mut e, &["ZCARD", "z"]), Frame::Integer(2));
    run(&mut e, &["ZADD", "lex", "0", "a", "0", "b", "0", "c"]);
    assert_eq!(
        run(&mut e, &["ZREMRANGEBYLEX", "lex", "[a", "[b"]),
        Frame::Integer(2)
    );
}

#[test]
fn zstore_union_inter_diff() {
    let mut e = engine();
    run(&mut e, &["ZADD", "z1", "1", "a", "2", "b"]);
    run(&mut e, &["ZADD", "z2", "10", "b", "20", "c"]);
    assert_eq!(
        run(&mut e, &["ZUNIONSTORE", "u", "2", "z1", "z2"]),
        Frame::Integer(3)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "u", "b"]), bulk("12"));
    assert_eq!(
        run(
            &mut e,
            &[
                "ZUNIONSTORE",
                "u2",
                "2",
                "z1",
                "z2",
                "WEIGHTS",
                "2",
                "1",
                "AGGREGATE",
                "MAX"
            ]
        ),
        Frame::Integer(3)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "u2", "b"]), bulk("10"));
    assert_eq!(
        run(&mut e, &["ZINTERSTORE", "i", "2", "z1", "z2"]),
        Frame::Integer(1)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "i", "b"]), bulk("12"));
    assert_eq!(
        run(&mut e, &["ZDIFFSTORE", "d", "2", "z1", "z2"]),
        Frame::Integer(1)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "d", "a"]), bulk("1"));
    // Sets participate as score-1 members.
    run(&mut e, &["SADD", "s", "a", "q"]);
    assert_eq!(
        run(&mut e, &["ZUNIONSTORE", "m", "2", "z1", "s"]),
        Frame::Integer(3)
    );
    assert_eq!(run(&mut e, &["ZSCORE", "m", "q"]), bulk("1"));
}

#[test]
fn stream_xadd_xlen_xrange() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["XADD", "st", "1-1", "f", "v"]), bulk("1-1"));
    assert!(run(&mut e, &["XADD", "st", "1-1", "f", "v"]).is_error());
    assert_eq!(run(&mut e, &["XADD", "st", "2-0", "g", "w"]), bulk("2-0"));
    assert_eq!(run(&mut e, &["XLEN", "st"]), Frame::Integer(2));
    let range = run(&mut e, &["XRANGE", "st", "-", "+"]);
    assert_eq!(range.as_array().unwrap().len(), 2);
    let rev = run(&mut e, &["XREVRANGE", "st", "+", "-", "COUNT", "1"]);
    assert_eq!(rev.as_array().unwrap().len(), 1);
    assert_eq!(run(&mut e, &["XDEL", "st", "1-1"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["XLEN", "st"]), Frame::Integer(1));
}

#[test]
fn stream_auto_id_effect_carries_concrete_id() {
    let mut e = Engine::new(Role::Primary);
    e.set_time_ms(5_000);
    let out = run_full(&mut e, &["XADD", "st", "*", "f", "v"]);
    assert_eq!(out.reply, bulk("5000-0"));
    // The effect must contain the assigned id, not '*' (paper §2.1).
    let eff = &out.effects[0];
    assert!(eff.contains(&Bytes::from_static(b"5000-0")));
    assert!(!eff.contains(&Bytes::from_static(b"*")));
    let out2 = run_full(&mut e, &["XADD", "st", "*", "f", "v"]);
    assert_eq!(out2.reply, bulk("5000-1"));
}

#[test]
fn stream_xread_and_trim() {
    let mut e = engine();
    for i in 1..=5 {
        run(
            &mut e,
            &["XADD", "st", &format!("{i}-0"), "n", &i.to_string()],
        );
    }
    let reply = run(&mut e, &["XREAD", "COUNT", "2", "STREAMS", "st", "2-0"]);
    let streams = reply.as_array().unwrap();
    assert_eq!(streams.len(), 1);
    let entries = streams[0].as_array().unwrap()[1].as_array().unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(run(&mut e, &["XREAD", "STREAMS", "st", "5-0"]), Frame::Null);
    assert_eq!(
        run(&mut e, &["XTRIM", "st", "MAXLEN", "2"]),
        Frame::Integer(3)
    );
    assert_eq!(run(&mut e, &["XLEN", "st"]), Frame::Integer(2));
}

#[test]
fn hll_commands() {
    let mut e = engine();
    assert_eq!(
        run(&mut e, &["PFADD", "h", "a", "b", "c"]),
        Frame::Integer(1)
    );
    assert_eq!(run(&mut e, &["PFADD", "h", "a"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["PFCOUNT", "h"]), Frame::Integer(3));
    run(&mut e, &["PFADD", "h2", "c", "d"]);
    assert_eq!(run(&mut e, &["PFCOUNT", "h", "h2"]), Frame::Integer(4));
    assert_eq!(run(&mut e, &["PFMERGE", "dst", "h", "h2"]), Frame::ok());
    assert_eq!(run(&mut e, &["PFCOUNT", "dst"]), Frame::Integer(4));
    run(&mut e, &["SET", "s", "x"]);
    assert!(run(&mut e, &["PFADD", "s", "y"]).is_error());
}

#[test]
fn multi_exec_basics() {
    let mut e = engine();
    let mut s = SessionState::new();
    assert_eq!(e.execute(&mut s, &cmd(["MULTI"])).reply, Frame::ok());
    assert_eq!(
        e.execute(&mut s, &cmd(["SET", "k", "v"])).reply,
        Frame::Simple("QUEUED".into())
    );
    assert_eq!(
        e.execute(&mut s, &cmd(["INCR", "n"])).reply,
        Frame::Simple("QUEUED".into())
    );
    // Nothing executed yet.
    let mut s2 = SessionState::new();
    assert_eq!(e.execute(&mut s2, &cmd(["GET", "k"])).reply, Frame::Null);
    let out = e.execute(&mut s, &cmd(["EXEC"]));
    assert_eq!(
        out.reply,
        Frame::Array(vec![Frame::ok(), Frame::Integer(1)])
    );
    // Effects of the whole transaction are grouped in one outcome.
    assert_eq!(out.effects.len(), 2);
    assert_eq!(e.execute(&mut s2, &cmd(["GET", "k"])).reply, bulk("v"));
}

#[test]
fn multi_error_aborts_exec() {
    let mut e = engine();
    let mut s = SessionState::new();
    e.execute(&mut s, &cmd(["MULTI"]));
    let r = e.execute(&mut s, &cmd(["NOTACOMMAND", "x"]));
    assert!(r.reply.is_error());
    e.execute(&mut s, &cmd(["SET", "k", "v"]));
    let out = e.execute(&mut s, &cmd(["EXEC"]));
    match out.reply {
        Frame::Error(msg) => assert!(msg.starts_with("EXECABORT")),
        other => panic!("expected EXECABORT, got {other:?}"),
    }
    let mut s2 = SessionState::new();
    assert_eq!(e.execute(&mut s2, &cmd(["GET", "k"])).reply, Frame::Null);
}

#[test]
fn discard_clears_queue() {
    let mut e = engine();
    let mut s = SessionState::new();
    e.execute(&mut s, &cmd(["MULTI"]));
    e.execute(&mut s, &cmd(["SET", "k", "v"]));
    assert_eq!(e.execute(&mut s, &cmd(["DISCARD"])).reply, Frame::ok());
    assert!(e.execute(&mut s, &cmd(["EXEC"])).reply.is_error());
    assert!(e.execute(&mut s, &cmd(["DISCARD"])).reply.is_error());
}

#[test]
fn watch_aborts_on_conflict() {
    let mut e = engine();
    let mut s = SessionState::new();
    e.execute(&mut s, &cmd(["SET", "k", "0"]));
    e.execute(&mut s, &cmd(["WATCH", "k"]));
    // Another session modifies the watched key.
    let mut other = SessionState::new();
    e.execute(&mut other, &cmd(["SET", "k", "conflict"]));
    e.execute(&mut s, &cmd(["MULTI"]));
    e.execute(&mut s, &cmd(["SET", "k", "mine"]));
    let out = e.execute(&mut s, &cmd(["EXEC"]));
    assert_eq!(out.reply, Frame::Null);
    assert!(out.effects.is_empty());
    assert_eq!(
        e.execute(&mut other, &cmd(["GET", "k"])).reply,
        bulk("conflict")
    );
}

#[test]
fn watch_passes_without_conflict() {
    let mut e = engine();
    let mut s = SessionState::new();
    e.execute(&mut s, &cmd(["SET", "k", "0"]));
    e.execute(&mut s, &cmd(["WATCH", "k"]));
    e.execute(&mut s, &cmd(["MULTI"]));
    e.execute(&mut s, &cmd(["SET", "k", "mine"]));
    let out = e.execute(&mut s, &cmd(["EXEC"]));
    assert_eq!(out.reply, Frame::Array(vec![Frame::ok()]));
    // WATCH is one-shot: a later EXEC is unaffected by the old watch.
    e.execute(&mut s, &cmd(["MULTI"]));
    e.execute(&mut s, &cmd(["SET", "k", "again"]));
    assert_eq!(
        e.execute(&mut s, &cmd(["EXEC"])).reply,
        Frame::Array(vec![Frame::ok()])
    );
}

/// WATCH `watched`, let another session run `between`, then MULTI/SET/EXEC:
/// did the transaction abort?
fn watch_aborted(setup: &[&[&str]], watched: &str, between: &[&[&str]]) -> bool {
    let mut e = engine();
    let mut s = SessionState::new();
    let mut other = SessionState::new();
    for c in setup {
        e.execute(&mut other, &cmd(c.iter().copied()));
    }
    e.execute(&mut s, &cmd(["WATCH", watched]));
    for c in between {
        assert!(!e
            .execute(&mut other, &cmd(c.iter().copied()))
            .reply
            .is_error());
    }
    e.execute(&mut s, &cmd(["MULTI"]));
    e.execute(&mut s, &cmd(["SET", "mine", "1"]));
    e.execute(&mut s, &cmd(["EXEC"])).reply == Frame::Null
}

#[test]
fn watch_on_absent_key_sees_create_then_delete() {
    // The key is absent at WATCH and absent again at EXEC, but it was
    // modified in between: the removed-key floor must have moved.
    assert!(watch_aborted(
        &[],
        "k",
        &[&["SET", "k", "v"], &["DEL", "k"]]
    ));
    // Creation alone is seen too, and so is a flush of the created key.
    assert!(watch_aborted(&[], "k", &[&["SET", "k", "v"]]));
    assert!(watch_aborted(
        &[],
        "k",
        &[&["SET", "k", "v"], &["FLUSHALL"]]
    ));
    // Nothing happened at all: the transaction runs.
    assert!(!watch_aborted(&[], "k", &[]));
}

#[test]
fn watch_sees_delete_and_recreate_with_the_same_value() {
    assert!(watch_aborted(
        &[&["SET", "k", "v"]],
        "k",
        &[&["DEL", "k"], &["SET", "k", "v"]]
    ));
    // Setting a TTL and clearing it again leaves the same entry, modified.
    assert!(watch_aborted(
        &[&["SET", "k", "v"]],
        "k",
        &[&["EXPIRE", "k", "100"], &["PERSIST", "k"]]
    ));
}

#[test]
fn watch_on_present_key_ignores_unrelated_keys() {
    // `other` hashes to a different slot; writing and even deleting it
    // (which raises the removed-key floor) leaves a present key's version
    // alone.
    assert_ne!(
        crate::slots::key_hash_slot(b"k"),
        crate::slots::key_hash_slot(b"other")
    );
    assert!(!watch_aborted(
        &[&["SET", "k", "v"], &["SET", "other", "1"]],
        "k",
        &[
            &["SET", "other", "2"],
            &["DEL", "other"],
            &["SET", "new", "3"]
        ]
    ));
}

#[test]
fn nested_multi_and_watch_inside_multi_rejected() {
    let mut e = engine();
    let mut s = SessionState::new();
    e.execute(&mut s, &cmd(["MULTI"]));
    assert!(e.execute(&mut s, &cmd(["MULTI"])).reply.is_error());
    assert!(e.execute(&mut s, &cmd(["WATCH", "k"])).reply.is_error());
}

#[test]
fn unknown_command_and_arity_errors() {
    let mut e = engine();
    assert!(run(&mut e, &["FROBNICATE"]).is_error());
    assert!(run(&mut e, &["GET"]).is_error());
    assert!(run(&mut e, &["GET", "a", "b"]).is_error());
    assert!(run(&mut e, &["SET", "a"]).is_error());
}

#[test]
fn replica_does_not_reap_expired_keys() {
    let mut replica = Engine::new(Role::Replica);
    replica.set_time_ms(1_000);
    replica
        .apply_effect(&cmd(["SET", "k", "v", "PXAT", "2000"]))
        .unwrap();
    replica.set_time_ms(10_000);
    // Reads treat it as missing...
    let mut s = SessionState::new();
    assert_eq!(
        replica.execute(&mut s, &cmd(["GET", "k"])).reply,
        Frame::Null
    );
    // ...but the entry stays until the primary's DEL arrives.
    assert_eq!(replica.db.len(), 1);
    replica.apply_effect(&cmd(["DEL", "k"])).unwrap();
    assert_eq!(replica.db.len(), 0);
}

#[test]
fn active_expire_cycle_emits_dels() {
    let mut e = engine();
    run(&mut e, &["SET", "a", "1", "PX", "10"]);
    run(&mut e, &["SET", "b", "2", "PX", "10"]);
    run(&mut e, &["SET", "c", "3"]);
    e.set_time_ms(2_000_000);
    let mut effects = e.active_expire_cycle(100);
    effects.sort();
    assert_eq!(effects, vec![cmd(["DEL", "a"]), cmd(["DEL", "b"])]);
    assert_eq!(e.db.len(), 1);
    // Replicas never reap on their own.
    let mut r = Engine::new(Role::Replica);
    assert!(r.active_expire_cycle(100).is_empty());
}

#[test]
fn ping_echo_time_info() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["PING"]), Frame::Simple("PONG".into()));
    assert_eq!(run(&mut e, &["PING", "hi"]), bulk("hi"));
    assert_eq!(run(&mut e, &["ECHO", "x"]), bulk("x"));
    let t = run(&mut e, &["TIME"]);
    assert_eq!(t.as_array().unwrap().len(), 2);
    match run(&mut e, &["INFO"]) {
        Frame::Bulk(b) => {
            let text = String::from_utf8_lossy(&b).to_string();
            assert!(text.contains("role:master"));
            assert!(text.contains("redis_version:7.0.7"));
        }
        other => panic!("expected bulk, got {other:?}"),
    }
}

#[test]
fn cluster_keyslot_via_command() {
    let mut e = engine();
    assert_eq!(
        run(&mut e, &["CLUSTER", "KEYSLOT", "foo"]),
        Frame::Integer(12182)
    );
    run(&mut e, &["SET", "{tag}a", "1"]);
    run(&mut e, &["SET", "{tag}b", "2"]);
    let slot = crate::slots::key_hash_slot(b"{tag}a");
    assert_eq!(
        run(&mut e, &["CLUSTER", "COUNTKEYSINSLOT", &slot.to_string()]),
        Frame::Integer(2)
    );
    let keys = run(
        &mut e,
        &["CLUSTER", "GETKEYSINSLOT", &slot.to_string(), "10"],
    );
    assert_eq!(keys.as_array().unwrap().len(), 2);
}

#[test]
fn config_set_get() {
    let mut e = engine();
    assert_eq!(
        run(&mut e, &["CONFIG", "SET", "maxmemory", "100mb"]),
        Frame::ok()
    );
    assert_eq!(
        run(&mut e, &["CONFIG", "GET", "maxmemory"]),
        Frame::Array(vec![bulk("maxmemory"), bulk("100mb")])
    );
    assert_eq!(
        run(&mut e, &["CONFIG", "GET", "nope*"]),
        Frame::Array(vec![])
    );
}

// ---------------------------------------------------------------------------
// The replication property the whole system rests on: applying a primary's
// effect stream to a fresh replica reproduces the primary's keyspace.
// ---------------------------------------------------------------------------

/// Replays the effects of every mutation onto a replica and asserts the two
/// keyspaces serialize identically.
fn assert_replica_convergence(commands: &[Vec<Bytes>]) {
    let mut primary = Engine::new(Role::Primary);
    primary.set_time_ms(1_000_000);
    primary.seed_rng(42);
    let mut replica = Engine::new(Role::Replica);
    let mut s = SessionState::new();
    for c in commands {
        let out = primary.execute(&mut s, c);
        for eff in &out.effects {
            replica
                .apply_effect(eff)
                .unwrap_or_else(|e| panic!("effect {eff:?} failed on replica: {e}"));
        }
    }
    assert_eq!(
        crate::rdb::dump(&primary.db),
        crate::rdb::dump(&replica.db),
        "replica diverged after {} commands",
        commands.len()
    );
}

#[test]
fn effect_replay_reproduces_state_across_types() {
    assert_replica_convergence(&[
        cmd(["SET", "s", "v1"]),
        cmd(["APPEND", "s", "v2"]),
        cmd(["INCR", "n"]),
        cmd(["INCRBYFLOAT", "f", "1.25"]),
        cmd(["RPUSH", "l", "a", "b", "c"]),
        cmd(["LPOP", "l"]),
        cmd(["LMOVE", "l", "l2", "LEFT", "RIGHT"]),
        cmd(["HSET", "h", "f", "1", "g", "2"]),
        cmd(["HINCRBYFLOAT", "h", "f", "0.5"]),
        cmd(["HDEL", "h", "g"]),
        cmd(["SADD", "st", "a", "b", "c", "d", "e"]),
        cmd(["SPOP", "st", "2"]),
        cmd(["SMOVE", "st", "st2", "a"]),
        cmd(["ZADD", "z", "1", "a", "2", "b", "3", "c"]),
        cmd(["ZINCRBY", "z", "0.5", "a"]),
        cmd(["ZPOPMAX", "z"]),
        cmd(["ZUNIONSTORE", "zu", "2", "z", "st2"]),
        cmd(["XADD", "x", "*", "f", "v"]),
        cmd(["XADD", "x", "*", "f", "w"]),
        cmd(["XTRIM", "x", "MAXLEN", "1"]),
        cmd(["PFADD", "hll", "a", "b", "c"]),
        cmd(["PFMERGE", "hll2", "hll"]),
        cmd(["EXPIRE", "s", "500"]),
        cmd(["DEL", "n"]),
        cmd(["RENAME", "f", "f2"]),
    ]);
}

#[test]
fn effect_replay_with_expirations() {
    let mut primary = Engine::new(Role::Primary);
    primary.set_time_ms(1_000);
    let mut replica = Engine::new(Role::Replica);
    let mut s = SessionState::new();
    let feed = |p: &mut Engine, r: &mut Engine, s: &mut SessionState, c: &[Bytes]| {
        let out = p.execute(s, c);
        for eff in &out.effects {
            r.apply_effect(eff).unwrap();
        }
    };
    feed(
        &mut primary,
        &mut replica,
        &mut s,
        &cmd(["SET", "k", "v", "PX", "100"]),
    );
    feed(
        &mut primary,
        &mut replica,
        &mut s,
        &cmd(["SET", "stay", "v"]),
    );
    primary.set_time_ms(10_000);
    // Accessing the expired key generates the DEL the replica needs.
    feed(&mut primary, &mut replica, &mut s, &cmd(["GET", "k"]));
    assert_eq!(crate::rdb::dump(&primary.db), crate::rdb::dump(&replica.db));
    assert_eq!(replica.db.len(), 1);
}

// Property: random command sequences over a small domain never diverge.
fn arb_command() -> impl Strategy<Value = Vec<Bytes>> {
    let key = prop_oneof![Just("k1"), Just("k2"), Just("k3")];
    let val = "[a-z]{0,6}";
    prop_oneof![
        (key.clone(), val).prop_map(|(k, v)| cmd(["SET", k, &v])),
        key.clone().prop_map(|k| cmd(["GET", k])),
        key.clone().prop_map(|k| cmd(["DEL", k])),
        key.clone().prop_map(|k| cmd(["INCR", k])),
        (key.clone(), val).prop_map(|(k, v)| cmd(["RPUSH", k, &v])),
        key.clone().prop_map(|k| cmd(["LPOP", k])),
        (key.clone(), val).prop_map(|(k, v)| cmd(["SADD", k, &v])),
        key.clone().prop_map(|k| cmd(["SPOP", k])),
        (key.clone(), 0i32..100, val).prop_map(|(k, s, v)| cmd(["ZADD", k, &s.to_string(), &v])),
        key.clone().prop_map(|k| cmd(["ZPOPMIN", k])),
        (key.clone(), val).prop_map(|(k, v)| cmd(["HSET", k, "f", &v])),
        (key.clone(), 1i64..1000).prop_map(|(k, ms)| cmd(["PEXPIRE", k, &ms.to_string()])),
        (key.clone(), val).prop_map(|(k, v)| cmd(["APPEND", k, &v])),
        (key.clone(), 0i64..64).prop_map(|(k, off)| cmd(["SETBIT", k, &off.to_string(), "1"])),
        (key.clone(), val).prop_map(|(k, v)| cmd(["XADD", k, "*", "f", &v])),
        key.clone().prop_map(|k| cmd(["XTRIM", k, "MAXLEN", "2"])),
        (key.clone(), val).prop_map(|(k, v)| cmd(["PFADD", k, &v])),
        key.clone().prop_map(|k| cmd(["LPOP", k, "2"])),
        (key.clone(), key.clone()).prop_map(|(a, b)| cmd(["ZUNIONSTORE", a, "1", b])),
        (key.clone(), "[a-z]{1,3}").prop_map(|(k, v)| cmd(["SETRANGE", k, "2", &v])),
        (key.clone(), key.clone()).prop_map(|(a, b)| cmd(["COPY", a, b, "REPLACE"])),
        key.prop_map(|k| cmd(["INCRBYFLOAT", k, "0.5"])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prop_random_sequences_converge(cmds in proptest::collection::vec(arb_command(), 1..60)) {
        // Commands of mixed types against the same key produce WRONGTYPE
        // errors on the primary — which yield no effects, so convergence
        // must still hold.
        assert_replica_convergence(&cmds);
    }
}

#[test]
fn zunion_zinter_zdiff_read_variants() {
    let mut e = engine();
    run(&mut e, &["ZADD", "z1", "1", "a", "2", "b"]);
    run(&mut e, &["ZADD", "z2", "10", "b", "20", "c"]);
    assert_eq!(
        run(&mut e, &["ZUNION", "2", "z1", "z2"]),
        Frame::Array(vec![bulk("a"), bulk("b"), bulk("c")])
    );
    assert_eq!(
        run(&mut e, &["ZUNION", "2", "z1", "z2", "WITHSCORES"]),
        Frame::Array(vec![
            bulk("a"),
            bulk("1"),
            bulk("b"),
            bulk("12"),
            bulk("c"),
            bulk("20")
        ])
    );
    assert_eq!(
        run(&mut e, &["ZINTER", "2", "z1", "z2", "WITHSCORES"]),
        Frame::Array(vec![bulk("b"), bulk("12")])
    );
    assert_eq!(
        run(&mut e, &["ZDIFF", "2", "z1", "z2", "WITHSCORES"]),
        Frame::Array(vec![bulk("a"), bulk("1")])
    );
    // Weights/aggregate on the read forms.
    assert_eq!(
        run(
            &mut e,
            &[
                "ZUNION",
                "2",
                "z1",
                "z2",
                "WEIGHTS",
                "2",
                "1",
                "AGGREGATE",
                "MAX",
                "WITHSCORES"
            ]
        ),
        Frame::Array(vec![
            bulk("a"),
            bulk("2"),
            bulk("b"),
            bulk("10"),
            bulk("c"),
            bulk("20")
        ])
    );
    // Read variants are pure: no effects, nothing stored.
    let out = run_full(&mut e, &["ZUNION", "2", "z1", "z2"]);
    assert!(out.effects.is_empty());
    assert!(run(&mut e, &["ZDIFF", "0"]).is_error());
    assert!(run(&mut e, &["ZDIFF", "2", "z1"]).is_error());
    // Sets join at score 1 like the STORE variants.
    run(&mut e, &["SADD", "s", "x"]);
    assert_eq!(
        run(&mut e, &["ZUNION", "2", "z1", "s", "WITHSCORES"]),
        Frame::Array(vec![
            bulk("a"),
            bulk("1"),
            bulk("x"),
            bulk("1"),
            bulk("b"),
            bulk("2")
        ])
    );
}

#[test]
fn expired_key_reaped_by_active_cycle_is_gone_everywhere() {
    // Companion to active_expire_cycle_emits_dels: the replica applying the
    // DELs converges even though it never looked at its clock.
    let mut primary = Engine::new(Role::Primary);
    primary.set_time_ms(1_000);
    let mut replica = Engine::new(Role::Replica);
    let mut s = SessionState::new();
    let out = primary.execute(&mut s, &cmd(["SET", "k", "v", "PX", "50"]));
    for eff in &out.effects {
        replica.apply_effect(eff).unwrap();
    }
    primary.set_time_ms(10_000);
    for eff in primary.active_expire_cycle(16) {
        replica.apply_effect(&eff).unwrap();
    }
    assert_eq!(crate::rdb::dump(&primary.db), crate::rdb::dump(&replica.db));
    assert_eq!(replica.db.len(), 0);
}

#[test]
fn bitmap_setbit_getbit() {
    let mut e = engine();
    assert_eq!(run(&mut e, &["SETBIT", "b", "7", "1"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["GETBIT", "b", "7"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["GETBIT", "b", "6"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["GETBIT", "b", "999"]), Frame::Integer(0));
    // The string grew to exactly one byte: 0b00000001.
    assert_eq!(
        run(&mut e, &["GET", "b"]),
        Frame::Bulk(Bytes::from_static(b"\x01"))
    );
    // Flip it back, observing the old value.
    assert_eq!(run(&mut e, &["SETBIT", "b", "7", "0"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["GETBIT", "b", "7"]), Frame::Integer(0));
    // Offsets extend with zero padding.
    assert_eq!(run(&mut e, &["SETBIT", "b", "100", "1"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["STRLEN", "b"]), Frame::Integer(13));
    assert!(run(&mut e, &["SETBIT", "b", "-1", "1"]).is_error());
    assert!(run(&mut e, &["SETBIT", "b", "0", "2"]).is_error());
}

#[test]
fn bitmap_bitcount_ranges() {
    let mut e = engine();
    run(&mut e, &["SET", "s", "foobar"]);
    assert_eq!(run(&mut e, &["BITCOUNT", "s"]), Frame::Integer(26));
    assert_eq!(run(&mut e, &["BITCOUNT", "s", "0", "0"]), Frame::Integer(4));
    assert_eq!(run(&mut e, &["BITCOUNT", "s", "1", "1"]), Frame::Integer(6));
    assert_eq!(
        run(&mut e, &["BITCOUNT", "s", "-2", "-1"]),
        Frame::Integer(7)
    ); // "ar"
    assert_eq!(
        run(&mut e, &["BITCOUNT", "s", "5", "30", "BIT"]),
        Frame::Integer(17)
    );
    assert_eq!(run(&mut e, &["BITCOUNT", "missing"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["BITCOUNT", "s", "3", "1"]), Frame::Integer(0));
}

#[test]
fn bitmap_bitpos() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "\x00\x0f\x00"]);
    assert_eq!(run(&mut e, &["BITPOS", "k", "1"]), Frame::Integer(12));
    assert_eq!(run(&mut e, &["BITPOS", "k", "1", "2"]), Frame::Integer(-1));
    assert_eq!(run(&mut e, &["BITPOS", "k", "0"]), Frame::Integer(0));
    let mut s = SessionState::new();
    e.execute(
        &mut s,
        &[
            Bytes::from_static(b"SET"),
            Bytes::from_static(b"ones"),
            Bytes::from_static(b"\xff\xff"),
        ],
    );
    // All ones with no explicit end: first 0 is past the string.
    assert_eq!(run(&mut e, &["BITPOS", "ones", "0"]), Frame::Integer(16));
    // With an explicit end: no 0 inside the range.
    assert_eq!(
        run(&mut e, &["BITPOS", "ones", "0", "0", "1"]),
        Frame::Integer(-1)
    );
    assert_eq!(run(&mut e, &["BITPOS", "missing", "1"]), Frame::Integer(-1));
    assert_eq!(run(&mut e, &["BITPOS", "missing", "0"]), Frame::Integer(0));
}

#[test]
fn bitmap_bitop() {
    let mut e = engine();
    run(&mut e, &["SET", "a", "abc"]);
    run(&mut e, &["SET", "b", "ab"]);
    assert_eq!(
        run(&mut e, &["BITOP", "AND", "dst", "a", "b"]),
        Frame::Integer(3)
    );
    assert_eq!(
        run(&mut e, &["GET", "dst"]),
        Frame::Bulk(Bytes::from_static(b"ab\x00"))
    );
    assert_eq!(
        run(&mut e, &["BITOP", "OR", "dst", "a", "b"]),
        Frame::Integer(3)
    );
    assert_eq!(
        run(&mut e, &["BITOP", "XOR", "dst", "a", "a"]),
        Frame::Integer(3)
    );
    assert_eq!(
        run(&mut e, &["GET", "dst"]),
        Frame::Bulk(Bytes::from_static(b"\x00\x00\x00"))
    );
    assert_eq!(
        run(&mut e, &["BITOP", "NOT", "dst", "a"]),
        Frame::Integer(3)
    );
    assert!(run(&mut e, &["BITOP", "NOT", "dst", "a", "b"]).is_error());
    // Empty result deletes the destination.
    assert_eq!(
        run(&mut e, &["BITOP", "AND", "dst", "none1", "none2"]),
        Frame::Integer(0)
    );
    assert_eq!(run(&mut e, &["EXISTS", "dst"]), Frame::Integer(0));
    // Bitmaps replicate like any other string write.
    let out = run_full(&mut e, &["SETBIT", "repl", "3", "1"]);
    assert_eq!(out.effects.len(), 1);
    let mut replica = Engine::new(Role::Replica);
    run(&mut e, &["SET", "x", "go"]); // noise
    replica.apply_effect(&out.effects[0]).unwrap();
    let mut s = SessionState::new();
    assert_eq!(
        replica.execute(&mut s, &cmd(["GETBIT", "repl", "3"])).reply,
        Frame::Integer(1)
    );
}

// ---------------------------------------------------------------------------
// Stream consumer groups
// ---------------------------------------------------------------------------

#[test]
fn xgroup_create_and_destroy() {
    let mut e = engine();
    assert!(run(&mut e, &["XGROUP", "CREATE", "st", "g", "$"]).is_error()); // no MKSTREAM
    assert_eq!(
        run(&mut e, &["XGROUP", "CREATE", "st", "g", "$", "MKSTREAM"]),
        Frame::ok()
    );
    match run(&mut e, &["XGROUP", "CREATE", "st", "g", "$"]) {
        Frame::Error(msg) => assert!(msg.starts_with("BUSYGROUP"), "{msg}"),
        other => panic!("expected BUSYGROUP, got {other:?}"),
    }
    assert_eq!(
        run(&mut e, &["XGROUP", "DESTROY", "st", "g"]),
        Frame::Integer(1)
    );
    assert_eq!(
        run(&mut e, &["XGROUP", "DESTROY", "st", "g"]),
        Frame::Integer(0)
    );
}

#[test]
fn xreadgroup_delivers_and_tracks_pel() {
    let mut e = engine();
    run(&mut e, &["XADD", "st", "1-1", "n", "1"]);
    run(&mut e, &["XADD", "st", "2-1", "n", "2"]);
    run(&mut e, &["XGROUP", "CREATE", "st", "g", "0"]);
    // Consumer A reads both new messages.
    let reply = run(
        &mut e,
        &[
            "XREADGROUP",
            "GROUP",
            "g",
            "alice",
            "COUNT",
            "10",
            "STREAMS",
            "st",
            ">",
        ],
    );
    let streams = reply.as_array().unwrap();
    let entries = streams[0].as_array().unwrap()[1].as_array().unwrap();
    assert_eq!(entries.len(), 2);
    // Nothing new remains.
    assert_eq!(
        run(
            &mut e,
            &["XREADGROUP", "GROUP", "g", "alice", "STREAMS", "st", ">"]
        ),
        Frame::Null
    );
    // Pending summary: 2 entries, all alice's.
    let pending = run(&mut e, &["XPENDING", "st", "g"]);
    let summary = pending.as_array().unwrap();
    assert_eq!(summary[0], Frame::Integer(2));
    // History re-read (id 0): alice sees her own PEL.
    let hist = run(
        &mut e,
        &["XREADGROUP", "GROUP", "g", "alice", "STREAMS", "st", "0"],
    );
    let entries = hist.as_array().unwrap()[0].as_array().unwrap()[1]
        .as_array()
        .unwrap();
    assert_eq!(entries.len(), 2);
    // Bob's history is empty.
    let hist = run(
        &mut e,
        &["XREADGROUP", "GROUP", "g", "bob", "STREAMS", "st", "0"],
    );
    let entries = hist.as_array().unwrap()[0].as_array().unwrap()[1]
        .as_array()
        .unwrap();
    assert!(entries.is_empty());
    // ACK one; pending drops to 1.
    assert_eq!(run(&mut e, &["XACK", "st", "g", "1-1"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["XACK", "st", "g", "1-1"]), Frame::Integer(0));
    let pending = run(&mut e, &["XPENDING", "st", "g"]);
    assert_eq!(pending.as_array().unwrap()[0], Frame::Integer(1));
}

#[test]
fn xclaim_moves_ownership() {
    let mut e = engine();
    run(&mut e, &["XADD", "st", "1-1", "n", "1"]);
    run(&mut e, &["XGROUP", "CREATE", "st", "g", "0"]);
    run(
        &mut e,
        &["XREADGROUP", "GROUP", "g", "alice", "STREAMS", "st", ">"],
    );
    // Bob claims alice's pending entry (min-idle 0).
    let reply = run(&mut e, &["XCLAIM", "st", "g", "bob", "0", "1-1"]);
    assert_eq!(reply.as_array().unwrap().len(), 1);
    let rows = run(&mut e, &["XPENDING", "st", "g", "-", "+", "10"]);
    let row = rows.as_array().unwrap()[0].as_array().unwrap();
    assert_eq!(row[1], bulk("bob"));
    assert_eq!(row[3], Frame::Integer(2)); // delivery count bumped
                                           // JUSTID re-claim does not bump the count.
    run(
        &mut e,
        &["XCLAIM", "st", "g", "carol", "0", "1-1", "JUSTID"],
    );
    let rows = run(&mut e, &["XPENDING", "st", "g", "-", "+", "10"]);
    let row = rows.as_array().unwrap()[0].as_array().unwrap();
    assert_eq!(row[1], bulk("carol"));
    assert_eq!(row[3], Frame::Integer(2));
    // min-idle filtering: a fresh entry is not idle enough.
    assert_eq!(
        run(&mut e, &["XCLAIM", "st", "g", "dave", "999999", "1-1"]),
        Frame::Array(vec![])
    );
}

#[test]
fn xinfo_reports_groups() {
    let mut e = engine();
    run(&mut e, &["XADD", "st", "1-1", "n", "1"]);
    run(&mut e, &["XGROUP", "CREATE", "st", "g", "0"]);
    run(
        &mut e,
        &["XREADGROUP", "GROUP", "g", "alice", "STREAMS", "st", ">"],
    );
    let info = run(&mut e, &["XINFO", "GROUPS", "st"]);
    let groups = info.as_array().unwrap();
    assert_eq!(groups.len(), 1);
    let fields = groups[0].as_array().unwrap();
    assert_eq!(fields[1], bulk("g"));
    assert_eq!(fields[3], Frame::Integer(1)); // consumers
    assert_eq!(fields[5], Frame::Integer(1)); // pending
    let stream_info = run(&mut e, &["XINFO", "STREAM", "st"]);
    assert!(stream_info.as_array().unwrap().len() >= 8);
    assert!(run(&mut e, &["XINFO", "STREAM", "missing"]).is_error());
}

#[test]
fn xgroup_delconsumer_drops_pel() {
    let mut e = engine();
    run(&mut e, &["XADD", "st", "1-1", "n", "1"]);
    run(&mut e, &["XADD", "st", "2-1", "n", "2"]);
    run(&mut e, &["XGROUP", "CREATE", "st", "g", "0"]);
    run(
        &mut e,
        &["XREADGROUP", "GROUP", "g", "alice", "STREAMS", "st", ">"],
    );
    assert_eq!(
        run(&mut e, &["XGROUP", "DELCONSUMER", "st", "g", "alice"]),
        Frame::Integer(2)
    );
    let pending = run(&mut e, &["XPENDING", "st", "g"]);
    assert_eq!(pending.as_array().unwrap()[0], Frame::Integer(0));
}

#[test]
fn consumer_group_state_replicates_by_effect() {
    // The crux: XREADGROUP mutates group state non-idempotently; its
    // effects (XCLAIM+SETID) must reproduce that state exactly on replicas.
    let mut primary = Engine::new(Role::Primary);
    primary.set_time_ms(5_000);
    let mut replica = Engine::new(Role::Replica);
    let mut s = SessionState::new();
    let feed = |p: &mut Engine, r: &mut Engine, c: &[Bytes]| {
        let out = {
            let mut sess = SessionState::new();
            p.execute(&mut sess, c)
        };
        assert!(!out.reply.is_error(), "{c:?} -> {:?}", out.reply);
        for eff in &out.effects {
            r.apply_effect(eff).unwrap();
        }
        out
    };
    let _ = &mut s;
    feed(
        &mut primary,
        &mut replica,
        &cmd(["XADD", "st", "1-1", "n", "1"]),
    );
    feed(
        &mut primary,
        &mut replica,
        &cmd(["XADD", "st", "2-1", "n", "2"]),
    );
    feed(
        &mut primary,
        &mut replica,
        &cmd(["XGROUP", "CREATE", "st", "g", "0"]),
    );
    feed(
        &mut primary,
        &mut replica,
        &cmd(["XREADGROUP", "GROUP", "g", "alice", "STREAMS", "st", ">"]),
    );
    feed(&mut primary, &mut replica, &cmd(["XACK", "st", "g", "1-1"]));
    feed(
        &mut primary,
        &mut replica,
        &cmd(["XCLAIM", "st", "g", "bob", "0", "2-1"]),
    );
    feed(
        &mut primary,
        &mut replica,
        &cmd(["XGROUP", "CREATECONSUMER", "st", "g", "carol"]),
    );
    assert_eq!(
        crate::rdb::dump(&primary.db),
        crate::rdb::dump(&replica.db),
        "group state diverged between primary and replica"
    );
    // And snapshots preserve the whole thing.
    let snap = crate::rdb::dump(&primary.db);
    let restored = crate::rdb::load(&snap).unwrap();
    assert_eq!(crate::rdb::dump(&restored), snap);
}

#[test]
fn xreadgroup_noack_advances_without_pel() {
    let mut e = engine();
    run(&mut e, &["XADD", "st", "1-1", "n", "1"]);
    run(&mut e, &["XGROUP", "CREATE", "st", "g", "0"]);
    let out = run_full(
        &mut e,
        &[
            "XREADGROUP",
            "GROUP",
            "g",
            "a",
            "NOACK",
            "STREAMS",
            "st",
            ">",
        ],
    );
    assert!(!out.reply.is_error());
    // No PEL entry, cursor advanced.
    let pending = run(&mut e, &["XPENDING", "st", "g"]);
    assert_eq!(pending.as_array().unwrap()[0], Frame::Integer(0));
    assert_eq!(
        run(
            &mut e,
            &["XREADGROUP", "GROUP", "g", "a", "STREAMS", "st", ">"]
        ),
        Frame::Null
    );
    // Effects: just the SETID (no claim).
    assert_eq!(out.effects.len(), 1);
    assert_eq!(out.effects[0][1], Bytes::from_static(b"SETID"));
}

#[test]
fn scan_type_filter_and_object_encoding() {
    let mut e = engine();
    run(&mut e, &["SET", "s1", "text"]);
    run(&mut e, &["SET", "n1", "42"]);
    run(&mut e, &["RPUSH", "l1", "x"]);
    run(&mut e, &["ZADD", "z1", "1", "m"]);
    let reply = run(&mut e, &["SCAN", "0", "COUNT", "100", "TYPE", "list"]);
    let keys = reply.as_array().unwrap()[1].as_array().unwrap();
    assert_eq!(keys, &[bulk("l1")]);
    let reply = run(&mut e, &["SCAN", "0", "COUNT", "100", "TYPE", "string"]);
    assert_eq!(reply.as_array().unwrap()[1].as_array().unwrap().len(), 2);

    assert_eq!(run(&mut e, &["OBJECT", "ENCODING", "n1"]), bulk("int"));
    assert_eq!(run(&mut e, &["OBJECT", "ENCODING", "s1"]), bulk("embstr"));
    run(&mut e, &["SET", "big", &"x".repeat(100)]);
    assert_eq!(run(&mut e, &["OBJECT", "ENCODING", "big"]), bulk("raw"));
    assert_eq!(run(&mut e, &["OBJECT", "ENCODING", "z1"]), bulk("skiplist"));
    assert_eq!(
        run(&mut e, &["OBJECT", "REFCOUNT", "s1"]),
        Frame::Integer(1)
    );
    assert!(run(&mut e, &["OBJECT", "ENCODING", "missing"]).is_error());
}

// --- cursor & cast audit (SCAN family, bitmaps, lists, hashes) ------------

fn err_text(f: &Frame) -> String {
    match f {
        Frame::Error(e) => e.to_string(),
        other => panic!("expected error frame, got {other:?}"),
    }
}

#[test]
fn scan_family_rejects_negative_cursor() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "v"]);
    run(&mut e, &["HSET", "h", "f", "v"]);
    run(&mut e, &["SADD", "s", "m"]);
    run(&mut e, &["ZADD", "z", "1", "m"]);
    // A negative cursor must not wrap into a huge valid u64 cursor.
    for parts in [
        vec!["SCAN", "-1"],
        vec!["HSCAN", "h", "-1"],
        vec!["SSCAN", "s", "-1"],
        vec!["ZSCAN", "z", "-9223372036854775808"],
        vec!["SCAN", "notanumber"],
    ] {
        assert_eq!(
            err_text(&run(&mut e, &parts)),
            "ERR invalid cursor",
            "for {parts:?}"
        );
    }
    // Valid unsigned cursors still work, including ones above i64::MAX.
    let reply = run(&mut e, &["SCAN", "0", "COUNT", "100"]);
    assert_eq!(reply.as_array().unwrap()[1].as_array().unwrap().len(), 4);
    let reply = run(&mut e, &["SCAN", "18446744073709551615"]);
    assert!(reply.as_array().is_some());
}

#[test]
fn bitpos_honors_bit_unit_ranges() {
    let mut e = engine();
    // Value 0b0001_0000 0b0000_0000: only bit 3 is set.
    run(&mut e, &["SETBIT", "k", "3", "1"]);
    run(&mut e, &["SETBIT", "k", "15", "0"]);
    // BIT-unit range [1,3] contains bit 3; the same numbers as a BYTE
    // range (bytes 1..3 = bits 8..31) do not. Pre-fix the unit argument
    // was silently ignored and this returned -1.
    assert_eq!(
        run(&mut e, &["BITPOS", "k", "1", "1", "3", "BIT"]),
        Frame::Integer(3)
    );
    assert_eq!(
        run(&mut e, &["BITPOS", "k", "1", "1", "3", "BYTE"]),
        Frame::Integer(-1)
    );
    assert_eq!(
        run(&mut e, &["BITPOS", "k", "1", "4", "-1", "BIT"]),
        Frame::Integer(-1)
    );
    assert_eq!(
        run(&mut e, &["BITPOS", "k", "0", "3", "8", "BIT"]),
        Frame::Integer(4)
    );
    // Bad unit / trailing garbage are syntax errors.
    assert!(run(&mut e, &["BITPOS", "k", "1", "0", "-1", "NIBBLE"]).is_error());
    assert!(run(&mut e, &["BITPOS", "k", "1", "0", "-1", "BIT", "x"]).is_error());
}

#[test]
fn bit_range_start_past_end_is_empty() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "ab"]); // 2 bytes, 6 set bits
                                      // A start beyond the value must yield an empty range, not clamp back
                                      // onto the last byte (pre-fix this counted byte 1 / found bit 8).
    assert_eq!(
        run(&mut e, &["BITCOUNT", "k", "5", "10"]),
        Frame::Integer(0)
    );
    assert_eq!(
        run(&mut e, &["BITPOS", "k", "1", "5", "10"]),
        Frame::Integer(-1)
    );
    assert_eq!(
        run(&mut e, &["BITCOUNT", "k", "30", "40", "BIT"]),
        Frame::Integer(0)
    );
    // Both-negative inverted ranges are empty even when both clamp to 0.
    assert_eq!(
        run(&mut e, &["BITCOUNT", "k", "-1", "-10"]),
        Frame::Integer(0)
    );
    assert_eq!(
        run(&mut e, &["BITCOUNT", "k", "-100", "-200"]),
        Frame::Integer(0)
    );
}

#[test]
fn lpop_explicit_zero_count_returns_empty_array() {
    let mut e = engine();
    run(&mut e, &["RPUSH", "l", "a", "b"]);
    // Existing key + count 0: empty array, nothing popped (pre-fix: nil).
    assert_eq!(run(&mut e, &["LPOP", "l", "0"]), Frame::Array(vec![]));
    assert_eq!(run(&mut e, &["RPOP", "l", "0"]), Frame::Array(vec![]));
    assert_eq!(run(&mut e, &["LLEN", "l"]), Frame::Integer(2));
    // Missing key with a count stays nil; negative counts stay errors.
    assert_eq!(run(&mut e, &["LPOP", "missing", "0"]), Frame::Null);
    assert!(run(&mut e, &["LPOP", "l", "-1"]).is_error());
}

/// Reference model for the documented BITCOUNT/BITPOS range semantics:
/// negative offsets count back from the total, underflow clamps to 0,
/// overflow clamps the END only, start past end is empty.
fn model_bit_range(start: i64, end: i64, total: i64) -> Option<(usize, usize)> {
    if total == 0 || (start < 0 && end < 0 && start > end) {
        return None;
    }
    let lo = if start < 0 {
        (total + start).max(0)
    } else {
        start
    };
    let hi = if end < 0 {
        (total + end).max(0)
    } else {
        end.min(total - 1)
    };
    if lo > hi {
        None
    } else {
        Some((lo as usize, hi as usize))
    }
}

fn bits_of(s: &[u8]) -> Vec<u8> {
    s.iter()
        .flat_map(|b| (0..8u8).map(move |i| (b >> (7 - i)) & 1))
        .collect()
}

fn set_raw_string(e: &mut Engine, key: &str, bytes: &[u8]) {
    e.db.set_value(
        Bytes::copy_from_slice(key.as_bytes()),
        crate::value::Value::Str(Bytes::copy_from_slice(bytes)),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn prop_bitcount_matches_bit_model(
        bytes in proptest::collection::vec(any::<u8>(), 0..10),
        start in -90i64..90,
        end in -90i64..90,
        bit_unit in any::<bool>(),
    ) {
        let mut e = engine();
        set_raw_string(&mut e, "k", &bytes);
        let bits = bits_of(&bytes);
        let total = if bit_unit { bits.len() } else { bytes.len() } as i64;
        let expect = match model_bit_range(start, end, total) {
            None => 0,
            Some((lo, hi)) => {
                let (fb, lb) = if bit_unit { (lo, hi) } else { (lo * 8, hi * 8 + 7) };
                bits[fb..=lb].iter().map(|&b| b as i64).sum()
            }
        };
        let unit = if bit_unit { "BIT" } else { "BYTE" };
        let got = run(&mut e, &["BITCOUNT", "k", &start.to_string(), &end.to_string(), unit]);
        prop_assert_eq!(got, Frame::Integer(expect));
    }

    #[test]
    fn prop_bitpos_matches_bit_model(
        bytes in proptest::collection::vec(any::<u8>(), 0..10),
        target in 0u8..2,
        start in -90i64..90,
        end in -90i64..90,
        bit_unit in any::<bool>(),
    ) {
        let mut e = engine();
        set_raw_string(&mut e, "k", &bytes);
        let bits = bits_of(&bytes);
        let total = if bit_unit { bits.len() } else { bytes.len() } as i64;
        let expect = match model_bit_range(start, end, total) {
            None => -1,
            Some((lo, hi)) => {
                let (fb, lb) = if bit_unit { (lo, hi) } else { (lo * 8, hi * 8 + 7) };
                bits[fb..=lb]
                    .iter()
                    .position(|&b| b == target)
                    .map(|p| (fb + p) as i64)
                    .unwrap_or(-1)
            }
        };
        let unit = if bit_unit { "BIT" } else { "BYTE" };
        let got = run(
            &mut e,
            &["BITPOS", "k", &target.to_string(), &start.to_string(), &end.to_string(), unit],
        );
        prop_assert_eq!(got, Frame::Integer(expect));
    }

    #[test]
    fn prop_list_index_casts_match_model(
        items in proptest::collection::vec("[a-c]{1,2}", 1..8),
        i in -12i64..12,
        j in -12i64..12,
        n in 0i64..7,
    ) {
        let mut e = engine();
        let mut parts = vec!["RPUSH".to_string(), "l".to_string()];
        parts.extend(items.iter().cloned());
        let refs: Vec<&str> = parts.iter().map(|s| s.as_str()).collect();
        run(&mut e, &refs);
        let len = items.len() as i64;

        // LRANGE: normalize both ends, clamp, empty when inverted.
        let lo = if i < 0 { (len + i).max(0) } else { i };
        let hi = if j < 0 { len + j } else { j.min(len - 1) };
        let expect: Vec<Frame> = if lo > hi || hi < 0 || lo >= len {
            vec![]
        } else {
            items[lo as usize..=hi as usize]
                .iter()
                .map(|s| bulk(s))
                .collect()
        };
        let got = run(&mut e, &["LRANGE", "l", &i.to_string(), &j.to_string()]);
        prop_assert_eq!(got, Frame::Array(expect));

        // LINDEX: single normalized position or nil.
        let pos = if i < 0 { len + i } else { i };
        let expect = if (0..len).contains(&pos) {
            bulk(&items[pos as usize])
        } else {
            Frame::Null
        };
        prop_assert_eq!(run(&mut e, &["LINDEX", "l", &i.to_string()]), expect);

        // LPOP with a count pops min(n, len) from the front; count 0 is
        // an empty array and mutates nothing.
        let popped = run(&mut e, &["LPOP", "l", &n.to_string()]);
        let take = n.min(len) as usize;
        let expect: Vec<Frame> = items[..take].iter().map(|s| bulk(s)).collect();
        prop_assert_eq!(popped, Frame::Array(expect));
        let left = run(&mut e, &["LLEN", "l"]);
        prop_assert_eq!(left, Frame::Integer(len - take as i64));
    }

    #[test]
    fn prop_hrandfield_counts_match_semantics(
        fields in proptest::collection::vec("[a-f]{1,2}", 1..7),
        n in -9i64..9,
    ) {
        let mut e = engine();
        let mut distinct = fields.clone();
        distinct.sort();
        distinct.dedup();
        for f in &distinct {
            run(&mut e, &["HSET", "h", f, "v"]);
        }
        let reply = run(&mut e, &["HRANDFIELD", "h", &n.to_string()]);
        let got = reply.as_array().expect("array reply").to_vec();
        if n >= 0 {
            // Positive count: min(n, size) DISTINCT existing fields.
            prop_assert_eq!(got.len() as i64, n.min(distinct.len() as i64));
            let mut seen = std::collections::HashSet::new();
            for f in &got {
                prop_assert!(seen.insert(format!("{f:?}")), "duplicate field in {got:?}");
            }
        } else {
            // Negative count: exactly |n| fields, repeats allowed.
            prop_assert_eq!(got.len() as i64, -n);
        }
        for f in &got {
            let name = match f {
                Frame::Bulk(b) => String::from_utf8_lossy(b).to_string(),
                other => panic!("expected bulk field, got {other:?}"),
            };
            prop_assert!(distinct.contains(&name), "unknown field {name}");
        }
    }
}

// ---------------------------------------------------------------------------
// Boundary-offset regressions (ISSUE 4): i64::MAX-adjacent offsets,
// proto-max-bulk-len caps, and overflow-checked expire conversion.
// ---------------------------------------------------------------------------

#[test]
fn setrange_huge_offsets_error_instead_of_allocating() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "abc"]);
    // i64::MAX-adjacent offset: the checked end position must produce a
    // clean error (previously it wrapped / attempted a huge zero-fill).
    let max = i64::MAX.to_string();
    match run(&mut e, &["SETRANGE", "k", &max, "x"]) {
        Frame::Error(msg) => assert!(msg.contains("proto-max-bulk-len"), "{msg}"),
        other => panic!("expected error, got {other:?}"),
    }
    // First offset past the 512 MB cap (end = cap + 1 with a 1-byte patch).
    let over = (512u64 * 1024 * 1024).to_string();
    assert!(run(&mut e, &["SETRANGE", "k", &over, "x"]).is_error());
    // The value is untouched and negative offsets still error.
    assert_eq!(run(&mut e, &["GET", "k"]), bulk("abc"));
    assert!(run(&mut e, &["SETRANGE", "k", "-1", "x"]).is_error());
}

#[test]
fn getrange_i64_extremes_clamp_cleanly() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "hello"]);
    // Regression: `len + i64::MIN` used to overflow in debug builds.
    let min = i64::MIN.to_string();
    assert_eq!(run(&mut e, &["GETRANGE", "k", &min, "-1"]), bulk("hello"));
    assert_eq!(run(&mut e, &["GETRANGE", "k", &min, &min]), bulk("h"));
    let max = i64::MAX.to_string();
    assert_eq!(run(&mut e, &["GETRANGE", "k", "0", &max]), bulk("hello"));
    assert_eq!(run(&mut e, &["GETRANGE", "k", &max, &max]), bulk(""));
}

#[test]
fn setbit_getbit_offsets_capped_at_redis_limit() {
    let mut e = engine();
    // 2^32 is the first illegal bit offset: a 512 MB string holds exactly
    // 2^32 bits. (Regression: a stray x8 in the cap let SETBIT zero-fill
    // a 4 GB buffer.)
    let first_bad = (1u64 << 32).to_string();
    assert!(run(&mut e, &["SETBIT", "k", &first_bad, "1"]).is_error());
    assert!(run(&mut e, &["GETBIT", "k", &first_bad]).is_error());
    let max = i64::MAX.to_string();
    assert!(run(&mut e, &["SETBIT", "k", &max, "1"]).is_error());
    assert!(run(&mut e, &["SETBIT", "k", "-1", "1"]).is_error());
    // Nothing was created by the rejected writes; in-range offsets work.
    assert_eq!(run(&mut e, &["EXISTS", "k"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["SETBIT", "k", "100", "1"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["GETBIT", "k", "100"]), Frame::Integer(1));
    assert_eq!(run(&mut e, &["STRLEN", "k"]), Frame::Integer(13));
}

#[test]
fn expire_overflow_is_error_delete_on_negative_still_works() {
    let mut e = engine();
    run(&mut e, &["SET", "k", "v"]);
    // Seconds beyond i64::MAX / 1000 cannot scale to milliseconds: a typed
    // error (previously a silent saturating clamp), key and TTL untouched.
    let over = (i64::MAX / 1000 + 1).to_string();
    match run(&mut e, &["EXPIRE", "k", &over]) {
        Frame::Error(msg) => {
            assert!(msg.contains("invalid expire time"), "{msg}");
            assert!(msg.contains("expire"), "{msg}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    assert_eq!(run(&mut e, &["GET", "k"]), bulk("v"));
    assert_eq!(run(&mut e, &["TTL", "k"]), Frame::Integer(-1));
    // Negation-side overflow: i64::MIN seconds cannot scale to ms either.
    let min = i64::MIN.to_string();
    assert!(run(&mut e, &["EXPIRE", "k", &min]).is_error());
    assert!(run(&mut e, &["EXPIREAT", "k", &over]).is_error());
    assert_eq!(run(&mut e, &["GET", "k"]), bulk("v"));
    // Redis semantics preserved: a representable negative deletes the key,
    // replicated as a deterministic DEL.
    let out = run_full(&mut e, &["EXPIRE", "k", "-1"]);
    assert_eq!(out.reply, Frame::Integer(1));
    assert_eq!(out.effects, vec![cmd(["DEL", "k"])]);
    assert_eq!(run(&mut e, &["EXISTS", "k"]), Frame::Integer(0));
    // PEXPIREAT at i64::MAX is representable: accepted with the identical
    // absolute record propagated to replicas.
    run(&mut e, &["SET", "k2", "v"]);
    let max = i64::MAX.to_string();
    let out = run_full(&mut e, &["PEXPIREAT", "k2", &max]);
    assert_eq!(out.reply, Frame::Integer(1));
    assert_eq!(out.effects, vec![cmd(["PEXPIREAT", "k2", &max])]);
}

#[test]
fn expire_delete_on_negative_converges_on_replica() {
    assert_replica_convergence(&[cmd(["SET", "k", "v"]), cmd(["EXPIRE", "k", "-5"])]);
    assert_replica_convergence(&[
        cmd(["SET", "k", "v"]),
        cmd(["PEXPIREAT", "k", &i64::MAX.to_string()]),
    ]);
}

#[test]
fn slowlog_and_latency_engine_fallbacks() {
    // The node layer intercepts these with real data; the standalone engine
    // must still answer the documented shapes.
    let mut e = engine();
    assert_eq!(run(&mut e, &["SLOWLOG", "GET"]), Frame::Array(vec![]));
    assert_eq!(run(&mut e, &["SLOWLOG", "LEN"]), Frame::Integer(0));
    assert_eq!(run(&mut e, &["SLOWLOG", "RESET"]), Frame::ok());
    assert!(run(&mut e, &["SLOWLOG", "NOPE"]).is_error());
    assert!(run(&mut e, &["SLOWLOG"]).is_error());
    assert_eq!(run(&mut e, &["LATENCY", "HISTOGRAM"]), Frame::Map(vec![]));
    assert_eq!(run(&mut e, &["LATENCY", "RESET"]), Frame::Integer(0));
    assert!(run(&mut e, &["LATENCY", "NOPE"]).is_error());
}
