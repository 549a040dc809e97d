//! The command table: arity, flags, and key-extraction rules.
//!
//! MemoryDB's core needs three pieces of metadata about every command before
//! execution (paper §3.2): whether it mutates (must be logged and its reply
//! blocked until commit), which keys it touches (key-level hazard
//! detection), and which cluster slot it belongs to (routing and slot-level
//! migration blocking). This module is that metadata.
// Serving/apply path: panic-freedom is an enforced invariant (DESIGN.md §9;
// `cargo run -p memorydb-analysis`). Keep clippy aligned with the analyzer.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use bytes::Bytes;

/// Longest command name the stack-resident fast path covers. Every name in
/// the command table fits; anything longer is by definition unknown and
/// takes the spill path.
const CMD_NAME_INLINE: usize = 24;

/// An uppercased command name that lives on the stack.
///
/// The serve path needs the canonical (ASCII-uppercase) name of every
/// command two or three times per request — dispatch in the server,
/// classification in the node, key extraction in the command table. The
/// old idiom, `String::from_utf8_lossy(..).to_ascii_uppercase()`, paid up
/// to two heap allocations per use. `CmdName` uppercases into a fixed
/// 24-byte buffer instead; names that are longer or non-ASCII (possible on
/// the wire, never a real command) spill to the old lossy-`String` path so
/// error messages that embed the name stay byte-identical.
pub struct CmdName {
    buf: [u8; CMD_NAME_INLINE],
    len: usize,
    spill: Option<String>,
}

impl CmdName {
    /// Uppercases `arg` (a command's first argument) without allocating in
    /// the common case.
    pub fn from_arg(arg: &[u8]) -> CmdName {
        if arg.len() <= CMD_NAME_INLINE && arg.is_ascii() {
            let mut buf = [0u8; CMD_NAME_INLINE];
            for (dst, src) in buf.iter_mut().zip(arg) {
                *dst = src.to_ascii_uppercase();
            }
            CmdName {
                buf,
                len: arg.len(),
                spill: None,
            }
        } else {
            CmdName {
                buf: [0u8; CMD_NAME_INLINE],
                len: 0,
                spill: Some(String::from_utf8_lossy(arg).to_ascii_uppercase()),
            }
        }
    }

    /// The canonical name.
    pub fn as_str(&self) -> &str {
        match &self.spill {
            Some(s) => s,
            // Inline bytes are uppercased ASCII, always valid UTF-8.
            None => std::str::from_utf8(self.buf.get(..self.len).unwrap_or(&[])).unwrap_or(""),
        }
    }
}

impl std::ops::Deref for CmdName {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for CmdName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<str> for CmdName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<&str> for CmdName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Behavioural flags of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommandFlags {
    /// May mutate the keyspace (its effects must be committed to the log).
    pub write: bool,
    /// Never mutates; may be served by replicas after `READONLY`.
    pub readonly: bool,
    /// Administrative/connection command (no keys, never replicated).
    pub admin: bool,
}

/// How to find the keys in a command's argument vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRule {
    /// No keys.
    None,
    /// Keys at `args[first..=last]` stepping by `step`; `last == 0` means
    /// "through the final argument".
    Range {
        /// Index of the first key (1 = the arg right after the name).
        first: usize,
        /// Index of the last key, or 0 for "to the end".
        last: usize,
        /// Distance between consecutive keys.
        step: usize,
    },
    /// `numkeys` at `args[pos]`, then that many keys follow (ZUNIONSTORE-style
    /// with a destination at `args[1]`: use `DestPlusNumkeys`).
    DestPlusNumkeys,
    /// `EVAL script numkeys key...` — numkeys at `args[2]`.
    EvalStyle,
    /// `XREAD [COUNT n] STREAMS key... id...` — keys between STREAMS marker
    /// and the midpoint of the remainder.
    XRead,
    /// `GEORADIUS`-style or other specials we don't support: reject.
    Unsupported,
}

/// Static description of one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandSpec {
    /// Canonical uppercase name.
    pub name: &'static str,
    /// Redis arity convention: positive = exact argc (including the name),
    /// negative = minimum argc.
    pub arity: i32,
    /// Behaviour flags.
    pub flags: CommandFlags,
    /// Key-extraction rule.
    pub keys: KeyRule,
}

const W: CommandFlags = CommandFlags {
    write: true,
    readonly: false,
    admin: false,
};
const R: CommandFlags = CommandFlags {
    write: false,
    readonly: true,
    admin: false,
};
const A: CommandFlags = CommandFlags {
    write: false,
    readonly: false,
    admin: true,
};

const fn range(first: usize, last: usize, step: usize) -> KeyRule {
    KeyRule::Range { first, last, step }
}

/// One key at position 1.
const K1: KeyRule = range(1, 1, 1);
/// Keys from position 1 through the end.
const KALL: KeyRule = range(1, 0, 1);
/// Two keys at positions 1 and 2.
const K12: KeyRule = range(1, 2, 1);

macro_rules! spec_table {
    ($( $name:literal => $arity:literal, $flags:expr, $keys:expr; )*) => {
        /// Looks up the spec for an (uppercased) command name.
        pub fn command_spec(name: &str) -> Option<&'static CommandSpec> {
            match name {
                $( $name => {
                    static S: CommandSpec = CommandSpec {
                        name: $name,
                        arity: $arity,
                        flags: $flags,
                        keys: $keys,
                    };
                    Some(&S)
                } )*
                _ => None,
            }
        }

        /// All command specs (drives the spec-driven test generator,
        /// paper §7.2.2.2). Every table name resolves by construction;
        /// `filter_map` keeps the serving path panic-free regardless.
        pub fn all_commands() -> Vec<&'static CommandSpec> {
            [ $( $name ),* ].into_iter().filter_map(command_spec).collect()
        }
    };
}

spec_table! {
    // --- strings ---
    "GET" => 2, R, K1;
    "SET" => -3, W, K1;
    "SETNX" => 3, W, K1;
    "SETEX" => 4, W, K1;
    "PSETEX" => 4, W, K1;
    "GETSET" => 3, W, K1;
    "GETDEL" => 2, W, K1;
    "GETEX" => -2, W, K1;
    "APPEND" => 3, W, K1;
    "STRLEN" => 2, R, K1;
    "INCR" => 2, W, K1;
    "DECR" => 2, W, K1;
    "INCRBY" => 3, W, K1;
    "DECRBY" => 3, W, K1;
    "INCRBYFLOAT" => 3, W, K1;
    "MGET" => -2, R, KALL;
    "MSET" => -3, W, range(1, 0, 2);
    "MSETNX" => -3, W, range(1, 0, 2);
    "SETRANGE" => 4, W, K1;
    "GETRANGE" => 4, R, K1;
    "SUBSTR" => 4, R, K1;
    // --- keyspace ---
    "DEL" => -2, W, KALL;
    "UNLINK" => -2, W, KALL;
    "EXISTS" => -2, R, KALL;
    "TYPE" => 2, R, K1;
    "EXPIRE" => -3, W, K1;
    "PEXPIRE" => -3, W, K1;
    "EXPIREAT" => -3, W, K1;
    "PEXPIREAT" => -3, W, K1;
    "TTL" => 2, R, K1;
    "PTTL" => 2, R, K1;
    "EXPIRETIME" => 2, R, K1;
    "PEXPIRETIME" => 2, R, K1;
    "PERSIST" => 2, W, K1;
    "KEYS" => 2, R, KeyRule::None;
    "SCAN" => -2, R, KeyRule::None;
    "RANDOMKEY" => 1, R, KeyRule::None;
    "RENAME" => 3, W, K12;
    "RENAMENX" => 3, W, K12;
    "COPY" => -3, W, K12;
    "RESTORE" => -4, W, K1;
    "DBSIZE" => 1, R, KeyRule::None;
    "FLUSHALL" => -1, W, KeyRule::None;
    "FLUSHDB" => -1, W, KeyRule::None;
    "TOUCH" => -2, R, KALL;
    // --- bitmaps ---
    "SETBIT" => 4, W, K1;
    "GETBIT" => 3, R, K1;
    "BITCOUNT" => -2, R, K1;
    "BITPOS" => -3, R, K1;
    "BITOP" => -4, W, range(2, 0, 1);
    // --- hashes ---
    "HSET" => -4, W, K1;
    "HMSET" => -4, W, K1;
    "HSETNX" => 4, W, K1;
    "HGET" => 3, R, K1;
    "HMGET" => -3, R, K1;
    "HDEL" => -3, W, K1;
    "HLEN" => 2, R, K1;
    "HEXISTS" => 3, R, K1;
    "HKEYS" => 2, R, K1;
    "HVALS" => 2, R, K1;
    "HGETALL" => 2, R, K1;
    "HINCRBY" => 4, W, K1;
    "HINCRBYFLOAT" => 4, W, K1;
    "HSTRLEN" => 3, R, K1;
    "HRANDFIELD" => -2, R, K1;
    "HSCAN" => -3, R, K1;
    // --- lists ---
    "LPUSH" => -3, W, K1;
    "RPUSH" => -3, W, K1;
    "LPUSHX" => -3, W, K1;
    "RPUSHX" => -3, W, K1;
    "LPOP" => -2, W, K1;
    "RPOP" => -2, W, K1;
    "LLEN" => 2, R, K1;
    "LRANGE" => 4, R, K1;
    "LINDEX" => 3, R, K1;
    "LSET" => 4, W, K1;
    "LINSERT" => 5, W, K1;
    "LREM" => 4, W, K1;
    "LTRIM" => 4, W, K1;
    "RPOPLPUSH" => 3, W, K12;
    "LMOVE" => 5, W, K12;
    "LPOS" => -3, R, K1;
    // --- sets ---
    "SADD" => -3, W, K1;
    "SREM" => -3, W, K1;
    "SMEMBERS" => 2, R, K1;
    "SISMEMBER" => 3, R, K1;
    "SMISMEMBER" => -3, R, K1;
    "SCARD" => 2, R, K1;
    "SPOP" => -2, W, K1;
    "SRANDMEMBER" => -2, R, K1;
    "SMOVE" => 4, W, K12;
    "SUNION" => -2, R, KALL;
    "SINTER" => -2, R, KALL;
    "SDIFF" => -2, R, KALL;
    "SUNIONSTORE" => -3, W, KALL;
    "SINTERSTORE" => -3, W, KALL;
    "SDIFFSTORE" => -3, W, KALL;
    "SINTERCARD" => -3, R, KeyRule::DestPlusNumkeys; // numkeys at 1, no dest
    "SSCAN" => -3, R, K1;
    // --- sorted sets ---
    "ZADD" => -4, W, K1;
    "ZREM" => -3, W, K1;
    "ZSCORE" => 3, R, K1;
    "ZMSCORE" => -3, R, K1;
    "ZINCRBY" => 4, W, K1;
    "ZCARD" => 2, R, K1;
    "ZCOUNT" => 4, R, K1;
    "ZLEXCOUNT" => 4, R, K1;
    "ZRANGE" => -4, R, K1;
    "ZREVRANGE" => -4, R, K1;
    "ZRANGEBYSCORE" => -4, R, K1;
    "ZREVRANGEBYSCORE" => -4, R, K1;
    "ZRANGEBYLEX" => -4, R, K1;
    "ZREVRANGEBYLEX" => -4, R, K1;
    "ZRANK" => -3, R, K1;
    "ZREVRANK" => -3, R, K1;
    "ZPOPMIN" => -2, W, K1;
    "ZPOPMAX" => -2, W, K1;
    "ZRANDMEMBER" => -2, R, K1;
    "ZREMRANGEBYRANK" => 4, W, K1;
    "ZREMRANGEBYSCORE" => 4, W, K1;
    "ZREMRANGEBYLEX" => 4, W, K1;
    "ZUNION" => -3, R, KeyRule::DestPlusNumkeys; // numkeys at 1, no dest
    "ZINTER" => -3, R, KeyRule::DestPlusNumkeys;
    "ZDIFF" => -3, R, KeyRule::DestPlusNumkeys;
    "ZUNIONSTORE" => -4, W, KeyRule::DestPlusNumkeys;
    "ZINTERSTORE" => -4, W, KeyRule::DestPlusNumkeys;
    "ZDIFFSTORE" => -4, W, KeyRule::DestPlusNumkeys;
    "ZSCAN" => -3, R, K1;
    // --- streams ---
    "XADD" => -5, W, K1;
    "XLEN" => 2, R, K1;
    "XRANGE" => -4, R, K1;
    "XREVRANGE" => -4, R, K1;
    "XDEL" => -3, W, K1;
    "XTRIM" => -4, W, K1;
    "XREAD" => -4, R, KeyRule::XRead;
    "XSETID" => -3, W, K1;
    "XGROUP" => -2, W, range(2, 2, 1);
    "XREADGROUP" => -7, W, KeyRule::XRead;
    "XACK" => -4, W, K1;
    "XPENDING" => -3, R, K1;
    "XCLAIM" => -6, W, K1;
    "XINFO" => -3, R, range(2, 2, 1);
    // --- hyperloglog ---
    "PFADD" => -2, W, K1;
    "PFCOUNT" => -2, R, KALL;
    "PFMERGE" => -2, W, KALL;
    // --- scripting (the deterministic DSL stand-in for Lua, §2.1) ---
    "EVAL" => -3, W, KeyRule::EvalStyle;
    "EVALSHA" => -3, W, KeyRule::EvalStyle;
    "SCRIPT" => -2, A, KeyRule::None;
    // --- transactions ---
    "MULTI" => 1, A, KeyRule::None;
    "EXEC" => 1, A, KeyRule::None;
    "DISCARD" => 1, A, KeyRule::None;
    "WATCH" => -2, R, KALL;
    "UNWATCH" => 1, A, KeyRule::None;
    // --- server / connection ---
    "PING" => -1, A, KeyRule::None;
    "ECHO" => 2, A, KeyRule::None;
    "SELECT" => 2, A, KeyRule::None;
    "TIME" => 1, A, KeyRule::None;
    "INFO" => -1, A, KeyRule::None;
    "COMMAND" => -1, A, KeyRule::None;
    "CLIENT" => -2, A, KeyRule::None;
    "CONFIG" => -2, A, KeyRule::None;
    "MEMORY" => -2, R, KeyRule::None;
    "DEBUG" => -2, A, KeyRule::None;
    "OBJECT" => -3, R, range(2, 2, 1);
    "CLUSTER" => -2, A, KeyRule::None;
    "WAIT" => 3, A, KeyRule::None;
    "READONLY" => 1, A, KeyRule::None;
    "READWRITE" => 1, A, KeyRule::None;
    "REPLCONF" => -1, A, KeyRule::None;
    "SLOWLOG" => -2, A, KeyRule::None;
    "LATENCY" => -2, A, KeyRule::None;
}

/// Validates argc against a spec's arity convention.
pub fn arity_ok(spec: &CommandSpec, argc: usize) -> bool {
    if spec.arity >= 0 {
        argc == spec.arity as usize
    } else {
        argc >= (-spec.arity) as usize
    }
}

/// Visits each key referenced by a command, per its [`KeyRule`], without
/// allocating. Returns the number of keys visited; `None` for unknown
/// commands or malformed key layouts (in which case `f` is never called —
/// layouts are validated before the first visit). The allocating
/// [`keys_for`] is implemented on top of this; hot paths that only need to
/// *look at* the keys (expiry reaping) call this
/// directly and skip the `Vec`.
pub fn for_each_key(args: &[Bytes], mut f: impl FnMut(&Bytes)) -> Option<usize> {
    if args.is_empty() {
        return None;
    }
    let name = CmdName::from_arg(args.first().map_or(&[][..], |a| a));
    let spec = command_spec(&name)?;
    let argc = args.len();
    let mut count = 0usize;
    match spec.keys {
        KeyRule::None => {}
        KeyRule::Range { first, last, step } => {
            if first >= argc {
                return Some(0);
            }
            let last = if last == 0 {
                argc - 1
            } else {
                last.min(argc - 1)
            };
            let mut i = first;
            while i <= last {
                if let Some(k) = args.get(i) {
                    f(k);
                    count += 1;
                }
                i += step;
            }
        }
        KeyRule::DestPlusNumkeys => {
            // Two layouts share this rule:
            //  ZUNIONSTORE dest numkeys k...   (dest at 1, numkeys at 2)
            //  SINTERCARD numkeys k...         (numkeys at 1)
            let (has_dest, nk_pos) =
                if matches!(name.as_str(), "SINTERCARD" | "ZUNION" | "ZINTER" | "ZDIFF") {
                    (false, 1)
                } else {
                    (true, 2)
                };
            let nk: usize = std::str::from_utf8(args.get(nk_pos)?).ok()?.parse().ok()?;
            // Validate the whole layout before the first visit.
            if nk > 0 {
                args.get(nk_pos + nk)?;
            }
            if has_dest {
                f(args.get(1)?);
                count += 1;
            }
            for i in 0..nk {
                f(args.get(nk_pos + 1 + i)?);
                count += 1;
            }
        }
        KeyRule::EvalStyle => {
            let nk: usize = std::str::from_utf8(args.get(2)?).ok()?.parse().ok()?;
            if nk > 0 {
                args.get(2 + nk)?;
            }
            for i in 0..nk {
                f(args.get(3 + i)?);
                count += 1;
            }
        }
        KeyRule::XRead => {
            let streams_pos = args
                .iter()
                .position(|a| a.eq_ignore_ascii_case(b"STREAMS"))?;
            let rest = argc - streams_pos - 1;
            if rest == 0 || !rest.is_multiple_of(2) {
                return None;
            }
            for k in args.get(streams_pos + 1..streams_pos + 1 + rest / 2)? {
                f(k);
                count += 1;
            }
        }
        KeyRule::Unsupported => return None,
    }
    Some(count)
}

/// Extracts the keys referenced by a command, per its [`KeyRule`].
///
/// Returns `None` for unknown commands or malformed key layouts; an empty
/// vec means "valid, but touches no keys".
pub fn keys_for(args: &[Bytes]) -> Option<Vec<Bytes>> {
    let mut keys: Vec<Bytes> = Vec::new();
    for_each_key(args, |k| keys.push(k.clone()))?;
    Some(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd;

    #[test]
    fn lookup_known_and_unknown() {
        assert!(command_spec("GET").is_some());
        assert!(command_spec("ZADD").is_some());
        assert!(command_spec("NOPE").is_none());
        // Lookup is by uppercase canonical name only.
        assert!(command_spec("get").is_none());
    }

    #[test]
    fn arity_rules() {
        let get = command_spec("GET").unwrap();
        assert!(arity_ok(get, 2));
        assert!(!arity_ok(get, 1));
        assert!(!arity_ok(get, 3));
        let set = command_spec("SET").unwrap();
        assert!(arity_ok(set, 3));
        assert!(arity_ok(set, 7));
        assert!(!arity_ok(set, 2));
    }

    #[test]
    fn flags_consistency() {
        for spec in all_commands() {
            // A command is write xor readonly xor admin.
            let kinds = spec.flags.write as u8 + spec.flags.readonly as u8 + spec.flags.admin as u8;
            assert_eq!(kinds, 1, "{} has inconsistent flags", spec.name);
        }
    }

    #[test]
    fn simple_key_extraction() {
        assert_eq!(keys_for(&cmd(["GET", "k"])).unwrap(), cmd(["k"]));
        assert_eq!(
            keys_for(&cmd(["DEL", "a", "b", "c"])).unwrap(),
            cmd(["a", "b", "c"])
        );
        assert_eq!(
            keys_for(&cmd(["MSET", "k1", "v1", "k2", "v2"])).unwrap(),
            cmd(["k1", "k2"])
        );
        assert_eq!(
            keys_for(&cmd(["RENAME", "old", "new"])).unwrap(),
            cmd(["old", "new"])
        );
        assert!(keys_for(&cmd(["PING"])).unwrap().is_empty());
        assert!(keys_for(&cmd(["NOSUCH", "x"])).is_none());
    }

    #[test]
    fn numkeys_extraction() {
        assert_eq!(
            keys_for(&cmd([
                "ZUNIONSTORE",
                "dest",
                "2",
                "a",
                "b",
                "WEIGHTS",
                "1",
                "2"
            ]))
            .unwrap(),
            cmd(["dest", "a", "b"])
        );
        assert_eq!(
            keys_for(&cmd(["SINTERCARD", "2", "a", "b"])).unwrap(),
            cmd(["a", "b"])
        );
        // numkeys pointing past the end is malformed.
        assert!(keys_for(&cmd(["ZUNIONSTORE", "dest", "5", "a"])).is_none());
    }

    #[test]
    fn eval_extraction() {
        assert_eq!(
            keys_for(&cmd(["EVAL", "script", "2", "k1", "k2", "arg"])).unwrap(),
            cmd(["k1", "k2"])
        );
        assert!(keys_for(&cmd(["EVAL", "script", "x"])).is_none());
    }

    #[test]
    fn xread_extraction() {
        assert_eq!(
            keys_for(&cmd([
                "XREAD", "COUNT", "5", "STREAMS", "s1", "s2", "0", "0"
            ]))
            .unwrap(),
            cmd(["s1", "s2"])
        );
        assert!(keys_for(&cmd(["XREAD", "STREAMS", "s1", "0", "0"])).is_none());
    }

    #[test]
    fn every_spec_self_describes() {
        for spec in all_commands() {
            assert_eq!(command_spec(spec.name), Some(spec));
            assert!(spec.arity != 0);
        }
        assert!(all_commands().len() > 120, "command surface too small");
    }
}
