//! A small deterministic scripting DSL — the reproduction's stand-in for
//! Redis Lua scripting (paper §2.1).
//!
//! What matters architecturally about Redis scripting for MemoryDB is not
//! the Lua language itself but the replication contract: **a script executes
//! atomically on the primary, and only its *effects* are replicated**, never
//! the script source — that is how non-deterministic scripts replicate
//! deterministically. This module reproduces that contract with a minimal
//! line-oriented language:
//!
//! ```text
//! LET cur = CALL GET $KEYS[1]          # run a command, bind its reply
//! IF ISNIL $cur THEN                   # conditionals on replies
//!   CALL SET $KEYS[1] $ARGV[1]
//! ELSE
//!   CALL APPEND $KEYS[1] $ARGV[1]
//! END
//! RETURN $cur                          # script reply (optional)
//! ```
//!
//! Statements: `CALL cmd args...`, `LET x = CALL ...`, `IF <cond> THEN ...
//! [ELSE ...] END`, `WHILE <cond> DO ... END` (bounded at 100k iterations,
//! like Redis's busy-script protection; conditions: `ISNIL v`, `NOTNIL v`,
//! `EQ a b`, `NE a b`), and `RETURN v`. Arguments may be literals (quoting as in redis-cli),
//! `$var`, `$KEYS[n]`, or `$ARGV[n]`. Lines starting with `#` are comments.
//!
//! The effects of every inner `CALL` are concatenated into one atomic batch;
//! MemoryDB's core commits that batch as a single transaction-log record.

use crate::effects::{DirtySet, EffectCmd, ExecOutcome};
use crate::exec::{CmdResult, Engine, SessionState};
use bytes::Bytes;
use memorydb_resp::Frame;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// SHA-1 (for the script cache: SCRIPT LOAD / EVALSHA). From scratch; used
// only as a content address, exactly like Redis uses it.
// ---------------------------------------------------------------------------

/// Computes the SHA-1 digest of `data` as a lowercase hex string.
pub fn sha1_hex(data: &[u8]) -> String {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let ml = (data.len() as u64) * 8;
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&ml.to_be_bytes());
    for chunk in msg.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

/// `SCRIPT LOAD src | EXISTS sha... | FLUSH`
pub(crate) fn script_cmd(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    match crate::exec::upper(&a[1]).as_str() {
        "LOAD" => {
            let src = a.get(2).ok_or_else(|| {
                ExecOutcome::error("wrong number of arguments for 'script|load' command")
            })?;
            // Validate eagerly like Redis: a broken script never enters the
            // cache.
            let text = String::from_utf8_lossy(src).to_string();
            parse(&text).map_err(|msg| ExecOutcome::error(format!("script parse error: {msg}")))?;
            let sha = sha1_hex(src);
            e.script_cache_mut().insert(sha.clone(), src.clone());
            Ok(ExecOutcome::read(Frame::Bulk(Bytes::from(sha))))
        }
        "EXISTS" => {
            let out = a[2..]
                .iter()
                .map(|sha| {
                    let key = String::from_utf8_lossy(sha).to_lowercase();
                    Frame::Integer(e.script_cache_mut().contains_key(&key) as i64)
                })
                .collect();
            Ok(ExecOutcome::read(Frame::Array(out)))
        }
        "FLUSH" => {
            e.script_cache_mut().clear();
            Ok(ExecOutcome::read(Frame::ok()))
        }
        sub => Err(ExecOutcome::error(format!(
            "Unknown SCRIPT subcommand '{sub}'"
        ))),
    }
}

/// `EVALSHA sha numkeys key... arg...`
pub(crate) fn evalsha(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let sha = String::from_utf8_lossy(&a[1]).to_lowercase();
    let Some(src) = e.script_cache_mut().get(&sha).cloned() else {
        return Err(ExecOutcome::read(Frame::Error(
            "NOSCRIPT No matching script. Please use EVAL.".into(),
        )));
    };
    let mut args = a.to_vec();
    args[0] = Bytes::from_static(b"EVAL");
    args[1] = src;
    eval(e, &args)
}

/// `EVAL script numkeys key... arg...`
pub(crate) fn eval(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let src = String::from_utf8_lossy(&a[1]).to_string();
    let nk: usize = std::str::from_utf8(&a[2])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ExecOutcome::error("value is not an integer or out of range"))?;
    if a.len() < 3 + nk {
        return Err(ExecOutcome::error(
            "Number of keys can't be greater than number of args",
        ));
    }
    let keys: Vec<Bytes> = a[3..3 + nk].to_vec();
    let argv: Vec<Bytes> = a[3 + nk..].to_vec();

    let program =
        parse(&src).map_err(|msg| ExecOutcome::error(format!("script parse error: {msg}")))?;
    let mut interp = Interp {
        engine: e,
        vars: HashMap::new(),
        keys,
        argv,
        effects: Vec::new(),
        dirty: DirtySet::None,
    };
    let ret = interp
        .run_block(&program)
        .map_err(|msg| ExecOutcome::error(format!("script runtime error: {msg}")))?;
    let reply = match ret {
        Flow::Return(frame) => frame,
        Flow::Done => Frame::Null,
    };
    let effects = interp.effects;
    let dirty = interp.dirty;
    if effects.is_empty() {
        Ok(ExecOutcome::read(reply))
    } else {
        Ok(ExecOutcome::write(reply, effects, dirty))
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Arg {
    Literal(Bytes),
    Var(String),
    Key(usize),
    Argv(usize),
}

#[derive(Debug, Clone, PartialEq)]
enum Cond {
    IsNil(Arg),
    NotNil(Arg),
    Eq(Arg, Arg),
    Ne(Arg, Arg),
}

#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    Call {
        bind: Option<String>,
        args: Vec<Arg>,
    },
    If {
        cond: Cond,
        then_block: Vec<Stmt>,
        else_block: Vec<Stmt>,
    },
    While {
        cond: Cond,
        body: Vec<Stmt>,
    },
    Return(Arg),
}

fn parse_arg(tok: &Bytes) -> Result<Arg, String> {
    let s = String::from_utf8_lossy(tok);
    if let Some(rest) = s.strip_prefix('$') {
        if let Some(idx) = rest.strip_prefix("KEYS[").and_then(|r| r.strip_suffix(']')) {
            let n: usize = idx.parse().map_err(|_| format!("bad KEYS index {idx:?}"))?;
            if n == 0 {
                return Err("KEYS index is 1-based".into());
            }
            return Ok(Arg::Key(n - 1));
        }
        if let Some(idx) = rest.strip_prefix("ARGV[").and_then(|r| r.strip_suffix(']')) {
            let n: usize = idx.parse().map_err(|_| format!("bad ARGV index {idx:?}"))?;
            if n == 0 {
                return Err("ARGV index is 1-based".into());
            }
            return Ok(Arg::Argv(n - 1));
        }
        if rest.is_empty() {
            return Err("empty variable name".into());
        }
        return Ok(Arg::Var(rest.to_string()));
    }
    Ok(Arg::Literal(tok.clone()))
}

fn parse_cond(toks: &[Bytes]) -> Result<Cond, String> {
    let op = String::from_utf8_lossy(&toks[0]).to_ascii_uppercase();
    match op.as_str() {
        "ISNIL" if toks.len() == 2 => Ok(Cond::IsNil(parse_arg(&toks[1])?)),
        "NOTNIL" if toks.len() == 2 => Ok(Cond::NotNil(parse_arg(&toks[1])?)),
        "EQ" if toks.len() == 3 => Ok(Cond::Eq(parse_arg(&toks[1])?, parse_arg(&toks[2])?)),
        "NE" if toks.len() == 3 => Ok(Cond::Ne(parse_arg(&toks[1])?, parse_arg(&toks[2])?)),
        _ => Err(format!("bad condition starting with {op:?}")),
    }
}

fn parse(src: &str) -> Result<Vec<Stmt>, String> {
    let mut lines: Vec<Vec<Bytes>> = Vec::new();
    for (no, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks = memorydb_resp::tokenize(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        if !toks.is_empty() {
            lines.push(toks);
        }
    }
    let mut pos = 0;
    let block = parse_block(&lines, &mut pos, false)?;
    if pos != lines.len() {
        return Err("unexpected END or ELSE outside IF".into());
    }
    Ok(block)
}

fn parse_block(
    lines: &[Vec<Bytes>],
    pos: &mut usize,
    inside_if: bool,
) -> Result<Vec<Stmt>, String> {
    let mut out = Vec::new();
    while *pos < lines.len() {
        let toks = &lines[*pos];
        let head = String::from_utf8_lossy(&toks[0]).to_ascii_uppercase();
        match head.as_str() {
            "END" | "ELSE" if inside_if => return Ok(out),
            "END" | "ELSE" => return Err(format!("{head} outside IF")),
            "CALL" => {
                if toks.len() < 2 {
                    return Err("CALL needs a command".into());
                }
                let args = toks[1..]
                    .iter()
                    .map(parse_arg)
                    .collect::<Result<Vec<_>, _>>()?;
                out.push(Stmt::Call { bind: None, args });
                *pos += 1;
            }
            "LET" => {
                // LET name = CALL cmd args...
                if toks.len() < 5
                    || toks[2].as_ref() != b"="
                    || !toks[3].eq_ignore_ascii_case(b"CALL")
                {
                    return Err("LET syntax: LET name = CALL cmd args...".into());
                }
                let name = String::from_utf8_lossy(&toks[1]).to_string();
                let args = toks[4..]
                    .iter()
                    .map(parse_arg)
                    .collect::<Result<Vec<_>, _>>()?;
                out.push(Stmt::Call {
                    bind: Some(name),
                    args,
                });
                *pos += 1;
            }
            "IF" => {
                if toks.len() < 3 || !toks[toks.len() - 1].eq_ignore_ascii_case(b"THEN") {
                    return Err("IF syntax: IF <cond> THEN".into());
                }
                let cond = parse_cond(&toks[1..toks.len() - 1])?;
                *pos += 1;
                let then_block = parse_block(lines, pos, true)?;
                let mut else_block = Vec::new();
                if *pos < lines.len() && lines[*pos][0].eq_ignore_ascii_case(b"ELSE") {
                    *pos += 1;
                    else_block = parse_block(lines, pos, true)?;
                }
                if *pos >= lines.len() || !lines[*pos][0].eq_ignore_ascii_case(b"END") {
                    return Err("IF missing END".into());
                }
                *pos += 1;
                out.push(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                });
            }
            "WHILE" => {
                if toks.len() < 3 || !toks[toks.len() - 1].eq_ignore_ascii_case(b"DO") {
                    return Err("WHILE syntax: WHILE <cond> DO".into());
                }
                let cond = parse_cond(&toks[1..toks.len() - 1])?;
                *pos += 1;
                let body = parse_block(lines, pos, true)?;
                if *pos >= lines.len() || !lines[*pos][0].eq_ignore_ascii_case(b"END") {
                    return Err("WHILE missing END".into());
                }
                *pos += 1;
                out.push(Stmt::While { cond, body });
            }
            "RETURN" => {
                if toks.len() != 2 {
                    return Err("RETURN takes exactly one value".into());
                }
                out.push(Stmt::Return(parse_arg(&toks[1])?));
                *pos += 1;
            }
            other => return Err(format!("unknown statement {other:?}")),
        }
    }
    if inside_if {
        return Err("IF missing END".into());
    }
    Ok(out)
}

enum Flow {
    Done,
    Return(Frame),
}

struct Interp<'a> {
    engine: &'a mut Engine,
    vars: HashMap<String, Frame>,
    keys: Vec<Bytes>,
    argv: Vec<Bytes>,
    effects: Vec<EffectCmd>,
    dirty: DirtySet,
}

impl<'a> Interp<'a> {
    fn resolve(&self, arg: &Arg) -> Result<Frame, String> {
        match arg {
            Arg::Literal(b) => Ok(Frame::Bulk(b.clone())),
            Arg::Var(name) => self
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| format!("undefined variable ${name}")),
            Arg::Key(i) => self
                .keys
                .get(*i)
                .map(|k| Frame::Bulk(k.clone()))
                .ok_or_else(|| format!("KEYS[{}] out of range", i + 1)),
            Arg::Argv(i) => self
                .argv
                .get(*i)
                .map(|k| Frame::Bulk(k.clone()))
                .ok_or_else(|| format!("ARGV[{}] out of range", i + 1)),
        }
    }

    fn to_bytes(frame: &Frame) -> Result<Bytes, String> {
        match frame {
            Frame::Bulk(b) => Ok(b.clone()),
            Frame::Simple(s) => Ok(Bytes::from(s.clone())),
            Frame::Integer(i) => Ok(Bytes::from(i.to_string())),
            Frame::Double(d) => Ok(Bytes::from(format!("{d}"))),
            Frame::Null => Err("cannot pass nil as a command argument".into()),
            other => Err(format!("cannot pass {other:?} as a command argument")),
        }
    }

    fn truthy_nil(&self, arg: &Arg) -> Result<bool, String> {
        Ok(matches!(self.resolve(arg)?, Frame::Null))
    }

    fn eval_cond(&self, cond: &Cond) -> Result<bool, String> {
        match cond {
            Cond::IsNil(a) => self.truthy_nil(a),
            Cond::NotNil(a) => Ok(!self.truthy_nil(a)?),
            Cond::Eq(a, b) | Cond::Ne(a, b) => {
                let (fa, fb) = (self.resolve(a)?, self.resolve(b)?);
                let eq = match (&fa, &fb) {
                    (Frame::Null, Frame::Null) => true,
                    (Frame::Null, _) | (_, Frame::Null) => false,
                    _ => Self::to_bytes(&fa)? == Self::to_bytes(&fb)?,
                };
                Ok(if matches!(cond, Cond::Eq(..)) {
                    eq
                } else {
                    !eq
                })
            }
        }
    }

    fn run_block(&mut self, block: &[Stmt]) -> Result<Flow, String> {
        for stmt in block {
            match stmt {
                Stmt::Call { bind, args } => {
                    let mut cmd: EffectCmd = Vec::with_capacity(args.len());
                    for a in args {
                        cmd.push(Self::to_bytes(&self.resolve(a)?)?);
                    }
                    // Scripts may not nest: EVAL/MULTI inside a script are
                    // rejected (matching Redis).
                    let name = String::from_utf8_lossy(&cmd[0]).to_ascii_uppercase();
                    if matches!(
                        name.as_str(),
                        "EVAL" | "MULTI" | "EXEC" | "DISCARD" | "WATCH"
                    ) {
                        return Err(format!("{name} is not allowed inside a script"));
                    }
                    let outcome = self.engine.execute(&mut SessionState::new(), &cmd);
                    if let Frame::Error(msg) = &outcome.reply {
                        return Err(msg.to_string());
                    }
                    self.effects.extend(outcome.effects);
                    self.dirty.merge(outcome.dirty);
                    if let Some(name) = bind {
                        self.vars.insert(name.clone(), outcome.reply);
                    }
                }
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let flow = if self.eval_cond(cond)? {
                        self.run_block(then_block)?
                    } else {
                        self.run_block(else_block)?
                    };
                    if let Flow::Return(f) = flow {
                        return Ok(Flow::Return(f));
                    }
                }
                Stmt::While { cond, body } => {
                    // Turing-complete, but a runaway loop must not wedge the
                    // single-threaded engine: hard iteration cap, like
                    // Redis's busy-script protection.
                    const MAX_ITERATIONS: u32 = 100_000;
                    let mut iterations = 0u32;
                    while self.eval_cond(cond)? {
                        iterations += 1;
                        if iterations > MAX_ITERATIONS {
                            return Err(format!(
                                "script loop exceeded {MAX_ITERATIONS} iterations"
                            ));
                        }
                        if let Flow::Return(f) = self.run_block(body)? {
                            return Ok(Flow::Return(f));
                        }
                    }
                }
                Stmt::Return(arg) => return Ok(Flow::Return(self.resolve(arg)?)),
            }
        }
        Ok(Flow::Done)
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::{Engine, Role, SessionState};
    use crate::{cmd, Frame};
    use bytes::Bytes;

    fn eval_script(
        e: &mut Engine,
        script: &str,
        keys: &[&str],
        argv: &[&str],
    ) -> crate::ExecOutcome {
        let mut args = vec![
            Bytes::from_static(b"EVAL"),
            Bytes::from(script.to_string()),
            Bytes::from(keys.len().to_string()),
        ];
        args.extend(keys.iter().map(|k| Bytes::from(k.to_string())));
        args.extend(argv.iter().map(|v| Bytes::from(v.to_string())));
        let mut s = SessionState::new();
        e.execute(&mut s, &args)
    }

    #[test]
    fn simple_call_and_return() {
        let mut e = Engine::new(Role::Primary);
        let out = eval_script(
            &mut e,
            "CALL SET $KEYS[1] $ARGV[1]\nLET v = CALL GET $KEYS[1]\nRETURN $v",
            &["k"],
            &["hello"],
        );
        assert_eq!(out.reply, Frame::Bulk(Bytes::from_static(b"hello")));
        assert_eq!(out.effects.len(), 1);
        assert_eq!(out.effects[0], cmd(["SET", "k", "hello"]));
    }

    #[test]
    fn conditional_set_if_absent() {
        let script = "LET cur = CALL GET $KEYS[1]\n\
                      IF ISNIL $cur THEN\n\
                        CALL SET $KEYS[1] $ARGV[1]\n\
                        RETURN 1\n\
                      ELSE\n\
                        RETURN 0\n\
                      END";
        let mut e = Engine::new(Role::Primary);
        let out = eval_script(&mut e, script, &["k"], &["v1"]);
        assert_eq!(out.reply, Frame::Bulk(Bytes::from_static(b"1")));
        assert_eq!(out.effects.len(), 1);
        // Second run takes the ELSE branch and produces no effects.
        let out2 = eval_script(&mut e, script, &["k"], &["v2"]);
        assert_eq!(out2.reply, Frame::Bulk(Bytes::from_static(b"0")));
        assert!(out2.effects.is_empty());
    }

    #[test]
    fn script_effects_replay_identically() {
        // A script using SPOP (non-deterministic) must replicate via its
        // effects — the replica applying them reaches the same state.
        let script = "CALL SADD $KEYS[1] a b c d\nLET p = CALL SPOP $KEYS[1]\nRETURN $p";
        let mut primary = Engine::new(Role::Primary);
        let out = eval_script(&mut primary, script, &["s"], &[]);
        assert!(!out.effects.is_empty());
        let mut replica = Engine::new(Role::Replica);
        for eff in &out.effects {
            replica.apply_effect(eff).unwrap();
        }
        let mut s1 = SessionState::new();
        let mut s2 = SessionState::new();
        let m1 = primary.execute(&mut s1, &cmd(["SMEMBERS", "s"]));
        let m2 = replica.execute(&mut s2, &cmd(["SMEMBERS", "s"]));
        assert_eq!(m1.reply, m2.reply);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut e = Engine::new(Role::Primary);
        let out = eval_script(&mut e, "# comment\n\nRETURN ok\n", &[], &[]);
        assert_eq!(out.reply, Frame::Bulk(Bytes::from_static(b"ok")));
    }

    #[test]
    fn parse_errors_reported() {
        let mut e = Engine::new(Role::Primary);
        for bad in [
            "FROB x",
            "IF ISNIL $x THEN", // missing END
            "LET x CALL GET k", // missing =
            "END",
            "IF BADCOND THEN\nEND",
            "RETURN", // missing value
        ] {
            let out = eval_script(&mut e, bad, &[], &[]);
            assert!(out.reply.is_error(), "expected parse error for {bad:?}");
        }
    }

    #[test]
    fn runtime_errors_reported() {
        let mut e = Engine::new(Role::Primary);
        // Undefined variable.
        let out = eval_script(&mut e, "RETURN $nope", &[], &[]);
        assert!(out.reply.is_error());
        // KEYS index out of range.
        let out = eval_script(&mut e, "CALL GET $KEYS[1]", &[], &[]);
        assert!(out.reply.is_error());
        // Inner command error propagates.
        let mut e2 = Engine::new(Role::Primary);
        let mut s = SessionState::new();
        e2.execute(&mut s, &cmd(["LPUSH", "l", "x"]));
        let out = eval_script(&mut e2, "CALL GET l", &[], &[]);
        assert!(out.reply.is_error());
    }

    #[test]
    fn nested_scripts_rejected() {
        let mut e = Engine::new(Role::Primary);
        let out = eval_script(&mut e, "CALL EVAL \"RETURN 1\" 0", &[], &[]);
        assert!(out.reply.is_error());
    }

    #[test]
    fn eq_and_ne_conditions() {
        let script = "IF EQ $ARGV[1] $ARGV[2] THEN\nRETURN same\nELSE\nRETURN diff\nEND";
        let mut e = Engine::new(Role::Primary);
        assert_eq!(
            eval_script(&mut e, script, &[], &["a", "a"]).reply,
            Frame::Bulk(Bytes::from_static(b"same"))
        );
        assert_eq!(
            eval_script(&mut e, script, &[], &["a", "b"]).reply,
            Frame::Bulk(Bytes::from_static(b"diff"))
        );
        let ne = "IF NE $ARGV[1] $ARGV[2] THEN\nRETURN 1\nELSE\nRETURN 0\nEND";
        assert_eq!(
            eval_script(&mut e, ne, &[], &["a", "b"]).reply,
            Frame::Bulk(Bytes::from_static(b"1"))
        );
    }
}

#[cfg(test)]
mod sha_and_cache_tests {
    use super::*;
    use crate::cmd;
    use crate::exec::{Role, SessionState};

    #[test]
    fn sha1_known_vectors() {
        // FIPS-180 test vectors.
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkjklmklmnlmnomnopnopq"),
            "971f89a34572bcff6dc9038d36e27711275f593e"
        );
    }

    #[test]
    fn script_load_exists_evalsha_flush() {
        let mut e = Engine::new(Role::Primary);
        let mut s = SessionState::new();
        let script = "CALL SET $KEYS[1] $ARGV[1]\nRETURN ok";
        let out = e.execute(&mut s, &cmd(["SCRIPT", "LOAD", script]));
        let Frame::Bulk(sha) = out.reply else {
            panic!("expected sha, got {:?}", out.reply)
        };
        let sha = String::from_utf8_lossy(&sha).to_string();
        assert_eq!(sha, sha1_hex(script.as_bytes()));
        // EXISTS sees it (case-insensitively).
        let out = e.execute(
            &mut s,
            &cmd(["SCRIPT", "EXISTS", &sha.to_uppercase(), "deadbeef"]),
        );
        assert_eq!(
            out.reply,
            Frame::Array(vec![Frame::Integer(1), Frame::Integer(0)])
        );
        // EVALSHA runs it with effects.
        let out = e.execute(&mut s, &cmd(["EVALSHA", &sha, "1", "k", "v1"]));
        assert_eq!(out.reply, Frame::Bulk(Bytes::from_static(b"ok")));
        assert_eq!(out.effects, vec![cmd(["SET", "k", "v1"])]);
        assert_eq!(
            e.execute(&mut s, &cmd(["GET", "k"])).reply,
            Frame::Bulk(Bytes::from_static(b"v1"))
        );
        // Unknown sha → NOSCRIPT; after FLUSH the loaded one is gone too.
        let out = e.execute(
            &mut s,
            &cmd(["EVALSHA", "0000000000000000000000000000000000000000", "0"]),
        );
        match out.reply {
            Frame::Error(msg) => assert!(msg.starts_with("NOSCRIPT"), "{msg}"),
            other => panic!("expected NOSCRIPT, got {other:?}"),
        }
        e.execute(&mut s, &cmd(["SCRIPT", "FLUSH"]));
        let out = e.execute(&mut s, &cmd(["EVALSHA", &sha, "1", "k", "v2"]));
        assert!(out.reply.is_error());
    }

    #[test]
    fn script_load_rejects_broken_scripts() {
        let mut e = Engine::new(Role::Primary);
        let mut s = SessionState::new();
        let out = e.execute(&mut s, &cmd(["SCRIPT", "LOAD", "NOT A STATEMENT"]));
        assert!(out.reply.is_error());
        // Nothing entered the cache.
        let sha = sha1_hex(b"NOT A STATEMENT");
        let out = e.execute(&mut s, &cmd(["SCRIPT", "EXISTS", &sha]));
        assert_eq!(out.reply, Frame::Array(vec![Frame::Integer(0)]));
    }
}

#[cfg(test)]
mod while_tests {
    use crate::exec::{Engine, Role, SessionState};
    use crate::{cmd, Frame};
    use bytes::Bytes;

    fn eval(e: &mut Engine, script: &str, keys: &[&str], argv: &[&str]) -> crate::ExecOutcome {
        let mut args = vec![
            Bytes::from_static(b"EVAL"),
            Bytes::from(script.to_string()),
            Bytes::from(keys.len().to_string()),
        ];
        args.extend(keys.iter().map(|k| Bytes::from(k.to_string())));
        args.extend(argv.iter().map(|v| Bytes::from(v.to_string())));
        let mut s = SessionState::new();
        e.execute(&mut s, &args)
    }

    #[test]
    fn while_loop_drains_a_list() {
        let mut e = Engine::new(Role::Primary);
        let mut s = SessionState::new();
        e.execute(&mut s, &cmd(["RPUSH", "q", "a", "b", "c", "d"]));
        // Pop until empty, counting into a key — all atomic, replicated by
        // the realized effects.
        let script = "LET item = CALL LPOP $KEYS[1]\n\
                      WHILE NOTNIL $item DO\n\
                        CALL INCR $KEYS[2]\n\
                        LET item = CALL LPOP $KEYS[1]\n\
                      END\n\
                      LET n = CALL GET $KEYS[2]\n\
                      RETURN $n";
        let out = eval(&mut e, script, &["q", "count"], &[]);
        assert_eq!(out.reply, Frame::Bulk(Bytes::from_static(b"4")));
        // Replay on a replica converges.
        let mut replica = Engine::new(Role::Replica);
        replica
            .apply_effect(&cmd(["RPUSH", "q", "a", "b", "c", "d"]))
            .unwrap();
        for eff in &out.effects {
            replica.apply_effect(eff).unwrap();
        }
        assert_eq!(crate::rdb::dump(&e.db), crate::rdb::dump(&replica.db));
    }

    #[test]
    fn runaway_loop_is_capped() {
        let mut e = Engine::new(Role::Primary);
        let script = "CALL SET x 1\nWHILE NOTNIL $KEYS[1] DO\nCALL INCR spin\nEND";
        let out = eval(&mut e, script, &["k"], &[]);
        match out.reply {
            Frame::Error(msg) => assert!(msg.contains("iterations"), "{msg}"),
            other => panic!("expected loop-cap error, got {other:?}"),
        }
    }

    #[test]
    fn while_parse_errors() {
        let mut e = Engine::new(Role::Primary);
        for bad in ["WHILE ISNIL $x DO", "WHILE ISNIL $x\nEND", "WHILE DO\nEND"] {
            let out = eval(&mut e, bad, &[], &[]);
            assert!(out.reply.is_error(), "{bad:?} should fail to parse");
        }
    }
}
