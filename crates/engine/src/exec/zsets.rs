//! Sorted-set commands.

use super::*;
use crate::ds::zset::{LexBound, ScoreBound, ZSet};
use crate::value::Value;
use rand::seq::SliceRandom;
use rand::Rng;

fn read_zset<'a>(e: &'a Engine, key: &[u8]) -> Result<Option<&'a ZSet>, ExecOutcome> {
    match e.db.lookup(key, e.now()) {
        Some(Value::ZSet(z)) => Ok(Some(z)),
        Some(_) => Err(wrongtype()),
        None => Ok(None),
    }
}

fn zset_mut<'a>(e: &'a mut Engine, key: &Bytes) -> Result<&'a mut ZSet, ExecOutcome> {
    let now = e.now();
    if let Some(v) = e.db.lookup(key, now) {
        if !matches!(v, Value::ZSet(_)) {
            return Err(wrongtype());
        }
    }
    match e
        .db
        .entry_or_insert_with(key, now, || Value::ZSet(Box::default()))
    {
        Value::ZSet(z) => Ok(z),
        _ => Err(wrongtype()),
    }
}

fn parse_score_bound(arg: &[u8]) -> Result<ScoreBound, ExecOutcome> {
    let s =
        std::str::from_utf8(arg).map_err(|_| ExecOutcome::error("min or max is not a float"))?;
    match s {
        "-inf" | "-Inf" => return Ok(ScoreBound::NegInf),
        "+inf" | "inf" | "+Inf" | "Inf" => return Ok(ScoreBound::PosInf),
        _ => {}
    }
    if let Some(rest) = s.strip_prefix('(') {
        let v: f64 = rest
            .parse()
            .map_err(|_| ExecOutcome::error("min or max is not a float"))?;
        return Ok(ScoreBound::Excl(v));
    }
    let v: f64 = s
        .parse()
        .map_err(|_| ExecOutcome::error("min or max is not a float"))?;
    Ok(ScoreBound::Incl(v))
}

fn parse_lex_bound(arg: &[u8]) -> Result<LexBound, ExecOutcome> {
    match arg {
        b"-" => Ok(LexBound::NegInf),
        b"+" => Ok(LexBound::PosInf),
        _ if arg.starts_with(b"[") => Ok(LexBound::Incl(Bytes::copy_from_slice(&arg[1..]))),
        _ if arg.starts_with(b"(") => Ok(LexBound::Excl(Bytes::copy_from_slice(&arg[1..]))),
        _ => Err(ExecOutcome::error("min or max not valid string range item")),
    }
}

fn pairs_to_frames(pairs: Vec<(Bytes, f64)>, withscores: bool) -> Frame {
    let mut out = Vec::with_capacity(pairs.len() * if withscores { 2 } else { 1 });
    for (m, s) in pairs {
        out.push(Frame::Bulk(m));
        if withscores {
            out.push(Frame::Bulk(Bytes::from(fmt_f64(s))));
        }
    }
    Frame::Array(out)
}

/// `ZADD key [NX|XX] [GT|LT] [CH] [INCR] score member ...`
pub(super) fn zadd(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let mut nx = false;
    let mut xx = false;
    let mut gt = false;
    let mut lt = false;
    let mut ch = false;
    let mut incr = false;
    let mut i = 2;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "NX" => nx = true,
            "XX" => xx = true,
            "GT" => gt = true,
            "LT" => lt = true,
            "CH" => ch = true,
            "INCR" => incr = true,
            _ => break,
        }
        i += 1;
    }
    if nx && (xx || gt || lt) {
        return Err(ExecOutcome::error(
            "GT, LT, and/or NX options at the same time are not compatible",
        ));
    }
    let rest = &a[i..];
    if rest.is_empty() || !rest.len().is_multiple_of(2) {
        return Err(ExecOutcome::error("syntax error"));
    }
    if incr && rest.len() != 2 {
        return Err(ExecOutcome::error(
            "INCR option supports a single increment-element pair",
        ));
    }
    // Parse all scores up front so a bad score mutates nothing.
    let mut pairs: Vec<(f64, Bytes)> = Vec::with_capacity(rest.len() / 2);
    for chunk in rest.chunks(2) {
        pairs.push((p_f64(&chunk[0])?, chunk[1].clone()));
    }

    let key = a[1].clone();
    let z = zset_mut(e, &key)?;
    let mut added = 0i64;
    let mut changed = 0i64;
    let mut incr_result: Option<Option<f64>> = None;
    let mut applied: Vec<(f64, Bytes)> = Vec::new();
    for (score, member) in pairs {
        let existing = z.score(&member);
        let allowed = match existing {
            None => !xx,
            Some(old) => {
                !nx && match (gt, lt) {
                    (true, _) => {
                        if incr {
                            true
                        } else {
                            score > old
                        }
                    }
                    (_, true) => {
                        if incr {
                            true
                        } else {
                            score < old
                        }
                    }
                    _ => true,
                }
            }
        };
        if !allowed {
            if incr {
                incr_result = Some(None);
            }
            continue;
        }
        if incr {
            let old = existing.unwrap_or(0.0);
            let new = old + score;
            if new.is_nan() {
                return Err(ExecOutcome::error("resulting score is not a number (NaN)"));
            }
            // GT/LT with INCR: only apply if the result moves the right way.
            if (gt && existing.is_some() && new <= old) || (lt && existing.is_some() && new >= old)
            {
                incr_result = Some(None);
                continue;
            }
            z.insert(member.clone(), new);
            applied.push((new, member));
            incr_result = Some(Some(new));
            changed += 1;
            if existing.is_none() {
                added += 1;
            }
            continue;
        }
        match existing {
            None => {
                z.insert(member.clone(), score);
                applied.push((score, member));
                added += 1;
                changed += 1;
            }
            Some(old) if old != score => {
                z.insert(member.clone(), score);
                applied.push((score, member));
                changed += 1;
            }
            _ => {}
        }
    }
    let reply = if incr {
        match incr_result {
            Some(Some(v)) => Frame::Bulk(Bytes::from(fmt_f64(v))),
            _ => Frame::Null,
        }
    } else {
        Frame::Integer(if ch { changed } else { added })
    };
    if applied.is_empty() {
        e.db.remove_if_empty(&key);
        return Ok(ExecOutcome::read(reply));
    }
    e.db.signal_modified(&key);
    // Deterministic effect: plain ZADD of the realized (score, member)
    // pairs — conditions and INCR are already resolved.
    let mut eff: EffectCmd = vec![Bytes::from_static(b"ZADD"), key.clone()];
    for (s, m) in applied {
        eff.push(Bytes::from(fmt_f64(s)));
        eff.push(m);
    }
    Ok(effect_write(reply, vec![eff], vec![key]))
}

pub(super) fn zrem(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let key = a[1].clone();
    if read_zset(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let now = e.now();
    let Some(Value::ZSet(z)) = e.db.lookup_mut(&key, now) else {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    };
    let mut removed = 0i64;
    for m in &a[2..] {
        if z.remove(m).is_some() {
            removed += 1;
        }
    }
    if removed == 0 {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    e.db.signal_modified(&key);
    e.db.remove_if_empty(&key);
    Ok(verbatim_write(Frame::Integer(removed), a, vec![key]))
}

pub(super) fn zscore(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let v = read_zset(e, &a[1])?.and_then(|z| z.score(&a[2]));
    Ok(ExecOutcome::read(match v {
        Some(s) => Frame::Bulk(Bytes::from(fmt_f64(s))),
        None => Frame::Null,
    }))
}

pub(super) fn zmscore(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let z = read_zset(e, &a[1])?;
    let out = a[2..]
        .iter()
        .map(|m| match z.and_then(|z| z.score(m)) {
            Some(s) => Frame::Bulk(Bytes::from(fmt_f64(s))),
            None => Frame::Null,
        })
        .collect();
    Ok(ExecOutcome::read(Frame::Array(out)))
}

pub(super) fn zincrby(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let delta = p_f64(&a[2])?;
    let key = a[1].clone();
    let z = zset_mut(e, &key)?;
    let new = z.incr(a[3].clone(), delta);
    if new.is_nan() {
        z.remove(&a[3]);
        return Err(ExecOutcome::error("resulting score is not a number (NaN)"));
    }
    e.db.signal_modified(&key);
    // Effect rewrite: ZADD of the computed score.
    let eff = vec![
        Bytes::from_static(b"ZADD"),
        key.clone(),
        Bytes::from(fmt_f64(new)),
        a[3].clone(),
    ];
    Ok(effect_write(
        Frame::Bulk(Bytes::from(fmt_f64(new))),
        vec![eff],
        vec![key],
    ))
}

pub(super) fn zcard(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let n = read_zset(e, &a[1])?.map_or(0, |z| z.len());
    Ok(ExecOutcome::read(Frame::Integer(n as i64)))
}

pub(super) fn zcount(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let (min, max) = (parse_score_bound(&a[2])?, parse_score_bound(&a[3])?);
    let n = read_zset(e, &a[1])?.map_or(0, |z| z.count_by_score(&min, &max));
    Ok(ExecOutcome::read(Frame::Integer(n as i64)))
}

pub(super) fn zlexcount(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let (min, max) = (parse_lex_bound(&a[2])?, parse_lex_bound(&a[3])?);
    let n = read_zset(e, &a[1])?.map_or(0, |z| z.range_by_lex(&min, &max).len());
    Ok(ExecOutcome::read(Frame::Integer(n as i64)))
}

/// `ZRANGE key start stop [BYSCORE|BYLEX] [REV] [LIMIT off count] [WITHSCORES]`
pub(super) fn zrange(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let mut byscore = false;
    let mut bylex = false;
    let mut rev = false;
    let mut withscores = false;
    let mut limit: Option<(i64, i64)> = None;
    let mut i = 4;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "BYSCORE" => byscore = true,
            "BYLEX" => bylex = true,
            "REV" => rev = true,
            "WITHSCORES" => withscores = true,
            "LIMIT" => {
                let off = p_i64(
                    a.get(i + 1)
                        .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                )?;
                let cnt = p_i64(
                    a.get(i + 2)
                        .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                )?;
                limit = Some((off, cnt));
                i += 2;
            }
            _ => return Err(ExecOutcome::error("syntax error")),
        }
        i += 1;
    }
    if limit.is_some() && !byscore && !bylex {
        return Err(ExecOutcome::error(
            "syntax error, LIMIT is only supported in combination with either BYSCORE or BYLEX",
        ));
    }
    let Some(z) = read_zset(e, &a[1])? else {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    };
    let mut pairs: Vec<(Bytes, f64)> = if byscore {
        // In REV mode the bounds arrive as (max, min).
        let (lo, hi) = if rev { (&a[3], &a[2]) } else { (&a[2], &a[3]) };
        z.range_by_score(&parse_score_bound(lo)?, &parse_score_bound(hi)?)
    } else if bylex {
        let (lo, hi) = if rev { (&a[3], &a[2]) } else { (&a[2], &a[3]) };
        z.range_by_lex(&parse_lex_bound(lo)?, &parse_lex_bound(hi)?)
    } else {
        let (start, stop) = (p_i64(&a[2])?, p_i64(&a[3])?);
        let len = z.len() as i64;
        let norm = |v: i64| if v < 0 { (len + v).max(0) } else { v };
        let (s, t) = (norm(start), norm(stop).min(len - 1));
        if len == 0 || s > t || s >= len {
            Vec::new()
        } else {
            z.range_by_rank(s as usize, t as usize)
        }
    };
    if rev {
        pairs.reverse();
    }
    if let Some((off, cnt)) = limit {
        let off = off.max(0) as usize;
        pairs = if off >= pairs.len() {
            Vec::new()
        } else if cnt < 0 {
            pairs.split_off(off)
        } else {
            pairs.into_iter().skip(off).take(cnt as usize).collect()
        };
    }
    Ok(ExecOutcome::read(pairs_to_frames(pairs, withscores)))
}

pub(super) fn zrevrange(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let withscores = a.len() == 5 && upper(&a[4]) == "WITHSCORES";
    if a.len() > 5 || (a.len() == 5 && !withscores) {
        return Err(ExecOutcome::error("syntax error"));
    }
    let Some(z) = read_zset(e, &a[1])? else {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    };
    let (start, stop) = (p_i64(&a[2])?, p_i64(&a[3])?);
    let len = z.len() as i64;
    // Reverse-rank window [start, stop] maps to forward window
    // [len-1-stop, len-1-start].
    let norm = |v: i64| if v < 0 { (len + v).max(0) } else { v };
    let (s, t) = (norm(start), norm(stop).min(len - 1));
    if len == 0 || s > t || s >= len {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    }
    let (fs, ft) = ((len - 1 - t).max(0), len - 1 - s);
    let mut pairs = z.range_by_rank(fs as usize, ft as usize);
    pairs.reverse();
    Ok(ExecOutcome::read(pairs_to_frames(pairs, withscores)))
}

pub(super) fn zrangebyscore(e: &mut Engine, a: &[Bytes], rev: bool) -> CmdResult {
    let mut withscores = false;
    let mut limit: Option<(i64, i64)> = None;
    let mut i = 4;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "WITHSCORES" => withscores = true,
            "LIMIT" => {
                let off = p_i64(
                    a.get(i + 1)
                        .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                )?;
                let cnt = p_i64(
                    a.get(i + 2)
                        .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                )?;
                limit = Some((off, cnt));
                i += 2;
            }
            _ => return Err(ExecOutcome::error("syntax error")),
        }
        i += 1;
    }
    let Some(z) = read_zset(e, &a[1])? else {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    };
    let (lo, hi) = if rev { (&a[3], &a[2]) } else { (&a[2], &a[3]) };
    let mut pairs = z.range_by_score(&parse_score_bound(lo)?, &parse_score_bound(hi)?);
    if rev {
        pairs.reverse();
    }
    if let Some((off, cnt)) = limit {
        let off = off.max(0) as usize;
        pairs = if off >= pairs.len() {
            Vec::new()
        } else if cnt < 0 {
            pairs.split_off(off)
        } else {
            pairs.into_iter().skip(off).take(cnt as usize).collect()
        };
    }
    Ok(ExecOutcome::read(pairs_to_frames(pairs, withscores)))
}

pub(super) fn zrangebylex(e: &mut Engine, a: &[Bytes], rev: bool) -> CmdResult {
    let mut limit: Option<(i64, i64)> = None;
    if a.len() > 4 {
        if upper(&a[4]) != "LIMIT" || a.len() != 7 {
            return Err(ExecOutcome::error("syntax error"));
        }
        limit = Some((p_i64(&a[5])?, p_i64(&a[6])?));
    }
    let Some(z) = read_zset(e, &a[1])? else {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    };
    let (lo, hi) = if rev { (&a[3], &a[2]) } else { (&a[2], &a[3]) };
    let mut pairs = z.range_by_lex(&parse_lex_bound(lo)?, &parse_lex_bound(hi)?);
    if rev {
        pairs.reverse();
    }
    if let Some((off, cnt)) = limit {
        let off = off.max(0) as usize;
        pairs = if off >= pairs.len() {
            Vec::new()
        } else if cnt < 0 {
            pairs.split_off(off)
        } else {
            pairs.into_iter().skip(off).take(cnt as usize).collect()
        };
    }
    Ok(ExecOutcome::read(pairs_to_frames(pairs, false)))
}

pub(super) fn zrank(e: &mut Engine, a: &[Bytes], rev: bool) -> CmdResult {
    let withscore = a.len() == 4 && upper(&a[3]) == "WITHSCORE";
    if a.len() > 4 || (a.len() == 4 && !withscore) {
        return Err(ExecOutcome::error("syntax error"));
    }
    let Some(z) = read_zset(e, &a[1])? else {
        return Ok(ExecOutcome::read(Frame::Null));
    };
    let Some(rank) = z.rank(&a[2]) else {
        return Ok(ExecOutcome::read(Frame::Null));
    };
    let rank = if rev { z.len() - 1 - rank } else { rank } as i64;
    if withscore {
        // A ranked member always has a score; Null if it vanished anyway.
        let Some(score) = z.score(&a[2]) else {
            return Ok(ExecOutcome::read(Frame::Null));
        };
        Ok(ExecOutcome::read(Frame::Array(vec![
            Frame::Integer(rank),
            Frame::Bulk(Bytes::from(fmt_f64(score))),
        ])))
    } else {
        Ok(ExecOutcome::read(Frame::Integer(rank)))
    }
}

pub(super) fn zpop(e: &mut Engine, a: &[Bytes], min: bool) -> CmdResult {
    let count = if a.len() == 3 {
        let n = p_i64(&a[2])?;
        if n < 0 {
            return Err(ExecOutcome::error(
                "value is out of range, must be positive",
            ));
        }
        n as usize
    } else {
        1
    };
    let key = a[1].clone();
    if read_zset(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    }
    let now = e.now();
    let Some(Value::ZSet(z)) = e.db.lookup_mut(&key, now) else {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    };
    let popped = if min {
        z.pop_min(count)
    } else {
        z.pop_max(count)
    };
    if popped.is_empty() {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    }
    e.db.signal_modified(&key);
    e.db.remove_if_empty(&key);
    // Deterministic effect: explicit ZREM of the popped members.
    let mut eff: EffectCmd = vec![Bytes::from_static(b"ZREM"), key.clone()];
    eff.extend(popped.iter().map(|(m, _)| m.clone()));
    let mut out = Vec::with_capacity(popped.len() * 2);
    for (m, s) in popped {
        out.push(Frame::Bulk(m));
        out.push(Frame::Bulk(Bytes::from(fmt_f64(s))));
    }
    Ok(effect_write(Frame::Array(out), vec![eff], vec![key]))
}

pub(super) fn zrandmember(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let withscores = a.len() == 4 && upper(&a[3]) == "WITHSCORES";
    if a.len() > 4 || (a.len() == 4 && !withscores) {
        return Err(ExecOutcome::error("syntax error"));
    }
    let count = if a.len() >= 3 {
        Some(p_i64(&a[2])?)
    } else {
        None
    };
    let Some(z) = read_zset(e, &a[1])? else {
        return Ok(ExecOutcome::read(match count {
            Some(_) => Frame::Array(vec![]),
            None => Frame::Null,
        }));
    };
    let all: Vec<(Bytes, f64)> = z.iter().map(|(m, s)| (m.clone(), s)).collect();
    match count {
        None => {
            let idx = e.rng().gen_range(0..all.len());
            Ok(ExecOutcome::read(Frame::Bulk(all[idx].0.clone())))
        }
        Some(n) => {
            let chosen: Vec<(Bytes, f64)> = if n >= 0 {
                let mut pool = all;
                pool.shuffle(e.rng());
                pool.truncate(n as usize);
                pool
            } else {
                (0..n.unsigned_abs())
                    .map(|_| {
                        let idx = e.rng().gen_range(0..all.len());
                        all[idx].clone()
                    })
                    .collect()
            };
            let mut out = Vec::new();
            for (m, s) in chosen {
                out.push(Frame::Bulk(m));
                if withscores {
                    out.push(Frame::Bulk(Bytes::from(fmt_f64(s))));
                }
            }
            Ok(ExecOutcome::read(Frame::Array(out)))
        }
    }
}

pub(super) fn zremrangebyrank(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let (start, stop) = (p_i64(&a[2])?, p_i64(&a[3])?);
    let key = a[1].clone();
    if read_zset(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let now = e.now();
    let Some(Value::ZSet(z)) = e.db.lookup_mut(&key, now) else {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    };
    let len = z.len() as i64;
    let norm = |v: i64| if v < 0 { (len + v).max(0) } else { v };
    let (s, t) = (norm(start), norm(stop).min(len - 1));
    if len == 0 || s > t || s >= len {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let removed = z.remove_range_by_rank(s as usize, t as usize);
    remove_effect(e, a, key, removed)
}

pub(super) fn zremrangebyscore(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let (min, max) = (parse_score_bound(&a[2])?, parse_score_bound(&a[3])?);
    let key = a[1].clone();
    if read_zset(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let now = e.now();
    let Some(Value::ZSet(z)) = e.db.lookup_mut(&key, now) else {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    };
    let removed = z.remove_range_by_score(&min, &max);
    remove_effect(e, a, key, removed)
}

pub(super) fn zremrangebylex(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let (min, max) = (parse_lex_bound(&a[2])?, parse_lex_bound(&a[3])?);
    let key = a[1].clone();
    if read_zset(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let victims: Vec<Bytes> = {
        let Some(z) = read_zset(e, &key)? else {
            return Ok(ExecOutcome::read(Frame::Integer(0)));
        };
        z.range_by_lex(&min, &max)
            .into_iter()
            .map(|(m, _)| m)
            .collect()
    };
    let now = e.now();
    let mut removed = Vec::new();
    if let Some(Value::ZSet(z)) = e.db.lookup_mut(&key, now) {
        for m in victims {
            if let Some(s) = z.remove(&m) {
                removed.push((m, s));
            }
        }
    }
    remove_effect(e, a, key, removed)
}

/// Shared tail for ZREMRANGEBY*: signals, prunes, and emits a ZREM effect.
fn remove_effect(
    e: &mut Engine,
    _a: &[Bytes],
    key: Bytes,
    removed: Vec<(Bytes, f64)>,
) -> CmdResult {
    if removed.is_empty() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    e.db.signal_modified(&key);
    e.db.remove_if_empty(&key);
    let mut eff: EffectCmd = vec![Bytes::from_static(b"ZREM"), key.clone()];
    eff.extend(removed.iter().map(|(m, _)| m.clone()));
    Ok(effect_write(
        Frame::Integer(removed.len() as i64),
        vec![eff],
        vec![key],
    ))
}

/// Which aggregate operation a ZSTORE performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ZOp {
    /// Union with score aggregation.
    Union,
    /// Intersection with score aggregation.
    Inter,
    /// First minus the rest (scores from the first).
    Diff,
}

/// Parses the `[WEIGHTS w...] [AGGREGATE SUM|MIN|MAX] [WITHSCORES]` tail
/// shared by the Z-set algebra commands. Returns (weights, aggregate,
/// withscores).
fn parse_zop_tail(
    a: &[Bytes],
    mut i: usize,
    nk: usize,
    op: ZOp,
    allow_withscores: bool,
) -> Result<(Vec<f64>, String, bool), ExecOutcome> {
    let mut weights = vec![1.0f64; nk];
    let mut aggregate = "SUM".to_string();
    let mut withscores = false;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "WEIGHTS" => {
                if op == ZOp::Diff {
                    return Err(ExecOutcome::error("syntax error"));
                }
                if a.len() < i + 1 + nk {
                    return Err(ExecOutcome::error("syntax error"));
                }
                for (w, arg) in weights.iter_mut().zip(&a[i + 1..i + 1 + nk]) {
                    *w = p_f64(arg)?;
                }
                i += 1 + nk;
            }
            "AGGREGATE" => {
                if op == ZOp::Diff {
                    return Err(ExecOutcome::error("syntax error"));
                }
                aggregate = upper(
                    a.get(i + 1)
                        .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                );
                if !matches!(aggregate.as_str(), "SUM" | "MIN" | "MAX") {
                    return Err(ExecOutcome::error("syntax error"));
                }
                i += 2;
            }
            "WITHSCORES" if allow_withscores => {
                withscores = true;
                i += 1;
            }
            _ => return Err(ExecOutcome::error("syntax error")),
        }
    }
    Ok((weights, aggregate, withscores))
}

/// Loads the (zset-or-set) sources for a Z-set algebra command.
fn load_zop_sources(e: &Engine, keys: &[Bytes]) -> Result<Vec<Vec<(Bytes, f64)>>, ExecOutcome> {
    let mut sources = Vec::with_capacity(keys.len());
    for key in keys {
        let pairs = match e.db.lookup(key, e.now()) {
            Some(Value::ZSet(z)) => z.iter().map(|(m, s)| (m.clone(), s)).collect(),
            Some(Value::Set(s)) => s.iter().map(|m| (m.clone(), 1.0)).collect(),
            Some(_) => return Err(wrongtype()),
            None => Vec::new(),
        };
        sources.push(pairs);
    }
    Ok(sources)
}

/// The union/inter/diff aggregation shared by the read and STORE variants.
fn aggregate_zop(
    sources: &[Vec<(Bytes, f64)>],
    weights: &[f64],
    aggregate: &str,
    op: ZOp,
) -> std::collections::HashMap<Bytes, f64> {
    let mut acc: std::collections::HashMap<Bytes, f64> = std::collections::HashMap::new();
    match op {
        ZOp::Union => {
            for (idx, src) in sources.iter().enumerate() {
                for (m, s) in src {
                    let w = s * weights[idx];
                    acc.entry(m.clone())
                        .and_modify(|cur| {
                            *cur = match aggregate {
                                "MIN" => cur.min(w),
                                "MAX" => cur.max(w),
                                _ => *cur + w,
                            }
                        })
                        .or_insert(w);
                }
            }
        }
        ZOp::Inter => {
            if let Some(first) = sources.first() {
                'member: for (m, s0) in first {
                    let mut agg = s0 * weights[0];
                    for (idx, src) in sources.iter().enumerate().skip(1) {
                        match src.iter().find(|(mm, _)| mm == m) {
                            Some((_, s)) => {
                                let w = s * weights[idx];
                                agg = match aggregate {
                                    "MIN" => agg.min(w),
                                    "MAX" => agg.max(w),
                                    _ => agg + w,
                                };
                            }
                            None => continue 'member,
                        }
                    }
                    acc.insert(m.clone(), agg);
                }
            }
        }
        ZOp::Diff => {
            if let Some(first) = sources.first() {
                for (m, s) in first {
                    if !sources[1..]
                        .iter()
                        .any(|src| src.iter().any(|(mm, _)| mm == m))
                    {
                        acc.insert(m.clone(), *s);
                    }
                }
            }
        }
    }

    acc
}

/// `Z{UNION,INTER,DIFF}STORE dest numkeys key... [WEIGHTS ...] [AGGREGATE ...]`
pub(super) fn zstore(e: &mut Engine, a: &[Bytes], op: ZOp) -> CmdResult {
    let nk = p_i64(&a[2])?;
    if nk <= 0 {
        return Err(ExecOutcome::error(
            "at least 1 input key is needed for ZUNIONSTORE/ZINTERSTORE",
        ));
    }
    let nk = nk as usize;
    if a.len() < 3 + nk {
        return Err(ExecOutcome::error("syntax error"));
    }
    let (weights, aggregate, _) = parse_zop_tail(a, 3 + nk, nk, op, false)?;
    let sources = load_zop_sources(e, &a[3..3 + nk])?;
    let acc = aggregate_zop(&sources, &weights, &aggregate, op);

    let dest = a[1].clone();
    let n = acc.len() as i64;
    if acc.is_empty() {
        if e.db.exists(&dest, e.now()) {
            e.db.remove(&dest);
            let eff = vec![Bytes::from_static(b"DEL"), dest.clone()];
            return Ok(effect_write(Frame::Integer(0), vec![eff], vec![dest]));
        }
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let mut z = ZSet::new();
    // NaN can arise from inf + -inf with SUM; Redis stores 0 in that case.
    for (m, s) in acc {
        z.insert(m, if s.is_nan() { 0.0 } else { s });
    }
    // Deterministic effect: ZADD of the realized result (sorted for a
    // canonical stream), replacing the destination.
    let mut eff: EffectCmd = vec![Bytes::from_static(b"ZADD"), dest.clone()];
    for (m, s) in z.iter() {
        eff.push(Bytes::from(fmt_f64(s)));
        eff.push(m.clone());
    }
    let existed = e.db.exists(&dest, e.now());
    e.db.set_value(dest.clone(), Value::ZSet(Box::new(z)));
    let mut effects = Vec::new();
    if existed {
        effects.push(vec![Bytes::from_static(b"DEL"), dest.clone()]);
    }
    effects.push(eff);
    Ok(effect_write(Frame::Integer(n), effects, vec![dest]))
}

/// `Z{UNION,INTER,DIFF} numkeys key... [WEIGHTS ...] [AGGREGATE ...] [WITHSCORES]`
/// — the read-only variants (Redis 6.2+).
pub(super) fn zread_op(e: &mut Engine, a: &[Bytes], op: ZOp) -> CmdResult {
    let nk = p_i64(&a[1])?;
    if nk <= 0 {
        return Err(ExecOutcome::error("at least 1 input key is needed"));
    }
    let nk = nk as usize;
    if a.len() < 2 + nk {
        return Err(ExecOutcome::error("syntax error"));
    }
    let (weights, aggregate, withscores) = parse_zop_tail(a, 2 + nk, nk, op, true)?;
    let sources = load_zop_sources(e, &a[2..2 + nk])?;
    let acc = aggregate_zop(&sources, &weights, &aggregate, op);
    // Reply in (score, member) order like a materialized zset would be.
    let mut pairs: Vec<(Bytes, f64)> = acc
        .into_iter()
        .map(|(m, s)| (m, if s.is_nan() { 0.0 } else { s }))
        .collect();
    // NaN was normalized to 0.0 above; total_cmp agrees with partial_cmp
    // on every non-NaN pair and never panics.
    pairs.sort_by(|x, y| x.1.total_cmp(&y.1).then_with(|| x.0.cmp(&y.0)));
    Ok(ExecOutcome::read(pairs_to_frames(pairs, withscores)))
}

pub(super) fn zscan(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let _cursor = p_cursor(&a[2])?;
    let mut pattern: Option<Bytes> = None;
    let mut i = 3;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "MATCH" => {
                pattern = Some(
                    a.get(i + 1)
                        .ok_or_else(|| ExecOutcome::error("syntax error"))?
                        .clone(),
                );
                i += 2;
            }
            "COUNT" => i += 2,
            _ => return Err(ExecOutcome::error("syntax error")),
        }
    }
    let mut out = Vec::new();
    if let Some(z) = read_zset(e, &a[1])? {
        for (m, s) in z.iter() {
            if pattern
                .as_deref()
                .is_none_or(|p| crate::db::glob_match(p, m))
            {
                out.push(Frame::Bulk(m.clone()));
                out.push(Frame::Bulk(Bytes::from(fmt_f64(s))));
            }
        }
    }
    Ok(ExecOutcome::read(Frame::Array(vec![
        Frame::Bulk(Bytes::from_static(b"0")),
        Frame::Array(out),
    ])))
}
