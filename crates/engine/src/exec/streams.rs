//! Stream commands.
//!
//! `XADD key * ...` is non-deterministic (the id comes from the primary's
//! clock); its effect carries the concrete assigned id so replicas append
//! exactly the same entry (paper §2.1).

use super::*;
use crate::ds::stream::{Stream, StreamAddError, StreamEntry, StreamId};
use crate::value::Value;

fn read_stream<'a>(e: &'a Engine, key: &[u8]) -> Result<Option<&'a Stream>, ExecOutcome> {
    match e.db.lookup(key, e.now()) {
        Some(Value::Stream(s)) => Ok(Some(s)),
        Some(_) => Err(wrongtype()),
        None => Ok(None),
    }
}

fn stream_mut<'a>(e: &'a mut Engine, key: &Bytes) -> Result<&'a mut Stream, ExecOutcome> {
    let now = e.now();
    if let Some(v) = e.db.lookup(key, now) {
        if !matches!(v, Value::Stream(_)) {
            return Err(wrongtype());
        }
    }
    match e
        .db
        .entry_or_insert_with(key, now, || Value::Stream(Box::default()))
    {
        Value::Stream(s) => Ok(s),
        _ => Err(wrongtype()),
    }
}

fn parse_id(arg: &[u8], default_seq: u64) -> Result<StreamId, ExecOutcome> {
    let s = std::str::from_utf8(arg).map_err(|_| {
        ExecOutcome::error("Invalid stream ID specified as stream command argument")
    })?;
    if let Some((ms, seq)) = s.split_once('-') {
        let ms = ms.parse().map_err(|_| {
            ExecOutcome::error("Invalid stream ID specified as stream command argument")
        })?;
        let seq = seq.parse().map_err(|_| {
            ExecOutcome::error("Invalid stream ID specified as stream command argument")
        })?;
        Ok(StreamId { ms, seq })
    } else {
        let ms = s.parse().map_err(|_| {
            ExecOutcome::error("Invalid stream ID specified as stream command argument")
        })?;
        Ok(StreamId {
            ms,
            seq: default_seq,
        })
    }
}

fn entry_frame(id: StreamId, entry: &StreamEntry) -> Frame {
    let mut fields = Vec::with_capacity(entry.len() * 2);
    for (f, v) in entry {
        fields.push(Frame::Bulk(f.clone()));
        fields.push(Frame::Bulk(v.clone()));
    }
    Frame::Array(vec![
        Frame::Bulk(Bytes::from(id.to_string())),
        Frame::Array(fields),
    ])
}

/// `XADD key [NOMKSTREAM] [MAXLEN|MINID [=|~] n] <id|*> field value ...`
pub(super) fn xadd(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let key = a[1].clone();
    let mut i = 2;
    let mut nomkstream = false;
    let mut maxlen: Option<usize> = None;
    let mut minid: Option<StreamId> = None;
    loop {
        let Some(arg) = a.get(i) else {
            return Err(wrong_arity("xadd"));
        };
        match upper(arg).as_str() {
            "NOMKSTREAM" => {
                nomkstream = true;
                i += 1;
            }
            "MAXLEN" | "MINID" => {
                let which = upper(arg);
                let mut j = i + 1;
                // Optional exactness marker (= or ~) — both treated exactly.
                if matches!(a.get(j).map(|x| x.as_ref()), Some(b"=") | Some(b"~")) {
                    j += 1;
                }
                let val = a.get(j).ok_or_else(|| ExecOutcome::error("syntax error"))?;
                if which == "MAXLEN" {
                    let n = p_i64(val)?;
                    if n < 0 {
                        return Err(ExecOutcome::error("MAXLEN can't be negative"));
                    }
                    maxlen = Some(n as usize);
                } else {
                    minid = Some(parse_id(val, 0)?);
                }
                i = j + 1;
            }
            _ => break,
        }
    }
    let id_arg = a.get(i).ok_or_else(|| wrong_arity("xadd"))?.clone();
    i += 1;
    let fields_raw = &a[i..];
    if fields_raw.is_empty() || !fields_raw.len().is_multiple_of(2) {
        return Err(wrong_arity("xadd"));
    }

    if nomkstream && read_stream(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Null));
    }

    let now = e.now_ms();
    let s = stream_mut(e, &key)?;
    let id = if id_arg.as_ref() == b"*" {
        s.next_auto_id(now)
    } else if id_arg.ends_with(b"-*") {
        let ms_part = &id_arg[..id_arg.len() - 2];
        let base = parse_id(ms_part, 0)?;
        if base.ms == s.last_id.ms {
            StreamId {
                ms: base.ms,
                seq: s.last_id.seq + 1,
            }
        } else {
            StreamId {
                ms: base.ms,
                seq: 0,
            }
        }
    } else {
        parse_id(&id_arg, 0)?
    };

    let entry: StreamEntry = fields_raw
        .chunks(2)
        .map(|c| (c[0].clone(), c[1].clone()))
        .collect();
    match s.add(id, entry) {
        Ok(()) => {}
        Err(StreamAddError::IdZero) => {
            e.db.remove_if_empty(&key);
            return Err(ExecOutcome::error(
                "The ID specified in XADD must be greater than 0-0",
            ));
        }
        Err(StreamAddError::IdTooSmall) => {
            e.db.remove_if_empty(&key);
            return Err(ExecOutcome::read(Frame::Error(
                "ERR The ID specified in XADD is equal or smaller than the target stream top item"
                    .into(),
            )));
        }
    }
    if let Some(n) = maxlen {
        s.trim_maxlen(n);
    }
    if let Some(m) = minid {
        s.trim_minid(m);
    }
    e.db.signal_modified(&key);

    // Effect: XADD with the concrete id (and realized trim bounds).
    let mut eff: EffectCmd = vec![Bytes::from_static(b"XADD"), key.clone()];
    if let Some(n) = maxlen {
        eff.push(Bytes::from_static(b"MAXLEN"));
        eff.push(Bytes::from(n.to_string()));
    }
    if let Some(m) = minid {
        eff.push(Bytes::from_static(b"MINID"));
        eff.push(Bytes::from(m.to_string()));
    }
    eff.push(Bytes::from(id.to_string()));
    eff.extend(fields_raw.iter().cloned());
    Ok(effect_write(
        Frame::Bulk(Bytes::from(id.to_string())),
        vec![eff],
        vec![key],
    ))
}

pub(super) fn xlen(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let n = read_stream(e, &a[1])?.map_or(0, |s| s.len());
    Ok(ExecOutcome::read(Frame::Integer(n as i64)))
}

pub(super) fn xrange(e: &mut Engine, a: &[Bytes], rev: bool) -> CmdResult {
    let mut count = None;
    if a.len() > 4 {
        if upper(&a[4]) != "COUNT" || a.len() != 6 {
            return Err(ExecOutcome::error("syntax error"));
        }
        count = Some(p_i64(&a[5])?.max(0) as usize);
    }
    let (lo_arg, hi_arg) = if rev { (&a[3], &a[2]) } else { (&a[2], &a[3]) };
    let start = match lo_arg.as_ref() {
        b"-" => StreamId::MIN,
        arg if arg.starts_with(b"(") => {
            let base = parse_id(&arg[1..], 0)?;
            base.next().unwrap_or(StreamId::MAX)
        }
        arg => parse_id(arg, 0)?,
    };
    let end = match hi_arg.as_ref() {
        b"+" => StreamId::MAX,
        arg if arg.starts_with(b"(") => {
            let base = parse_id(&arg[1..], u64::MAX)?;
            // Exclusive end: step back one.
            if base.seq > 0 {
                StreamId {
                    ms: base.ms,
                    seq: base.seq - 1,
                }
            } else if base.ms > 0 {
                StreamId {
                    ms: base.ms - 1,
                    seq: u64::MAX,
                }
            } else {
                return Ok(ExecOutcome::read(Frame::Array(vec![])));
            }
        }
        arg => parse_id(arg, u64::MAX)?,
    };
    let Some(s) = read_stream(e, &a[1])? else {
        return Ok(ExecOutcome::read(Frame::Array(vec![])));
    };
    let entries = if rev {
        s.rev_range(start, end, count)
    } else {
        s.range(start, end, count)
    };
    let out = entries
        .iter()
        .map(|(id, entry)| entry_frame(*id, entry))
        .collect();
    Ok(ExecOutcome::read(Frame::Array(out)))
}

pub(super) fn xdel(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let key = a[1].clone();
    if read_stream(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let mut ids = Vec::with_capacity(a.len() - 2);
    for arg in &a[2..] {
        ids.push(parse_id(arg, 0)?);
    }
    let now = e.now();
    let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    };
    let removed = s.delete(&ids);
    if removed == 0 {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    e.db.signal_modified(&key);
    Ok(verbatim_write(Frame::Integer(removed as i64), a, vec![key]))
}

pub(super) fn xtrim(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let key = a[1].clone();
    let which = upper(&a[2]);
    let mut j = 3;
    if matches!(a.get(j).map(|x| x.as_ref()), Some(b"=") | Some(b"~")) {
        j += 1;
    }
    let val = a.get(j).ok_or_else(|| ExecOutcome::error("syntax error"))?;
    if read_stream(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let now = e.now();
    let evicted = {
        let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
            return Ok(ExecOutcome::read(Frame::Integer(0)));
        };
        match which.as_str() {
            "MAXLEN" => {
                let n = p_i64(val)?;
                if n < 0 {
                    return Err(ExecOutcome::error("MAXLEN can't be negative"));
                }
                s.trim_maxlen(n as usize)
            }
            "MINID" => {
                let m = parse_id(val, 0)?;
                s.trim_minid(m)
            }
            _ => return Err(ExecOutcome::error("syntax error")),
        }
    };
    if evicted == 0 {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    e.db.signal_modified(&key);
    // Realized trims are deterministic given identical stream state.
    let mut eff: EffectCmd = vec![Bytes::from_static(b"XTRIM"), key.clone(), a[2].clone()];
    eff.push(val.clone());
    Ok(effect_write(
        Frame::Integer(evicted as i64),
        vec![eff],
        vec![key],
    ))
}

/// `XREAD [COUNT n] STREAMS key... id...` — non-blocking form only.
pub(super) fn xread(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let mut count: Option<usize> = None;
    let mut i = 1;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "COUNT" => {
                count = Some(
                    p_i64(
                        a.get(i + 1)
                            .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                    )?
                    .max(0) as usize,
                );
                i += 2;
            }
            "BLOCK" => {
                return Err(ExecOutcome::error(
                    "BLOCK is not supported in this reproduction's XREAD",
                ))
            }
            "STREAMS" => {
                i += 1;
                break;
            }
            _ => return Err(ExecOutcome::error("syntax error")),
        }
    }
    let rest = &a[i..];
    if rest.is_empty() || !rest.len().is_multiple_of(2) {
        return Err(ExecOutcome::error(
            "Unbalanced XREAD list of streams: for each stream key an ID or '$' must be specified.",
        ));
    }
    let nk = rest.len() / 2;
    let mut out = Vec::new();
    for k in 0..nk {
        let key = &rest[k];
        let id_arg = &rest[nk + k];
        let after = if id_arg.as_ref() == b"$" {
            match read_stream(e, key)? {
                Some(s) => s.last_id,
                None => StreamId::MIN,
            }
        } else {
            parse_id(id_arg, 0)?
        };
        let Some(s) = read_stream(e, key)? else {
            continue;
        };
        let entries = s.read_after(after, count);
        if entries.is_empty() {
            continue;
        }
        let frames = entries
            .iter()
            .map(|(id, entry)| entry_frame(*id, entry))
            .collect();
        out.push(Frame::Array(vec![
            Frame::Bulk(key.clone()),
            Frame::Array(frames),
        ]));
    }
    if out.is_empty() {
        return Ok(ExecOutcome::read(Frame::Null));
    }
    Ok(ExecOutcome::read(Frame::Array(out)))
}

/// `XGROUP CREATE key group id|$ [MKSTREAM] | DESTROY key group |
///  SETID key group id|$ | CREATECONSUMER key group consumer |
///  DELCONSUMER key group consumer`
pub(super) fn xgroup(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let sub = upper(&a[1]);
    let key = a.get(2).ok_or_else(|| wrong_arity("xgroup"))?.clone();
    match sub.as_str() {
        "CREATE" => {
            let group = a.get(3).ok_or_else(|| wrong_arity("xgroup"))?.clone();
            let id_arg = a.get(4).ok_or_else(|| wrong_arity("xgroup"))?;
            let mkstream = a.get(5).is_some_and(|x| upper(x) == "MKSTREAM");
            if read_stream(e, &key)?.is_none() && !mkstream {
                return Err(ExecOutcome::error(
                    "The XGROUP subcommand requires the key to exist. Note that for CREATE you may want to use the MKSTREAM option to create an empty stream automatically.",
                ));
            }
            let s = stream_mut(e, &key)?;
            let start = if id_arg.as_ref() == b"$" {
                s.last_id
            } else {
                parse_id(id_arg, 0)?
            };
            if !s.create_group(group.clone(), start) {
                e.db.remove_if_empty(&key);
                return Err(ExecOutcome::read(Frame::Error(
                    "BUSYGROUP Consumer Group name already exists".into(),
                )));
            }
            e.db.signal_modified(&key);
            // Deterministic effect: explicit start id + MKSTREAM.
            let eff = vec![
                Bytes::from_static(b"XGROUP"),
                Bytes::from_static(b"CREATE"),
                key.clone(),
                group,
                Bytes::from(start.to_string()),
                Bytes::from_static(b"MKSTREAM"),
            ];
            Ok(effect_write(Frame::ok(), vec![eff], vec![key]))
        }
        "DESTROY" => {
            let group = a.get(3).ok_or_else(|| wrong_arity("xgroup"))?;
            let Some(_) = read_stream(e, &key)? else {
                return Ok(ExecOutcome::read(Frame::Integer(0)));
            };
            let now = e.now();
            let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
                return Ok(ExecOutcome::read(Frame::Integer(0)));
            };
            let existed = s.destroy_group(group);
            if !existed {
                return Ok(ExecOutcome::read(Frame::Integer(0)));
            }
            e.db.signal_modified(&key);
            Ok(verbatim_write(Frame::Integer(1), a, vec![key]))
        }
        "SETID" => {
            let group = a.get(3).ok_or_else(|| wrong_arity("xgroup"))?;
            let id_arg = a.get(4).ok_or_else(|| wrong_arity("xgroup"))?;
            let Some(s0) = read_stream(e, &key)? else {
                return Err(no_group());
            };
            let id = if id_arg.as_ref() == b"$" {
                s0.last_id
            } else {
                parse_id(id_arg, 0)?
            };
            let now = e.now();
            let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
                return Err(no_group());
            };
            if !s.set_group_cursor(group, id) {
                return Err(no_group());
            }
            e.db.signal_modified(&key);
            let eff = vec![
                Bytes::from_static(b"XGROUP"),
                Bytes::from_static(b"SETID"),
                key.clone(),
                a[3].clone(),
                Bytes::from(id.to_string()),
            ];
            Ok(effect_write(Frame::ok(), vec![eff], vec![key]))
        }
        "CREATECONSUMER" => {
            let group = a.get(3).ok_or_else(|| wrong_arity("xgroup"))?;
            let consumer = a.get(4).ok_or_else(|| wrong_arity("xgroup"))?.clone();
            let now = e.now();
            let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
                return Err(no_group());
            };
            let Some(g) = s.groups.get_mut(group.as_ref()) else {
                return Err(no_group());
            };
            let created = g.consumers.insert(consumer);
            if !created {
                return Ok(ExecOutcome::read(Frame::Integer(0)));
            }
            e.db.signal_modified(&key);
            Ok(verbatim_write(Frame::Integer(1), a, vec![key]))
        }
        "DELCONSUMER" => {
            let group = a.get(3).ok_or_else(|| wrong_arity("xgroup"))?;
            let consumer = a.get(4).ok_or_else(|| wrong_arity("xgroup"))?;
            let now = e.now();
            let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
                return Err(no_group());
            };
            let Some(g) = s.groups.get_mut(group.as_ref()) else {
                return Err(no_group());
            };
            let before = g.pending.len();
            g.pending.retain(|_, p| p.consumer != *consumer);
            let dropped = before - g.pending.len();
            let existed = g.consumers.remove(consumer.as_ref());
            if dropped == 0 && !existed {
                return Ok(ExecOutcome::read(Frame::Integer(0)));
            }
            e.db.signal_modified(&key);
            Ok(verbatim_write(Frame::Integer(dropped as i64), a, vec![key]))
        }
        other => Err(ExecOutcome::error(format!(
            "Unknown XGROUP subcommand '{other}'"
        ))),
    }
}

fn no_group() -> ExecOutcome {
    ExecOutcome::read(Frame::Error("NOGROUP No such consumer group".into()))
}

/// `XREADGROUP GROUP g consumer [COUNT n] [NOACK] STREAMS key... id...`
///
/// Delivering new messages (`>`) mutates the group (cursor + PEL); the
/// mutation is replicated the way Redis does it: as deterministic `XCLAIM
/// ... FORCE JUSTID TIME t` plus `XGROUP SETID` effects (paper §2.1's
/// effect-based replication of non-idempotent reads).
pub(super) fn xreadgroup(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    if upper(&a[1]) != "GROUP" {
        return Err(ExecOutcome::error("syntax error"));
    }
    let group = a[2].clone();
    let consumer = a[3].clone();
    let mut count: Option<usize> = None;
    let mut noack = false;
    let mut i = 4;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "COUNT" => {
                count = Some(
                    p_i64(
                        a.get(i + 1)
                            .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                    )?
                    .max(0) as usize,
                );
                i += 2;
            }
            "NOACK" => {
                noack = true;
                i += 1;
            }
            "BLOCK" => {
                return Err(ExecOutcome::error(
                    "BLOCK is not supported in this reproduction's XREADGROUP",
                ))
            }
            "STREAMS" => {
                i += 1;
                break;
            }
            _ => return Err(ExecOutcome::error("syntax error")),
        }
    }
    let rest = &a[i..];
    if rest.is_empty() || !rest.len().is_multiple_of(2) {
        return Err(ExecOutcome::error("Unbalanced XREADGROUP list of streams"));
    }
    let nk = rest.len() / 2;
    let now = e.now_ms();
    let mut out = Vec::new();
    let mut effects: Vec<EffectCmd> = Vec::new();
    let mut dirty: Vec<Bytes> = Vec::new();
    for k in 0..nk {
        let key = rest[k].clone();
        let id_arg = &rest[nk + k];
        {
            let Some(s) = read_stream(e, &key)? else {
                return Err(no_group());
            };
            if !s.groups.contains_key(key_of(&group)) {
                return Err(no_group());
            }
        }
        if id_arg.as_ref() == b">" {
            // New messages: deliver, assign to the consumer, advance cursor.
            let ids = {
                let Some(s) = read_stream(e, &key)? else {
                    continue; // existence checked above
                };
                s.undelivered(&group, count)
            };
            let Some(&last) = ids.last() else {
                continue;
            };
            let nownow = e.now();
            let Some(Value::Stream(s)) = e.db.lookup_mut(&key, nownow) else {
                continue;
            };
            if !noack {
                s.claim(&group, &consumer, &ids, now, Some(1), true);
            }
            s.set_group_cursor(&group, last);
            let frames: Vec<Frame> = ids
                .iter()
                .filter_map(|id| s.get(id).map(|entry| entry_frame(*id, entry)))
                .collect();
            e.db.signal_modified(&key);
            dirty.push(key.clone());
            if !noack {
                let mut claim_eff: EffectCmd = vec![
                    Bytes::from_static(b"XCLAIM"),
                    key.clone(),
                    group.clone(),
                    consumer.clone(),
                    Bytes::from_static(b"0"),
                ];
                claim_eff.extend(ids.iter().map(|id| Bytes::from(id.to_string())));
                claim_eff.extend([
                    Bytes::from_static(b"TIME"),
                    Bytes::from(now.to_string()),
                    Bytes::from_static(b"RETRYCOUNT"),
                    Bytes::from_static(b"1"),
                    Bytes::from_static(b"FORCE"),
                    Bytes::from_static(b"JUSTID"),
                ]);
                effects.push(claim_eff);
            }
            effects.push(vec![
                Bytes::from_static(b"XGROUP"),
                Bytes::from_static(b"SETID"),
                key.clone(),
                group.clone(),
                Bytes::from(last.to_string()),
            ]);
            out.push(Frame::Array(vec![Frame::Bulk(key), Frame::Array(frames)]));
        } else {
            // Re-read the consumer's own pending entries: pure read.
            let after = parse_id(id_arg, 0)?;
            let prev = after; // exclusive per Redis history-read semantics
            let Some(s) = read_stream(e, &key)? else {
                continue; // existence checked above
            };
            let ids = s.consumer_pending(&group, &consumer, prev, count);
            let frames: Vec<Frame> = ids
                .iter()
                .filter_map(|id| s.get(id).map(|entry| entry_frame(*id, entry)))
                .collect();
            out.push(Frame::Array(vec![Frame::Bulk(key), Frame::Array(frames)]));
        }
    }
    let reply = if out.is_empty() {
        Frame::Null
    } else {
        Frame::Array(out)
    };
    if effects.is_empty() {
        Ok(ExecOutcome::read(reply))
    } else {
        Ok(effect_write(reply, effects, dirty))
    }
}

fn key_of(b: &Bytes) -> &[u8] {
    b.as_ref()
}

/// `XACK key group id...`
pub(super) fn xack(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let key = a[1].clone();
    let mut ids = Vec::with_capacity(a.len() - 3);
    for arg in &a[3..] {
        ids.push(parse_id(arg, 0)?);
    }
    if read_stream(e, &key)?.is_none() {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    let now = e.now();
    let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    };
    let acked = s.ack(&a[2], &ids);
    if acked == 0 {
        return Ok(ExecOutcome::read(Frame::Integer(0)));
    }
    e.db.signal_modified(&key);
    Ok(verbatim_write(Frame::Integer(acked as i64), a, vec![key]))
}

/// `XPENDING key group [start end count [consumer]]`
pub(super) fn xpending(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let Some(s) = read_stream(e, &a[1])? else {
        return Err(no_group());
    };
    let Some(g) = s.groups.get(a[2].as_ref()) else {
        return Err(no_group());
    };
    if a.len() == 3 {
        // Summary form: total, min id, max id, per-consumer counts.
        if g.pending.is_empty() {
            return Ok(ExecOutcome::read(Frame::Array(vec![
                Frame::Integer(0),
                Frame::Null,
                Frame::Null,
                Frame::Null,
            ])));
        }
        let (Some(&min), Some(&max)) = (g.pending.keys().next(), g.pending.keys().next_back())
        else {
            // Emptiness handled above; mirror the empty summary if racing.
            return Ok(ExecOutcome::read(Frame::Array(vec![
                Frame::Integer(0),
                Frame::Null,
                Frame::Null,
                Frame::Null,
            ])));
        };
        let mut per: std::collections::BTreeMap<Bytes, i64> = Default::default();
        for p in g.pending.values() {
            *per.entry(p.consumer.clone()).or_default() += 1;
        }
        let consumers = per
            .into_iter()
            .map(|(c, n)| {
                Frame::Array(vec![
                    Frame::Bulk(c),
                    Frame::Bulk(Bytes::from(n.to_string())),
                ])
            })
            .collect();
        return Ok(ExecOutcome::read(Frame::Array(vec![
            Frame::Integer(g.pending.len() as i64),
            Frame::Bulk(Bytes::from(min.to_string())),
            Frame::Bulk(Bytes::from(max.to_string())),
            Frame::Array(consumers),
        ])));
    }
    if a.len() < 6 {
        return Err(ExecOutcome::error("syntax error"));
    }
    let start = match a[3].as_ref() {
        b"-" => StreamId::MIN,
        arg => parse_id(arg, 0)?,
    };
    let end = match a[4].as_ref() {
        b"+" => StreamId::MAX,
        arg => parse_id(arg, u64::MAX)?,
    };
    let count = p_i64(&a[5])?.max(0) as usize;
    let consumer_filter = a.get(6).cloned();
    let now = e.now_ms();
    let rows: Vec<Frame> = g
        .pending
        .range(start..=end)
        .filter(|(_, p)| consumer_filter.as_ref().is_none_or(|c| p.consumer == *c))
        .take(count)
        .map(|(id, p)| {
            Frame::Array(vec![
                Frame::Bulk(Bytes::from(id.to_string())),
                Frame::Bulk(p.consumer.clone()),
                Frame::Integer(now.saturating_sub(p.delivery_time_ms) as i64),
                Frame::Integer(p.delivery_count as i64),
            ])
        })
        .collect();
    Ok(ExecOutcome::read(Frame::Array(rows)))
}

/// `XCLAIM key group consumer min-idle-time id... [IDLE ms] [TIME ms]
///  [RETRYCOUNT n] [FORCE] [JUSTID]`
pub(super) fn xclaim(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let key = a[1].clone();
    let group = a[2].clone();
    let consumer = a[3].clone();
    let min_idle = p_i64(&a[4])?.max(0) as u64;
    let mut ids = Vec::new();
    let mut i = 5;
    while i < a.len() {
        let Ok(id) = std::str::from_utf8(&a[i])
            .map_err(|_| ())
            .and_then(|s| s.parse::<StreamId>().map_err(|_| ()))
        else {
            break;
        };
        ids.push(id);
        i += 1;
    }
    if ids.is_empty() {
        return Err(wrong_arity("xclaim"));
    }
    let mut time_ms: Option<u64> = None;
    let mut retry: Option<u64> = None;
    let mut force = false;
    let mut justid = false;
    while i < a.len() {
        match upper(&a[i]).as_str() {
            "IDLE" => {
                let idle = p_i64(
                    a.get(i + 1)
                        .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                )?;
                time_ms = Some(e.now_ms().saturating_sub(idle.max(0) as u64));
                i += 2;
            }
            "TIME" => {
                time_ms = Some(
                    p_i64(
                        a.get(i + 1)
                            .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                    )?
                    .max(0) as u64,
                );
                i += 2;
            }
            "RETRYCOUNT" => {
                retry = Some(
                    p_i64(
                        a.get(i + 1)
                            .ok_or_else(|| ExecOutcome::error("syntax error"))?,
                    )?
                    .max(0) as u64,
                );
                i += 2;
            }
            "FORCE" => {
                force = true;
                i += 1;
            }
            "JUSTID" => {
                justid = true;
                i += 1;
            }
            _ => return Err(ExecOutcome::error("syntax error")),
        }
    }
    let now = e.now_ms();
    let time = time_ms.unwrap_or(now);
    if read_stream(e, &key)?.is_none() {
        return Err(no_group());
    }
    // Filter by idleness before mutating.
    let eligible: Vec<StreamId> = {
        let Some(s) = read_stream(e, &key)? else {
            return Err(no_group());
        };
        let Some(g) = s.groups.get(group.as_ref()) else {
            return Err(no_group());
        };
        ids.iter()
            .copied()
            .filter(|id| match g.pending.get(id) {
                Some(p) => now.saturating_sub(p.delivery_time_ms) >= min_idle,
                None => force,
            })
            .collect()
    };
    // JUSTID does not bump the retry count: preserve each entry's current
    // value explicitly.
    let retry_for = |s: &Stream, id: &StreamId| -> Option<u64> {
        if justid && retry.is_none() {
            s.groups
                .get(group.as_ref())
                .and_then(|g| g.pending.get(id))
                .map(|p| p.delivery_count)
                .or(Some(1))
        } else {
            retry
        }
    };
    let nownow = e.now();
    let mut claimed = Vec::new();
    {
        let Some(Value::Stream(s)) = e.db.lookup_mut(&key, nownow) else {
            return Err(no_group());
        };
        for id in &eligible {
            let rc = retry_for(s, id);
            if !s
                .claim(&group, &consumer, &[*id], time, rc, force)
                .is_empty()
            {
                claimed.push(*id);
            }
        }
    }
    let reply = {
        let Some(s) = read_stream(e, &key)? else {
            return Err(no_group());
        };
        if justid {
            Frame::Array(
                claimed
                    .iter()
                    .map(|id| Frame::Bulk(Bytes::from(id.to_string())))
                    .collect(),
            )
        } else {
            Frame::Array(
                claimed
                    .iter()
                    .filter_map(|id| s.get(id).map(|entry| entry_frame(*id, entry)))
                    .collect(),
            )
        }
    };
    if claimed.is_empty() {
        return Ok(ExecOutcome::read(reply));
    }
    e.db.signal_modified(&key);
    // Deterministic effect: explicit TIME, per-id RETRYCOUNT, FORCE.
    let Some(s) = read_stream(e, &key)? else {
        return Err(no_group());
    };
    let Some(g) = s.groups.get(group.as_ref()) else {
        return Err(no_group());
    };
    let effects: Vec<EffectCmd> = claimed
        .iter()
        .map(|id| {
            let rc = g.pending.get(id).map(|p| p.delivery_count).unwrap_or(1);
            vec![
                Bytes::from_static(b"XCLAIM"),
                key.clone(),
                group.clone(),
                consumer.clone(),
                Bytes::from_static(b"0"),
                Bytes::from(id.to_string()),
                Bytes::from_static(b"TIME"),
                Bytes::from(time.to_string()),
                Bytes::from_static(b"RETRYCOUNT"),
                Bytes::from(rc.to_string()),
                Bytes::from_static(b"FORCE"),
                Bytes::from_static(b"JUSTID"),
            ]
        })
        .collect();
    Ok(effect_write(reply, effects, vec![key]))
}

/// `XINFO STREAM key | GROUPS key`
pub(super) fn xinfo(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let sub = upper(&a[1]);
    let key = a.get(2).ok_or_else(|| wrong_arity("xinfo"))?;
    let Some(s) = read_stream(e, key)? else {
        return Err(ExecOutcome::error("no such key"));
    };
    match sub.as_str() {
        "STREAM" => Ok(ExecOutcome::read(Frame::Array(vec![
            Frame::bulk("length"),
            Frame::Integer(s.len() as i64),
            Frame::bulk("last-generated-id"),
            Frame::Bulk(Bytes::from(s.last_id.to_string())),
            Frame::bulk("entries-added"),
            Frame::Integer(s.entries_added as i64),
            Frame::bulk("groups"),
            Frame::Integer(s.groups.len() as i64),
        ]))),
        "GROUPS" => {
            let out = s
                .groups
                .iter()
                .map(|(name, g)| {
                    Frame::Array(vec![
                        Frame::bulk("name"),
                        Frame::Bulk(name.clone()),
                        Frame::bulk("consumers"),
                        Frame::Integer(g.consumers.len() as i64),
                        Frame::bulk("pending"),
                        Frame::Integer(g.pending.len() as i64),
                        Frame::bulk("last-delivered-id"),
                        Frame::Bulk(Bytes::from(g.last_delivered.to_string())),
                    ])
                })
                .collect();
            Ok(ExecOutcome::read(Frame::Array(out)))
        }
        other => Err(ExecOutcome::error(format!(
            "Unknown XINFO subcommand '{other}'"
        ))),
    }
}

/// `XSETID key id [ENTRIESADDED n] [MAXDELETEDID id]`
pub(super) fn xsetid(e: &mut Engine, a: &[Bytes]) -> CmdResult {
    let key = a[1].clone();
    let id = parse_id(&a[2], 0)?;
    if read_stream(e, &key)?.is_none() {
        return Err(ExecOutcome::error(
            "The XSETID command requires the key to exist",
        ));
    }
    let now = e.now();
    let Some(Value::Stream(s)) = e.db.lookup_mut(&key, now) else {
        return Err(ExecOutcome::error("no such key"));
    };
    if let Some((last, _)) = s.last() {
        if id < last {
            return Err(ExecOutcome::error(
                "The ID specified in XSETID is smaller than the target stream top item",
            ));
        }
    }
    s.last_id = id;
    e.db.signal_modified(&key);
    Ok(verbatim_write(Frame::ok(), a, vec![key]))
}
