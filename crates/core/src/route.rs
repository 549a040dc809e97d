//! Stripe routing (DESIGN.md §12): which stripe lock(s) a batch needs, and
//! how one command executes against the stripe set a batch holds.
//!
//! Classification is pure and runs before any lock is taken; execution is a
//! method of the held [`StripeGuards`], so a caller can only route into
//! stripes it actually holds. Fan-out commands (`FLUSHALL`, `SCAN`, `KEYS`,
//! `EXEC`, scripts, ...) visit every stripe; keyed commands run on the
//! stripe owning their slot.
// Serving path: same panic-freedom bar as node.rs (DESIGN.md §9).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use crate::stripes::{stripe_of, EngineStripes, StripeGuards};
use bytes::Bytes;
use memorydb_engine::{
    eval_on_host, for_each_key, key_hash_slot, keys_for, CmdName, DirtySet, EffectCmd, ExecOutcome,
    Frame, ScriptHost, SessionState,
};

/// Commands that must observe every stripe regardless of their key
/// signature: whole-keyspace scans and fan-outs, transaction closers (the
/// queued commands may span stripes), and the config/script broadcasts that
/// keep per-stripe state identical.
/// `DBSIZE` and `RANDOMKEY` are deliberately absent: per-stripe key
/// counters (refreshed on every guard drop) let `DBSIZE` answer from any
/// single stripe and let `RANDOMKEY` pre-pick a count-weighted stripe, so
/// neither needs the all-stripe acquisition on its own any more. Both keep
/// their exact all-stripe forms for EXEC bodies, scripts and mixed batches.
const FORCE_ALL_STRIPES: &[&str] = &[
    "EXEC", "SCAN", "KEYS", "FLUSHALL", "FLUSHDB", "INFO", "CONFIG", "SCRIPT", "EVAL", "EVALSHA",
];

/// Keyless commands that touch no keyspace state at all (session- or
/// node-level only) — safe to run on whichever single stripe a batch holds.
/// Any other keyless command conservatively takes the all-stripe route.
const STRIPE_AGNOSTIC: &[&str] = &[
    "PING", "ECHO", "TIME", "SELECT", "WAIT", "SLOWLOG", "LATENCY", "MULTI", "DISCARD", "UNWATCH",
    "COMMAND",
];

/// A [`ScriptHost`] over the full stripe set: routes each of a script's
/// inner commands to the stripe owning its keys (the interpreter rejects
/// MULTI/EXEC/EVAL inside scripts before they reach the host), so one
/// script may read and write across stripes while its effects still form
/// one atomic replication batch.
struct StripedHost<'g, 'a> {
    guards: &'g mut StripeGuards<'a>,
}

impl ScriptHost for StripedHost<'_, '_> {
    fn run_script_cmd(&mut self, cmd: &[Bytes]) -> ExecOutcome {
        self.guards.execute_single_routed(cmd)
    }
}

impl EngineStripes {
    /// Classifies a batch by the stripes its commands touch: `Some(idx)`
    /// when every command is confined to stripe `idx` (the single-stripe
    /// fast path), `None` when any command needs the all-stripe route.
    /// Pure — runs before any lock is taken, so misrouting is impossible
    /// to race into: keys hash to the same stripe no matter who computes it.
    pub(crate) fn classify_batch(&self, cmds: &[Vec<Bytes>]) -> Option<usize> {
        let n = self.count();
        if n == 1 {
            return Some(0);
        }
        let mut stripe: Option<usize> = None;
        for args in cmds {
            let Some(cmd_name) = args.first() else {
                continue; // empty commands error without touching the keyspace
            };
            let name = CmdName::from_arg(cmd_name);
            if FORCE_ALL_STRIPES.contains(&name.as_str()) {
                return None;
            }
            // DBSIZE is answered from any held stripe (live count plus the
            // other stripes' published counters) — stripe-agnostic.
            if name == "DBSIZE" {
                continue;
            }
            // RANDOMKEY: pre-pick a count-weighted stripe so the overall key
            // distribution matches the unstriped engine; a batch whose other
            // commands live elsewhere degrades to the all-stripe route,
            // where `randomkey_striped` still answers exactly.
            if name == "RANDOMKEY" && args.len() == 1 {
                let s = self.weighted_random_stripe();
                match stripe {
                    None => stripe = Some(s),
                    Some(prev) if prev != s => return None,
                    _ => {}
                }
                continue;
            }
            // Visit the keys without collecting them — classification only
            // needs each key's stripe, never the key itself.
            let mut conflict = false;
            let visited = for_each_key(args, |key| {
                let s = stripe_of(key_hash_slot(key), n);
                match stripe {
                    None => stripe = Some(s),
                    Some(prev) if prev != s => conflict = true,
                    _ => {}
                }
            });
            if conflict {
                return None;
            }
            match visited {
                Some(k) if k > 0 => {}
                _ => {
                    // Keyless or unknown: only the known session-/node-local
                    // commands are safe on one stripe; everything else gets
                    // the conservative all-stripe route.
                    if !STRIPE_AGNOSTIC.contains(&name.as_str()) {
                        return None;
                    }
                }
            }
        }
        Some(stripe.unwrap_or(0))
    }
}

impl StripeGuards<'_> {
    /// Executes one client command against the held stripe set. On the
    /// single-stripe route the classification already proved every key
    /// lives on the held stripe, so this is a plain engine call; on the
    /// all-stripe route, fan-out commands visit every stripe and keyed
    /// commands their owning stripe.
    pub(crate) fn execute_routed(
        &mut self,
        session: &mut SessionState,
        name: &str,
        args: &[Bytes],
    ) -> ExecOutcome {
        if !self.is_all() || self.stripe_count() == 1 {
            return self.any_engine().execute(session, args);
        }
        if name == "EXEC" {
            return self.exec_striped(session);
        }
        if session.in_multi() {
            // Queueing (and the MULTI-nesting / WATCH-inside-MULTI errors)
            // is session state only; no keyspace is touched until EXEC.
            return self.any_engine().execute(session, args);
        }
        match name {
            "FLUSHALL" | "FLUSHDB" | "DBSIZE" | "KEYS" | "SCAN" | "RANDOMKEY" | "CONFIG"
            | "SCRIPT" | "EVAL" | "EVALSHA" => self.execute_single_routed(args),
            _ => match keys_for(args).as_ref().and_then(|k| k.first()) {
                // Keys past the first share its slot (the CROSSSLOT gate
                // already ran), hence its stripe — WATCH included.
                Some(key) => {
                    let slot = key_hash_slot(key);
                    self.engine_for_slot(slot).execute(session, args)
                }
                None => self.any_engine().execute(session, args),
            },
        }
    }

    /// Node-level `EXEC` for the all-stripe route: mirrors the engine's
    /// `exec_transaction` exactly, but routes each watch validation and
    /// each queued command to the stripe owning its keys, so a transaction
    /// may span stripes while its effects stay one atomic log record.
    fn exec_striped(&mut self, session: &mut SessionState) -> ExecOutcome {
        if !session.in_multi() {
            return ExecOutcome::error("EXEC without MULTI");
        }
        let (queued, queue_error, watches) = session.take_transaction();
        if queue_error {
            return ExecOutcome::read(Frame::Error(
                "EXECABORT Transaction discarded because of previous errors.".into(),
            ));
        }
        // WATCH validation: any watched key modified since WATCH aborts.
        // Each key's version lives on its owning stripe.
        let aborted = watches
            .iter()
            .any(|(key, ver)| self.engine_for_slot(key_hash_slot(key)).db.version(key) != *ver);
        if aborted {
            return ExecOutcome::read(Frame::Null);
        }
        let mut replies = Vec::with_capacity(queued.len());
        let mut effects: Vec<EffectCmd> = Vec::new();
        let mut dirty = DirtySet::None;
        for cmd in &queued {
            let out = self.execute_single_routed(cmd);
            replies.push(out.reply);
            effects.extend(out.effects);
            dirty.merge(out.dirty);
        }
        // The whole transaction's effects form one atomic replication unit,
        // exactly like the single-engine EXEC.
        ExecOutcome::write(Frame::Array(replies), effects, dirty)
    }

    /// One already-validated command on the all-stripe route, without
    /// session semantics: queued `EXEC` bodies and script-inner commands
    /// (the engine rejects MULTI/EXEC/WATCH at queue/interpreter time, so
    /// none of those reach here). Fan-out commands visit every stripe;
    /// keyed commands run on their owning stripe.
    fn execute_single_routed(&mut self, cmd: &[Bytes]) -> ExecOutcome {
        let Some(first) = cmd.first() else {
            return ExecOutcome::error("empty command");
        };
        let name = CmdName::from_arg(first);
        match name.as_str() {
            "FLUSHALL" | "FLUSHDB" => self.flush_striped(cmd),
            "DBSIZE" => self.dbsize_striped(cmd),
            "KEYS" => self.keys_striped(cmd),
            "SCAN" => self.scan_striped(cmd),
            "RANDOMKEY" => self.randomkey_striped(cmd),
            // Broadcast so per-stripe configs and script caches stay
            // identical (both are node-local, never replicated); the
            // replies are deterministic and equal, keep the first.
            "CONFIG" | "SCRIPT" => self.broadcast_striped(cmd),
            "EVAL" | "EVALSHA" => self.eval_striped(&name, cmd),
            _ => match keys_for(cmd).as_ref().and_then(|k| k.first()) {
                Some(key) => {
                    let slot = key_hash_slot(key);
                    self.engine_for_slot(slot).execute_single(cmd)
                }
                None => self.any_engine().execute_single(cmd),
            },
        }
    }

    /// `FLUSHALL`/`FLUSHDB` across every stripe: one merged effect record
    /// iff any stripe actually dropped keys, matching the single-engine
    /// no-op rule (an empty database flush replicates nothing).
    fn flush_striped(&mut self, args: &[Bytes]) -> ExecOutcome {
        let mut reply: Option<Frame> = None;
        let mut dirty = DirtySet::None;
        let mut any_effect = false;
        for e in self.each() {
            let out = e.execute_single(args);
            if !out.effects.is_empty() {
                any_effect = true;
                dirty.merge(out.dirty);
            }
            reply.get_or_insert(out.reply);
        }
        let reply = reply.unwrap_or_else(Frame::ok);
        if any_effect {
            let name_only: Vec<Bytes> = args.iter().take(1).cloned().collect();
            ExecOutcome::write(reply, vec![name_only], dirty)
        } else {
            ExecOutcome::read(reply)
        }
    }

    /// `DBSIZE`: the sum of every stripe's key count.
    fn dbsize_striped(&mut self, args: &[Bytes]) -> ExecOutcome {
        let mut total: i64 = 0;
        for e in self.each() {
            match e.execute_single(args).reply {
                Frame::Integer(v) => total += v,
                other => return ExecOutcome::read(other), // arity error
            }
        }
        ExecOutcome::read(Frame::Integer(total))
    }

    /// `KEYS pattern`: the concatenation of every stripe's matches (like
    /// Redis, the order is unspecified).
    fn keys_striped(&mut self, args: &[Bytes]) -> ExecOutcome {
        let mut all: Vec<Frame> = Vec::new();
        for e in self.each() {
            match e.execute_single(args).reply {
                Frame::Array(mut items) => all.append(&mut items),
                other => return ExecOutcome::read(other), // arity error
            }
        }
        ExecOutcome::read(Frame::Array(all))
    }

    /// `SCAN` with a composite cursor: the high bits select the stripe, the
    /// low 48 the stripe-local cursor. A stripe's exhausted cursor (inner
    /// 0) advances to the next stripe; the final stripe's yields cursor 0,
    /// completing the iteration exactly once like a single-engine SCAN.
    fn scan_striped(&mut self, args: &[Bytes]) -> ExecOutcome {
        const INNER_BITS: u32 = 48;
        const INNER_MASK: u64 = (1 << INNER_BITS) - 1;
        let Some(raw) = args.get(1) else {
            return self.any_engine().execute_single(args); // arity error
        };
        let Ok(cursor) = String::from_utf8_lossy(raw).parse::<u64>() else {
            return self.any_engine().execute_single(args); // invalid cursor
        };
        let mut stripe = (cursor >> INNER_BITS) as usize;
        let mut inner = cursor & INNER_MASK;
        let n = self.stripe_count();
        if stripe >= n {
            // A stale cursor past the last stripe (e.g. the stripe count
            // shrank between calls): terminate cleanly.
            return ExecOutcome::read(Frame::Array(vec![
                Frame::Bulk(Bytes::from_static(b"0")),
                Frame::Array(Vec::new()),
            ]));
        }
        loop {
            let mut sub = args.to_vec();
            if let Some(slot) = sub.get_mut(1) {
                *slot = Bytes::from(inner.to_string());
            }
            let out = self.engine_at(stripe).execute_single(&sub);
            match out.reply {
                Frame::Array(mut items) => {
                    let next_inner = match items.first() {
                        Some(Frame::Bulk(raw)) => {
                            String::from_utf8_lossy(raw).parse::<u64>().unwrap_or(0)
                        }
                        _ => 0,
                    };
                    let batch_empty = matches!(items.get(1), Some(Frame::Array(b)) if b.is_empty());
                    if next_inner == 0 && batch_empty && stripe + 1 < n {
                        // Exhausted stripe, nothing to return: fast-forward
                        // to the next stripe inside this call. Without this,
                        // a cursor gone stale mid-scan (FLUSHDB emptied the
                        // keyspace) hands the client one empty page with a
                        // nonzero cursor per remaining stripe before finally
                        // reaching 0.
                        stripe += 1;
                        inner = 0;
                        continue;
                    }
                    let next = if next_inner != 0 {
                        ((stripe as u64) << INNER_BITS) | (next_inner & INNER_MASK)
                    } else if stripe + 1 < n {
                        ((stripe as u64) + 1) << INNER_BITS
                    } else {
                        0
                    };
                    if let Some(slot) = items.get_mut(0) {
                        *slot = Frame::Bulk(Bytes::from(next.to_string()));
                    }
                    return ExecOutcome::read(Frame::Array(items));
                }
                other => return ExecOutcome::read(other), // bad MATCH/COUNT arguments
            }
        }
    }

    /// `RANDOMKEY`: pick a stripe weighted by its key count (so the overall
    /// distribution matches the unstriped engine), then delegate.
    fn randomkey_striped(&mut self, args: &[Bytes]) -> ExecOutcome {
        if args.len() != 1 {
            return self.any_engine().execute_single(args); // arity error
        }
        let per: Vec<usize> = self.dbs().iter().map(|db| db.len()).collect();
        let total: usize = per.iter().sum();
        if total == 0 {
            return ExecOutcome::read(Frame::Null);
        }
        let mut pick = self.any_engine().rand_index(total);
        let mut idx = 0usize;
        for (i, len) in per.iter().enumerate() {
            if pick < *len {
                idx = i;
                break;
            }
            pick -= len;
        }
        self.engine_at(idx).execute_single(args)
    }

    /// Runs `args` on every stripe, returning the first stripe's outcome
    /// (CONFIG/SCRIPT are deterministic and node-local, so the outcomes are
    /// identical — the broadcast only keeps the per-stripe state in sync).
    fn broadcast_striped(&mut self, args: &[Bytes]) -> ExecOutcome {
        let mut first: Option<ExecOutcome> = None;
        for e in self.each() {
            let out = e.execute_single(args);
            first.get_or_insert(out);
        }
        first.unwrap_or_else(|| ExecOutcome::error("empty command"))
    }

    /// `EVAL`/`EVALSHA` against the full stripe set: resolve `EVALSHA` to
    /// its cached source (any stripe's cache — they are broadcast-identical)
    /// and interpret with a [`StripedHost`] routing each inner command.
    fn eval_striped(&mut self, name: &str, args: &[Bytes]) -> ExecOutcome {
        if args.len() < 3 {
            return self.any_engine().execute_single(args); // arity error
        }
        let mut eargs = args.to_vec();
        if name == "EVALSHA" {
            let sha = eargs
                .get(1)
                .map(|b| String::from_utf8_lossy(b).to_ascii_lowercase())
                .unwrap_or_default();
            let Some(src) = self.first_ref().script_source(&sha) else {
                return ExecOutcome::read(Frame::Error(
                    "NOSCRIPT No matching script. Please use EVAL.".into(),
                ));
            };
            if let Some(slot) = eargs.get_mut(1) {
                *slot = src;
            }
        }
        eval_on_host(&mut StripedHost { guards: self }, &eargs)
    }
}
