//! The per-file invariant families. Each lint is a pass over the token
//! stream from [`crate::lexer`]; scopes are hardcoded here (the baseline
//! file only holds *exceptions*, never scope). Every diagnostic names the
//! part of the MemoryDB argument it protects, so a violation reads as
//! "which paper property would this break", not just "style nit".
//!
//! The whole-workspace lock-order graph (lint family "lock-order") lives in
//! [`crate::lockgraph`]; it shares the guard parser defined here.

use crate::lexer::Tok;
use crate::lexer::TokKind::{Ident, Punct};

/// A lint hit before file/snippet attachment (done by the caller).
pub(crate) struct RawFinding {
    pub lint: &'static str,
    pub line: u32,
    pub message: String,
}

/// Serving/apply paths where a panic kills the primary mid-lease.
/// Entries ending in `/` are directory prefixes, others exact files.
const PANIC_SCOPE: &[&str] = &[
    "crates/engine/src/exec/",
    "crates/engine/src/command.rs",
    "crates/engine/src/ds/",
    "crates/core/src/apply.rs",
    "crates/core/src/commit.rs",
    "crates/core/src/node.rs",
    "crates/core/src/serve.rs",
    "crates/txlog/src/service.rs",
    "crates/resp/src/decode.rs",
];

/// Wire/log-input layer where direct indexing is forbidden outright.
/// The exec and ds layers are excluded: exec's ~400 `args[i]` sites are all
/// behind arity validation in the command table, and ds's skiplist/HLL
/// indices are internal arena handles — the panic-freedom lint above still
/// forbids unwrap/expect/panic in both. Decode, apply, the node frontend and
/// the log service, by contrast, face untrusted socket/log bytes and must
/// reject rather than crash.
const INDEX_SCOPE: &[&str] = &[
    "crates/core/src/apply.rs",
    "crates/core/src/commit.rs",
    "crates/core/src/node.rs",
    "crates/core/src/serve.rs",
    "crates/txlog/src/service.rs",
    "crates/resp/src/decode.rs",
];

/// Deterministic-simulation code: chaos plan construction and the DES core.
const DETERMINISM_SCOPE: &[&str] = &["crates/sim/src/chaos.rs", "crates/sim/src/des.rs"];

/// The zero-copy serve path (DESIGN.md §15): parse → submit must hand
/// command bytes around as refcounted slices of the input chunk, never as
/// fresh copies. These are the files where the allocation census's
/// per-command budget is won or lost.
const ZERO_COPY_SCOPE: &[&str] = &["crates/server/src/lib.rs", "crates/resp/src/decode.rs"];

/// Identifiers that name command-argument vectors or wire buffers on the
/// serve path. `.clone()` with one of these as receiver (directly or via
/// an index expression like `cmds[i]`) deep-copies bytes the zero-copy
/// path deliberately borrows.
const CMD_BYTES_IDENTS: &[&str] = &["args", "arg", "cmds", "cmd", "batch", "raw", "buf", "out"];

/// The server crate, whose multiplexed IO threads sweep many connections
/// each. A durability wait here stalls every connection sharing the thread.
const SERVER_SCOPE: &[&str] = &["crates/server/"];

/// Calls that block the caller until commit durability (or a resolved
/// commit ticket): the raw log waits plus the node-level blocking finisher.
const DURABILITY_WAIT_METHODS: &[&str] = &[
    "wait_durable",
    "wait_committed_at_least",
    "wait_for_entries",
    "wait_finish",
];

/// Final-call methods in a `let` initializer that make the binding a guard.
/// These must have an *empty* argument list (so `io::Read::read(&mut buf)`
/// is not mistaken for a lock). `try_lock` guards arrive through
/// `if let Some(g) = m.try_lock()` / `let Some(g) = m.try_lock() else`
/// bindings, which [`parse_guard_binding`] also understands.
pub(crate) const GUARD_METHODS: &[&str] = &["lock", "try_lock", "read", "write", "upgradable_read"];

/// Methods that block on remote durability / storage while running:
/// holding any lock guard across these defeats PR-1 group commit and stalls
/// the engine for a multi-AZ round trip. Always a violation.
/// `try_self_flush` is the submitter-led group-commit flush (§11) — a log
/// append on the submitting connection's thread, so holding the engine
/// guard (or `st`) across it would serialize every other connection behind
/// one connection's append.
const BLOCKING_METHODS: &[&str] = &["wait_durable", "wait_for_entries", "put", "try_self_flush"];

/// Non-blocking ordered-append calls into the txlog. Holding the engine/state
/// lock across these is the *intentional* ordering contract (log order =
/// execution order, MemoryDB §3.2) — each such site must be explicitly
/// baselined in analysis.toml with a justification, so new ones are caught.
const ORDERED_APPEND_METHODS: &[&str] = &["append_after", "append_batch_after"];

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| {
        if s.ends_with('/') {
            rel.starts_with(s)
        } else {
            rel == *s
        }
    })
}

/// Runs every lint applicable to `rel` over its token stream.
pub(crate) fn lint_tokens(rel: &str, toks: &[Tok]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    if in_scope(rel, PANIC_SCOPE) {
        panic_freedom(toks, &mut out);
    }
    if in_scope(rel, INDEX_SCOPE) {
        index_freedom(toks, &mut out);
    }
    if in_scope(rel, DETERMINISM_SCOPE) {
        determinism(toks, &mut out);
    }
    if in_scope(rel, SERVER_SCOPE) {
        durability_wait(toks, &mut out);
    }
    if in_scope(rel, ZERO_COPY_SCOPE) {
        zero_copy(toks, &mut out);
    }
    // Workspace-wide passes.
    lock_discipline(toks, &mut out);
    sync_primitives(toks, &mut out);
    atomics_ordering(rel, toks, &mut out);
    out.sort_by_key(|f| f.line);
    out
}

/// (1) panic-freedom: `.unwrap()` / `.expect(` method calls and
/// `panic!` / `unreachable!` / `todo!` / `unimplemented!` macros.
fn panic_freedom(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        match id {
            "unwrap" | "expect" => {
                let prev_dot = i > 0 && toks[i - 1].is_punct('.');
                let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if prev_dot && next_paren {
                    out.push(RawFinding {
                        lint: "panic-freedom",
                        line: t.line,
                        message: format!(
                            "`.{id}()` can panic in the serving/apply path \
                             (MemoryDB availability argument: a primary panic forfeits \
                             its lease and forces failover, paper \u{a7}5)"
                        ),
                    });
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(RawFinding {
                    lint: "panic-freedom",
                    line: t.line,
                    message: format!(
                        "`{id}!` in the serving/apply path \
                         (MemoryDB availability argument: a primary panic forfeits \
                         its lease and forces failover, paper \u{a7}5)"
                    ),
                });
            }
            _ => {}
        }
    }
}

/// (1b) indexing sub-lint: `expr[...]` indexing/slicing on the wire/log-input
/// layer, where the indexed data came off a socket or the transaction log.
fn index_freedom(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_punct('[') || i == 0 {
            continue;
        }
        let indexes_expr = match &toks[i - 1].kind {
            // A keyword before `[` means an array/slice type or literal
            // (`&mut [Frame]`, `return [0; 4]`), not an index expression.
            Ident(id) => !matches!(
                id.as_str(),
                "mut" | "ref" | "dyn" | "return" | "break" | "else" | "in" | "match"
            ),
            Punct(')') | Punct(']') => true,
            _ => false,
        };
        if indexes_expr {
            out.push(RawFinding {
                lint: "panic-freedom",
                line: t.line,
                message: "direct index/slice can panic on malformed wire/log input; \
                          decode and apply must reject bad input, not crash the \
                          primary (paper \u{a7}3.1, \u{a7}5)"
                    .to_string(),
            });
        }
    }
}

/// (3) sim determinism: no wall clock or ambient entropy in chaos-plan /
/// DES code. Convergence-deadline helpers are allowlisted via analysis.toml.
fn determinism(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        let hit = match id {
            "thread_rng" | "from_entropy" => Some(id.to_string()),
            "now" => {
                let path_now = i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && matches!(toks[i - 3].ident(), Some("Instant") | Some("SystemTime"));
                if path_now {
                    toks[i - 3].ident().map(|p| format!("{p}::now"))
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push(RawFinding {
                lint: "sim-determinism",
                line: t.line,
                message: format!(
                    "`{what}` in deterministic simulation code; chaos plans and DES \
                     scheduling must be pure functions of (schedule, seed) so every \
                     failure reproduces (DESIGN.md \u{a7}8)"
                ),
            });
        }
    }
}

/// (5) durability-wait: in the server crate, any call that blocks on commit
/// durability is a finding, guard or no guard. The multiplexed IO threads
/// sweep whole connection sets; one blocked sweep stalls every connection on
/// that thread, which is exactly the head-of-line blocking the commit
/// pipeline's deferred replies remove (DESIGN.md §11). The sweep must park
/// replies on the commit ticket and let the completer wake the connection.
/// There is no intentional blocking site: settling uses `try_finish` behind
/// the parked batch's completeness check. A new site must be justified in
/// analysis.toml.
fn durability_wait(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_punct('.') {
            continue;
        }
        let method = toks
            .get(i + 1)
            .and_then(|n| n.ident())
            .filter(|_| toks.get(i + 2).is_some_and(|n| n.is_punct('(')));
        if let Some(m) = method.filter(|m| DURABILITY_WAIT_METHODS.contains(m)) {
            let line = toks.get(i + 1).map_or(t.line, |n| n.line);
            out.push(RawFinding {
                lint: "durability-wait",
                line,
                message: format!(
                    "`.{m}()` blocks a server IO thread on commit durability; \
                     the multiplexed sweep must park replies on the commit \
                     ticket and let the completer wake the connection \
                     (DESIGN.md \u{a7}11, paper \u{a7}6 Enhanced-IO)"
                ),
            });
        }
    }
}

/// (8) zero-copy: on the serve-path files, `.to_vec()` anywhere and
/// `.clone()` whose receiver is a command-argument vector or wire buffer
/// ([`CMD_BYTES_IDENTS`], directly or through an index expression) are
/// findings. Each copies bytes the borrowed-decode path deliberately
/// shares, regressing the allocation census (DESIGN.md §15) one
/// "harmless" clone at a time. Intentional copies must be baselined in
/// analysis.toml with a written justification.
fn zero_copy(toks: &[Tok], out: &mut Vec<RawFinding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_punct('.') || i == 0 {
            continue;
        }
        let method = toks
            .get(i + 1)
            .and_then(|n| n.ident())
            .filter(|_| toks.get(i + 2).is_some_and(|n| n.is_punct('(')));
        let Some(m) = method else { continue };
        let line = toks.get(i + 1).map_or(t.line, |n| n.line);
        if m == "to_vec" {
            out.push(RawFinding {
                lint: "zero-copy",
                line,
                message: "`.to_vec()` on the zero-copy serve path copies wire bytes \
                          the borrowed decode deliberately shares; pass `Bytes` \
                          slices through instead (DESIGN.md \u{a7}15)"
                    .to_string(),
            });
            continue;
        }
        if m != "clone" {
            continue;
        }
        // Receiver ident: the token before `.`, walking an index
        // expression (`cmds[i].clone()`) back through its brackets.
        let recv = match &toks[i - 1].kind {
            Ident(id) => Some(id.as_str()),
            Punct(']') => {
                let mut d = 0i32;
                let mut j = i - 1;
                loop {
                    match &toks[j].kind {
                        Punct(']') => d += 1,
                        Punct('[') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                (j > 0).then(|| toks[j - 1].ident()).flatten()
            }
            _ => None,
        };
        if let Some(r) = recv.filter(|r| CMD_BYTES_IDENTS.contains(r)) {
            out.push(RawFinding {
                lint: "zero-copy",
                line,
                message: format!(
                    "`{r}.clone()` deep-copies command bytes on the serve path; \
                     the parse\u{2192}submit pipeline hands arguments around by \
                     reference (refcounted slices of the input chunk) so per-command \
                     allocations stay within the census budget (DESIGN.md \u{a7}15)"
                ),
            });
        }
    }
}

/// (4) concurrency-primitive consistency: `std::sync::Mutex` / `RwLock`
/// paths and use-trees anywhere in non-test code. The workspace mandates
/// parking_lot — no lock poisoning on the serving path, smaller guards.
fn sync_primitives(toks: &[Tok], out: &mut Vec<RawFinding>) {
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let starts_std_sync = !t.in_test
            && t.ident() == Some("std")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).and_then(|n| n.ident()) == Some("sync");
        if !starts_std_sync {
            i += 1;
            continue;
        }
        // Walk the rest of the path / use-tree: idents, `::`, `{`, `}`,
        // `,`, `*`, stopping at `;` or anything else (e.g. `(`).
        let mut j = i + 4;
        while let Some(n) = toks.get(j) {
            match &n.kind {
                Ident(id) if id == "Mutex" || id == "RwLock" || id == "Condvar" => {
                    out.push(RawFinding {
                        lint: "sync-primitives",
                        line: n.line,
                        message: format!(
                            "`std::sync::{id}` in non-test code; the workspace mandates \
                             parking_lot (no poisoning to handle on the serving path, \
                             guards are Send-friendly and smaller)"
                        ),
                    });
                    j += 1;
                }
                Ident(_) | Punct(':') | Punct('{') | Punct('}') | Punct(',') | Punct('*') => {
                    j += 1;
                }
                _ => break,
            }
        }
        i = j;
    }
}

/// A live lock guard: `let`-bound, final call in its initializer was a
/// guard-returning method with an empty argument list.
#[derive(Clone)]
struct Guard {
    name: String,
    depth: i32,
}

/// (2) lock discipline: heuristic dataflow over `let`-bound guards. A guard
/// dies when its enclosing block closes or on `drop(name)`. While any guard
/// is live, a call to a blocking durability/storage method is a violation;
/// a call to an ordered-append method is a finding that must be baselined.
fn lock_discipline(toks: &[Tok], out: &mut Vec<RawFinding>) {
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    // Guards activate only after their `let` statement's semicolon.
    let mut pending: Vec<(usize, Guard)> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        pending.retain(|(at, g)| {
            if *at <= i {
                guards.push(g.clone());
                false
            } else {
                true
            }
        });

        let t = &toks[i];
        match &t.kind {
            Punct('{') => depth += 1,
            Punct('}') => {
                depth -= 1;
                let d = depth;
                guards.retain(|g| g.depth <= d);
                pending.retain(|(_, g)| g.depth <= d);
            }
            Ident(id) if id == "let" && !t.in_test => {
                if let Some(gb) = parse_guard_binding(toks, i, depth) {
                    if gb.is_lock_guard() {
                        pending.push((
                            gb.activate_at,
                            Guard {
                                name: gb.name,
                                depth: gb.guard_depth,
                            },
                        ));
                    }
                }
            }
            Ident(id) if id == "drop" && !t.in_test => {
                // `drop(name)` releases the guard early.
                let name = toks
                    .get(i + 1)
                    .filter(|n| n.is_punct('('))
                    .and_then(|_| toks.get(i + 2))
                    .and_then(|n| n.ident())
                    .filter(|_| toks.get(i + 3).is_some_and(|n| n.is_punct(')')));
                if let Some(name) = name {
                    guards.retain(|g| g.name != name);
                    pending.retain(|(_, g)| g.name != name);
                }
            }
            Punct('.') if !t.in_test && !guards.is_empty() => {
                let method = toks
                    .get(i + 1)
                    .and_then(|n| n.ident())
                    .filter(|_| toks.get(i + 2).is_some_and(|n| n.is_punct('(')));
                if let Some(m) = method {
                    let names: Vec<&str> = guards.iter().map(|g| g.name.as_str()).collect();
                    let names = names.join(", ");
                    let line = toks.get(i + 1).map_or(t.line, |n| n.line);
                    if BLOCKING_METHODS.contains(&m) {
                        out.push(RawFinding {
                            lint: "lock-discipline",
                            line,
                            message: format!(
                                "lock guard(s) `{names}` held across blocking `.{m}()`; \
                                 the engine must never stall on a multi-AZ durability or \
                                 storage wait while locked — drop guards first \
                                 (paper \u{a7}3.2/\u{a7}6, PR-1 group commit)"
                            ),
                        });
                    } else if ORDERED_APPEND_METHODS.contains(&m) {
                        out.push(RawFinding {
                            lint: "lock-discipline",
                            line,
                            message: format!(
                                "lock guard(s) `{names}` held across ordered `.{m}()`; \
                                 append under the engine lock is the log-order = \
                                 execution-order contract (paper \u{a7}3.2) and each site \
                                 must be individually justified in analysis.toml"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// A parsed guard-producing binding. Three shapes are recognised:
///
/// * `let [mut] NAME = <expr ending in .method(...)>;` — live after the `;`.
/// * `let Some(NAME) = <expr>.method(...) else { ... };` — live after the
///   diverging else block's `;` (the else path never sees the guard).
/// * `if let Some(NAME) = <expr>.method(...) {` (also `while let`, and `Ok`
///   as the wrapper) — live only inside the then-block, so `guard_depth` is
///   one deeper than the `let` itself.
///
/// The call must be the *final* expression — this rejects
/// `let role = { let st = self.st.lock(); st.role };` (guard scoped to the
/// block) and `let x = self.st.lock().role;` (guard is a temporary); callers
/// decide guard-ness from the method name and arity (so io::Read's
/// `file.read(&mut buf)` is not mistaken for a lock).
pub(crate) struct GuardBinding {
    pub name: String,
    /// Token index from which the binding is live.
    pub activate_at: usize,
    /// Block depth the guard belongs to, relative to the caller's counter
    /// at the `let` token (if/while-let guards live one level deeper).
    pub guard_depth: i32,
    /// Final method call of the initializer.
    pub method: String,
    /// Absolute token index of that method's ident (so whole-graph passes
    /// can mark the acquisition site as consumed by this binding).
    pub method_idx: usize,
    /// Whether the final call's argument list is empty.
    pub empty_args: bool,
    /// Last path ident before `.method(`, e.g. `self.st.lock()` → `st`.
    pub receiver: Option<String>,
}

impl GuardBinding {
    /// Does this binding hold a lock guard (by method name and arity)?
    pub(crate) fn is_lock_guard(&self) -> bool {
        self.empty_args && GUARD_METHODS.contains(&self.method.as_str())
    }
}

/// How a binding's initializer expression ends.
enum InitEnd {
    /// Plain `let`: `;` at this index.
    Semi(usize),
    /// `let ... else`: the `else` ident at this index.
    Else(usize),
    /// `if let` / `while let` condition: the then-block `{` at this index.
    Brace(usize),
}

pub(crate) fn parse_guard_binding(
    toks: &[Tok],
    let_idx: usize,
    depth: i32,
) -> Option<GuardBinding> {
    let in_cond = let_idx > 0 && matches!(toks[let_idx - 1].ident(), Some("if") | Some("while"));
    let mut j = let_idx + 1;
    if toks.get(j).and_then(|t| t.ident()) == Some("mut") {
        j += 1;
    }
    let first = toks.get(j).and_then(|t| t.ident())?;
    let wrapper =
        matches!(first, "Some" | "Ok") && toks.get(j + 1).is_some_and(|t| t.is_punct('('));
    let (name, eq_idx) = if wrapper {
        let mut k = j + 2;
        if toks.get(k).and_then(|t| t.ident()) == Some("mut") {
            k += 1;
        }
        let n = toks.get(k).and_then(|t| t.ident())?;
        if !toks.get(k + 1)?.is_punct(')') {
            return None; // nested patterns: not handled.
        }
        (n, k + 2)
    } else {
        if in_cond {
            return None; // `if let <other pattern>` never binds a guard here.
        }
        (first, j + 1)
    };
    if name == "_" {
        return None; // `let _ = ...` drops immediately.
    }
    if !toks.get(eq_idx)?.is_punct('=') {
        return None; // tuple patterns, type ascription: not handled.
    }
    let init_start = eq_idx + 1;
    // Find where the initializer ends, at relative bracket depth 0.
    let mut d = 0i32;
    let mut k = init_start;
    let end = loop {
        let t = toks.get(k)?;
        match &t.kind {
            Punct('{') if d == 0 && in_cond => break InitEnd::Brace(k),
            Punct('(') | Punct('[') | Punct('{') => d += 1,
            Punct(')') | Punct(']') | Punct('}') => d -= 1,
            Punct(';') if d == 0 => break InitEnd::Semi(k),
            Ident(id) if d == 0 && id == "else" && !in_cond => break InitEnd::Else(k),
            _ => {}
        }
        k += 1;
    };
    let (tail_end, activate_at, guard_depth) = match end {
        InitEnd::Semi(semi) => {
            if wrapper {
                return None; // refutable pattern without else: not valid Rust.
            }
            (semi, semi + 1, depth)
        }
        InitEnd::Else(els) => {
            if !wrapper {
                return None;
            }
            // Skip the diverging else block, then the terminating `;`.
            if !toks.get(els + 1)?.is_punct('{') {
                return None;
            }
            let mut bd = 0i32;
            let mut m = els + 1;
            let close = loop {
                let t = toks.get(m)?;
                if t.is_punct('{') {
                    bd += 1;
                } else if t.is_punct('}') {
                    bd -= 1;
                    if bd == 0 {
                        break m;
                    }
                }
                m += 1;
            };
            let after = if toks.get(close + 1).is_some_and(|t| t.is_punct(';')) {
                close + 2
            } else {
                close + 1
            };
            (els, after, depth)
        }
        InitEnd::Brace(brace) => {
            if !wrapper {
                return None;
            }
            (brace, brace + 1, depth + 1)
        }
    };
    let tail = &toks[init_start..tail_end];
    let (method, rel_idx, empty_args, receiver) = final_method_call(tail)?;
    Some(GuardBinding {
        name: name.to_string(),
        activate_at,
        guard_depth,
        method,
        method_idx: init_start + rel_idx,
        empty_args,
        receiver,
    })
}

/// If `tail` ends in `.method(...)` (optionally followed by `?`), returns
/// (method, tail-relative index of the method ident, empty-args, receiver
/// ident directly before the `.`, if it is a plain ident).
fn final_method_call(tail: &[Tok]) -> Option<(String, usize, bool, Option<String>)> {
    let tail = match tail.last() {
        Some(t) if t.is_punct('?') => &tail[..tail.len() - 1],
        _ => tail,
    };
    if !tail.last()?.is_punct(')') {
        return None;
    }
    // Walk back to the `(` matching the final `)`; the tokens before it must
    // be `.method`, making the call the initializer's final expression.
    let mut depth = 0i32;
    let mut open = None;
    for (idx, t) in tail.iter().enumerate().rev() {
        match &t.kind {
            Punct(')') | Punct(']') | Punct('}') => depth += 1,
            Punct('(') | Punct('[') | Punct('{') => {
                depth -= 1;
                if depth == 0 {
                    open = Some(idx);
                    break;
                }
            }
            _ => {}
        }
    }
    let open = open?;
    if open < 2 {
        return None;
    }
    let method = tail.get(open - 1)?.ident()?;
    if !tail.get(open - 2)?.is_punct('.') {
        return None;
    }
    let receiver = if open >= 3 {
        tail.get(open - 3)
            .and_then(|t| t.ident())
            .map(str::to_string)
    } else {
        None
    };
    let empty_args = open + 1 == tail.len() - 1;
    Some((method.to_string(), open - 1, empty_args, receiver))
}

// ---------------------------------------------------------------------------
// (6) atomics-ordering
// ---------------------------------------------------------------------------

/// Atomic RMW methods whose `Relaxed` use is always a counter/gauge update:
/// the modification itself is atomic and no cross-thread control flow hangs
/// off the ordering of a statistics increment.
const RELAXED_OK_RMW: &[&str] = &["fetch_add", "fetch_sub", "fetch_max", "fetch_min"];

/// Crates that are statistics/observability or load-driver code by
/// construction — off the serving path, so `Relaxed` is categorically fine.
const RELAXED_OK_SCOPES: &[&str] = &["crates/metrics/", "crates/bench/"];

/// How one `Ordering::Relaxed` site is classified. The census is total:
/// every site in non-test workspace code gets exactly one class, and every
/// `Scrutinized` site is either baselined with a written justification in
/// analysis.toml or a gate-failing finding — no silent passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicClass {
    /// In a stats/bench crate ([`RELAXED_OK_SCOPES`]).
    StatsScope,
    /// A counter/gauge RMW ([`RELAXED_OK_RMW`]).
    CounterRmw,
    /// A load/store/swap/CAS that may gate a cross-thread handoff.
    Scrutinized,
}

impl AtomicClass {
    /// Short census label.
    pub fn label(self) -> &'static str {
        match self {
            AtomicClass::StatsScope => "stats-scope",
            AtomicClass::CounterRmw => "counter-rmw",
            AtomicClass::Scrutinized => "scrutinized",
        }
    }
}

/// One `Ordering::Relaxed` site found in non-test code.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// 1-based source line of the `Relaxed` token.
    pub line: u32,
    /// Receiver ident before `.method(`, or `<expr>` when it is not a plain
    /// ident (chained call, free function).
    pub receiver: String,
    /// The atomic method the ordering parameterizes.
    pub method: String,
    /// Classification (total — every site gets one).
    pub class: AtomicClass,
}

/// Classifies every `Ordering::Relaxed` token in `toks` (non-test code).
pub(crate) fn classify_relaxed_sites(rel: &str, toks: &[Tok]) -> Vec<AtomicSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.ident() != Some("Relaxed") {
            continue;
        }
        let qualified = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].ident() == Some("Ordering");
        if !qualified {
            continue;
        }
        let (method, receiver) = enclosing_atomic_call(toks, i - 3)
            .unwrap_or_else(|| ("<unknown>".to_string(), "<expr>".to_string()));
        let class = if RELAXED_OK_SCOPES.iter().any(|s| rel.starts_with(s)) {
            AtomicClass::StatsScope
        } else if RELAXED_OK_RMW.contains(&method.as_str()) {
            AtomicClass::CounterRmw
        } else {
            AtomicClass::Scrutinized
        };
        out.push(AtomicSite {
            line: t.line,
            receiver,
            method,
            class,
        });
    }
    out
}

/// Walks backwards from the `Ordering` ident to the innermost enclosing call
/// and returns (method, receiver). Stops at a statement boundary.
fn enclosing_atomic_call(toks: &[Tok], ord_idx: usize) -> Option<(String, String)> {
    let mut depth = 0i32;
    let mut j = ord_idx;
    while j > 1 {
        j -= 1;
        match &toks[j].kind {
            Punct(')') | Punct(']') => depth += 1,
            Punct('(') | Punct('[') if depth > 0 => depth -= 1,
            Punct('(') => {
                if let Some(m) = toks[j - 1].ident() {
                    let receiver = (j >= 3 && toks[j - 2].is_punct('.'))
                        .then(|| toks[j - 3].ident())
                        .flatten()
                        .unwrap_or("<expr>");
                    return Some((m.to_string(), receiver.to_string()));
                }
                // A grouping paren, not a call — keep walking outward.
            }
            Punct(';') | Punct('{') | Punct('}') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// (6) atomics-ordering: every `Ordering::Relaxed` outside the stats crates
/// must be a counter RMW; loads/stores/swaps/CAS become findings that need
/// a written justification in analysis.toml (or a stronger ordering).
fn atomics_ordering(rel: &str, toks: &[Tok], out: &mut Vec<RawFinding>) {
    for site in classify_relaxed_sites(rel, toks) {
        if site.class == AtomicClass::Scrutinized {
            out.push(RawFinding {
                lint: "atomics-ordering",
                line: site.line,
                message: format!(
                    "`Ordering::Relaxed` on `{}.{}`: an atomic that gates a \
                     cross-thread handoff needs Release/Acquire so the writer's \
                     prior stores happen-before the reader's loads (the \
                     reply-after-durable chain, DESIGN.md \u{a7}9); counters may \
                     stay Relaxed, every other site needs a written \
                     justification in analysis.toml",
                    site.receiver, site.method
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn lints_for(rel: &str, src: &str) -> Vec<String> {
        lint_tokens(rel, &scan(src))
            .into_iter()
            .map(|f| format!("{}:{}", f.lint, f.line))
            .collect()
    }

    #[test]
    fn unwrap_in_scope_is_flagged_tests_are_not() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn t() { Some(1).unwrap(); } }\n";
        let hits = lints_for("crates/core/src/apply.rs", src);
        assert_eq!(hits, vec!["panic-freedom:1"]);
        // Same code out of scope: nothing.
        assert!(lints_for("crates/core/src/lease.rs", src).is_empty());
    }

    #[test]
    fn indexing_only_on_wire_layer() {
        let src = "fn f(a: &[u8]) -> u8 { a[0] }\n";
        assert_eq!(
            lints_for("crates/resp/src/decode.rs", src),
            vec!["panic-freedom:1"]
        );
        assert!(lints_for("crates/engine/src/exec/strings.rs", src).is_empty());
    }

    #[test]
    fn guard_across_blocking_wait() {
        let src = "fn f(&self) {\n\
                   let st = self.st.lock();\n\
                   self.log.wait_durable(st.id);\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["lock-discipline:3"]
        );
    }

    #[test]
    fn dropped_guard_is_fine() {
        let src = "fn f(&self) {\n\
                   let st = self.st.lock();\n\
                   let id = st.id;\n\
                   drop(st);\n\
                   self.log.wait_durable(id);\n\
                   }\n";
        assert!(lints_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn guard_scoped_to_block_is_fine() {
        let src = "fn f(&self) {\n\
                   let id = { let st = self.st.lock(); st.id };\n\
                   self.log.wait_durable(id);\n\
                   }\n";
        assert!(lints_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn temporary_guard_is_fine() {
        let src = "fn f(&self) {\n\
                   let id = self.st.lock().id;\n\
                   self.log.wait_durable(id);\n\
                   }\n";
        assert!(lints_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn io_read_with_args_is_not_a_guard() {
        let src = "fn f(&self, f: &mut impl std::io::Read, buf: &mut [u8]) {\n\
                   let n = f.read(buf);\n\
                   self.log.wait_durable(0);\n\
                   }\n";
        assert!(lints_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn append_under_guard_is_reported() {
        let src = "fn f(&self) {\n\
                   let mut st = self.st.lock();\n\
                   let ids = self.log.append_after(st.pos, vec![]);\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["lock-discipline:3"]
        );
    }

    #[test]
    fn determinism_scope() {
        let src = "fn gen() { let t = Instant::now(); let r = thread_rng(); }\n";
        assert_eq!(
            lints_for("crates/sim/src/chaos.rs", src),
            vec!["sim-determinism:1", "sim-determinism:1"]
        );
        assert!(lints_for("crates/sim/src/workload.rs", src).is_empty());
    }

    #[test]
    fn durability_wait_flagged_in_server_scope_only() {
        // No guard anywhere — lock-discipline stays silent, but in the
        // server crate the bare blocking call is still a finding.
        let src = "fn settle(&self) {\n\
                   let rs = node.wait_finish(sb);\n\
                   self.log.wait_durable(id);\n\
                   }\n";
        assert_eq!(
            lints_for("crates/server/src/lib.rs", src),
            vec!["durability-wait:2", "durability-wait:3"]
        );
        // The same code outside the server crate is not this lint's business.
        assert!(lints_for("crates/core/src/lease.rs", src).is_empty());
    }

    #[test]
    fn durability_wait_ignores_tests_and_nonblocking_calls() {
        let src = "fn sweep(&self) { let r = node.try_finish(sb); }\n\
                   #[cfg(test)]\nmod tests { fn t() { log.wait_durable(0); } }\n";
        assert!(lints_for("crates/server/src/lib.rs", src).is_empty());
    }

    #[test]
    fn self_flush_under_guard_is_reported() {
        // The submitter-led flush appends to the log on the calling
        // thread; calling it with the engine guard live is a violation, and
        // calling it after the guard drops is the sanctioned shape.
        let src = "fn f(&self) {\n\
                   let engine = self.engine.lock();\n\
                   self.try_self_flush();\n\
                   }\n\
                   fn g(&self) {\n\
                   let engine = self.engine.lock();\n\
                   drop(engine);\n\
                   self.try_self_flush();\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["lock-discipline:3"]
        );
    }

    #[test]
    fn engine_guard_won_by_try_lock_then_rebound_stays_tracked() {
        // The serve path's shape: the guard is bound by the `try_lock`,
        // rebound under the same name through the contended fallback, and
        // ends at `drop(engine)`.
        let src = "fn f(&self) {\n\
                   let engine = self.engine.try_lock();\n\
                   let mut engine = engine.unwrap_or_else(|| self.lock_engine_contended());\n\
                   self.log.wait_durable(id);\n\
                   drop(engine);\n\
                   self.try_self_flush();\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["lock-discipline:4"]
        );
    }

    #[test]
    fn if_let_try_lock_binding_is_a_guard_inside_its_block_only() {
        // `if let Some(g) = m.try_lock()` guards the then-block; after the
        // block closes the same blocking call is fine.
        let src = "fn f(&self) {\n\
                   if let Some(token) = self.flush_token.try_lock() {\n\
                   self.log.wait_durable(id);\n\
                   }\n\
                   self.log.wait_durable(id);\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["lock-discipline:3"]
        );
    }

    #[test]
    fn let_else_try_lock_binding_is_a_guard_after_the_else_block() {
        let src = "fn f(&self) {\n\
                   let Some(token) = self.flush_token.try_lock() else {\n\
                   return;\n\
                   };\n\
                   self.log.wait_durable(id);\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["lock-discipline:5"]
        );
        // The diverging else path itself never holds the guard.
        let src_ok = "fn f(&self) {\n\
                      let Some(token) = self.flush_token.try_lock() else {\n\
                      self.log.wait_durable(id);\n\
                      return;\n\
                      };\n\
                      }\n";
        assert!(lints_for("crates/core/src/x.rs", src_ok).is_empty());
    }

    #[test]
    fn if_let_non_guard_patterns_are_ignored() {
        // `if let Some(v) = map.get(&k)` must not register a guard, and
        // tuple-pattern lets must stay unparsed (no false guards).
        let src = "fn f(&self) {\n\
                   if let Some(v) = self.map.get(&k) {\n\
                   self.log.wait_durable(v);\n\
                   }\n\
                   let (a, b) = self.pair.lock_parts();\n\
                   self.log.wait_durable(a);\n\
                   }\n";
        assert!(lints_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn multi_line_chain_and_turbofish_still_bind_guards() {
        // The guard parser sees tokens, not lines: a chained multi-line
        // `.lock()` and a turbofish with nested generics in the initializer
        // both still end in a guard method call.
        let src = "fn f(&self) {\n\
                   let st = self\n\
                   .state::<Vec<Arc<Inner>>>()\n\
                   .lock();\n\
                   self.log.wait_durable(st.id);\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["lock-discipline:5"]
        );
    }

    #[test]
    fn raw_string_lock_text_does_not_bind_a_guard() {
        let src = "fn f(&self) {\n\
                   let msg = r#\"call .lock() and wait_durable( now\"#;\n\
                   self.log.wait_durable(id);\n\
                   }\n";
        assert!(lints_for("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_counter_rmw_allowed_handoff_flagged() {
        let src = "fn f(&self) {\n\
                   self.ops.fetch_add(1, Ordering::Relaxed);\n\
                   self.shutdown.store(true, Ordering::Relaxed);\n\
                   if self.shutdown.load(Ordering::Relaxed) { return; }\n\
                   }\n";
        assert_eq!(
            lints_for("crates/core/src/x.rs", src),
            vec!["atomics-ordering:3", "atomics-ordering:4"]
        );
        // The same source inside the stats scopes is categorically fine.
        assert!(lints_for("crates/metrics/src/lib.rs", src).is_empty());
        assert!(lints_for("crates/bench/src/alloc_census.rs", src).is_empty());
    }

    #[test]
    fn relaxed_census_is_total_over_sites() {
        let src = "fn f(&self) {\n\
                   self.ops.fetch_add(1, Ordering::Relaxed);\n\
                   self.flag.swap(true, Ordering::Relaxed);\n\
                   self.seq.load(Ordering::SeqCst);\n\
                   }\n";
        let sites = classify_relaxed_sites("crates/core/src/x.rs", &scan(src));
        assert_eq!(sites.len(), 2, "{sites:#?}");
        assert_eq!(sites[0].class, AtomicClass::CounterRmw);
        assert_eq!(sites[0].receiver, "ops");
        assert_eq!(sites[1].class, AtomicClass::Scrutinized);
        assert_eq!(
            (sites[1].receiver.as_str(), sites[1].method.as_str()),
            ("flag", "swap")
        );
    }

    #[test]
    fn serve_path_clone_and_to_vec_flagged_in_scope_only() {
        let src = "fn f(&self) {\n\
                   let owned = cmds[i].clone();\n\
                   let a = args.clone();\n\
                   let v = payload.to_vec();\n\
                   let tx2 = tx.clone();\n\
                   let r2 = run.clone();\n\
                   }\n";
        assert_eq!(
            lints_for("crates/server/src/lib.rs", src),
            vec!["zero-copy:2", "zero-copy:3", "zero-copy:4"]
        );
        // The same code off the serve path is not this lint's business.
        assert!(lints_for("crates/core/src/lease.rs", src).is_empty());
    }

    #[test]
    fn serve_path_clone_lint_skips_tests() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let c = cmds[0].clone(); } }\n";
        assert!(lints_for("crates/resp/src/decode.rs", src).is_empty());
    }

    #[test]
    fn std_sync_mutex_flagged_atomics_fine() {
        let hits = lints_for(
            "crates/core/src/monitor.rs",
            "use std::sync::{Arc, Mutex};\nuse std::sync::atomic::AtomicU64;\n",
        );
        assert_eq!(hits, vec!["sync-primitives:1"]);
    }
}
