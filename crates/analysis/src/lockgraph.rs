//! Whole-workspace lock-order graph (lint family "lock-order").
//!
//! Every lock acquisition in non-test code becomes a node named after the
//! lock it takes (`node.engine`, `node.st`, `pipeline.q`, `txlog.inner`,
//! ...), and an edge `A -> B` is recorded whenever `B` is acquired — either
//! directly or transitively through a call chain — while `A` is held. A
//! cycle in that graph is a potential deadlock: two threads can enter the
//! cycle at different nodes and wait on each other forever, which on the
//! serving path means the primary stops acking inside its lease and forfeits
//! leadership (paper §5). Cycle findings carry lint `lock-order` and must be
//! fixed or individually baselined in analysis.toml.
//!
//! Approximations, documented because this is a token-level analysis, not a
//! type checker:
//!
//! * **Lock identity is nominal.** A lock is identified by (file, receiver
//!   ident, method); the table in [`lock_node`] maps the workspace's known
//!   serving-path locks to stable names and everything else to
//!   `<crate>.<file-stem>.<receiver>`. Two different mutexes reached through
//!   the same receiver name in one file collapse into one node (safe: it can
//!   only create extra edges, never hide one).
//! * **Calls resolve by name.** A call `f()` under a held lock links to every
//!   workspace `fn f`, same-crate definitions preferred. Collisions can
//!   create spurious edges; ubiquitous names ([`CALL_DENYLIST`]) are skipped,
//!   and self-edges are only believed when the *same function* re-acquires
//!   the node directly (a call-propagated `A -> A` is far more likely a
//!   name collision than a real recursive acquisition).

use crate::lexer::{scan, Tok, TokKind};
use crate::lints::{parse_guard_binding, GUARD_METHODS};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Function names never treated as call-graph edges: ubiquitous names whose
/// workspace definitions would be linked from nearly every call site. Most
/// are std trait/inherent methods a workspace `fn` happens to shadow — e.g.
/// every `atomic.load(..)` would otherwise resolve to `rdb::load` (and
/// `rdb::dump` to the baseline comparator's `dump`), every
/// `Iterator::count`/`::position` to `Histogram::count`/`Node::position`,
/// and `debug_struct(..).finish()` to the consistency checker's `finish`.
const CALL_DENYLIST: &[&str] = &[
    "new",
    "clone",
    "drop",
    "default",
    "from",
    "into",
    "get",
    "set",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "next",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "as_ref",
    "as_mut",
    "to_string",
    "to_vec",
    "contains",
    "clear",
    "take",
    "with_capacity",
    "extend",
    "write_all",
    "flush",
    "read_exact",
    "send",
    "recv",
    "run",
    "main",
    "join",
    "split",
    "parse",
    "encode",
    "decode",
    "execute",
    "finish",
    "load",
    "dump",
    "store",
    "count",
    "position",
    "notify_all",
    "notify_one",
    "wait",
    "wake",
    "lock",
    "try_lock",
    "read",
    "write",
    "upgradable_read",
];

/// Known serving-path locks: (file, receiver) → stable node name. Everything
/// else falls back to `<crate>[.<file-stem>].<receiver>`.
const KNOWN_LOCKS: &[(&str, &str, &str)] = &[
    ("crates/core/src/node.rs", "engine", "node.engine"),
    ("crates/core/src/serve.rs", "engine", "node.engine"),
    ("crates/core/src/node.rs", "st", "node.st"),
    ("crates/core/src/serve.rs", "st", "node.st"),
    ("crates/core/src/commit.rs", "st", "node.st"),
    (
        "crates/core/src/commit.rs",
        "flush_token",
        "node.flush_token",
    ),
    ("crates/core/src/pipeline.rs", "q", "pipeline.q"),
    ("crates/core/src/pipeline.rs", "cq", "pipeline.cq"),
    ("crates/core/src/pipeline.rs", "inner", "ticket.inner"),
    ("crates/txlog/src/service.rs", "inner", "txlog.inner"),
];

/// Names the lock a call site acquires. `None` receiver means the receiver
/// was not a plain ident (a chained call) — named `anon`.
fn lock_node(rel: &str, receiver: Option<&str>) -> String {
    let recv = receiver.unwrap_or("anon");
    for (file, r, name) in KNOWN_LOCKS {
        if *file == rel && *r == recv {
            return (*name).to_string();
        }
    }
    // crates/<crate>/src/<stem>.rs → "<crate>.<stem>.<recv>", with the stem
    // dropped for lib.rs/mod.rs ("server.conn_threads", not "server.lib...").
    let mut segs = rel.split('/');
    let krate = match (segs.next(), segs.next()) {
        (Some("crates"), Some(k)) => k,
        _ => "ws",
    };
    let stem = rel
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("file");
    if stem == "lib" || stem == "mod" {
        format!("{krate}.{recv}")
    } else {
        format!("{krate}.{stem}.{recv}")
    }
}

/// One lock acquisition inside a function body.
struct Acquire {
    line: u32,
    node: String,
    /// Lock nodes already held at this point (innermost function only).
    held: Vec<String>,
}

/// One call to a workspace `fn` name.
struct CallSite {
    line: u32,
    callee: String,
    held: Vec<String>,
}

/// Per-function extraction result.
struct FnInfo {
    name: String,
    file: String,
    krate: String,
    acquires: Vec<Acquire>,
    calls: Vec<CallSite>,
}

/// Where one graph edge was first observed.
#[derive(Debug, Clone)]
pub struct EdgeOrigin {
    pub file: String,
    pub line: u32,
    /// Present when the edge was inferred through a call chain; names the
    /// callee through which the later lock is reachable.
    pub via: Option<String>,
}

/// The acquisition-order graph over named lock nodes.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `(held, acquired)` → first origin observed (files visited in sorted
    /// order, so the origin is deterministic).
    pub edges: BTreeMap<(String, String), EdgeOrigin>,
    /// Every lock node seen, including isolated ones.
    pub nodes: BTreeSet<String>,
}

impl LockGraph {
    /// Builds the graph from `(workspace-relative path, source)` pairs.
    /// Callers must pass files in a deterministic order for stable origins.
    pub fn build(files: &[(String, String)]) -> LockGraph {
        let mut fns: Vec<FnInfo> = Vec::new();
        for (rel, src) in files {
            extract_fns(rel, &scan(src), &mut fns);
        }
        // Name → defining fn indices, for call resolution.
        let mut defs: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            defs.entry(f.name.as_str()).or_default().push(i);
        }
        let resolve = |caller: &FnInfo, callee: &str| -> Vec<usize> {
            let Some(cands) = defs.get(callee) else {
                return Vec::new();
            };
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| fns[i].krate == caller.krate)
                .collect();
            if same_crate.is_empty() {
                cands.clone()
            } else {
                same_crate
            }
        };
        // Transitive lock closure: reach[f] = locks f (or any callee chain)
        // can acquire. Fixpoint over the call-graph approximation.
        let mut reach: Vec<BTreeSet<String>> = fns
            .iter()
            .map(|f| f.acquires.iter().map(|a| a.node.clone()).collect())
            .collect();
        loop {
            let mut changed = false;
            for i in 0..fns.len() {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for c in &fns[i].calls {
                    for j in resolve(&fns[i], &c.callee) {
                        for n in &reach[j] {
                            if !reach[i].contains(n) {
                                add.insert(n.clone());
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    reach[i].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Edges: direct acquisitions under held locks, plus call-propagated
        // ones (skipping self-edges there — likely name collisions).
        let mut g = LockGraph::default();
        for f in &fns {
            for a in &f.acquires {
                g.nodes.insert(a.node.clone());
                for h in &a.held {
                    g.add_edge(h, &a.node, f, a.line, None);
                }
            }
            for c in &f.calls {
                if c.held.is_empty() {
                    continue;
                }
                let mut reachable: BTreeSet<&str> = BTreeSet::new();
                for j in resolve(f, &c.callee) {
                    reachable.extend(reach[j].iter().map(String::as_str));
                }
                for h in &c.held {
                    for b in &reachable {
                        if h == b {
                            continue; // call-propagated self-edge: collision tolerance
                        }
                        g.add_edge(h, b, f, c.line, Some(c.callee.as_str()));
                    }
                }
            }
        }
        g
    }

    fn add_edge(&mut self, from: &str, to: &str, f: &FnInfo, line: u32, via: Option<&str>) {
        self.nodes.insert(from.to_string());
        self.nodes.insert(to.to_string());
        self.edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| EdgeOrigin {
                file: f.file.clone(),
                line,
                via: via.map(str::to_string),
            });
    }

    /// Every cycle, one representative per strongly connected component
    /// (plus direct self-loops), as closed node paths `[a, b, ..., a]`.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (from, to) in self.edges.keys() {
            adj.entry(from).or_default().insert(to);
        }
        let mut out = Vec::new();
        for (from, to) in self.edges.keys() {
            if from == to {
                out.push(vec![from.clone(), to.clone()]);
            }
        }
        for scc in sccs(&adj) {
            if scc.len() < 2 {
                continue;
            }
            if let Some(path) = shortest_cycle_through(&adj, &scc) {
                out.push(path);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Cycle findings for the gate, one per cycle, anchored at the origin of
    /// the cycle's first edge so they can be baselined per file.
    pub fn cycle_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for path in self.cycles() {
            let origin = self
                .edges
                .get(&(path[0].clone(), path[1].clone()))
                .cloned()
                .unwrap_or(EdgeOrigin {
                    file: "<unknown>".to_string(),
                    line: 0,
                    via: None,
                });
            let legs: Vec<String> = path
                .windows(2)
                .map(|w| {
                    let o = self.edges.get(&(w[0].clone(), w[1].clone()));
                    match o {
                        Some(o) => match &o.via {
                            Some(v) => {
                                format!("{} -> {} ({}:{} via {v})", w[0], w[1], o.file, o.line)
                            }
                            None => format!("{} -> {} ({}:{})", w[0], w[1], o.file, o.line),
                        },
                        None => format!("{} -> {}", w[0], w[1]),
                    }
                })
                .collect();
            out.push(Finding {
                lint: "lock-order",
                file: origin.file.clone(),
                line: origin.line,
                snippet: path.join(" -> "),
                message: format!(
                    "potential deadlock: lock acquisition cycle {} — two threads \
                     entering at different nodes can block each other forever, \
                     stalling the primary past its lease (paper \u{a7}5); break the \
                     cycle or justify it in analysis.toml [edges: {}]",
                    path.join(" -> "),
                    legs.join("; ")
                ),
            });
        }
        out
    }

    /// Graphviz dot rendering of the acquisition graph.
    pub fn to_dot(&self) -> String {
        let mut s = String::from(
            "// Lock acquisition order, generated by memorydb-analysis --lockgraph-dot.\n\
             // An edge A -> B means B is acquired while A is held.\n\
             digraph lock_order {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n",
        );
        for n in &self.nodes {
            s.push_str(&format!("  \"{n}\";\n"));
        }
        for ((from, to), o) in &self.edges {
            let label = match &o.via {
                Some(v) => format!("{}:{} via {v}", o.file, o.line),
                None => format!("{}:{}", o.file, o.line),
            };
            s.push_str(&format!("  \"{from}\" -> \"{to}\" [label=\"{label}\"];\n"));
        }
        s.push_str("}\n");
        s
    }

    /// TOML rendering (same subset the baseline reader speaks).
    pub fn to_toml(&self) -> String {
        let mut s = String::from(
            "# Lock acquisition order, generated by memorydb-analysis --lockgraph-toml.\n\
             # An [[edge]] from/to pair means `to` is acquired while `from` is held.\n",
        );
        for ((from, to), o) in &self.edges {
            s.push_str(&format!(
                "\n[[edge]]\nfrom = \"{from}\"\nto = \"{to}\"\nfile = \"{}\"\nline = {}\n",
                o.file, o.line
            ));
            if let Some(v) = &o.via {
                s.push_str(&format!("via = \"{v}\"\n"));
            }
        }
        s
    }
}

/// Strongly connected components (iterative Kosaraju) over the adjacency
/// map; returns each component as a sorted node list.
fn sccs<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (k, vs) in adj {
        nodes.insert(k);
        nodes.extend(vs.iter());
    }
    // Pass 1: finish order.
    let mut finished: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if seen.contains(start) {
            continue;
        }
        // (node, child iterator position) explicit DFS stack.
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(
            start,
            adj.get(start)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default(),
        )];
        seen.insert(start);
        while let Some((n, children)) = stack.last_mut() {
            if let Some(c) = children.pop() {
                if !seen.contains(c) {
                    seen.insert(c);
                    let grand = adj
                        .get(c)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    stack.push((c, grand));
                }
            } else {
                finished.push(n);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph, peel components in reverse finish order.
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, tos) in adj {
        for to in tos {
            radj.entry(to).or_default().insert(from);
        }
    }
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut comps: Vec<Vec<String>> = Vec::new();
    for &n in finished.iter().rev() {
        if comp.contains_key(n) {
            continue;
        }
        let id = comps.len();
        let mut members = Vec::new();
        let mut stack = vec![n];
        comp.insert(n, id);
        while let Some(x) = stack.pop() {
            members.push(x.to_string());
            for &p in radj.get(x).into_iter().flatten() {
                if !comp.contains_key(p) {
                    comp.insert(p, id);
                    stack.push(p);
                }
            }
        }
        members.sort();
        comps.push(members);
    }
    comps
}

/// Shortest closed path through the component's smallest node, constrained
/// to component members (BFS).
fn shortest_cycle_through(
    adj: &BTreeMap<&str, BTreeSet<&str>>,
    scc: &[String],
) -> Option<Vec<String>> {
    let members: BTreeSet<&str> = scc.iter().map(String::as_str).collect();
    let start = scc.first()?.as_str();
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<&str> = Default::default();
    for &n in adj.get(start).into_iter().flatten() {
        if members.contains(n) && !prev.contains_key(n) {
            prev.insert(n, start);
            queue.push_back(n);
        }
    }
    while let Some(n) = queue.pop_front() {
        if n == start {
            break;
        }
        for &m in adj.get(n).into_iter().flatten() {
            if members.contains(m) && !prev.contains_key(m) {
                prev.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    if !prev.contains_key(start) {
        return None; // self-loops handled separately
    }
    let mut path = vec![start.to_string()];
    let mut cur = start;
    loop {
        cur = prev.get(cur)?;
        path.push(cur.to_string());
        if cur == start {
            break;
        }
    }
    path.reverse();
    Some(path)
}

/// Extracts per-function acquisition and call events from one file's tokens.
fn extract_fns(rel: &str, toks: &[Tok], out: &mut Vec<FnInfo>) {
    // Locate every fn body span (skipping test code), innermost-wins.
    struct Span {
        name: String,
        body: (usize, usize),
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_fn = toks[i].ident() == Some("fn") && !toks[i].in_test;
        if !is_fn {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            i += 1;
            continue;
        };
        // Scan the signature for the body `{` (or `;` for bodyless decls).
        let mut j = i + 2;
        let mut body_start = None;
        while let Some(t) = toks.get(j) {
            match &t.kind {
                TokKind::Punct('{') => {
                    body_start = Some(j);
                    break;
                }
                TokKind::Punct(';') => break,
                _ => {}
            }
            j += 1;
        }
        let Some(start) = body_start else {
            i = j + 1;
            continue;
        };
        // Matching close brace.
        let mut depth = 0i32;
        let mut k = start;
        let mut end = None;
        while let Some(t) = toks.get(k) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end = Some(k);
                    break;
                }
            }
            k += 1;
        }
        let Some(end) = end else { break };
        spans.push(Span {
            name: name.to_string(),
            body: (start, end),
        });
        i += 2; // continue inside: nested fns get their own spans
    }
    // Innermost owner per token.
    let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
    for (si, s) in spans.iter().enumerate() {
        for slot in owner.iter_mut().take(s.body.1 + 1).skip(s.body.0) {
            *slot = Some(si);
        }
    }
    let krate = {
        let mut segs = rel.split('/');
        match (segs.next(), segs.next()) {
            (Some("crates"), Some(k)) => k.to_string(),
            _ => "ws".to_string(),
        }
    };
    for (si, s) in spans.iter().enumerate() {
        let mut info = FnInfo {
            name: s.name.clone(),
            file: rel.to_string(),
            krate: krate.clone(),
            acquires: Vec::new(),
            calls: Vec::new(),
        };
        let mut depth = 0i32;
        let mut guards: Vec<LiveGuard> = Vec::new();
        let mut pending: Vec<(usize, LiveGuard)> = Vec::new();
        let mut consumed: BTreeSet<usize> = BTreeSet::new();
        let mut i = s.body.0;
        while i <= s.body.1 {
            if owner[i] != Some(si) {
                i += 1; // nested fn's tokens: its own pass handles them
                continue;
            }
            let t = &toks[i];
            match &t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    let d = depth;
                    guards.retain(|g| g.depth <= d);
                    pending.retain(|(_, g)| g.depth <= d);
                }
                TokKind::Ident(id) if id == "fn" => {
                    i += 2; // skip nested fn keyword + name
                    continue;
                }
                TokKind::Ident(id) if id == "let" && !t.in_test => {
                    if let Some(gb) = parse_guard_binding(toks, i, depth) {
                        if gb.is_lock_guard() {
                            let node = lock_node(rel, gb.receiver.as_deref());
                            record_acquire(&mut info, toks[gb.method_idx].line, &node, &guards);
                            consumed.insert(gb.method_idx);
                            pending.push((
                                gb.activate_at,
                                LiveGuard {
                                    name: gb.name,
                                    node,
                                    depth: gb.guard_depth,
                                },
                            ));
                        }
                    }
                }
                TokKind::Ident(id) if id == "drop" && !t.in_test => {
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
                TokKind::Punct('.') if !t.in_test => {
                    // Temporary (non-let-bound) lock acquisition.
                    let m_idx = i + 1;
                    let method = toks
                        .get(m_idx)
                        .and_then(|n| n.ident())
                        .filter(|_| toks.get(i + 2).is_some_and(|n| n.is_punct('(')));
                    if let Some(m) = method {
                        let empty = toks.get(i + 3).is_some_and(|n| n.is_punct(')'));
                        let acquires =
                            !consumed.contains(&m_idx) && empty && GUARD_METHODS.contains(&m);
                        if acquires {
                            let recv = i.checked_sub(1).and_then(|p| toks[p].ident());
                            let node = lock_node(rel, recv);
                            record_acquire(&mut info, toks[m_idx].line, &node, &guards);
                            consumed.insert(m_idx);
                        }
                    }
                }
                TokKind::Ident(callee) if !t.in_test => {
                    // Call-graph event: ident followed by `(`, not a macro,
                    // not a denylisted or acquisition method.
                    let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                        && !CALL_DENYLIST.contains(&callee.as_str())
                        && i > 0
                        && toks[i - 1].ident() != Some("fn");
                    if is_call {
                        info.calls.push(CallSite {
                            line: t.line,
                            callee: callee.clone(),
                            held: guards.iter().map(|g| g.node.clone()).collect(),
                        });
                    }
                }
                _ => {}
            }
            // Activate pending guards whose activation point has passed.
            let mut a = 0;
            while a < pending.len() {
                if pending[a].0 <= i + 1 {
                    let (_, g) = pending.remove(a);
                    guards.push(g);
                } else {
                    a += 1;
                }
            }
            i += 1;
        }
        if !info.acquires.is_empty() || !info.calls.is_empty() {
            out.push(info);
        }
    }
}

/// A guard variable currently live in the scanned function body.
struct LiveGuard {
    name: String,
    node: String,
    depth: i32,
}

fn record_acquire(info: &mut FnInfo, line: u32, node: &str, guards: &[LiveGuard]) {
    info.acquires.push(Acquire {
        line,
        node: node.to_string(),
        held: guards.iter().map(|g| g.node.clone()).collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> LockGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        LockGraph::build(&owned)
    }

    #[test]
    fn direct_nested_acquisition_is_an_edge() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "pub fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    drop(b);\n    drop(a);\n}\n",
        )]);
        assert!(g
            .edges
            .contains_key(&("demo.a.alpha".to_string(), "demo.a.beta".to_string())));
        assert!(!g
            .edges
            .contains_key(&("demo.a.beta".to_string(), "demo.a.alpha".to_string())));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn opposite_order_in_two_fns_is_a_cycle_finding() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "pub fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\npub fn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        )]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "one SCC cycle expected: {cycles:?}");
        let f = g.cycle_findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "lock-order");
        assert!(f[0].message.contains("demo.a.alpha"));
        assert!(f[0].message.contains("demo.a.beta"));
    }

    #[test]
    fn guard_dropped_before_second_lock_is_not_an_edge() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "pub fn f(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    let b = self.beta.lock();\n}\n",
        )]);
        assert!(g.edges.is_empty(), "edges: {:?}", g.edges);
    }

    #[test]
    fn block_scope_ends_the_hold() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "pub fn f(&self) {\n    {\n        let a = self.alpha.lock();\n    }\n    let b = self.beta.lock();\n}\n",
        )]);
        assert!(g.edges.is_empty(), "edges: {:?}", g.edges);
    }

    #[test]
    fn call_chain_propagates_the_edge() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "pub fn outer(&self) {\n    let a = self.alpha.lock();\n    self.helper();\n}\nfn helper(&self) {\n    let b = self.beta.lock();\n}\n",
        )]);
        let key = ("demo.a.alpha".to_string(), "demo.a.beta".to_string());
        let origin = g.edges.get(&key).expect("call-propagated edge");
        assert_eq!(origin.via.as_deref(), Some("helper"));
    }

    #[test]
    fn direct_self_reacquisition_is_a_self_loop_cycle() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "pub fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.alpha.lock();\n}\n",
        )]);
        let cycles = g.cycles();
        assert_eq!(
            cycles,
            vec![vec!["demo.a.alpha".to_string(), "demo.a.alpha".to_string()]]
        );
    }

    #[test]
    fn test_code_is_skipped() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let a = M.lock();\n        let b = N.lock();\n    }\n}\n",
        )]);
        assert!(g.edges.is_empty() && g.nodes.is_empty(), "{:?}", g.nodes);
    }

    #[test]
    fn dot_and_toml_render_the_edge() {
        let g = graph(&[(
            "crates/demo/src/a.rs",
            "pub fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n",
        )]);
        let dot = g.to_dot();
        assert!(dot.contains("\"demo.a.alpha\" -> \"demo.a.beta\""));
        assert!(dot.contains("crates/demo/src/a.rs:3"));
        let toml = g.to_toml();
        assert!(toml.contains("from = \"demo.a.alpha\""));
        assert!(toml.contains("to = \"demo.a.beta\""));
    }

    #[test]
    fn known_lock_table_names_serving_path_nodes() {
        assert_eq!(lock_node("crates/core/src/node.rs", Some("st")), "node.st");
        assert_eq!(
            lock_node("crates/core/src/serve.rs", Some("engine")),
            "node.engine"
        );
        assert_eq!(
            lock_node("crates/core/src/commit.rs", Some("flush_token")),
            "node.flush_token"
        );
        assert_eq!(
            lock_node("crates/txlog/src/service.rs", Some("inner")),
            "txlog.inner"
        );
        assert_eq!(
            lock_node("crates/server/src/lib.rs", Some("conn_threads")),
            "server.conn_threads"
        );
        assert_eq!(lock_node("crates/demo/src/a.rs", None), "demo.a.anon");
    }
}
