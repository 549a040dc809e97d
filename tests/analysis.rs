//! Tier-1 invariant gate: runs the workspace analyzer exactly as
//! `cargo run -p memorydb-analysis` does and fails the build on any
//! violation or stale baseline entry. This is what makes the invariant
//! families (panic-freedom, lock-discipline, sim-determinism,
//! sync-primitives, durability-wait, atomics-ordering, zero-copy,
//! lock-order) enforced properties rather than documentation — see
//! DESIGN.md, "Enforced invariants".

use memorydb_analysis::{
    analyze_source, analyze_workspace_full, apply_baseline, parse_baseline, run_gate,
    workspace_root, AtomicClass,
};

#[test]
fn workspace_invariants_hold_and_baseline_is_tight() {
    let root = workspace_root();
    let outcome = match run_gate(&root) {
        Ok(o) => o,
        Err(errors) => panic!("analysis gate could not run:\n{}", errors.join("\n")),
    };

    let mut msg = String::new();
    for f in &outcome.violations {
        msg.push_str(&format!("violation: {f}\n"));
    }
    for e in &outcome.stale {
        // describe() prints the entry's key fields verbatim so the offending
        // [[allow]] block can be found by exact text search.
        msg.push_str(&format!(
            "stale baseline entry (fix merged? remove it): {}\n",
            e.describe()
        ));
    }
    assert!(
        outcome.is_green(),
        "workspace invariant gate failed — run `cargo run -p memorydb-analysis` for details:\n{msg}"
    );
}

/// Every baseline exception must keep its one-line justification and a
/// count cap: an uncapped entry could silently absorb *new* violations of
/// the same shape, defeating the ratchet.
#[test]
fn baseline_entries_are_justified_and_capped() {
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("analysis.toml")).expect("read analysis.toml");
    let entries = parse_baseline(&src).expect("baseline parses");
    assert!(!entries.is_empty(), "expected a non-empty baseline");
    for e in &entries {
        assert!(
            e.reason.trim().len() >= 10,
            "analysis.toml:{}: reason too short to justify anything: {:?}",
            e.decl_line,
            e.reason
        );
        assert!(
            e.count.is_some(),
            "analysis.toml:{}: entry for [{}] {} has no count cap",
            e.decl_line,
            e.lint,
            e.path
        );
    }
}

/// Demonstrates the gate actually bites: seed a violation into a
/// serving-path file and check it surfaces as a finding that no baseline
/// entry absorbs.
#[test]
fn seeded_violation_fails_the_gate() {
    let seeded = r#"
        pub fn handle(frame: Option<u8>) -> u8 {
            frame.unwrap()
        }
    "#;
    let findings = analyze_source("crates/core/src/apply.rs", seeded);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].lint, "panic-freedom");

    let root = workspace_root();
    let src = std::fs::read_to_string(root.join("analysis.toml")).expect("read analysis.toml");
    let entries = parse_baseline(&src).expect("baseline parses");
    let outcome = apply_baseline(findings, &entries);
    assert_eq!(
        outcome.violations.len(),
        1,
        "the shipped baseline must not absorb an arbitrary new unwrap"
    );
}

/// The real workspace's lock acquisition graph must be acyclic and must
/// contain the serving-path locks the commit pipeline is built from. A new
/// cycle is a potential deadlock: fix the acquisition order (the sanctioned
/// order is rendered in DESIGN.md §9) or justify the edge explicitly.
#[test]
fn lock_order_graph_is_acyclic_on_the_real_workspace() {
    let root = workspace_root();
    let analysis = analyze_workspace_full(&root).expect("walk workspace");
    let cycles = analysis.graph.cycles();
    assert!(
        cycles.is_empty(),
        "lock acquisition cycles (potential deadlocks):\n{cycles:#?}"
    );
    for node in [
        "node.engine",
        "node.st",
        "node.flush_token",
        "pipeline.q",
        "pipeline.cq",
        "ticket.inner",
        "txlog.inner",
    ] {
        assert!(
            analysis.graph.nodes.contains(node),
            "serving-path lock `{node}` missing from the graph — did a rename \
             outdate the lockgraph identity table?\nnodes: {:?}",
            analysis.graph.nodes
        );
    }
    // The documented §11 order must appear as real edges.
    for (from, to) in [
        ("node.engine", "node.st"),
        ("node.st", "pipeline.q"),
        ("node.flush_token", "pipeline.q"),
    ] {
        assert!(
            analysis
                .graph
                .edges
                .contains_key(&(from.to_string(), to.to_string())),
            "sanctioned edge {from} -> {to} not observed"
        );
    }
}

/// The atomics census is total: every `Ordering::Relaxed` site in non-test
/// code is classified (stats-scope / counter-rmw / scrutinized) and every
/// scrutinized site must be a finding the baseline either absorbs with a
/// written justification or the gate rejects — there is no silent bucket.
#[test]
fn atomics_census_has_no_silent_passes() {
    let root = workspace_root();
    let analysis = analyze_workspace_full(&root).expect("walk workspace");
    assert!(
        !analysis.atomics.is_empty(),
        "the workspace has Relaxed sites; an empty census means the scanner broke"
    );
    let scrutinized: Vec<_> = analysis
        .atomics
        .iter()
        .filter(|(_, s)| s.class == AtomicClass::Scrutinized)
        .collect();
    let findings: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.lint == "atomics-ordering")
        .collect();
    assert_eq!(
        scrutinized.len(),
        findings.len(),
        "every scrutinized Relaxed site must surface as exactly one finding\n\
         census: {scrutinized:#?}\nfindings: {findings:#?}"
    );
}

/// Named regressions for the handoff atomics the atomics-ordering lint
/// caught and this PR upgraded to Release/Acquire: none of these receivers
/// may ever appear in the Relaxed census again.
#[test]
fn regression_shutdown_and_stop_flags_are_not_relaxed() {
    let root = workspace_root();
    let analysis = analyze_workspace_full(&root).expect("walk workspace");
    for (file, site) in &analysis.atomics {
        // The stats scopes (bench drivers) legitimately poll their local
        // stop flags Relaxed; the regression pins the serving-path ones.
        if site.class == AtomicClass::StatsScope {
            continue;
        }
        assert!(
            site.receiver != "shutdown" && site.receiver != "stop" && site.receiver != "stop2",
            "{file}:{}: `{}.{}` went back to Relaxed — the server/txlog/monitor \
             stop flags gate thread teardown and need Release/Acquire",
            site.line,
            site.receiver,
            site.method
        );
    }
}

#[test]
fn regression_ticket_stamps_are_not_relaxed() {
    let root = workspace_root();
    let analysis = analyze_workspace_full(&root).expect("walk workspace");
    for (file, site) in &analysis.atomics {
        assert!(
            site.receiver != "enqueued_us" && site.receiver != "appended_us",
            "{file}:{}: `{}.{}` went back to Relaxed — the ticket stage stamps \
             are read by the completer across the commit handoff",
            site.line,
            site.receiver,
            site.method
        );
    }
}
