//! Tests the analyzer against the checked-in fixtures: every `positive_*`
//! case must be flagged, every `negative_*` case must stay clean. The
//! fixtures are plain text fed to `analyze_source` under a scoped path —
//! they are never compiled, so they can reference types that do not exist.

use memorydb_analysis::analyze_source;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Every finding must land inside a `positive_*` item; anything else means
/// the lint flagged a negative case.
fn assert_only_positives(findings: &[memorydb_analysis::Finding], src: &str) {
    // Map each line to the most recent `pub fn` name at or above it.
    let mut owner: Vec<Option<&str>> = Vec::new();
    let mut current: Option<&str> = None;
    for line in src.lines() {
        if let Some(rest) = line.trim().strip_prefix("pub fn ") {
            current = rest.split('(').next();
        } else if line.trim().starts_with("#[cfg(test)]") {
            current = Some("test_region");
        }
        owner.push(current);
    }
    for f in findings {
        let who = owner
            .get(f.line.saturating_sub(1) as usize)
            .copied()
            .flatten()
            .unwrap_or("<file header>");
        assert!(
            who.starts_with("positive_"),
            "lint {} flagged line {} inside `{}`: {}",
            f.lint,
            f.line,
            who,
            f.snippet
        );
    }
}

#[test]
fn panic_fixture_flags_all_positive_cases() {
    let src = fixture("panic_unwrap.rs");
    // Linted under a wire-layer path so both the panic and indexing
    // sub-lints apply.
    let findings = analyze_source("crates/resp/src/decode.rs", &src);
    assert_eq!(
        findings.len(),
        5,
        "expected unwrap, expect, panic!, unreachable!, and indexing:\n{findings:#?}"
    );
    assert!(findings.iter().all(|f| f.lint == "panic-freedom"));
    assert_only_positives(&findings, &src);
}

#[test]
fn panic_fixture_indexing_not_flagged_outside_wire_layer() {
    let src = fixture("panic_unwrap.rs");
    // Under an exec path the indexing sub-lint is out of scope: one fewer
    // finding, everything else identical.
    let findings = analyze_source("crates/engine/src/exec/strings.rs", &src);
    assert_eq!(findings.len(), 4, "{findings:#?}");
}

#[test]
fn panic_fixture_silent_outside_any_scope() {
    let src = fixture("panic_unwrap.rs");
    let findings = analyze_source("crates/bench/src/extras.rs", &src);
    assert!(
        findings.is_empty(),
        "panic lints must not fire outside the serving path:\n{findings:#?}"
    );
}

#[test]
fn lock_fixture_flags_guards_across_waits() {
    let src = fixture("lock_across_wait.rs");
    // Lock discipline is workspace-wide: any path works.
    let findings = analyze_source("crates/core/src/anywhere.rs", &src);
    assert_eq!(
        findings.len(),
        3,
        "expected wait_durable, put, and append_after under a live guard:\n{findings:#?}"
    );
    assert!(findings.iter().all(|f| f.lint == "lock-discipline"));
    assert_only_positives(&findings, &src);
}

#[test]
fn determinism_fixture_flags_wall_clock_and_entropy() {
    let src = fixture("nondeterminism.rs");
    let findings = analyze_source("crates/sim/src/chaos.rs", &src);
    assert_eq!(
        findings.len(),
        4,
        "expected Instant::now, SystemTime::now, thread_rng, from_entropy:\n{findings:#?}"
    );
    assert!(findings.iter().all(|f| f.lint == "sim-determinism"));
    assert_only_positives(&findings, &src);

    // The same source is legal outside the deterministic-sim scope.
    assert!(analyze_source("crates/sim/src/workload.rs", &src).is_empty());
}

#[test]
fn std_sync_fixture_flags_mutex_and_rwlock() {
    let src = fixture("std_sync.rs");
    let findings = analyze_source("crates/core/src/monitor.rs", &src);
    // use Mutex, use RwLock, and the two std::sync::Mutex path expressions.
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert!(findings.iter().all(|f| f.lint == "sync-primitives"));
    // Arc/atomic imports on the same lines as nothing; ensure no finding
    // mentions them.
    assert!(findings.iter().all(|f| !f.snippet.contains("Atomic")));
}

#[test]
fn atomics_fixture_classifies_every_relaxed_site() {
    let src = fixture("atomics_relaxed.rs");
    // Workspace-wide outside the stats scopes.
    let findings = analyze_source("crates/core/src/anywhere.rs", &src);
    let atomics: Vec<_> = findings
        .iter()
        .filter(|f| f.lint == "atomics-ordering")
        .collect();
    assert_eq!(
        atomics.len(),
        3,
        "expected handoff load, handoff store, CAS failure ordering:\n{findings:#?}"
    );
    assert_eq!(
        findings.len(),
        3,
        "no other lint may fire here:\n{findings:#?}"
    );
    assert_only_positives(&findings, &src);

    // The same source inside a stats scope is all allowed.
    assert!(
        analyze_source("crates/metrics/src/extra.rs", &src).is_empty(),
        "metrics scope must absorb every Relaxed site"
    );
}

#[test]
fn lock_cycle_fixture_is_flagged_by_the_lockgraph() {
    let src = fixture("lock_cycle.rs");
    let g =
        memorydb_analysis::LockGraph::build(&[("crates/core/src/anywhere.rs".to_string(), src)]);
    let findings = g.cycle_findings();
    // One SCC cycle (alpha <-> beta) + one direct self-loop (gamma).
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.lint == "lock-order"));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("alpha") && f.message.contains("beta")),
        "{findings:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.snippet.contains("gamma -> core.anywhere.gamma")),
        "{findings:#?}"
    );
    // One-way nesting is a plain edge, never a cycle.
    let engine_edge = (
        "core.anywhere.engine".to_string(),
        "core.anywhere.delta".to_string(),
    );
    assert!(g.edges.contains_key(&engine_edge), "{:?}", g.edges.keys());
    assert!(!g
        .cycles()
        .iter()
        .any(|c| c.contains(&"core.anywhere.engine".to_string())));
}

#[test]
fn fixtures_are_excluded_from_the_workspace_walk() {
    let root = memorydb_analysis::workspace_root();
    let findings = memorydb_analysis::analyze_workspace(&root).expect("walk workspace");
    assert!(
        findings.iter().all(|f| !f.file.contains("fixtures/")),
        "fixture files must never reach the real gate"
    );
}
