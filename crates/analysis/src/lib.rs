//! Workspace invariant analyzer for the MemoryDB reproduction.
//!
//! Eight lint families, each protecting one leg of the paper's
//! consistency/availability argument (see DESIGN.md "Enforced invariants"):
//!
//! 1. **panic-freedom** — no `unwrap`/`expect`/panic macros/direct indexing
//!    in non-test serving and apply paths. A primary panic forfeits its
//!    lease and forces failover (paper §5).
//! 2. **lock-discipline** — no lock guard live across a blocking durability
//!    or storage wait (`wait_durable`, `wait_for_entries`, `ObjectStore::put`);
//!    ordered txlog appends under the engine lock are the intentional
//!    log-order = execution-order contract and must be baselined per site.
//! 3. **sim-determinism** — no wall clock or ambient entropy in chaos-plan
//!    and DES code; plans must be pure functions of (schedule, seed).
//! 4. **sync-primitives** — `std::sync::{Mutex,RwLock,Condvar}` forbidden in
//!    non-test code; the workspace mandates `parking_lot`.
//! 5. **durability-wait** — no blocking durability wait in the server crate:
//!    a multiplexed IO thread that blocks in `wait_durable`/`wait_finish`
//!    stalls every connection it sweeps; replies must park on commit tickets
//!    instead (DESIGN.md §11). No site is baselined today.
//! 6. **atomics-ordering** — every `Ordering::Relaxed` site is classified:
//!    metrics/bench scopes and pure counter RMW (`fetch_add` family) are
//!    allowed; `Relaxed` on anything else gates a cross-thread handoff
//!    (released flags, watermark reads, in-flight window observations) and
//!    is a finding unless baselined with a written justification. There is
//!    no silent third bucket: the census in [`WorkspaceAnalysis::atomics`]
//!    is total over sites.
//! 7. **lock-order** — the whole-workspace acquisition graph built by
//!    [`lockgraph`] must be acyclic; each cycle is one potential-deadlock
//!    finding naming the full lock path.
//! 8. **zero-copy** — on the serve-path files (the server's parse→submit
//!    pipeline and the RESP decoder), no `.to_vec()` and no `.clone()` of
//!    command-argument vectors or wire buffers: each copies bytes the
//!    borrowed decode deliberately shares and regresses the allocation
//!    census budget (DESIGN.md §15). Intentional copies are baselined.
//!
//! Exceptions live in the checked-in `analysis.toml` baseline; every entry
//! carries a justification, matches at least one finding (else it is
//! *stale* and the gate fails), and may cap how many findings it absorbs
//! (the ratchet).
//!
//! Dependency-free by design: the hermetic offline build has no `syn` or
//! `toml`, so the analyzer carries its own token scanner and TOML-subset
//! reader. It runs as `cargo run -p memorydb-analysis` and as the tier-1
//! gate in `tests/analysis.rs`.

pub mod baseline;
pub mod lexer;
mod lints;
pub mod lockgraph;

pub use baseline::{parse_baseline, AllowEntry};
pub use lints::{AtomicClass, AtomicSite};
pub use lockgraph::LockGraph;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint hit, attached to a workspace-relative file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint family name ("panic-freedom", "lock-discipline",
    /// "sim-determinism", "sync-primitives", "durability-wait",
    /// "atomics-ordering", "lock-order", "zero-copy").
    pub lint: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Trimmed source line text (what baseline `contains` matches against).
    pub snippet: String,
    /// Human diagnostic including the paper property at stake.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    | {}",
            self.file, self.line, self.lint, self.message, self.snippet
        )
    }
}

/// Lints one source file. `rel` must be the workspace-relative path with
/// forward slashes (it selects which scoped lints apply).
pub fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    let toks = lexer::scan(src);
    let lines: Vec<&str> = src.lines().collect();
    lints::lint_tokens(rel, &toks)
        .into_iter()
        .map(|raw| Finding {
            lint: raw.lint,
            file: rel.to_string(),
            line: raw.line,
            snippet: lines
                .get(raw.line.saturating_sub(1) as usize)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
            message: raw.message,
        })
        .collect()
}

/// Directories never descended into: build output, VCS, vendored fixtures,
/// and test-only trees (the lints target non-test code by definition).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "tests", "benches", "examples"];

/// Walks the workspace and lints every non-test `.rs` file. Files are
/// visited in sorted order so output is deterministic.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        findings.extend(analyze_source(rel, &src));
    }
    Ok(findings)
}

/// Whole-workspace analysis: per-file findings plus the cross-file results
/// (lock-order graph, total `Ordering::Relaxed` census).
pub struct WorkspaceAnalysis {
    /// Per-file lint findings plus one "lock-order" finding per graph cycle.
    pub findings: Vec<Finding>,
    /// The acquisition-order graph (render with `to_dot`/`to_toml`).
    pub graph: LockGraph,
    /// Every non-test `Ordering::Relaxed` site as `(file, site)`, including
    /// the allowed classes — the census is total, nothing passes silently.
    pub atomics: Vec<(String, AtomicSite)>,
}

/// Walks the workspace once and runs everything: per-file lints, the
/// lock-order graph (cycles become findings), and the atomics census.
pub fn analyze_workspace_full(root: &Path) -> std::io::Result<WorkspaceAnalysis> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    let mut findings = Vec::new();
    let mut atomics = Vec::new();
    for (rel, src) in &sources {
        findings.extend(analyze_source(rel, src));
        let toks = lexer::scan(src);
        atomics.extend(
            lints::classify_relaxed_sites(rel, &toks)
                .into_iter()
                .map(|s| (rel.clone(), s)),
        );
    }
    let graph = LockGraph::build(&sources);
    findings.extend(graph.cycle_findings());
    Ok(WorkspaceAnalysis {
        findings,
        graph,
        atomics,
    })
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") && name != "tests.rs" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Result of applying the baseline to a set of findings.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings absorbed by a baseline entry (entry index attached).
    pub allowed: Vec<(Finding, usize)>,
    /// Findings no entry absorbs — these fail the gate.
    pub violations: Vec<Finding>,
    /// Baseline entries that matched nothing — stale, these fail the gate
    /// too (the ratchet: fixing code must also shrink the baseline).
    pub stale: Vec<AllowEntry>,
}

impl Outcome {
    /// True when the gate passes.
    pub fn is_green(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Matches findings against `[[allow]]` entries. First matching entry wins;
/// an entry with `count = N` absorbs at most N findings, the rest stay
/// violations.
pub fn apply_baseline(findings: Vec<Finding>, entries: &[AllowEntry]) -> Outcome {
    let mut used = vec![0usize; entries.len()];
    let mut out = Outcome::default();
    for f in findings {
        let slot = entries.iter().enumerate().position(|(idx, e)| {
            e.lint == f.lint
                && e.path == f.file
                && e.contains
                    .as_deref()
                    .is_none_or(|c| f.snippet.contains(c) || f.message.contains(c))
                && e.count.is_none_or(|cap| used[idx] < cap)
        });
        match slot {
            Some(idx) => {
                used[idx] += 1;
                out.allowed.push((f, idx));
            }
            None => out.violations.push(f),
        }
    }
    for (idx, e) in entries.iter().enumerate() {
        if used[idx] == 0 {
            out.stale.push(e.clone());
        }
    }
    out
}

/// The workspace root, assuming this crate lives at `<root>/crates/analysis`.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Convenience: run the full gate (workspace lints + lock-order graph +
/// baseline) from `root`. Returns the outcome, or error strings when the
/// baseline itself is broken or the tree is unreadable.
pub fn run_gate(root: &Path) -> Result<Outcome, Vec<String>> {
    run_gate_full(root).map(|(outcome, _)| outcome)
}

/// [`run_gate`] plus the cross-file artifacts (graph, atomics census) for
/// callers that render or assert on them.
pub fn run_gate_full(root: &Path) -> Result<(Outcome, WorkspaceAnalysis), Vec<String>> {
    let baseline_path = root.join("analysis.toml");
    let entries = if baseline_path.exists() {
        let src = std::fs::read_to_string(&baseline_path)
            .map_err(|e| vec![format!("cannot read {}: {e}", baseline_path.display())])?;
        parse_baseline(&src)?
    } else {
        Vec::new()
    };
    let analysis = analyze_workspace_full(root)
        .map_err(|e| vec![format!("cannot walk workspace at {}: {e}", root.display())])?;
    let outcome = apply_baseline(analysis.findings.clone(), &entries);
    Ok((outcome, analysis))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, file: &str, snippet: &str) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line: 1,
            snippet: snippet.to_string(),
            message: String::new(),
        }
    }

    fn entry(lint: &str, path: &str, contains: Option<&str>, count: Option<usize>) -> AllowEntry {
        AllowEntry {
            lint: lint.to_string(),
            path: path.to_string(),
            contains: contains.map(str::to_string),
            count,
            reason: "test".to_string(),
            decl_line: 1,
        }
    }

    #[test]
    fn count_caps_matches_and_ratchets() {
        let entries = vec![entry("panic-freedom", "a.rs", None, Some(1))];
        let out = apply_baseline(
            vec![
                finding("panic-freedom", "a.rs", "x.unwrap()"),
                finding("panic-freedom", "a.rs", "y.unwrap()"),
            ],
            &entries,
        );
        assert_eq!(out.allowed.len(), 1);
        assert_eq!(out.violations.len(), 1);
        assert!(out.stale.is_empty());
        assert!(!out.is_green());
    }

    #[test]
    fn unmatched_entry_is_stale() {
        let entries = vec![entry("panic-freedom", "gone.rs", None, None)];
        let out = apply_baseline(vec![], &entries);
        assert_eq!(out.stale.len(), 1);
        assert!(!out.is_green());
    }

    #[test]
    fn contains_filters_snippet() {
        let entries = vec![entry(
            "panic-freedom",
            "a.rs",
            Some("spawn committer"),
            None,
        )];
        let out = apply_baseline(
            vec![
                finding("panic-freedom", "a.rs", ".expect(\"spawn committer\")"),
                finding("panic-freedom", "a.rs", ".expect(\"other\")"),
            ],
            &entries,
        );
        assert_eq!(out.allowed.len(), 1);
        assert_eq!(out.violations.len(), 1);
    }
}
