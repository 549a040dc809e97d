//! # memorydb-bench — the evaluation-reproduction harness
//!
//! One driver per figure of the paper's §6 plus the ablations DESIGN.md
//! commits to. Each driver returns structured rows; the `src/bin/*`
//! binaries print them as aligned tables and CSV, and the
//! `benches/figures.rs` target (harness = false) runs scaled-down versions
//! under `cargo bench` so every figure regenerates in CI. Latency,
//! throughput and CPU of the real serving path are not measured here: that
//! is `ledger/` (`BENCHMARK.json`). What stays beside the figures are the two
//! count/identity gates that bite on any box, [`alloc_census`] and
//! [`restore_mttr`].
//!
//! | Driver | Paper result |
//! |---|---|
//! | [`fig4`] | Fig 4a/4b — max throughput vs instance type |
//! | [`fig5`] | Fig 5a/5b/5c — latency vs offered throughput (16xlarge) |
//! | [`fig6`] | Fig 6 — Redis BGSave under memory pressure |
//! | [`fig7`] | Fig 7 — MemoryDB off-box snapshotting impact |
//! | [`extras`] | §6.1.2.1 write bandwidth, durability & recovery ablations |
//! | [`restore_mttr`] | Incremental snapshots + parallel restore: MTTR vs dataset size × freshness |
//! | [`chaos_suite`] | Deterministic chaos harness — failover/crash-recovery invariants |
//! | [`alloc_census`] | Zero-copy serve path: allocations-per-command census (runs on 1 core) |

pub mod alloc_census;
pub mod chaos_suite;
pub mod extras;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod output;
pub mod restore_mttr;
