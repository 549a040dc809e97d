//! Core integration tests: durability, elections, failover consistency,
//! snapshots, recovery — the paper's §3–§4 behaviours exercised end to end
//! on the threaded runtime.

use crate::bus::ClusterBus;
use crate::config::ShardConfig;
use crate::node::Node;
use crate::offbox::OffboxSnapshotter;
use crate::record::Record;
use crate::shard::{NodeIdGen, Shard};
use bytes::Bytes;
use memorydb_engine::exec::Role;
use memorydb_engine::{cmd, Frame, SessionState};
use memorydb_metrics::StageId;
use memorydb_objectstore::ObjectStore;
use memorydb_txlog::EntryId;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

fn new_shard(replicas: usize) -> Arc<Shard> {
    Shard::bootstrap(
        0,
        ShardConfig::fast(),
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        replicas,
    )
}

fn bulk(s: &str) -> Frame {
    Frame::Bulk(Bytes::copy_from_slice(s.as_bytes()))
}

/// Waits until a node OTHER than `old_id` is the active primary. The old
/// primary may keep serving until its lease runs out (leases are disjoint,
/// so this never overlaps the successor's reign).
fn wait_for_new_primary(shard: &Shard, old_id: u64) -> Arc<crate::node::Node> {
    let deadline = std::time::Instant::now() + T;
    loop {
        if let Some(p) = shard.primary() {
            if p.id != old_id {
                return p;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no new primary emerged within {T:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn shard_elects_a_primary_and_serves() {
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).expect("a primary must emerge");
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "k", "v"])),
        Frame::ok()
    );
    assert_eq!(primary.handle(&mut session, &cmd(["GET", "k"])), bulk("v"));
    assert_eq!(primary.role(), Role::Primary);
}

#[test]
fn exactly_one_primary_at_bootstrap() {
    let shard = new_shard(2);
    shard.wait_for_primary(T).expect("primary");
    std::thread::sleep(Duration::from_millis(100));
    let primaries = shard
        .nodes()
        .iter()
        .filter(|n| n.role() == Role::Primary)
        .count();
    assert_eq!(primaries, 1, "leader singularity violated");
}

#[test]
fn replicas_converge_and_serve_reads() {
    let shard = new_shard(2);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..50 {
        let r = primary.handle(
            &mut session,
            &cmd(["SET", &format!("k{i}"), &i.to_string()]),
        );
        assert_eq!(r, Frame::ok());
    }
    assert!(shard.wait_replicas_caught_up(T));
    for replica in shard.replicas() {
        let mut s = SessionState::new();
        assert_eq!(replica.handle(&mut s, &cmd(["GET", "k42"])), bulk("42"));
        assert_eq!(replica.handle(&mut s, &cmd(["DBSIZE"])), Frame::Integer(50));
    }
}

#[test]
fn writes_to_replicas_are_redirected() {
    let shard = new_shard(1);
    shard.wait_for_primary(T).unwrap();
    let replica = shard.replicas().into_iter().next().unwrap();
    let mut s = SessionState::new();
    match replica.handle(&mut s, &cmd(["SET", "k", "v"])) {
        Frame::Error(msg) => assert!(msg.starts_with("MOVED"), "got {msg}"),
        other => panic!("expected MOVED, got {other:?}"),
    }
}

/// Panic-freedom regression (analyzer invariant 1): a pipeline containing
/// an empty (zero-argument) command — which a client can produce with a
/// bare `*0\r\n` array — must yield an error frame in its slot and leave
/// the rest of the batch untouched.
#[test]
fn empty_command_in_batch_is_an_error_not_a_panic() {
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).expect("primary");
    let mut session = SessionState::new();
    let batch = vec![
        cmd(["SET", "k", "v"]),
        Vec::new(), // zero-argument command
        cmd(["GET", "k"]),
    ];
    let replies = primary.handle_batch(&mut session, &batch);
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0], Frame::ok());
    assert!(
        matches!(&replies[1], Frame::Error(_)),
        "empty command must error, got {:?}",
        replies[1]
    );
    assert_eq!(replies[2], bulk("v"));

    // The single-command path degrades the same way.
    assert!(matches!(primary.handle(&mut session, &[]), Frame::Error(_)));
}

#[test]
fn acknowledged_writes_survive_failover() {
    // The paper's core durability claim (§2.2 vs §3/4): nothing acknowledged
    // is ever lost across a primary crash + election.
    let shard = new_shard(2);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    let mut acked = Vec::new();
    for i in 0..100 {
        let key = format!("k{i}");
        if primary.handle(&mut session, &cmd(["SET", &key, "v"])) == Frame::ok() {
            acked.push(key);
        }
    }
    let old_id = primary.id;
    primary.crash();
    let new_primary = shard.wait_for_primary(T).expect("failover must complete");
    assert_ne!(new_primary.id, old_id);
    let mut s = SessionState::new();
    for key in &acked {
        assert_eq!(
            new_primary.handle(&mut s, &cmd(["GET", key.as_str()])),
            bulk("v"),
            "acknowledged write to {key} lost across failover"
        );
    }
}

#[test]
fn partitioned_primary_self_demotes_and_new_leader_emerges() {
    // Split-brain scenario (§4.1.3): the old primary is partitioned from
    // the log; it must stop serving at lease end while a replica takes
    // over. Leases stay disjoint, so at no instant do two primaries serve.
    let shard = new_shard(2);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "stable", "1"])),
        Frame::ok()
    );

    shard.ctx().log.set_client_partitioned(primary.id, true);
    // A write now fails (cannot commit) and must NOT be acknowledged.
    let r = primary.handle(&mut session, &cmd(["SET", "lost", "x"]));
    assert!(r.is_error(), "unacknowledged write must error, got {r:?}");

    let new_primary = wait_for_new_primary(&shard, primary.id);
    // The failed write is not visible on the new leader.
    let mut s = SessionState::new();
    assert_eq!(
        new_primary.handle(&mut s, &cmd(["GET", "lost"])),
        Frame::Null
    );
    assert_eq!(
        new_primary.handle(&mut s, &cmd(["GET", "stable"])),
        bulk("1")
    );

    // The old primary demoted and, once healed, rejoins as replica; its
    // stale claim to leadership is fenced by the conditional append.
    shard.ctx().log.set_client_partitioned(primary.id, false);
    let deadline = std::time::Instant::now() + T;
    while primary.role() != Role::Replica && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(primary.role(), Role::Replica);
}

#[test]
fn unacknowledged_write_not_visible_after_demotion() {
    // §3.2: if a commit fails the change must not become visible. The
    // demoted primary rebuilds from the log, discarding the uncommitted
    // mutation.
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "a", "committed"])),
        Frame::ok()
    );
    shard.ctx().log.set_client_partitioned(primary.id, true);
    let r = primary.handle(&mut session, &cmd(["SET", "a", "uncommitted"]));
    assert!(r.is_error());
    shard.ctx().log.set_client_partitioned(primary.id, false);
    // Wait for the rebuild to finish.
    let deadline = std::time::Instant::now() + T;
    loop {
        let mut s = SessionState::new();
        let reply = primary.handle(&mut s, &cmd(["GET", "a"]));
        if reply == bulk("committed") {
            break; // stale value discarded, committed value restored
        }
        assert!(
            std::time::Instant::now() < deadline,
            "demoted primary still serves uncommitted data: {reply:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn reads_of_unpersisted_keys_are_delayed_not_stale() {
    // §3.2 hazard tracking: with a slow log, a read of a freshly written
    // key must wait for the commit; it never returns the pre-write value.
    let cfg = ShardConfig {
        log: memorydb_txlog::LogConfig {
            latency: memorydb_txlog::CommitLatency {
                base: Duration::from_millis(20),
                jitter: Duration::ZERO,
            },
            ..memorydb_txlog::LogConfig::default()
        },
        ..ShardConfig::fast()
    };
    let shard = Shard::bootstrap(
        0,
        cfg,
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    let primary = shard.wait_for_primary(T).unwrap();
    let p2 = Arc::clone(&primary);
    let writer = std::thread::spawn(move || {
        let mut s = SessionState::new();
        let t0 = std::time::Instant::now();
        let r = p2.handle(&mut s, &cmd(["SET", "k", "new"]));
        (r, t0.elapsed())
    });
    // Give the writer a head start so its mutation is staged.
    std::thread::sleep(Duration::from_millis(5));
    let mut s = SessionState::new();
    let t0 = std::time::Instant::now();
    let read = primary.handle(&mut s, &cmd(["GET", "k"]));
    let read_latency = t0.elapsed();
    let (write_reply, write_latency) = writer.join().unwrap();
    assert_eq!(write_reply, Frame::ok());
    assert!(
        write_latency >= Duration::from_millis(15),
        "write must wait for the multi-AZ commit"
    );
    // The read observed the new value and was delayed by the hazard.
    assert_eq!(read, bulk("new"));
    assert!(
        read_latency >= Duration::from_millis(5),
        "hazardous read returned before the write committed ({read_latency:?})"
    );
    // An unrelated key reads instantly even while writes are in flight.
    let p3 = Arc::clone(&primary);
    let writer2 = std::thread::spawn(move || {
        let mut s = SessionState::new();
        p3.handle(&mut s, &cmd(["SET", "other", "v"]))
    });
    std::thread::sleep(Duration::from_millis(5));
    let t0 = std::time::Instant::now();
    let _ = primary.handle(&mut s, &cmd(["GET", "unrelated"]));
    assert!(t0.elapsed() < Duration::from_millis(15));
    writer2.join().unwrap();
}

#[test]
fn new_replica_restores_from_snapshot_and_log() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..40 {
        primary.handle(
            &mut session,
            &cmd(["SET", &format!("k{i}"), &i.to_string()]),
        );
    }
    // Take an off-box snapshot covering part of the history, then write more.
    let offbox = OffboxSnapshotter::new(
        Arc::clone(shard.ctx()),
        memorydb_engine::EngineVersion::CURRENT,
        9_999,
    );
    let (key, covered) = offbox.create_snapshot(true).expect("off-box snapshot");
    assert!(shard.ctx().store.get(&key).is_ok());
    assert!(covered.0 > 0);
    for i in 40..60 {
        primary.handle(
            &mut session,
            &cmd(["SET", &format!("k{i}"), &i.to_string()]),
        );
    }
    // A new replica restores: snapshot + log suffix (which was trimmed up
    // to the snapshot, so replay alone cannot be enough).
    let replica = shard.add_node();
    assert!(shard.wait_replicas_caught_up(T));
    let mut s = SessionState::new();
    assert_eq!(replica.handle(&mut s, &cmd(["GET", "k10"])), bulk("10"));
    assert_eq!(replica.handle(&mut s, &cmd(["GET", "k55"])), bulk("55"));
    assert_eq!(replica.handle(&mut s, &cmd(["DBSIZE"])), Frame::Integer(60));
}

#[test]
fn offbox_snapshot_verification_rejects_corruption() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..20 {
        primary.handle(&mut session, &cmd(["SET", &format!("k{i}"), "v"]));
    }
    let offbox = OffboxSnapshotter::new(
        Arc::clone(shard.ctx()),
        memorydb_engine::EngineVersion::CURRENT,
        9_999,
    );
    let (key, _) = offbox.create_snapshot(false).unwrap();
    // Corrupt the stored manifest; a fetch (as any restoring replica would
    // do) must fail integrity, not silently load garbage.
    assert!(shard.ctx().store.corrupt_for_test(&key));
    let err = crate::manifest::fetch_latest_image(&shard.ctx().store, &shard.ctx().name, 1);
    assert!(err.is_err(), "corrupted snapshot must not verify");
}

#[test]
fn collaborative_leadership_transfer() {
    let shard = new_shard(1);
    let old = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        old.handle(&mut session, &cmd(["SET", "k", "v"])),
        Frame::ok()
    );
    assert!(shard.wait_replicas_caught_up(T));
    let t0 = std::time::Instant::now();
    assert!(old.release_leadership());
    let new = wait_for_new_primary(&shard, old.id);
    // The release lets the replica skip the backoff, so this is much
    // faster than a crash failover.
    assert!(t0.elapsed() < ShardConfig::fast().backoff * 3);
    let mut s = SessionState::new();
    assert_eq!(new.handle(&mut s, &cmd(["GET", "k"])), bulk("v"));
}

#[test]
fn wait_reports_replica_count() {
    let shard = new_shard(2);
    let primary = shard.wait_for_primary(T).unwrap();
    std::thread::sleep(Duration::from_millis(80)); // let heartbeats land
    let mut s = SessionState::new();
    match primary.handle(&mut s, &cmd(["WAIT", "0", "0"])) {
        Frame::Integer(n) => assert_eq!(n, 2),
        other => panic!("expected integer, got {other:?}"),
    }
}

#[test]
fn wait_malformed_arguments_are_errors() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut s = SessionState::new();
    let err = |reply: Frame| match reply {
        Frame::Error(msg) => msg,
        other => panic!("expected error, got {other:?}"),
    };
    // Arity: WAIT takes exactly numreplicas + timeout.
    for bad in [
        cmd(["WAIT"]),
        cmd(["WAIT", "0"]),
        cmd(["WAIT", "0", "0", "0"]),
    ] {
        let msg = err(primary.handle(&mut s, &bad));
        assert!(
            msg.contains("wrong number of arguments"),
            "arity error expected, got: {msg}"
        );
    }
    // Non-integer operands.
    for bad in [cmd(["WAIT", "abc", "0"]), cmd(["WAIT", "0", "soon"])] {
        let msg = err(primary.handle(&mut s, &bad));
        assert!(
            msg.contains("not an integer"),
            "integer parse error expected, got: {msg}"
        );
    }
    // Negative timeout.
    let msg = err(primary.handle(&mut s, &cmd(["WAIT", "0", "-5"])));
    assert!(msg.contains("timeout is negative"), "{msg}");
    // A well-formed WAIT still works on the same session afterwards.
    assert!(matches!(
        primary.handle(&mut s, &cmd(["WAIT", "0", "100"])),
        Frame::Integer(_)
    ));
}

#[test]
fn cross_slot_commands_rejected() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut s = SessionState::new();
    // `foo` and `bar` hash to different slots.
    match primary.handle(&mut s, &cmd(["MSET", "foo", "1", "bar", "2"])) {
        Frame::Error(msg) => assert!(msg.starts_with("CROSSSLOT"), "{msg}"),
        other => panic!("expected CROSSSLOT, got {other:?}"),
    }
    // Hash tags keep multi-key commands on one slot.
    assert_eq!(
        primary.handle(&mut s, &cmd(["MSET", "{t}foo", "1", "{t}bar", "2"])),
        Frame::ok()
    );
}

#[test]
fn checksum_probes_validate_on_replicas() {
    let cfg = ShardConfig {
        checksum_probe_every: 5,
        ..ShardConfig::fast()
    };
    let shard = Shard::bootstrap(
        0,
        cfg,
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        1,
    );
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..25 {
        primary.handle(&mut session, &cmd(["SET", &format!("k{i}"), "v"]));
    }
    assert!(shard.wait_replicas_caught_up(T));
    // Replicas verified at least one probe (they halt on mismatch).
    for r in shard.replicas() {
        assert!(r.halted().is_none());
        assert_eq!(r.applied(), shard.ctx().log.committed_tail());
    }
}

#[test]
fn monitoring_replaces_dead_replicas() {
    let shard = new_shard(2);
    shard.wait_for_primary(T).unwrap();
    let monitor = crate::monitor::MonitoringService::new(vec![Arc::clone(&shard)], 2);
    let victim = shard.replicas().into_iter().next().unwrap();
    victim.crash();
    let report = monitor.tick_shard(&shard);
    assert_eq!(report.dead_nodes_replaced, 1);
    assert_eq!(shard.nodes().len(), 3);
    assert!(shard.wait_replicas_caught_up(T));
}

// ---------------------------------------------------------------------------
// Cluster, migration, and scaling (§5.2)
// ---------------------------------------------------------------------------

mod cluster_tests {
    use super::*;
    use crate::client::ClusterClient;
    use crate::cluster::Cluster;
    use crate::migration::{migrate_slot, resume_migration};
    use memorydb_engine::key_hash_slot;

    #[test]
    fn cluster_routes_by_slot() {
        let cluster = Cluster::launch(ShardConfig::fast(), 2, 0);
        for shard in cluster.shards() {
            shard.wait_for_primary(T).unwrap();
        }
        let mut client = ClusterClient::new(Arc::clone(&cluster));
        // Keys spread across both shards.
        for i in 0..30 {
            let key = format!("key:{i}");
            assert_eq!(client.command(["SET", key.as_str(), "v"]), Frame::ok());
        }
        for i in 0..30 {
            let key = format!("key:{i}");
            assert_eq!(client.command(["GET", key.as_str()]), bulk("v"));
        }
        // Both shards actually hold data.
        let counts: Vec<usize> = cluster
            .shards()
            .iter()
            .map(|s| s.wait_for_primary(T).unwrap().key_count())
            .collect();
        assert!(counts.iter().all(|c| *c > 0), "distribution {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 30);
    }

    #[test]
    fn slot_map_covers_all_slots() {
        let cluster = Cluster::launch(ShardConfig::fast(), 3, 0);
        for shard in cluster.shards() {
            shard.wait_for_primary(T).unwrap();
        }
        let map = cluster.slot_map();
        let covered: usize = map.iter().map(|(lo, hi, _)| (hi - lo + 1) as usize).sum();
        assert_eq!(covered, 16384);
    }

    #[test]
    fn migrate_slot_moves_data_and_ownership() {
        let cluster = Cluster::launch(ShardConfig::fast(), 1, 0);
        let source = cluster.shards()[0].clone();
        source.wait_for_primary(T).unwrap();
        let target = cluster.create_shard(Vec::new(), 0);
        target.wait_for_primary(T).unwrap();

        let mut client = ClusterClient::new(Arc::clone(&cluster));
        let slot = key_hash_slot(b"{tag}");
        for i in 0..20 {
            let key = format!("{{tag}}k{i}");
            assert_eq!(
                client.command(["SET", key.as_str(), &i.to_string()]),
                Frame::ok()
            );
        }
        migrate_slot(&source, &target, slot).expect("migration");

        // Ownership moved, data moved, source deleted its copy.
        let sp = source.wait_for_primary(T).unwrap();
        let tp = target.wait_for_primary(T).unwrap();
        assert!(!sp.owns_slot(slot));
        assert!(tp.owns_slot(slot));
        assert_eq!(sp.slot_keys(slot).len(), 0);
        assert_eq!(tp.slot_keys(slot).len(), 20);

        // The client follows the MOVED redirect transparently.
        assert_eq!(client.command(["GET", "{tag}k7"]), bulk("7"));
        assert_eq!(client.command(["SET", "{tag}new", "x"]), Frame::ok());
        assert_eq!(tp.slot_keys(slot).len(), 21);
    }

    #[test]
    fn migration_under_concurrent_writes_loses_nothing() {
        let cluster = Cluster::launch(ShardConfig::fast(), 1, 0);
        let source = cluster.shards()[0].clone();
        source.wait_for_primary(T).unwrap();
        let target = cluster.create_shard(Vec::new(), 0);
        target.wait_for_primary(T).unwrap();
        let slot = key_hash_slot(b"{mig}");

        // Writer hammers the slot while the migration runs.
        let cluster2 = Arc::clone(&cluster);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut client = ClusterClient::new(cluster2);
            let mut acked = Vec::new();
            let mut i = 0;
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                let key = format!("{{mig}}k{i}");
                if client.command(["SET", key.as_str(), "v"]) == Frame::ok() {
                    acked.push(key);
                }
                i += 1;
            }
            acked
        });
        std::thread::sleep(Duration::from_millis(30));
        migrate_slot(&source, &target, slot).expect("migration under load");
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let acked = writer.join().unwrap();
        assert!(!acked.is_empty());

        // Every acknowledged write is present on the new owner.
        let mut client = ClusterClient::new(Arc::clone(&cluster));
        for key in &acked {
            assert_eq!(
                client.command(["GET", key.as_str()]),
                bulk("v"),
                "acknowledged write {key} lost in migration"
            );
        }
    }

    #[test]
    fn resume_migration_completes_or_aborts() {
        let cluster = Cluster::launch(ShardConfig::fast(), 1, 0);
        let source = cluster.shards()[0].clone();
        let sp = source.wait_for_primary(T).unwrap();
        let target = cluster.create_shard(Vec::new(), 0);
        let tp = target.wait_for_primary(T).unwrap();
        let slot = key_hash_slot(b"{r}");

        // Simulate a crash after Prepare but before Commit.
        sp.commit_record(&crate::record::Record::MigrationPrepare {
            slot,
            target: target.id,
        })
        .unwrap();
        resume_migration(&source, &target, slot).unwrap();
        assert!(sp.owns_slot(slot), "abort path keeps source ownership");
        assert!(sp.ctx().log.committed_tail().0.checked_sub(1).is_some());

        // Simulate a crash after Commit but before Done.
        sp.commit_record(&crate::record::Record::MigrationPrepare {
            slot,
            target: target.id,
        })
        .unwrap();
        tp.commit_record(&crate::record::Record::MigrationCommit {
            slot,
            source: source.id,
        })
        .unwrap();
        resume_migration(&source, &target, slot).unwrap();
        assert!(!sp.owns_slot(slot), "completion path releases source");
        assert!(tp.owns_slot(slot));
    }

    #[test]
    fn scale_out_rebalances() {
        let cluster = Cluster::launch(ShardConfig::fast(), 1, 0);
        cluster.shards()[0].wait_for_primary(T).unwrap();
        let mut client = ClusterClient::new(Arc::clone(&cluster));
        for i in 0..40 {
            assert_eq!(client.command(["SET", &format!("k{i}"), "v"]), Frame::ok());
        }
        // Scaling all 8192 slots one by one is slow; move a small share by
        // migrating a handful of slots directly instead, then verify the
        // cluster still serves everything.
        let new_shard = cluster.create_shard(Vec::new(), 0);
        new_shard.wait_for_primary(T).unwrap();
        let donor = cluster.shards()[0].clone();
        let mut moved = 0;
        for slot in 0u16..64 {
            migrate_slot(&donor, &new_shard, slot).unwrap();
            moved += 1;
        }
        assert_eq!(moved, 64);
        for i in 0..40 {
            assert_eq!(client.command(["GET", &format!("k{i}")]), bulk("v"));
        }
        let np = new_shard.wait_for_primary(T).unwrap();
        assert_eq!(np.owned_ranges(), vec![(0, 63)]);
    }

    #[test]
    fn replica_scaling_up_and_down() {
        let shard = new_shard(0);
        let primary = shard.wait_for_primary(T).unwrap();
        let mut session = SessionState::new();
        for i in 0..10 {
            primary.handle(&mut session, &cmd(["SET", &format!("k{i}"), "v"]));
        }
        // Scale up: new replica restores and serves.
        let r1 = shard.add_node();
        let _r2 = shard.add_node();
        assert!(shard.wait_replicas_caught_up(T));
        assert_eq!(shard.replicas().len(), 2);
        let mut s = SessionState::new();
        assert_eq!(r1.handle(&mut s, &cmd(["GET", "k3"])), bulk("v"));
        // Scale down.
        shard.remove_replica().unwrap();
        assert_eq!(shard.replicas().len(), 1);
    }

    #[test]
    fn n_plus_one_node_replacement() {
        let cluster = Cluster::launch(ShardConfig::fast(), 1, 1);
        let shard = cluster.shards()[0].clone();
        let old_primary = shard.wait_for_primary(T).unwrap();
        let mut client = ClusterClient::new(Arc::clone(&cluster));
        for i in 0..10 {
            assert_eq!(client.command(["SET", &format!("k{i}"), "v"]), Frame::ok());
        }
        let old_ids: Vec<u64> = shard.nodes().iter().map(|n| n.id).collect();
        cluster
            .replace_all_nodes(shard.id)
            .expect("rolling replacement");
        let new_ids: Vec<u64> = shard.nodes().iter().map(|n| n.id).collect();
        assert!(new_ids.iter().all(|id| !old_ids.contains(id)));
        assert!(!old_primary.is_alive());
        // Data survived the full fleet replacement.
        for i in 0..10 {
            assert_eq!(client.command(["GET", &format!("k{i}")]), bulk("v"));
        }
    }
}

// ---------------------------------------------------------------------------
// Availability and expiry under infrastructure faults
// ---------------------------------------------------------------------------

#[test]
fn active_expiry_propagates_to_replicas_without_access() {
    // A key with a TTL disappears on primary AND replicas without anyone
    // touching it: the primary's background cycle logs explicit DELs.
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "ephemeral", "v", "PX", "80"])),
        Frame::ok()
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "stays", "v"])),
        Frame::ok()
    );
    assert!(shard.wait_replicas_caught_up(T));
    let replica = shard.replicas().into_iter().next().unwrap();
    assert_eq!(replica.key_count(), 2);
    // Wait past the TTL plus a few ticks for the background cycle.
    let deadline = std::time::Instant::now() + T;
    loop {
        if primary.key_count() == 1 && replica.key_count() == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "active expiry did not propagate: primary={} replica={}",
            primary.key_count(),
            replica.key_count()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut s = SessionState::new();
    assert_eq!(replica.handle(&mut s, &cmd(["GET", "stays"])), bulk("v"));
}

#[test]
fn az_outage_stalls_writes_and_recovers() {
    // Bootstrap takes one full backoff (2.5s) before the first campaign.
    // With 2 of 3 AZs down the quorum is unreachable: writes cannot be
    // acknowledged (no availability without durability); reads of clean
    // keys keep working; service resumes when an AZ returns.
    let cfg = ShardConfig {
        // Commit timeout short so the blocked write returns quickly.
        commit_timeout: Duration::from_millis(200),
        // Lease long enough to survive the outage window: renewals also
        // stall, and we don't want a demotion mid-test.
        lease: Duration::from_secs(2),
        renew_interval: Duration::from_millis(100),
        backoff: Duration::from_millis(2_500),
        ..ShardConfig::default()
    };
    let shard = Shard::bootstrap(
        0,
        cfg,
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "pre", "1"])),
        Frame::ok()
    );

    shard.ctx().log.set_az_up(0, false);
    shard.ctx().log.set_az_up(1, false);
    // Write cannot commit → correctly refused.
    let r = primary.handle(&mut session, &cmd(["SET", "during", "x"]));
    assert!(
        r.is_error(),
        "write must not be acknowledged during quorum loss"
    );
    // Clean reads still work (the lease is still valid).
    let mut s = SessionState::new();
    assert_eq!(primary.handle(&mut s, &cmd(["GET", "pre"])), bulk("1"));

    // AZ recovers → quorum restored → writes flow again. The node may have
    // requested demotion after the failed commit; wait for a serving
    // primary and write through it.
    shard.ctx().log.set_az_up(0, true);
    let deadline = std::time::Instant::now() + T;
    loop {
        if let Some(p) = shard.primary() {
            let mut s = SessionState::new();
            if p.handle(&mut s, &cmd(["SET", "post", "2"])) == Frame::ok() {
                assert_eq!(p.handle(&mut s, &cmd(["GET", "post"])), bulk("2"));
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "service did not recover after the AZ returned"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn replica_behind_a_trim_rebuilds_from_snapshot() {
    // A replica partitioned long enough for the log to be trimmed past its
    // position must fall back to a full restore (§4.2.1) and still converge.
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    let replica = shard.replicas().into_iter().next().unwrap();
    let mut session = SessionState::new();
    for i in 0..20 {
        primary.handle(&mut session, &cmd(["SET", &format!("a{i}"), "1"]));
    }
    assert!(shard.wait_replicas_caught_up(T));

    // Freeze the replica, write more, snapshot + trim past its position.
    shard.ctx().log.set_client_partitioned(replica.id, true);
    for i in 0..30 {
        primary.handle(&mut session, &cmd(["SET", &format!("b{i}"), "2"]));
    }
    let offbox = OffboxSnapshotter::new(
        Arc::clone(shard.ctx()),
        memorydb_engine::EngineVersion::CURRENT,
        9_998,
    );
    offbox.create_snapshot(true).unwrap();
    assert!(shard.ctx().log.first_available() > replica.applied());

    // Heal: the replica hits Trimmed, rebuilds, and catches up.
    shard.ctx().log.set_client_partitioned(replica.id, false);
    assert!(
        shard.wait_replicas_caught_up(T),
        "rebuild after trim failed"
    );
    let mut s = SessionState::new();
    assert_eq!(replica.handle(&mut s, &cmd(["GET", "a5"])), bulk("1"));
    assert_eq!(replica.handle(&mut s, &cmd(["GET", "b29"])), bulk("2"));
    assert_eq!(replica.handle(&mut s, &cmd(["DBSIZE"])), Frame::Integer(50));
}

#[test]
fn monitor_schedules_snapshots_when_freshness_decays() {
    // §4.2.3 end to end: heavy writes push the log suffix past the
    // threshold; the monitoring pass creates (and trims behind) a snapshot.
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..1500 {
        primary.handle(&mut session, &cmd(["SET", &format!("k{i}"), "v"]));
    }
    let monitor = crate::monitor::MonitoringService::new(vec![Arc::clone(&shard)], 0)
        .with_scheduler(crate::scheduler::SnapshotScheduler {
            min_suffix_bytes: 16 * 1024,
            suffix_to_dataset_ratio: 0.05,
        });
    let report = monitor.tick_shard(&shard);
    assert!(
        report.snapshot_created,
        "freshness decay must trigger a snapshot"
    );
    assert!(
        crate::manifest::newest_restorable_covered(&shard.ctx().store, &shard.ctx().name).is_some()
    );
    // The suffix is now bounded: an immediate second tick does nothing.
    let report2 = monitor.tick_shard(&shard);
    assert!(
        !report2.snapshot_created,
        "fresh snapshot must not be redone"
    );
}

#[test]
fn info_reports_replication_state() {
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    std::thread::sleep(Duration::from_millis(60)); // heartbeats
    let mut s = SessionState::new();
    primary.handle(&mut s, &cmd(["SET", "k", "v"]));
    let info = primary.handle(&mut s, &cmd(["INFO"]));
    let Frame::Bulk(b) = info else {
        panic!("expected bulk INFO")
    };
    let text = String::from_utf8_lossy(&b).to_string();
    assert!(text.contains("role:master"), "{text}");
    assert!(text.contains("leader_epoch:"), "{text}");
    assert!(text.contains("owned_slots:16384"), "{text}");
    assert!(text.contains("connected_replicas:1"), "{text}");
    assert!(text.contains("halted:no"), "{text}");
    let replica = shard.replicas().into_iter().next().unwrap();
    let info = replica.handle(&mut s, &cmd(["INFO"]));
    let Frame::Bulk(b) = info else {
        panic!("expected bulk INFO")
    };
    let text = String::from_utf8_lossy(&b).to_string();
    assert!(text.contains("role:slave"), "{text}");
    assert!(text.contains("lease_remaining_ms:-1"), "{text}");
}

#[test]
fn scale_in_drains_and_destroys_a_shard() {
    use crate::client::ClusterClient;
    use crate::cluster::Cluster;
    // Shard 0 owns everything; shard 1 owns a small band we then drain.
    let cluster = Cluster::launch(ShardConfig::fast(), 1, 0);
    let donor = cluster.shards()[0].clone();
    donor.wait_for_primary(T).unwrap();
    let small = cluster.create_shard(Vec::new(), 0);
    small.wait_for_primary(T).unwrap();
    for slot in 0u16..12 {
        crate::migration::migrate_slot(&donor, &small, slot).unwrap();
    }
    let mut client = ClusterClient::new(Arc::clone(&cluster));
    // Data lands on both shards.
    let mut keys = Vec::new();
    let mut i = 0u64;
    while keys.len() < 40 {
        let key = format!("k{i}");
        i += 1;
        assert_eq!(client.command(["SET", key.as_str(), "v"]), Frame::ok());
        keys.push(key);
    }
    assert!(
        small.wait_for_primary(T).unwrap().key_count() > 0 || {
            // Ensure at least one key hashed into the small band; force one.
            let forced = (0..)
                .map(|j| format!("f{j}"))
                .find(|k| memorydb_engine::key_hash_slot(k.as_bytes()) < 12)
                .unwrap();
            client.command(["SET", forced.as_str(), "v"]);
            keys.push(forced);
            true
        }
    );

    cluster.scale_in(small.id).expect("scale in");
    assert_eq!(cluster.shards().len(), 1);
    // All data reachable on the surviving shard.
    for key in &keys {
        assert_eq!(client.command(["GET", key.as_str()]), bulk("v"), "{key}");
    }
    let map = cluster.slot_map();
    assert_eq!(map, vec![(0, 16383, donor.id)]);
}

// ---------------------------------------------------------------------------
// Pipelined batch execution (Enhanced-IO): Node::handle_batch
// ---------------------------------------------------------------------------

/// A shard whose lease machinery stays quiet for a while after election
/// (renewals only every 600ms), so the txlog append-call counter mostly
/// isolates the batch under test. The backoff still has to exceed the lease
/// (config invariant), so the first election lands after ~2.25s.
fn quiet_shard(replicas: usize) -> Arc<Shard> {
    Shard::bootstrap(
        0,
        ShardConfig {
            lease: Duration::from_secs(2),
            renew_interval: Duration::from_millis(600),
            backoff: Duration::from_millis(2250),
            ..ShardConfig::fast()
        },
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        replicas,
    )
}

#[test]
fn batch_replies_in_submission_order_and_one_append_call() {
    let shard = quiet_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut s = SessionState::new();

    let mut batch: Vec<Vec<Bytes>> = Vec::new();
    for i in 0..16 {
        batch.push(cmd(["SET", &format!("k{i}"), &format!("v{i}")]));
    }
    batch.push(cmd(["GET", "k7"]));
    batch.push(cmd(["DBSIZE"]));

    let calls_before = shard.ctx().log.append_calls();
    let replies = primary.handle_batch(&mut s, &batch);
    let calls_after = shard.ctx().log.append_calls();

    assert_eq!(replies.len(), 18);
    for r in &replies[..16] {
        assert_eq!(*r, Frame::ok());
    }
    assert_eq!(replies[16], bulk("v7"));
    assert_eq!(replies[17], Frame::Integer(16));
    // Group commit: 16 mutations, ONE conditional append (one quorum ack).
    assert_eq!(calls_after - calls_before, 1, "batch must group-commit");

    // K=1: sequential single-SET batches cannot share a flush, so every
    // command pays exactly one append — none lost, none doubled, no
    // batching delay. The burst starts right behind a lease renewal, so the
    // only other appender is quiet for the next 600 ms.
    let log = &shard.ctx().log;
    let renewed = log.append_calls();
    while log.append_calls() == renewed {
        std::thread::sleep(Duration::from_millis(1));
    }
    let calls_before = log.append_calls();
    for i in 0..200 {
        let one = [cmd(["SET", &format!("s{i}"), "v"])];
        assert_eq!(primary.handle_batch(&mut s, &one), vec![Frame::ok()]);
    }
    assert_eq!(
        log.append_calls() - calls_before,
        200,
        "200 sequential single-SET batches must append exactly once each"
    );
}

/// Cross-connection group commit (the commit pipeline's tentpole claim):
/// M concurrent sessions each submitting pipelined write batches against
/// ONE node must need strictly fewer conditional appends than batches —
/// staged runs from different connections share a flush — while every
/// session still sees its own replies in exact submission order.
///
/// The coalescing round is forced, not hoped for: with the log's commits
/// suspended, self-flushes are accepted only until the quorum pipeline is
/// full; the next flush leader then blocks in its append holding the flush
/// token, and every later first batch stages behind it. On resume the
/// queued runs can only leave in shared appends.
#[test]
fn concurrent_batches_coalesce_appends_and_preserve_per_session_order() {
    const THREADS: usize = 8;
    const BATCHES: usize = 25;
    const DEPTH: usize = 4;

    let shard = quiet_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let log = &shard.ctx().log;
    assert!(
        shard.ctx().cfg.log.quorum_pipeline_depth + 2 < THREADS,
        "the first round must overfill the log's quorum pipeline"
    );
    // Sessions and this thread meet after every first batch has resolved,
    // and again once the round's append count has been read.
    let barrier = Arc::new(std::sync::Barrier::new(THREADS + 1));
    let staged_before = primary.pipeline_inflight().0;
    let calls_before = log.append_calls();
    log.set_commits_suspended(true);

    let mut workers = Vec::new();
    for t in 0..THREADS {
        let primary = Arc::clone(&primary);
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            let mut s = SessionState::new();
            let key = format!("coal-ctr-{t}");
            let mut seen = 0i64;
            for b in 0..BATCHES {
                let batch: Vec<Vec<Bytes>> = (0..DEPTH).map(|_| cmd(["INCR", &key])).collect();
                let replies = primary.handle_batch(&mut s, &batch);
                if b == 0 {
                    // Before any assertion, so a failing session cannot
                    // strand the others at the rendezvous.
                    barrier.wait();
                    barrier.wait();
                }
                assert_eq!(replies.len(), DEPTH);
                // INCR on a session-private key: replies in submission
                // order are exactly the next DEPTH counter values.
                for r in replies {
                    seen += 1;
                    assert_eq!(
                        r,
                        Frame::Integer(seen),
                        "session {t} replies out of submission order"
                    );
                }
            }
        }));
    }

    // One log entry per INCR, and nothing resolves while commits are
    // suspended, so the in-flight window only grows: it reaches this mark
    // exactly when the last session has staged its first batch.
    let all_staged = staged_before + THREADS * DEPTH;
    let staged_by = std::time::Instant::now() + Duration::from_secs(1);
    while primary.pipeline_inflight().0 < all_staged && std::time::Instant::now() < staged_by {
        std::thread::yield_now();
    }
    let staged = primary.pipeline_inflight().0;
    log.set_commits_suspended(false);
    assert!(
        staged >= all_staged,
        "only {staged} of {all_staged} first-round entries staged while suspended"
    );
    barrier.wait();
    let appends = log.append_calls() - calls_before;
    barrier.wait();
    assert!(appends > 0, "writes must reach the log");
    assert!(
        appends < THREADS as u64,
        "staged batches must share appends across connections: \
         {appends} appends for {THREADS} batches"
    );
    for w in workers {
        w.join().expect("coalescing worker panicked");
    }

    // Nothing lost to coalescing: every INCR landed exactly once.
    let mut s = SessionState::new();
    for t in 0..THREADS {
        assert_eq!(
            primary.handle(&mut s, &cmd(["GET", &format!("coal-ctr-{t}")])),
            bulk(&format!("{}", BATCHES * DEPTH))
        );
    }
}

#[test]
fn batch_read_your_writes_within_batch() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut s = SessionState::new();
    let replies = primary.handle_batch(
        &mut s,
        &[
            cmd(["SET", "k", "a"]),
            cmd(["APPEND", "k", "b"]),
            cmd(["GET", "k"]),
        ],
    );
    assert_eq!(replies, vec![Frame::ok(), Frame::Integer(2), bulk("ab")]);
}

#[test]
fn batch_multi_exec_spanning_batch_boundaries() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut s = SessionState::new();

    // MULTI and half the queue arrive in one batch...
    let first = primary.handle_batch(
        &mut s,
        &[cmd(["MULTI"]), cmd(["SET", "t", "1"]), cmd(["INCR", "t"])],
    );
    assert_eq!(first[0], Frame::ok());
    assert_eq!(first[1], Frame::Simple("QUEUED".into()));
    assert_eq!(first[2], Frame::Simple("QUEUED".into()));

    // ...EXEC arrives in the next batch; the transaction is one atomic
    // record and its replies match one-at-a-time execution.
    let second = primary.handle_batch(&mut s, &[cmd(["EXEC"]), cmd(["GET", "t"])]);
    assert_eq!(
        second[0],
        Frame::Array(vec![Frame::ok(), Frame::Integer(2)])
    );
    assert_eq!(second[1], bulk("2"));
}

#[test]
fn batch_watch_conflict_spanning_batches_aborts_exec() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut watcher = SessionState::new();
    let mut writer = SessionState::new();

    let r = primary.handle_batch(&mut watcher, &[cmd(["WATCH", "w"]), cmd(["MULTI"])]);
    assert_eq!(r, vec![Frame::ok(), Frame::ok()]);
    // A different session clobbers the watched key between the batches.
    assert_eq!(
        primary.handle(&mut writer, &cmd(["SET", "w", "clobber"])),
        Frame::ok()
    );
    let r = primary.handle_batch(&mut watcher, &[cmd(["SET", "w", "mine"]), cmd(["EXEC"])]);
    assert_eq!(r[0], Frame::Simple("QUEUED".into()));
    assert_eq!(r[1], Frame::Null, "EXEC must abort on watch conflict");
    // The aborted transaction wrote nothing.
    assert_eq!(
        primary.handle(&mut writer, &cmd(["GET", "w"])),
        bulk("clobber")
    );
}

#[test]
fn batch_error_mid_batch_still_executes_rest() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut s = SessionState::new();
    let replies = primary.handle_batch(
        &mut s,
        &[
            cmd(["SET", "a", "1"]),
            cmd(["MGET", "a", "b"]), // cross-slot: a and b hash differently
            cmd(["INCR", "a"]),
        ],
    );
    assert_eq!(replies.len(), 3);
    assert_eq!(replies[0], Frame::ok());
    match &replies[1] {
        Frame::Error(m) => assert!(m.starts_with("CROSSSLOT"), "{m}"),
        other => panic!("expected CROSSSLOT, got {other:?}"),
    }
    assert_eq!(replies[2], Frame::Integer(2));
}

#[test]
fn batch_matches_one_at_a_time_semantics() {
    let program: Vec<Vec<Bytes>> = vec![
        cmd(["SET", "x", "10"]),
        cmd(["INCRBY", "x", "5"]),
        cmd(["GET", "x"]),
        cmd(["DEL", "x"]),
        cmd(["GET", "x"]),
        cmd(["RPUSH", "l", "a", "b"]),
        cmd(["LRANGE", "l", "0", "-1"]),
    ];

    let shard_a = new_shard(0);
    let pa = shard_a.wait_for_primary(T).unwrap();
    let mut sa = SessionState::new();
    let batched = pa.handle_batch(&mut sa, &program);

    let shard_b = new_shard(0);
    let pb = shard_b.wait_for_primary(T).unwrap();
    let mut sb = SessionState::new();
    let sequential: Vec<Frame> = program.iter().map(|c| pb.handle(&mut sb, c)).collect();

    assert_eq!(batched, sequential);
}

// ---------------------------------------------------------------------------
// Failover & crash-recovery regressions (found/pinned by the chaos harness)
// ---------------------------------------------------------------------------

#[test]
fn fenced_stale_primary_must_not_ack_in_flight_writes() {
    // A primary whose conditional append loses to a competing log writer is
    // fenced (§4.1): the write it was servicing must come back as an error,
    // never +OK, and the value must not exist anywhere afterwards.
    let shard = quiet_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "stable", "1"])),
        Frame::ok()
    );

    // Fence the primary out-of-band: a benign Effects record appended by a
    // foreign writer moves the log tail past the primary's applied position,
    // so its next conditional append must conflict.
    let fence = crate::record::Record::Effects {
        version: memorydb_engine::EngineVersion::CURRENT,
        effects: vec![cmd(["SET", "sneak", "1"])],
    };
    shard
        .ctx()
        .log
        .append(999, fence.encode_framed())
        .expect("foreign append");

    // quiet_shard renews only every 600ms, so this handle call reaches the
    // append path well before the renewal loop notices the fence.
    let r = primary.handle(&mut session, &cmd(["SET", "lost", "x"]));
    match r {
        Frame::Error(m) => assert!(
            m.starts_with("CLUSTERDOWN cannot commit to transaction log"),
            "fenced write must fail the commit path, got: {m}"
        ),
        other => panic!("fenced in-flight write was acknowledged: {other:?}"),
    }

    // Until the rebuild discards the poisoned state, the fenced node must
    // refuse even reads — serving them would expose the uncommitted `lost`
    // value, which then vanishes (a read-then-unread anomaly).
    match primary.handle(&mut session, &cmd(["GET", "lost"])) {
        Frame::Error(m) => assert!(m.starts_with("CLUSTERDOWN"), "{m}"),
        other => panic!("fenced primary served a read: {other:?}"),
    }

    // After the dust settles some primary serves again; the fenced write is
    // nowhere, while both the pre-fence write and the fencing record are.
    let p = shard
        .wait_for_primary(Duration::from_secs(10))
        .expect("recovery");
    let mut s = SessionState::new();
    assert_eq!(p.handle(&mut s, &cmd(["GET", "lost"])), Frame::Null);
    assert_eq!(p.handle(&mut s, &cmd(["GET", "stable"])), bulk("1"));
    assert_eq!(p.handle(&mut s, &cmd(["GET", "sneak"])), bulk("1"));
}

#[test]
fn lease_expiry_mid_batch_rejects_with_clusterdown() {
    // §4.1.3: a primary that cannot renew must stop serving at lease end.
    // The tick here is far larger than the lease, so the node sits in the
    // expired-but-not-yet-demoted window for seconds — exactly the state a
    // client batch can race into — and every command in the batch must be
    // rejected through the CLUSTERDOWN lease path, reads included.
    let cfg = ShardConfig {
        lease: Duration::from_millis(300),
        renew_interval: Duration::from_millis(100),
        backoff: Duration::from_millis(400),
        tick: Duration::from_secs(3),
        ..ShardConfig::fast()
    };
    let shard = Shard::bootstrap(
        0,
        cfg,
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        1,
    );
    let primary = shard.wait_for_primary(Duration::from_secs(10)).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "k", "v"])),
        Frame::ok()
    );

    // The 3s tick means no renewal lands before the 300ms lease runs out;
    // 600ms later the lease is expired but the run loop hasn't demoted yet.
    std::thread::sleep(Duration::from_millis(600));
    let replies = primary.handle_batch(
        &mut session,
        &[
            cmd(["SET", "lost", "x"]),
            cmd(["GET", "k"]),
            cmd(["DEL", "k"]),
        ],
    );
    assert_eq!(replies.len(), 3);
    for r in &replies {
        match r {
            Frame::Error(m) => assert_eq!(
                m, "CLUSTERDOWN leadership lease expired; demoting",
                "expired-lease batch must fail via the lease path"
            ),
            other => panic!("expired-lease primary served a command: {other:?}"),
        }
    }

    // The rejected mutations never happened: a successor still has k and no
    // trace of the poisoned batch.
    let successor = wait_for_new_primary(&shard, primary.id);
    let mut s = SessionState::new();
    assert_eq!(successor.handle(&mut s, &cmd(["GET", "k"])), bulk("v"));
    assert_eq!(successor.handle(&mut s, &cmd(["GET", "lost"])), Frame::Null);
}

#[test]
fn restore_racing_snapshot_trim_retries_from_fresh_snapshot() {
    // §4.2.1 vs §4.2.3: a replica restore that loses its log suffix to a
    // concurrent off-box snapshot + trim must restart from the (necessarily
    // fresher) snapshot and complete — not error out, and never mismatch a
    // checksum. The restoring client is slowed so the snapshot+trim cycle
    // deterministically lands inside its replay window.
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for chunk in 0..7 {
        let batch: Vec<Vec<Bytes>> = (0..100)
            .map(|i| cmd(["SET", &format!("k{}", chunk * 100 + i), "v"]))
            .collect();
        for r in primary.handle_batch(&mut session, &batch) {
            assert_eq!(r, Frame::ok());
        }
    }

    // >700 log entries now; a restore reads them in 512-entry batches, so a
    // delayed reader needs several round trips.
    let restorer_client = 7_777;
    shard
        .ctx()
        .log
        .set_read_delay(restorer_client, Some(Duration::from_millis(80)));
    let ctx = Arc::clone(shard.ctx());
    let restorer = std::thread::spawn(move || {
        let started = std::time::Instant::now();
        let rp = crate::restore::restore_replica(
            &ctx.store,
            &ctx.log,
            restorer_client,
            &ctx.name,
            memorydb_engine::EngineVersion::CURRENT,
            crate::restore::ReplayTarget::Tail,
        );
        (rp, started.elapsed())
    });

    // While the restorer is mid-replay — it found the store empty and is
    // inside its first delayed read — publish a covering snapshot and trim
    // the whole prefix it was reading.
    let delayed_reads = shard.ctx().log.metrics().stage(StageId::ReadDelay);
    while delayed_reads.count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let offbox = OffboxSnapshotter::new(
        Arc::clone(shard.ctx()),
        memorydb_engine::EngineVersion::CURRENT,
        9_998,
    );
    let (_, covered) = offbox.create_snapshot(true).expect("off-box snapshot");
    assert!(shard.ctx().log.first_available() > memorydb_txlog::EntryId::ZERO.next());

    let (rp, took) = restorer.join().unwrap();
    let rp = rp.expect("restore racing a trim must retry from the fresh snapshot");
    shard.ctx().log.set_read_delay(restorer_client, None);
    // Liveness: each 80 ms read outlasts the primary's 50 ms renew interval,
    // so the tail moves on every read; `Tail` stops at the tail it saw when
    // the attempt started instead of chasing the renewals.
    assert!(
        took < Duration::from_secs(10),
        "restore to Tail chased the primary's lease renewals for {took:?}"
    );

    assert!(
        rp.seeded_from.is_some_and(|seed| seed.covered == covered) && rp.rs.applied >= covered,
        "retried restore must start from the trimming snapshot and land at or past it"
    );
    for i in 0..700 {
        assert!(
            rp.engine.db.lookup(format!("k{i}").as_bytes(), 0).is_some(),
            "k{i} missing after trim-raced restore"
        );
    }
}

// ---------------------------------------------------------------------------
// Observability: SLOWLOG / LATENCY / INFO sections at the node level, and
// the EXPIRE overflow fixes replayed through real replication (DESIGN §10).
// ---------------------------------------------------------------------------

/// Map-frame lookup by bulk key (LATENCY HISTOGRAM replies).
fn map_get<'a>(frame: &'a Frame, key: &str) -> Option<&'a Frame> {
    let Frame::Map(pairs) = frame else {
        return None;
    };
    pairs.iter().find_map(|(k, v)| match k {
        Frame::Bulk(b) if b.as_ref() == key.as_bytes() => Some(v),
        _ => None,
    })
}

#[test]
fn expire_overflow_is_rejected_and_delete_on_negative_replicates() {
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "k", "v"])),
        Frame::ok()
    );

    // Overflowing seconds->ms conversion is an error, not a wrapped TTL.
    let huge = (i64::MAX / 1000 + 1).to_string();
    let reply = primary.handle(&mut session, &cmd(["EXPIRE", "k", &huge]));
    let Frame::Error(msg) = &reply else {
        panic!("EXPIRE overflow must error, got {reply:?}");
    };
    assert!(msg.contains("invalid expire time"), "got: {msg}");
    assert_eq!(
        primary.handle(&mut session, &cmd(["TTL", "k"])),
        Frame::Integer(-1)
    );

    // PEXPIREAT at i64::MAX is representable: accepted, key survives.
    assert_eq!(
        primary.handle(
            &mut session,
            &cmd(["PEXPIREAT", "k", &i64::MAX.to_string()])
        ),
        Frame::Integer(1)
    );

    // EXPIRE with a negative TTL deletes — and the DEL effect must reach
    // the replica through the log, not via replica-local clock math.
    assert_eq!(
        primary.handle(&mut session, &cmd(["EXPIRE", "k", "-5"])),
        Frame::Integer(1)
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["GET", "k"])),
        Frame::Null
    );
    assert!(shard.wait_replicas_caught_up(T));
    let replica = shard.replicas().into_iter().next().unwrap();
    let mut s = SessionState::new();
    assert_eq!(replica.handle(&mut s, &cmd(["GET", "k"])), Frame::Null);
    let (p_pos, p_crc) = primary.position();
    let (r_pos, r_crc) = replica.position();
    assert_eq!(
        (p_pos, p_crc),
        (r_pos, r_crc),
        "divergent after EXPIRE fixes"
    );
}

#[test]
fn slowlog_records_commands_and_serves_get_reset_len() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();

    // Threshold 0 records everything; the setting is engine config and is
    // mirrored into the registry right after the CONFIG executes.
    assert_eq!(
        primary.handle(
            &mut session,
            &cmd(["CONFIG", "SET", "slowlog-log-slower-than", "0"])
        ),
        Frame::ok()
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "slow", "cmd"])),
        Frame::ok()
    );

    let len = primary.handle(&mut session, &cmd(["SLOWLOG", "LEN"]));
    let Frame::Integer(n) = len else {
        panic!("SLOWLOG LEN must be an integer, got {len:?}");
    };
    assert!(n >= 1, "threshold 0 must record the SET, got {n}");

    let got = primary.handle(&mut session, &cmd(["SLOWLOG", "GET"]));
    let Frame::Array(entries) = &got else {
        panic!("SLOWLOG GET must be an array, got {got:?}");
    };
    let Some(Frame::Array(fields)) = entries.first() else {
        panic!("expected at least one slowlog entry");
    };
    assert_eq!(fields.len(), 4, "entry = [id, ts, dur_us, args]");
    assert!(matches!(fields.first(), Some(Frame::Integer(_))));
    let Some(Frame::Array(args)) = fields.get(3) else {
        panic!("4th field must be the argv array");
    };
    assert!(!args.is_empty());

    // GET with an explicit count limits; negative count means everything.
    let one = primary.handle(&mut session, &cmd(["SLOWLOG", "GET", "1"]));
    let Frame::Array(one) = one else { panic!() };
    assert_eq!(one.len(), 1);
    let all = primary.handle(&mut session, &cmd(["SLOWLOG", "GET", "-1"]));
    let Frame::Array(all) = all else { panic!() };
    assert!(all.len() as i64 >= n);

    // Disabled threshold records nothing. The CONFIG SET itself still runs
    // under the old threshold (the mirror follows the command), so reset
    // AFTER disabling.
    assert_eq!(
        primary.handle(
            &mut session,
            &cmd(["CONFIG", "SET", "slowlog-log-slower-than", "-1"])
        ),
        Frame::ok()
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["SLOWLOG", "RESET"])),
        Frame::ok()
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["SLOWLOG", "LEN"])),
        Frame::Integer(0)
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "quiet", "1"])),
        Frame::ok()
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["SLOWLOG", "LEN"])),
        Frame::Integer(0)
    );

    // A threshold set on one connection is in force for the next batch of
    // another.
    assert_eq!(
        primary.handle(
            &mut session,
            &cmd(["CONFIG", "SET", "slowlog-log-slower-than", "0"])
        ),
        Frame::ok()
    );
    let mut other = SessionState::new();
    assert_eq!(
        primary.handle(&mut other, &cmd(["SET", "loud", "1"])),
        Frame::ok()
    );
    assert_eq!(
        primary.handle(&mut other, &cmd(["SLOWLOG", "LEN"])),
        Frame::Integer(1)
    );

    let bad = primary.handle(&mut session, &cmd(["SLOWLOG", "NOPE"]));
    assert!(matches!(bad, Frame::Error(_)));
}

#[test]
fn info_sections_and_latency_histogram_reflect_stage_metrics() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "k", "v"])),
        Frame::ok()
    );
    assert_eq!(primary.handle(&mut session, &cmd(["GET", "k"])), bulk("v"));

    let text = |f: &Frame| -> String {
        let Frame::Bulk(b) = f else {
            panic!("INFO must be bulk, got {f:?}")
        };
        String::from_utf8_lossy(b).into_owned()
    };

    // Bare INFO keeps its historic default sections, without stats.
    let full = text(&primary.handle(&mut session, &cmd(["INFO"])));
    for section in [
        "# Server",
        "# Replication",
        "# Cluster",
        "# Keyspace",
        "# Memory",
    ] {
        assert!(full.contains(section), "bare INFO missing {section}");
    }
    assert!(!full.contains("# Stats"));

    // Section filtering.
    let repl = text(&primary.handle(&mut session, &cmd(["INFO", "replication"])));
    assert!(repl.contains("role:master"));
    assert!(!repl.contains("# Server"));

    // stats: dispatch counters from the node registry plus txlog-prefixed
    // counters and gauges from the log's registry.
    let stats = text(&primary.handle(&mut session, &cmd(["INFO", "stats"])));
    assert!(stats.contains("commands_dispatched:"), "{stats}");
    assert!(stats.contains("batches_dispatched:"), "{stats}");
    assert!(stats.contains("txlog_log_committed_tail:"), "{stats}");

    // latencystats: per-stage percentiles; apply/e2e ran, log_append too
    // (the SET committed through the log).
    let lat = text(&primary.handle(&mut session, &cmd(["INFO", "latencystats"])));
    for stage in [
        "apply",
        "e2e",
        "stripe_lock_hold",
        "durability",
        "log_append",
        "quorum_ack",
    ] {
        assert!(
            lat.contains(&format!("latency_percentiles_usec_{stage}:")),
            "latencystats missing {stage}: {lat}"
        );
    }

    // `everything` includes both the default and the stats sections.
    let every = text(&primary.handle(&mut session, &cmd(["INFO", "everything"])));
    assert!(every.contains("# Server") && every.contains("# Stats"));

    // Unknown section: empty bulk, like Redis.
    let unknown = primary.handle(&mut session, &cmd(["INFO", "bogus"]));
    assert_eq!(unknown, Frame::Bulk(Bytes::new()));

    // LATENCY HISTOGRAM: map keyed by stage, node + txlog registries merged.
    let hist = primary.handle(&mut session, &cmd(["LATENCY", "HISTOGRAM"]));
    for stage in ["apply", "e2e", "log_append"] {
        let entry = map_get(&hist, stage)
            .unwrap_or_else(|| panic!("LATENCY HISTOGRAM missing stage {stage}"));
        let calls = map_get(entry, "calls").expect("calls field");
        assert!(
            matches!(calls, Frame::Integer(n) if *n > 0),
            "{stage}: {calls:?}"
        );
        for field in ["p50_us", "p99_us", "p999_us", "max_us", "sum_us"] {
            assert!(map_get(entry, field).is_some(), "{stage} missing {field}");
        }
    }
    assert!(
        map_get(&hist, "io_read").is_none(),
        "no IO recorded in-process"
    );

    assert_eq!(
        primary.handle(&mut session, &cmd(["LATENCY", "RESET"])),
        Frame::Integer(0)
    );
    let bad = primary.handle(&mut session, &cmd(["LATENCY", "NOPE"]));
    assert!(matches!(bad, Frame::Error(_)));
}

// ---------------------------------------------------------------------------
// One engine lock: execution order = fold order = log order (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// Tiny deterministic RNG (xorshift64*): the command stream below must be a
/// pure function of the seed so two shards replay the same program.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Builds a deterministic batch stream that hops across slots: point
/// commands on three disjoint key namespaces (no cross-type collisions, so
/// every reply is deterministic), a FLUSHDB at the midpoint, and periodic
/// MULTI/EXEC transactions whose keys (`foo` slot 12182, `bar` slot 5061,
/// `n0`) hash to different slots.
fn random_multi_slot_program(seed: u64, len: usize) -> Vec<Vec<Vec<Bytes>>> {
    let mut rng = XorShift(seed | 1);
    let mut program = Vec::new();
    for step in 0..len {
        if step == len / 2 {
            program.push(vec![cmd(["FLUSHDB"])]);
            continue;
        }
        let mut batch = Vec::new();
        for _ in 0..=rng.below(2) {
            let k = format!("k{}", rng.below(48));
            batch.push(match rng.below(7) {
                0 | 1 => cmd(["SET", &k, &format!("v{step}")]),
                2 => cmd(["APPEND", &k, "x"]),
                3 => cmd(["INCR", &format!("n{}", rng.below(8))]),
                4 => cmd(["RPUSH", &format!("l{}", rng.below(8)), &k]),
                5 => cmd(["DEL", &k]),
                _ => cmd(["GET", &k]),
            });
        }
        if rng.below(6) == 0 {
            batch.push(cmd(["MULTI"]));
            batch.push(cmd(["SET", "foo", &format!("f{step}")]));
            batch.push(cmd(["SET", "bar", &format!("b{step}")]));
            batch.push(cmd(["INCR", "n0"]));
            batch.push(cmd(["EXEC"]));
        }
        program.push(batch);
    }
    program
}

/// Captures primary and replica until both stand on the same covered entry
/// (lease renewals keep advancing the primary's applied index) and asserts
/// the replica's fold — checksum and byte-exact dump — equals the
/// primary's. Returns that common `(covered, crc, dump)`.
fn assert_replica_matches_primary(primary: &Node, replica: &Node) -> (EntryId, u64, Vec<u8>) {
    let deadline = std::time::Instant::now() + T;
    loop {
        let (p_covered, p_crc, p_dump) = primary.capture_snapshot();
        let (r_covered, r_crc, r_dump) = replica.capture_snapshot();
        if p_covered == r_covered {
            assert_eq!(p_crc, r_crc, "replica fold crc diverged");
            assert_eq!(p_dump, r_dump, "replica dataset diverged");
            return (p_covered, p_crc, p_dump);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "primary and replica never aligned on a covered entry"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Execution order equals fold order equals log order: the dataset the
/// primary folded while serving a seeded multi-slot program (FLUSHDB and
/// MULTI/EXEC included), the one a replica reaches replaying the log, and
/// the one a cold restore rebuilds from the same log on three replay
/// partitions are byte-identical, with equal running checksums.
#[test]
fn primary_fold_matches_replica_replay_and_cold_restore() {
    use crate::restore::{restore_replica_opts, ReplayTarget, RestoreOptions};
    let program = random_multi_slot_program(0xC0FFEE, 60);

    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for (i, batch) in program.iter().enumerate() {
        let replies = primary.handle_batch(&mut session, batch);
        assert!(
            replies.iter().all(|r| !r.is_error()),
            "batch {i} failed: {batch:?} -> {replies:?}"
        );
    }

    assert!(shard.wait_replicas_caught_up(T));
    let replica = shard.replicas().into_iter().next().unwrap();
    let (covered, crc, dump) = assert_replica_matches_primary(&primary, &replica);

    let ctx = shard.ctx();
    let rp = restore_replica_opts(
        &ctx.store,
        &ctx.log,
        91_001,
        &ctx.name,
        memorydb_engine::EngineVersion::CURRENT,
        ReplayTarget::Exactly(covered),
        RestoreOptions { workers: 3 },
    )
    .unwrap();
    assert_eq!(rp.rs.applied, covered);
    assert_eq!(rp.rs.running_crc, crc, "cold restore fold crc diverged");
    assert_eq!(
        memorydb_engine::rdb::dump(&rp.engine.db),
        dump,
        "cold restore dataset diverged"
    );
}

/// Four connections race interleaved single-key and multi-slot batches
/// through `handle_batch_submit`. Every batch pushes its tag onto one list,
/// whose reply (the length after the push) is the batch's place in
/// execution order: the log must hold the pushes in exactly that order —
/// the global statement `flush_runs` asserts — and a replica replaying the
/// log must land on the primary's exact dataset.
#[test]
fn four_connections_log_in_reply_order_and_replica_converges() {
    const THREADS: usize = 4;
    const BATCHES: usize = 40;
    let shard = new_shard(1);
    let primary = shard.wait_for_primary(T).unwrap();
    let start = std::sync::Barrier::new(THREADS);

    // (tag, position the RPUSH reply reported), per connection in
    // submission order.
    let placed: Vec<Vec<(String, i64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (primary, start) = (&primary, &start);
                s.spawn(move || {
                    let mut session = SessionState::new();
                    start.wait();
                    (0..BATCHES)
                        .map(|i| {
                            let tag = format!("{t}:{i}");
                            let push = cmd(["RPUSH", "order", &tag]);
                            // (batch, index of the push in it)
                            let (batch, at) = match i % 3 {
                                0 => (vec![push], 0),
                                1 => (
                                    vec![
                                        cmd(["SET", &format!("k{t}"), &tag]),
                                        push,
                                        cmd(["INCR", &format!("n{i}")]),
                                    ],
                                    1,
                                ),
                                _ => (
                                    vec![
                                        cmd(["MULTI"]),
                                        cmd(["SET", "foo", &tag]),
                                        cmd(["SET", "bar", &tag]),
                                        cmd(["EXEC"]),
                                        push,
                                    ],
                                    4,
                                ),
                            };
                            let sb = primary.handle_batch_submit(&mut session, &batch);
                            let replies = primary.wait_finish(sb);
                            let Frame::Integer(pos) = replies[at] else {
                                panic!("RPUSH reply of {tag}: {replies:?}");
                            };
                            (tag, pos)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The pushes as the log holds them.
    let entries = shard
        .ctx()
        .log
        .read_committed_from(91_002, EntryId::ZERO, 4096)
        .unwrap();
    let logged: Vec<String> = entries
        .iter()
        .filter_map(|e| match Record::decode_framed(&e.payload) {
            Ok(Record::Effects { effects, .. }) => Some(effects),
            _ => None,
        })
        .flatten()
        .filter(|eff| eff.first().is_some_and(|n| &n[..] == b"RPUSH"))
        .map(|eff| String::from_utf8(eff[2].to_vec()).unwrap())
        .collect();
    assert_eq!(logged.len(), THREADS * BATCHES);
    for conn in &placed {
        assert!(
            conn.windows(2).all(|w| w[0].1 < w[1].1),
            "a connection's batches executed out of submission order: {conn:?}"
        );
        for (tag, pos) in conn {
            assert_eq!(
                &logged[*pos as usize - 1],
                tag,
                "reply said position {pos}, the log disagrees"
            );
        }
    }

    assert!(shard.wait_replicas_caught_up(T));
    let replica = shard.replicas().into_iter().next().unwrap();
    assert_replica_matches_primary(&primary, &replica);
}

/// MULTI/EXEC spanning slots commits atomically, and a WATCH on a key of
/// one slot still aborts a transaction whose queued write targets another.
#[test]
fn exec_across_slots_is_atomic_and_watch_aborts_across_slots() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    let queued = Frame::Simple("QUEUED".into());

    // foo (slot 12182) and bar (slot 5061) hash to different slots.
    let replies = primary.handle_batch(
        &mut session,
        &[
            cmd(["MULTI"]),
            cmd(["SET", "foo", "F"]),
            cmd(["SET", "bar", "B"]),
            cmd(["EXEC"]),
        ],
    );
    assert_eq!(
        replies,
        vec![
            Frame::ok(),
            queued.clone(),
            queued.clone(),
            Frame::Array(vec![Frame::ok(), Frame::ok()]),
        ]
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["GET", "foo"])),
        bulk("F")
    );
    assert_eq!(
        primary.handle(&mut session, &cmd(["GET", "bar"])),
        bulk("B")
    );

    // WATCH a key, queue a write to a key of another slot, then let a
    // second session clobber the watched key: EXEC must abort (null reply)
    // and the queued write must not land.
    assert_eq!(
        primary.handle(&mut session, &cmd(["WATCH", "foo"])),
        Frame::ok()
    );
    assert_eq!(primary.handle(&mut session, &cmd(["MULTI"])), Frame::ok());
    assert_eq!(
        primary.handle(&mut session, &cmd(["SET", "bar", "stale"])),
        queued
    );
    let mut other = SessionState::new();
    assert_eq!(
        primary.handle(&mut other, &cmd(["SET", "foo", "clobbered"])),
        Frame::ok()
    );
    assert_eq!(primary.handle(&mut session, &cmd(["EXEC"])), Frame::Null);
    assert_eq!(
        primary.handle(&mut session, &cmd(["GET", "bar"])),
        bulk("B")
    );
}

/// One SCAN pass returns every key that existed when it began exactly
/// once and ends on cursor `0`, while another connection keeps adding and
/// overwriting keys between the pages.
#[test]
fn scan_visits_every_key_once_while_another_connection_writes() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..100 {
        assert_eq!(
            primary.handle(&mut session, &cmd(["SET", &format!("k{i}"), "v"])),
            Frame::ok()
        );
    }

    let mut writer = SessionState::new();
    let mut seen = std::collections::BTreeMap::<String, usize>::new();
    let mut cursor = String::from("0");
    for round in 0..200 {
        let reply = primary.handle(&mut session, &cmd(["SCAN", &cursor, "COUNT", "7"]));
        let Frame::Array(items) = reply else {
            panic!("SCAN must return [cursor, keys]")
        };
        let [cur, keys] = items.as_slice() else {
            panic!("SCAN reply must have two elements, got {items:?}")
        };
        let Frame::Bulk(c) = cur else {
            panic!("SCAN cursor must be bulk, got {cur:?}")
        };
        cursor = String::from_utf8_lossy(c).into_owned();
        let Frame::Array(ks) = keys else {
            panic!("SCAN keys must be an array, got {keys:?}")
        };
        for k in ks {
            let Frame::Bulk(kb) = k else {
                panic!("SCAN key must be bulk, got {k:?}")
            };
            *seen
                .entry(String::from_utf8_lossy(kb).into_owned())
                .or_default() += 1;
        }
        if cursor == "0" {
            break;
        }
        // The other connection: one new key, one overwrite of an old one.
        let replies = primary.handle_batch(
            &mut writer,
            &[
                cmd(["SET", &format!("w{round}"), "v"]),
                cmd(["SET", &format!("k{}", round % 100), "v2"]),
            ],
        );
        assert_eq!(replies, vec![Frame::ok(), Frame::ok()]);
    }
    assert_eq!(cursor, "0", "SCAN never terminated");
    for i in 0..100 {
        assert_eq!(
            seen.get(&format!("k{i}")),
            Some(&1),
            "k{i} must be returned exactly once"
        );
    }
    assert!(seen.values().all(|&n| n == 1), "a key came back twice");
}

/// A cursor taken mid-scan stays valid across FLUSHDB: replaying it against
/// the now-empty keyspace terminates in ONE call instead of handing back a
/// stale non-zero cursor the client would chase forever.
#[test]
fn scan_cursor_from_before_flushdb_terminates_promptly() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..100 {
        assert_eq!(
            primary.handle(&mut session, &cmd(["SET", &format!("k{i}"), "v"])),
            Frame::ok()
        );
    }

    // Walk a few rounds so the cursor points mid-keyspace (non-zero).
    let mut cursor = String::from("0");
    for _ in 0..3 {
        let Frame::Array(items) =
            primary.handle(&mut session, &cmd(["SCAN", &cursor, "COUNT", "7"]))
        else {
            panic!("SCAN must return [cursor, keys]")
        };
        let Some(Frame::Bulk(c)) = items.first() else {
            panic!("SCAN cursor must be bulk")
        };
        cursor = String::from_utf8_lossy(c).into_owned();
    }
    assert_ne!(cursor, "0", "need a mid-scan cursor for this test");

    assert_eq!(primary.handle(&mut session, &cmd(["FLUSHDB"])), Frame::ok());

    let reply = primary.handle(&mut session, &cmd(["SCAN", &cursor, "COUNT", "7"]));
    assert_eq!(
        reply,
        Frame::Array(vec![bulk("0"), Frame::Array(Vec::new())]),
        "stale cursor after FLUSHDB must terminate immediately"
    );
}

// ---------------------------------------------------------------------------
// Durability-boundary regressions (adaptive group commit, DESIGN.md §13)
// ---------------------------------------------------------------------------

/// WAIT whose batch ticket times out while parked reports the replica count
/// actually achieved (Redis semantics) — not the blanket ambiguous-commit
/// error the staged mutations inherit.
#[test]
fn wait_timeout_reports_achieved_count_not_error() {
    let shard = Shard::bootstrap(
        0,
        ShardConfig {
            commit_timeout: Duration::from_millis(150),
            ..ShardConfig::fast()
        },
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    let primary = shard.wait_for_primary(T).unwrap();
    // Freeze the commit watermark: appends land but never reach quorum, so
    // the batch ticket must run into its 150ms deadline.
    shard.ctx().log.set_commits_suspended(true);

    let mut s = SessionState::new();
    let replies = primary.handle_batch(&mut s, &[cmd(["SET", "k", "v"]), cmd(["WAIT", "0", "50"])]);
    shard.ctx().log.set_commits_suspended(false);

    assert_eq!(replies.len(), 2);
    assert!(
        matches!(&replies[0], Frame::Error(e) if e.contains("CLUSTERDOWN")),
        "timed-out mutation must error, got {:?}",
        replies[0]
    );
    match &replies[1] {
        Frame::Integer(n) => assert!(*n >= 0, "achieved count cannot be negative"),
        other => panic!("WAIT on a timed-out ticket must report the achieved replica count as an integer, got {other:?}"),
    }
}

/// Racing resolutions of one ticket (flush leader inline vs completer vs
/// poison drain) must release its in-flight window claim exactly once: a
/// double release would under-count the window and let backpressure open
/// early. Exercised directly by resolving the same ticket twice while a
/// second batch still holds its claim.
#[test]
fn double_ticket_resolution_releases_window_once() {
    use crate::pipeline::TicketOutcome;

    let shard = quiet_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    // Stall the committer so both tickets stay in flight.
    shard.ctx().log.set_commits_suspended(true);

    let mut s1 = SessionState::new();
    let mut s2 = SessionState::new();
    let sb1 = primary.handle_batch_submit(&mut s1, &[cmd(["SET", "a", "1"])]);
    let sb2 = primary.handle_batch_submit(&mut s2, &[cmd(["SET", "b", "2"])]);
    let t1 = Arc::clone(sb1.ticket_ref().expect("write batch must carry a ticket"));
    assert!(sb2.ticket_ref().is_some());

    let (entries_before, bytes_before) = primary.pipeline_inflight();
    assert!(
        entries_before >= 2,
        "both batches must hold window claims, got {entries_before}"
    );

    primary.resolve_ticket(&t1, TicketOutcome::Durable);
    let (entries_one, bytes_one) = primary.pipeline_inflight();
    assert_eq!(
        entries_one,
        entries_before - 1,
        "first resolve releases once"
    );
    assert!(bytes_one < bytes_before);

    // Second resolution of the SAME ticket: outcome dedupe already existed,
    // the regression was the window being returned again.
    primary.resolve_ticket(&t1, TicketOutcome::Durable);
    let (entries_two, bytes_two) = primary.pipeline_inflight();
    assert_eq!(
        (entries_two, bytes_two),
        (entries_one, bytes_one),
        "double resolution must not release the window claim twice"
    );

    // The first batch's replies come back durable; the second drains
    // normally once commits resume.
    let r1 = primary.wait_finish(sb1);
    assert_eq!(r1, vec![Frame::ok()]);
    shard.ctx().log.set_commits_suspended(false);
    let r2 = primary.wait_finish(sb2);
    assert_eq!(r2, vec![Frame::ok()]);
}

// ---- Incremental snapshots + parallel per-slot restore ----

/// Deterministic LCG so the randomized chain test reproduces exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Property (randomized, seeded): restoring full + N deltas yields a Db
/// byte-identical — canonical RDB dump, TTLs included — to folding the
/// entire untrimmed log from scratch at the same covered position. Both the
/// sequential and the parallel restore path must match.
#[test]
fn incremental_chain_restores_byte_identical_to_full_replay() {
    use crate::restore::{restore_replica_opts, ReplayTarget, RestoreOptions};
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    let offbox = OffboxSnapshotter::new(
        Arc::clone(shard.ctx()),
        memorydb_engine::EngineVersion::CURRENT,
        9_999,
    );
    let mut rng = Lcg(0x1234_5678);
    // Phases of randomized SET/DEL/EXPIRE; a snapshot after each phase
    // grows the chain (full, then deltas). No trimming, so the whole log
    // stays replayable for the ground-truth comparison.
    for _phase in 0..4 {
        for _ in 0..60 {
            let k = format!("k{}", rng.next() % 120);
            match rng.next() % 4 {
                0 => {
                    primary.handle(&mut session, &cmd(["DEL", &k]));
                }
                1 => {
                    let v = format!("v{}", rng.next());
                    primary.handle(&mut session, &cmd(["SET", &k, &v]));
                    // Far-future TTL: must survive the chain byte-for-byte.
                    primary.handle(&mut session, &cmd(["EXPIRE", &k, "100000"]));
                }
                _ => {
                    let v = format!("v{}", rng.next());
                    primary.handle(&mut session, &cmd(["SET", &k, &v]));
                }
            }
        }
        offbox.create_snapshot(false).expect("snapshot");
    }
    // The newest candidate must actually be a delta (the chain grew).
    let head_covered = crate::manifest::list_candidates(&shard.ctx().store, &shard.ctx().name)
        .into_iter()
        .next()
        .unwrap();
    let head = crate::manifest::SnapshotManifest::fetch_at(
        &shard.ctx().store,
        &shard.ctx().name,
        head_covered,
    )
    .unwrap();
    assert!(head.chain_len >= 1, "expected a delta chain, got a full");

    // Ground truth: fold the whole untrimmed log from scratch.
    let tail = shard.ctx().log.committed_tail();
    let mut engine = memorydb_engine::Engine::with_version(
        Role::Replica,
        memorydb_engine::EngineVersion::CURRENT,
    );
    let mut rs = crate::apply::ReplicaState::new();
    // Fold exactly up to `tail`: the primary keeps committing lease
    // renewals in the background, so the log may grow past it.
    'fold: loop {
        let batch = shard
            .ctx()
            .log
            .read_committed_from(77_001, rs.applied, 512)
            .unwrap();
        if batch.is_empty() {
            break;
        }
        for entry in &batch {
            if entry.id > tail {
                break 'fold;
            }
            crate::apply::apply_entry(
                &mut engine,
                &mut rs,
                entry,
                memorydb_engine::EngineVersion::CURRENT,
            )
            .unwrap();
        }
    }
    assert_eq!(rs.applied, tail);
    assert!(!engine.db.is_empty(), "ground truth must hold data");
    let want = memorydb_engine::rdb::dump(&engine.db);

    // Chain restore, sequential and parallel: byte-identical to the truth.
    for workers in [1usize, 4] {
        let rp = restore_replica_opts(
            &shard.ctx().store,
            &shard.ctx().log,
            88_000 + workers as u64,
            &shard.ctx().name,
            memorydb_engine::EngineVersion::CURRENT,
            ReplayTarget::Exactly(tail),
            RestoreOptions { workers },
        )
        .expect("chain restore");
        let seed = rp.seeded_from.expect("must seed from the chain");
        assert!(seed.newest, "seed: {seed:?}");
        assert!(seed.chain_len >= 1);
        assert_eq!(rp.rs.applied, tail);
        assert_eq!(rp.rs.running_crc, rs.running_crc, "workers={workers}");
        assert_eq!(
            memorydb_engine::rdb::dump(&rp.engine.db),
            want,
            "workers={workers}: chain restore diverged from full replay"
        );
    }
}

/// A random keyspace over every value type, with TTLs, crowded into few
/// slots (hash tags) so a later phase can empty whole slots.
fn random_keyspace_step(engine: &mut memorydb_engine::Engine, rng: &mut Lcg, ops: usize) {
    let mut s = SessionState::new();
    for _ in 0..ops {
        let key = format!("{{s{}}}k{}", rng.next() % 40, rng.next() % 6);
        let v = format!("v{}", rng.next() % 1000);
        let c = match rng.next() % 9 {
            0 => cmd(["SET", &key, &v]),
            1 => cmd(["RPUSH", &key, &v, "x"]),
            2 => cmd(["HSET", &key, &v, "1", "f", &v]),
            3 => cmd(["SADD", &key, &v, "m"]),
            4 => cmd(["ZADD", &key, "1.5", &v, "-2", "z"]),
            5 => cmd(["XADD", &key, "*", "f", &v]),
            6 => cmd(["PFADD", &key, &v]),
            7 => cmd([
                "PEXPIREAT",
                &key,
                &format!("{}", 5_000_000 + rng.next() % 1000),
            ]),
            _ => cmd(["DEL", &key]),
        };
        // WRONGTYPE replies are fine: the key just keeps its older value.
        engine.execute(&mut s, &c);
    }
}

/// What a manifest's `ChunkRef.crc` records for `blob`: the CRC64 of its
/// payload, which is also the value of its 8-byte trailer.
fn chunk_payload_crc(blob: &[u8]) -> u64 {
    memorydb_engine::rdb::crc64(&blob[..blob.len() - 8])
}

/// Publishes `engine`'s keys in `ranges` as one manifest (full when `base`
/// is `None`), exactly as the off-box snapshotter lays it out.
fn publish_manifest(
    store: &ObjectStore,
    engine: &memorydb_engine::Engine,
    covered: u64,
    base: Option<(u64, u32)>,
    ranges: &[(u16, u16)],
) -> crate::manifest::SnapshotManifest {
    use crate::manifest::{ChunkRef, SnapshotManifest};
    use memorydb_engine::rdb;
    use memorydb_txlog::EntryId;
    let blobs = rdb::dump_slot_ranges(&engine.db, ranges);
    let mut chunks = Vec::new();
    for (&(lo, hi), blob) in ranges.iter().zip(blobs) {
        chunks.push(ChunkRef {
            lo,
            hi,
            len: blob.len() as u64,
            crc: chunk_payload_crc(&blob),
        });
        store.put(
            &SnapshotManifest::chunk_key("p", EntryId(covered), lo, hi),
            Bytes::from(blob),
        );
    }
    let m = SnapshotManifest {
        covered: EntryId(covered),
        running_crc: covered.wrapping_mul(0x9E37_79B9),
        engine_version: memorydb_engine::EngineVersion::CURRENT,
        epoch: covered / 7,
        slot_ranges: vec![(0, 9000), (9002, 16383)],
        blocked_slots: vec![(covered % 16384) as u16],
        base: EntryId(base.map_or(0, |b| b.0)),
        chain_len: base.map_or(0, |b| b.1 + 1),
        chunks,
    };
    store.put(&SnapshotManifest::store_key("p", m.covered), m.encode());
    m
}

/// Property (randomized, seeded): the partition-direct image load yields
/// the keyspace the pre-partitioning pipeline defined — decode every chunk
/// on its own, mask slots a newer manifest claimed, merge newest-first —
/// for random keyspaces over all value types with TTLs and random full +
/// delta chains, including deltas that empty whole slots. Every worker
/// count agrees byte for byte, 3 included (its partitions straddle the
/// 16-chunk layout, so chunks are decoded by two workers).
#[test]
fn partition_direct_restore_matches_decode_mask_merge() {
    use crate::restore::{restore_replica_opts, ReplayTarget, RestoreOptions};
    use crate::slotset::{partition_slot_range, SlotSet};
    use memorydb_engine::{key_hash_slot, rdb, Db, Engine, EngineVersion};
    for seed in 0..10u64 {
        let mut rng = Lcg(0xC0FF_EE00 + seed);
        let store = ObjectStore::new();
        let log = memorydb_txlog::LogService::new(memorydb_txlog::LogConfig::instant());
        let mut engine = Engine::new(Role::Primary);
        engine.set_time_ms(1_000);

        // Full base, chunked like the snapshotter chunks it.
        random_keyspace_step(&mut engine, &mut rng, 400);
        let n_chunks = [1usize, 4, 16][(rng.next() % 3) as usize];
        let full: Vec<(u16, u16)> = (0..n_chunks)
            .map(|i| partition_slot_range(i, n_chunks))
            .collect();
        let mut manifests = vec![publish_manifest(&store, &engine, 100, None, &full)];

        // Deltas: rewrite some slots, empty one entirely, and publish
        // exactly the slots whose content changed — the emptied one
        // included, which is how a deletion reaches the restorer.
        let mut tag_slots: Vec<u16> = (0..40)
            .map(|t| key_hash_slot(format!("s{t}").as_bytes()))
            .collect();
        tag_slots.sort_unstable();
        tag_slots.dedup();
        for d in 0..(rng.next() % 4) {
            let before = engine.db.clone();
            random_keyspace_step(&mut engine, &mut rng, 60);
            let doomed = tag_slots[(rng.next() % tag_slots.len() as u64) as usize];
            engine.db.delete_slot(doomed);
            let mut ranges: Vec<(u16, u16)> = tag_slots
                .iter()
                .filter(|&&s| {
                    rdb::dump_slot_range(&before, s, s) != rdb::dump_slot_range(&engine.db, s, s)
                })
                .map(|&s| (s, s))
                .collect();
            if ranges.len() > 2 && rng.next() % 2 == 1 {
                // Coalescing pulls clean slots into a chunk; their data is
                // current, so the claim stays correct.
                let second = ranges.remove(1);
                ranges[0].1 = second.1;
            }
            let prev = manifests.last().map(|m| (m.covered.0, m.chain_len));
            manifests.push(publish_manifest(
                &store,
                &engine,
                200 + d * 10,
                prev,
                &ranges,
            ));
        }
        let head = manifests.last().unwrap().clone();

        // Reference: decode each chunk whole, mask, merge newest-first.
        let mut reference = Db::new();
        let mut claimed = SlotSet::empty();
        for m in manifests.iter().rev() {
            for c in &m.chunks {
                let key = crate::manifest::SnapshotManifest::chunk_key("p", m.covered, c.lo, c.hi);
                let part = rdb::load(&store.get(&key).unwrap().1).unwrap();
                for (k, e) in part.iter_entries() {
                    if !claimed.contains(key_hash_slot(k)) {
                        reference.set_value(k.clone(), e.value.clone());
                        reference.set_expiry(k, e.expire_at);
                    }
                }
            }
            for c in &m.chunks {
                (c.lo..=c.hi).for_each(|slot| claimed.insert(slot));
            }
        }
        let want = rdb::dump(&reference);
        assert_eq!(
            want,
            rdb::dump(&engine.db),
            "seed {seed}: chain ≠ live keyspace"
        );

        for workers in [1usize, 2, 3, 4] {
            let rp = restore_replica_opts(
                &store,
                &log,
                91_000 + workers as u64,
                "p",
                EngineVersion::CURRENT,
                ReplayTarget::Tail,
                RestoreOptions { workers },
            )
            .expect("restore");
            let tag = format!("seed {seed} workers {workers}");
            assert_eq!(rdb::dump(&rp.engine.db), want, "{tag}");
            assert_eq!(rp.engine.db.len(), reference.len(), "{tag}");
            for (k, e) in reference.iter_entries() {
                assert_eq!(
                    rp.engine.db.expiry(k),
                    e.expire_at,
                    "{tag}: expiry of {k:?}"
                );
            }
            assert_eq!(rp.rs.applied, head.covered, "{tag}");
            assert_eq!(rp.rs.running_crc, head.running_crc, "{tag}");
            assert_eq!(rp.rs.epoch, head.epoch, "{tag}");
            assert_eq!(rp.rs.owned_slots.to_ranges(), head.slot_ranges, "{tag}");
            assert_eq!(
                rp.rs.blocked_slots,
                head.blocked_slots.iter().copied().collect(),
                "{tag}"
            );
            let seeded = rp.seeded_from.expect("seeded from the chain");
            assert_eq!(seeded.chain_len, head.chain_len, "{tag}");
            assert_eq!(seeded.full_covered, manifests[0].covered, "{tag}");
        }
        log.shutdown();
    }
}

/// A chunk whose blob holds a key outside its declared slot range must fail
/// the candidate: partitioned replay routes by slot.
#[test]
fn chunk_with_a_key_outside_its_range_is_rejected() {
    use crate::manifest::{fetch_latest_image, ChunkRef, SnapshotManifest};
    use memorydb_engine::{rdb, Engine};
    use memorydb_txlog::EntryId;
    let store = ObjectStore::new();
    let mut engine = Engine::new(Role::Primary);
    let mut s = SessionState::new();
    engine.execute(&mut s, &cmd(["SET", "foo", "v"])); // slot 12182
    let blob = rdb::dump(&engine.db);
    let chunk = ChunkRef {
        lo: 0,
        hi: 8191,
        len: blob.len() as u64,
        crc: chunk_payload_crc(&blob),
    };
    store.put(
        &SnapshotManifest::chunk_key("p", EntryId(5), 0, 8191),
        Bytes::from(blob),
    );
    let m = SnapshotManifest {
        covered: EntryId(5),
        running_crc: 0,
        engine_version: memorydb_engine::EngineVersion::CURRENT,
        epoch: 0,
        slot_ranges: vec![(0, 16383)],
        blocked_slots: vec![],
        base: EntryId::ZERO,
        chain_len: 0,
        chunks: vec![chunk],
    };
    store.put(&SnapshotManifest::store_key("p", m.covered), m.encode());
    let err = fetch_latest_image(&store, "p", 2).expect_err("misplaced key");
    assert!(err.to_string().contains("outside its slot range"), "{err}");
}

/// On-disk formats, one positive and one negative golden each. The chunk
/// format is unchanged since the commit before the single-index keyspace /
/// slice-by-8 CRC: its blob still loads and re-dumps byte-identically, and
/// the CRC of a fixed vector is the value that commit computed. The
/// manifest for that chunk is pinned byte for byte in v2, and its v1
/// encoding (`MDSM`, chunk CRC zero by construction) is rejected at the
/// magic check.
#[test]
fn golden_chunk_and_v2_manifest_load_and_v1_manifest_is_rejected() {
    use crate::manifest::{fetch_latest_image, SnapshotError, SnapshotManifest};
    use memorydb_engine::rdb;
    use memorydb_txlog::EntryId;
    const CHUNK: &[u8] = include_bytes!("../testdata/golden/chunk_00000-08191.rdb");
    const MANIFEST: &[u8] = include_bytes!("../testdata/golden/manifest.mds2");
    const MANIFEST_V1: &[u8] = include_bytes!("../testdata/golden/manifest_v1_rejected.mdsm");

    let vector: Vec<u8> = (0..1024u32)
        .map(|i| (i.wrapping_mul(31).wrapping_add(7) % 251) as u8)
        .collect();
    assert_eq!(rdb::crc64(&vector), 0xb7f5_75ff_7fcc_dcd0);
    // Streaming in ragged pieces crosses the 8-byte stride every way.
    let mut streamed = rdb::Crc64::new();
    for piece in vector.chunks(13) {
        streamed.update(piece);
    }
    assert_eq!(streamed.digest(), 0xb7f5_75ff_7fcc_dcd0);

    let db = rdb::load(CHUNK).expect("golden chunk loads");
    assert_eq!(db.len(), 30);
    assert_eq!(
        db.lookup(b"str", 0),
        Some(&memorydb_engine::Value::Str("hello".into()))
    );
    assert_eq!(db.expiry(b"ttl:3"), Some(999_003));
    assert_eq!(db.expiry(b"key:0"), None);
    for ty in ["hash", "set", "stream"] {
        assert!(db.lookup(ty.as_bytes(), 0).is_some(), "{ty}");
    }
    assert_eq!(rdb::dump(&db), CHUNK, "re-dump must be byte-identical");

    let m = SnapshotManifest::decode(MANIFEST).expect("golden manifest decodes");
    assert_eq!(m.covered, EntryId(77));
    assert_eq!(m.blocked_slots, vec![866]);
    assert_eq!((m.chunks[0].lo, m.chunks[0].hi), (0, 8191));
    assert_eq!(m.chunks[0].len, CHUNK.len() as u64);
    assert_eq!(m.chunks[0].crc, chunk_payload_crc(CHUNK));
    assert_ne!(m.chunks[0].crc, 0);
    assert_eq!(m.encode().as_ref(), MANIFEST);
    assert_eq!(
        SnapshotManifest::decode(MANIFEST_V1),
        Err(SnapshotError::Corrupt("bad manifest magic".into()))
    );

    // And the pair restores as an image, on one partition or several.
    let store = ObjectStore::new();
    store.put(
        &SnapshotManifest::store_key("g", m.covered),
        Bytes::from_static(MANIFEST),
    );
    store.put(
        &SnapshotManifest::chunk_key("g", m.covered, 0, 8191),
        Bytes::from_static(CHUNK),
    );
    for k in [1usize, 4] {
        let image = fetch_latest_image(&store, "g", k).unwrap().expect("image");
        assert_eq!(image.parts.len(), k);
        assert_eq!(image.parts.iter().map(|p| p.len()).sum::<usize>(), 30);
        assert_eq!(image.running_crc, 0x0123_4567_89AB_CDEF);
    }
}

/// Regression: a slot blocked mid-migration must survive a crash-restore
/// through the snapshot+trim cycle — the manifest carries `blocked_slots`,
/// and the cold restore re-seeds them even though the `MigrationPrepare`
/// record itself was trimmed away.
#[test]
fn blocked_slots_survive_snapshot_trim_and_cold_restore() {
    use crate::restore::{restore_replica, ReplayTarget};
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    for i in 0..30 {
        primary.handle(&mut session, &cmd(["SET", &format!("k{i}"), "v"]));
    }
    let slot = memorydb_engine::key_hash_slot(b"k0");
    primary
        .commit_record(&crate::record::Record::MigrationPrepare { slot, target: 1 })
        .unwrap();
    let offbox = OffboxSnapshotter::new(
        Arc::clone(shard.ctx()),
        memorydb_engine::EngineVersion::CURRENT,
        9_999,
    );
    let (_, covered) = offbox.create_snapshot(true).unwrap();
    // The prepare record is inside the trimmed prefix: only the snapshot
    // can preserve the block now.
    assert!(shard.ctx().log.first_available() > memorydb_txlog::EntryId::ZERO.next());
    let image = crate::manifest::fetch_latest_image(&shard.ctx().store, &shard.ctx().name, 1)
        .unwrap()
        .expect("snapshot image");
    assert!(
        image.blocked_slots.contains(&slot),
        "manifest dropped the blocked slot"
    );
    let rp = restore_replica(
        &shard.ctx().store,
        &shard.ctx().log,
        90_001,
        &shard.ctx().name,
        memorydb_engine::EngineVersion::CURRENT,
        ReplayTarget::Tail,
    )
    .unwrap();
    assert!(rp.rs.applied >= covered);
    assert!(
        rp.rs.blocked_slots.contains(&slot),
        "blocked_slots dropped across crash-restore mid-migration"
    );
}

/// A corrupted delta manifest must not strand restore: the log is only ever
/// trimmed to the newest FULL snapshot, so restore falls back to that full
/// and replays the (still available) suffix to the tail.
#[test]
fn broken_delta_chain_falls_back_to_newest_full_plus_suffix() {
    use crate::restore::{restore_replica, ReplayTarget};
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut session = SessionState::new();
    let offbox = OffboxSnapshotter::new(
        Arc::clone(shard.ctx()),
        memorydb_engine::EngineVersion::CURRENT,
        9_999,
    );
    for i in 0..30 {
        primary.handle(&mut session, &cmd(["SET", &format!("a{i}"), "1"]));
    }
    let (_, full_covered) = offbox.create_snapshot(true).unwrap();
    for i in 0..30 {
        primary.handle(&mut session, &cmd(["SET", &format!("b{i}"), "2"]));
    }
    let (delta_key, delta_covered) = offbox.create_snapshot(true).unwrap();
    assert!(delta_covered > full_covered);
    // Trim stayed at the full snapshot; the delta's prefix is replayable.
    assert!(shard.ctx().log.first_available() <= full_covered.next());
    for i in 0..10 {
        primary.handle(&mut session, &cmd(["SET", &format!("c{i}"), "3"]));
    }
    assert!(shard.ctx().store.corrupt_for_test(&delta_key));
    let tail = shard.ctx().log.committed_tail();
    let rp = restore_replica(
        &shard.ctx().store,
        &shard.ctx().log,
        90_002,
        &shard.ctx().name,
        memorydb_engine::EngineVersion::CURRENT,
        ReplayTarget::Tail,
    )
    .expect("restore must fall back past the broken chain");
    let seed = rp.seeded_from.expect("must seed from the full snapshot");
    assert_eq!(seed.covered, full_covered);
    assert!(!seed.newest, "fallback seed must not count as newest");
    assert!(rp.rs.applied >= tail, "must reach the committed tail");
    assert_eq!(rp.engine.db.len(), 70);
}

/// A manifest's chunk reference binds one chunk's *content*. Full snapshot
/// at A, every key overwritten with an equal-length value, snapshot at B,
/// then B's store objects are tampered with valid chunk blobs that are not
/// B's: candidate B must fail, restore must seed from A and replay the
/// suffix, and every key must read the log's value.
///
/// Row 1 (B full) puts A's chunk for the same slot range at B's key — same
/// keys, same length, so only the payload CRC tells them apart. Row 2 (B a
/// delta) swaps two of B's own chunks across ranges — the control, already
/// caught by the slot-range check.
#[test]
fn stale_or_swapped_chunk_fails_its_candidate_and_restore_falls_back() {
    use crate::manifest::SnapshotManifest;
    use crate::restore::{restore_replica, ReplayTarget};
    const KEYS: usize = 200;
    for (row, snapshot_max_chain) in [("stale chunk under a full B", 0), ("swap in a delta B", 4)] {
        let shard = Shard::bootstrap(
            0,
            ShardConfig {
                snapshot_chunks: 4,
                snapshot_max_chain,
                ..ShardConfig::fast()
            },
            Arc::new(ObjectStore::new()),
            Arc::new(ClusterBus::new()),
            Arc::new(NodeIdGen::new()),
            vec![(0, 16383)],
            0,
        );
        let (store, name) = (&shard.ctx().store, shard.ctx().name.as_str());
        let primary = shard.wait_for_primary(T).unwrap();
        let mut session = SessionState::new();
        let mut write_all = |tag: &str| {
            for i in 0..KEYS {
                let reply = primary.handle(
                    &mut session,
                    &cmd(["SET", &format!("key:{i:03}"), &format!("{tag}-{i:03}")]),
                );
                assert_eq!(reply, Frame::ok());
            }
        };
        let offbox = OffboxSnapshotter::new(
            Arc::clone(shard.ctx()),
            memorydb_engine::EngineVersion::CURRENT,
            9_999,
        );
        write_all("A");
        let (_, a) = offbox.create_snapshot(false).unwrap();
        write_all("B");
        let (_, b) = offbox.create_snapshot(false).unwrap();
        let at_b = SnapshotManifest::fetch_at(store, name, b).unwrap();
        assert_eq!(at_b.is_full(), snapshot_max_chain == 0, "{row}");
        let (c0, c1) = (&at_b.chunks[0], &at_b.chunks[1]);
        let b_key0 = SnapshotManifest::chunk_key(name, b, c0.lo, c0.hi);
        let b_blob0 = store.get(&b_key0).unwrap().1;
        if at_b.is_full() {
            let a_key0 = SnapshotManifest::chunk_key(name, a, c0.lo, c0.hi);
            let a_blob0 = store.get(&a_key0).unwrap().1;
            assert_eq!(a_blob0.len(), b_blob0.len(), "{row}: length must not help");
            assert_ne!(a_blob0, b_blob0, "{row}");
            store.put(&b_key0, a_blob0);
        } else {
            let b_key1 = SnapshotManifest::chunk_key(name, b, c1.lo, c1.hi);
            let b_blob1 = store.get(&b_key1).unwrap().1;
            store.put(&b_key0, b_blob1);
            store.put(&b_key1, b_blob0);
        }

        let tail = shard.ctx().log.committed_tail();
        let rp = restore_replica(
            store,
            &shard.ctx().log,
            90_003,
            name,
            memorydb_engine::EngineVersion::CURRENT,
            ReplayTarget::Tail,
        )
        .unwrap_or_else(|e| panic!("{row}: restore must fall back to A: {e}"));
        let seed = rp.seeded_from.expect("seeded from a snapshot");
        assert_eq!(seed.covered, a, "{row}: must seed from A");
        assert!(!seed.newest, "{row}: fallback seed is not the newest");
        assert!(
            rp.rs.applied >= tail,
            "{row}: must reach the committed tail"
        );
        for i in 0..KEYS {
            assert_eq!(
                rp.engine.db.lookup(format!("key:{i:03}").as_bytes(), 0),
                Some(&memorydb_engine::Value::Str(format!("B-{i:03}").into())),
                "{row}: key:{i:03} must read the log's value"
            );
        }
    }
}

/// Entry #1 of every shard's log — the bootstrap `SlotOwnership` — is a
/// CRC-checked frame like every record after it.
#[test]
fn bootstrap_writes_slot_ownership_as_a_frame() {
    let shard = new_shard(0);
    let first = shard
        .ctx()
        .log
        .read_committed_from(77_002, memorydb_txlog::EntryId::ZERO, 1)
        .unwrap();
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].id, memorydb_txlog::EntryId(1));
    assert_eq!(
        crate::record::Record::decode_framed(&first[0].payload),
        Ok(crate::record::Record::SlotOwnership {
            ranges: vec![(0, 16383)]
        })
    );
}

/// DBSIZE is exact after every write and delete, RANDOMKEY draws live keys
/// from across the keyspace, and both read an empty database as empty.
#[test]
fn dbsize_and_randomkey_track_the_keyspace() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let mut s = SessionState::new();

    for i in 0..64i64 {
        let k = format!("k{i}");
        assert_eq!(primary.handle(&mut s, &cmd(["SET", &k, "v"])), Frame::ok());
        assert_eq!(
            primary.handle(&mut s, &cmd(["DBSIZE"])),
            Frame::Integer(i + 1)
        );
    }

    let mut seen = std::collections::HashSet::new();
    for _ in 0..512 {
        match primary.handle(&mut s, &cmd(["RANDOMKEY"])) {
            Frame::Bulk(k) => {
                let k = String::from_utf8(k.to_vec()).unwrap();
                assert!(k.starts_with('k'), "RANDOMKEY invented key {k}");
                seen.insert(k);
            }
            other => panic!("RANDOMKEY on a non-empty db returned {other:?}"),
        }
    }
    assert!(
        seen.len() > 16,
        "RANDOMKEY visited only {} distinct keys in 512 draws",
        seen.len()
    );

    for i in 0..32 {
        let k = format!("k{i}");
        assert_eq!(primary.handle(&mut s, &cmd(["DEL", &k])), Frame::Integer(1));
    }
    assert_eq!(primary.handle(&mut s, &cmd(["DBSIZE"])), Frame::Integer(32));

    assert_eq!(primary.handle(&mut s, &cmd(["FLUSHALL"])), Frame::ok());
    assert_eq!(primary.handle(&mut s, &cmd(["DBSIZE"])), Frame::Integer(0));
    assert_eq!(primary.handle(&mut s, &cmd(["RANDOMKEY"])), Frame::Null);
}

/// A batch that finds the engine lock held counts one conflict before it
/// blocks (the `stripe_conflicts` row the ledger reads).
#[test]
fn engine_lock_conflicts_are_counted() {
    let shard = new_shard(0);
    let primary = shard.wait_for_primary(T).unwrap();
    let conflicts = || {
        primary
            .metrics()
            .snapshot()
            .counter("stripe_conflicts")
            .unwrap_or(0)
    };
    let before = conflicts();
    let held = primary.engine.lock();
    std::thread::scope(|s| {
        let blocked = s.spawn(|| primary.handle(&mut SessionState::new(), &cmd(["PING"])));
        // The counter moves before the submitter blocks, so seeing it move
        // is seeing the submitter inside its contended acquisition.
        let deadline = std::time::Instant::now() + T;
        while conflicts() == before {
            assert!(std::time::Instant::now() < deadline, "no conflict counted");
            std::thread::yield_now();
        }
        drop(held);
        assert_eq!(blocked.join().unwrap(), Frame::Simple("PONG".into()));
    });
    assert!(conflicts() > before);
}

/// Teardown must not wait out `commit_timeout`: with a lease renewal
/// appended but never committable (the log's committer is shut down, as a
/// harness that stops the log first would leave it), `crash()` resolves the
/// parked ticket as ambiguous and all three node threads — run loop,
/// committer, completer — exit within a pipeline slice instead of sleeping
/// to the ticket's deadline.
#[test]
fn crash_with_renewal_in_flight_on_a_stopped_log_exits_promptly() {
    use std::time::Instant;

    let shard = Shard::bootstrap(
        0,
        ShardConfig {
            lease: Duration::from_secs(2),
            renew_interval: Duration::from_millis(100),
            backoff: Duration::from_millis(2250),
            // Nonzero quorum latency: only the log's committer thread can
            // commit an append, so stopping it strands the renewal.
            log: memorydb_txlog::LogConfig::multi_az(),
            ..ShardConfig::fast()
        },
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    let primary = shard.wait_for_primary(T).unwrap();
    let log = &shard.ctx().log;
    log.shutdown();
    let staged_by = Instant::now() + T;
    while primary.pipeline_inflight().0 == 0 {
        assert!(Instant::now() < staged_by, "no renewal was staged");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        primary.pipeline_inflight().0 > 0 && log.committed_tail() < log.assigned_tail(),
        "the renewal must be appended and stuck uncommitted"
    );

    // Each node thread owns one `Arc<Node>`; a thread that has exited has
    // dropped its clone.
    let holders = Arc::strong_count(&primary);
    let crashed_at = Instant::now();
    primary.crash();
    while Arc::strong_count(&primary) > holders - 3 {
        assert!(
            crashed_at.elapsed() < Duration::from_secs(1),
            "node threads still running {:?} after crash()",
            crashed_at.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        primary.pipeline_inflight(),
        (0, 0),
        "parked ticket resolved"
    );
}
