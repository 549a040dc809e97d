use super::*;
use memorydb_core::{ClusterBus, NodeIdGen, Shard, ShardConfig};
use memorydb_objectstore::ObjectStore;

fn test_shard(replicas: usize) -> Arc<Shard> {
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

/// A server over a fresh single-node shard. The shard is returned too so
/// its run loop stays alive for the duration of the test.
fn test_server(replicas: usize) -> (Server, Arc<Shard>) {
    let shard = test_shard(replicas);
    let primary = shard.wait_for_primary(Duration::from_secs(5)).unwrap();
    let server = Server::start(primary, "127.0.0.1:0").unwrap();
    (server, shard)
}

fn bulk(s: &str) -> Frame {
    Frame::Bulk(Bytes::copy_from_slice(s.as_bytes()))
}

#[test]
fn end_to_end_over_tcp() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    assert_eq!(
        client.command(["PING"]).unwrap(),
        Frame::Simple("PONG".into())
    );
    assert_eq!(client.command(["SET", "k", "v"]).unwrap(), Frame::ok());
    assert_eq!(client.command(["GET", "k"]).unwrap(), bulk("v"));
    assert_eq!(client.command(["INCR", "n"]).unwrap(), Frame::Integer(1));
    assert_eq!(
        client.command(["LPUSH", "l", "a", "b"]).unwrap(),
        Frame::Integer(2)
    );
    assert_eq!(
        client.command(["LRANGE", "l", "0", "-1"]).unwrap(),
        Frame::Array(vec![bulk("b"), bulk("a")])
    );
}

#[test]
fn pipelined_commands() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    // Write three commands before reading any reply.
    let mut out = BytesMut::new();
    for c in [["SET", "a", "1"], ["SET", "b", "2"], ["SET", "c", "3"]] {
        encode(&Frame::command(c), &mut out);
    }
    client.stream.write_all(&out).unwrap();
    for _ in 0..3 {
        assert_eq!(client.read_reply().unwrap(), Frame::ok());
    }
    assert_eq!(client.command(["DBSIZE"]).unwrap(), Frame::Integer(3));
}

#[test]
fn pipeline_api_replies_in_order() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();

    let mut cmds: Vec<Vec<String>> = Vec::new();
    for i in 0..40 {
        cmds.push(vec!["SET".into(), format!("k{i}"), format!("v{i}")]);
    }
    for i in 0..40 {
        cmds.push(vec!["GET".into(), format!("k{i}")]);
    }
    cmds.push(vec!["DBSIZE".into()]);

    let replies = client.pipeline(cmds).unwrap();
    assert_eq!(replies.len(), 81);
    for r in &replies[..40] {
        assert_eq!(*r, Frame::ok());
    }
    for (i, r) in replies[40..80].iter().enumerate() {
        assert_eq!(*r, bulk(&format!("v{i}")), "reply {i} out of order");
    }
    assert_eq!(replies[80], Frame::Integer(40));
}

#[test]
fn multi_exec_spanning_pipeline_batches() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();

    // MULTI and the queued commands arrive as one pipelined batch...
    let first = client
        .pipeline(vec![
            vec!["MULTI"],
            vec!["SET", "t", "1"],
            vec!["INCR", "t"],
        ])
        .unwrap();
    assert_eq!(first[0], Frame::ok());
    assert_eq!(first[1], Frame::Simple("QUEUED".into()));
    assert_eq!(first[2], Frame::Simple("QUEUED".into()));

    // ...EXEC arrives in the next batch and sees the full queue.
    let second = client
        .pipeline(vec![vec!["EXEC"], vec!["GET", "t"]])
        .unwrap();
    assert_eq!(
        second[0],
        Frame::Array(vec![Frame::ok(), Frame::Integer(2)])
    );
    assert_eq!(second[1], bulk("2"));
}

#[test]
fn watch_conflict_across_pipeline_batches_aborts_exec() {
    let (server, _shard) = test_server(0);
    let mut watcher = BlockingClient::connect(server.local_addr).unwrap();
    let mut writer = BlockingClient::connect(server.local_addr).unwrap();

    let r = watcher
        .pipeline(vec![vec!["WATCH", "w"], vec!["MULTI"]])
        .unwrap();
    assert_eq!(r, vec![Frame::ok(), Frame::ok()]);
    // Another connection clobbers the watched key between the batches.
    assert_eq!(
        writer.command(["SET", "w", "clobber"]).unwrap(),
        Frame::ok()
    );
    let r = watcher
        .pipeline(vec![vec!["SET", "w", "mine"], vec!["EXEC"]])
        .unwrap();
    assert_eq!(r[0], Frame::Simple("QUEUED".into()));
    assert_eq!(r[1], Frame::Null, "EXEC must abort on watch conflict");
    assert_eq!(writer.command(["GET", "w"]).unwrap(), bulk("clobber"));
}

#[test]
fn replica_requires_readonly_opt_in() {
    let shard = test_shard(1);
    let primary = shard.wait_for_primary(Duration::from_secs(5)).unwrap();
    let mut session = SessionState::new();
    primary.handle(&mut session, &memorydb_engine::cmd(["SET", "k", "v"]));
    assert!(shard.wait_replicas_caught_up(Duration::from_secs(5)));
    let replica = shard.replicas().into_iter().next().unwrap();
    let server = Server::start(replica, "127.0.0.1:0").unwrap();
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    // Without the opt-in: redirected.
    match client.command(["GET", "k"]).unwrap() {
        Frame::Error(msg) => assert!(msg.starts_with("MOVED"), "{msg}"),
        other => panic!("expected MOVED, got {other:?}"),
    }
    // With READONLY: served. Sent pipelined with the read to prove the
    // mode flip applies in submission order inside one batch.
    let r = client
        .pipeline(vec![vec!["READONLY"], vec!["GET", "k"]])
        .unwrap();
    assert_eq!(r[0], Frame::ok());
    assert_eq!(r[1], bulk("v"));
    // Writes still redirect.
    match client.command(["SET", "x", "1"]).unwrap() {
        Frame::Error(msg) => assert!(msg.starts_with("MOVED"), "{msg}"),
        other => panic!("expected MOVED, got {other:?}"),
    }
    // READWRITE turns the opt-in back off.
    assert_eq!(client.command(["READWRITE"]).unwrap(), Frame::ok());
    assert!(client.command(["GET", "k"]).unwrap().is_error());
}

#[test]
fn concurrent_clients() {
    let (server, _shard) = test_server(0);
    let addr = server.local_addr;
    let mut handles = Vec::new();
    // 64 simultaneous connections: far more sockets than IO threads, so
    // this exercises genuine multiplexing (the old server would burn one
    // OS thread per socket here).
    for t in 0..64 {
        handles.push(std::thread::spawn(move || {
            let mut client = BlockingClient::connect(addr).unwrap();
            for i in 0..25 {
                let key = format!("t{t}:k{i}");
                assert_eq!(
                    client.command(["SET", key.as_str(), "v"]).unwrap(),
                    Frame::ok()
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut client = BlockingClient::connect(addr).unwrap();
    assert_eq!(client.command(["DBSIZE"]).unwrap(), Frame::Integer(64 * 25));
}

#[cfg(target_os = "linux")]
fn process_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

/// The Enhanced-IO claim made checkable: parking 64 idle connections on the
/// server must not grow the process thread count per connection.
#[cfg(target_os = "linux")]
#[test]
fn multiplexing_does_not_spawn_thread_per_connection() {
    let (server, _shard) = test_server(0);
    let before = process_thread_count();
    let mut clients = Vec::new();
    for _ in 0..64 {
        let mut c = BlockingClient::connect(server.local_addr).unwrap();
        assert_eq!(c.command(["PING"]).unwrap(), Frame::Simple("PONG".into()));
        clients.push(c);
    }
    let after = process_thread_count();
    // Other tests run in parallel, so allow slack — but 64 fresh threads
    // (thread-per-connection) would blow well past this bound.
    assert!(
        after.saturating_sub(before) < 32,
        "thread count grew from {before} to {after} for 64 connections"
    );
}

#[test]
fn stop_joins_io_threads_and_refuses_new_connections() {
    let (mut server, shard) = test_server(0);
    let addr = server.local_addr;
    let mut client = BlockingClient::connect(addr).unwrap();
    assert_eq!(
        client.command(["PING"]).unwrap(),
        Frame::Simple("PONG".into())
    );
    let node = shard.primary().unwrap();
    assert_eq!(node.metrics().gauge(GaugeId::ConnectedClients), 1);

    let started = std::time::Instant::now();
    server.stop();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop() must join promptly, took {:?}",
        started.elapsed()
    );
    // The node's registry outlives the server: the connections stop() closed
    // must leave its gauge too.
    assert_eq!(node.metrics().gauge(GaugeId::ConnectedClients), 0);
    // The listener is gone: fresh connections are refused (or reset).
    assert!(TcpStream::connect(addr)
        .and_then(|mut s| {
            // Some platforms accept briefly in the backlog; prove the
            // socket is dead by failing to get a reply.
            s.set_read_timeout(Some(Duration::from_millis(500)))?;
            s.write_all(b"PING\r\n")?;
            let mut b = [0u8; 8];
            match s.read(&mut b) {
                Ok(0) => Err(std::io::Error::new(ErrorKind::UnexpectedEof, "closed")),
                Ok(_) => Ok(()),
                Err(e) => Err(e),
            }
        })
        .is_err());
    // The existing connection is closed by shutdown.
    assert!(client.command(["PING"]).is_err());
}

#[test]
fn quit_closes_connection() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    assert_eq!(client.command(["QUIT"]).unwrap(), Frame::ok());
    // Subsequent use fails with EOF.
    assert!(client.command(["PING"]).is_err());
}

#[test]
fn quit_mid_pipeline_answers_prefix_then_closes() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    let mut out = BytesMut::new();
    encode(&Frame::command(["SET", "q", "1"]), &mut out);
    encode(&Frame::command(["QUIT"]), &mut out);
    encode(&Frame::command(["SET", "q", "2"]), &mut out);
    client.stream.write_all(&out).unwrap();
    assert_eq!(client.read_reply().unwrap(), Frame::ok()); // SET q 1
    assert_eq!(client.read_reply().unwrap(), Frame::ok()); // QUIT
    assert!(
        client.read_reply().is_err(),
        "connection must close after QUIT"
    );
    // The command pipelined after QUIT was discarded.
    let mut c2 = BlockingClient::connect(server.local_addr).unwrap();
    assert_eq!(c2.command(["GET", "q"]).unwrap(), bulk("1"));
}

#[test]
fn inline_commands_work() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    // Telnet-style inline commands, mixed with RESP on one connection.
    client.stream.write_all(b"PING\r\n").unwrap();
    assert_eq!(client.read_reply().unwrap(), Frame::Simple("PONG".into()));
    client
        .stream
        .write_all(b"SET greeting \"hello world\"\r\n")
        .unwrap();
    assert_eq!(client.read_reply().unwrap(), Frame::ok());
    assert_eq!(
        client.command(["GET", "greeting"]).unwrap(),
        Frame::Bulk(Bytes::from_static(b"hello world"))
    );
    // Blank lines between inline commands are ignored.
    client.stream.write_all(b"\r\n\r\nDBSIZE\r\n").unwrap();
    assert_eq!(client.read_reply().unwrap(), Frame::Integer(1));
}

#[test]
fn protocol_error_reported() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    // Non-RESP text is interpreted as an inline command: an unknown name
    // yields a normal command error, like Redis.
    client.stream.write_all(b"!garbage\r\n").unwrap();
    match client.read_reply().unwrap() {
        Frame::Error(msg) => assert!(msg.contains("unknown command"), "{msg}"),
        other => panic!("expected unknown-command error, got {other:?}"),
    }
    // Structurally invalid RESP is a protocol error and closes the
    // connection.
    client.stream.write_all(b"*1\r\n$abc\r\n").unwrap();
    match client.read_reply().unwrap() {
        Frame::Error(msg) => assert!(msg.contains("Protocol error"), "{msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
}

#[test]
fn protocol_error_mid_batch_flushes_prior_replies() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    // One write: two valid commands, then structurally invalid RESP.
    let mut out = BytesMut::new();
    encode(&Frame::command(["SET", "p", "1"]), &mut out);
    encode(&Frame::command(["INCR", "p2"]), &mut out);
    out.extend_from_slice(b"*1\r\n$abc\r\n");
    client.stream.write_all(&out).unwrap();

    // Both replies from before the error arrive, then the error, then EOF.
    assert_eq!(client.read_reply().unwrap(), Frame::ok());
    assert_eq!(client.read_reply().unwrap(), Frame::Integer(1));
    match client.read_reply().unwrap() {
        Frame::Error(msg) => assert!(msg.contains("Protocol error"), "{msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert!(client.read_reply().is_err(), "connection must close");
    // The prefix really executed.
    let mut c2 = BlockingClient::connect(server.local_addr).unwrap();
    assert_eq!(c2.command(["GET", "p"]).unwrap(), bulk("1"));
}

// ---------------------------------------------------------------------------
// Observability over live TCP, pipeline ordering, inline cap (DESIGN §10)
// ---------------------------------------------------------------------------

#[test]
fn info_slowlog_latency_work_over_tcp() {
    let (server, shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    assert_eq!(client.command(["SET", "k", "v"]).unwrap(), Frame::ok());
    assert_eq!(client.command(["GET", "k"]).unwrap(), bulk("v"));

    // INFO: default sections plus a latencystats section on request, with
    // the server-recorded IO stages present (we came in over a socket).
    let info = client.command(["INFO"]).unwrap();
    let Frame::Bulk(b) = &info else {
        panic!("INFO must be bulk, got {info:?}");
    };
    let text = String::from_utf8_lossy(b);
    assert!(text.contains("# Server") && text.contains("role:master"));

    let lat = client.command(["INFO", "latencystats"]).unwrap();
    let Frame::Bulk(b) = &lat else { panic!() };
    let text = String::from_utf8_lossy(b);
    for stage in ["io_read", "io_write", "parse", "apply", "e2e"] {
        assert!(
            text.contains(&format!("latency_percentiles_usec_{stage}:")),
            "missing {stage} in: {text}"
        );
    }

    // SLOWLOG with threshold 0 records the traffic.
    assert_eq!(
        client
            .command(["CONFIG", "SET", "slowlog-log-slower-than", "0"])
            .unwrap(),
        Frame::ok()
    );
    assert_eq!(client.command(["SET", "slow", "1"]).unwrap(), Frame::ok());
    let len = client.command(["SLOWLOG", "LEN"]).unwrap();
    assert!(matches!(len, Frame::Integer(n) if n >= 1), "{len:?}");
    let got = client.command(["SLOWLOG", "GET", "1"]).unwrap();
    let Frame::Array(entries) = got else { panic!() };
    assert_eq!(entries.len(), 1);
    assert_eq!(client.command(["SLOWLOG", "RESET"]).unwrap(), Frame::ok());

    // LATENCY HISTOGRAM is a RESP3 map keyed by stage name.
    let hist = client.command(["LATENCY", "HISTOGRAM"]).unwrap();
    let Frame::Map(pairs) = &hist else {
        panic!("LATENCY HISTOGRAM must be a map, got {hist:?}");
    };
    let stages: Vec<String> = pairs
        .iter()
        .filter_map(|(k, _)| match k {
            Frame::Bulk(b) => Some(String::from_utf8_lossy(b).into_owned()),
            _ => None,
        })
        .collect();
    for want in [
        "io_read",
        "io_write",
        "parse",
        "engine",
        "apply",
        "e2e",
        "log_append",
    ] {
        assert!(
            stages.iter().any(|s| s == want),
            "missing {want} in {stages:?}"
        );
    }

    // The registry the server recorded into is the node's own.
    let primary = shard.primary().unwrap();
    let snap = primary.metrics().snapshot();
    assert!(snap.counter("connections_accepted").unwrap_or(0) >= 1);

    // Stage attribution: after a few hundred pipelined SETs every stage of
    // the serving path (node registry) and of the durability path (txlog
    // registry) has samples, and the three top-level node spans tile the
    // batch's e2e span. Lock hold and apply nest inside `engine`; io and
    // parse happen outside e2e; only the commit-window check sits inside
    // e2e and outside the three.
    for round in 0..40 {
        let sets = (0..8).map(|i| ["SET".to_string(), format!("a{round}:{i}"), "v".to_string()]);
        let replies = client.pipeline(sets).unwrap();
        assert!(replies.iter().all(|r| *r == Frame::ok()), "{replies:?}");
    }
    let node = primary.metrics().snapshot();
    let log = shard.ctx().log.metrics().snapshot();
    for stage in [
        "io_read",
        "io_write",
        "parse",
        "engine",
        "stripe_lock_hold",
        "apply",
        "commit_queue_wait",
        "flush_window",
        "durability",
        "e2e",
        "log_append",
        "quorum_ack",
    ] {
        let samples = [&node, &log]
            .iter()
            .filter_map(|snap| snap.stage(stage))
            .map(|s| s.count)
            .sum::<u64>();
        assert!(samples > 0, "stage `{stage}` has no samples");
    }
    let sum_us = |name: &str| node.stage(name).map_or(0, |s| s.sum_us) as f64;
    let tiled =
        (sum_us("engine") + sum_us("commit_queue_wait") + sum_us("durability")) / sum_us("e2e");
    assert!(
        (0.80..=1.02).contains(&tiled),
        "engine + commit_queue_wait + durability accounts for {tiled:.3} of e2e"
    );
}

#[test]
fn pipeline_replies_never_reorder_under_batch_splits() {
    // A pipeline mixing connection-level commands (READONLY/READWRITE flush
    // the run), MULTI/EXEC, errors, and plain commands must come back in
    // exact submission order. This pins the positional-reply invariant the
    // batch splitter relies on.
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    let replies = client
        .pipeline([
            vec!["SET", "x", "1"],
            vec!["READONLY"],
            vec!["INCR", "x"],
            vec!["READWRITE"],
            vec!["NOSUCHCMD"],
            vec!["GET", "x"],
            vec!["PING"],
        ])
        .unwrap();
    assert_eq!(replies.len(), 7);
    assert_eq!(replies[0], Frame::ok());
    assert_eq!(replies[1], Frame::ok());
    assert_eq!(replies[2], Frame::Integer(2));
    assert_eq!(replies[3], Frame::ok());
    assert!(matches!(&replies[4], Frame::Error(_)), "{:?}", replies[4]);
    assert_eq!(replies[5], bulk("2"));
    assert_eq!(replies[6], Frame::Simple("PONG".into()));

    // A >BATCH_CAP pipeline split into multiple engine batches keeps order:
    // INCR replies must be exactly 1..=N.
    let n = BATCH_CAP * 2 + 17;
    let cmds: Vec<Vec<String>> = (0..n)
        .map(|_| vec!["INCR".to_string(), "ctr".to_string()])
        .collect();
    let replies = client.pipeline(cmds).unwrap();
    assert_eq!(replies.len(), n);
    for (i, r) in replies.iter().enumerate() {
        assert_eq!(*r, Frame::Integer(i as i64 + 1), "reorder at index {i}");
    }
}

/// Deferred-reply safety: when the primary is fenced while client batches
/// are parked awaiting durability, every parked reply must drain as a
/// CLUSTERDOWN error — never +OK (the write is not durable) and never a
/// hang (the IO thread no longer blocks inside the node, so resolution
/// must come from the commit pipeline's poison path).
#[test]
fn fenced_primary_errors_parked_replies_instead_of_hanging() {
    // Quiet renewal cadence (600ms) so the fence is discovered by the
    // committer's conditional append — the parked-batch poison path —
    // rather than by a racing lease renewal.
    let shard = Shard::bootstrap(
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
        0,
    );
    let primary = shard.wait_for_primary(Duration::from_secs(10)).unwrap();
    let server = Server::start(primary, "127.0.0.1:0").unwrap();
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    assert_eq!(client.command(["SET", "stable", "1"]).unwrap(), Frame::ok());

    // Fence out-of-band: a foreign append moves the log tail, so the
    // committer's next conditional append loses and poisons the pipeline.
    let fence = memorydb_core::Record::Effects {
        version: memorydb_engine::EngineVersion::CURRENT,
        effects: vec![memorydb_engine::cmd(["SET", "sneak", "1"])],
    };
    shard
        .ctx()
        .log
        .append(999, fence.encode_framed())
        .expect("foreign append");

    // A pipeline of writes: each parks on the connection until its ticket
    // resolves. All three must come back as errors, in order, within the
    // client's read timeout.
    let replies = client
        .pipeline(vec![
            vec!["SET", "lost1", "x"],
            vec!["SET", "lost2", "x"],
            vec!["SET", "lost3", "x"],
        ])
        .expect("parked replies must drain, not hang");
    assert_eq!(replies.len(), 3);
    for r in &replies {
        match r {
            Frame::Error(m) => assert!(m.starts_with("CLUSTERDOWN"), "{m}"),
            other => panic!("fenced parked write was acknowledged: {other:?}"),
        }
    }
}

#[test]
fn oversized_inline_line_is_rejected_not_buffered_forever() {
    let (server, _shard) = test_server(0);
    let mut client = BlockingClient::connect(server.local_addr).unwrap();
    // A newline-free inline blob past INLINE_MAX must produce a protocol
    // error and a closed connection, not unbounded buffering.
    let blob = vec![b'a'; INLINE_MAX + 512];
    client.stream.write_all(&blob).unwrap();
    let reply = client.read_reply().unwrap();
    let Frame::Error(msg) = reply else {
        panic!("expected protocol error, got {reply:?}");
    };
    assert!(msg.contains("too big inline request"), "{msg}");
    assert!(client.read_reply().is_err(), "connection must close");
}

/// Drains every complete command currently buffered on `raw` into `out`
/// as owned byte vectors, surfacing any protocol error.
fn drain_all_owned(raw: &mut BytesMut, out: &mut Vec<Vec<Vec<u8>>>) -> Result<(), String> {
    loop {
        match next_command(raw)? {
            Some(args) => out.push(args.iter().map(|a| a.to_vec()).collect()),
            None => return Ok(()),
        }
    }
}

/// Equivalence property for the borrowed-decode parser: a mixed stream of
/// RESP arrays (including binary args with embedded CRLF/NUL and empty
/// bulks), inline commands, and blank separator lines must parse to the
/// same command sequence whether it arrives as one contiguous read or
/// split at every possible chunk boundary.
#[test]
fn next_command_equivalence_across_arbitrary_splits() {
    let mut stream: Vec<u8> = Vec::new();
    stream.extend_from_slice(b"*3\r\n$3\r\nSET\r\n$2\r\nk1\r\n$2\r\nv1\r\n");
    stream.extend_from_slice(b"*2\r\n$3\r\nGET\r\n$2\r\nk1\r\n");
    stream.extend_from_slice(b"*3\r\n$3\r\nSET\r\n$3\r\nbin\r\n$6\r\na\r\nb\x00c\r\n");
    stream.extend_from_slice(b"\r\n"); // blank separator line
    stream.extend_from_slice(b"PING\r\n"); // inline command
    stream.extend_from_slice(b"  ECHO   hi  \r\n"); // inline, extra spaces
    stream.extend_from_slice(b"\n");
    stream.extend_from_slice(b"*3\r\n$3\r\nSET\r\n$5\r\nempty\r\n$0\r\n\r\n");

    let expected: Vec<Vec<Vec<u8>>> = vec![
        vec![b"SET".to_vec(), b"k1".to_vec(), b"v1".to_vec()],
        vec![b"GET".to_vec(), b"k1".to_vec()],
        vec![b"SET".to_vec(), b"bin".to_vec(), b"a\r\nb\x00c".to_vec()],
        vec![b"PING".to_vec()],
        vec![b"ECHO".to_vec(), b"hi".to_vec()],
        vec![b"SET".to_vec(), b"empty".to_vec(), b"".to_vec()],
    ];

    // Whole-stream parse.
    let mut raw = BytesMut::new();
    raw.extend_from_slice(&stream);
    let mut whole = Vec::new();
    drain_all_owned(&mut raw, &mut whole).unwrap();
    assert_eq!(whole, expected);
    assert!(raw.is_empty());

    // Chunked parses: every fixed chunk size exercises a different set of
    // split points, including mid-header, mid-argument, and mid-CRLF.
    for chunk in [1usize, 2, 3, 5, 8, 13, 64] {
        let mut raw = BytesMut::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            raw.extend_from_slice(piece);
            drain_all_owned(&mut raw, &mut got)
                .unwrap_or_else(|e| panic!("chunk={chunk}: unexpected error {e}"));
        }
        assert_eq!(got, expected, "chunk={chunk} parsed a different sequence");
    }
}

/// A malformed stream must fail identically whole and chunked, after
/// yielding the same valid prefix.
#[test]
fn next_command_errors_identically_chunked_and_whole() {
    let mut stream: Vec<u8> = Vec::new();
    stream.extend_from_slice(b"*2\r\n$3\r\nGET\r\n$2\r\nk1\r\n"); // valid prefix
    stream.extend_from_slice(b":5\r\n"); // top-level non-array frame

    let mut raw = BytesMut::new();
    raw.extend_from_slice(&stream);
    let mut whole = Vec::new();
    let whole_err = drain_all_owned(&mut raw, &mut whole).unwrap_err();
    assert_eq!(whole, vec![vec![b"GET".to_vec(), b"k1".to_vec()]]);

    for chunk in [1usize, 3, 7] {
        let mut raw = BytesMut::new();
        let mut got = Vec::new();
        let mut err = None;
        for piece in stream.chunks(chunk) {
            raw.extend_from_slice(piece);
            if let Err(e) = drain_all_owned(&mut raw, &mut got) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(got, whole, "chunk={chunk}: different valid prefix");
        assert_eq!(err.as_ref(), Some(&whole_err), "chunk={chunk}");
    }
}

/// Satellite (c) regression: a connection that ballooned its IO buffers
/// during a pipelined burst must shed them once drained — idle
/// connections may not pin burst-sized capacity — and the IO-thread pool
/// must never adopt an oversized buffer either.
#[test]
fn oversized_idle_buffers_are_shed_and_never_pooled() {
    let hw = BUF_HIGH_WATER;
    let mut pool = BufPool::default();

    // Balloon both connection buffers past the high-water mark, then
    // drain them (the idle state after a burst).
    let mut conn = ConnState::new(&mut pool);
    conn.raw.extend_from_slice(&vec![0u8; hw + 1]);
    conn.raw.clear();
    conn.out.extend_from_slice(&vec![0u8; hw + 1]);
    conn.out.clear();
    assert!(conn.raw.capacity() > hw && conn.out.capacity() > hw);

    conn.shed_oversized(&mut pool);
    assert!(
        conn.raw.capacity() <= hw,
        "idle raw buffer still resident at {} bytes",
        conn.raw.capacity()
    );
    assert!(
        conn.out.capacity() <= hw,
        "idle out buffer still resident at {} bytes",
        conn.out.capacity()
    );

    // A buffer still holding bytes is NOT shed: shedding it would drop
    // undelivered data.
    let mut busy = ConnState::new(&mut pool);
    busy.raw.extend_from_slice(&vec![0u8; hw + 1]);
    let before = busy.raw.capacity();
    busy.shed_oversized(&mut pool);
    assert_eq!(busy.raw.capacity(), before);
    assert_eq!(busy.raw.len(), hw + 1);

    // The pool never adopts an oversized buffer and clears what it keeps.
    let mut big = BytesMut::new();
    big.extend_from_slice(&vec![0u8; hw + 1]);
    big.clear();
    pool.put(big);
    assert!(
        pool.free.iter().all(|b| b.capacity() <= hw),
        "pool adopted an oversized buffer"
    );
    let mut small = BytesMut::new();
    small.extend_from_slice(b"leftover bytes");
    pool.put(small);
    let recycled = pool.free.last().expect("small buffer should be pooled");
    assert!(recycled.is_empty(), "pool must clear recycled buffers");

    // And the pool is bounded: POOL_CAP puts, not one more.
    let mut pool = BufPool::default();
    for _ in 0..(POOL_CAP + 8) {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"x");
        pool.put(b);
    }
    assert_eq!(pool.free.len(), POOL_CAP);
}

/// Standing liveness smoke for hazard reads across connections: every
/// connection keeps overwriting its own key and reading its neighbour's,
/// so reads constantly land on keys with an unacknowledged write from
/// another connection and must park on that write's commit. Shapes per
/// round: a lone `SET mine`, a lone `GET other`, a pipelined
/// `[GET other, SET mine, GET other]`, and a depth-8 alternating pipeline
/// whose bytes arrive split mid-frame across two socket writes. Any error
/// reply fails the run, and so does any reply that takes longer than the
/// client's 10 s read timeout — a wedged connection.
fn cross_connection_hazard_reads(log: memorydb_txlog::LogConfig, conns: usize) {
    const ROUNDS: usize = 150;
    let shard = Shard::bootstrap(
        0,
        ShardConfig {
            lease: Duration::from_secs(2),
            renew_interval: Duration::from_millis(400),
            backoff: Duration::from_millis(2250),
            log,
            ..ShardConfig::fast()
        },
        Arc::new(ObjectStore::new()),
        Arc::new(ClusterBus::new()),
        Arc::new(NodeIdGen::new()),
        vec![(0, 16383)],
        0,
    );
    let primary = shard.wait_for_primary(Duration::from_secs(10)).unwrap();
    let server = Server::start(primary, "127.0.0.1:0").unwrap();
    let addr = server.local_addr;
    let start = Arc::new(std::sync::Barrier::new(conns));

    let workers: Vec<_> = (0..conns)
        .map(|me| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut c = BlockingClient::connect(addr).unwrap();
                let mine = format!("k{me}");
                let other = format!("k{}", (me + 1) % conns);
                let (mine, other) = (mine.as_str(), other.as_str());
                let served = |what: &str, r: Frame| {
                    assert!(!r.is_error(), "conn {me} {what}: {r:?}");
                };
                start.wait();
                for round in 0..ROUNDS {
                    let v = round.to_string();
                    let v = v.as_str();
                    served("SET", c.command(["SET", mine, v]).expect("SET reply"));
                    served("GET", c.command(["GET", other]).expect("GET reply"));
                    let mixed = c
                        .pipeline([vec!["GET", other], vec!["SET", mine, v], vec!["GET", other]])
                        .expect("mixed pipeline replies");
                    assert_eq!(mixed.len(), 3);
                    for r in mixed {
                        served("mixed pipeline", r);
                    }

                    let mut out = BytesMut::new();
                    for j in 0..8 {
                        let parts: &[&str] = if j % 2 == 0 {
                            &["SET", mine, v]
                        } else {
                            &["GET", other]
                        };
                        let owned = parts.iter().map(|p| p.as_bytes().to_vec());
                        encode(&Frame::command(owned), &mut out);
                    }
                    let cut = out.len() / 2 + 1;
                    c.stream.write_all(&out[..cut]).unwrap();
                    c.stream.write_all(&out[cut..]).unwrap();
                    for _ in 0..8 {
                        served("split pipeline", c.read_reply().expect("split reply"));
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("hazard-read worker");
    }
}

#[test]
fn cross_connection_hazard_reads_on_the_instant_log() {
    for conns in [2, 4] {
        cross_connection_hazard_reads(memorydb_txlog::LogConfig::instant(), conns);
    }
}

#[test]
fn cross_connection_hazard_reads_on_the_multi_az_log() {
    for conns in [2, 4] {
        cross_connection_hazard_reads(memorydb_txlog::LogConfig::multi_az(), conns);
    }
}
