//! Per-layer costs, timed from here around calls into each layer's public
//! functions, single-threaded, on inputs generated from the run's seed.
//!
//! Two passes. The *loops* time many calls of one function and divide, so
//! the clock's own cost does not show; they give the `*_ns` metrics. The
//! *replay* pushes requests one at a time through every layer, wrapping
//! each call in a span, keeps the spans in memory and writes them out at
//! the end; a layer's self time is its span minus its children's. Spans
//! inside the program itself are a later change.

use crate::gen::{make_stream, Class, ConnSpec, KeyDist, Rng, SeqAlloc, Stream, VALUE_LEN};
use crate::json::{obj, Json};
use crate::loadgen::median;
use bytes::{Bytes, BytesMut};
use memorydb_core::{ClusterBus, Node, NodeIdGen, Record, Shard, ShardConfig};
use memorydb_engine::exec::Role;
use memorydb_engine::{rdb, EffectCmd, Engine, EngineVersion, Frame, SessionState};
use memorydb_objectstore::ObjectStore;
use memorydb_resp::{decode_command, encode, CommandParse};
use memorydb_txlog::{EntryId, LogConfig, LogService};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The injected median quorum commit of the multi-AZ log, µs: second
/// fastest of three draws of 1.2 ms + U(0, 0.8 ms).
const INJECTED_COMMIT_US: f64 = 1_600.0;

const LOG_CLIENT: u64 = 90_001;

/// How much work the layer passes do.
#[derive(Debug, Clone, Copy)]
pub struct LayerParams {
    pub keys: u32,
    /// Calls per timed loop of a cheap function.
    pub iters: usize,
    /// Appends timed against the log with injected multi-AZ delay.
    pub multi_az_appends: usize,
    /// Requests per class pushed through the span replay.
    pub span_requests: usize,
    pub lease: Duration,
}

/// Times `f` over every item once and returns ns per item.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

fn decode_all(stream: &Stream) -> (Vec<Vec<Bytes>>, f64) {
    let mut buf = BytesMut::from(stream.bytes.as_slice());
    let mut cmds = Vec::with_capacity(stream.reqs.len());
    let t0 = Instant::now();
    while let Ok(CommandParse::Cmd(args)) = decode_command(&mut buf) {
        cmds.push(args);
    }
    let ns = t0.elapsed().as_nanos() as f64 / cmds.len().max(1) as f64;
    assert_eq!(
        cmds.len(),
        stream.reqs.len(),
        "a generated request failed to decode"
    );
    (cmds, ns)
}

fn set_cmd(key: u32) -> Vec<Bytes> {
    vec![
        Bytes::from_static(b"SET"),
        Bytes::from(crate::gen::key_name(key)),
        Bytes::from(crate::gen::value_of(key, 0)),
    ]
}

/// An instant-log twin of the serving shard, driven through `Node::handle`
/// by one caller, with the whole keyspace loaded.
struct Twin {
    shard: Arc<Shard>,
    node: Arc<Node>,
    threads_before: usize,
}

impl Twin {
    fn boot(keys: u32, lease: Duration) -> Twin {
        let threads_before = crate::procfs::thread_count();
        let shard = Shard::bootstrap(
            0,
            ShardConfig {
                lease,
                renew_interval: lease / 5,
                backoff: lease + lease / 10,
                log: LogConfig::instant(),
                ..ShardConfig::default()
            },
            Arc::new(ObjectStore::new()),
            Arc::new(ClusterBus::new()),
            Arc::new(NodeIdGen::new()),
            vec![(0, 16383)],
            0,
        );
        let node = shard
            .wait_for_primary(3 * lease + Duration::from_secs(5))
            .expect("the twin shard elects its only node");
        let mut session = SessionState::new();
        let all: Vec<Vec<Bytes>> = (0..keys).map(set_cmd).collect();
        for batch in all.chunks(512) {
            for reply in node.handle_batch(&mut session, batch) {
                assert_eq!(reply, Frame::ok(), "twin preload SET failed");
            }
        }
        Twin {
            shard,
            node,
            threads_before,
        }
    }

    fn stop(self) {
        crate::harness::stop_shard(&self.shard, &self.node, self.threads_before);
    }
}

/// One recorded call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one; -1 for a request's root.
    parent: i64,
    request_id: u32,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: i64,
        request_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, i64) {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (out, self.spans.len() as i64 - 1)
    }

    /// Median over requests of each layer's self time: its span's length
    /// minus the length of the spans it caused.
    fn self_time_p50_ns(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*children) as f64;
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => v.push(own),
                None => by_name.push((s.name, vec![own])),
            }
        }
        by_name
            .into_iter()
            .map(|(n, mut v)| (n, median(&mut v)))
            .collect()
    }

    fn to_json(&self, workload: &str, seed: u64) -> Json {
        obj([
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(seed as f64)),
            (
                "self_time_p50_ns",
                Json::Obj(
                    self.self_time_p50_ns()
                        .into_iter()
                        .map(|(n, v)| (n.to_string(), Json::Num(v)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            obj([
                                ("name", Json::Str(s.name.into())),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("parent", Json::Num(s.parent as f64)),
                                ("request_id", Json::Num(s.request_id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Pushes `stream`'s requests one at a time through every layer, a span
/// around each call. The per-layer calls under `node.handle` run apart
/// from it, on scratch copies and the same arguments, and name it as their
/// parent.
#[allow(clippy::too_many_arguments)]
fn replay(
    tracer: &mut Tracer,
    stream: &Stream,
    count: usize,
    first_id: u32,
    twin: &Node,
    scratch: &mut Engine,
    log: &LogService,
    tail: &mut EntryId,
) {
    let mut session = SessionState::new();
    let mut out = BytesMut::with_capacity(256);
    for idx in 0..count.min(stream.reqs.len()) {
        let id = first_id + idx as u32;
        let mut buf = BytesMut::from(stream.encoded(idx));
        let (parsed, _) = tracer.span("resp.decode_command", -1, id, || decode_command(&mut buf));
        let Ok(CommandParse::Cmd(args)) = parsed else {
            panic!("a generated request failed to decode");
        };
        let (reply, handle) =
            tracer.span("node.handle", -1, id, || twin.handle(&mut session, &args));
        let (outcome, _) = tracer.span("engine.execute", handle, id, || {
            scratch.execute(&mut session, &args)
        });
        if !outcome.effects.is_empty() {
            let record = Record::Effects {
                version: EngineVersion::CURRENT,
                effects: outcome.effects,
            };
            let (frame, _) = tracer.span("record.encode_framed", handle, id, || {
                record.encode_framed()
            });
            tracer.span("txlog.append_wait", handle, id, || {
                *tail = append_and_wait(log, *tail, std::slice::from_ref(&frame));
            });
        }
        out.clear();
        tracer.span("resp.encode", -1, id, || encode(&reply, &mut out));
    }
}

fn append_and_wait(log: &LogService, tail: EntryId, frames: &[Bytes]) -> EntryId {
    let ids = log
        .append_batch_after(LOG_CLIENT, tail, frames)
        .expect("the scratch log has one writer");
    let last = ids.last().copied().unwrap_or(tail);
    assert!(
        log.wait_durable(last, Duration::from_secs(10)),
        "the scratch log commits"
    );
    last
}

/// Runs both passes. Returns the metrics by name and the trace document.
pub fn measure(
    workload: &str,
    seed: u64,
    dist: KeyDist,
    p: LayerParams,
) -> (Vec<(&'static str, f64)>, Json) {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let spec = |class| ConnSpec {
        class,
        rate: 0,
        dist,
        parity: None,
    };
    let mut seqs = SeqAlloc::new(p.keys);
    let gets = make_stream(
        spec(Class::Get),
        p.iters,
        p.keys,
        &mut Rng::new(seed, 10),
        &mut seqs,
    );
    let sets = make_stream(
        spec(Class::Set),
        p.iters,
        p.keys,
        &mut Rng::new(seed, 11),
        &mut seqs,
    );

    // resp
    let (get_cmds, ns) = decode_all(&gets);
    m.push(("resp.decode_get_ns", ns));
    let (set_cmds, ns) = decode_all(&sets);
    m.push(("resp.decode_set_ns", ns));
    let mut out = BytesMut::with_capacity(64 * 1024);
    let bulk = Frame::Bulk(Bytes::from(vec![b'x'; VALUE_LEN]));
    let mut encode_ns = |frame: &Frame| {
        per_item_ns(&get_cmds, |_| {
            if out.len() > 32 * 1024 {
                out.clear();
            }
            encode(black_box(frame), &mut out);
        })
    };
    m.push(("resp.encode_bulk_ns", encode_ns(&bulk)));
    m.push(("resp.encode_ok_ns", encode_ns(&Frame::ok())));

    // engine
    let mut session = SessionState::new();
    let mut engine = Engine::new(Role::Primary);
    for key in 0..p.keys {
        engine.execute(&mut session, &set_cmd(key));
    }
    m.push((
        "engine.get_ns",
        per_item_ns(&get_cmds, |c| {
            black_box(engine.execute(&mut session, c));
        }),
    ));
    let mut effects: Vec<Vec<EffectCmd>> = Vec::with_capacity(set_cmds.len());
    m.push((
        "engine.set_ns",
        per_item_ns(&set_cmds, |c| {
            effects.push(engine.execute(&mut session, c).effects);
        }),
    ));
    let t0 = Instant::now();
    let image = rdb::dump(&engine.db);
    m.push((
        "engine.rdb_dump_mb_s",
        image.len() as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    ));
    let t0 = Instant::now();
    let loaded = rdb::load(&image).expect("a fresh dump loads");
    m.push((
        "engine.rdb_load_mb_s",
        image.len() as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    ));
    assert_eq!(loaded.len(), engine.db.len());
    drop(loaded);

    // objectstore: the image as sixteen chunk-sized objects.
    let store = ObjectStore::new();
    let image = Bytes::from(image);
    let part = image.len().div_ceil(16).max(1);
    let t0 = Instant::now();
    for (i, lo) in (0..image.len()).step_by(part).enumerate() {
        let hi = (lo + part).min(image.len());
        store.put(&format!("ledger/chunk-{i:02}"), image.slice(lo..hi));
    }
    m.push((
        "objectstore.put_mb_s",
        image.len() as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    ));
    let t0 = Instant::now();
    let mut fetched = 0;
    for meta in store.list("ledger/") {
        fetched += store
            .get(&meta.key)
            .expect("a stored chunk reads back")
            .1
            .len();
    }
    m.push((
        "objectstore.get_mb_s",
        fetched as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    ));
    assert_eq!(fetched, image.len());
    drop((store, image));
    let mut replica = Engine::new(Role::Replica);
    let flat: Vec<&EffectCmd> = effects.iter().flatten().collect();
    m.push((
        "engine.apply_effect_ns",
        per_item_ns(&flat, |e| {
            replica.apply_effect(e).expect("a SET effect applies");
        }),
    ));
    drop(replica);

    // core.record
    let records: Vec<Record> = effects
        .into_iter()
        .map(|effects| Record::Effects {
            version: EngineVersion::CURRENT,
            effects,
        })
        .collect();
    let mut frames: Vec<Bytes> = Vec::with_capacity(records.len());
    m.push((
        "record.encode_ns",
        per_item_ns(&records, |r| frames.push(r.encode_framed())),
    ));
    drop(records);
    m.push((
        "record.decode_ns",
        per_item_ns(&frames, |f| {
            black_box(Record::decode_framed(f).expect("an encoded record decodes"));
        }),
    ));

    // txlog: the round trip is a cross-thread handoff, so fewer calls.
    let frames = &frames[..(p.iters / 5).max(32).min(frames.len())];
    let log = LogService::new(LogConfig::instant());
    let mut tail = log.committed_tail();
    m.push((
        "txlog.append1_ns",
        per_item_ns(frames, |f| {
            tail = append_and_wait(&log, tail, std::slice::from_ref(f));
        }),
    ));
    let t0 = Instant::now();
    for batch in frames.chunks(32) {
        tail = append_and_wait(&log, tail, batch);
    }
    m.push((
        "txlog.append32_ns",
        t0.elapsed().as_nanos() as f64 / frames.len() as f64,
    ));
    let t0 = Instant::now();
    let (mut after, mut read) = (EntryId::ZERO, 0usize);
    loop {
        let got = log
            .read_committed_from(LOG_CLIENT, after, 1024)
            .expect("the scratch log is untrimmed");
        let Some(last) = got.last() else { break };
        after = last.id;
        read += got.len();
    }
    m.push((
        "txlog.read_ns",
        t0.elapsed().as_nanos() as f64 / read.max(1) as f64,
    ));

    let slow = LogService::new(LogConfig::multi_az());
    let mut slow_tail = slow.committed_tail();
    let mut commit_us: Vec<f64> = frames
        .iter()
        .cycle()
        .take(p.multi_az_appends)
        .map(|f| {
            let t0 = Instant::now();
            slow_tail = append_and_wait(&slow, slow_tail, std::slice::from_ref(f));
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    m.push((
        "txlog.commit_over_injected_us",
        median(&mut commit_us) - INJECTED_COMMIT_US,
    ));
    slow.shutdown();

    // core.node, on the twin
    let twin = Twin::boot(p.keys, p.lease);
    m.push((
        "engine.mem_bytes_per_key",
        twin.node.dataset_bytes() as f64 / twin.node.key_count().max(1) as f64,
    ));
    let check = |reply: Frame, want_ok: bool| {
        let right = if want_ok {
            reply == Frame::ok()
        } else {
            matches!(reply, Frame::Bulk(_))
        };
        assert!(right, "the twin answered {reply:?}");
    };
    m.push((
        "node.get_ns",
        per_item_ns(&get_cmds, |c| {
            check(twin.node.handle(&mut session, c), false)
        }),
    ));
    let few_sets = &set_cmds[..frames.len()];
    m.push((
        "node.set_ns",
        per_item_ns(few_sets, |c| check(twin.node.handle(&mut session, c), true)),
    ));
    let t0 = Instant::now();
    for batch in few_sets.chunks(32) {
        for reply in twin.node.handle_batch(&mut session, batch) {
            check(reply, true);
        }
    }
    m.push((
        "node.set_batch32_ns",
        t0.elapsed().as_nanos() as f64 / few_sets.len() as f64,
    ));
    let value = |name: &str| m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let self_get = value("node.get_ns") - value("engine.get_ns");
    let self_set = value("node.set_ns")
        - value("engine.set_ns")
        - value("record.encode_ns")
        - value("txlog.append1_ns");
    m.push(("node.self_get_ns", self_get));
    m.push(("node.self_set_ns", self_set));

    // The span replay, on the same streams' first requests.
    let mut tracer = Tracer {
        t0: Instant::now(),
        spans: Vec::with_capacity(p.span_requests * 12),
    };
    let n = p.span_requests;
    replay(
        &mut tracer,
        &gets,
        n,
        0,
        &twin.node,
        &mut engine,
        &log,
        &mut tail,
    );
    replay(
        &mut tracer,
        &sets,
        n,
        n as u32,
        &twin.node,
        &mut engine,
        &log,
        &mut tail,
    );
    twin.stop();
    log.shutdown();
    (m, tracer.to_json(workload, seed))
}
