//! One run of one workload: set-up, first snapshot, the paced phase,
//! restore with the durability check, and — in a traced run — the layer
//! passes and the counters read around the paced phase.

use crate::gen::{make_stream, Class, Rng, SeqAlloc, Stream, KEY_LEN, VALUE_LEN};
use crate::harness::{lost_acknowledged_writes, Instance};
use crate::json::Json;
use crate::layers::{self, LayerParams};
use crate::loadgen::{
    median, quantile, run_paced, run_window, summarize, wait_for_calm, Edge, KeyState, PacedPlan,
    PacedResult, PhaseCfg, Stop, WindowPlan, MIN_WINDOW_SAMPLES, REQUEST_TIMEOUT,
};
use crate::procfs::{self, GroupDelta, ThreadStat};
use crate::spec::{LogKind, Workload};
use memorydb_metrics::{alloc_counts, AllocCounts, MetricsSnapshot};
use memorydb_txlog::{EntryId, LogConfig};
use std::time::{Duration, Instant};

/// A one-second window is disturbed — dropped like an empty one — when
/// sends ran later than this against their schedule at the 99th percentile,
/// or the hypervisor kept more than this share of the machine's time. Both
/// are about the generator and the machine, never about the program.
const DISTURBED_LATE_P99_NS: u64 = 1_000_000;
const DISTURBED_STEAL_SHARE: f64 = 0.05;

/// Which windows of a paced phase were disturbed.
fn disturbed_windows(late_ns: &[Vec<u64>], jiffies_at: &[(u64, u64)]) -> Vec<bool> {
    late_ns
        .iter()
        .enumerate()
        .map(|(w, late)| {
            let mut late = late.clone();
            late.sort_unstable();
            let steal = match (jiffies_at.get(w), jiffies_at.get(w + 1)) {
                (Some(a), Some(b)) => ratio(
                    b.0.saturating_sub(a.0) as f64,
                    b.1.saturating_sub(a.1) as f64,
                ),
                _ => 0.0,
            };
            quantile(&late, 0.99) > DISTURBED_LATE_P99_NS || steal > DISTURBED_STEAL_SHARE
        })
        .collect()
}

/// Sizes and durations of a run. `full` is what `BENCHMARK.json` runs;
/// the smoke test shrinks everything.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub keys: u32,
    pub warmup: Duration,
    pub measure: Duration,
    /// Long against any stall this machine imposes, so the primary is
    /// never demoted mid-run.
    pub lease: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Restores per run; `restore_s` is their median.
    pub restore_reps: usize,
    pub burst: Duration,
    /// Most a run may spend waiting for the machine to go quiet before its
    /// timed steps, all together.
    pub calm_budget: Duration,
    /// Times the paced phase may be measured when disturbed.
    pub paced_attempts: usize,
    pub layers: LayerParams,
}

impl Params {
    pub fn full(seconds: u64) -> Params {
        let keys = crate::spec::KEYS;
        Params {
            keys,
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(seconds),
            lease: Duration::from_secs(2),
            setup_reps: 3,
            restore_reps: 5,
            burst: Duration::from_secs(2),
            calm_budget: Duration::from_secs(30),
            paced_attempts: 2,
            layers: LayerParams {
                keys,
                iters: 100_000,
                multi_az_appends: 400,
                span_requests: 5_000,
                lease: Duration::from_secs(1),
            },
        }
    }

    /// Seconds-long sizes for the smoke test: every code path, no claim
    /// about any number.
    pub fn smoke() -> Params {
        let keys = 2_000;
        let lease = Duration::from_millis(500);
        Params {
            keys,
            warmup: Duration::from_millis(300),
            measure: Duration::from_secs(1),
            lease,
            setup_reps: 2,
            restore_reps: 1,
            burst: Duration::from_millis(300),
            calm_budget: Duration::ZERO,
            paced_attempts: 1,
            layers: LayerParams {
                keys,
                iters: 2_000,
                multi_az_appends: 20,
                span_requests: 100,
                lease,
            },
        }
    }
}

/// Everything one run found.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Every metric the run produced, by name. An untraced run produces
    /// the end-to-end metrics and the `loadgen.*` validity gauges; a traced
    /// run the per-layer metrics.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged writes that a restore from the object store and the
    /// log did not bring back (counted in `failed` too).
    pub lost_writes: u64,
    pub noisy: bool,
    pub measured_s: f64,
    /// Samples behind `p50_us` / `p95_us`, and one-second windows kept.
    pub samples: usize,
    pub windows_kept: usize,
    /// Times the paced phase was measured.
    pub paced_attempts: usize,
    /// The gated class per one-second window: `(samples, p50 µs, p95 µs)`.
    pub windows: Vec<(usize, f64, f64)>,
    /// CPU µs per acknowledged operation per kept window.
    pub window_cpu: Vec<f64>,
    /// The span document of a traced run.
    pub trace: Option<Json>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Process and program counters at one edge of the measured span.
struct Probe {
    at: Instant,
    threads: Vec<ThreadStat>,
    jiffies: (u64, u64),
    node: MetricsSnapshot,
    log: MetricsSnapshot,
    append_calls: u64,
    tail: EntryId,
    alloc: AllocCounts,
}

impl Probe {
    fn take(inst: &Instance) -> Probe {
        let log = &inst.shard.ctx().log;
        Probe {
            at: Instant::now(),
            threads: procfs::threads(),
            jiffies: procfs::cpu_jiffies(),
            node: inst.primary.metrics().snapshot(),
            log: log.metrics().snapshot(),
            append_calls: log.append_calls(),
            tail: log.committed_tail(),
            alloc: alloc_counts(),
        }
    }
}

/// Growth of a registry stage between two snapshots, looked up by name so
/// that a reshaped `StageId` costs a metric, not the build: `(count, mean
/// µs)`, zeros when the name is gone.
fn stage_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let (Some(b), Some(a)) = (before.stage(name), after.stage(name)) else {
        eprintln!("ledger: registry stage `{name}` is absent");
        return (0.0, 0.0);
    };
    let count = a.count.saturating_sub(b.count) as f64;
    let sum = a.sum_us.saturating_sub(b.sum_us) as f64;
    (count, if count > 0.0 { sum / count } else { 0.0 })
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    match (before.counter(name), after.counter(name)) {
        (Some(b), Some(a)) => a.saturating_sub(b) as f64,
        _ => {
            eprintln!("ledger: registry counter `{name}` is absent");
            0.0
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Payload bytes the log committed in `(from, to]`.
fn log_payload_bytes(inst: &Instance, from: EntryId, to: EntryId) -> u64 {
    let log = &inst.shard.ctx().log;
    let (mut after, mut bytes) = (from, 0u64);
    while after < to {
        let Ok(entries) = log.read_committed_from(80_001, after, 4096) else {
            break;
        };
        let Some(last) = entries.last() else { break };
        after = last.id;
        bytes += entries
            .iter()
            .filter(|e| e.id <= to)
            .map(|e| e.payload.len() as u64)
            .sum::<u64>();
    }
    bytes
}

/// The traced run's rows that are growth of a counter over the measured
/// span: the program's registries (`core.pipeline`, `core.stripes`, `txlog`,
/// `server`), the operating system's account of its threads (`proc`), and
/// the allocator's (`alloc`).
fn counter_metrics(
    m: &mut Vec<(&'static str, f64)>,
    before: &Probe,
    after: &Probe,
    paced: &PacedResult,
    groups: &[(&'static str, GroupDelta)],
    log_bytes: u64,
) {
    let acked = (paced.acked[0] + paced.acked[1]) as f64;
    let group = |name: &str| {
        groups
            .iter()
            .find(|(g, _)| *g == name)
            .map(|(_, d)| d.clone())
            .unwrap_or_default()
    };
    let sets = paced.acked[Class::Set.index()] as f64;
    let (node_b, node_a, log_b, log_a) = (&before.node, &after.node, &before.log, &after.log);

    // core.pipeline, core.stripes, txlog, server: registry growth over
    // the measured span.
    let appends = after.append_calls.saturating_sub(before.append_calls) as f64;
    m.push(("pipeline.cmds_per_append", ratio(sets, appends)));
    for (metric, stage) in [
        ("pipeline.commit_queue_wait_mean_us", "commit_queue_wait"),
        ("pipeline.flush_window_mean_us", "flush_window"),
        ("pipeline.durability_mean_us", "durability"),
        ("stripes.lock_hold_mean_us", "stripe_lock_hold"),
        ("server.parse_mean_us", "parse"),
    ] {
        m.push((metric, stage_delta(node_b, node_a, stage).1));
    }
    m.push((
        "txlog.quorum_ack_mean_us",
        stage_delta(log_b, log_a, "quorum_ack").1,
    ));
    let cmds = counter_delta(node_b, node_a, "commands_dispatched");
    m.push((
        "stripes.conflicts_per_kcmd",
        ratio(
            1e3 * counter_delta(node_b, node_a, "stripe_conflicts"),
            cmds,
        ),
    ));
    m.push((
        "server.cmds_per_batch",
        ratio(cmds, counter_delta(node_b, node_a, "batches_dispatched")),
    ));
    m.push((
        "server.reads_per_cmd",
        ratio(stage_delta(node_b, node_a, "io_read").0, cmds),
    ));
    m.push((
        "server.writes_per_cmd",
        ratio(stage_delta(node_b, node_a, "io_write").0, cmds),
    ));
    let all = [&paced.latency_ns[0][..], &paced.latency_ns[1][..]].concat();
    m.push((
        "server.outside_node_mean_us",
        summarize(&all, MIN_WINDOW_SAMPLES, &[]).mean_us - stage_delta(node_b, node_a, "e2e").1,
    ));
    m.push((
        "record.log_bytes_per_user_byte",
        ratio(log_bytes as f64, paced.set_user_bytes as f64),
    ));

    // proc: the operating system's account of the same span.
    for (metric, name) in [
        ("proc.io_cpu_us_per_op", "io"),
        ("proc.node_cpu_us_per_op", "node"),
        ("proc.committer_cpu_us_per_op", "committer"),
        ("proc.completer_cpu_us_per_op", "completer"),
        ("proc.txlog_cpu_us_per_op", "txlog"),
        ("proc.other_cpu_us_per_op", "other"),
    ] {
        m.push((metric, ratio(group(name).cpu_ns as f64 / 1e3, acked)));
    }
    m.push((
        "proc.io_ctxsw_per_op",
        ratio(group("io").voluntary_ctxsw as f64, acked),
    ));
    let handoffs = ["committer", "completer", "txlog"]
        .iter()
        .map(|g| group(g).voluntary_ctxsw as f64)
        .sum::<f64>();
    m.push(("proc.commit_ctxsw_per_op", ratio(handoffs, sets)));
    let runq_us: f64 = groups.iter().map(|(_, d)| d.runq_ns as f64 / 1e3).sum();
    m.push(("proc.runq_wait_us_per_op", ratio(runq_us, acked)));

    // alloc: exact counts, zero unless the counting allocator is the
    // global one (the `ledger-traced` binary).
    let alloc = after.alloc.since(before.alloc);
    m.push(("alloc.calls_per_cmd", ratio(alloc.calls as f64, acked)));
    m.push(("alloc.bytes_per_cmd", ratio(alloc.bytes as f64, acked)));
}

/// Runs `w` once.
pub fn run(w: &'static Workload, seed: u64, p: &Params, traced: bool) -> Report {
    let me = procfs::current_tid();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Inputs are generated outside any clock. A traced run measures half as
    // long: its numbers are ratios and counts, and the time goes to the
    // layer passes instead.
    let measure = if traced { p.measure / 2 } else { p.measure };
    let span_s = (p.warmup + measure).as_secs_f64();
    let mut seqs = SeqAlloc::new(p.keys);
    let mut make_streams = |attempt: usize| -> Vec<Stream> {
        w.conns
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                let count = (span_s * spec.rate as f64).ceil() as usize;
                let mut rng = Rng::new(seed, (attempt * w.conns.len() + c) as u64);
                make_stream(*spec, count, p.keys, &mut rng, &mut seqs)
            })
            .collect()
    };
    let mut calm_budget = p.calm_budget;
    let log_cfg = || match w.log {
        LogKind::Instant => LogConfig::instant(),
        LogKind::MultiAz => LogConfig::multi_az(),
    };

    // Set-up: boot, election, preload over TCP. The first instance is the
    // one measured, so that resident memory at the end of its paced phase
    // holds nothing left over from another; the repeats come at the end.
    let mut setups: Vec<f64> = Vec::new();
    let mut set_up = |attempted: &mut u64, failed: &mut u64| {
        let t0 = Instant::now();
        let fresh = Instance::boot(log_cfg(), p.lease);
        let (a, f) = fresh.preload(p.keys);
        setups.push(t0.elapsed().as_secs_f64());
        *attempted += a;
        *failed += f;
        fresh
    };
    wait_for_calm(&mut calm_budget);
    let inst = set_up(&mut attempted, &mut failed);

    // First off-box snapshot: replays the preload from the log head, dumps
    // every chunk, trims the log.
    wait_for_calm(&mut calm_budget);
    let mut snapshots = vec![inst.cut_snapshot().as_secs_f64()];
    let snapshot_tail = inst.log_tail();
    let mut image_s = 0.0;
    if traced {
        m.push(("snapshot.full_s", snapshots[0]));
        // The image alone: the log holds nothing past the snapshot yet.
        image_s = inst.restore(snapshot_tail, 0).1.as_secs_f64();
        m.push(("restore.image_s", image_s));
    }

    // The paced phase. A phase in which the machine, not the program, was
    // slow for most of the windows is measured once more; a run whose last
    // attempt is still like that is flagged noisy.
    let windows = measure.as_secs_f64().ceil() as usize;
    let mut keys = KeyState::new(p.keys);
    let mut attempt = 0;
    let (streams, paced, before, after, cpu_at, disturbed, noisy) = loop {
        let streams = make_streams(attempt);
        attempt += 1;
        let plans: Vec<PacedPlan<'_>> = streams
            .iter()
            .zip(&w.conns)
            .enumerate()
            .map(|(c, (stream, spec))| {
                let interval = Duration::from_secs_f64(1.0 / spec.rate as f64);
                PacedPlan {
                    stream,
                    interval,
                    offset: interval * c as u32 / w.conns.len() as u32,
                }
            })
            .collect();
        wait_for_calm(&mut calm_budget);
        let (mut before, mut after) = (None, None);
        // At every window boundary: CPU time of the program's threads and
        // the machine's steal and total jiffies.
        let (mut tids, mut cpu_at, mut jiffies_at) = (Vec::new(), Vec::new(), Vec::new());
        let paced = run_paced(
            inst.addr,
            &plans,
            PhaseCfg {
                warmup: p.warmup,
                measure,
                timeout: REQUEST_TIMEOUT,
            },
            &mut keys,
            &mut |edge| {
                if edge == Edge::Start {
                    let probe = Probe::take(&inst);
                    tids = probe
                        .threads
                        .iter()
                        .map(|t| t.tid)
                        .filter(|t| *t != me)
                        .collect();
                    before = Some(probe);
                }
                cpu_at.push(procfs::cpu_ns_of(&tids));
                jiffies_at.push(procfs::cpu_jiffies());
                if edge == Edge::End {
                    after = Some(Probe::take(&inst));
                }
            },
        );
        attempted += paced.attempted;
        failed += paced.failed;
        let mut disturbed = disturbed_windows(&paced.late_ns, &jiffies_at);
        let clean = disturbed.iter().filter(|d| !**d).count();
        let noisy = 2 * clean < windows;
        if !noisy || attempt >= p.paced_attempts.max(1) {
            if clean == 0 {
                // Nothing quiet to fall back on: report the phase as it
                // was, flagged, rather than nothing.
                disturbed.fill(false);
            }
            drop(plans);
            break (
                streams,
                paced,
                before.expect("the phase reports its start"),
                after.expect("the phase reports its end"),
                cpu_at,
                disturbed,
                noisy,
            );
        }
    };

    if !traced {
        // Peak so far: the dataset, its log and first snapshot, the shadow
        // replica that cut it, and the paced phase's buffers.
        m.push(("peak_rss_mb", procfs::peak_rss_mb()));
    }
    let gated = summarize(
        &paced.latency_ns[w.gated.index()],
        MIN_WINDOW_SAMPLES,
        &disturbed,
    );
    let acked = (paced.acked[0] + paced.acked[1]) as f64;
    let groups = procfs::delta_by_group(&before.threads, &after.threads, me);
    // CPU per acknowledged operation, window by window; a window dropped
    // for latency is dropped here too.
    let window_cpu: Vec<f64> = cpu_at
        .windows(2)
        .zip(paced.latency_ns[0].iter().zip(&paced.latency_ns[1]))
        .zip(&disturbed)
        .filter(|(_, disturbed)| !**disturbed)
        .map(|((cpu, (gets, sets)), _)| (cpu[1].saturating_sub(cpu[0]), gets.len() + sets.len()))
        .filter(|(_, ops)| *ops >= MIN_WINDOW_SAMPLES)
        .map(|(cpu_ns, ops)| cpu_ns as f64 / 1e3 / ops as f64)
        .collect();
    let mut late = paced.late_ns.concat();
    late.sort_unstable();
    let late_p99_us = quantile(&late, 0.99) as f64 / 1e3;
    let steal_share = ratio(
        after.jiffies.0.saturating_sub(before.jiffies.0) as f64,
        after.jiffies.1.saturating_sub(before.jiffies.1) as f64,
    );
    let measured_s = (after.at - before.at).as_secs_f64();
    if !traced {
        m.push(("p50_us", gated.p50_us));
        m.push(("p95_us", gated.p95_us));
        m.push(("cpu_us_per_op", median(&mut window_cpu.clone())));
    }

    // Restore from the object store and the log alone, and check that every
    // acknowledged write came back.
    let tail = inst.log_tail();
    let mut restores: Vec<f64> = Vec::new();
    let mut lost_writes = 0;
    // A traced run needs one restore and one set-up: it reports neither
    // `restore_s` nor `setup_s`.
    let reps = |n: usize| if traced { 1 } else { n.max(1) };
    wait_for_calm(&mut calm_budget);
    for rep in 0..reps(p.restore_reps) {
        let (mut rp, took) = inst.restore(tail, 0);
        restores.push(took.as_secs_f64());
        if rep == 0 {
            lost_writes = lost_acknowledged_writes(&mut rp, &keys.acked);
            if rp.engine.db.len() != p.keys as usize {
                lost_writes = lost_writes.max(1);
            }
        }
    }
    failed += lost_writes;
    let restore_s = median(&mut restores);
    if !traced {
        m.push(("restore_s", restore_s));
    }

    // Validity of the run, not of the program.
    m.push(("loadgen.late_p99_us", late_p99_us));
    m.push(("loadgen.max_backlog", paced.max_backlog as f64));
    m.push((
        "loadgen.achieved_over_offered",
        ratio(acked, paced.offered as f64),
    ));
    m.push(("loadgen.p99_us", gated.p99_us));
    m.push(("loadgen.p999_us", gated.p999_us));
    m.push(("loadgen.max_us", gated.max_us));
    m.push((
        "loadgen.hazard_read_share",
        ratio(paced.hazard_gets as f64, paced.gets as f64),
    ));
    m.push(("loadgen.steal_share", steal_share));
    let other = match w.gated {
        Class::Get => Class::Set,
        Class::Set => Class::Get,
    };
    let other = summarize(
        &paced.latency_ns[other.index()],
        MIN_WINDOW_SAMPLES,
        &disturbed,
    );
    m.push(("loadgen.other_p50_us", other.p50_us));
    m.push(("loadgen.other_p95_us", other.p95_us));

    let mut trace = None;
    if traced {
        m.push(("loadgen.traced_p50_us", gated.p50_us));
        m.push(("loadgen.traced_p95_us", gated.p95_us));
        let log_bytes = log_payload_bytes(&inst, before.tail, after.tail);
        counter_metrics(&mut m, &before, &after, &paced, &groups, log_bytes);

        // core.restore
        let (_, seq) = inst.restore(tail, 1);
        m.push(("restore.seq_s", seq.as_secs_f64()));
        let suffix = (tail.0 - snapshot_tail.0) as f64;
        let replay_s = restore_s - image_s;
        m.push((
            "restore.replay_entries_per_s",
            if suffix >= 1_000.0 && replay_s > 0.0 {
                suffix / replay_s
            } else {
                0.0
            },
        ));

        // core.snapshot: the second cycle ships only the slot ranges the
        // paced phase dirtied.
        m.push(("snapshot.delta_s", inst.cut_snapshot().as_secs_f64()));
        let stored: usize = inst
            .shard
            .ctx()
            .store
            .list("")
            .iter()
            .map(|meta| meta.size)
            .sum();
        m.push((
            "snapshot.stored_bytes_per_user_byte",
            stored as f64 / (p.keys as f64 * (KEY_LEN + VALUE_LEN) as f64),
        ));

        // The closed-loop burst: its best second is how fast the node goes
        // when asked to. It leaves versions out of order, so it comes
        // after the durability check and the snapshots.
        let burst_plans: Vec<WindowPlan<'_>> = streams
            .iter()
            .zip(w.burst_window)
            .map(|(stream, window)| WindowPlan { stream, window })
            .collect();
        let burst = run_window(inst.addr, &burst_plans, Stop::After(p.burst));
        attempted += burst.attempted;
        failed += burst.failed;
        let whole_seconds = burst.per_second.len().saturating_sub(1).max(1);
        m.push((
            "loadgen.sat_ops_per_s",
            burst
                .per_second
                .iter()
                .take(whole_seconds)
                .copied()
                .max()
                .unwrap_or(0) as f64,
        ));
    }
    inst.teardown();

    // The other set-ups, each with its first snapshot; `setup_s` and
    // `snapshot_s` are the medians of them all.
    for _ in 1..reps(p.setup_reps) {
        wait_for_calm(&mut calm_budget);
        let again = set_up(&mut attempted, &mut failed);
        wait_for_calm(&mut calm_budget);
        snapshots.push(again.cut_snapshot().as_secs_f64());
        again.teardown();
    }
    if !traced {
        m.push(("setup_s", median(&mut setups)));
        m.push(("snapshot_s", median(&mut snapshots)));
    }

    if traced {
        let dist = w.conns[0].dist;
        let (layer_metrics, doc) = layers::measure(w.name, seed, dist, p.layers);
        m.extend(layer_metrics);
        trace = Some(doc);
    }

    Report {
        workload: w.name,
        seed,
        traced,
        metrics: m,
        attempted,
        failed,
        lost_writes,
        noisy,
        measured_s,
        samples: gated.samples,
        windows_kept: gated.windows_kept,
        paced_attempts: attempt,
        windows: gated.windows,
        window_cpu,
        trace,
    }
}
