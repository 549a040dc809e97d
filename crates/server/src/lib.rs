//! # memorydb-server — a RESP TCP server over a MemoryDB node
//!
//! Exposes one [`memorydb_core::Node`] on a real TCP socket speaking RESP,
//! so any Redis client (or the bundled [`BlockingClient`]) can talk to the
//! reproduction. Wire compatibility is the point of the whole design
//! (paper §1: "remain fully compatible with Redis").
//!
//! Connection handling reproduces MemoryDB's Enhanced-IO shape (§2.1): a
//! fixed pool of IO threads (`min(4, cores)`) owns all client sockets in
//! non-blocking mode and funnels parsed commands into the node's one
//! engine. Each sweep over a connection parses every complete frame
//! buffered on it and submits the run as ONE
//! [`memorydb_core::Node::handle_batch_submit`] call — one engine-lock
//! acquisition per pipeline. Durability is **deferred**: the submit returns
//! a [`memorydb_core::SubmittedBatch`] holding a commit-pipeline ticket, the
//! batch is parked on the connection, and the IO thread moves on to sweep
//! its other sockets — nothing in this crate ever blocks on durability.
//! When the commit pipeline resolves the ticket, a waker message re-arms
//! the IO thread, which settles parked batches front-to-back
//! (per-connection reply order is submission order) and coalesces their
//! replies into one socket write.
//!
//! Session semantics implemented here (they are connection state, not
//! engine state): `READONLY`/`READWRITE` opt-in for replica reads (§3.2 —
//! "clients must explicitly opt-in, ensuring they do not accidentally
//! consume stale data") and `QUIT`.

use bytes::{Buf, Bytes, BytesMut};
use crossbeam::channel::{self, Receiver, Sender};
use memorydb_core::{Node, SubmittedBatch};
use memorydb_engine::{command_spec, CmdName, Frame, SessionState};
use memorydb_metrics::{CounterId, GaugeId, StageId};
use memorydb_resp::{encode, CommandParse, Decoder};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// IO-thread pool size: one per core, at most four.
fn auto_io_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.clamp(1, 4)
}

/// A running server bound to one node.
pub struct Server {
    /// The bound address (useful with port 0).
    pub local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    io_threads: Vec<std::thread::JoinHandle<()>>,
}

/// What flows over an IO thread's intake channel: new sockets from the
/// acceptor, and wake-ups from commit-ticket wakers when a parked batch
/// becomes ready to settle (so an idle IO thread never sits out its full
/// nap while replies are releasable).
enum IoMsg {
    Conn(TcpStream),
    Wake,
}

impl Server {
    /// Starts serving `node` on `addr` (use `127.0.0.1:0` for an ephemeral
    /// port) with the multiplexed IO pool.
    pub fn start(node: Arc<Node>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let n = auto_io_threads();
        let mut io_threads = Vec::with_capacity(n);
        let mut txs = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = channel::unbounded::<IoMsg>();
            // The thread keeps a sender to its own channel: ticket
            // wakers clone it to post `IoMsg::Wake`.
            let wake_tx = tx.clone();
            txs.push(tx);
            let node = Arc::clone(&node);
            let shutdown = Arc::clone(&shutdown);
            io_threads.push(
                std::thread::Builder::new()
                    .name(format!("memorydb-io-{i}"))
                    .spawn(move || io_loop(node, rx, wake_tx, shutdown))?,
            );
        }

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("memorydb-accept".into())
                .spawn(move || {
                    // Blocking accept; Server::stop wakes it with a
                    // throwaway self-connection (no sleep/poll loop).
                    let mut next = 0usize;
                    loop {
                        let accepted = listener.accept();
                        if shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        if let Ok((stream, _)) = accepted {
                            let _ = txs[next % txs.len()].send(IoMsg::Conn(stream));
                            next += 1;
                        }
                    }
                })?
        };

        Ok(Server {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            io_threads,
        })
    }

    /// Stops the server: wakes the acceptor, then joins the accept thread
    /// and every IO thread.
    pub fn stop(&mut self) {
        // Release pairs with the IO/accept loops' Acquire loads: all
        // stop-time state written before the flag is visible to them.
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor; it checks the flag right after accept.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Command parsing and batch execution
// ---------------------------------------------------------------------------

/// Max commands executed per engine batch: bounds the time one connection
/// can hold the engine lock before replies start flowing.
const BATCH_CAP: usize = 128;

/// Max parked (submitted, not yet durable) batches per connection before
/// the IO thread stops reading more input from that socket. Together with
/// the node's commit window this bounds per-connection in-flight state.
const PARKED_CAP: usize = 32;

/// Max bytes drained from one socket per sweep, so a fire-hose client
/// cannot starve its IO thread's other connections.
const READ_SWEEP_CAP: usize = 256 * 1024;

/// Max length of a telnet-style inline command line (64 KB, the Redis
/// `PROTO_INLINE_MAX_SIZE` default).
const INLINE_MAX: usize = 64 * 1024;

/// Pulls the next command from the connection buffer: a RESP array frame,
/// or (when the first byte is not a RESP type tag) an inline command line,
/// the `PING\r\n` form redis-cli and telnet users send.
///
/// Consumption is cursor-based: the buffer's read position advances in
/// `O(1)` instead of memmoving the unread tail to the front after every
/// command (the old `Vec::drain(..used)` made a K-deep pipeline cost
/// `O(K²)` byte moves per sweep). Flat RESP command arrays additionally
/// take the zero-copy [`memorydb_resp::decode_command`] path: each argument
/// is a refcounted slice of the consumed region, never a fresh copy.
fn next_command(raw: &mut BytesMut) -> Result<Option<Vec<Bytes>>, String> {
    loop {
        // Skip blank separator lines between inline commands.
        while matches!(raw.first(), Some(b'\r') | Some(b'\n')) {
            raw.advance(1);
        }
        let Some(&first) = raw.first() else {
            // Fully drained: reset the cursor region so appended reads
            // reuse the front of the allocation instead of growing it.
            raw.clear();
            return Ok(None);
        };
        if b"+-:$*_,#%=".contains(&first) {
            return match memorydb_resp::decode_command(raw) {
                Ok(CommandParse::Cmd(args)) if args.is_empty() => continue,
                Ok(CommandParse::Cmd(args)) => Ok(Some(args)),
                Ok(CommandParse::NotCommand) => Err("expected array of bulk strings".into()),
                Ok(CommandParse::Incomplete) => Ok(None),
                Err(e) => Err(e.to_string()),
            };
        }
        // Inline command: consume one line. A line that exceeds the cap —
        // complete or still streaming — is a protocol error, so a client
        // that never sends a newline cannot grow the buffer without bound
        // (Redis's PROTO_INLINE_MAX_SIZE behavior).
        let Some(pos) = raw.iter().position(|&b| b == b'\n') else {
            if raw.len() > INLINE_MAX {
                return Err("too big inline request".into());
            }
            return Ok(None);
        };
        if pos > INLINE_MAX {
            return Err("too big inline request".into());
        }
        let line = String::from_utf8_lossy(&raw[..pos]).trim().to_string();
        raw.advance(pos + 1);
        if line.is_empty() {
            continue;
        }
        return match memorydb_resp::tokenize(&line) {
            Ok(args) if args.is_empty() => continue,
            Ok(args) => Ok(Some(args)),
            Err(e) => Err(e.to_string()),
        };
    }
}

/// One submitted pipeline batch whose replies may still be waiting on
/// commit-pipeline tickets. Reply slots are positional; `None` slots are
/// filled from `waits` when the batch settles.
struct ParkedBatch {
    replies: Vec<Option<Frame>>,
    /// Engine runs awaiting durability: the contiguous positional index
    /// range each run's replies map back to, plus the submitted batch
    /// holding the ticket. Runs are always contiguous because every
    /// non-run command (QUIT, READONLY/READWRITE, a gated replica read)
    /// flushes the pending run before claiming its own reply slot.
    waits: Vec<(std::ops::Range<usize>, SubmittedBatch)>,
}

impl ParkedBatch {
    /// True once every run's ticket has resolved (durable, poisoned, or
    /// timed out) — settling will not block.
    fn is_complete(&self) -> bool {
        self.waits.iter().all(|(_, sb)| sb.is_complete())
    }
}

/// How many drained IO buffers an IO thread keeps around for reuse. Sized
/// to the connection churn one sweep can realistically see; beyond this,
/// returned buffers are simply dropped.
const POOL_CAP: usize = 16;

/// High-water mark for a pooled/retained IO buffer (64 KB). A buffer that
/// grew past this during a burst is released once it drains instead of
/// pinning megabytes for the rest of the connection's (or pool's) life.
const BUF_HIGH_WATER: usize = 64 * 1024;

/// An IO thread's free-list of connection buffers. New connections draw
/// their input/output buffers here so short-lived connections in a churn
/// burst don't each pay two fresh heap growth curves; drained buffers come
/// back on close. Oversized buffers (over [`BUF_HIGH_WATER`]) never enter
/// the pool — that is the anti-bloat half of the policy.
#[derive(Default)]
struct BufPool {
    free: Vec<BytesMut>,
}

impl BufPool {
    fn get(&mut self) -> BytesMut {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut b: BytesMut) {
        b.clear();
        if b.capacity() <= BUF_HIGH_WATER && self.free.len() < POOL_CAP {
            self.free.push(b);
        }
    }
}

/// Per-connection protocol state.
struct ConnState {
    raw: BytesMut,
    out: BytesMut,
    session: SessionState,
    readonly_mode: bool,
    /// Batches submitted to the engine whose replies have not been released
    /// yet, in submission order.
    parked: VecDeque<ParkedBatch>,
    /// Set on QUIT or protocol error: settle `parked`, flush `out`, close.
    closing: bool,
    /// Parse scratch: the outer command vector is recycled across
    /// `drain_commands` calls so the steady-state hot path performs no
    /// per-drain allocation for it. Cleared (inner argument vectors
    /// dropped) before being stashed so it never pins input chunks while
    /// the connection is idle.
    cmd_scratch: Vec<Vec<Bytes>>,
    /// Reply-slot vector recycled from the most recently settled batch.
    spare_replies: Vec<Option<Frame>>,
    /// Wait vector recycled from the most recently settled batch.
    spare_waits: Vec<(std::ops::Range<usize>, SubmittedBatch)>,
}

impl ConnState {
    /// Draws the IO buffers from the owning IO thread's pool.
    fn new(pool: &mut BufPool) -> ConnState {
        ConnState {
            raw: pool.get(),
            out: pool.get(),
            session: SessionState::new(),
            readonly_mode: false,
            parked: VecDeque::new(),
            closing: false,
            cmd_scratch: Vec::new(),
            spare_replies: Vec::new(),
            spare_waits: Vec::new(),
        }
    }

    /// Anti-bloat sweep, run when the connection goes idle: a pipelined
    /// burst can balloon `raw`/`out` far past steady state, and without
    /// this the capacity stays resident until the client disconnects. Any
    /// drained buffer over the high-water mark is swapped for a pooled one
    /// and its allocation dropped.
    fn shed_oversized(&mut self, pool: &mut BufPool) {
        if self.raw.is_empty() && self.raw.capacity() > BUF_HIGH_WATER {
            self.raw = pool.get();
        }
        if self.out.is_empty() && self.out.capacity() > BUF_HIGH_WATER {
            self.out = pool.get();
        }
    }

    /// Returns the connection's buffers to the pool on close. Whatever
    /// undelivered bytes they held die with the connection; `put` clears.
    fn recycle(self, pool: &mut BufPool) {
        pool.put(self.raw);
        pool.put(self.out);
    }
}

/// Appends one out-of-band reply (protocol-error farewell) to the
/// connection, behind any parked batches so replies never reorder.
fn emit_frame(conn: &mut ConnState, f: Frame) {
    if conn.parked.is_empty() {
        encode(&f, &mut conn.out);
    } else {
        conn.parked.push_back(ParkedBatch {
            replies: vec![Some(f)],
            waits: Vec::new(),
        });
    }
}

/// Parses every complete command buffered on the connection and submits
/// them in engine batches. Each batch is parked on the connection with a
/// waker armed on its pending tickets, so the owning IO thread re-sweeps as
/// soon as one resolves.
///
/// A protocol error mid-stream still submits everything parsed before it,
/// then emits the error reply and marks the connection closing.
fn drain_commands(node: &Node, conn: &mut ConnState, wake_tx: &Sender<IoMsg>) {
    let m = node.metrics();
    // The outer command vector is recycled across drains (and across
    // connections' lifetimes) via `cmd_scratch`, so steady-state parsing
    // allocates nothing for it.
    let mut cmds = std::mem::take(&mut conn.cmd_scratch);
    while !conn.closing {
        cmds.clear();
        let mut parse_err: Option<String> = None;
        let parse_start = m.now_us();
        while cmds.len() < BATCH_CAP {
            match next_command(&mut conn.raw) {
                Ok(Some(args)) => cmds.push(args),
                Ok(None) => break,
                Err(e) => {
                    parse_err = Some(e);
                    break;
                }
            }
        }
        if !cmds.is_empty() || parse_err.is_some() {
            m.record_stage(StageId::Parse, m.now_us().saturating_sub(parse_start));
        }
        if !cmds.is_empty() {
            let batch = submit_batch(node, conn, &cmds);
            for (_, sb) in &batch.waits {
                if !sb.is_complete() {
                    let tx = wake_tx.clone();
                    sb.set_waker(Box::new(move || {
                        let _ = tx.send(IoMsg::Wake);
                    }));
                }
            }
            conn.parked.push_back(batch);
        }
        if let Some(e) = parse_err {
            m.incr(CounterId::ProtocolErrors);
            if !conn.closing {
                emit_frame(conn, Frame::error(format!("Protocol error: {e}")));
                conn.closing = true;
            }
            break;
        }
        if cmds.len() < BATCH_CAP {
            break; // input buffer exhausted
        }
    }
    // Drop any parsed arguments (they hold slices of the input chunk)
    // before stashing the scratch, so idle connections pin nothing.
    cmds.clear();
    conn.cmd_scratch = cmds;
}

/// Submits one parsed batch to the engine. Connection-level commands (QUIT,
/// READONLY, READWRITE) and the replica read-gating check are handled here;
/// runs of plain commands between them go to the engine as ONE
/// [`Node::handle_batch_submit`] call — executed now, durability pending on
/// the returned ticket. Replies are positional, so ordering is preserved no
/// matter how the batch is partitioned.
///
/// Runs of plain commands are **contiguous** index ranges, so each run is
/// submitted as a direct sub-slice of the parsed batch — no per-run
/// collection, no clone, no move. Reply-slot and wait vectors are drawn
/// from the connection's recycled spares, so a warmed-up connection
/// allocates nothing here.
fn submit_batch(node: &Node, conn: &mut ConnState, cmds: &[Vec<Bytes>]) -> ParkedBatch {
    let mut replies = std::mem::take(&mut conn.spare_replies);
    replies.clear();
    replies.resize(cmds.len(), None);
    let mut waits = std::mem::take(&mut conn.spare_waits);
    waits.clear();
    // The pending run is cmds[run_start..i] — flushed whenever a non-run
    // command claims slot i, which keeps every run contiguous.
    let mut run_start: usize = 0;

    fn flush_run(
        node: &Node,
        session: &mut SessionState,
        cmds: &[Vec<Bytes>],
        run: std::ops::Range<usize>,
        waits: &mut Vec<(std::ops::Range<usize>, SubmittedBatch)>,
    ) {
        if run.is_empty() {
            return;
        }
        let sb = node.handle_batch_submit(session, &cmds[run.clone()]);
        waits.push((run, sb));
    }

    for i in 0..cmds.len() {
        let name = CmdName::from_arg(&cmds[i][0]);
        match name.as_str() {
            "QUIT" => {
                flush_run(node, &mut conn.session, cmds, run_start..i, &mut waits);
                // Anything pipelined after QUIT is discarded, like Redis.
                run_start = cmds.len();
                replies[i] = Some(Frame::ok());
                conn.closing = true;
                break;
            }
            // READONLY/READWRITE are connection state (paper §2.1: replica
            // reads are an explicit opt-in). The pending run is flushed
            // first so the mode flip cannot reorder around engine commands.
            "READONLY" => {
                flush_run(node, &mut conn.session, cmds, run_start..i, &mut waits);
                run_start = i + 1;
                conn.readonly_mode = true;
                replies[i] = Some(Frame::ok());
            }
            "READWRITE" => {
                flush_run(node, &mut conn.session, cmds, run_start..i, &mut waits);
                run_start = i + 1;
                conn.readonly_mode = false;
                replies[i] = Some(Frame::ok());
            }
            _ => {
                // Enforce the opt-in: a replica serves nothing but admin
                // commands to sessions that did not issue READONLY.
                let gated = node.role() == memorydb_engine::exec::Role::Replica
                    && !conn.readonly_mode
                    && !command_spec(&name).is_some_and(|s| s.flags.admin);
                if gated {
                    flush_run(node, &mut conn.session, cmds, run_start..i, &mut waits);
                    run_start = i + 1;
                    replies[i] = Some(Frame::Error(
                        "MOVED 0 ? (replica requires READONLY opt-in)".into(),
                    ));
                }
            }
        }
    }
    flush_run(
        node,
        &mut conn.session,
        cmds,
        run_start..cmds.len(),
        &mut waits,
    );
    ParkedBatch { replies, waits }
}

/// Finishes every run of a batch whose tickets have all resolved (the caller
/// checked [`ParkedBatch::is_complete`], and a resolved ticket stays
/// resolved, so nothing here waits), fills the reply slots, and encodes
/// every reply **directly** into the connection's output buffer — no
/// intermediate scratch buffer and no second copy of the encoded bytes.
/// The two emptied vectors go back to the connection's spares for the next
/// batch (capacity recycling).
fn settle_batch(node: &Node, batch: ParkedBatch, conn: &mut ConnState) {
    let ParkedBatch {
        mut replies,
        mut waits,
    } = batch;
    for (run, sb) in waits.drain(..) {
        // `Err` is unreachable behind the `is_complete` gate; it still gets
        // one reply per command, so the stream can never desynchronise.
        let rs = node.try_finish(sb).unwrap_or_else(|_| {
            vec![Frame::error("ERR internal: reply settled before commit"); run.len()]
        });
        for (i, r) in run.zip(rs) {
            replies[i] = Some(r);
        }
    }
    for r in replies.drain(..).flatten() {
        encode(&r, &mut conn.out);
    }
    conn.spare_replies = replies;
    conn.spare_waits = waits;
}

/// Settles parked batches front-to-back, stopping at the first batch whose
/// tickets are still pending: per-connection replies are released in
/// submission order, so batch N+1 never overtakes batch N even when it
/// commits first. Returns whether anything settled.
fn drain_parked(node: &Node, conn: &mut ConnState) -> bool {
    let mut progressed = false;
    while conn.parked.front().is_some_and(ParkedBatch::is_complete) {
        if let Some(batch) = conn.parked.pop_front() {
            settle_batch(node, batch, conn);
            progressed = true;
        }
    }
    progressed
}

// ---------------------------------------------------------------------------
// IO loop
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    state: ConnState,
    eof: bool,
}

/// Writes as much of `out` as the socket accepts without blocking.
/// Returns bytes written; `Err` means the connection is dead. Consumed
/// bytes advance the buffer's read cursor in `O(1)` (the old
/// `Vec::drain(..written)` memmoved the unwritten tail on every partial
/// write); a fully flushed buffer is `clear()`ed so the next replies are
/// encoded at the front of the same allocation.
fn flush_out(
    stream: &mut TcpStream,
    out: &mut BytesMut,
    m: &memorydb_metrics::Registry,
) -> std::io::Result<usize> {
    if out.is_empty() {
        return Ok(0);
    }
    let write_start = m.now_us();
    let mut written = 0usize;
    while written < out.len() {
        match stream.write(&out[written..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "socket write returned 0",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if written == out.len() {
        out.clear();
    } else {
        out.advance(written);
    }
    m.record_stage(StageId::IoWrite, m.now_us().saturating_sub(write_start));
    Ok(written)
}

/// One readiness sweep over one connection: settle any parked batches whose
/// tickets resolved, flush pending output, drain readable input, submit,
/// settle, flush again. Returns `(keep, progressed)`.
fn sweep_conn(
    node: &Node,
    conn: &mut Conn,
    buf: &mut [u8],
    wake_tx: &Sender<IoMsg>,
) -> (bool, bool) {
    let mut progressed = false;
    let m = node.metrics();

    progressed |= drain_parked(node, &mut conn.state);
    match flush_out(&mut conn.stream, &mut conn.state.out, m) {
        Ok(n) => progressed |= n > 0,
        Err(_) => return (false, true),
    }
    if conn.state.closing {
        // QUIT / protocol error: keep only until every parked reply has
        // settled and the farewell is flushed.
        return (
            !conn.state.out.is_empty() || !conn.state.parked.is_empty(),
            progressed,
        );
    }

    // Backpressure: a connection with a full parked queue gets no further
    // reads until the committer releases some of its batches.
    if !conn.eof && conn.state.parked.len() < PARKED_CAP {
        let mut total = 0usize;
        let read_start = m.now_us();
        loop {
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.state.raw.extend_from_slice(&buf[..n]);
                    total += n;
                    if total >= READ_SWEEP_CAP {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, true),
            }
        }
        if total > 0 {
            // The sockets are non-blocking, so this span is syscall time,
            // not time spent waiting for the client to type.
            m.record_stage(StageId::IoRead, m.now_us().saturating_sub(read_start));
            progressed = true;
            drain_commands(node, &mut conn.state, wake_tx);
            drain_parked(node, &mut conn.state);
            if flush_out(&mut conn.stream, &mut conn.state.out, m).is_err() {
                return (false, true);
            }
        }
    }

    if conn.eof {
        // Client sent FIN: answer whatever it managed to buffer, then drop
        // once every parked reply has settled and flushed.
        if !conn.state.raw.is_empty() && !conn.state.closing {
            drain_commands(node, &mut conn.state, wake_tx);
        }
        drain_parked(node, &mut conn.state);
        if flush_out(&mut conn.stream, &mut conn.state.out, m).is_err() {
            return (false, true);
        }
        return (
            !conn.state.out.is_empty() || !conn.state.parked.is_empty(),
            progressed,
        );
    }
    if conn.state.closing && conn.state.out.is_empty() && conn.state.parked.is_empty() {
        return (false, progressed);
    }
    (true, progressed)
}

/// An IO thread: owns a set of non-blocking sockets, sweeps them for
/// readiness, and parks on its intake channel when everything is idle
/// (spin briefly first so pipelined bursts stay hot). The channel also
/// delivers `IoMsg::Wake` from commit-ticket wakers, so a thread parked in
/// `recv_timeout` re-sweeps as soon as a parked batch becomes settleable
/// instead of waiting out its nap.
fn io_loop(
    node: Arc<Node>,
    rx: Receiver<IoMsg>,
    wake_tx: Sender<IoMsg>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut pool = BufPool::default();
    let mut idle_spins = 0u32;

    let adopt = |stream: TcpStream, conns: &mut Vec<Conn>, pool: &mut BufPool| {
        if stream.set_nonblocking(true).is_ok() {
            let _ = stream.set_nodelay(true);
            node.metrics().incr(CounterId::ConnectionsAccepted);
            node.metrics().add_gauge(GaugeId::ConnectedClients, 1);
            conns.push(Conn {
                stream,
                state: ConnState::new(pool),
                eof: false,
            });
        }
    };

    loop {
        if shutdown.load(Ordering::Acquire) {
            // Dropping conns closes the sockets; the node's registry (and
            // its `connected_clients` gauge) outlives the server.
            node.metrics()
                .add_gauge(GaugeId::ConnectedClients, -(conns.len() as i64));
            return;
        }
        // This thread owns `wake_tx`, a sender to its own channel, so the
        // channel never disconnects: an error here only means "empty".
        while let Ok(msg) = rx.try_recv() {
            match msg {
                IoMsg::Conn(s) => adopt(s, &mut conns, &mut pool),
                // Wake-ups while already sweeping carry no extra info.
                IoMsg::Wake => {}
            }
        }

        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            let (keep, p) = sweep_conn(&node, &mut conns[i], &mut buf, &wake_tx);
            progressed |= p;
            if keep {
                i += 1;
            } else {
                conns.swap_remove(i).state.recycle(&mut pool);
                node.metrics().add_gauge(GaugeId::ConnectedClients, -1);
            }
        }

        if progressed {
            idle_spins = 0;
            continue;
        }
        idle_spins += 1;
        if idle_spins == 8 {
            // Entering idle: burst-bloated buffers on drained connections
            // get released now rather than riding out the connection.
            for c in &mut conns {
                c.state.shed_oversized(&mut pool);
            }
        }
        if idle_spins < 8 {
            // A short spin keeps pipelined bursts hot; yielding (rather
            // than busy-polling) matters on small machines where the
            // clients need this core to produce the next request.
            std::thread::yield_now();
            continue;
        }
        // Idle: park on the intake channel so a fresh connection wakes us
        // immediately; cap the nap so existing sockets get re-swept.
        let nap = if conns.is_empty() {
            Duration::from_millis(50)
        } else {
            Duration::from_millis(1)
        };
        match rx.recv_timeout(nap) {
            Ok(IoMsg::Conn(s)) => {
                adopt(s, &mut conns, &mut pool);
                idle_spins = 0;
            }
            Ok(IoMsg::Wake) => idle_spins = 0,
            Err(_) => {} // timed out
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A minimal blocking RESP client for tests and examples.
pub struct BlockingClient {
    stream: TcpStream,
    decoder: Decoder,
}

impl BlockingClient {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<BlockingClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(BlockingClient {
            stream,
            decoder: Decoder::new(),
        })
    }

    /// Sends one command and reads one reply.
    pub fn command<S: Into<Vec<u8>>>(
        &mut self,
        parts: impl IntoIterator<Item = S>,
    ) -> std::io::Result<Frame> {
        let frame = Frame::command(parts.into_iter().map(|p| p.into()));
        let mut out = BytesMut::new();
        encode(&frame, &mut out);
        self.stream.write_all(&out)?;
        self.read_reply()
    }

    /// Sends a pipeline of commands in one write and reads every reply, in
    /// order. This is the client half of Enhanced-IO batching: the server
    /// executes the whole pipeline under one engine-lock acquisition and
    /// one group-committed append.
    pub fn pipeline<C, S>(&mut self, cmds: C) -> std::io::Result<Vec<Frame>>
    where
        C: IntoIterator,
        C::Item: IntoIterator<Item = S>,
        S: Into<Vec<u8>>,
    {
        let mut out = BytesMut::new();
        let mut n = 0usize;
        for parts in cmds {
            encode(
                &Frame::command(parts.into_iter().map(|p| p.into())),
                &mut out,
            );
            n += 1;
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        self.stream.write_all(&out)?;
        (0..n).map(|_| self.read_reply()).collect()
    }

    /// Reads the next reply frame.
    pub fn read_reply(&mut self) -> std::io::Result<Frame> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Ok(Some(frame)) = self.decoder.next_frame() {
                return Ok(frame);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed connection",
                ));
            }
            self.decoder.feed(&buf[..n]);
        }
    }
}

#[cfg(test)]
mod tests;
