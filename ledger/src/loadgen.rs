//! The load generator (layer name `loadgen`): one thread busy-polling a few
//! non-blocking connections.
//!
//! Serving phases are open loop: request `n` of a connection is due at
//! `t0 + offset + n * interval`, is written as soon as it is due whether or
//! not earlier replies have arrived, and its latency runs from the due time
//! to the reply. Preload and the saturation burst are closed loop: a fixed
//! number of requests outstanding per connection.
//!
//! Because it is one thread, the generator knows the order of its own
//! events exactly, which is what lets it check every reply: a GET queued
//! after a SET of the same key was acknowledged must return that version or
//! a later one, and versions read per key never go backwards.

use crate::gen::{parse_value, Class, Req, Stream, KEY_LEN, VALUE_LEN};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a request may wait. On expiry it and everything pipelined behind
/// it on the connection count as failed and the connection is reopened, so
/// a wedged connection shows as failures instead of a hung benchmark.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

const READ_BUF: usize = 256 * 1024;

/// What the generator knows about each key's versions.
#[derive(Debug)]
pub struct KeyState {
    /// Newest version whose SET was acknowledged.
    pub acked: Vec<u32>,
    /// Newest version whose SET was queued for sending.
    pub sent: Vec<u32>,
    /// Newest version a GET returned.
    pub seen: Vec<u32>,
}

impl KeyState {
    pub fn new(keys: u32) -> KeyState {
        KeyState {
            acked: vec![0; keys as usize],
            sent: vec![0; keys as usize],
            seen: vec![0; keys as usize],
        }
    }
}

enum Reply<'a> {
    Ok,
    Bulk(&'a [u8]),
    /// An error, a null, an integer: nothing this benchmark asks for.
    Other,
}

/// Splits one reply off the front of `buf`: `Ok(None)` when it is not all
/// there yet, `Err(())` when the bytes are not RESP.
fn split_reply(buf: &[u8]) -> Result<Option<(Reply<'_>, usize)>, ()> {
    let Some(&tag) = buf.first() else {
        return Ok(None);
    };
    let Some(eol) = buf.windows(2).position(|w| w == b"\r\n") else {
        return if buf.len() > 1024 { Err(()) } else { Ok(None) };
    };
    let line = &buf[1..eol];
    let after = eol + 2;
    match tag {
        b'+' => Ok(Some((
            if line == b"OK" {
                Reply::Ok
            } else {
                Reply::Other
            },
            after,
        ))),
        b'-' | b':' | b'_' => Ok(Some((Reply::Other, after))),
        b'$' => {
            let len: i64 = std::str::from_utf8(line)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or(())?;
            if len < 0 {
                return Ok(Some((Reply::Other, after)));
            }
            let end = after + len as usize;
            if buf.len() < end + 2 {
                return Ok(None);
            }
            Ok(Some((Reply::Bulk(&buf[after..end]), end + 2)))
        }
        _ => Err(()),
    }
}

/// One non-blocking connection working through a [`Stream`]. Request
/// numbers count up for ever; the stream is used as a ring, so a closed
/// loop can outlast it.
struct Conn<'a> {
    addr: SocketAddr,
    sock: Option<TcpStream>,
    stream: &'a Stream,
    /// Requests released for writing so far.
    queued: u64,
    /// Requests whose bytes the kernel has taken completely.
    written: u64,
    /// Next byte of the stream to write.
    wpos: usize,
    /// Replies received (or given up on) so far.
    recvd: u64,
    rbuf: Vec<u8>,
    rpos: usize,
    rlen: usize,
    /// Per stream slot: the acknowledged version of the key when the
    /// request was queued — the oldest value a GET may return.
    floors: Vec<u32>,
    /// When the oldest outstanding request started waiting (closed loop).
    waiting_since: Instant,
    failed: u64,
    /// Times in a row the connection was given up on with no reply between.
    strikes: u32,
}

impl<'a> Conn<'a> {
    fn open(addr: SocketAddr, stream: &'a Stream) -> Conn<'a> {
        let mut c = Conn {
            addr,
            sock: None,
            stream,
            queued: 0,
            written: 0,
            wpos: 0,
            recvd: 0,
            rbuf: vec![0; READ_BUF],
            rpos: 0,
            rlen: 0,
            floors: vec![0; stream.reqs.len()],
            waiting_since: Instant::now(),
            failed: 0,
            strikes: 0,
        };
        c.connect();
        c
    }

    fn connect(&mut self) {
        self.sock = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)
            .and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            })
            .ok();
    }

    /// Where request `n` sits in the ring.
    fn slot(&self, n: u64) -> usize {
        (n % self.stream.reqs.len() as u64) as usize
    }

    fn req(&self, n: u64) -> &'a Req {
        &self.stream.reqs[self.slot(n)]
    }

    fn outstanding(&self) -> u64 {
        self.queued - self.recvd
    }

    /// Gives up on everything outstanding and starts over on a fresh
    /// socket at the next request not yet queued.
    fn fail_outstanding(&mut self) {
        self.strikes += 1;
        self.failed += self.outstanding();
        self.recvd = self.queued;
        self.written = self.queued;
        self.wpos = self.stream.start_of(self.slot(self.queued));
        self.rpos = 0;
        self.rlen = 0;
        self.connect();
    }

    /// Writes as much of the queued requests as the socket takes.
    fn pump_write(&mut self) {
        let n = self.stream.reqs.len() as u64;
        while self.written < self.queued {
            let Some(sock) = self.sock.as_mut() else {
                return self.fail_outstanding();
            };
            // Up to the last queued request of this lap around the ring.
            let slot = self.written % n;
            let last = (slot + (self.queued - self.written)).min(n) - 1;
            let target = self.stream.reqs[last as usize].end;
            match sock.write(&self.stream.bytes[self.wpos..target]) {
                Ok(0) => return self.fail_outstanding(),
                Ok(k) => self.wpos += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return self.fail_outstanding(),
            }
            while self.written < self.queued && self.req(self.written).end <= self.wpos {
                self.written += 1;
                if self.written.is_multiple_of(n) {
                    self.wpos = 0;
                    break;
                }
            }
        }
    }

    /// Reads what has arrived and hands each complete reply, with the
    /// request it answers and that request's floor, to `sink`, which says
    /// whether the reply is right. Returns the number of replies.
    fn pump_read(&mut self, mut sink: impl FnMut(u64, &Req, u32, Reply<'_>) -> bool) -> u64 {
        let Some(sock) = self.sock.as_mut() else {
            return 0;
        };
        match sock.read(&mut self.rbuf[self.rlen..]) {
            Ok(0) => {
                if self.outstanding() > 0 {
                    self.fail_outstanding();
                }
                return 0;
            }
            Ok(k) => self.rlen += k,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return 0
            }
            Err(_) => {
                self.fail_outstanding();
                return 0;
            }
        }
        let mut got = 0;
        loop {
            match split_reply(&self.rbuf[self.rpos..self.rlen]) {
                Ok(Some((reply, used))) => {
                    if self.recvd == self.queued {
                        // A reply nobody asked for.
                        self.fail_outstanding();
                        return got;
                    }
                    let n = self.recvd;
                    let slot = self.slot(n);
                    if !sink(n, &self.stream.reqs[slot], self.floors[slot], reply) {
                        self.failed += 1;
                    }
                    self.recvd += 1;
                    self.rpos += used;
                    self.strikes = 0;
                    got += 1;
                }
                Ok(None) => break,
                Err(()) => {
                    self.fail_outstanding();
                    return got;
                }
            }
        }
        if self.rpos == self.rlen {
            self.rpos = 0;
            self.rlen = 0;
        } else if self.rlen > READ_BUF / 2 {
            self.rbuf.copy_within(self.rpos..self.rlen, 0);
            self.rlen -= self.rpos;
            self.rpos = 0;
        }
        got
    }
}

/// Checks one reply against the request it answers and the key's history,
/// and records what it teaches about the key.
fn reply_is_right(req: &Req, floor: u32, reply: &Reply<'_>, keys: Option<&mut KeyState>) -> bool {
    match (req.class, reply) {
        (Class::Set, Reply::Ok) => {
            if let Some(k) = keys {
                k.acked[req.key as usize] = req.seq;
            }
            true
        }
        (Class::Get, Reply::Bulk(v)) => {
            let Some((key, seq)) = parse_value(v) else {
                return false;
            };
            if key != req.key {
                return false;
            }
            let Some(k) = keys else {
                return true;
            };
            let i = key as usize;
            // Not older than what was acknowledged before the GET was
            // queued, not newer than anything sent, never backwards.
            let right = seq >= floor && seq <= k.sent[i] && seq >= k.seen[i];
            k.seen[i] = k.seen[i].max(seq);
            right
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

/// One connection's part in a paced phase. The stream holds exactly the
/// requests of the phase.
pub struct PacedPlan<'a> {
    pub stream: &'a Stream,
    pub interval: Duration,
    /// Shifts this connection's schedule so connections do not fire in
    /// the same instant.
    pub offset: Duration,
}

#[derive(Debug, Clone, Copy)]
pub struct PhaseCfg {
    /// Discarded lead-in.
    pub warmup: Duration,
    /// Measured span, cut into one-second windows by due time.
    pub measure: Duration,
    pub timeout: Duration,
}

/// Edge of the measured span, reported to the caller's hook so that it can
/// read process counters at the same instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    Start,
    /// A boundary between two one-second windows inside the span.
    Tick,
    End,
}

#[derive(Debug, Default)]
pub struct PacedResult {
    /// Latency from due time, ns: `[class][window]`.
    pub latency_ns: [Vec<Vec<u64>>; 2],
    /// How late each measured request was released against its schedule,
    /// by window.
    pub late_ns: Vec<Vec<u64>>,
    /// Requests of the whole phase, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// Requests due inside the measured span, and those of them answered
    /// correctly, per class.
    pub offered: u64,
    pub acked: [u64; 2],
    /// Most requests ever outstanding on one connection.
    pub max_backlog: u64,
    /// Measured GETs, and those queued while a SET of the same key was
    /// unacknowledged.
    pub gets: u64,
    pub hazard_gets: u64,
    /// Key and value bytes of acknowledged measured SETs.
    pub set_user_bytes: u64,
}

/// Runs an open-loop phase over one connection per plan.
pub fn run_paced(
    addr: SocketAddr,
    plans: &[PacedPlan<'_>],
    cfg: PhaseCfg,
    keys: &mut KeyState,
    hook: &mut dyn FnMut(Edge),
) -> PacedResult {
    let windows = cfg.measure.as_secs_f64().ceil() as usize;
    let mut res = PacedResult {
        latency_ns: [vec![Vec::new(); windows], vec![Vec::new(); windows]],
        late_ns: vec![Vec::new(); windows],
        ..PacedResult::default()
    };
    let mut conns: Vec<Conn<'_>> = plans.iter().map(|p| Conn::open(addr, p.stream)).collect();
    let t0 = Instant::now() + Duration::from_millis(2);
    let warm_ns = cfg.warmup.as_nanos() as u64;
    let end_ns = warm_ns + cfg.measure.as_nanos() as u64;
    let due_ns = |plan: &PacedPlan<'_>, n: u64| {
        plan.offset.as_nanos() as u64 + n * plan.interval.as_nanos() as u64
    };
    const WINDOW_NS: u64 = 1_000_000_000;
    // The window a request due at `due` falls in; none for the warm-up.
    let window_of = |due: u64| {
        (warm_ns..end_ns)
            .contains(&due)
            .then(|| ((due - warm_ns) / WINDOW_NS) as usize)
    };
    let (mut started, mut ended) = (false, false);
    let mut next_tick_ns = warm_ns + WINDOW_NS;

    loop {
        let now = Instant::now();
        let now_ns = now.saturating_duration_since(t0).as_nanos() as u64;
        if !started && now_ns >= warm_ns {
            started = true;
            hook(Edge::Start);
        }
        if !ended && now_ns >= end_ns {
            ended = true;
            hook(Edge::End);
        } else if !ended && now_ns >= next_tick_ns {
            next_tick_ns += WINDOW_NS;
            hook(Edge::Tick);
        }
        let mut all_done = true;
        for (conn, plan) in conns.iter_mut().zip(plans) {
            let total = plan.stream.reqs.len() as u64;
            // Release every request that has come due.
            while conn.queued < total && due_ns(plan, conn.queued) <= now_ns {
                let n = conn.queued;
                let req = conn.req(n);
                let i = req.key as usize;
                let due = due_ns(plan, n);
                let window = window_of(due);
                match req.class {
                    Class::Set => keys.sent[i] = req.seq,
                    Class::Get => {
                        conn.floors[n as usize] = keys.acked[i];
                        if window.is_some() {
                            res.gets += 1;
                            res.hazard_gets += u64::from(keys.sent[i] > keys.acked[i]);
                        }
                    }
                }
                if let Some(w) = window {
                    res.offered += 1;
                    res.late_ns[w].push(now_ns - due);
                }
                conn.queued += 1;
            }
            res.max_backlog = res.max_backlog.max(conn.outstanding());
            conn.pump_write();
            let mut arrived = None;
            conn.pump_read(|n, req, floor, reply| {
                // One clock reading per batch of replies, taken after the
                // read that delivered them.
                let at = *arrived.get_or_insert_with(|| t0.elapsed().as_nanos() as u64);
                let right = reply_is_right(req, floor, &reply, Some(keys));
                let due = due_ns(plan, n);
                if let (true, Some(w)) = (right, window_of(due)) {
                    res.latency_ns[req.class.index()][w].push(at.saturating_sub(due));
                    res.acked[req.class.index()] += 1;
                    if req.class == Class::Set {
                        res.set_user_bytes += (KEY_LEN + VALUE_LEN) as u64;
                    }
                }
                right
            });
            if conn.outstanding() > 0
                && now_ns.saturating_sub(due_ns(plan, conn.recvd)) > cfg.timeout.as_nanos() as u64
            {
                conn.fail_outstanding();
            }
            all_done &= conn.recvd == total;
        }
        if all_done {
            break;
        }
    }
    if !started {
        hook(Edge::Start);
    }
    if !ended {
        hook(Edge::End);
    }
    for (conn, plan) in conns.iter().zip(plans) {
        res.attempted += plan.stream.reqs.len() as u64;
        res.failed += conn.failed;
    }
    res
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

/// One connection's part in a closed-loop phase.
pub struct WindowPlan<'a> {
    pub stream: &'a Stream,
    /// Requests kept outstanding.
    pub window: u64,
}

/// When a closed-loop phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// When every request of every stream was answered once.
    StreamEnd,
    /// After this long, going round the streams as often as it takes.
    /// Versions then repeat, so replies are checked for shape and key
    /// only and the key history is left alone.
    After(Duration),
}

#[derive(Debug, Default)]
pub struct WindowResult {
    pub attempted: u64,
    pub failed: u64,
    /// Correct replies per second of the phase, in order.
    pub per_second: Vec<u64>,
    pub elapsed: Duration,
}

/// Runs a closed-loop phase over one connection per plan.
pub fn run_window(addr: SocketAddr, plans: &[WindowPlan<'_>], stop: Stop) -> WindowResult {
    let mut res = WindowResult::default();
    let mut conns: Vec<Conn<'_>> = plans.iter().map(|p| Conn::open(addr, p.stream)).collect();
    let t0 = Instant::now();
    loop {
        let now = Instant::now();
        let elapsed = now - t0;
        let expired = matches!(stop, Stop::After(d) if elapsed >= d);
        let mut all_done = true;
        for (conn, plan) in conns.iter_mut().zip(plans) {
            // A server that has stopped answering ends the phase early.
            let dead = conn.strikes >= 3;
            let total = match stop {
                Stop::After(_) if expired || dead => conn.queued,
                Stop::After(_) => u64::MAX,
                Stop::StreamEnd => {
                    let total = plan.stream.reqs.len() as u64;
                    if dead {
                        conn.failed += total - conn.queued;
                        conn.queued = total;
                        conn.recvd = total;
                    }
                    total
                }
            };
            let room = plan.window.saturating_sub(conn.outstanding());
            if conn.outstanding() == 0 {
                conn.waiting_since = now;
            }
            conn.queued += room.min(total - conn.queued);
            conn.pump_write();
            let mut right = 0;
            let got = conn.pump_read(|_, req, floor, reply| {
                let ok = reply_is_right(req, floor, &reply, None);
                right += u64::from(ok);
                ok
            });
            if got > 0 {
                conn.waiting_since = now;
                let second = elapsed.as_secs() as usize;
                if res.per_second.len() <= second {
                    res.per_second.resize(second + 1, 0);
                }
                res.per_second[second] += right;
            }
            if conn.outstanding() > 0 && now - conn.waiting_since > REQUEST_TIMEOUT {
                conn.fail_outstanding();
            }
            all_done &= conn.recvd >= total;
        }
        if all_done {
            break;
        }
    }
    res.elapsed = t0.elapsed();
    for conn in &conns {
        res.attempted += conn.queued;
        res.failed += conn.failed;
    }
    res
}

// ---------------------------------------------------------------------------
// Is the machine quiet?
// ---------------------------------------------------------------------------

/// Spins on the clock for `span` and returns the share of it this thread
/// spent off its CPU, judged by the gaps between consecutive readings that
/// are too long for an interrupt. On a quiet machine a spinning thread is
/// hardly ever descheduled; when the hypervisor gives the core to a
/// neighbour it is, and so would the load generator be.
pub fn off_cpu_share(span: Duration) -> f64 {
    const GAP: Duration = Duration::from_micros(500);
    let t0 = Instant::now();
    let (mut last, mut lost) = (t0, Duration::ZERO);
    loop {
        let now = Instant::now();
        let gap = now - last;
        if gap > GAP {
            lost += gap;
        }
        last = now;
        if now - t0 >= span {
            return lost.as_secs_f64() / span.as_secs_f64();
        }
    }
}

/// A spinning thread that loses more than this share of its time is on a
/// disturbed machine. Quiet, this box reads 0, with an odd 0.008; with a
/// neighbour taking a tenth of the core it reads about 0.1.
pub const CALM_OFF_CPU_SHARE: f64 = 0.02;

/// Waits until the machine looks quiet, spending at most what is left of
/// `budget` (which it draws down). What it looks at is the generator's own
/// thread, never the program under test.
pub fn wait_for_calm(budget: &mut Duration) {
    const PROBE: Duration = Duration::from_millis(200);
    const PAUSE: Duration = Duration::from_millis(800);
    while !budget.is_zero() && off_cpu_share(PROBE) > CALM_OFF_CPU_SHARE {
        std::thread::sleep(PAUSE.min(*budget));
        *budget = budget.saturating_sub(PAUSE + PROBE);
    }
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

/// The `q` quantile of `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A window with fewer samples than this is dropped: its percentiles would
/// say more about the gap than about the program.
pub const MIN_WINDOW_SAMPLES: usize = 100;

/// Latency of one class over a paced phase.
#[derive(Debug, Default, Clone)]
pub struct LatencySummary {
    /// Median over kept windows of the window's median / 95th percentile,
    /// µs: a noisy neighbour spoils a window or two, not the run.
    pub p50_us: f64,
    pub p95_us: f64,
    /// Over every sample of the phase, µs. They do not repeat on a small
    /// shared machine and are reported, not gated.
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
    pub mean_us: f64,
    pub samples: usize,
    pub windows_kept: usize,
    /// Per window, in order, dropped ones included: `(samples, median,
    /// 95th percentile)`, µs.
    pub windows: Vec<(usize, f64, f64)>,
}

/// Summarises one class. `disturbed[w]` marks a window in which the
/// machine, not the program, was slow; it is dropped like a thin one.
pub fn summarize(windows: &[Vec<u64>], min_samples: usize, disturbed: &[bool]) -> LatencySummary {
    let (mut p50s, mut p95s) = (Vec::new(), Vec::new());
    let mut all: Vec<u64> = Vec::new();
    let mut per_window = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        all.extend_from_slice(w);
        let mut sorted = w.clone();
        sorted.sort_unstable();
        let (p50, p95) = (
            quantile(&sorted, 0.50) as f64 / 1e3,
            quantile(&sorted, 0.95) as f64 / 1e3,
        );
        per_window.push((w.len(), p50, p95));
        if w.len() >= min_samples && !disturbed.get(i).copied().unwrap_or(false) {
            p50s.push(p50);
            p95s.push(p95);
        }
    }
    all.sort_unstable();
    LatencySummary {
        windows: per_window,
        windows_kept: p50s.len(),
        p50_us: median(&mut p50s),
        p95_us: median(&mut p95s),
        p99_us: quantile(&all, 0.99) as f64 / 1e3,
        p999_us: quantile(&all, 0.999) as f64 / 1e3,
        max_us: all.last().copied().unwrap_or(0) as f64 / 1e3,
        mean_us: if all.is_empty() {
            0.0
        } else {
            all.iter().sum::<u64>() as f64 / all.len() as f64 / 1e3
        },
        samples: all.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_split_on_frame_boundaries() {
        let bulk = b"$3\r\nabc\r\n+OK\r\n-ERR x\r\n$-1\r\n";
        let (r, used) = split_reply(bulk).unwrap().unwrap();
        assert!(matches!(r, Reply::Bulk(b"abc")));
        let (r, used2) = split_reply(&bulk[used..]).unwrap().unwrap();
        assert!(matches!(r, Reply::Ok));
        let (r, used3) = split_reply(&bulk[used + used2..]).unwrap().unwrap();
        assert!(matches!(r, Reply::Other));
        let (r, _) = split_reply(&bulk[used + used2 + used3..]).unwrap().unwrap();
        assert!(matches!(r, Reply::Other));
        assert!(split_reply(b"$3\r\nab").unwrap().is_none());
        assert!(split_reply(b"+O").unwrap().is_none());
        assert!(split_reply(b"?junk\r\n").is_err());
    }

    #[test]
    fn stale_future_and_backward_reads_are_wrong() {
        let mut keys = KeyState::new(4);
        keys.sent[1] = 5;
        let get = Req {
            class: Class::Get,
            key: 1,
            seq: 0,
            end: 0,
        };
        let v = |seq| crate::gen::value_of(1, seq);
        assert!(reply_is_right(
            &get,
            3,
            &Reply::Bulk(&v(4)),
            Some(&mut keys)
        ));
        // Older than the floor: a stale read.
        assert!(!reply_is_right(
            &get,
            5,
            &Reply::Bulk(&v(4)),
            Some(&mut keys)
        ));
        // Older than what an earlier read returned.
        assert!(!reply_is_right(
            &get,
            0,
            &Reply::Bulk(&v(3)),
            Some(&mut keys)
        ));
        // Newer than anything sent.
        assert!(!reply_is_right(
            &get,
            0,
            &Reply::Bulk(&v(6)),
            Some(&mut keys)
        ));
        // Another key's value, an error, a wrong shape.
        assert!(!reply_is_right(
            &get,
            0,
            &Reply::Bulk(&crate::gen::value_of(2, 4)),
            Some(&mut keys)
        ));
        assert!(!reply_is_right(&get, 0, &Reply::Other, Some(&mut keys)));
        assert!(!reply_is_right(&get, 0, &Reply::Ok, Some(&mut keys)));
    }

    #[test]
    fn window_percentiles_take_the_median_window_and_drop_thin_ones() {
        let quiet: Vec<u64> = (1..=200).map(|i| i * 1_000).collect();
        let spoiled: Vec<u64> = (1..=200).map(|i| i * 50_000).collect();
        let thin = vec![9_000_000; 10];
        let windows = [quiet.clone(), quiet.clone(), spoiled, thin];
        let s = summarize(&windows, 100, &[]);
        assert_eq!(s.windows_kept, 3);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.p95_us, 190.0);
        let s = summarize(&windows, 100, &[true, false, false, false]);
        assert_eq!(s.windows_kept, 2);
        assert_eq!(s.p50_us, 2_550.0);
        assert_eq!(s.samples, 610);
        assert_eq!(s.max_us, 10_000.0);
    }
}
