//! The operating system's view of this process: CPU time, run-queue wait
//! and context switches per thread, peak resident memory, and the share of
//! time the hypervisor kept from this machine.

use std::fs;
use std::time::{Duration, Instant};

/// One thread's cumulative scheduler counters.
#[derive(Debug, Clone)]
pub struct ThreadStat {
    pub tid: u32,
    pub name: String,
    /// Time on a CPU, ns (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub runq_ns: u64,
    pub voluntary_ctxsw: u64,
}

/// The calling thread's id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// Counters of every live thread of this process.
pub fn threads() -> Vec<ThreadStat> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        // A thread can exit between the listing and the reads.
        let Ok(sched) = fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        let mut fields = sched.split_whitespace().map(|f| f.parse().unwrap_or(0));
        let name = fs::read_to_string(path.join("comm")).unwrap_or_default();
        let status = fs::read_to_string(path.join("status")).unwrap_or_default();
        out.push(ThreadStat {
            tid,
            name: name.trim().to_string(),
            cpu_ns: fields.next().unwrap_or(0),
            runq_ns: fields.next().unwrap_or(0),
            voluntary_ctxsw: status_field(&status, "voluntary_ctxt_switches:"),
        });
    }
    out
}

fn status_field(status: &str, label: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time so far of the threads `tids`, ns: the cheap reading taken at
/// every window boundary (no listing, no names).
pub fn cpu_ns_of(tids: &[u32]) -> u64 {
    tids.iter()
        .filter_map(|tid| fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Which part of the program a thread belongs to, from the name its owner
/// gave it (`comm` keeps the first 15 bytes).
pub fn group_of(name: &str) -> &'static str {
    if name.starts_with("memorydb-io") {
        "io"
    } else if name.starts_with("txlog") {
        "txlog"
    } else if name.starts_with("node-") && name.contains("-commit") {
        "committer"
    } else if name.starts_with("node-") && name.contains("-complet") {
        "completer"
    } else if name.starts_with("node-") {
        "node"
    } else {
        "other"
    }
}

/// Counter growth between two listings, per thread group, leaving out the
/// thread `skip` (the load generator). Threads are matched by id; one that
/// started in between counts from zero.
#[derive(Debug, Default, Clone)]
pub struct GroupDelta {
    pub cpu_ns: u64,
    pub runq_ns: u64,
    pub voluntary_ctxsw: u64,
}

pub fn delta_by_group(
    before: &[ThreadStat],
    after: &[ThreadStat],
    skip: u32,
) -> Vec<(&'static str, GroupDelta)> {
    let mut out: Vec<(&'static str, GroupDelta)> = Vec::new();
    for t in after.iter().filter(|t| t.tid != skip) {
        let b = before.iter().find(|b| b.tid == t.tid);
        let sub = |now: u64, then: Option<u64>| now.saturating_sub(then.unwrap_or(0));
        let group = group_of(&t.name);
        let idx = match out.iter().position(|(g, _)| *g == group) {
            Some(i) => i,
            None => {
                out.push((group, GroupDelta::default()));
                out.len() - 1
            }
        };
        let d = &mut out[idx].1;
        d.cpu_ns += sub(t.cpu_ns, b.map(|b| b.cpu_ns));
        d.runq_ns += sub(t.runq_ns, b.map(|b| b.runq_ns));
        d.voluntary_ctxsw += sub(t.voluntary_ctxsw, b.map(|b| b.voluntary_ctxsw));
    }
    out
}

/// Peak resident set size of the process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

/// Machine-wide `(steal, total)` jiffies from the first line of
/// `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Number of live threads.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Waits, for a bounded time, until at most `at_most` threads are alive.
pub fn wait_for_threads(at_most: usize) {
    let deadline = Instant::now() + Duration::from_secs(6);
    while thread_count() > at_most && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_follow_the_thread_names_the_program_uses() {
        assert_eq!(group_of("memorydb-io-1"), "io");
        assert_eq!(group_of("node-1"), "node");
        // As the kernel reports them: cut to 15 bytes.
        assert_eq!(group_of("node-1-committe"), "committer");
        assert_eq!(group_of("node-12-complet"), "completer");
        assert_eq!(group_of("txlog-committer"), "txlog");
        assert_eq!(group_of("memorydb-accept"), "other");
    }

    #[test]
    fn own_thread_is_listed_and_burning_cpu_shows() {
        let me = current_tid();
        let before = threads();
        assert!(before.iter().any(|t| t.tid == me));
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = threads();
        let all = delta_by_group(&before, &after, 0);
        let cpu: u64 = all.iter().map(|(_, d)| d.cpu_ns).sum();
        assert!(cpu > 0);
        let without_me = delta_by_group(&before, &after, me);
        assert!(without_me.iter().map(|(_, d)| d.cpu_ns).sum::<u64>() < cpu);
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_jiffies().1 > 0);
    }
}
