//! Slot-partitioned engine stripes: the striped replacement for the single
//! `Mutex<Engine>` serving lock.
//!
//! The paper's engine is single-threaded (§2); our node wrapped it in one
//! mutex, so multiplexed IO threads that had already parallelized read,
//! parse and reply flush still serialized on execution. This module splits
//! the keyspace into `N` contiguous slot-range stripes (CRC16 slot space,
//! like the cluster keyspace itself, §5.2), each guarded by its own
//! `parking_lot::Mutex<Engine>`:
//!
//! * A batch whose keys all hash into one stripe takes only that stripe's
//!   lock — disjoint-stripe batches execute concurrently.
//! * Cross-stripe work (EXEC spanning stripes, FLUSHALL, SCAN, DBSIZE,
//!   INFO, snapshot cuts, replica apply, rebuild/install) acquires **all**
//!   stripes in canonical ascending order through [`EngineStripes::lock_all`]
//!   — the only sanctioned multi-stripe acquisition path (the analyzer's
//!   stripe-order lint flags any other).
//!
//! Durability ordering is preserved per stripe: the stripe lock is held
//! through execution *and* the fold/stage step under the node state lock,
//! so within each stripe execution order equals fold order equals global
//! log order restricted to that stripe. Lock order is documented in
//! `pipeline.rs`: stripes (ascending) < node `st` < pipeline `q` < `cq`.

use memorydb_engine::exec::Role;
use memorydb_engine::{Db, Engine, EngineVersion, NUM_SLOTS};
use memorydb_metrics::{CounterId, Registry};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Maps a CRC16 slot to its owning stripe: contiguous slot ranges, so a
/// stripe is itself a valid migration/snapshot unit. With `stripes == 1`
/// everything maps to stripe 0 (the unstriped degenerate case).
pub fn stripe_of(slot: u16, stripes: usize) -> usize {
    if stripes <= 1 {
        return 0;
    }
    (slot as usize * stripes) / (NUM_SLOTS as usize)
}

/// Inclusive slot range `[lo, hi]` owned by `stripe` under an `n`-way
/// partitioning — the inverse of [`stripe_of`]. Full-snapshot chunking and
/// the parallel restore partition the slot space with this so chunk
/// boundaries line up with stripe boundaries. Out-of-range `stripe` clamps
/// to the last stripe (total, like the other accessors here).
pub fn slot_range_of(stripe: usize, n: usize) -> (u16, u16) {
    if n <= 1 {
        return (0, NUM_SLOTS - 1);
    }
    let s = stripe.min(n - 1);
    let num = NUM_SLOTS as usize;
    // stripe_of(slot, n) == s  ⇔  ceil(s·num/n) <= slot < ceil((s+1)·num/n)
    let lo = (s * num).div_ceil(n);
    let hi = ((s + 1) * num).div_ceil(n) - 1;
    (lo as u16, (hi.min(num - 1)) as u16)
}

/// The striped engine: stripe 0 plus the remaining stripes. Structurally
/// non-empty (`first` is not behind a `Vec`), so accessors that need *some*
/// engine are total without a panic path.
pub struct EngineStripes {
    first: Mutex<Engine>,
    rest: Vec<Mutex<Engine>>,
    metrics: Arc<Registry>,
    /// Published per-stripe key counts: written (Release) by every guard
    /// drop from the live `db.len()`, read (Acquire) lock-free by `DBSIZE`
    /// and the `RANDOMKEY` stripe pick — neither needs the all-stripe
    /// acquisition any more. Bounded staleness: a stripe's count lags only
    /// while a batch on that stripe is mid-execution.
    counts: Vec<AtomicUsize>,
    /// SplitMix64 state for the count-weighted `RANDOMKEY` stripe pick —
    /// node-local scheduling randomness only, never replicated (the key
    /// choice within the stripe still uses the engine's seeded RNG).
    rand_state: AtomicU64,
}

impl EngineStripes {
    /// Partitions `engine` into `stripes` slot-range stripes (min 1). Each
    /// stripe keeps the role, version, clock, config and script cache.
    pub fn split(engine: Engine, stripes: usize, metrics: Arc<Registry>) -> EngineStripes {
        let n = stripes.max(1);
        if n == 1 {
            let counts = vec![AtomicUsize::new(engine.db.len())];
            return EngineStripes {
                first: Mutex::new(engine),
                rest: Vec::new(),
                metrics,
                counts,
                rand_state: AtomicU64::new(0x243F_6A88_85A3_08D3),
            };
        }
        let mut parts = engine
            .split_striped(n, |slot| stripe_of(slot, n))
            .into_iter();
        // `split_striped` returns exactly `n >= 1` engines; the fallback
        // keeps this constructor total.
        let first = parts.next().unwrap_or_else(|| Engine::new(Role::Replica));
        let mut counts = Vec::with_capacity(n);
        counts.push(AtomicUsize::new(first.db.len()));
        let rest: Vec<Mutex<Engine>> = parts
            .map(|e| {
                counts.push(AtomicUsize::new(e.db.len()));
                Mutex::new(e)
            })
            .collect();
        EngineStripes {
            first: Mutex::new(first),
            rest,
            metrics,
            counts,
            rand_state: AtomicU64::new(0x243F_6A88_85A3_08D3),
        }
    }

    /// Number of stripes (>= 1).
    pub fn count(&self) -> usize {
        1 + self.rest.len()
    }

    /// The stripe owning `slot` under this partitioning.
    pub fn stripe_for_slot(&self, slot: u16) -> usize {
        stripe_of(slot, self.count())
    }

    /// The engine version (identical across stripes by construction).
    pub fn engine_version(&self) -> EngineVersion {
        self.lock_counting(&self.first).version()
    }

    /// Re-partitions a freshly restored engine the same way this instance
    /// is partitioned, without touching the live stripes — the rebuild path
    /// splits outside the locks, then swaps under [`Self::lock_all`] via
    /// [`StripeGuards::install`].
    pub fn partition(&self, engine: Engine) -> Vec<Engine> {
        let n = self.count();
        if n == 1 {
            vec![engine]
        } else {
            engine.split_striped(n, move |slot| stripe_of(slot, n))
        }
    }

    /// One stripe-lock acquisition, counting contention: an opportunistic
    /// `try_lock` miss increments `stripe_conflicts` before blocking.
    fn lock_counting<'a>(&self, m: &'a Mutex<Engine>) -> MutexGuard<'a, Engine> {
        if let Some(g) = m.try_lock() {
            return g;
        }
        self.metrics.incr(CounterId::StripeConflicts);
        m.lock()
    }

    /// Locks a single stripe. An out-of-range index degrades to the safe
    /// superset [`Self::lock_all`] instead of panicking.
    pub fn lock_one(&self, idx: usize) -> StripeGuards<'_> {
        if idx == 0 {
            let all = self.rest.is_empty();
            return StripeGuards {
                first_idx: 0,
                first: self.lock_counting(&self.first),
                rest: Vec::new(),
                n: self.count(),
                all,
                counts: &self.counts,
            };
        }
        match self.rest.get(idx - 1) {
            Some(m) => StripeGuards {
                first_idx: idx,
                first: self.lock_counting(m),
                rest: Vec::new(),
                n: self.count(),
                all: false,
                counts: &self.counts,
            },
            None => self.lock_all(),
        }
    }

    /// Locks every stripe in canonical ascending order — the only sanctioned
    /// multi-stripe acquisition (deadlock freedom: all multi-stripe holders
    /// acquire in the same total order).
    pub fn lock_all(&self) -> StripeGuards<'_> {
        let first = self.lock_counting(&self.first);
        let rest = self.rest.iter().map(|m| self.lock_counting(m)).collect();
        StripeGuards {
            first_idx: 0,
            first,
            rest,
            n: self.count(),
            all: true,
            counts: &self.counts,
        }
    }

    /// Published key count of stripe `idx` (zero for an out-of-range index).
    /// Refreshed by every guard drop; see [`EngineStripes::counts`].
    pub fn key_count(&self, idx: usize) -> usize {
        self.counts
            .get(idx)
            .map_or(0, |c| c.load(Ordering::Acquire))
    }

    /// Sum of the published key counts over every stripe EXCEPT `held` —
    /// the lock-free half of a `DBSIZE` answered from one held stripe.
    pub fn keys_elsewhere(&self, held: usize) -> usize {
        self.counts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != held)
            .map(|(_, c)| c.load(Ordering::Acquire))
            .sum()
    }

    /// Picks a stripe with probability proportional to its published key
    /// count (so a `RANDOMKEY` routed to that single stripe draws from the
    /// whole keyspace uniformly, matching the unstriped engine). An empty
    /// keyspace picks stripe 0, where the engine answers `Null` itself.
    pub fn weighted_random_stripe(&self) -> usize {
        if self.count() == 1 {
            return 0;
        }
        let per: Vec<usize> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect();
        let total: usize = per.iter().sum();
        if total == 0 {
            return 0;
        }
        // SplitMix64 over an atomic counter: cheap, lock-free, and good
        // enough for load-spreading (not replicated, not security-relevant).
        let mut z = self
            .rand_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut pick = (z % total as u64) as usize;
        for (i, len) in per.iter().enumerate() {
            if pick < *len {
                return i;
            }
            pick = pick.saturating_sub(*len);
        }
        0
    }
}

/// A set of held stripe locks: either one stripe (`first` only, `first_idx`
/// says which) or all of them (`first` is stripe 0, `rest` are 1..n, in
/// ascending order). Non-empty by construction.
pub struct StripeGuards<'a> {
    first_idx: usize,
    first: MutexGuard<'a, Engine>,
    rest: Vec<MutexGuard<'a, Engine>>,
    n: usize,
    all: bool,
    /// Backing [`EngineStripes::counts`]: the drop impl publishes each held
    /// stripe's final `db.len()` here, so the lock-free readers observe
    /// every batch's net key-count effect as soon as its locks release.
    counts: &'a [AtomicUsize],
}

impl Drop for StripeGuards<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.counts.get(self.first_idx) {
            c.store(self.first.db.len(), Ordering::Release);
        }
        for (off, g) in self.rest.iter().enumerate() {
            if let Some(c) = self.counts.get(self.first_idx + 1 + off) {
                c.store(g.db.len(), Ordering::Release);
            }
        }
    }
}

impl StripeGuards<'_> {
    /// Whether every stripe is held (always true when `n == 1`).
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Total stripe count of the underlying [`EngineStripes`].
    pub fn stripe_count(&self) -> usize {
        self.n
    }

    /// Index of the (first) held stripe.
    pub fn held_idx(&self) -> usize {
        self.first_idx
    }

    /// The one held stripe as a staged run's `stripe` tag; `None` when
    /// every stripe is held.
    pub fn held_stripe(&self) -> Option<u16> {
        (!self.all).then_some(self.first_idx as u16)
    }

    /// Some held engine — for stripe-agnostic work (PING, config reads,
    /// version queries). Total: `first` always exists.
    pub fn any_engine(&mut self) -> &mut Engine {
        &mut self.first
    }

    /// The engine at stripe `idx`. Falls back to the first held stripe if
    /// `idx` is not held — callers route by the same `stripe_of` that
    /// built the guard set, so the fallback is unreachable in practice.
    pub fn engine_at(&mut self, idx: usize) -> &mut Engine {
        if idx == self.first_idx {
            return &mut self.first;
        }
        match idx
            .checked_sub(self.first_idx + 1)
            .and_then(|off| self.rest.get_mut(off))
        {
            Some(g) => g,
            None => &mut self.first,
        }
    }

    /// The engine owning `slot`.
    pub fn engine_for_slot(&mut self, slot: u16) -> &mut Engine {
        let idx = stripe_of(slot, self.n);
        self.engine_at(idx)
    }

    /// Every held engine, ascending stripe order. Boxed: the concrete
    /// iterator captures the outer guard lifetime, which edition-2021
    /// opaque types cannot express.
    pub fn each(&mut self) -> Box<dyn Iterator<Item = &mut Engine> + '_> {
        Box::new(std::iter::once(&mut *self.first).chain(self.rest.iter_mut().map(|g| &mut **g)))
    }

    /// Every held database, ascending stripe order (snapshot capture, INFO
    /// keyspace/memory sums).
    pub fn dbs(&self) -> Vec<&Db> {
        let mut v = Vec::with_capacity(1 + self.rest.len());
        v.push(&self.first.db);
        for g in &self.rest {
            v.push(&g.db);
        }
        v
    }

    /// Immutable view of the first held engine (version/config reads).
    pub fn first_ref(&self) -> &Engine {
        &self.first
    }

    /// Replaces the held engines with freshly partitioned `parts` (rebuild
    /// install under `lock_all`). Extra or missing parts are ignored —
    /// `EngineStripes::partition` always produces exactly `n`.
    pub fn install(&mut self, parts: Vec<Engine>) {
        let mut it = parts.into_iter();
        if let Some(p) = it.next() {
            *self.first = p;
        }
        for (g, p) in self.rest.iter_mut().zip(it) {
            **g = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memorydb_engine::{cmd, key_hash_slot, SessionState};

    fn registry() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    #[test]
    fn stripe_of_is_contiguous_and_covers_all_slots() {
        for &n in &[1usize, 2, 4, 16, 64] {
            let mut prev = 0usize;
            for slot in 0..NUM_SLOTS {
                let s = stripe_of(slot, n);
                assert!(s < n, "stripe {s} out of range for n={n}");
                assert!(s >= prev, "stripe map must be monotone");
                prev = s;
            }
            assert_eq!(stripe_of(0, n), 0);
            assert_eq!(stripe_of(NUM_SLOTS - 1, n), n - 1);
        }
    }

    #[test]
    fn slot_ranges_partition_the_slot_space() {
        for &n in &[1usize, 2, 3, 16, 64] {
            let mut next = 0u32;
            for s in 0..n {
                let (lo, hi) = slot_range_of(s, n);
                assert_eq!(lo as u32, next, "stripe {s}/{n} must abut the previous");
                assert!(hi >= lo);
                assert_eq!(stripe_of(lo, n), s, "lo of stripe {s}/{n}");
                assert_eq!(stripe_of(hi, n), s, "hi of stripe {s}/{n}");
                next = hi as u32 + 1;
            }
            assert_eq!(next, NUM_SLOTS as u32, "n={n} must cover every slot");
        }
        // Out-of-range stripe clamps instead of panicking.
        assert_eq!(slot_range_of(99, 4), slot_range_of(3, 4));
    }

    #[test]
    fn split_routes_keys_to_owning_stripe() {
        let mut engine = Engine::new(Role::Primary);
        let mut s = SessionState::new();
        for k in ["foo", "bar", "hello", "{tag}a", "{tag}b"] {
            engine.execute(&mut s, &cmd(["SET", k, k]));
        }
        let stripes = EngineStripes::split(engine, 16, registry());
        assert_eq!(stripes.count(), 16);
        for k in ["foo", "bar", "hello"] {
            let idx = stripes.stripe_for_slot(key_hash_slot(k.as_bytes()));
            let mut g = stripes.lock_one(idx);
            let mut s = SessionState::new();
            let reply = g
                .engine_for_slot(key_hash_slot(k.as_bytes()))
                .execute(&mut s, &cmd(["GET", k]));
            assert_eq!(
                reply.reply,
                memorydb_engine::Frame::Bulk(bytes::Bytes::copy_from_slice(k.as_bytes())),
                "key {k} must live on its own stripe"
            );
        }
        // Total key count is preserved across the partitioning.
        let g = stripes.lock_all();
        let total: usize = g.dbs().iter().map(|db| db.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn single_stripe_is_degenerate_all() {
        let stripes = EngineStripes::split(Engine::new(Role::Primary), 1, registry());
        assert_eq!(stripes.count(), 1);
        let g = stripes.lock_one(0);
        assert!(g.is_all(), "n=1: one stripe IS all stripes");
    }

    #[test]
    fn out_of_range_lock_one_degrades_to_all() {
        let stripes = EngineStripes::split(Engine::new(Role::Primary), 4, registry());
        let g = stripes.lock_one(99);
        assert!(g.is_all());
        assert_eq!(g.stripe_count(), 4);
    }

    #[test]
    fn install_swaps_every_stripe() {
        let stripes = EngineStripes::split(Engine::new(Role::Primary), 4, registry());
        let mut fresh = Engine::new(Role::Primary);
        let mut s = SessionState::new();
        fresh.execute(&mut s, &cmd(["SET", "foo", "v"]));
        fresh.execute(&mut s, &cmd(["SET", "bar", "v"]));
        let parts = stripes.partition(fresh);
        assert_eq!(parts.len(), 4);
        let mut g = stripes.lock_all();
        g.install(parts);
        let total: usize = g.dbs().iter().map(|db| db.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn conflicts_are_counted() {
        let reg = registry();
        let stripes = Arc::new(EngineStripes::split(
            Engine::new(Role::Primary),
            2,
            Arc::clone(&reg),
        ));
        let held = stripes.lock_one(0);
        let s2 = Arc::clone(&stripes);
        let t = std::thread::spawn(move || {
            let _g = s2.lock_one(0); // blocks until the holder drops
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(held);
        t.join().unwrap();
        assert!(reg.counter(CounterId::StripeConflicts) >= 1);
    }
}
