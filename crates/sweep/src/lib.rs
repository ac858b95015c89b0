//! `sim-sweep` — a deterministic parallel sweep harness.
//!
//! The figure drivers evaluate grids of independent simulation cells
//! (platform x discipline x placement x load, seed x scale, ...). Fanning a
//! grid over OS threads is easy; doing it so the merged result is
//! **bit-identical for every thread count** takes three rules, all enforced
//! here:
//!
//! 1. **Fixed sharding.** The cell range `0..n_cells` is cut into a fixed
//!    number of contiguous shards ([`DEFAULT_SHARDS`], 64) that does *not*
//!    depend on how many worker threads run. Threads race only over
//!    *which worker evaluates which shard* — never over shard boundaries,
//!    so the grouping of cells into partial accumulators is a pure
//!    function of `n_cells`.
//! 2. **In-order folds, in-order merge.** Each shard folds its cells in
//!    ascending index order into a fresh accumulator; finished shards are
//!    parked in a per-shard slot and merged on the calling thread in shard
//!    index order. Every reduction tree is therefore identical whether one
//!    thread or sixteen did the evaluating — even for non-commutative or
//!    non-associative-in-floating-point merges.
//! 3. **Derived per-cell seeds.** A cell's RNG seed is a pure function of
//!    `(base_seed, cell_index)` ([`cell_seed`]), never of evaluation order,
//!    worker identity or wall clock.
//!
//! For cross-run digests there is also [`MergedDigest`], an
//! order-*independent* commutative combiner: absorb `(cell, digest)` pairs
//! in any order on any thread and the final value matches the serial fold.
//! Use the ordered merge when output order matters (table rows) — [`map`]
//! is its one-output-per-cell form; use the digest when only the *set* of
//! per-cell results matters.
//!
//! The worker pool is built from `std::thread::scope` — no external
//! dependencies. The thread count comes from [`SweepOpts::threads`], else
//! the `RAYON_NUM_THREADS` environment variable (the conventional knob,
//! honored even though this is not rayon), else the machine's available
//! parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sim_des::splitmix64;

/// Number of shards every sweep is cut into — the unit of work
/// distribution *and* of reduction grouping. Chosen large enough that
/// uneven per-cell costs still balance across workers, small enough that
/// per-shard accumulator overhead stays negligible.
pub const DEFAULT_SHARDS: usize = 64;

/// Options for [`sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepOpts {
    /// Worker threads. `None` resolves to `RAYON_NUM_THREADS` (if set to a
    /// positive integer) else `std::thread::available_parallelism()`.
    pub threads: Option<usize>,
}

impl SweepOpts {
    /// Pin the worker count (e.g. `serial()`-style tests use 1).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// The worker count this sweep will actually run with.
    pub fn resolved_threads(&self) -> usize {
        self.threads
            .or_else(|| {
                std::env::var("RAYON_NUM_THREADS")
                    .ok()
                    .and_then(|s| s.trim().parse::<usize>().ok())
                    .filter(|&n| n > 0)
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(4)
            })
            .max(1)
    }
}

/// Half-open cell range of shard `s` of `shards` over `n_cells` cells:
/// contiguous, in order, covering every cell exactly once, sizes differing
/// by at most one. A pure function of its arguments — this is what makes
/// the reduction grouping thread-count independent.
pub fn shard_range(n_cells: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    debug_assert!(s < shards);
    (s * n_cells / shards)..((s + 1) * n_cells / shards)
}

/// Evaluate `n_cells` independent cells in parallel and reduce them
/// deterministically.
///
/// * `init` builds an empty accumulator (called once per non-empty shard,
///   plus once for the final result);
/// * `eval(cell, acc)` folds cell `cell` into the shard's accumulator —
///   cells within a shard arrive in ascending order;
/// * `merge(total, shard_acc)` combines finished shards into the final
///   accumulator, called on the *calling* thread in shard index order.
///
/// The result is bit-identical for every worker count (including 1)
/// because sharding, fold order and merge order are all independent of the
/// thread count: the grouping of `merge` calls is fixed by
/// [`DEFAULT_SHARDS`].
pub fn sweep<A, I, E, M>(n_cells: usize, opts: &SweepOpts, init: I, eval: E, mut merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    E: Fn(usize, &mut A) + Sync,
    M: FnMut(&mut A, A),
{
    let shards = DEFAULT_SHARDS;
    let mut total = init();
    if n_cells == 0 {
        return total;
    }
    let workers = opts.resolved_threads().min(shards);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<A>> = (0..shards).map(|_| None).collect();
    let parked = Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= shards {
                    break;
                }
                let range = shard_range(n_cells, shards, s);
                if range.is_empty() {
                    continue;
                }
                let mut acc = init();
                for cell in range {
                    eval(cell, &mut acc);
                }
                parked.lock().unwrap()[s] = Some(acc);
            });
        }
    });
    for slot in slots.iter_mut() {
        if let Some(acc) = slot.take() {
            merge(&mut total, acc);
        }
    }
    total
}

/// Evaluate `f(cell)` for every cell of `0..n_cells` on the sweep's worker
/// pool and return the outputs in cell order: [`sweep`] with a `Vec` per
/// shard and concatenation as the merge. Each output depends only on its
/// cell, so the result is the serial `(0..n_cells).map(f)` for every
/// worker count. Workers claim cells in ascending order, so a grid listed
/// costliest-first finishes sooner.
pub fn map<O, F>(n_cells: usize, opts: &SweepOpts, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    sweep(
        n_cells,
        opts,
        Vec::new,
        |cell, acc: &mut Vec<O>| acc.push(f(cell)),
        |total, part| total.extend(part),
    )
}

/// Derive the RNG seed for one cell of a sweep grid: a pure splitmix64
/// mix of the base seed and the cell index. Distinct cells get decorrelated
/// seeds; the same `(base, cell)` pair always gets the same seed, no matter
/// which worker evaluates it or when.
pub fn cell_seed(base: u64, cell: u64) -> u64 {
    splitmix64(base ^ splitmix64(cell.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// FNV-1a 64-bit hash — the digest primitive the golden tests pin table
/// text with, exposed here so sweep digests and goldens share one
/// definition.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-independent digest combiner for per-cell results.
///
/// Each `(cell, digest)` pair is whitened through splitmix64 and summed
/// with wrapping addition — a commutative, associative fold, so absorbing
/// cells in any order (or merging per-shard partials in any order) yields
/// the same value as the serial in-order fold. Binding the cell index into
/// the whitening means swapping two cells' digests *does* change the
/// value: the digest commits to *which* cell produced *what*, not just to
/// the multiset of outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergedDigest {
    sum: u64,
    n: u64,
}

impl MergedDigest {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one cell's digest in (any order, any thread's partial).
    pub fn absorb(&mut self, cell: u64, digest: u64) {
        self.sum = self.sum.wrapping_add(splitmix64(digest ^ splitmix64(cell)));
        self.n = self.n.wrapping_add(1);
    }

    /// Combine another partial digest into this one (commutative).
    pub fn merge(&mut self, other: MergedDigest) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.n = self.n.wrapping_add(other.n);
    }

    /// The final digest value (whitened sum, bound to the cell count).
    pub fn value(&self) -> u64 {
        splitmix64(self.sum ^ splitmix64(self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_every_cell_exactly_once_in_order() {
        for &(n, s) in &[
            (0usize, 64usize),
            (1, 64),
            (63, 64),
            (64, 64),
            (65, 64),
            (1000, 7),
        ] {
            let mut cells = Vec::new();
            for shard in 0..s {
                cells.extend(shard_range(n, s, shard));
            }
            assert_eq!(cells, (0..n).collect::<Vec<_>>(), "n={n} s={s}");
        }
    }

    #[test]
    fn ordered_merge_preserves_cell_order() {
        for threads in [1usize, 2, 8] {
            let opts = SweepOpts::default().with_threads(threads);
            let out = sweep(
                1000,
                &opts,
                Vec::new,
                |cell, acc: &mut Vec<usize>| acc.push(cell),
                |total, part| total.extend(part),
            );
            assert_eq!(out, (0..1000).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(map(1000, &opts, |cell| cell), out, "threads={threads}");
        }
    }

    /// A deliberately non-associative float reduction: bit-identity across
    /// thread counts holds only because the grouping is fixed by shards.
    #[test]
    fn float_fold_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let opts = SweepOpts::default().with_threads(threads);
            sweep(
                997,
                &opts,
                || 0.0f64,
                |cell, acc: &mut f64| {
                    let x = cell_seed(42, cell as u64) as f64 / u64::MAX as f64;
                    *acc += (x * 1e9).sin() / (1.0 + *acc * *acc);
                },
                |total, part| *total += part / (1.0 + total.abs()),
            )
        };
        let serial = run(1);
        for threads in [2usize, 3, 8, 16] {
            assert_eq!(
                serial.to_bits(),
                run(threads).to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn merged_digest_is_order_independent_but_cell_bound() {
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|c| (c, splitmix64(c ^ 0xABCD))).collect();
        let mut fwd = MergedDigest::new();
        for &(c, d) in &pairs {
            fwd.absorb(c, d);
        }
        let mut rev = MergedDigest::new();
        for &(c, d) in pairs.iter().rev() {
            rev.absorb(c, d);
        }
        assert_eq!(fwd.value(), rev.value());
        // Partial merge in arbitrary order agrees too.
        let mut a = MergedDigest::new();
        let mut b = MergedDigest::new();
        for &(c, d) in &pairs {
            if c % 3 == 0 {
                a.absorb(c, d)
            } else {
                b.absorb(c, d)
            }
        }
        let mut ba = b;
        ba.merge(a);
        a.merge(b);
        assert_eq!(a.value(), fwd.value());
        assert_eq!(ba.value(), fwd.value());
        // Swapping two cells' digests changes the value: the digest commits
        // to the cell -> result mapping.
        let mut swapped = MergedDigest::new();
        for &(c, d) in &pairs {
            match c {
                0 => swapped.absorb(0, pairs[1].1),
                1 => swapped.absorb(1, pairs[0].1),
                _ => swapped.absorb(c, d),
            }
        }
        assert_ne!(swapped.value(), fwd.value());
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        assert_eq!(cell_seed(42, 7), cell_seed(42, 7));
        let mut seen = std::collections::HashSet::new();
        for cell in 0..10_000u64 {
            assert!(seen.insert(cell_seed(0x5EED_0000, cell)));
        }
        assert_ne!(cell_seed(1, 0), cell_seed(2, 0));
    }

    #[test]
    fn empty_and_tiny_grids_work() {
        let opts = SweepOpts::default().with_threads(8);
        let none = sweep(
            0,
            &opts,
            Vec::new,
            |c, a: &mut Vec<usize>| a.push(c),
            |t, p| t.extend(p),
        );
        assert!(none.is_empty());
        let one = sweep(
            1,
            &opts,
            Vec::new,
            |c, a: &mut Vec<usize>| a.push(c),
            |t, p| t.extend(p),
        );
        assert_eq!(one, vec![0]);
        assert!(map(0, &opts, |c| c).is_empty());
    }

    #[test]
    fn explicit_thread_override_beats_env() {
        // No env manipulation (racy under the parallel test harness): just
        // check the explicit override path resolves to itself.
        assert_eq!(SweepOpts::default().with_threads(3).resolved_threads(), 3);
        assert!(SweepOpts::default().resolved_threads() >= 1);
    }
}
