//! Deterministic structured parallelism for the optimization hot paths.
//!
//! Everything here is built around one invariant: **the result of a
//! parallel computation must be bit-identical to the sequential one.**
//! [`parallel_map`] only changes *where* independent work items run, never
//! their inputs or the order results are consumed in, and [`split_seeds`]
//! derives per-task RNG seeds as a pure function of the caller's seed so a
//! fan-out is reproducible regardless of how it is scheduled.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Worker-thread budget for the parallel hot paths (acquisition probe
/// scoring, acquisition refinement starts, L-BFGS training restarts).
///
/// The default is the number of available cores; [`Parallelism::sequential`]
/// (`1`) selects the legacy single-threaded path. Any setting produces
/// bit-identical results — the knob trades wall-clock time only. A budget
/// above the host's hardware threads is kept as given, so callers still
/// split their work into that many chunks, but [`parallel_map`] runs the
/// chunks on at most one OS thread per hardware thread.
///
/// # Example
///
/// ```
/// use easybo_opt::Parallelism;
///
/// assert_eq!(Parallelism::sequential().threads(), 1);
/// assert_eq!(Parallelism::new(0).threads(), 1); // clamped up
/// assert!(Parallelism::default().threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism(usize);

impl Parallelism {
    /// A budget of `threads` workers; zero is clamped up to 1.
    pub fn new(threads: usize) -> Self {
        Parallelism(threads.max(1))
    }

    /// The legacy sequential path (one worker, no threads spawned).
    pub const fn sequential() -> Self {
        Parallelism(1)
    }

    /// One worker per available hardware thread (falls back to 1 when the
    /// platform cannot report its parallelism).
    pub fn available() -> Self {
        Parallelism(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The worker-thread budget (always ≥ 1).
    pub fn threads(self) -> usize {
        self.0
    }

    /// The OS threads [`parallel_map`] runs for `items` items under this
    /// budget: one per item up to the budget, and never more than the
    /// host has hardware threads, since oversubscribed threads only add
    /// switching. `1` (or `0` for no items) means no thread is spawned.
    pub fn os_threads(self, items: usize) -> usize {
        self.os_threads_on(items, host_threads())
    }

    /// [`Parallelism::os_threads`] on a host with `host` hardware threads.
    fn os_threads_on(self, items: usize, host: usize) -> usize {
        self.0.min(items).min(host)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

impl From<usize> for Parallelism {
    fn from(threads: usize) -> Self {
        Parallelism::new(threads)
    }
}

/// The hardware threads the platform reports (1 when it cannot), read
/// once per process: the probe reads cgroup files on Linux.
fn host_threads() -> usize {
    use std::sync::OnceLock;
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| Parallelism::available().threads())
}

/// Maps `f(index, item)` over `items`, fanning the items out to scoped
/// worker threads, and returns the outputs **in input order**.
///
/// Because every item is processed independently with its original index and
/// the output order is fixed, the result is bit-identical to the sequential
/// map for any `parallelism` — a deterministic fan-out, not a reduction
/// whose shape depends on thread timing. The fan-out never spawns more
/// threads than the host has hardware threads, whatever the budget. With
/// a sequential budget (or a trivially small input) no threads are
/// spawned at all.
pub fn parallel_map<T, U, F>(parallelism: Parallelism, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = parallelism.os_threads(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Each thread takes the next unclaimed item, so items of uneven cost
    // balance across the threads the way the OS would balance one thread
    // per item. Outputs are keyed by input index, so the schedule never
    // shows in the result.
    let queue = Mutex::new(items.into_iter().enumerate());
    let (queue, f) = (&queue, &f);
    let done: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // The lock is released before `f` runs.
                        let next = queue.lock().expect("no thread panics holding it").next();
                        let Some((i, item)) = next else { break };
                        out.push((i, f(i, item)));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut outputs: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, u) in done.into_iter().flatten() {
        outputs[i] = Some(u);
    }
    outputs
        .into_iter()
        .map(|o| o.expect("every item mapped once"))
        .collect()
}

/// Splits a caller seed into `n` decorrelated per-task seeds with a
/// splitmix64 stream — the standard way to hand each member of a parallel
/// fan-out its own RNG without any sequential draw dependence.
///
/// Pure function of `(seed, n)`: the i-th returned seed never depends on how
/// many tasks run concurrently or in what order they are scheduled.
pub fn split_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_clamps_and_reports() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(8).threads(), 8);
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert_eq!(Parallelism::from(3), Parallelism::new(3));
        assert!(Parallelism::available().threads() >= 1);
    }

    #[test]
    fn os_threads_never_exceed_the_host() {
        // A fake host count: nothing here spawns a thread.
        let most = Parallelism::new(usize::MAX);
        assert_eq!(most.os_threads_on(usize::MAX, 2), 2);
        assert_eq!(most.os_threads_on(5, 64), 5);
        assert_eq!(Parallelism::new(8).os_threads_on(1_000, 64), 8);
        assert_eq!(Parallelism::new(8).os_threads_on(3, 2), 2);
        assert_eq!(Parallelism::new(8).os_threads_on(0, 64), 0);
        assert_eq!(Parallelism::sequential().os_threads_on(1_000, 64), 1);
        let host = host_threads();
        assert!(host >= 1);
        assert_eq!(most.os_threads(usize::MAX), host);
    }

    #[test]
    fn parallel_map_preserves_order_and_indices() {
        let items: Vec<usize> = (0..23).collect();
        let expect: Vec<usize> = items.iter().map(|&v| v * 10).collect();
        for k in [1usize, 2, 3, 8, 64] {
            let got = parallel_map(Parallelism::new(k), items.clone(), |i, v| {
                assert_eq!(i, v, "index must match the item's input position");
                v * 10
            });
            assert_eq!(got, expect, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn parallel_map_propagates_a_panicking_item() {
        parallel_map(Parallelism::new(2), (0..8).collect(), |i, _: usize| {
            assert_ne!(i, 3, "item 3 failed");
        });
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = parallel_map(Parallelism::new(4), Vec::new(), |_, v| v);
        assert!(empty.is_empty());
        let one = parallel_map(Parallelism::new(4), vec![7], |i, v: i32| v + i as i32);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn parallel_map_moves_non_copy_items() {
        let items = vec![vec![1.0, 2.0], vec![3.0]];
        let sums = parallel_map(Parallelism::new(2), items, |_, v| v.iter().sum::<f64>());
        assert_eq!(sums, vec![3.0, 3.0]);
    }

    #[test]
    fn split_seeds_is_pure_and_decorrelated() {
        let a = split_seeds(42, 8);
        let b = split_seeds(42, 8);
        assert_eq!(a, b, "same seed, same stream");
        // Prefix property: asking for fewer seeds yields a prefix.
        assert_eq!(&a[..3], split_seeds(42, 3).as_slice());
        // Different caller seeds diverge everywhere.
        let c = split_seeds(43, 8);
        assert!(a.iter().zip(&c).all(|(x, y)| x != y));
        // No duplicates within a stream.
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
    }
}
