//! # olive-runtime
//!
//! Zero-dependency data-parallel runtime for the OliVe reproduction: a
//! persistent [`Pool`] of `std::thread` workers plus the row-range primitives
//! ([`par_rows`], [`par_rows_mut`], [`par_map`]) the tensor, core and model
//! layers build their hot loops on, a bounded
//! [`queue::BoundedQueue`], the one queue in front of `olive-serve`'s decode
//! scheduler (its consumer pops the front only once it can take it, so the
//! bound covers every waiting item), and [`FifoMap`], the bounded map behind
//! every serving cache.
//!
//! ## Thread-count selection
//!
//! Every primitive resolves its parallelism with [`effective_threads`], in
//! priority order:
//!
//! 1. a scoped [`with_threads`] override on the current thread (used by tests
//!    and benches to compare sequential vs parallel execution in-process);
//! 2. the `OLIVE_THREADS` environment variable (re-read on every call, so a
//!    harness can change it between phases);
//! 3. [`std::thread::available_parallelism`], resolved once per process and
//!    cached: it reads cgroup files and costs tens of microseconds, and the
//!    [global pool](Pool::global) is sized once from it anyway.
//!
//! `OLIVE_THREADS=1` forces fully sequential, inline execution everywhere.
//!
//! A **set but invalid** `OLIVE_THREADS` (`0`, non-numeric) clamps to 1 with
//! a one-time stderr warning instead of silently falling back to
//! [`std::thread::available_parallelism`]: a typo'd environment must never
//! be able to change which thread count a determinism test actually ran at.
//! Daemons should additionally call [`validate_thread_env`] at startup to
//! turn the typo into a hard error before serving anything.
//!
//! ## Determinism contract
//!
//! Parallel execution is **bit-identical** to sequential execution, for every
//! thread count, by construction rather than by luck:
//!
//! * [`par_rows`] partitions `0..m` into *disjoint, contiguous* row ranges.
//!   Workers steal which *range* they execute next, but never how a range is
//!   computed: each range is processed by the same kernel code, in the same
//!   row order, with the same floating-point accumulation order, as the
//!   sequential path (which is literally `f(0..m)`).
//! * Kernels built on [`par_rows_mut`] write only to the rows of the output
//!   they own, so no result ever depends on scheduling.
//! * Reductions (e.g. GEMM statistics) are merged from per-range partials
//!   using commutative-and-associative integer arithmetic only; callers that
//!   need floating-point reductions must merge partials in range order, which
//!   [`par_map`]'s index-ordered result vector makes trivial.
//! * Nested parallelism runs inline on the already-parallel worker, so the
//!   work decomposition — and therefore the arithmetic — of an inner kernel
//!   does not change when an outer loop is parallelised.
//!
//! Anything that would break this contract (atomic float accumulation,
//! scheduling-dependent chunk sizes, time-based adaptation) is out of scope
//! for this crate by design. The property tests in `crates/core/tests`
//! enforce the contract for the GEMM kernels at `OLIVE_THREADS=1` vs `8`.
//!
//! ## Example
//!
//! ```
//! // Square 1000 numbers in parallel row blocks, writing disjoint outputs.
//! let input: Vec<f32> = (0..1000).map(|i| i as f32).collect();
//! let mut out = vec![0.0f32; 1000];
//! olive_runtime::par_rows_mut(1000, 1, &mut out, |rows, block| {
//!     for (slot, i) in block.iter_mut().zip(rows) {
//!         *slot = input[i] * input[i];
//!     }
//! });
//! assert_eq!(out[31], 961.0);
//! ```

pub mod pool;
pub mod queue;
pub mod sync;

pub use pool::{Pool, MAX_THREADS};
pub use queue::{BoundedQueue, FifoMap, PushError};
pub use sync::{lock_or_recover, wait_or_recover, wait_timeout_or_recover};

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while this thread is executing pool chunks (workers and
    /// participating callers); nested primitives then run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Minimum work per pool lane (in fused multiply-add-equivalents) below
/// which [`should_parallelize`] recommends staying sequential: dispatching to
/// the pool costs a few microseconds, so kernels whose lanes would each get
/// less are faster inline.
pub const MIN_PARALLEL_WORK: u64 = 32_768;

/// How many chunks each thread lane gets on average; >1 lets fast lanes
/// steal work from slow ones without making chunks too fine.
const CHUNKS_PER_THREAD: usize = 4;

/// Parses an `OLIVE_THREADS` value: a positive integer, surrounding
/// whitespace tolerated.
///
/// # Errors
///
/// Returns a message naming the offending value for `0` (a thread count of
/// zero is always a typo) and anything non-numeric.
pub fn parse_thread_env(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("OLIVE_THREADS=0 is invalid: the thread count must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "OLIVE_THREADS='{raw}' is not a positive integer thread count"
        )),
    }
}

/// Checks the `OLIVE_THREADS` environment variable: `Ok` when unset or a
/// positive integer. Daemons call this at startup so a typo'd environment is
/// an explicit error instead of a silently different thread count (see the
/// [module docs](self)).
///
/// # Errors
///
/// Propagates the [`parse_thread_env`] message for a set-but-invalid value.
pub fn validate_thread_env() -> Result<(), String> {
    match std::env::var("OLIVE_THREADS") {
        Err(_) => Ok(()),
        Ok(value) => parse_thread_env(&value).map(|_| ()),
    }
}

/// Warns about an invalid `OLIVE_THREADS` once per process (the value is
/// re-read on every primitive call; a warning per GEMM would be noise).
fn warn_invalid_thread_env_once(message: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!("olive-runtime: {message}; clamping to OLIVE_THREADS=1 (fully sequential)");
    });
}

/// The host's parallelism, [`std::thread::available_parallelism`] resolved
/// on first use and cached for the life of the process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The parallelism the current thread's primitives will use.
///
/// Resolution order: [`with_threads`] override, then `OLIVE_THREADS`
/// (re-read on every call; an invalid value clamps to 1 with a one-time
/// warning — see the [module docs](self)), then
/// [`std::thread::available_parallelism`], resolved once per process. Always
/// at least 1, clamped to [`MAX_THREADS`].
pub fn effective_threads() -> usize {
    let raw = THREAD_OVERRIDE
        .with(Cell::get)
        .or_else(|| {
            let value = std::env::var("OLIVE_THREADS").ok()?;
            Some(match parse_thread_env(&value) {
                Ok(n) => n,
                Err(message) => {
                    warn_invalid_thread_env_once(&message);
                    1
                }
            })
        })
        .unwrap_or_else(default_threads);
    raw.clamp(1, MAX_THREADS)
}

/// Runs `f` with [`effective_threads`] pinned to `threads` on this thread.
///
/// The override is scoped (restored even if `f` panics) and thread-local, so
/// concurrent tests comparing thread counts do not race each other.
///
/// ```
/// olive_runtime::with_threads(1, || {
///     assert_eq!(olive_runtime::effective_threads(), 1);
/// });
/// ```
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|cell| cell.replace(Some(threads.max(1)))));
    f()
}

/// True while the current thread is executing chunks of a pool job.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a pool lane for the duration of `f`
/// (crate-internal; used by [`Pool`]).
pub(crate) fn enter_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|cell| cell.replace(true)));
    f()
}

/// Whether a kernel over `rows` rows doing `work` fused multiply-adds (or an
/// equivalent cost measure) is worth dispatching to the pool: each of the
/// `min(rows, threads)` lanes it can use must get at least
/// [`MIN_PARALLEL_WORK`].
///
/// Deterministic: depends only on the arguments, the thread-count
/// configuration and whether the caller is already inside a pool job — never
/// on timing.
pub fn should_parallelize(rows: usize, work: u64) -> bool {
    if rows < 2 || in_worker() {
        return false;
    }
    let lanes = rows.min(effective_threads()) as u64;
    lanes > 1 && work / lanes >= MIN_PARALLEL_WORK
}

/// The chunk geometry both row primitives share: rows per chunk and chunk
/// count for an `m`-row kernel at `threads` lanes. Depends only on its
/// arguments, so the decomposition — and therefore the arithmetic — is
/// identical wherever it is computed.
fn chunk_geometry(m: usize, threads: usize) -> (usize, usize) {
    let chunk_rows = m.div_ceil((threads * CHUNKS_PER_THREAD).min(m));
    (chunk_rows, m.div_ceil(chunk_rows))
}

/// Runs `f` over disjoint contiguous sub-ranges of `0..m` that exactly cover
/// `0..m`, in parallel on the [global pool](Pool::global).
///
/// With one effective thread (or inside a pool job, or `m <= 1`) this is
/// exactly `f(0..m)` — one call, on the current thread.
///
/// # Panics
///
/// Re-throws the first panic raised by any range on the calling thread.
pub fn par_rows<F: Fn(Range<usize>) + Sync>(m: usize, f: F) {
    if m == 0 {
        return;
    }
    let threads = effective_threads();
    if threads <= 1 || m == 1 || in_worker() {
        f(0..m);
        return;
    }
    let (chunk_rows, n_chunks) = chunk_geometry(m, threads);
    Pool::global().scoped(threads, n_chunks, |chunk| {
        let start = chunk * chunk_rows;
        let end = (start + chunk_rows).min(m);
        f(start..end);
    });
}

/// Like [`par_rows`], additionally handing each range the mutable slice of
/// `out` holding its rows (`cols` values per row).
///
/// This is the safe core the GEMM kernels build on: the exclusive borrow of
/// `out` is pre-split with `split_at_mut` into one disjoint block per chunk,
/// each chunk takes its block exactly once (an uncontended per-chunk `Mutex`
/// slot), and [`Pool::scoped`] joins every chunk before returning, so no
/// borrow outlives the call. No `unsafe` is involved — the workspace-wide
/// `no-unsafe-outside-simd` lint rule counts on that.
///
/// # Panics
///
/// Panics if `out.len() != m * cols`; re-throws panics raised by `f`.
pub fn par_rows_mut<T: Send, F: Fn(Range<usize>, &mut [T]) + Sync>(
    m: usize,
    cols: usize,
    out: &mut [T],
    f: F,
) {
    assert_eq!(
        out.len(),
        m * cols,
        "par_rows_mut: output length {} != {m} rows x {cols} cols",
        out.len()
    );
    if m == 0 {
        return;
    }
    let threads = effective_threads();
    if threads <= 1 || m == 1 || in_worker() {
        f(0..m, out);
        return;
    }
    let (chunk_rows, n_chunks) = chunk_geometry(m, threads);
    let mut blocks: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(n_chunks);
    let mut rest = out;
    for _ in 0..n_chunks {
        let take = (chunk_rows * cols).min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        blocks.push(Mutex::new(Some(head)));
        rest = tail;
    }
    Pool::global().scoped(threads, n_chunks, |chunk| {
        let start = chunk * chunk_rows;
        let end = (start + chunk_rows).min(m);
        let block = lock_or_recover(&blocks[chunk])
            .take()
            .expect("par_rows_mut: chunk block taken twice");
        f(start..end, block);
    });
}

/// Applies `f` to every item in parallel and returns the results **in input
/// order**, regardless of which thread computed what.
///
/// ```
/// let squares = olive_runtime::par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    par_rows(items.len(), |rows| {
        let local: Vec<R> = items[rows.clone()].iter().map(&f).collect();
        lock_or_recover(&parts).push((rows.start, local));
    });
    // A panicked range already re-threw above; completed partials are intact.
    let mut parts = parts
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    parts.sort_unstable_by_key(|(start, _)| *start);
    parts.into_iter().flat_map(|(_, local)| local).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn effective_threads_is_at_least_one() {
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn unset_fallback_is_resolved_once_and_stable() {
        let first = default_threads();
        assert!(first >= 1);
        // Every later call, on this thread or a pool worker, reads the
        // cached value.
        let again = with_threads(4, || par_map(&[0u8; 16], |_| default_threads()));
        assert!(again.iter().all(|&threads| threads == first), "{again:?}");
        assert_eq!(default_threads(), first);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = effective_threads();
        with_threads(7, || {
            assert_eq!(effective_threads(), 7);
            with_threads(2, || assert_eq!(effective_threads(), 2));
            assert_eq!(effective_threads(), 7);
        });
        assert_eq!(effective_threads(), outer);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        with_threads(0, || assert_eq!(effective_threads(), 1));
    }

    #[test]
    fn par_rows_covers_exactly_once() {
        for threads in [1usize, 2, 8] {
            for m in [0usize, 1, 2, 7, 64, 129] {
                let hits: Vec<AtomicUsize> = (0..m).map(|_| AtomicUsize::new(0)).collect();
                with_threads(threads, || {
                    par_rows(m, |rows| {
                        for i in rows {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} m={m}"
                );
            }
        }
    }

    #[test]
    fn par_rows_ranges_are_contiguous_and_ordered_within_chunks() {
        with_threads(4, || {
            let seen: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());
            par_rows(100, |rows| seen.lock().unwrap().push(rows));
            let mut ranges = seen.lock().unwrap().clone();
            ranges.sort_unstable_by_key(|r| r.start);
            let mut next = 0;
            for r in ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, 100);
        });
    }

    #[test]
    fn par_rows_mut_writes_disjoint_blocks() {
        for threads in [1usize, 8] {
            let mut out = vec![0u64; 33 * 5];
            with_threads(threads, || {
                par_rows_mut(33, 5, &mut out, |rows, block| {
                    for (value, i) in block.iter_mut().zip(rows.start * 5..rows.end * 5) {
                        *value = i as u64;
                    }
                });
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64));
        }
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn par_rows_mut_rejects_bad_length() {
        let mut out = vec![0u8; 7];
        par_rows_mut(2, 4, &mut out, |_, _| {});
    }

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1usize, 3, 8] {
            let items: Vec<usize> = (0..101).collect();
            let result = with_threads(threads, || par_map(&items, |&x| x * 2));
            assert_eq!(result, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_on_empty_slice() {
        let result: Vec<u32> = par_map(&[] as &[u32], |_| unreachable!());
        assert!(result.is_empty());
    }

    #[test]
    fn should_parallelize_respects_work_threshold() {
        with_threads(8, || {
            // The threshold is per lane: eight lanes for 1024 rows, two for
            // a 2-row kernel.
            assert!(should_parallelize(1024, 8 * MIN_PARALLEL_WORK));
            assert!(!should_parallelize(1024, 8 * MIN_PARALLEL_WORK - 1));
            assert!(should_parallelize(2, 2 * MIN_PARALLEL_WORK));
            assert!(!should_parallelize(2, 2 * MIN_PARALLEL_WORK - 1));
            assert!(!should_parallelize(1, u64::MAX));
        });
        with_threads(2, || {
            // A 2-row decode tick's [2,64]x[64,256] and [2,256]x[256,64]
            // GEMMs (32768 MACs each) stay inline; a 256³ GEMM dispatches.
            assert!(!should_parallelize(2, 2 * 64 * 256));
            assert!(should_parallelize(256, 256 * 256 * 256));
        });
        with_threads(1, || {
            assert!(!should_parallelize(1024, u64::MAX));
        });
    }

    #[test]
    fn nested_par_rows_runs_inline() {
        with_threads(4, || {
            let count = AtomicUsize::new(0);
            par_rows(8, |outer| {
                par_rows(4, |inner| {
                    count.fetch_add(
                        (outer.end - outer.start) * (inner.end - inner.start),
                        Ordering::Relaxed,
                    );
                });
            });
            assert_eq!(count.load(Ordering::Relaxed), 8 * 4);
        });
    }

    #[test]
    fn olive_threads_env_is_read_per_call() {
        // Serial within one test to avoid env races; other tests in this
        // binary tolerate any thread count by contract.
        std::env::set_var("OLIVE_THREADS", "5");
        assert_eq!(effective_threads(), 5);
        std::env::set_var("OLIVE_THREADS", "2");
        assert_eq!(effective_threads(), 2);
        // Invalid values clamp to exactly 1 (never available_parallelism),
        // so a typo cannot silently change a determinism test's setting.
        std::env::set_var("OLIVE_THREADS", "0");
        assert_eq!(effective_threads(), 1, "0 must clamp to exactly 1");
        std::env::set_var("OLIVE_THREADS", "eight");
        assert_eq!(effective_threads(), 1, "garbage must clamp to exactly 1");
        std::env::remove_var("OLIVE_THREADS");
        // Override beats the env var.
        std::env::set_var("OLIVE_THREADS", "3");
        with_threads(6, || assert_eq!(effective_threads(), 6));
        std::env::remove_var("OLIVE_THREADS");
    }
}
