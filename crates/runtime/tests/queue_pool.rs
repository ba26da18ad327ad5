//! The queue/pool composition contract: a bounded producer/consumer queue
//! ([`BoundedQueue`]) popped front first into batches that execute on the
//! [`Pool`]-backed [`par_map`] primitive. Pins down FIFO-order preservation
//! end to end and panic propagation out of batch execution, at 1 and 8
//! threads.

use olive_runtime::{par_map, with_threads, BoundedQueue};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;

/// Pops up to `max_batch` queued items, front first, without blocking.
fn pop_up_to<T>(queue: &BoundedQueue<T>, max_batch: usize) -> Vec<T> {
    std::iter::from_fn(|| queue.pop_if(|_| true))
        .take(max_batch)
        .collect()
}

/// Pushes `n` sequenced jobs from several producer threads (in a globally
/// agreed order via a handoff token), drains them in batches executed with
/// `par_map` at `threads`-way parallelism, and asserts the results come out
/// in exactly the order the jobs went in.
fn fifo_roundtrip(threads: usize, n: usize, max_batch: usize) {
    let queue: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(n));
    // Producers enqueue strictly in sequence (the queue itself is the only
    // ordering authority once items are inside).
    for i in 0..n as u64 {
        queue.try_push(i).unwrap();
    }
    queue.close();

    let mut results: Vec<u64> = Vec::with_capacity(n);
    while queue.wait() {
        let batch = pop_up_to(&queue, max_batch);
        assert!(!batch.is_empty() && batch.len() <= max_batch);
        // par_map returns results in input order regardless of which worker
        // computed what, so batch-level FIFO extends to result-level FIFO.
        let processed = with_threads(threads, || par_map(&batch, |&job| job * 10 + 1));
        results.extend(processed);
    }
    let expected: Vec<u64> = (0..n as u64).map(|i| i * 10 + 1).collect();
    assert_eq!(results, expected, "threads={threads} max_batch={max_batch}");
}

#[test]
fn fifo_order_is_preserved_at_one_thread() {
    fifo_roundtrip(1, 97, 8);
}

#[test]
fn fifo_order_is_preserved_at_eight_threads() {
    fifo_roundtrip(8, 97, 8);
}

#[test]
fn fifo_order_survives_batch_size_one_and_huge_batches() {
    fifo_roundtrip(8, 33, 1);
    fifo_roundtrip(8, 33, 1000);
}

/// Concurrent producers + a live consumer: every job is answered exactly
/// once, responses flow back over per-job channels (the serve pattern), and
/// each producer observes its own jobs answered correctly.
#[test]
fn concurrent_producers_all_get_answers() {
    for threads in [1usize, 8] {
        let queue: Arc<BoundedQueue<(u64, mpsc::Sender<u64>)>> = Arc::new(BoundedQueue::new(64));
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut served = 0usize;
                while queue.wait() {
                    let (jobs, senders): (Vec<u64>, Vec<mpsc::Sender<u64>>) =
                        pop_up_to(&queue, 8).into_iter().unzip();
                    let answers = with_threads(threads, || par_map(&jobs, |&x| x * x));
                    for (tx, answer) in senders.into_iter().zip(answers) {
                        tx.send(answer).unwrap();
                        served += 1;
                    }
                }
                served
            })
        };
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for k in 0..25u64 {
                        let job = p * 1000 + k;
                        let (tx, rx) = mpsc::channel();
                        // Spin on back-pressure: bounded queue, small test.
                        let mut item = (job, tx);
                        loop {
                            match queue.try_push(item) {
                                Ok(()) => break,
                                Err((_, back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        assert_eq!(rx.recv().unwrap(), job * job);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        queue.close();
        assert_eq!(consumer.join().unwrap(), 100);
    }
}

/// A set-but-invalid `OLIVE_THREADS` must be loud: `validate_thread_env`
/// (the daemon startup check) errors, and `effective_threads` clamps to
/// exactly 1 rather than silently falling through to
/// `available_parallelism` — a typo'd env cannot invalidate a serve
/// determinism test. One test owns every env mutation in this binary; the
/// other tests pin their thread counts via `with_threads`, which beats the
/// env by contract.
#[test]
fn invalid_olive_threads_is_an_explicit_error_not_a_silent_fallback() {
    for bad in ["0", "eight", "-2", "1.5", ""] {
        std::env::set_var("OLIVE_THREADS", bad);
        let err = olive_runtime::validate_thread_env()
            .expect_err(&format!("OLIVE_THREADS={bad:?} must fail validation"));
        assert!(err.contains("OLIVE_THREADS"), "{bad:?}: {err}");
        assert_eq!(
            olive_runtime::effective_threads(),
            1,
            "OLIVE_THREADS={bad:?} must clamp to exactly 1"
        );
    }
    for good in ["1", "8", "  4  "] {
        std::env::set_var("OLIVE_THREADS", good);
        assert!(olive_runtime::validate_thread_env().is_ok(), "{good:?}");
    }
    assert_eq!(
        olive_runtime::parse_thread_env(" 12 "),
        Ok(12),
        "surrounding whitespace is tolerated"
    );
    std::env::remove_var("OLIVE_THREADS");
    assert!(
        olive_runtime::validate_thread_env().is_ok(),
        "unset is fine"
    );
}

/// A panicking job inside a pool-executed batch must propagate to the thread
/// draining the queue — not vanish into a worker — and must not poison the
/// queue or the pool for subsequent batches.
#[test]
fn batch_panic_propagates_to_the_draining_thread() {
    for threads in [1usize, 8] {
        let queue: BoundedQueue<u64> = BoundedQueue::new(16);
        for i in 0..8u64 {
            queue.try_push(i).unwrap();
        }
        let batch = pop_up_to(&queue, 8);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(threads, || {
                par_map(&batch, |&job| {
                    assert!(job != 5, "poison job {job}");
                    job
                })
            })
        }));
        assert!(
            result.is_err(),
            "panic must reach the drain loop at threads={threads}"
        );
        // The queue and the global pool both survive: the next batch works.
        queue.try_push(42).unwrap();
        let next = pop_up_to(&queue, 8);
        let answers = with_threads(threads, || par_map(&next, |&x| x + 1));
        assert_eq!(answers, vec![43]);
    }
}
