//! The bounded containers of the serving layers: a multi-producer/
//! single-consumer queue — the admission queue in front of `olive-serve`'s
//! continuous-batching decode scheduler — and [`FifoMap`], the keyed map
//! behind every cache.
//!
//! Producers [`try_push`](BoundedQueue::try_push) items; when the queue is at
//! capacity the push fails *immediately* instead of blocking, which is what
//! lets a server turn overload into back-pressure (HTTP 503) rather than
//! unbounded memory growth. A consumer drains items with
//! [`pop_batch`](BoundedQueue::pop_batch): it blocks until at least one item
//! is available, then takes up to `max_batch` of the items queued by then.
//! It never waits for more to arrive: a lone request starts at once, and
//! whatever queued behind it is taken with it.
//!
//! Items come out in exactly the order they went in (FIFO), so a consumer
//! that processes batches with order-preserving primitives such as
//! [`par_map`](crate::par_map) observes global FIFO order end to end; the
//! tests in `crates/runtime/tests/queue_pool.rs` pin this down together with
//! panic propagation through [`Pool`](crate::Pool)-backed batch execution.

use crate::sync::{lock_or_recover, wait_or_recover};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue already holds `capacity` items — shed load and retry later.
    Full,
    /// The queue was [`close`](BoundedQueue::close)d; no more items are
    /// accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue is full"),
            PushError::Closed => write!(f, "queue is closed"),
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue with non-blocking producers and a batch-draining
/// consumer. See the [module docs](self) for the protocol.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled whenever an item arrives or the queue closes.
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy by nature; for stats/back-pressure
    /// reporting only).
    pub fn len(&self) -> usize {
        lock_or_recover(&self.inner).items.len()
    }

    /// True when no items are queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` unless the queue is full or closed; never blocks.
    ///
    /// # Errors
    ///
    /// Returns the item back along with the reason so the caller can shed
    /// load (e.g. answer 503) without losing the request it was holding.
    pub fn try_push(&self, item: T) -> Result<(), (PushError, T)> {
        let mut inner = lock_or_recover(&self.inner);
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        if inner.items.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is available (or the queue closes),
    /// then takes up to `max_batch` of the items queued by then, without
    /// waiting for more.
    ///
    /// Returns the batch in FIFO order; an empty vector means the queue is
    /// closed *and* drained — the consumer should exit.
    pub fn pop_batch(&self, max_batch: usize) -> Vec<T> {
        let mut inner = lock_or_recover(&self.inner);
        while inner.items.is_empty() {
            if inner.closed {
                return Vec::new();
            }
            inner = wait_or_recover(&self.available, inner);
        }
        let take = max_batch.max(1).min(inner.items.len());
        inner.items.drain(..take).collect()
    }

    /// Collects up to `max_batch` items that are already queued, without
    /// blocking. Returns an empty vector when nothing is queued *or* the
    /// queue is closed-and-drained — a non-blocking consumer distinguishes
    /// the two via [`is_closed`](Self::is_closed).
    ///
    /// This is the polling counterpart of [`pop_batch`](Self::pop_batch)
    /// for consumers that have other work to do between drains (e.g. a
    /// decode scheduler admitting new streams between ticks).
    pub fn try_pop_batch(&self, max_batch: usize) -> Vec<T> {
        let max_batch = max_batch.max(1);
        let mut inner = lock_or_recover(&self.inner);
        let take = max_batch.min(inner.items.len());
        inner.items.drain(..take).collect()
    }

    /// Closes the queue: pending items remain poppable, new pushes fail with
    /// [`PushError::Closed`], and blocked consumers wake up.
    pub fn close(&self) {
        lock_or_recover(&self.inner).closed = true;
        self.available.notify_all();
    }

    /// True once [`close`](BoundedQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        lock_or_recover(&self.inner).closed
    }
}

/// A bounded map that evicts in insertion order, oldest first: the simplest
/// eviction policy whose behaviour is easy to reason about under concurrent
/// fill. It is the one container behind `olive-serve`'s preparation and
/// response caches and each preparation's quantize-once students.
///
/// Overwriting a key keeps its place in the eviction order. The map is not
/// synchronised; callers share it behind a mutex.
#[derive(Debug)]
pub struct FifoMap<V> {
    entries: BTreeMap<String, V>,
    order: VecDeque<String>,
    capacity: usize,
}

impl<V: Clone> FifoMap<V> {
    /// An empty map holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        FifoMap {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// A clone of the value under `key`, if it is resident.
    pub fn get(&self, key: &str) -> Option<V> {
        self.entries.get(key).cloned()
    }

    /// Inserts `value` under `key`, evicting the oldest entries first when
    /// a new key would exceed the capacity.
    pub fn insert(&mut self, key: String, value: V) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = value;
            return;
        }
        while self.order.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, value);
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        let batch = q.pop_batch(10);
        assert_eq!(batch, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn try_push_refuses_when_full_and_returns_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        let (err, item) = q.try_push("c").unwrap_err();
        assert_eq!(err, PushError::Full);
        assert_eq!(item, "c");
        // Draining frees capacity again.
        assert_eq!(q.pop_batch(1), vec!["a"]);
        q.try_push("c").unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_pushes_but_drains_pending_items() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(q.is_closed());
        let (err, _) = q.try_push(2).unwrap_err();
        assert_eq!(err, PushError::Closed);
        assert_eq!(q.pop_batch(8), vec![1]);
        // Closed and drained: the consumer-exit signal.
        assert!(q.pop_batch(8).is_empty());
    }

    #[test]
    fn pop_batch_caps_at_max_batch() {
        let q = BoundedQueue::new(16);
        for i in 0..9 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(4), vec![0, 1, 2, 3]);
        assert_eq!(q.pop_batch(4), vec![4, 5, 6, 7]);
        assert_eq!(q.pop_batch(4), vec![8]);
    }

    #[test]
    fn try_pop_batch_never_blocks_and_preserves_fifo() {
        let q = BoundedQueue::new(8);
        assert!(q.try_pop_batch(4).is_empty(), "empty queue drains to empty");
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_pop_batch(3), vec![0, 1, 2]);
        assert_eq!(q.try_pop_batch(3), vec![3, 4]);
        assert!(q.try_pop_batch(3).is_empty());
        // Closed queues keep draining pending items non-blockingly too.
        q.try_push(9).unwrap();
        q.close();
        assert_eq!(q.try_pop_batch(3), vec![9]);
        assert!(q.try_pop_batch(3).is_empty() && q.is_closed());
    }

    #[test]
    fn blocked_pop_batch_returns_a_lone_item_without_waiting_for_more() {
        let q = Arc::new(BoundedQueue::new(8));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.pop_batch(8)).unwrap())
        };
        // Give the consumer time to park on the empty queue; the assertion
        // holds whichever side gets there first.
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(7u32).unwrap();
        // Nothing more arrives: the batch must come back with the one item
        // instead of waiting for `max_batch`, and a wait fails, not hangs.
        let batch = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("pop_batch kept waiting after an item was queued");
        assert_eq!(batch, vec![7]);
        consumer.join().unwrap();
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(consumer.join().unwrap().is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2).unwrap_err().0, PushError::Full);
    }

    #[test]
    fn fifo_map_evicts_oldest_first() {
        let mut map = FifoMap::new(2);
        assert!(map.is_empty());
        map.insert("a".into(), 1);
        map.insert("b".into(), 2);
        map.insert("a".into(), 10); // overwrite, no eviction
        assert_eq!(map.len(), 2);
        map.insert("c".into(), 3); // evicts "a" (oldest insertion)
        assert_eq!(map.get("a"), None);
        assert_eq!(map.get("b"), Some(2));
        assert_eq!(map.get("c"), Some(3));
        assert_eq!(map.len(), 2);
    }
}
