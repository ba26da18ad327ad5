//! The bounded containers of the serving layers: a multi-producer/
//! single-consumer queue — the one queue in front of `olive-serve`'s
//! continuous-batching decode scheduler — and [`FifoMap`], the keyed map
//! behind every cache.
//!
//! Producers [`try_push`](BoundedQueue::try_push) items; when the queue is at
//! capacity the push fails *immediately* instead of blocking, which is what
//! lets a server turn overload into back-pressure (HTTP 503) rather than
//! unbounded memory growth. The consumer takes items one at a time from the
//! front with [`pop_if`](BoundedQueue::pop_if), which pops only when a
//! predicate accepts the front item (the decode scheduler's "do its KV pages
//! fit?"), so an item the consumer cannot take yet keeps its place *and*
//! keeps counting against the capacity. An idle consumer blocks in
//! [`wait`](BoundedQueue::wait) until an item arrives.
//!
//! Items come out in exactly the order they went in (FIFO); the tests in
//! `crates/runtime/tests/queue_pool.rs` pin this down end to end together
//! with panic propagation through [`Pool`](crate::Pool)-backed execution of
//! what was popped.

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

/// A bounded FIFO queue with non-blocking producers and a consumer that pops
/// the front only when it can take it. See the [module docs](self) for the
/// protocol.
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

    /// Pops the front item if `accept` takes it; never blocks. Returns
    /// `None` when the queue is empty or `accept` refuses the front item,
    /// which then stays at the front. `accept` runs under the queue's lock,
    /// so it must be cheap.
    pub fn pop_if(&self, accept: impl FnOnce(&T) -> bool) -> Option<T> {
        let mut inner = lock_or_recover(&self.inner);
        if accept(inner.items.front()?) {
            inner.items.pop_front()
        } else {
            None
        }
    }

    /// Blocks until an item is queued or the queue is closed. Returns
    /// `false` once the queue is closed *and* drained — the consumer should
    /// exit.
    pub fn wait(&self) -> bool {
        let mut inner = lock_or_recover(&self.inner);
        while inner.items.is_empty() {
            if inner.closed {
                return false;
            }
            inner = wait_or_recover(&self.available, inner);
        }
        true
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

    /// Pops every queued item, front first.
    fn drain<T>(q: &BoundedQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop_if(|_| true)).collect()
    }

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        assert_eq!(drain(&q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn try_push_refuses_when_full_and_returns_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        let (err, item) = q.try_push("c").unwrap_err();
        assert_eq!(err, PushError::Full);
        assert_eq!(item, "c");
        // Popping frees capacity again.
        assert_eq!(q.pop_if(|_| true), Some("a"));
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
        assert!(q.wait(), "a closed queue with items left does not block");
        assert_eq!(drain(&q), vec![1]);
        // Closed and drained: the consumer-exit signal.
        assert!(!q.wait());
    }

    #[test]
    fn a_refused_front_keeps_its_place_and_its_capacity() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.pop_if(|_| panic!("no front to judge")), None::<u32>);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_if(|&front| front > 0), None, "front refused");
        assert_eq!(q.len(), 3, "the refused front is still queued");
        assert_eq!(q.try_push(9).unwrap_err().0, PushError::Full);
        // Only the front is ever judged: the items behind it wait too.
        assert_eq!(q.pop_if(|&front| front == 0), Some(0));
        assert_eq!(drain(&q), vec![1, 2]);
    }

    #[test]
    fn a_blocked_wait_returns_once_an_item_is_queued() {
        let q = Arc::new(BoundedQueue::new(8));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.wait()).unwrap())
        };
        // Give the consumer time to park on the empty queue; the assertion
        // holds whichever side gets there first.
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(7u32).unwrap();
        // A wait that misses the push fails, not hangs.
        let woke = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("wait kept blocking after an item was queued");
        assert!(woke);
        assert_eq!(drain(&q), vec![7], "waiting takes nothing");
        consumer.join().unwrap();
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait())
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(!consumer.join().unwrap());
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
