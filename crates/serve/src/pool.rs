//! A bounded MPMC job queue plus a fixed-size worker pool — the service's
//! backpressure core. Socket-free: jobs are any `Send` type, so the whole
//! layer is unit-testable with integers.
//!
//! The queue never blocks producers: [`BoundedQueue::try_push`] hands the
//! job back when the queue is full, and the caller decides what rejection
//! means (the accept loop answers 503). Memory use is therefore bounded
//! by `capacity` no matter how fast requests arrive.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity FIFO shared between the accept loop (producer) and the
/// workers (consumers).
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// A worker panic poisons the mutex; the queue state itself is always
    /// consistent (no invariants span the lock), so keep serving.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue without blocking. `Err` hands the item back when the queue
    /// is at capacity or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, blocking until an item arrives. `None` means the queue was
    /// closed and fully drained — the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop accepting jobs and wake every blocked worker. Already-queued
    /// jobs are still drained.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A fixed set of named threads draining one [`BoundedQueue`].
pub struct WorkerPool {
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `count` workers (at least one), each looping
    /// `pop → handler` until the queue closes and drains. A handler that
    /// panics loses its own job (a server job's connection drops with
    /// it), and its worker goes on to the next one.
    pub fn spawn<T, F>(count: usize, queue: Arc<BoundedQueue<T>>, handler: F) -> Self
    where
        T: Send + 'static,
        F: Fn(T) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        let workers = (0..count.max(1))
            .map(|k| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("cme-serve-worker-{k}"))
                    .spawn(move || {
                        while let Some(item) = queue.pop() {
                            let _ = catch_unwind(AssertUnwindSafe(|| handler(item)));
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { workers }
    }

    /// Wait for every worker to exit (the queue must be closed first, or
    /// this blocks forever).
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn try_push_rejects_when_full_and_returns_the_item() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()), "a pop frees a slot");
    }

    #[test]
    fn pop_is_fifo_and_close_drains_then_stops() {
        let q = BoundedQueue::new(8);
        for k in 0..5 {
            q.try_push(k).unwrap();
        }
        q.close();
        assert_eq!(q.try_push(99), Err(99), "closed queue rejects");
        assert_eq!((0..5).map(|_| q.pop().unwrap()).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop(), None, "drained + closed ends the worker loop");
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(BoundedQueue::<u64>::new(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn pool_processes_every_accepted_job() {
        let q = Arc::new(BoundedQueue::new(64));
        let sum = Arc::new(AtomicU64::new(0));
        let pool = {
            let sum = Arc::clone(&sum);
            WorkerPool::spawn(4, Arc::clone(&q), move |v: u64| {
                sum.fetch_add(v, Ordering::Relaxed);
            })
        };
        let mut accepted = 0u64;
        for v in 1..=50u64 {
            // Workers drain concurrently, so pushes may or may not be
            // rejected; only accepted jobs count.
            if q.try_push(v).is_ok() {
                accepted += v;
            }
        }
        q.close();
        pool.join();
        assert_eq!(sum.load(Ordering::Relaxed), accepted);
    }

    #[test]
    fn a_panicking_job_does_not_take_its_worker_down() {
        let q = Arc::new(BoundedQueue::new(8));
        let sum = Arc::new(AtomicU64::new(0));
        let pool = {
            let sum = Arc::clone(&sum);
            WorkerPool::spawn(1, Arc::clone(&q), move |v: u64| {
                assert_ne!(v, 0, "job 0 panics");
                sum.fetch_add(v, Ordering::Relaxed);
            })
        };
        for v in [0, 1, 2] {
            q.try_push(v).unwrap();
        }
        q.close();
        pool.join();
        assert_eq!(sum.load(Ordering::Relaxed), 3, "the one worker ran the jobs after the panic");
    }

    #[test]
    fn zero_sizes_are_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Err(2));
    }
}
