//! The run queue: one mutex-guarded `VecDeque` plus its length.
//!
//! Every worker owns one queue and the pool shares one more, the
//! injector. The length is stored under the lock and read without it, so
//! the emptiness checks that steer stealing and parking never lock. A
//! steal releases the victim's lock before taking its own queue's, so no
//! thread ever holds two queue locks and two workers stealing from each
//! other cannot deadlock.
//!
//! Public (and hidden from the docs) only so that `tests/chase_lev.rs`
//! can drive it; it is not part of the crate's supported API.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use parking_lot::Mutex;

/// Most tasks a sibling steal moves on top of the one it returns.
/// Stealers take half the victim's queue, capped here so one steal cannot
/// monopolise a long queue.
pub const MAX_BATCH: usize = 16;

/// A FIFO run queue.
pub struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    /// `items.len()` as of the last unlock; written only under the lock.
    /// `Relaxed` throughout: it publishes no data, since whoever acts on
    /// the items takes the lock, and the runtime's `SeqCst` fences order
    /// it against the parked bits.
    len: AtomicUsize,
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Queue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// True if the queue held nothing at its last unlock (a racy snapshot;
    /// the runtime orders it against its parked bits with `SeqCst` fences).
    pub fn is_empty(&self) -> bool {
        self.len.load(Relaxed) == 0
    }

    /// Appends `item` at the back.
    pub fn push(&self, item: T) {
        let mut items = self.items.lock();
        items.push_back(item);
        self.len.store(items.len(), Relaxed);
    }

    /// Takes the oldest item. Without the lock when the length reads 0,
    /// which is exact for the owner of a worker queue: only the owner
    /// pushes into it, so nobody else can raise the length.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut items = self.items.lock();
        let item = items.pop_front();
        self.len.store(items.len(), Relaxed);
        item
    }

    /// Sibling steal: takes the oldest item plus half the rest, at most
    /// [`MAX_BATCH`] more, which go to the back of `dest`.
    pub fn steal_half(&self, dest: &Self, batch: &mut VecDeque<T>) -> Option<T> {
        // 1 + min((len - 1) / 2, MAX_BATCH), and 0 for a queue another
        // stealer emptied between the length check and the lock.
        self.steal_into(dest, batch, |len| len.div_ceil(2).min(1 + MAX_BATCH))
    }

    /// Injector takeover: takes every item, oldest first; all but the
    /// oldest go to the back of `dest`.
    pub fn steal_all(&self, dest: &Self, batch: &mut VecDeque<T>) -> Option<T> {
        self.steal_into(dest, batch, |len| len)
    }

    /// Moves the `count(len)` oldest items out through `batch` (empty on
    /// entry and on return, kept for its capacity), returning the first.
    /// `count` may be handed a length of 0.
    fn steal_into(
        &self,
        dest: &Self,
        batch: &mut VecDeque<T>,
        count: impl FnOnce(usize) -> usize,
    ) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        {
            let mut items = self.items.lock();
            let taken = count(items.len()).min(items.len());
            batch.extend(items.drain(..taken));
            self.len.store(items.len(), Relaxed);
        }
        let first = batch.pop_front()?;
        if !batch.is_empty() {
            let mut items = dest.items.lock();
            items.append(batch);
            dest.len.store(items.len(), Relaxed);
        }
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn filled(values: std::ops::Range<usize>) -> Queue<usize> {
        let queue = Queue::new();
        values.for_each(|value| queue.push(value));
        queue
    }

    fn drain(queue: &Queue<usize>) -> Vec<usize> {
        std::iter::from_fn(|| queue.pop()).collect()
    }

    /// A worker's own pops come out in the order pushed.
    #[test]
    fn worker_fifo_order() {
        let worker = Queue::new();
        worker.push(1);
        worker.push(2);
        assert_eq!(worker.pop(), Some(1));
        assert_eq!(worker.pop(), Some(2));
        assert_eq!(worker.pop(), None);
        assert!(worker.is_empty());
    }

    /// A steal takes a worker's only task and leaves it empty; the next
    /// steal finds nothing.
    #[test]
    fn stealer_drains_worker() {
        let worker = Queue::new();
        let thief = Queue::new();
        let mut batch = VecDeque::new();
        worker.push(7);
        assert_eq!(worker.steal_half(&thief, &mut batch), Some(7));
        assert!(worker.is_empty() && thief.is_empty());
        assert_eq!(worker.steal_half(&thief, &mut batch), None);
        assert_eq!(worker.pop(), None);
    }

    /// An injector takeover returns the oldest task, empties the injector
    /// and hands the rest to the worker's queue in order.
    #[test]
    fn injector_batch_moves_into_worker() {
        let injector = filled(0..5);
        let worker = Queue::new();
        let mut batch = VecDeque::new();
        assert_eq!(injector.steal_all(&worker, &mut batch), Some(0));
        assert!(injector.is_empty());
        assert!(batch.is_empty());
        assert_eq!(worker.pop(), Some(1));
        assert_eq!(drain(&worker), [2, 3, 4]);
    }

    /// Two threads steal from each other's queue into their own, each
    /// steal locking its victim and then its own queue, as two searching
    /// workers may. Holding both locks at once would deadlock them; the
    /// watchdog turns that hang into a failure.
    #[test]
    fn mutual_steals_do_not_deadlock() {
        const ROUNDS: usize = 100_000;

        let queues = Arc::new([filled(0..64), filled(64..128)]);
        let (done, finished) = std::sync::mpsc::channel();
        let threads: Vec<_> = [(0, 1), (1, 0)]
            .into_iter()
            .map(|(victim, own)| {
                let (queues, done) = (queues.clone(), done.clone());
                std::thread::spawn(move || {
                    let mut batch = VecDeque::new();
                    for _ in 0..ROUNDS {
                        if let Some(first) = queues[victim].steal_half(&queues[own], &mut batch) {
                            queues[own].push(first);
                        }
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        for _ in &threads {
            finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("two queues stealing from each other deadlocked");
        }
        for thread in threads {
            thread.join().unwrap();
        }
        let mut values: Vec<_> = queues.iter().flat_map(drain).collect();
        values.sort_unstable();
        assert_eq!(values, (0..128).collect::<Vec<_>>());
    }
}
