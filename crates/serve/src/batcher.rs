//! The micro-batching request queue.
//!
//! Connection threads [`BatchQueue::push`] one [`PendingRequest`] per
//! observe request; a single batch-worker thread pulls coalesced batches
//! with [`BatchQueue::next_batch`], which flushes on a **size-or-deadline
//! trigger**: as soon as `max_batch` requests are queued, or `max_wait`
//! after the *oldest* queued request arrived, whichever comes first. The
//! queue is bounded — a push against a full queue fails immediately with
//! [`PushError::Busy`] so backpressure reaches the client as a typed
//! `ServerBusy` response instead of unbounded buffering.
//!
//! A push wakes the worker only when the worker can act on it: when it
//! makes the queue non-empty (the worker may be in its untimed wait and
//! must arm the deadline) and when it brings the queue to `max_batch`
//! (the size trigger). Any other wake-up would find the batch still
//! short of `max_batch` and go back to sleep, at the price of a futex
//! call per request. A wake-up sent while the worker is busy flushing
//! is not needed either: `next_batch` checks the queue under the lock
//! before it waits.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One in-flight observe request: the decoded observation and the
/// reply handle the batch worker answers through. The queue is generic
/// over the handle so the server can thread its connection writer
/// through without the queue knowing anything about sockets.
pub(crate) struct PendingRequest<R> {
    /// Decoded observation features.
    pub observation: Vec<f64>,
    /// When the request entered the queue (latency accounting and the
    /// deadline trigger).
    pub enqueued: Instant,
    /// Where the batch worker delivers the chosen action.
    pub reply: R,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity — surface `ServerBusy` to the client.
    Busy,
    /// The queue is draining for shutdown — surface `ShuttingDown`.
    Closed,
}

struct Inner<R> {
    pending: VecDeque<PendingRequest<R>>,
    closed: bool,
}

/// Bounded multi-producer, single-consumer batching queue.
pub(crate) struct BatchQueue<R> {
    inner: Mutex<Inner<R>>,
    wakeup: Condvar,
    capacity: usize,
    max_batch: usize,
}

impl<R> BatchQueue<R> {
    /// A queue refusing pushes beyond `capacity` pending requests and
    /// handing them out in batches of at most `max_batch` (at least 1).
    pub fn new(capacity: usize, max_batch: usize) -> Self {
        BatchQueue {
            inner: Mutex::new(Inner {
                pending: VecDeque::new(),
                closed: false,
            }),
            wakeup: Condvar::new(),
            capacity,
            max_batch: max_batch.max(1),
        }
    }

    /// Enqueues one request, waking the batch worker when the queue
    /// turns non-empty or fills a batch.
    pub fn push(&self, request: PendingRequest<R>) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("batch queue poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.pending.len() >= self.capacity {
            return Err(PushError::Busy);
        }
        inner.pending.push_back(request);
        let depth = inner.pending.len();
        drop(inner);
        if depth == 1 || depth == self.max_batch {
            self.wakeup.notify_one();
        }
        Ok(())
    }

    /// Marks the queue closed: further pushes fail with
    /// [`PushError::Closed`], and once the worker has drained what is
    /// already queued, [`BatchQueue::next_batch`] returns `false`.
    pub fn close(&self) {
        self.inner.lock().expect("batch queue poisoned").closed = true;
        self.wakeup.notify_all();
    }

    /// Current number of queued requests.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .expect("batch queue poisoned")
            .pending
            .len()
    }

    /// Blocks until a batch is ready, then moves up to `max_batch`
    /// requests into `out` (cleared first). A batch becomes ready when
    /// `max_batch` requests are queued, or `max_wait` has elapsed since
    /// the oldest queued request arrived, or the queue is closed (the
    /// drain path flushes immediately). Returns `false` — with `out`
    /// empty — only when the queue is closed *and* fully drained.
    pub fn next_batch(&self, max_wait: Duration, out: &mut Vec<PendingRequest<R>>) -> bool {
        let max_batch = self.max_batch;
        out.clear();
        let mut inner = self.inner.lock().expect("batch queue poisoned");
        loop {
            if inner.pending.is_empty() {
                if inner.closed {
                    return false;
                }
                inner = self.wakeup.wait(inner).expect("batch queue poisoned");
                continue;
            }
            // The deadline anchors to the *oldest* request so a burst
            // that queued while the worker was busy flushes at once.
            let deadline = inner.pending.front().expect("nonempty").enqueued + max_wait;
            while inner.pending.len() < max_batch && !inner.closed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = self
                    .wakeup
                    .wait_timeout(inner, deadline - now)
                    .expect("batch queue poisoned");
                inner = guard;
                if timeout.timed_out() {
                    break;
                }
                if inner.pending.is_empty() {
                    break; // woken by close() after a racing drain
                }
            }
            if inner.pending.is_empty() {
                continue;
            }
            let take = inner.pending.len().min(max_batch);
            out.extend(inner.pending.drain(..take));
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::thread;

    fn request(
        tag: f64,
    ) -> (
        PendingRequest<std::sync::mpsc::Sender<u32>>,
        std::sync::mpsc::Receiver<u32>,
    ) {
        let (tx, rx) = channel();
        (
            PendingRequest {
                observation: vec![tag],
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn flushes_immediately_at_max_batch() {
        let q = BatchQueue::new(8, 3);
        for i in 0..3 {
            q.push(request(i as f64).0).unwrap();
        }
        let mut out = Vec::new();
        // max_wait far in the future: only the size trigger can flush
        // this fast, and it must hand over exactly max_batch in order.
        let start = Instant::now();
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert!(start.elapsed() < Duration::from_secs(5));
        let tags: Vec<f64> = out.iter().map(|p| p.observation[0]).collect();
        assert_eq!(tags, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn flushes_a_partial_batch_at_the_deadline() {
        let q = BatchQueue::new(8, 64);
        q.push(request(7.0).0).unwrap();
        let mut out = Vec::new();
        let start = Instant::now();
        assert!(q.next_batch(Duration::from_millis(20), &mut out));
        assert_eq!(out.len(), 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline flush took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn oversized_backlog_drains_in_max_batch_chunks() {
        let q = BatchQueue::new(16, 4);
        for i in 0..10 {
            q.push(request(i as f64).0).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.next_batch(Duration::from_millis(1), &mut out));
        assert_eq!(out.len(), 4);
        assert!(q.next_batch(Duration::from_millis(1), &mut out));
        assert_eq!(out.len(), 4);
        assert!(q.next_batch(Duration::from_millis(1), &mut out));
        assert_eq!(out.len(), 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let q = BatchQueue::new(2, 16);
        q.push(request(0.0).0).unwrap();
        q.push(request(1.0).0).unwrap();
        assert_eq!(q.push(request(2.0).0).unwrap_err(), PushError::Busy);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BatchQueue::new(8, 64);
        q.push(request(0.0).0).unwrap();
        q.push(request(1.0).0).unwrap();
        q.close();
        assert_eq!(q.push(request(2.0).0).unwrap_err(), PushError::Closed);
        let mut out = Vec::new();
        // Closed: the pending requests flush without waiting out the
        // deadline, then the queue reports drained.
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert_eq!(out.len(), 2);
        assert!(!q.next_batch(Duration::from_secs(60), &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn close_wakes_an_idle_worker() {
        let q = Arc::new(BatchQueue::<std::sync::mpsc::Sender<u32>>::new(4, 4));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                q.next_batch(Duration::from_secs(60), &mut out)
            })
        };
        thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(!worker.join().expect("worker panicked"));
    }

    #[test]
    fn wakeups_before_the_deadline_do_not_flush_early() {
        // Pushes that leave the size trigger unmet must not end the
        // deadline wait, whether they wake the worker or not (a
        // spurious wakeup looks the same). It flushes once, at the
        // deadline, with everything that arrived.
        let q = Arc::new(BatchQueue::<std::sync::mpsc::Sender<u32>>::new(8, 8));
        let max_wait = Duration::from_millis(150);
        q.push(request(0.0).0).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                let start = Instant::now();
                assert!(q.next_batch(max_wait, &mut out));
                (start.elapsed(), out.len())
            })
        };
        for i in 1..3 {
            thread::sleep(Duration::from_millis(30));
            q.push(request(i as f64).0).unwrap();
        }
        let (elapsed, got) = worker.join().expect("worker panicked");
        assert_eq!(got, 3, "early flush: woke with the size trigger unmet");
        assert!(
            elapsed >= Duration::from_millis(100),
            "flushed {elapsed:?} after the wait began, before the deadline"
        );
    }

    #[test]
    fn close_racing_a_deadline_wait_flushes_immediately() {
        // A worker parked in the deadline wait (one request queued,
        // deadline far off) must hand that request over as soon as
        // close() lands — the drain path cannot wait out max_wait.
        let q = Arc::new(BatchQueue::<std::sync::mpsc::Sender<u32>>::new(8, 8));
        q.push(request(9.0).0).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                let alive = q.next_batch(Duration::from_secs(60), &mut out);
                (alive, out.len())
            })
        };
        thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        q.close();
        let (alive, got) = worker.join().expect("worker panicked");
        assert!(alive, "the queued request must flush before the end");
        assert_eq!(got, 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "close() left the worker waiting out the deadline"
        );
        let mut out = Vec::new();
        assert!(!q.next_batch(Duration::from_secs(60), &mut out));
    }

    /// Runs `next_batch(max_wait)` on its own thread; the receiver
    /// yields how long the call took and how many requests it returned.
    fn spawn_worker(
        q: &Arc<BatchQueue<std::sync::mpsc::Sender<u32>>>,
        max_wait: Duration,
    ) -> std::sync::mpsc::Receiver<(Duration, usize)> {
        let (tx, rx) = channel();
        let q = Arc::clone(q);
        thread::spawn(move || {
            let mut out = Vec::new();
            let start = Instant::now();
            q.next_batch(max_wait, &mut out);
            let _ = tx.send((start.elapsed(), out.len()));
        });
        rx
    }

    #[test]
    fn the_push_that_fills_a_batch_wakes_a_blocked_worker() {
        // The worker waits out a 60 s deadline on a partial batch; the
        // pushes that leave it short of max_batch need not wake it, the
        // one that completes it must.
        let q = Arc::new(BatchQueue::new(8, 4));
        q.push(request(0.0).0).unwrap();
        let worker = spawn_worker(&q, Duration::from_secs(60));
        thread::sleep(Duration::from_millis(50));
        q.push(request(1.0).0).unwrap();
        q.push(request(2.0).0).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(request(3.0).0).unwrap())
        };
        pusher.join().expect("pusher panicked");
        let got = worker.recv_timeout(Duration::from_secs(5));
        q.close();
        let (_, len) = got.expect("the fourth push left the worker waiting");
        assert_eq!(len, 4);
    }

    #[test]
    fn the_first_push_wakes_an_idle_worker_which_flushes_at_the_deadline() {
        let q = Arc::new(BatchQueue::new(8, 4));
        let max_wait = Duration::from_millis(100);
        let worker = spawn_worker(&q, max_wait);
        thread::sleep(Duration::from_millis(50));
        let pushed = Instant::now();
        q.push(request(0.0).0).unwrap();
        let got = worker.recv_timeout(Duration::from_secs(5));
        let since_push = pushed.elapsed();
        q.close();
        let (_, len) = got.expect("the first push left the worker asleep");
        assert_eq!(len, 1);
        assert!(
            since_push >= max_wait,
            "flushed {since_push:?} after the push, before the deadline"
        );
    }

    #[test]
    fn a_queue_smaller_than_max_batch_flushes_at_the_deadline() {
        let q = Arc::new(BatchQueue::new(2, 4));
        let first = Instant::now();
        q.push(request(0.0).0).unwrap();
        q.push(request(1.0).0).unwrap();
        assert_eq!(q.push(request(2.0).0).unwrap_err(), PushError::Busy);
        let max_wait = Duration::from_millis(50);
        let got = spawn_worker(&q, max_wait).recv_timeout(Duration::from_secs(5));
        let since_first = first.elapsed();
        q.close();
        let (_, len) = got.expect("a full queue below max_batch never flushed");
        assert_eq!(len, 2);
        assert!(
            since_first >= max_wait,
            "flushed {since_first:?} after the first push, before the deadline"
        );
    }

    #[test]
    fn a_drain_that_leaves_a_full_batch_returns_it_at_once() {
        let q = BatchQueue::new(16, 4);
        for i in 0..9 {
            q.push(request(i as f64).0).unwrap();
        }
        let mut out = Vec::new();
        let start = Instant::now();
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert_eq!(out.len(), 4);
        // Five remain, more than max_batch: no push will wake the
        // worker again, so the next call must not wait at all.
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert_eq!(out.len(), 4);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn producer_and_consumer_hand_off_under_contention() {
        let q = Arc::new(BatchQueue::<std::sync::mpsc::Sender<u32>>::new(64, 7));
        let total = 200;
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Vec::new();
                let mut seen = 0usize;
                while q.next_batch(Duration::from_micros(200), &mut out) {
                    for p in &out {
                        let _ = p.reply.send(p.observation[0] as u32);
                    }
                    seen += out.len();
                }
                seen
            })
        };
        let mut receivers = Vec::new();
        for i in 0..total {
            loop {
                let (req, rx) = request(i as f64);
                match q.push(req) {
                    Ok(()) => {
                        receivers.push((i, rx));
                        break;
                    }
                    Err(PushError::Busy) => thread::sleep(Duration::from_micros(100)),
                    Err(PushError::Closed) => panic!("queue closed early"),
                }
            }
        }
        for (i, rx) in receivers {
            assert_eq!(rx.recv().expect("reply"), i as u32);
        }
        q.close();
        assert_eq!(consumer.join().expect("consumer panicked"), total);
    }
}
