//! The micro-batching request queue.
//!
//! A connection thread decodes every complete frame of one `read` and
//! hands its shard everything it admitted in one
//! [`BatchQueue::push_batch`]: one lock, one clock read and at most one
//! wake-up per read. A queued request is plain data — a [`Request`]
//! header, with its features in one flat `f64` row buffer — and the
//! connection's reply handle travels once per pushed [`Run`] of
//! requests, not once per request. A single batch-worker thread pulls
//! coalesced batches with [`BatchQueue::next_batch`], which flushes on a
//! **size-or-deadline trigger**: as soon as `max_batch` requests are
//! queued, or `max_wait` after the *oldest* queued request arrived,
//! whichever comes first. The queue is bounded — the part of a push
//! beyond capacity is handed back at once, so backpressure reaches the
//! client as a typed `ServerBusy` response instead of unbounded
//! buffering.
//!
//! A push wakes the worker only when the worker can act on it: when it
//! makes the queue non-empty (the worker may be in its untimed wait and
//! must arm the deadline) and when it carries the queue to `max_batch`
//! (the size trigger). Any other wake-up would find the batch still
//! short of `max_batch` and go back to sleep, at the price of a futex
//! call. A wake-up sent while the worker is busy flushing is not needed
//! either: `next_batch` checks the queue under the lock before it waits.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted observe request: the reply id, the tenant, and how
/// many features it has in the row buffer it travels with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request id, echoed in the reply.
    pub id: u64,
    /// Tenant the observation is addressed to.
    pub tenant: u32,
    /// Number of features.
    pub len: u32,
}

/// Consecutive requests from one push: they share its reply handle and
/// the instant they entered the queue. The queue is generic over the
/// handle so the server can thread its connection through without the
/// queue knowing anything about sockets.
#[derive(Debug, Clone)]
pub(crate) struct Run<R> {
    /// Number of requests in the run.
    pub len: usize,
    /// When the run entered the queue (latency accounting and the
    /// deadline trigger).
    pub enqueued: Instant,
    /// Where the batch worker delivers the run's actions.
    pub reply: R,
}

/// What [`BatchQueue::next_batch`] hands the worker: requests in arrival
/// order, their features back to back in `rows`, and the runs they came
/// in, whose lengths sum to `requests.len()`.
#[derive(Debug)]
pub(crate) struct Batch<R> {
    /// Request headers, oldest first.
    pub requests: Vec<Request>,
    /// Every request's features, in request order.
    pub rows: Vec<f64>,
    /// The runs covering `requests`, in order.
    pub runs: Vec<Run<R>>,
}

impl<R> Default for Batch<R> {
    fn default() -> Self {
        Batch {
            requests: Vec::new(),
            rows: Vec::new(),
            runs: Vec::new(),
        }
    }
}

/// Why (part of) a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity — surface `ServerBusy` to the client.
    Busy,
    /// The queue is draining for shutdown — surface `ShuttingDown`.
    Closed,
}

struct Inner<R> {
    requests: VecDeque<Request>,
    rows: VecDeque<f64>,
    runs: VecDeque<Run<R>>,
    closed: bool,
}

/// Bounded multi-producer, single-consumer batching queue.
pub(crate) struct BatchQueue<R> {
    inner: Mutex<Inner<R>>,
    wakeup: Condvar,
    capacity: usize,
    max_batch: usize,
    /// Wake-ups sent, so tests can count them.
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicUsize,
}

impl<R: Clone> BatchQueue<R> {
    /// A queue refusing pushes beyond `capacity` pending requests and
    /// handing them out in batches of at most `max_batch` (at least 1).
    pub fn new(capacity: usize, max_batch: usize) -> Self {
        BatchQueue {
            inner: Mutex::new(Inner {
                requests: VecDeque::new(),
                rows: VecDeque::new(),
                runs: VecDeque::new(),
                closed: false,
            }),
            wakeup: Condvar::new(),
            capacity,
            max_batch: max_batch.max(1),
            #[cfg(test)]
            wakes: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Enqueues `requests`, with their features `rows` in the same
    /// order, as one run answered through `reply` and stamped with one
    /// `Instant` under the lock. Wakes the batch worker at most once:
    /// when the push turns the queue non-empty or carries it to
    /// `max_batch`.
    ///
    /// On return `rows` is empty and `requests` holds, in order, the
    /// suffix the queue refused: the part beyond capacity
    /// ([`PushError::Busy`]), or everything once the queue is closed
    /// ([`PushError::Closed`]).
    pub fn push_batch(
        &self,
        requests: &mut Vec<Request>,
        rows: &mut Vec<f64>,
        reply: &R,
    ) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("batch queue poisoned");
        let before = inner.requests.len();
        let take = if inner.closed {
            0
        } else {
            requests.len().min(self.capacity.saturating_sub(before))
        };
        if take > 0 {
            let floats = requests[..take].iter().map(|r| r.len as usize).sum();
            inner.requests.extend(&requests[..take]);
            inner.rows.extend(&rows[..floats]);
            inner.runs.push_back(Run {
                len: take,
                enqueued: Instant::now(),
                reply: reply.clone(),
            });
        }
        let closed = inner.closed;
        drop(inner);
        let after = before + take;
        if take > 0 && (before == 0 || (before < self.max_batch && after >= self.max_batch)) {
            #[cfg(test)]
            self.wakes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.wakeup.notify_one();
        }
        requests.drain(..take);
        rows.clear();
        match (requests.is_empty(), closed) {
            (true, _) => Ok(()),
            (false, true) => Err(PushError::Closed),
            (false, false) => Err(PushError::Busy),
        }
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
            .requests
            .len()
    }

    /// Blocks until a batch is ready, then moves up to `max_batch`
    /// requests, their rows and their runs into `out` (cleared first;
    /// a run cut by the batch boundary leaves its rest queued under a
    /// clone of its reply handle). A batch becomes ready when
    /// `max_batch` requests are queued, or `max_wait` has elapsed since
    /// the oldest queued request arrived, or the queue is closed (the
    /// drain path flushes immediately). Returns `false` — with `out`
    /// empty — only when the queue is closed *and* fully drained.
    pub fn next_batch(&self, max_wait: Duration, out: &mut Batch<R>) -> bool {
        let max_batch = self.max_batch;
        out.requests.clear();
        out.rows.clear();
        out.runs.clear();
        let mut inner = self.inner.lock().expect("batch queue poisoned");
        loop {
            if inner.requests.is_empty() {
                if inner.closed {
                    return false;
                }
                inner = self.wakeup.wait(inner).expect("batch queue poisoned");
                continue;
            }
            // The deadline anchors to the *oldest* request so a burst
            // that queued while the worker was busy flushes at once.
            let deadline = inner
                .runs
                .front()
                .expect("queued requests have a run")
                .enqueued
                + max_wait;
            while inner.requests.len() < max_batch && !inner.closed {
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
                if inner.requests.is_empty() {
                    break; // woken by close() after a racing drain
                }
            }
            if inner.requests.is_empty() {
                continue;
            }
            let Inner {
                requests,
                rows,
                runs,
                ..
            } = &mut *inner;
            let take = requests.len().min(max_batch);
            out.requests.extend(requests.drain(..take));
            let floats: usize = out.requests.iter().map(|r| r.len as usize).sum();
            out.rows.extend(rows.drain(..floats));
            let mut left = take;
            while left > 0 {
                let run = runs.front_mut().expect("runs cover the queued requests");
                if run.len > left {
                    run.len -= left;
                    out.runs.push(Run {
                        len: left,
                        enqueued: run.enqueued,
                        reply: run.reply.clone(),
                    });
                    break;
                }
                left -= run.len;
                out.runs.push(runs.pop_front().expect("front run exists"));
            }
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use std::thread;

    /// Requests `tags`, each with one feature equal to its tag.
    fn requests(tags: Range<u64>) -> (Vec<Request>, Vec<f64>) {
        tags.map(|id| {
            (
                Request {
                    id,
                    tenant: 0,
                    len: 1,
                },
                id as f64,
            )
        })
        .unzip()
    }

    /// Pushes requests `tags` as one run answered through `reply`.
    fn push<R: Clone>(q: &BatchQueue<R>, tags: Range<u64>, reply: R) -> Result<(), PushError> {
        let (mut reqs, mut rows) = requests(tags);
        q.push_batch(&mut reqs, &mut rows, &reply)
    }

    /// The request ids of a batch, checked against its rows and runs.
    fn ids<R>(batch: &Batch<R>) -> Vec<u64> {
        let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
        let tags: Vec<f64> = ids.iter().map(|&id| id as f64).collect();
        assert_eq!(batch.rows, tags, "rows out of step with their requests");
        assert_eq!(batch.runs.iter().map(|r| r.len).sum::<usize>(), ids.len());
        ids
    }

    fn wakes<R>(q: &BatchQueue<R>) -> usize {
        q.wakes.load(Ordering::Relaxed)
    }

    #[test]
    fn flushes_immediately_at_max_batch() {
        let q = BatchQueue::new(8, 3);
        push(&q, 0..3, ()).unwrap();
        let mut out = Batch::default();
        // max_wait far in the future: only the size trigger can flush
        // this fast, and it must hand over exactly max_batch in order.
        let start = Instant::now();
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(ids(&out), vec![0, 1, 2]);
    }

    #[test]
    fn flushes_a_partial_batch_at_the_deadline() {
        let q = BatchQueue::new(8, 64);
        push(&q, 7..8, ()).unwrap();
        let mut out = Batch::default();
        let start = Instant::now();
        assert!(q.next_batch(Duration::from_millis(20), &mut out));
        assert_eq!(ids(&out), vec![7]);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline flush took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn oversized_backlog_drains_in_max_batch_chunks() {
        // Three runs of 3, 5 and 2: batches of 4 cut the first two, and
        // each cut run's rest keeps its reply handle.
        let q = BatchQueue::new(16, 4);
        push(&q, 0..3, 'a').unwrap();
        push(&q, 3..8, 'b').unwrap();
        push(&q, 8..10, 'c').unwrap();
        let mut out = Batch::default();
        let runs = |out: &Batch<char>| -> Vec<(usize, char)> {
            out.runs.iter().map(|r| (r.len, r.reply)).collect()
        };
        assert!(q.next_batch(Duration::from_millis(1), &mut out));
        assert_eq!(ids(&out), vec![0, 1, 2, 3]);
        assert_eq!(runs(&out), vec![(3, 'a'), (1, 'b')]);
        assert_eq!(q.depth(), 6);
        assert!(q.next_batch(Duration::from_millis(1), &mut out));
        assert_eq!(ids(&out), vec![4, 5, 6, 7]);
        assert_eq!(runs(&out), vec![(4, 'b')]);
        assert_eq!(q.depth(), 2);
        assert!(q.next_batch(Duration::from_millis(1), &mut out));
        assert_eq!(ids(&out), vec![8, 9]);
        assert_eq!(runs(&out), vec![(2, 'c')]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let q = BatchQueue::new(2, 16);
        push(&q, 0..2, ()).unwrap();
        assert_eq!(push(&q, 2..3, ()).unwrap_err(), PushError::Busy);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn the_capacity_suffix_comes_back_in_order_as_busy() {
        let q = BatchQueue::new(5, 16);
        push(&q, 0..1, ()).unwrap();
        let (mut reqs, mut rows) = requests(1..7);
        assert_eq!(
            q.push_batch(&mut reqs, &mut rows, &()),
            Err(PushError::Busy)
        );
        // Four fit; the last two come back, in order, and no rows stay.
        assert_eq!(reqs.iter().map(|r| r.id).collect::<Vec<_>>(), vec![5, 6]);
        assert!(rows.is_empty());
        let mut out = Batch::default();
        q.close();
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert_eq!(ids(&out), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_closed_queue_returns_everything_as_closed() {
        let q = BatchQueue::new(8, 4);
        q.close();
        let (mut reqs, mut rows) = requests(0..3);
        assert_eq!(
            q.push_batch(&mut reqs, &mut rows, &()),
            Err(PushError::Closed)
        );
        assert_eq!(reqs.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(rows.is_empty());
        assert_eq!(q.depth(), 0);
        assert_eq!(wakes(&q), 0);
        assert!(!q.next_batch(Duration::from_secs(60), &mut Batch::default()));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BatchQueue::new(8, 64);
        push(&q, 0..2, ()).unwrap();
        q.close();
        assert_eq!(push(&q, 2..3, ()).unwrap_err(), PushError::Closed);
        let mut out = Batch::default();
        // Closed: the pending requests flush without waiting out the
        // deadline, then the queue reports drained.
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert_eq!(ids(&out), vec![0, 1]);
        assert!(!q.next_batch(Duration::from_secs(60), &mut out));
        assert!(out.requests.is_empty() && out.rows.is_empty() && out.runs.is_empty());
    }

    #[test]
    fn close_wakes_an_idle_worker() {
        let q = Arc::new(BatchQueue::<()>::new(4, 4));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.next_batch(Duration::from_secs(60), &mut Batch::default()))
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
        let q = Arc::new(BatchQueue::new(8, 8));
        let max_wait = Duration::from_millis(150);
        push(&q, 0..1, ()).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Batch::default();
                let start = Instant::now();
                assert!(q.next_batch(max_wait, &mut out));
                (start.elapsed(), out.requests.len())
            })
        };
        for tags in [1..3, 3..5] {
            thread::sleep(Duration::from_millis(30));
            push(&q, tags, ()).unwrap();
        }
        let (elapsed, got) = worker.join().expect("worker panicked");
        assert_eq!(got, 5, "early flush: woke with the size trigger unmet");
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
        let q = Arc::new(BatchQueue::new(8, 8));
        push(&q, 9..10, ()).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Batch::default();
                let alive = q.next_batch(Duration::from_secs(60), &mut out);
                (alive, out.requests.len())
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
        assert!(!q.next_batch(Duration::from_secs(60), &mut Batch::default()));
    }

    /// Runs `next_batch(max_wait)` on its own thread; the receiver
    /// yields how long the call took and how many requests it returned.
    fn spawn_worker(q: &Arc<BatchQueue<()>>, max_wait: Duration) -> Receiver<(Duration, usize)> {
        let (tx, rx) = channel();
        let q = Arc::clone(q);
        thread::spawn(move || {
            let mut out = Batch::default();
            let start = Instant::now();
            q.next_batch(max_wait, &mut out);
            let _ = tx.send((start.elapsed(), out.requests.len()));
        });
        rx
    }

    #[test]
    fn the_push_that_fills_a_batch_wakes_a_blocked_worker() {
        // The worker waits out a 60 s deadline on a partial batch; the
        // pushes that leave it short of max_batch need not wake it, the
        // one that completes it must.
        let q = Arc::new(BatchQueue::new(8, 4));
        push(&q, 0..1, ()).unwrap();
        let worker = spawn_worker(&q, Duration::from_secs(60));
        thread::sleep(Duration::from_millis(50));
        push(&q, 1..2, ()).unwrap();
        push(&q, 2..3, ()).unwrap();
        assert_eq!(
            wakes(&q),
            1,
            "only the first push turned the queue non-empty"
        );
        let pusher = {
            let q = Arc::clone(&q);
            thread::spawn(move || push(&q, 3..4, ()).unwrap())
        };
        pusher.join().expect("pusher panicked");
        let got = worker.recv_timeout(Duration::from_secs(5));
        q.close();
        let (_, len) = got.expect("the fourth push left the worker waiting");
        assert_eq!(len, 4);
    }

    #[test]
    fn a_batch_that_crosses_max_batch_wakes_a_blocked_worker_once() {
        // One request parks the worker in a 60 s deadline wait; a single
        // push of five carries the queue from 1 past max_batch = 4. It
        // must wake the worker, and only once.
        let q = Arc::new(BatchQueue::new(16, 4));
        push(&q, 0..1, ()).unwrap();
        let worker = spawn_worker(&q, Duration::from_secs(60));
        thread::sleep(Duration::from_millis(50));
        push(&q, 1..6, ()).unwrap();
        let got = worker.recv_timeout(Duration::from_secs(5));
        assert_eq!(wakes(&q), 2, "one wake-up for each of the two pushes");
        q.close();
        let (_, len) = got.expect("the crossing push left the worker waiting");
        assert_eq!(len, 4);
        // A push into an empty queue that also fills a batch meets both
        // conditions and still wakes once.
        let q = BatchQueue::<()>::new(16, 4);
        push(&q, 0..9, ()).unwrap();
        assert_eq!(wakes(&q), 1);
    }

    #[test]
    fn the_first_push_wakes_an_idle_worker_which_flushes_at_the_deadline() {
        let q = Arc::new(BatchQueue::new(8, 4));
        let max_wait = Duration::from_millis(100);
        let worker = spawn_worker(&q, max_wait);
        thread::sleep(Duration::from_millis(50));
        let pushed = Instant::now();
        push(&q, 0..1, ()).unwrap();
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
    fn a_batch_into_an_empty_queue_arms_the_deadline() {
        // The worker sits in its untimed wait; a push of three, short of
        // max_batch, must wake it to arm the deadline, and it flushes
        // all three at that deadline, not before.
        let q = Arc::new(BatchQueue::new(8, 4));
        let max_wait = Duration::from_millis(100);
        let worker = spawn_worker(&q, max_wait);
        thread::sleep(Duration::from_millis(50));
        let pushed = Instant::now();
        push(&q, 0..3, ()).unwrap();
        assert_eq!(wakes(&q), 1);
        let got = worker.recv_timeout(Duration::from_secs(5));
        let since_push = pushed.elapsed();
        q.close();
        let (_, len) = got.expect("the push into an empty queue left the worker asleep");
        assert_eq!(len, 3);
        assert!(
            since_push >= max_wait,
            "flushed {since_push:?} after the push, before the deadline"
        );
    }

    #[test]
    fn a_queue_smaller_than_max_batch_flushes_at_the_deadline() {
        let q = Arc::new(BatchQueue::new(2, 4));
        let first = Instant::now();
        push(&q, 0..2, ()).unwrap();
        assert_eq!(push(&q, 2..3, ()).unwrap_err(), PushError::Busy);
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
        push(&q, 0..9, ()).unwrap();
        let mut out = Batch::default();
        let start = Instant::now();
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert_eq!(out.requests.len(), 4);
        assert_eq!(q.depth(), 5);
        // Five remain, more than max_batch: no push will wake the
        // worker again, so the next call must not wait at all.
        assert!(q.next_batch(Duration::from_secs(60), &mut out));
        assert_eq!(out.requests.len(), 4);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn producer_and_consumer_hand_off_under_contention() {
        // Each push is a run answered through its own channel, so every
        // run's reply handle must reach the worker with its requests.
        let q = Arc::new(BatchQueue::<Sender<u64>>::new(64, 7));
        let total = 200u64;
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut out = Batch::default();
                let mut seen = 0usize;
                while q.next_batch(Duration::from_micros(200), &mut out) {
                    let mut requests = out.requests.iter();
                    for run in &out.runs {
                        for r in requests.by_ref().take(run.len) {
                            let _ = run.reply.send(r.id);
                        }
                    }
                    seen += out.requests.len();
                }
                seen
            })
        };
        let mut receivers = Vec::new();
        let mut next = 0;
        while next < total {
            let end = (next + 1 + next % 5).min(total);
            let (tx, rx) = channel();
            let (mut reqs, mut rows) = requests(next..end);
            let refused = match q.push_batch(&mut reqs, &mut rows, &tx) {
                Ok(()) => 0,
                Err(PushError::Busy) => reqs.len() as u64,
                Err(PushError::Closed) => panic!("queue closed early"),
            };
            receivers.push((next..end - refused, rx));
            next = end - refused;
            if refused > 0 {
                thread::sleep(Duration::from_micros(100));
            }
        }
        for (ids, rx) in receivers {
            for id in ids {
                assert_eq!(rx.recv().expect("reply"), id);
            }
        }
        q.close();
        assert_eq!(consumer.join().expect("consumer panicked"), total as usize);
    }
}
