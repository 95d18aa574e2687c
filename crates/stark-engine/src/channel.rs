//! Bounded MPSC channel with blocking backpressure.
//!
//! `std::sync::mpsc::sync_channel` exists, but gives no visibility into
//! queue depth and cannot time out on send. The streaming layer needs
//! both: a slow consumer must stall producers (backpressure, not
//! unbounded buffering), and sources want to observe occupancy to report
//! saturation. This is a small Condvar-based queue built for that.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a send did not enqueue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError<T> {
    /// Every receiver is gone; the value is returned to the caller.
    Disconnected(T),
    /// The queue stayed full past the timeout; the value is returned.
    Full(T),
}

/// Why a receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

struct Shared<T> {
    queue: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

/// Creates a bounded channel with room for `capacity` in-flight values.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        queue: Mutex::new(State {
            items: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity,
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

/// Producer half; clonable for multiple producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consumer half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.queue.lock().expect("channel poisoned").senders += 1;
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        state.senders -= 1;
        if state.senders == 0 {
            // wake the receiver so it can observe disconnection
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        state.receiver_alive = false;
        // wake all blocked senders so they can observe disconnection
        self.shared.not_full.notify_all();
    }
}

impl<T> Sender<T> {
    /// Blocks while the queue is full (backpressure), then enqueues.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_inner(value, None)
    }

    /// Like [`Sender::send`], giving up after `timeout`.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendError<T>> {
        self.send_inner(value, Some(timeout))
    }

    fn send_inner(&self, value: T, timeout: Option<Duration>) -> Result<(), SendError<T>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        loop {
            if !state.receiver_alive {
                return Err(SendError::Disconnected(value));
            }
            if state.items.len() < self.shared.capacity {
                state.items.push_back(value);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = match deadline {
                None => self.shared.not_full.wait(state).expect("channel poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(SendError::Full(value));
                    }
                    let (guard, result) = self
                        .shared
                        .not_full
                        .wait_timeout(state, deadline - now)
                        .expect("channel poisoned");
                    if result.timed_out()
                        && guard.items.len() >= self.shared.capacity
                        && guard.receiver_alive
                    {
                        return Err(SendError::Full(value));
                    }
                    guard
                }
            };
        }
    }

    /// Enqueues `value` without ever blocking: if the queue already
    /// holds `max_queued` or more values, the *oldest* queued values are
    /// displaced to make room and returned to the caller — the
    /// `DropOldest` load-shedding primitive (freshest data survives,
    /// and the producer keeps pace with real time instead of stalling).
    /// `max_queued` is clamped to `1..=capacity`.
    pub fn send_or_displace(&self, value: T, max_queued: usize) -> Result<Vec<T>, SendError<T>> {
        let bound = max_queued.clamp(1, self.shared.capacity);
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        if !state.receiver_alive {
            return Err(SendError::Disconnected(value));
        }
        let mut displaced = Vec::new();
        while state.items.len() >= bound {
            displaced.push(state.items.pop_front().expect("len >= bound >= 1"));
        }
        state.items.push_back(value);
        self.shared.not_empty.notify_one();
        Ok(displaced)
    }

    /// Values currently queued (racy; for saturation reporting only).
    pub fn len(&self) -> usize {
        self.shared.queue.lock().expect("channel poisoned").items.len()
    }

    /// Whether the queue is empty right now (racy, like [`Sender::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total in-flight capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value arrives or all senders disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        loop {
            if let Some(value) = state.items.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            state = self.shared.not_empty.wait(state).expect("channel poisoned");
        }
    }

    /// Drains and returns everything queued right now without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut state = self.shared.queue.lock().expect("channel poisoned");
        let drained: Vec<T> = state.items.drain(..).collect();
        if !drained.is_empty() {
            self.shared.not_full.notify_all();
        }
        drained
    }

    /// Values currently queued (racy; for saturation reporting only).
    pub fn len(&self) -> usize {
        self.shared.queue.lock().expect("channel poisoned").items.len()
    }

    /// Whether the queue is empty right now (racy, like [`Receiver::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn roundtrip_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn send_blocks_until_consumer_drains() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let handle = std::thread::spawn(move || {
            // blocks on the full queue until the main thread receives
            tx.send(2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        handle.join().unwrap();
    }

    #[test]
    fn send_timeout_reports_full() {
        let (tx, _rx) = bounded(1);
        tx.send(1u32).unwrap();
        match tx.send_timeout(2, Duration::from_millis(10)) {
            Err(SendError::Full(2)) => {}
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn recv_disconnected_after_senders_drop() {
        let (tx, rx) = bounded(2);
        tx.send(7u32).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn send_disconnected_after_receiver_drops() {
        let (tx, rx) = bounded(2);
        drop(rx);
        match tx.send(1u32) {
            Err(SendError::Disconnected(1)) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn blocked_sender_wakes_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let handle = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        match handle.join().unwrap() {
            Err(SendError::Disconnected(1)) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn multi_producer_backpressure() {
        let (tx, rx) = bounded(2);
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
            assert!(rx.len() <= 2);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 200);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 200, "duplicate or lost items");
    }

    #[test]
    fn blocked_receiver_wakes_on_sender_drop() {
        let (tx, rx) = bounded::<u32>(4);
        let handle = std::thread::spawn(move || rx.recv());
        // the receiver is parked in a blocking recv on an empty queue;
        // dropping the last sender must wake it with Disconnected, not
        // leave it blocked forever
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(handle.join().unwrap(), Err(RecvError::Disconnected));
    }

    #[test]
    fn occupancy_stays_bounded_under_contention() {
        let (tx, rx) = bounded(3);
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        assert!(tx.len() <= tx.capacity(), "occupancy above capacity");
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut received = 0usize;
        while rx.recv().is_ok() {
            received += 1;
            assert!(rx.len() <= 3, "queue depth exceeded capacity");
        }
        for h in producers {
            h.join().unwrap();
        }
        assert_eq!(received, 256);
    }

    #[test]
    fn multi_producer_stress_no_loss_no_duplicates() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..8u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        tx.send(p * 10_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        for h in producers {
            h.join().unwrap();
        }
        let mut got = consumer.join().unwrap();
        assert_eq!(got.len(), 4000);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 4000, "duplicate or lost items under stress");
    }

    #[test]
    fn send_or_displace_evicts_oldest_first() {
        let (tx, rx) = bounded(8);
        for i in 0..3 {
            assert_eq!(tx.send_or_displace(i, 3).unwrap(), vec![]);
        }
        // queue full at the shed bound: the oldest value makes room
        assert_eq!(tx.send_or_displace(3, 3).unwrap(), vec![0]);
        assert_eq!(tx.send_or_displace(4, 3).unwrap(), vec![1]);
        // tightening the bound displaces enough to get under it
        assert_eq!(tx.send_or_displace(5, 1).unwrap(), vec![2, 3, 4]);
        assert_eq!(rx.drain(), vec![5]);
    }

    #[test]
    fn send_or_displace_never_blocks_and_reports_disconnect() {
        let (tx, rx) = bounded(2);
        tx.send(1u32).unwrap();
        tx.send(2).unwrap();
        // a plain send would block here; displace returns immediately
        assert_eq!(tx.send_or_displace(3, 2).unwrap(), vec![1]);
        drop(rx);
        match tx.send_or_displace(4, 2) {
            Err(SendError::Disconnected(4)) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn drain_empties_queue() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3, 4]);
        assert!(rx.is_empty());
    }
}
