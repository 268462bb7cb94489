//! The stable-ordered event queue.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event: a message due at `time`.
///
/// Ordering (what the queue pops first) is `(time, priority, seq)`
/// ascending. `seq` is assigned by the queue at push time, so two events
/// with equal `(time, priority)` pop in the order they were pushed — FIFO
/// tie-breaking, the property differential tests rely on.
#[derive(Debug, Clone)]
pub struct QueuedEvent<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break rank among events at the same timestamp (lower first).
    pub priority: u64,
    /// Insertion sequence number (assigned by [`EventQueue::push`]).
    pub seq: u64,
    /// The message payload.
    pub msg: M,
}

/// The heap key: everything except the payload, ordered ascending via
/// `Reverse` inside a max-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    time: SimTime,
    priority: u64,
    seq: u64,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.priority.cmp(&other.priority))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Entry stored in the heap. Ordering ignores the payload.
#[derive(Debug)]
struct Entry<M> {
    key: Key,
    msg: M,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A binary-heap event queue with deterministic `(time, priority, seq)`
/// ordering.
///
/// # Example
///
/// ```
/// use ir_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_seconds(2.0), 0, "late");
/// q.push(SimTime::from_seconds(1.0), 5, "early-low-prio");
/// q.push(SimTime::from_seconds(1.0), 0, "early-high-prio");
/// assert_eq!(q.pop().unwrap().msg, "early-high-prio");
/// assert_eq!(q.pop().unwrap().msg, "early-low-prio");
/// assert_eq!(q.pop().unwrap().msg, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Reverse<Entry<M>>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `msg` at `time`. Among events at the same `time`, lower
    /// `priority` pops first; among equal priorities, insertion order
    /// (FIFO) wins. Returns the assigned sequence number.
    pub fn push(&mut self, time: SimTime, priority: u64, msg: M) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            key: Key {
                time,
                priority,
                seq,
            },
            msg,
        }));
        seq
    }

    /// Removes and returns the next event, or `None` when drained.
    pub fn pop(&mut self) -> Option<QueuedEvent<M>> {
        self.heap.pop().map(|Reverse(e)| QueuedEvent {
            time: e.key.time,
            priority: e.key.priority,
            seq: e.key.seq,
            msg: e.msg,
        })
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.key.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_seconds(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), 0, 'c');
        q.push(t(1.0), 0, 'a');
        q.push(t(2.0), 0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_orders_by_priority_then_fifo() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 2, "p2-first");
        q.push(t(1.0), 1, "p1-first");
        q.push(t(1.0), 2, "p2-second");
        q.push(t(1.0), 1, "p1-second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(
            order,
            vec!["p1-first", "p1-second", "p2-first", "p2-second"]
        );
    }

    #[test]
    fn same_cycle_insertion_order_is_stable_at_scale() {
        // 1000 events at the identical (time, priority) must drain in
        // exactly the insertion order — the stability property the
        // differential parity tests depend on.
        let mut q = EventQueue::new();
        for i in 0..1000u32 {
            q.push(t(0.25), 7, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(t(5.0), 0, ());
        q.push(t(2.0), 0, ());
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop().unwrap().time, t(2.0));
        assert_eq!(q.peek_time(), Some(t(5.0)));
    }

    #[test]
    fn len_and_drain_on_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(t(0.0), 0, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        // Draining an already-empty queue is a no-op, not a panic.
        assert!(q.pop().is_none());
        assert!(q.pop().is_none());
    }

    #[test]
    fn seq_numbers_are_monotonic_across_pops() {
        let mut q = EventQueue::new();
        let s0 = q.push(t(1.0), 0, ());
        q.pop();
        let s1 = q.push(t(1.0), 0, ());
        assert!(s1 > s0, "seq never resets, even after a drain");
    }
}
