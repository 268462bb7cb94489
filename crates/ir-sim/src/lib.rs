//! Deterministic discrete-event clock and queue.
//!
//! The accelerator, serving and spot-fleet models all jump a simulated
//! clock straight to the next state change instead of ticking through
//! cycles that change nothing. Each runs its own loop over the two pieces
//! this crate provides:
//!
//! - [`SimTime`] — the simulated clock, a totally-ordered wrapper over
//!   seconds ([`f64::total_cmp`] ordering, so NaN can never wedge the
//!   queue);
//! - [`EventQueue`] — a binary-heap event queue with *stable tie-breaking*:
//!   events at the same timestamp pop in `(priority, insertion order)`
//!   order, which is what makes runs bit-for-bit reproducible.
//!
//! # Determinism contract
//!
//! The queue orders events by `(time, priority, seq)` where `seq` is a
//! monotonically increasing insertion counter. Two events pushed at the
//! same time with the same priority pop in push order (FIFO). There is no
//! wall-clock, thread, or hash-map iteration anywhere in the hot path.
//!
//! # Example
//!
//! A loop that hands work to whichever of two workers frees first; at
//! equal times the lower worker index (the priority) wins.
//!
//! ```
//! use ir_sim::{EventQueue, SimTime};
//!
//! let mut free = EventQueue::new();
//! for worker in 0..2u64 {
//!     free.push(SimTime::ZERO, worker, worker);
//! }
//! let mut log = Vec::new();
//! for job_s in [3e-6, 1e-6, 1e-6] {
//!     let next = free.pop().unwrap();
//!     log.push(next.msg);
//!     free.push(next.time + job_s, next.msg, next.msg);
//! }
//! assert_eq!(log, vec![0, 1, 1]);
//! assert_eq!(free.peek_time(), Some(SimTime::from_seconds(2e-6)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod time;

pub use queue::{EventQueue, QueuedEvent};
pub use time::SimTime;
