//! Deterministic discrete-event queue.
//!
//! The Rust replacement for the SimJava core the paper ran its dynamic
//! simulations on: a priority queue of timestamped events with a strictly
//! monotone clock and a stable FIFO tie-break for simultaneous events
//! (insertion sequence), so runs are exactly reproducible.

use std::cmp::{Ordering, Reverse};
// analyzer::allow(nondeterministic-iteration): tombstone set is probed by
// sequence number only (insert/remove), never iterated.
use std::collections::{BinaryHeap, HashSet};

use crate::event::Event;
use crate::time::SimTime;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A cancellation token for one scheduled event, returned by
/// [`EventQueue::schedule`]. Each token identifies exactly one event
/// instance, so cancelling it can never affect a later re-scheduled event
/// of the same kind (e.g. the completion of a restarted job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

/// Future-event list with a logical clock.
///
/// Cancellation uses **lazy tombstones**: cancelling a pending event (a job
/// abort revoking the job's completion) is an O(1) set insertion, and the
/// dead event is discarded when it reaches the head of the heap — no
/// O(pending) drain-and-rebuild.
#[derive(Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    clock: SimTime,
    processed: u64,
    /// Sequence numbers of cancelled-but-still-enqueued events.
    /// Membership-only: pops check `remove`; event order comes
    /// from the heap, so the set's iteration order can reach nothing.
    // analyzer::allow(nondeterministic-iteration): membership-only tombstone set.
    cancelled: HashSet<u64>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            clock: SimTime::ZERO,
            processed: 0,
            // analyzer::allow(nondeterministic-iteration): membership-only tombstone set.
            cancelled: HashSet::new(),
        }
    }
}

impl EventQueue {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (non-cancelled) events. Saturating: a stale
    /// cancellation (contract violation, see [`EventQueue::cancel`]) must
    /// not turn this into an underflow panic far from the culprit.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len().saturating_sub(self.cancelled.len())
    }

    /// Schedule `event` at absolute time `at`. Returns a token that can
    /// cancel this (and only this) event instance.
    ///
    /// # Panics
    /// Panics if `at` lies in the past (`at < clock`): the simulation is
    /// causal.
    pub fn schedule(&mut self, at: SimTime, event: Event) -> EventToken {
        assert!(at >= self.clock, "cannot schedule event at {at} before clock {}", self.clock);
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { time: at, seq: self.seq, event }));
        EventToken(self.seq)
    }

    /// Schedule `event` after a relative `delay`.
    pub fn schedule_in(&mut self, delay: f64, event: Event) -> EventToken {
        let at = self.clock + SimTime::new(delay);
        self.schedule(at, event)
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    /// Tombstoned (cancelled) events are discarded transparently; they are
    /// neither returned nor counted as processed, and do not advance the
    /// clock.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        loop {
            let Reverse(s) = self.heap.pop()?;
            debug_assert!(s.time >= self.clock, "event queue went backwards");
            // Empty-set fast path: runs without aborts never pay for the
            // tombstone lookup.
            if !self.cancelled.is_empty() && self.cancelled.remove(&s.seq) {
                continue;
            }
            self.clock = s.time;
            self.processed += 1;
            return Some((s.time, s.event));
        }
    }

    /// Cancel the pending event identified by `token` in O(1) (e.g. a job
    /// abort revoking the job's completion event): the event is tombstoned
    /// and discarded when it surfaces.
    ///
    /// The token must refer to an event that is still pending — scheduling
    /// hands out each token exactly once, and the caller must not cancel a
    /// token whose event may already have popped.
    pub fn cancel(&mut self, token: EventToken) {
        let inserted = self.cancelled.insert(token.0);
        debug_assert!(inserted, "event token cancelled twice");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::JobId;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), Event::Wake);
        q.schedule(SimTime::new(1.0), Event::JobFinished { job: JobId(0) });
        q.schedule(SimTime::new(3.0), Event::JobFinished { job: JobId(1) });
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.value()).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(2.0), Event::JobFinished { job: JobId(7) });
        q.schedule(SimTime::new(2.0), Event::JobFinished { job: JobId(8) });
        let (_, e1) = q.pop().unwrap();
        let (_, e2) = q.pop().unwrap();
        assert_eq!(e1, Event::JobFinished { job: JobId(7) });
        assert_eq!(e2, Event::JobFinished { job: JobId(8) });
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(4.0, Event::Wake);
        assert_eq!(q.clock(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.clock(), SimTime::new(4.0));
        q.schedule_in(1.5, Event::Wake);
        assert_eq!(q.pop(), Some((SimTime::new(5.5), Event::Wake)));
    }

    #[test]
    #[should_panic(expected = "before clock")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(2.0), Event::Wake);
        q.pop();
        q.schedule(SimTime::new(1.0), Event::Wake);
    }

    #[test]
    fn cancelled_event_is_skipped() {
        let mut q = EventQueue::new();
        let tok = q.schedule(SimTime::new(1.0), Event::JobFinished { job: JobId(0) });
        q.schedule(SimTime::new(2.0), Event::JobFinished { job: JobId(1) });
        q.cancel(tok);
        assert_eq!(q.pending(), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::new(2.0));
        assert_eq!(e, Event::JobFinished { job: JobId(1) });
        assert!(q.pop().is_none());
        // Skipped events are not counted as processed.
        assert_eq!(q.processed(), 1);
    }

    #[test]
    fn tombstone_does_not_swallow_later_finish_of_same_job() {
        let mut q = EventQueue::new();
        // A job is aborted (its pending finish cancelled), restarted on a
        // faster resource, and the new finish lands *earlier* than the
        // cancelled one: the new event must survive, the stale one must die.
        let stale = q.schedule(SimTime::new(9.0), Event::JobFinished { job: JobId(0) });
        q.cancel(stale);
        q.schedule(SimTime::new(5.0), Event::JobFinished { job: JobId(0) });
        assert_eq!(q.pending(), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::new(5.0));
        assert_eq!(e, Event::JobFinished { job: JobId(0) });
        assert!(q.pop().is_none());
    }
}
