//! Advance-reservation slot tables.
//!
//! The paper's Executor "supports advance reservation of resources": upon
//! arrival of a schedule the Resource Manager reserves the mapped slots, and
//! revokes replaced reservations when a rescheduled plan arrives (here the
//! planner clears and refills its tables on every pass). The same
//! data structure also implements HEFT's *insertion-based* policy: a job may
//! be placed into an idle gap between two reservations if the gap is long
//! enough and starts no earlier than the job's earliest start time.

use aheft_workflow::JobId;

/// How a scheduler searches a resource's timeline for a start slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotPolicy {
    /// Original HEFT \[19\]: consider idle gaps between existing
    /// reservations (capacity search). Reproduces Fig. 5(a)'s makespan 80.
    #[default]
    Insertion,
    /// The simplified policy of the paper's Fig. 3 pseudo-code: jobs only
    /// queue after the last reservation (`avail[j]`).
    EndOfQueue,
}

/// A single resource's reservation timeline, kept sorted by start time.
///
/// Stored as **structure-of-arrays** — parallel `starts`/`ends` vectors —
/// so the insertion-policy gap scan of [`SlotTable::earliest_start`], the
/// innermost loop of every scheduling pass, streams through two contiguous
/// `f64` arrays.
#[derive(Debug, Clone, Default)]
pub struct SlotTable {
    /// Reservation start times, ascending.
    starts: Vec<f64>,
    /// Reservation end times (`ends[k]` pairs with `starts[k]`; ascending
    /// too, since reservations never overlap).
    ends: Vec<f64>,
}

impl SlotTable {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every reservation but keep the allocations — the planner's
    /// per-resource scratch tables are cleared and refilled on every
    /// scheduling pass without reallocating.
    pub fn clear(&mut self) {
        self.starts.clear();
        self.ends.clear();
    }

    /// Earliest time at which a job of length `dur` can start, not earlier
    /// than `est`, under `policy`.
    // analyzer: hot
    pub fn earliest_start(&self, est: f64, dur: f64, policy: SlotPolicy) -> f64 {
        match policy {
            SlotPolicy::EndOfQueue => est.max(self.avail()),
            SlotPolicy::Insertion => {
                // Scan gaps: before the first slot, between consecutive
                // slots, and after the last one — one pass over the two
                // contiguous f64 arrays.
                let mut candidate = est;
                for (&start, &end) in self.starts.iter().zip(&self.ends) {
                    if candidate + dur <= start + 1e-9 {
                        // Fits in the gap ending at this slot's start.
                        return candidate;
                    }
                    candidate = candidate.max(end);
                }
                candidate
            }
        }
    }

    /// The earliest time after all current reservations (`avail[j]` of the
    /// paper's Eq. 2).
    pub fn avail(&self) -> f64 {
        self.ends.last().copied().unwrap_or(0.0)
    }

    /// Reserve `[start, start+dur)` for `job`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the interval overlaps an existing
    /// reservation — schedulers must only reserve slots returned by
    /// [`SlotTable::earliest_start`].
    // analyzer: hot
    pub fn reserve(&mut self, start: f64, dur: f64, job: JobId) {
        let end = start + dur;
        let pos = self.starts.partition_point(|&s| s < start);
        debug_assert!(
            (pos == 0 || self.ends[pos - 1] <= start + 1e-9)
                && (pos == self.starts.len() || end <= self.starts[pos] + 1e-9),
            "reservation [{start}, {end}) for {job} overlaps an existing slot"
        );
        self.starts.insert(pos, start);
        self.ends.insert(pos, end);
    }

    /// Number of reservations.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when no reservations exist.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_of_queue_appends() {
        let mut t = SlotTable::new();
        t.reserve(0.0, 10.0, JobId(0));
        assert_eq!(t.earliest_start(3.0, 5.0, SlotPolicy::EndOfQueue), 10.0);
        assert_eq!(t.avail(), 10.0);
    }

    #[test]
    fn insertion_finds_gap() {
        let mut t = SlotTable::new();
        t.reserve(0.0, 4.0, JobId(0));
        t.reserve(10.0, 5.0, JobId(1));
        // A 6-unit gap [4, 10): a 5-unit job with est 3 starts at 4.
        assert_eq!(t.earliest_start(3.0, 5.0, SlotPolicy::Insertion), 4.0);
        // A 7-unit job does not fit the gap: appended after 15.
        assert_eq!(t.earliest_start(3.0, 7.0, SlotPolicy::Insertion), 15.0);
        // est inside the gap shrinks it.
        assert_eq!(t.earliest_start(6.0, 5.0, SlotPolicy::Insertion), 15.0);
    }

    #[test]
    fn insertion_before_first_slot() {
        let mut t = SlotTable::new();
        t.reserve(8.0, 2.0, JobId(0));
        assert_eq!(t.earliest_start(0.0, 8.0, SlotPolicy::Insertion), 0.0);
        assert_eq!(t.earliest_start(1.0, 8.0, SlotPolicy::Insertion), 10.0);
    }

    #[test]
    fn reserve_keeps_sorted_and_revoke_works() {
        let mut t = SlotTable::new();
        t.reserve(10.0, 5.0, JobId(1));
        t.reserve(0.0, 4.0, JobId(0));
        t.reserve(4.0, 6.0, JobId(2));
        assert_eq!(t.len(), 3);
        // Out-of-order reservations land sorted: the last one ends at 15,
        // and the table is packed from 0 to 15 with no gap left.
        assert_eq!(t.avail(), 15.0);
        assert_eq!(t.earliest_start(0.0, 1.0, SlotPolicy::Insertion), 15.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.earliest_start(0.0, 1.0, SlotPolicy::Insertion), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlaps")]
    fn overlap_is_rejected_in_debug() {
        let mut t = SlotTable::new();
        t.reserve(0.0, 10.0, JobId(0));
        t.reserve(5.0, 2.0, JobId(1));
    }
}
