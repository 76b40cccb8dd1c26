//! Wall time per slice of virtual time, for the untraced run.
//!
//! `run_scenario` is one call, so the only way to see its progress from
//! outside is a hook it calls on its own: every [`Adversary`] hook
//! carries the virtual time of the event being handled. [`SliceClock`]
//! wraps the workload's adversary, forwards every hook unchanged and
//! reads the wall clock whenever the virtual clock first reaches the next
//! slice boundary. The DES is deterministic, so slice `i` holds the same
//! events in every repetition of a seed, and `run.py` can compare
//! repetitions slice by slice.

use drams_core::adversary::Adversary;
use drams_core::logent::LogEntry;
use drams_faas::des::SimTime;
use drams_faas::msg::{RequestEnvelope, ResponseEnvelope};
use drams_policy::policy::PolicySet;
use std::time::Instant;

/// An adversary decorator that marks the wall time at each slice
/// boundary of virtual time. The added work is one comparison per hook
/// call and one clock read per boundary.
pub struct SliceClock<A> {
    inner: A,
    slice: SimTime,
    next: SimTime,
    marks: Vec<Instant>,
}

impl<A> SliceClock<A> {
    /// Wraps `inner`, with boundaries every `slice` of virtual time.
    pub fn new(inner: A, slice: SimTime) -> Self {
        let slice = slice.max(1);
        SliceClock {
            inner,
            slice,
            next: slice,
            marks: Vec::new(),
        }
    }

    fn tick(&mut self, now: SimTime) {
        if now < self.next {
            return;
        }
        let mark = Instant::now();
        while now >= self.next {
            self.marks.push(mark);
            self.next += self.slice;
        }
    }

    /// Wall seconds of each slice of a run that started at `start` and
    /// ended at `end`; the last slice runs from the last boundary to the
    /// end. Boundaries crossed by one event give zero-length slices, so
    /// the count depends on the events alone.
    pub fn slices_s(&self, start: Instant, end: Instant) -> Vec<f64> {
        let mut edges = Vec::with_capacity(self.marks.len() + 2);
        edges.push(start);
        edges.extend(&self.marks);
        edges.push(end);
        edges
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect()
    }
}

impl<A: Adversary> Adversary for SliceClock<A> {
    fn tamper_request_in_transit(&mut self, envelope: &mut RequestEnvelope, now: SimTime) -> bool {
        self.tick(now);
        self.inner.tamper_request_in_transit(envelope, now)
    }

    fn tamper_response_in_transit(
        &mut self,
        envelope: &mut ResponseEnvelope,
        now: SimTime,
    ) -> bool {
        self.tick(now);
        self.inner.tamper_response_in_transit(envelope, now)
    }

    fn swap_policy(&mut self, authorised: &PolicySet) -> Option<PolicySet> {
        self.inner.swap_policy(authorised)
    }

    fn corrupt_pdp_decision(&mut self, envelope: &mut ResponseEnvelope, now: SimTime) -> bool {
        self.tick(now);
        self.inner.corrupt_pdp_decision(envelope, now)
    }

    fn flip_enforcement(&mut self, granted: &mut bool, now: SimTime) -> bool {
        self.tick(now);
        self.inner.flip_enforcement(granted, now)
    }

    fn drop_log(&mut self, entry: &LogEntry, now: SimTime) -> bool {
        self.tick(now);
        self.inner.drop_log(entry, now)
    }

    fn tamper_log(&mut self, entry: &mut LogEntry, now: SimTime) -> bool {
        self.tick(now);
        self.inner.tamper_log(entry, now)
    }

    fn replay_log(&mut self, entry: &mut LogEntry, now: SimTime) -> bool {
        self.tick(now);
        self.inner.replay_log(entry, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_core::adversary::NoAdversary;

    #[test]
    fn one_event_past_several_boundaries_gives_empty_slices() {
        let mut clock = SliceClock::new(NoAdversary, 10);
        let start = Instant::now();
        let mut granted = true;
        for now in [0, 5, 10, 12, 35] {
            assert!(!clock.flip_enforcement(&mut granted, now));
        }
        let slices = clock.slices_s(start, Instant::now());
        // Boundaries 10, 20 and 30: four slices, the third crossed at once.
        assert_eq!(slices.len(), 4);
        assert_eq!(slices[2], 0.0);
        assert!(slices.iter().all(|s| *s >= 0.0));
    }
}
