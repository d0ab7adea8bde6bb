//! Every retransmit and redial timer of a runtime in one
//! deadline-ordered queue, fired by whichever poller thread looks
//! next.
//!
//! Entries are keyed `(deadline µs, insertion number)`: the earliest
//! deadline is the first key — what an idle poller parks until — and
//! expiry splits the map at `now`. A deadline that moves *earlier* is
//! simply scheduled again; cancellation is lazy (the owner of a fired
//! key re-checks its own state and drops or re-arms a stale entry), so
//! nothing ever searches the queue.

use std::collections::BTreeMap;

/// A min-queue of keys over caller-supplied microsecond deadlines.
#[derive(Debug)]
pub(crate) struct Timers<K> {
    queue: BTreeMap<(u64, u64), K>,
    inserted: u64,
}

impl<K> Timers<K> {
    pub fn new() -> Timers<K> {
        Timers {
            queue: BTreeMap::new(),
            inserted: 0,
        }
    }

    /// Schedules `key` to fire at `deadline_us` (at once if past).
    pub fn schedule(&mut self, deadline_us: u64, key: K) {
        self.inserted += 1;
        self.queue.insert((deadline_us, self.inserted), key);
    }

    /// Removes and returns, earliest first, every entry whose deadline
    /// is at or before `now_us`, with the deadline it was armed at.
    pub fn expire(&mut self, now_us: u64) -> Vec<(u64, K)> {
        let later = self.queue.split_off(&(now_us.saturating_add(1), 0));
        let due = std::mem::replace(&mut self.queue, later);
        due.into_iter().map(|((at, _), key)| (at, key)).collect()
    }

    /// Earliest scheduled deadline, if any (for park timeouts).
    pub fn next_deadline(&self) -> Option<u64> {
        self.queue.keys().next().map(|&(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_and_after_the_deadline_only_earliest_first() {
        let mut t: Timers<u32> = Timers::new();
        t.schedule(100, 1);
        t.schedule(50, 2);
        assert!(t.expire(49).is_empty());
        assert_eq!(t.expire(60), vec![(50, 2)]);
        assert_eq!(t.next_deadline(), Some(100));
        t.schedule(100, 3);
        t.schedule(70, 4);
        assert_eq!(t.expire(100), vec![(70, 4), (100, 1), (100, 3)]);
        assert!(t.expire(u64::MAX).is_empty());
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn a_deadline_that_moves_earlier_is_honoured() {
        // An estimate that arrives after a timer was armed pulls the
        // deadline in: the earlier deadline is a second entry, and
        // the first one fizzles at its owner when it fires.
        let mut t: Timers<&str> = Timers::new();
        t.schedule(40_000, "link");
        t.schedule(1_200, "link");
        assert_eq!(t.next_deadline(), Some(1_200));
        assert_eq!(t.expire(1_200), vec![(1_200, "link")]);
        assert_eq!(t.next_deadline(), Some(40_000));
    }

    #[test]
    fn past_deadlines_surface_on_the_next_look() {
        let mut t: Timers<u32> = Timers::new();
        assert!(t.expire(500).is_empty());
        t.schedule(100, 7);
        assert_eq!(t.expire(501), vec![(100, 7)]);
    }
}
