//! The calendar event queue: an O(1)-amortized priority queue for
//! discrete-event timestamps, and the engine's only event queue.
//!
//! A calendar queue (Brown, CACM 1988) hashes each event into a "day"
//! bucket by `floor(time / width) % buckets`, like appointments written
//! into a wall calendar. Popping sweeps the calendar forward one day at a
//! time, returning the earliest `(time, seq)` entry of the current day;
//! one full lap without a hit falls back to a direct scan (the "search
//! for the next event in any year" case). With the bucket count and
//! width adapted to the live population, both `schedule` and `pop` are
//! amortized O(1) — against O(log n) heap sifts whose cache misses
//! dominate once millions of events are resident.
//!
//! Each bucket is itself a small min-heap on `(time, seq)`. A well-tuned
//! calendar keeps a handful of entries per day, where that costs the same
//! as a scan; but when many entries share one day — thousands of
//! processes all starting at t = 0, or a width tuned while every entry
//! sat at one instant — a bucket degrades to a binary heap, O(log n) per
//! operation, instead of a linear scan per pop.
//!
//! Day numbers are computed once per entry and stored as exact integers,
//! so the sweep compares `u64`s rather than accumulating floating-point
//! bucket boundaries; because `t / width` is monotone in `t`, day order
//! can never contradict time order, which keeps the pop order exact even
//! where the division rounds.
//!
//! Ordering contract (the engine's determinism anchor): entries pop in
//! ascending `(time, seq)` order among the entries present, where `seq`
//! is the caller-supplied scheduling sequence number. Two entries never
//! share a `seq`, so the order is total and independent of insertion
//! interleaving, bucket layout, or resize history.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Largest quotient `time / width` whose floor is exactly representable;
/// entries beyond it live in the overflow list (found by direct search).
const MAX_EXACT_DAY: f64 = 9_007_199_254_740_992.0; // 2^53

/// One queued entry.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: f64,
    seq: u64,
    /// `floor(time / width)` at the current width — recomputed on resize.
    day: u64,
    payload: T,
}

/// Heap order: the *smallest* `(time, seq)` is the greatest entry, so a
/// `BinaryHeap` (a max-heap) pops it first. Times are finite (`SimTime`
/// enforces it), and `seq` is unique among live entries, so the order is
/// total.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

/// Where `locate` found the next entry.
enum Loc {
    /// The top of this bucket's heap.
    Bucket(usize),
    Overflow(usize),
}

/// A calendar queue over `(SimTime, seq)` keys.
///
/// `seq` is supplied by the caller and must be unique per live entry; it
/// breaks ties among equal timestamps deterministically (FIFO in
/// scheduling order when the caller hands out ascending sequence
/// numbers).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<BinaryHeap<Entry<T>>>,
    /// Entries whose day number is not exactly representable.
    overflow: Vec<Entry<T>>,
    /// Bucket width in virtual seconds (one calendar "day").
    width: f64,
    len: usize,
    /// The day the pop sweep is currently inspecting.
    cur_day: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Smallest calendar size kept through shrinks.
    const MIN_BUCKETS: usize = 16;

    /// An empty queue with a small initial calendar; the calendar grows,
    /// shrinks, and re-tunes its bucket width as the population changes.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..Self::MIN_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            overflow: Vec::new(),
            width: 1.0,
            len: 0,
            cur_day: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The day number of `t` at the current width, if exactly
    /// representable.
    fn day_of(&self, t: f64) -> Option<u64> {
        let q = (t / self.width).floor();
        (q < MAX_EXACT_DAY).then_some(q as u64)
    }

    /// Inserts an entry. `seq` must be unique among live entries; equal
    /// times pop in ascending `seq` order.
    pub fn schedule(&mut self, time: SimTime, seq: u64, payload: T) {
        let t = time.as_secs_f64();
        match self.day_of(t) {
            Some(day) => {
                // Sweep invariant: no live entry's day precedes `cur_day`.
                // Rewind for entries behind the sweep, and align a
                // previously-empty calendar to its first entry so the
                // sweep does not crawl forward from day zero.
                if self.len == 0 || day < self.cur_day {
                    self.cur_day = day;
                }
                let nb = self.buckets.len() as u64;
                let idx = (day % nb) as usize;
                self.buckets[idx].push(Entry {
                    time: t,
                    seq,
                    day,
                    payload,
                });
            }
            None => self.overflow.push(Entry {
                time: t,
                seq,
                day: u64::MAX,
                payload,
            }),
        }
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Removes the live entry carrying `seq`, if any. Linear in the
    /// population — cancellation is for correctness (stale timeouts,
    /// model-based tests), not for hot paths.
    pub fn cancel(&mut self, seq: u64) -> Option<(SimTime, T)> {
        let found = if let Some(i) = self.overflow.iter().position(|e| e.seq == seq) {
            self.overflow.swap_remove(i)
        } else {
            let heap = self
                .buckets
                .iter_mut()
                .find(|b| b.iter().any(|e| e.seq == seq))?;
            let mut entries = std::mem::take(heap).into_vec();
            let i = entries
                .iter()
                .position(|e| e.seq == seq)
                .expect("the bucket holds the entry");
            let e = entries.swap_remove(i);
            *heap = BinaryHeap::from(entries);
            e
        };
        self.len -= 1;
        Some((SimTime::from_secs_f64(found.time), found.payload))
    }

    /// Removes and returns the earliest entry by `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let loc = self.locate()?;
        let e = match loc {
            Loc::Bucket(b) => self.buckets[b].pop().expect("located bucket is non-empty"),
            Loc::Overflow(i) => self.overflow.swap_remove(i),
        };
        self.len -= 1;
        if self.len < self.buckets.len() / 8 && self.buckets.len() > Self::MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some((SimTime::from_secs_f64(e.time), e.seq, e.payload))
    }

    /// Finds the earliest entry, advancing the sweep to its day.
    ///
    /// Sweeps at most one full calendar lap from the current day; a lap
    /// without a hit (entries far in the future, or in the overflow list)
    /// falls back to a direct scan of everything, then re-aligns the
    /// sweep so neighbours of the found entry are cheap again.
    fn locate(&mut self) -> Option<Loc> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let mut day = self.cur_day;
        for _ in 0..nb {
            let bi = (day % nb) as usize;
            // The bucket's earliest entry has its smallest day (day is
            // monotone in time): if that one is not due, none is.
            if self.buckets[bi].peek().is_some_and(|e| e.day <= day) {
                self.cur_day = day;
                return Some(Loc::Bucket(bi));
            }
            match day.checked_add(1) {
                Some(d) => day = d,
                None => break,
            }
        }
        // Direct search: global minimum over every bucket and the overflow
        // list, then re-align the sweep onto its day.
        let mut best: Option<(f64, u64, u64, Loc)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(e) = bucket.peek() {
                if best
                    .as_ref()
                    .is_none_or(|(bt, bs, _, _)| (e.time, e.seq) < (*bt, *bs))
                {
                    best = Some((e.time, e.seq, e.day, Loc::Bucket(b)));
                }
            }
        }
        for (i, e) in self.overflow.iter().enumerate() {
            if best
                .as_ref()
                .is_none_or(|(bt, bs, _, _)| (e.time, e.seq) < (*bt, *bs))
            {
                best = Some((e.time, e.seq, e.day, Loc::Overflow(i)));
            }
        }
        let (_, _, day, loc) = best.expect("len > 0 implies an entry exists");
        if day != u64::MAX {
            self.cur_day = day;
        }
        Some(loc)
    }

    /// Rebuilds the calendar with `new_buckets` buckets and a width
    /// re-tuned to the live population (mean inter-event gap, padded so a
    /// day holds a handful of events). Deterministic: a pure function of
    /// the queue's contents.
    fn resize(&mut self, new_buckets: usize) {
        let new_buckets = new_buckets.max(Self::MIN_BUCKETS);
        let mut entries: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.extend(b.drain());
        }
        entries.append(&mut self.overflow);

        if entries.len() >= 2 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in &entries {
                lo = lo.min(e.time);
                hi = hi.max(e.time);
            }
            let span = hi - lo;
            if span > 0.0 {
                // ~3 events per day on average keeps bucket scans short
                // without the sweep crossing long runs of empty days.
                self.width = (span / entries.len() as f64 * 3.0).max(1e-18);
            }
        }

        self.buckets = (0..new_buckets).map(|_| BinaryHeap::new()).collect();
        self.cur_day = u64::MAX;
        for e in &mut entries {
            e.day = self.day_of(e.time).unwrap_or(u64::MAX);
            if e.day < self.cur_day {
                self.cur_day = e.day;
            }
        }
        if self.cur_day == u64::MAX {
            self.cur_day = 0;
        }
        for e in entries {
            if e.day == u64::MAX {
                self.overflow.push(e);
            } else {
                let idx = (e.day % new_buckets as u64) as usize;
                self.buckets[idx].push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.schedule(t(2.0), 0, "c");
        q.schedule(t(1.0), 1, "a");
        q.schedule(t(1.0), 2, "b");
        q.schedule(t(0.5), 3, "first");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("first"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("c"));
        assert_eq!(q.pop().map(|(_, _, p)| p), None);
    }

    #[test]
    fn interleaved_schedule_pop_stays_sorted() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u64>, s: f64| {
            q.schedule(t(s), seq, seq);
            seq += 1;
        };
        for i in 0..100 {
            push(&mut q, (i * 7 % 13) as f64);
        }
        let mut last = (f64::NEG_INFINITY, 0u64);
        for _ in 0..50 {
            let (time, s, _) = q.pop().unwrap();
            assert!((time.as_secs_f64(), s) > last);
            last = (time.as_secs_f64(), s);
        }
        for i in 0..100 {
            push(&mut q, 20.0 + (i * 11 % 17) as f64);
        }
        let mut prev = last;
        while let Some((time, s, _)) = q.pop() {
            assert!((time.as_secs_f64(), s) > prev, "order violated");
            prev = (time.as_secs_f64(), s);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn survives_growth_and_shrink() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u64 {
            q.schedule(t(i as f64 * 1e-3), i, i);
        }
        assert!(q.buckets.len() > CalendarQueue::<u64>::MIN_BUCKETS);
        for i in 0..10_000u64 {
            let (_, s, p) = q.pop().unwrap();
            assert_eq!(s, i);
            assert_eq!(p, i);
        }
        assert_eq!(q.buckets.len(), CalendarQueue::<u64>::MIN_BUCKETS);
    }

    #[test]
    fn far_future_jump_uses_direct_search() {
        let mut q = CalendarQueue::new();
        q.schedule(t(1e-6), 0, "near");
        q.schedule(t(1e12), 1, "far");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("near"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("far"));
    }

    #[test]
    fn huge_quotients_use_the_overflow_list() {
        let mut q = CalendarQueue::new();
        // A dense nanosecond cluster tunes the width tiny on resize; the
        // far-out entry's day number then exceeds 2^53 and must take the
        // overflow path while preserving global order.
        for i in 0..100u64 {
            q.schedule(t(1e-9 * i as f64), i, i);
        }
        q.schedule(t(1e9), 100, 100);
        let mut prev: Option<(SimTime, u64)> = None;
        let mut count = 0;
        while let Some((time, s, _)) = q.pop() {
            if let Some(p) = prev {
                assert!((time, s) > p, "order violated at seq {s}");
            }
            prev = Some((time, s));
            count += 1;
        }
        assert_eq!(count, 101);
    }

    #[test]
    fn equal_times_are_fifo_across_resizes() {
        let mut q = CalendarQueue::new();
        for i in 0..1000u64 {
            q.schedule(t(5.0), i, i);
        }
        for i in 0..1000u64 {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(i));
        }
    }

    #[test]
    fn crowded_day_pops_fifo_and_cancels_in_place() {
        // Every entry at one instant, as when thousands of processes all
        // start at t = 0: they share one day's heap, pop FIFO, and a
        // cancel from the middle leaves the rest ordered.
        let mut q = CalendarQueue::new();
        for i in 0..1000u64 {
            q.schedule(t(0.5), i, i);
        }
        assert!(q.cancel(500).is_some());
        for i in (0..1000u64).filter(|&i| i != 500) {
            assert_eq!(q.pop().map(|(_, s, _)| s), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_exactly_one_entry() {
        let mut q = CalendarQueue::new();
        q.schedule(t(1.0), 0, "a");
        q.schedule(t(2.0), 1, "b");
        q.schedule(t(3.0), 2, "c");
        assert!(q.cancel(1).is_some());
        assert!(q.cancel(1).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("c"));
    }

    #[test]
    fn past_insert_rewinds_the_sweep() {
        let mut q = CalendarQueue::new();
        q.schedule(t(100.0), 0, "late");
        q.schedule(t(200.0), 1, "later");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("late"));
        // An entry behind the sweep cursor must still pop first.
        q.schedule(t(1.0), 2, "early");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("early"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("later"));
    }
}
