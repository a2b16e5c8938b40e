//! Rolling-window metrics: ring-of-epoch-buckets histograms and
//! counters for live serving telemetry.
//!
//! The cumulative registry ([`crate::metrics`]) answers "what happened
//! since the process started"; a live server also needs "what happened
//! in the last minute". [`WindowedHistogram`] and [`WindowedCounter`]
//! keep a fixed ring of epoch buckets, an [`EpochRing`]: time is
//! divided into `epoch_s`-second epochs, each epoch owns one slot, and
//! a slot is lazily reset the first time a newer epoch touches it.
//! Reading a window of `W` seconds merges the `W / epoch_s` most recent
//! slots (including the current, partially-filled one) — an estimate
//! that is at most one epoch stale at the edges, which is the standard
//! trade-off for O(1) updates and bounded memory.
//!
//! **The clock is injected**: every operation takes `now_s`, seconds on
//! whatever monotonic clock the caller owns (a server passes
//! `Instant::elapsed().as_secs()` since startup; tests pass literal
//! epochs). Nothing here reads wall time, so windowed behaviour is
//! fully deterministic under test.
//!
//! **Backwards clocks are tolerated on the write path**: callers are
//! supposed to pass a monotonic clock, but a stepped wall clock (NTP,
//! VM resume) can slip through. A write whose `now_s` maps to an epoch
//! older than the newest epoch ever written is clamped to that newest
//! epoch — without the clamp the old epoch number could reuse and
//! *reset* a newer slot, silently deleting fresh observations. Reads
//! are pure and stay unclamped: querying an earlier `now_s`
//! deliberately answers "what did the window look like then".

use crate::metrics::Histogram;

/// A fixed ring of per-epoch slots, the one windowing primitive behind
/// [`WindowedHistogram`], [`WindowedCounter`] and any other rolling
/// aggregate: `slot_mut` does the clamped write and the lazy reset to
/// a blank `T`, `window` yields the slots a window read merges.
#[derive(Debug, Clone)]
pub struct EpochRing<T: Clone> {
    epoch_s: u64,
    /// What a slot is reset to when a newer epoch claims it.
    blank: T,
    /// `slots[i]` holds data for epoch `e` where `e % slots.len() == i`;
    /// the paired `u64` records which epoch the slot currently belongs
    /// to (`u64::MAX` before the first write).
    slots: Vec<(u64, T)>,
    /// Newest epoch any write has seen; `now_s` values that map to an
    /// older epoch are clamped here (backwards-clock tolerance).
    latest: u64,
}

impl<T: Clone> EpochRing<T> {
    /// A ring of `n_slots` epochs of `epoch_s` seconds each, every slot
    /// starting as `blank`.
    pub fn new(epoch_s: u64, n_slots: usize, blank: T) -> EpochRing<T> {
        assert!(epoch_s > 0 && n_slots > 0);
        EpochRing {
            epoch_s,
            slots: vec![(u64::MAX, blank.clone()); n_slots],
            blank,
            latest: 0,
        }
    }

    /// The widest window this ring can answer, in seconds.
    pub fn span_s(&self) -> u64 {
        self.epoch_s * self.slots.len() as u64
    }

    /// The slot of `now_s`'s epoch, clamped to the newest epoch written
    /// and reset to blank if it still holds an older epoch.
    pub fn slot_mut(&mut self, now_s: u64) -> &mut T {
        let epoch = (now_s / self.epoch_s).max(self.latest);
        self.latest = epoch;
        let i = (epoch % self.slots.len() as u64) as usize;
        let (owner, slot) = &mut self.slots[i];
        if *owner != epoch {
            *owner = epoch;
            *slot = self.blank.clone();
        }
        slot
    }

    /// The slots of the last `window_s` seconds (clamped to the span)
    /// ending at `now_s`, in ring order. The current epoch is included,
    /// so fresh writes are visible at once; the read is unclamped, so
    /// an earlier `now_s` leaves out epochs written after it.
    pub fn window(&self, now_s: u64, window_s: u64) -> impl Iterator<Item = &T> {
        let epochs = window_s.clamp(1, self.span_s()).div_ceil(self.epoch_s);
        let current = now_s / self.epoch_s;
        let oldest = current.saturating_sub(epochs - 1);
        self.slots
            .iter()
            .filter(move |(owner, _)| (oldest..=current).contains(owner))
            .map(|(_, slot)| slot)
    }
}

/// A histogram over a rolling time window: a ring of per-epoch
/// [`Histogram`]s merged on demand.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    ring: EpochRing<Histogram>,
}

impl WindowedHistogram {
    /// A ring of `n_slots` epochs of `epoch_s` seconds each; the widest
    /// answerable window is `epoch_s * n_slots` seconds.
    pub fn new(epoch_s: u64, n_slots: usize) -> WindowedHistogram {
        WindowedHistogram {
            ring: EpochRing::new(epoch_s, n_slots, Histogram::default()),
        }
    }

    /// The widest window this ring can answer, in seconds.
    pub fn span_s(&self) -> u64 {
        self.ring.span_s()
    }

    /// Records one observation at time `now_s`.
    pub fn observe(&mut self, now_s: u64, v: f64) {
        self.ring.slot_mut(now_s).observe(v);
    }

    /// Merges the slots covering the last `window_s` seconds (clamped
    /// to the ring span) into one [`Histogram`]. The current epoch is
    /// included, so fresh observations are visible immediately.
    pub fn window(&self, now_s: u64, window_s: u64) -> Histogram {
        let mut merged = Histogram::default();
        for hist in self.ring.window(now_s, window_s) {
            if hist.count == 0 {
                continue;
            }
            for (b, c) in merged.buckets.iter_mut().zip(hist.buckets.iter()) {
                *b += c;
            }
            merged.count += hist.count;
            merged.sum += hist.sum;
            merged.min = merged.min.min(hist.min);
            merged.max = merged.max.max(hist.max);
        }
        merged
    }

    /// `q`-quantile over the last `window_s` seconds (0 when empty).
    pub fn quantile(&self, now_s: u64, window_s: u64, q: f64) -> f64 {
        self.window(now_s, window_s).quantile(q)
    }
}

/// A counter over a rolling time window: a ring of per-epoch totals.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    ring: EpochRing<u64>,
}

impl WindowedCounter {
    /// A ring of `n_slots` epochs of `epoch_s` seconds each.
    pub fn new(epoch_s: u64, n_slots: usize) -> WindowedCounter {
        WindowedCounter {
            ring: EpochRing::new(epoch_s, n_slots, 0),
        }
    }

    /// The widest window this ring can answer, in seconds.
    pub fn span_s(&self) -> u64 {
        self.ring.span_s()
    }

    /// Adds `delta` at time `now_s`.
    pub fn add(&mut self, now_s: u64, delta: u64) {
        *self.ring.slot_mut(now_s) += delta;
    }

    /// Total over the last `window_s` seconds (clamped to the span).
    /// Like [`WindowedHistogram::window`], the read is unclamped: an
    /// earlier `now_s` leaves out epochs written after it.
    pub fn total(&self, now_s: u64, window_s: u64) -> u64 {
        self.ring.window(now_s, window_s).sum()
    }

    /// Average per-second rate over the last `window_s` seconds.
    pub fn rate(&self, now_s: u64, window_s: u64) -> f64 {
        let w = window_s.clamp(1, self.span_s());
        self.total(now_s, w) as f64 / w as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_window_rolls_old_epochs_out() {
        // 1-second epochs, 60-slot ring: 1m is the full span.
        let mut h = WindowedHistogram::new(1, 60);
        for t in 0..10u64 {
            h.observe(t, 100.0);
        }
        assert_eq!(h.window(9, 60).count, 10);
        // At t=70 the first 10 epochs have aged out of a 60s window.
        assert_eq!(h.window(70, 60).count, 0);
        // New data at t=70 is visible immediately.
        h.observe(70, 7.0);
        let w = h.window(70, 60);
        assert_eq!(w.count, 1);
        assert_eq!(w.min, 7.0);
    }

    #[test]
    fn narrower_windows_see_fewer_epochs() {
        let mut h = WindowedHistogram::new(5, 60); // 300s span
        h.observe(0, 1.0); // epoch 0
        h.observe(100, 2.0); // epoch 20
        h.observe(299, 3.0); // epoch 59
        assert_eq!(h.window(299, 300).count, 3);
        // 60s window at t=299 covers epochs 48..=59 only.
        assert_eq!(h.window(299, 60).count, 1);
        assert_eq!(h.window(299, 60).max, 3.0);
    }

    #[test]
    fn ring_reuse_resets_stale_slots() {
        let mut h = WindowedHistogram::new(1, 4);
        h.observe(0, 1.0);
        h.observe(1, 1.0);
        // Epoch 4 reuses slot 0; the epoch-0 data must not leak in.
        h.observe(4, 9.0);
        let w = h.window(4, 4);
        assert_eq!(w.count, 2, "epochs 1 and 4");
        assert_eq!(w.max, 9.0);
    }

    #[test]
    fn windowed_quantiles_match_merged_histogram() {
        let mut h = WindowedHistogram::new(1, 60);
        for t in 0..30u64 {
            h.observe(t, 10.0);
        }
        for t in 30..33u64 {
            h.observe(t, 1000.0);
        }
        let p50 = h.quantile(32, 60, 0.5);
        assert!((9.0..=20.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(32, 60, 0.99), 1000.0);
        // A window that excludes the slow tail reports fast quantiles.
        assert_eq!(h.quantile(29, 30, 0.99), 10.0);
    }

    #[test]
    fn counter_totals_and_rates() {
        let mut c = WindowedCounter::new(5, 60);
        for t in 0..60u64 {
            c.add(t, 2);
        }
        assert_eq!(c.total(59, 60), 120);
        assert!((c.rate(59, 60) - 2.0).abs() < 1e-9);
        // 240s later everything has aged out of a 60s window but the
        // 300s window still sees the tail epochs.
        assert_eq!(c.total(299, 60), 0);
        assert!(c.total(299, 300) > 0);
        // Requesting more than the span clamps to the span.
        assert_eq!(c.total(59, 100_000), 120);
    }

    #[test]
    fn backwards_clock_is_clamped_to_latest_epoch() {
        // 1-second epochs, 4-slot ring. Observe at t=100, then the
        // clock steps back to t=96: epoch 96 maps to the *same slot*
        // as epoch 100, so without the clamp the stale write would
        // reset the slot and delete the fresh observation. The clamp
        // keeps the write in epoch 100 and both observations survive.
        let mut h = WindowedHistogram::new(1, 4);
        h.observe(100, 1.0);
        h.observe(96, 2.0);
        let w = h.window(100, 4);
        assert_eq!(w.count, 2, "stepped-back observe must not reset the slot");
        assert_eq!(w.max, 2.0);
        // A much larger step back (different slot) is clamped too: the
        // write lands in the newest epoch, not in an expired one where
        // the current window would never see it.
        h.observe(50, 3.0);
        assert_eq!(h.window(100, 4).count, 3);
        // Once the clock moves forward again, normal rolling resumes.
        h.observe(103, 4.0);
        assert_eq!(h.window(103, 4).count, 4, "epochs 100 and 103");

        let mut c = WindowedCounter::new(1, 4);
        c.add(100, 5);
        c.add(96, 7);
        assert_eq!(c.total(100, 4), 12, "stepped-back add lands in epoch 100");
        c.add(103, 1);
        assert_eq!(c.total(103, 4), 13);
    }

    #[test]
    fn counter_reads_at_an_earlier_epoch_leave_later_writes_out() {
        // Reads are unclamped, as the histogram's are: the window ending
        // at t=96 does not hold the write at t=100.
        let mut c = WindowedCounter::new(1, 4);
        c.add(100, 5);
        assert_eq!(c.total(96, 4), 0);
        assert_eq!(c.total(100, 4), 5);
    }

    #[test]
    fn deterministic_under_injected_clock() {
        let run = || {
            let mut h = WindowedHistogram::new(5, 60);
            let mut c = WindowedCounter::new(5, 60);
            for t in 0..500u64 {
                h.observe(t, (t % 17) as f64 + 1.0);
                c.add(t, t % 3);
            }
            (
                h.window(499, 60).count,
                h.quantile(499, 300, 0.9).to_bits(),
                c.total(499, 60),
            )
        };
        assert_eq!(run(), run());
    }
}
