//! Opt-in allocation profiling: a counting `#[global_allocator]`.
//!
//! The wrapper delegates every call to [`std::alloc::System`] and, only
//! while profiling is enabled ([`set_prof_enabled`]), bumps a set of
//! relaxed atomic counters: total allocated bytes/calls, freed
//! bytes/calls, live bytes, and a live-bytes high-water mark. Disabled
//! cost is a single relaxed load per alloc/dealloc — the same budget as
//! the tracing layer's `enabled()` check — so binaries that never turn
//! profiling on pay nothing measurable.
//!
//! Per-span attribution works through thread locals mirroring the
//! process-wide counters: [`SpanGuard`](crate::SpanGuard) snapshots the
//! calling thread's counters when a span opens and emits the deltas as
//! `alloc_bytes` / `alloc_count` / `peak_live_bytes` fields on the
//! `span_end` record. The thread locals are const-initialized `Cell`s
//! of plain integers (no destructors), so touching them from inside the
//! allocator can never recurse or allocate; during thread teardown
//! `try_with` falls back to process-wide counting only.
//!
//! Everything here is telemetry: counts must never feed back into
//! pipeline results. The determinism suite asserts `final_triples()`
//! is byte-identical with profiling on or off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use crate::record::FieldValue;

static PROF_ENABLED: AtomicBool = AtomicBool::new(false);

// Process-wide counters. All relaxed: each is independently monotonic
// (or a max), readers only ever see a slightly stale snapshot, and
// nothing here synchronizes memory for other data.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static FREE_BYTES: AtomicU64 = AtomicU64::new(0);
static FREE_COUNT: AtomicU64 = AtomicU64::new(0);
// Live bytes can dip below zero when profiling is enabled after some
// allocations were already made (their frees are counted, the allocs
// were not), so it is signed; reports clamp at zero.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
// High-water mark of sampled RSS (see [`RssSampler`]); 0 = never sampled.
static SAMPLED_PEAK_RSS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-init integer cells: no lazy allocation on first touch and
    // no Drop, which makes them safe to use from inside the allocator.
    static T_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static T_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static T_PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Turns allocation profiling on or off (off by default).
///
/// Binaries honor `PAE_PROF=1` / `--profile`; see
/// [`TraceSession::from_parts`](crate::TraceSession::from_parts).
pub fn set_prof_enabled(on: bool) {
    PROF_ENABLED.store(on, Relaxed);
}

/// Whether allocation profiling is currently enabled.
pub fn prof_enabled() -> bool {
    PROF_ENABLED.load(Relaxed)
}

#[inline]
fn on_alloc(size: usize) {
    let b = size as u64;
    ALLOC_BYTES.fetch_add(b, Relaxed);
    ALLOC_COUNT.fetch_add(1, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
    // `try_with`: a thread's TLS may already be torn down while its
    // last drops still allocate — fall back to process-wide counting.
    let _ = T_ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(b)));
    let _ = T_ALLOC_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = T_LIVE_BYTES.try_with(|c| {
        let live = c.get() + size as i64;
        c.set(live);
        let _ = T_PEAK_LIVE.try_with(|p| p.set(p.get().max(live)));
    });
}

#[inline]
fn on_dealloc(size: usize) {
    let b = size as u64;
    FREE_BYTES.fetch_add(b, Relaxed);
    FREE_COUNT.fetch_add(1, Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Relaxed);
    let _ = T_LIVE_BYTES.try_with(|c| c.set(c.get() - size as i64));
}

/// The counting allocator installed as the workspace-wide
/// `#[global_allocator]` (every binary linking `pae-obs` gets it).
pub struct CountingAllocator;

// SAFETY: pure delegation to `System`; the bookkeeping around each call
// touches only atomics and const-init integer TLS cells, so it cannot
// allocate, panic, or recurse into the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && PROF_ENABLED.load(Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && PROF_ENABLED.load(Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if PROF_ENABLED.load(Relaxed) {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && PROF_ENABLED.load(Relaxed) {
            // A grow-in-place still retires the old block logically:
            // count it as free(old) + alloc(new) so live bytes track
            // the real footprint.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

/// A snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfStats {
    /// Whether profiling was enabled when the snapshot was taken.
    pub enabled: bool,
    /// Total bytes requested from the allocator since profiling began.
    pub alloc_bytes: u64,
    /// Total allocation calls since profiling began.
    pub alloc_count: u64,
    /// Total bytes returned to the allocator since profiling began.
    pub free_bytes: u64,
    /// Total deallocation calls since profiling began.
    pub free_count: u64,
    /// Currently live bytes (may be negative: frees of blocks allocated
    /// before profiling was enabled are counted, their allocs were not).
    pub live_bytes: i64,
    /// High-water mark of live bytes (clamped at zero).
    pub peak_live_bytes: u64,
    /// High-water mark of sampled RSS (0 = no [`RssSampler`] ran).
    pub sampled_peak_rss_bytes: u64,
}

/// Reads the process-wide allocation counters.
pub fn prof_stats() -> ProfStats {
    ProfStats {
        enabled: prof_enabled(),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
        alloc_count: ALLOC_COUNT.load(Relaxed),
        free_bytes: FREE_BYTES.load(Relaxed),
        free_count: FREE_COUNT.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Relaxed).max(0) as u64,
        sampled_peak_rss_bytes: SAMPLED_PEAK_RSS.load(Relaxed),
    }
}

/// A span's view of the calling thread's counters at open time; handed
/// back to [`span_alloc_end`] when the span closes.
pub(crate) struct SpanAllocSnapshot {
    bytes0: u64,
    count0: u64,
    /// The enclosing span's peak-live cursor, restored (merged with this
    /// span's peak) at end so nested peaks propagate outward.
    saved_peak: i64,
}

/// Snapshots the calling thread's allocation counters for span
/// attribution; `None` while profiling is disabled.
pub(crate) fn span_alloc_begin() -> Option<SpanAllocSnapshot> {
    if !prof_enabled() {
        return None;
    }
    let bytes0 = T_ALLOC_BYTES.with(Cell::get);
    let count0 = T_ALLOC_COUNT.with(Cell::get);
    // Start this span's peak window at the current live level; the
    // outer span's running peak is saved and merged back at end.
    let saved_peak = T_PEAK_LIVE.with(|p| p.replace(T_LIVE_BYTES.with(Cell::get)));
    Some(SpanAllocSnapshot {
        bytes0,
        count0,
        saved_peak,
    })
}

/// Closes a span's attribution window, returning
/// `(alloc_bytes, alloc_count, peak_live_bytes)` for the span.
pub(crate) fn span_alloc_end(snap: SpanAllocSnapshot) -> (u64, u64, u64) {
    let bytes = T_ALLOC_BYTES.with(Cell::get).wrapping_sub(snap.bytes0);
    let count = T_ALLOC_COUNT.with(Cell::get).wrapping_sub(snap.count0);
    let span_peak = T_PEAK_LIVE.with(Cell::get);
    // The outer span peaked at least as high as anything inside us.
    T_PEAK_LIVE.with(|p| p.set(snap.saved_peak.max(span_peak)));
    (bytes, count, span_peak.max(0) as u64)
}

/// A background thread sampling `/proc` RSS into a process-wide
/// high-water mark, so short-lived memory spikes between scrapes are
/// still visible in the run-level `memory` ledger section.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Starts an [`RssSampler`] polling every `interval`.
pub fn start_rss_sampler(interval: Duration) -> RssSampler {
    let sample = || {
        if let Some(rss) = crate::process::process_stats().rss_bytes {
            SAMPLED_PEAK_RSS.fetch_max(rss, Relaxed);
        }
    };
    sample();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("pae-rss-sampler".into())
        .spawn(move || {
            while !stop2.load(Relaxed) {
                sample();
                std::thread::sleep(interval);
            }
            sample();
        })
        .ok();
    RssSampler { stop, handle }
}

impl RssSampler {
    /// Stops the sampler thread (taking one final sample) and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The run-level memory totals a [`ProfSession`] reports at finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReport {
    /// Peak RSS over the session: max of the sampled high-water mark
    /// and the kernel's `VmHWM` (which catches spikes between samples).
    pub peak_rss_bytes: u64,
    /// Bytes allocated during the session.
    pub total_alloc_bytes: u64,
    /// Allocation calls during the session.
    pub alloc_count: u64,
    /// Live-bytes high-water mark at session end.
    pub peak_live_bytes: u64,
}

/// A profiling session: enables the counting allocator, runs an
/// [`RssSampler`], and on [`finish`](ProfSession::finish) emits a
/// `mem.summary` event (picked up by `pae-report`'s `RunSummary` as the
/// `memory` section) before disabling profiling again.
#[derive(Debug)]
pub struct ProfSession {
    start_alloc_bytes: u64,
    start_alloc_count: u64,
    sampler: Option<RssSampler>,
}

impl std::fmt::Debug for RssSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RssSampler").finish_non_exhaustive()
    }
}

/// How often the bootstrap-side [`ProfSession`] samples RSS.
pub const RSS_SAMPLE_INTERVAL: Duration = Duration::from_millis(50);

impl ProfSession {
    /// Enables profiling and starts the RSS sampler.
    pub fn begin() -> ProfSession {
        set_prof_enabled(true);
        let s = prof_stats();
        ProfSession {
            start_alloc_bytes: s.alloc_bytes,
            start_alloc_count: s.alloc_count,
            sampler: Some(start_rss_sampler(RSS_SAMPLE_INTERVAL)),
        }
    }

    /// Stops sampling, emits the `mem.summary` event (recorded only
    /// while collection is enabled), and disables profiling.
    pub fn finish(mut self) -> MemReport {
        if let Some(s) = self.sampler.take() {
            s.stop();
        }
        let end = prof_stats();
        let kernel_hwm = crate::process::process_stats().peak_rss_bytes.unwrap_or(0);
        let report = MemReport {
            peak_rss_bytes: end.sampled_peak_rss_bytes.max(kernel_hwm),
            total_alloc_bytes: end.alloc_bytes.wrapping_sub(self.start_alloc_bytes),
            alloc_count: end.alloc_count.wrapping_sub(self.start_alloc_count),
            peak_live_bytes: end.peak_live_bytes,
        };
        set_prof_enabled(false);
        crate::event(
            "mem.summary",
            vec![
                (
                    "peak_rss_bytes".into(),
                    FieldValue::U64(report.peak_rss_bytes),
                ),
                (
                    "total_alloc_bytes".into(),
                    FieldValue::U64(report.total_alloc_bytes),
                ),
                ("alloc_count".into(), FieldValue::U64(report.alloc_count)),
                (
                    "peak_live_bytes".into(),
                    FieldValue::U64(report.peak_live_bytes),
                ),
            ],
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn disabled_profiling_freezes_counters() {
        let _l = test_lock();
        set_prof_enabled(false);
        let before = prof_stats();
        let v: Vec<u8> = Vec::with_capacity(64 * 1024);
        drop(v);
        let after = prof_stats();
        assert_eq!(before.alloc_bytes, after.alloc_bytes);
        assert_eq!(before.alloc_count, after.alloc_count);
        assert_eq!(before.free_bytes, after.free_bytes);
    }

    #[test]
    fn enabled_profiling_counts_allocations() {
        let _l = test_lock();
        set_prof_enabled(true);
        let before = prof_stats();
        // The peak is read on this thread's window: the process-wide
        // live bytes also count other threads' frees of blocks they
        // allocated before profiling was on, which can hold them below
        // zero.
        let window = span_alloc_begin().expect("profiling is on");
        let v: Vec<u8> = Vec::with_capacity(128 * 1024);
        let mid = prof_stats();
        drop(v);
        let (_, _, window_peak) = span_alloc_end(window);
        let after = prof_stats();
        set_prof_enabled(false);
        assert!(
            mid.alloc_bytes >= before.alloc_bytes + 128 * 1024,
            "alloc bytes counted: {} -> {}",
            before.alloc_bytes,
            mid.alloc_bytes
        );
        assert!(mid.alloc_count > before.alloc_count);
        assert!(
            after.free_bytes >= before.free_bytes + 128 * 1024,
            "free bytes counted"
        );
        assert!(window_peak >= 128 * 1024, "peak live tracked the buffer");
    }

    #[test]
    fn span_attribution_windows_nest() {
        let _l = test_lock();
        set_prof_enabled(true);
        let outer = span_alloc_begin().expect("profiling is on");
        let big: Vec<u8> = Vec::with_capacity(1 << 20);
        drop(big);
        let inner = span_alloc_begin().expect("profiling is on");
        let small: Vec<u8> = Vec::with_capacity(4 * 1024);
        drop(small);
        let (in_bytes, in_count, in_peak) = span_alloc_end(inner);
        let (out_bytes, out_count, out_peak) = span_alloc_end(outer);
        set_prof_enabled(false);
        assert!((4 * 1024..1 << 20).contains(&in_bytes), "{in_bytes}");
        assert!(in_count >= 1);
        assert!(out_bytes >= (1 << 20) + in_bytes, "outer includes inner");
        assert!(out_count > in_count);
        assert!(in_peak < out_peak, "inner window missed the big buffer");
        assert!(out_peak >= 1 << 20, "outer peak saw the big buffer");
    }

    #[test]
    fn rss_sampler_records_a_peak() {
        let _l = test_lock();
        let sampler = start_rss_sampler(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(20));
        sampler.stop();
        // /proc may be unavailable on exotic platforms; when it is
        // readable the sampled peak must be a plausible RSS.
        if let Some(rss) = crate::process::process_stats().rss_bytes {
            let peak = prof_stats().sampled_peak_rss_bytes;
            assert!(peak > 0, "sampler never observed RSS");
            assert!(peak >= rss / 4, "peak {peak} implausibly small vs {rss}");
        }
    }
}
