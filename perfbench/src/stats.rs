//! Small numeric helpers: percentiles, a seeded generator, peak memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks. Panics on an empty sample: every caller measures
/// at least one value.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// SplitMix64: the benchmark's own seeded stream, so inputs depend on
/// `--seed` alone and not on any generator inside the program.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// The system allocator, counting the calling thread's live heap bytes
/// once [`count_heap`] has been called. `synthetic` reports memory from it:
/// its process-wide peak RSS is set by the single largest instance a seed
/// happens to draw, while the typical per-solve heap peak is stable.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized and without destructors, so the allocator can
    // touch them at any point of a thread's life.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn charge(delta: isize) {
    if COUNTING.load(Relaxed) {
        let _ = LIVE.try_with(|live| {
            let now = live.get() + delta;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            charge(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            charge(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation of this allocator does).
        unsafe { System.dealloc(ptr, layout) };
        charge(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            charge(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts counting heap bytes (for the rest of the process).
pub fn count_heap() {
    COUNTING.store(true, Relaxed);
}

/// Opens a new peak window on this thread and returns its live bytes.
pub fn heap_window() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// This thread's highest live byte count since its window opened.
pub fn heap_peak() -> isize {
    PEAK.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn splitmix_repeats_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }
}
