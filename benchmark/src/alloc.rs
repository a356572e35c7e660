//! Counting global allocator: exact heap-allocation and requested-byte
//! counts over all threads, the benchmark's noise-free cost metric.
//!
//! Counters are sharded per thread (one cache line each), so the library's
//! pool workers do not bounce one line between cores on every allocation —
//! with a single shared counter the instrumentation itself would show up in
//! `round_pu` on the allocation-heavy workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 64;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTERS: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, which an allocator hook must not do.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn record(bytes: usize) {
    let shard = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        // Thread-local storage already torn down (allocation during thread
        // exit): any shard will do, the sums stay exact.
        .unwrap_or(0);
    // Relaxed: pure statistics, they publish no other data.
    COUNTERS[shard].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTERS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The process allocator: `System` plus the counters above. A `realloc`
/// counts as one allocation of the new size.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout` (all our
        // allocations come from it) and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Tells the C library's allocator never to hand freed heap back to the
/// kernel. Returns whether it listened (glibc only; a no-op elsewhere).
///
/// Why: glibc trims the top of the heap past a threshold it adapts as the
/// program runs, and whether the large blocks of `exec-reduce` end up being
/// trimmed — and page-faulted back in on every request — depended on the heap
/// layout the warm rounds happened to leave, that is, on `--seed`: seeds 11
/// and 12 measured 39 pu per round, seeds 14 and 17 measured 50 and 62, every
/// time. With a fixed threshold all four measure 38–39 (README.md, "Noise").
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        // SAFETY: `mallopt` only stores the value in the allocator's own
        // parameters; it has no pointer arguments and may be called at any
        // time, here before the process has more than one thread.
        unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// Allocation count and requested bytes so far, summed over all threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Snapshot {
        let mut s = Snapshot::default();
        for shard in &COUNTERS {
            s.allocs += shard.allocs.load(Ordering::Relaxed);
            s.bytes += shard.bytes.load(Ordering::Relaxed);
        }
        s
    }

    /// Counts accumulated since `earlier`.
    pub fn since(earlier: Snapshot) -> Snapshot {
        let now = Snapshot::now();
        Snapshot {
            allocs: now.allocs - earlier.allocs,
            bytes: now.bytes - earlier.bytes,
        }
    }
}
