//! The one counting allocator behind every allocation pin of the workspace.
//!
//! A test file pulls it in with
//! `#[path = "../../../tests/support/counting_alloc.rs"] mod counting;`
//! which makes [`Counting`] that test binary's global allocator: a wrapper
//! around the system allocator that counts, per thread, the allocations
//! (`alloc` and `realloc` calls) and the bytes they request. Tests are their
//! own crates, so the libraries' `#![forbid(unsafe_code)]` still holds for
//! the libraries themselves.

// Each pin uses the one or two readings it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and bytes requested by *this* thread. The default test
    /// harness runs the `#[test]`s of a file on parallel threads, so a
    /// process-global counter would charge each test's window with the
    /// others' allocations. Const-initialised and without a destructor, so
    /// reading or bumping them never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

pub struct Counting;

// SAFETY: delegates directly to the system allocator; the per-thread
// counters are a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has requested so far.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Allocations this thread requested while `body` ran.
pub fn allocations_in<T>(body: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let result = body();
    (allocations() - before, result)
}

/// Bytes this thread requested from the allocator while `body` ran.
pub fn bytes_in<T>(body: impl FnOnce() -> T) -> (u64, T) {
    let before = bytes();
    let result = body();
    (bytes() - before, result)
}
