//! Footprint gate: after a full-matrix batch run, the engine keeps only what
//! something reads again — parsed and transformed programs, the shared LIR,
//! and each cell's loop facts and simulation result. The scheduled machine
//! code of a cell is dropped once the cell is simulated, so the heap held
//! after the run stays small.
//!
//! One test in this file on purpose: the counting allocator sees every
//! allocation of the process, so no other test may run beside it.

use slc_pipeline::{BatchConfig, BatchEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound on the heap a finished full-matrix run may hold. Keeping every
/// cell's machine code held about 13.5 MiB; without it the run holds under
/// 3 MiB.
const HELD_BOUND: isize = 4 << 20;

#[test]
fn batch_engine_retains_no_machine_code() {
    let mut cfg = BatchConfig::full_matrix();
    cfg.threads = Some(1);
    let before = LIVE.load(Ordering::Relaxed);
    let engine = BatchEngine::new();
    let report = engine.run(&cfg);
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(report.failed(), 0);
    println!(
        "heap held after a full-matrix run ({} cells, engine and report alive): {held} bytes ({:.2} MiB)",
        report.cells.len(),
        held as f64 / (1u64 << 20) as f64
    );
    assert!(
        held < HELD_BOUND,
        "a finished run holds {held} bytes, bound {HELD_BOUND}"
    );
    drop((engine, report));
}
