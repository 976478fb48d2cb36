//! Allocation fence for the decision log's append path.
//!
//! Installs a counting `#[global_allocator]` (every thread: the appender
//! and the device writer) and drives a zero-latency log the way the engine
//! does, once warm: 10 000 appends that are only waited on must allocate
//! at most once per hundred records, and append + subscribe at most once
//! per record — the callback's box. The record itself, its frame, its
//! ticket and its place in the readable set must not allocate.
//!
//! Warm-up stalls the device while a burst of the same size piles up, so
//! the queue's two swapped buffers, the callback table, the image and the
//! slot index all reach the measured traffic's high-water mark first; a
//! truncation then empties them with their capacity kept.
//!
//! The check is strict only in release builds, like `alloc_steady`; debug
//! builds report and skip. CI runs it under `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use streammine_storage::{DiskSpec, LogSeq, LogTicket, StableLog};

/// Counts (never blocks) allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const RECORDS: u64 = 10_000;

/// Appends `RECORDS` records (subscribing a callback to each when
/// `subscribe`), waits for all, and empties the log again.
fn burst(log: &StableLog, subscribe: bool, tickets: &mut Vec<LogTicket>, hits: &Arc<AtomicU64>) {
    for i in 0..RECORDS {
        let ticket = log.append(i.to_le_bytes());
        if subscribe {
            let hits = hits.clone();
            ticket.subscribe(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        tickets.push(ticket);
    }
    for ticket in tickets.drain(..) {
        ticket.wait();
    }
}

/// Allocations per record of one armed burst.
fn measured(
    log: &StableLog,
    subscribe: bool,
    tickets: &mut Vec<LogTicket>,
    hits: &Arc<AtomicU64>,
) -> f64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    burst(log, subscribe, tickets, hits);
    ARMED.store(false, Ordering::SeqCst);
    log.truncate_below(LogSeq(log.appended()));
    ALLOCS.load(Ordering::SeqCst) as f64 / RECORDS as f64
}

#[test]
fn append_allocates_at_most_the_callback_box_once_warm() {
    let log = StableLog::new(vec![DiskSpec::simulated(Duration::ZERO)]);
    let mut tickets = Vec::with_capacity(RECORDS as usize);
    let hits = Arc::new(AtomicU64::new(0));
    // Two stalled bursts grow both of the queue's swapped buffers.
    for subscribe in [false, true, true] {
        log.devices()[0].stall_for(Duration::from_millis(100));
        burst(&log, subscribe, &mut tickets, &hits);
        log.truncate_below(LogSeq(log.appended()));
    }

    let waited = measured(&log, false, &mut tickets, &hits);
    let subscribed = measured(&log, true, &mut tickets, &hits);
    log.shutdown();
    assert_eq!(hits.load(Ordering::SeqCst), 3 * RECORDS, "every callback ran once");
    eprintln!("allocations per record: waited {waited:.4}, subscribed {subscribed:.4}");
    if cfg!(debug_assertions) {
        eprintln!("debug build: the strict check is release-only");
        return;
    }
    assert!(waited <= 0.01, "append + wait allocated {waited:.4} times per record (≤ 0.01)");
    assert!(
        subscribed <= 1.0,
        "append + subscribe allocated {subscribed:.4} times per record (≤ 1, the callback box)"
    );
}
