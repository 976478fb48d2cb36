//! Footprint fence for what a sink keeps per event.
//!
//! Installs a `#[global_allocator]` that tracks live heap bytes and their
//! high-water mark (every thread: node, sink collector),
//! pushes 15 000 events through source → one plain relay → sink and waits
//! until all are final. The peak growth of live bytes over the started
//! graph, per event, is what the engine keeps per event once the edges are
//! bounded by checkpoint + ack: the sink's record, its index slot and its
//! finalization-order entry, with the transient of the index's last
//! doubling (the old table lives beside the new one while it rehashes).
//!
//! A compact record in a dense arena with a hashed id → position index
//! needs ~185 B per event here; a map from id to a full `SinkRecord`
//! (128 B buckets) needed ~460 B.
//!
//! The check is strict only in release builds, like the decision log's
//! `alloc_append`; debug builds report and skip. CI runs it under
//! `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

use streammine::common::event::Value;
use streammine::core::{GraphBuilder, OperatorConfig};
use streammine::operators::StampedRelay;

/// Tracks live bytes and their peak (never blocks).
struct PeakAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static TRACKER: PeakAlloc = PeakAlloc;

const EVENTS: usize = 15_000;

/// Between the two layouts' measured ~185 B and ~460 B per event.
const MAX_BYTES_PER_EVENT: f64 = 250.0;

#[test]
fn sink_keeps_a_compact_record_per_event() {
    let mut b = GraphBuilder::new();
    let relay = b.add_operator(StampedRelay::new(), OperatorConfig::plain());
    let src = b.source_into(relay).unwrap();
    let sink = b.sink_from(relay).unwrap();
    let running = b.build().unwrap().start();

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    for i in 0..EVENTS {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(EVENTS, Duration::from_secs(60)), "all events final");
    let per_event = (PEAK.load(Ordering::SeqCst) - base) as f64 / EVENTS as f64;
    let held = (LIVE.load(Ordering::SeqCst) - base) as f64 / EVENTS as f64;
    running.shutdown();

    eprintln!("live heap growth per event: peak {per_event:.1} B, held at the end {held:.1} B");
    if cfg!(debug_assertions) {
        eprintln!("debug build: the strict check is release-only");
        return;
    }
    assert!(
        per_event <= MAX_BYTES_PER_EVENT,
        "peak live heap grew {per_event:.1} B per event (≤ {MAX_BYTES_PER_EVENT})"
    );
}
