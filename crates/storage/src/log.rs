//! The asynchronous decision log.
//!
//! Implements the logging algorithm of §2.4: processing functions *issue an
//! asynchronous storage request* for a non-deterministic decision and
//! continue; resulting events are held (non-speculative mode) or sent
//! speculatively (speculative mode) until the request is stable. The engine
//! appends one record per decision, at the moment the decision is taken
//! (`core::determinant`), so a write runs beside the operator that caused
//! it; a record here is opaque bytes under a dense sequence number.
//!
//! The paper provisions *"one thread per storage point plus 1 extra thread
//! that collects the requests while the others are busy"*. Here the
//! collector is the shared pending queue itself: each of the N device
//! writer threads drains whatever accumulated while it was busy (group
//! commit) and writes it as one batch — the same N-way parallel,
//! batch-amortized behaviour with one fewer moving part. With N > 1 the
//! devices stripe the sequence: record *n + 1* can be stable before record
//! *n*, which is why a caller that needs several records waits for each
//! ticket, and why a recovery read takes, per event, only the contiguous
//! prefix of what it finds.
//!
//! A record exists once: the append frames it (CRC32), the writer moves
//! the frame into the readable set after the device write, and reads
//! validate it there. The first frame that fails its checksum truncates
//! the log from that sequence number onward — a torn tail shortens the
//! replayable suffix, it does not fail recovery.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use streammine_common::crc32;
use streammine_obs::{Counter, Histogram, Journal, Labels, Obs};

use crate::disk::{DiskSpec, StorageDevice};

/// Observability hooks for one log, attached by the engine after
/// construction. The log keeps working without them (tests, standalone
/// use); when attached, each device batch records its write duration and
/// group-commit size, degradation counters mirror into the registry, and
/// torn-tail truncation warns through the journal instead of stderr.
#[derive(Clone, Debug)]
pub struct LogObs {
    /// Owning operator index, used as the metric/journal label.
    pub op: u32,
    /// Journal receiving degradation warnings.
    pub journal: Arc<Journal>,
    /// Device write duration per batch, microseconds (`log.write_us`).
    pub write_us: Histogram,
    /// Records drained per device batch (`log.batch_groups`).
    pub batch_groups: Histogram,
    /// Mirror of [`StableLog::write_retries`] (`log.write_retries`).
    pub write_retries: Counter,
    /// Mirror of [`StableLog::corrupt_dropped`] (`log.corrupt_dropped`).
    pub corrupt_dropped: Counter,
}

impl LogObs {
    /// Registers the log metrics of operator `op` in an [`Obs`] bundle.
    pub fn registered(obs: &Obs, op: u32) -> LogObs {
        let labels = Labels::op(op);
        LogObs {
            op,
            journal: obs.journal.clone(),
            write_us: obs.registry.histogram("log.write_us", labels),
            batch_groups: obs.registry.histogram("log.batch_groups", labels),
            write_retries: obs.registry.counter("log.write_retries", labels),
            corrupt_dropped: obs.registry.counter("log.corrupt_dropped", labels),
        }
    }
}

/// Sequence number of a log record (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogSeq(pub u64);

impl fmt::Display for LogSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log#{}", self.0)
    }
}

type Callback = Box<dyn FnOnce() + Send>;

struct TicketState {
    stable: bool,
    /// Callbacks registered before stability, waiting to fire.
    callbacks: Vec<Callback>,
    /// True while `mark_stable` is still running queued callbacks; `wait`
    /// only returns once they have all fired, so a waiter never observes a
    /// stable record whose release actions are still in flight.
    draining: bool,
}

struct TicketInner {
    seq: LogSeq,
    state: Mutex<TicketState>,
    cv: Condvar,
}

/// Acknowledgment handle for one appended record.
///
/// Supports blocking waits and callbacks; the engine subscribes a callback
/// that releases the corresponding output events / authorizes the
/// transaction commit, so no thread blocks per record.
#[derive(Clone)]
pub struct LogTicket {
    inner: Arc<TicketInner>,
}

impl fmt::Debug for LogTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogTicket")
            .field("seq", &self.inner.seq)
            .field("stable", &self.is_stable())
            .finish()
    }
}

impl LogTicket {
    fn new(seq: LogSeq) -> Self {
        LogTicket {
            inner: Arc::new(TicketInner {
                seq,
                state: Mutex::new(TicketState {
                    stable: false,
                    callbacks: Vec::new(),
                    draining: false,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// An already-stable ticket (used when nothing needed logging).
    pub fn already_stable() -> Self {
        let t = LogTicket::new(LogSeq(u64::MAX));
        t.mark_stable();
        t
    }

    /// The record's sequence number.
    pub fn seq(&self) -> LogSeq {
        self.inner.seq
    }

    /// Whether the record is stable on its device.
    pub fn is_stable(&self) -> bool {
        self.inner.state.lock().stable
    }

    /// Blocks until the record is stable *and* every callback subscribed
    /// before stability has finished running.
    pub fn wait(&self) {
        let mut guard = self.inner.state.lock();
        while !guard.stable || guard.draining {
            self.inner.cv.wait(&mut guard);
        }
    }

    /// Runs `f` when the record becomes stable (immediately if it already
    /// is). Callbacks run on the device writer thread — keep them short.
    pub fn subscribe<F: FnOnce() + Send + 'static>(&self, f: F) {
        let mut guard = self.inner.state.lock();
        if guard.stable && !guard.draining {
            drop(guard);
            f();
        } else {
            guard.callbacks.push(Box::new(f));
        }
    }

    fn mark_stable(&self) {
        let mut guard = self.inner.state.lock();
        guard.stable = true;
        guard.draining = true;
        // Run callbacks unlocked; loop because one may subscribe another.
        loop {
            let callbacks = std::mem::take(&mut guard.callbacks);
            if callbacks.is_empty() {
                break;
            }
            drop(guard);
            for cb in callbacks {
                cb();
            }
            guard = self.inner.state.lock();
        }
        guard.draining = false;
        drop(guard);
        self.inner.cv.notify_all();
    }
}

struct Pending {
    seq: u64,
    /// The CRC-framed record; moved into the readable set once written.
    record: Vec<u8>,
    ticket: LogTicket,
}

struct LogShared {
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    /// The readable set: every written record not yet truncated, framed.
    /// The one copy of a record after its write — the device models the
    /// write's latency and faults, it does not keep the bytes.
    stable: Mutex<BTreeMap<u64, Vec<u8>>>,
    /// Signalled, under `stable`'s lock, after `stable_count` moved.
    stable_cv: Condvar,
    stopping: AtomicBool,
    appended: AtomicU64,
    stable_count: AtomicU64,
    /// Records below this sequence are pruned, including ones that become
    /// stable after the truncation request (checkpoint covers them).
    truncate_watermark: AtomicU64,
    /// Records dropped by torn-tail truncation during validated reads.
    corrupt_dropped: AtomicU64,
    /// Device write attempts retried after a transient disk fault.
    write_retries: AtomicU64,
    /// Observability hooks, once the engine attached them.
    obs: OnceLock<LogObs>,
}

/// The stable decision log: N parallel storage points with group commit.
///
/// Cheap to clone; all clones share the same log. Dropping the last clone
/// flushes queued requests and joins the writer threads.
pub struct StableLog {
    shared: Arc<LogShared>,
    devices: Vec<Arc<StorageDevice>>,
    next_seq: Arc<AtomicU64>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Clone for StableLog {
    fn clone(&self) -> Self {
        StableLog {
            shared: self.shared.clone(),
            devices: self.devices.clone(),
            next_seq: self.next_seq.clone(),
            writers: self.writers.clone(),
        }
    }
}

impl fmt::Debug for StableLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StableLog")
            .field("devices", &self.devices.len())
            .field("appended", &self.shared.appended.load(Ordering::Relaxed))
            .field("stable", &self.shared.stable_count.load(Ordering::Relaxed))
            .finish()
    }
}

/// Cap on records drained into one device batch (group commit size). A
/// record is one decision (≈ 30 framed bytes), and an event may take
/// hundreds: the cap must not be what bounds such an operator's throughput.
const MAX_BATCH: usize = 16_384;

impl StableLog {
    /// Creates a log over one storage point per spec.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<DiskSpec>) -> Self {
        assert!(!specs.is_empty(), "a stable log needs at least one storage point");
        let devices: Vec<Arc<StorageDevice>> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Arc::new(StorageDevice::new(s, 0x5EED_0000 + i as u64)))
            .collect();
        let shared = Arc::new(LogShared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stable: Mutex::new(BTreeMap::new()),
            stable_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            appended: AtomicU64::new(0),
            stable_count: AtomicU64::new(0),
            truncate_watermark: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
            write_retries: AtomicU64::new(0),
            obs: OnceLock::new(),
        });
        let writers = devices
            .iter()
            .enumerate()
            .map(|(i, dev)| {
                let shared = shared.clone();
                let dev = dev.clone();
                std::thread::Builder::new()
                    .name(format!("log-writer-{i}"))
                    .spawn(move || Self::writer_loop(&shared, &dev))
                    .expect("spawn log writer")
            })
            .collect();
        StableLog {
            shared,
            devices,
            next_seq: Arc::new(AtomicU64::new(0)),
            writers: Arc::new(Mutex::new(writers)),
        }
    }

    fn writer_loop(shared: &Arc<LogShared>, dev: &Arc<StorageDevice>) {
        loop {
            let mut batch: Vec<Pending> = {
                let mut q = shared.queue.lock();
                while q.is_empty() {
                    if shared.stopping.load(Ordering::Acquire) {
                        return;
                    }
                    shared.queue_cv.wait(&mut q);
                }
                let take = q.len().min(MAX_BATCH);
                q.drain(..take).collect()
            };
            // Transient disk faults (injected or real) fail the whole
            // batch; retry with a small exponential backoff until the
            // write sticks — the record is not acknowledged before then.
            let bytes: usize = batch.iter().map(|p| p.record.len()).sum();
            let write_start = std::time::Instant::now();
            let mut retries = 0u64;
            let mut delay = Duration::from_micros(100);
            while dev.write(bytes).is_err() {
                retries += 1;
                shared.write_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(5));
            }
            if let Some(obs) = shared.obs.get() {
                obs.write_us.record_duration(write_start.elapsed());
                obs.batch_groups.record(batch.len() as u64);
                obs.write_retries.add(retries);
            }
            {
                // The watermark is read after the write: a truncation
                // issued during it still applies to these records.
                let watermark = shared.truncate_watermark.load(Ordering::Acquire);
                let mut stable = shared.stable.lock();
                for p in &mut batch {
                    if p.seq >= watermark {
                        stable.insert(p.seq, std::mem::take(&mut p.record));
                    }
                }
                shared.stable_count.fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
            shared.stable_cv.notify_all();
            for p in batch {
                p.ticket.mark_stable();
            }
        }
    }

    /// Appends one record asynchronously; the returned ticket resolves when
    /// the record is stable. The record is framed with a CRC32 checksum so
    /// recovery reads can detect a torn or corrupted tail.
    pub fn append(&self, record: Vec<u8>) -> LogTicket {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let ticket = LogTicket::new(LogSeq(seq));
        self.shared.appended.fetch_add(1, Ordering::Relaxed);
        let record = crc32::frame(record);
        self.shared.queue.lock().push_back(Pending { seq, record, ticket: ticket.clone() });
        self.shared.queue_cv.notify_one();
        ticket
    }

    /// Every stable record with its sequence number, in sequence order,
    /// CRC validated. The first corrupt record truncates the log from
    /// there onward — a torn tail must not panic recovery, only shorten
    /// the replayable suffix (upstream replay re-derives the rest).
    pub fn stable_entries(&self) -> Vec<(LogSeq, Vec<u8>)> {
        let mut stable = self.shared.stable.lock();
        let mut out = Vec::with_capacity(stable.len());
        let mut bad_from: Option<u64> = None;
        for (&seq, framed) in stable.iter() {
            match crc32::unframe(framed) {
                Some(payload) => out.push((LogSeq(seq), payload.to_vec())),
                None => {
                    bad_from = Some(seq);
                    break;
                }
            }
        }
        if let Some(from) = bad_from {
            let dropped = stable.split_off(&from).len() as u64;
            self.shared.corrupt_dropped.fetch_add(dropped, Ordering::Relaxed);
            if let Some(obs) = self.shared.obs.get() {
                obs.corrupt_dropped.add(dropped);
                obs.journal.warn(
                    Some(obs.op),
                    "log-torn-tail",
                    format!("corrupt record {from}: dropped {dropped} record(s)"),
                );
            }
        }
        out
    }

    /// Attaches observability hooks (write timing, group-commit sizes,
    /// degradation counters, journal warnings). Shared by all clones; a
    /// log is attached once, a second call changes nothing.
    pub fn attach_obs(&self, obs: LogObs) {
        let _ = self.shared.obs.set(obs);
    }

    /// Records dropped so far by torn-tail truncation.
    pub fn corrupt_dropped(&self) -> u64 {
        self.shared.corrupt_dropped.load(Ordering::Relaxed)
    }

    /// Device writes retried after transient faults.
    pub fn write_retries(&self) -> u64 {
        self.shared.write_retries.load(Ordering::Relaxed)
    }

    /// Flips one bit in the last stable record, simulating a torn tail
    /// (fault injection). Returns `false` when the log is empty.
    pub fn corrupt_tail(&self) -> bool {
        let mut stable = self.shared.stable.lock();
        match stable.values_mut().next_back().and_then(|record| record.last_mut()) {
            Some(byte) => {
                *byte ^= 0x40;
                true
            }
            None => false,
        }
    }

    /// Prunes records with sequence `< upto` (after a checkpoint). Also
    /// applies to records still in flight: they are dropped from the
    /// readable set when their write completes.
    pub fn truncate_below(&self, upto: LogSeq) {
        self.shared.truncate_watermark.fetch_max(upto.0, Ordering::AcqRel);
        self.shared.stable.lock().retain(|&s, _| s >= upto.0);
    }

    /// Records appended so far (stable or not).
    pub fn appended(&self) -> u64 {
        self.shared.appended.load(Ordering::Relaxed)
    }

    /// Records stable so far.
    pub fn stable_len(&self) -> u64 {
        self.shared.stable_count.load(Ordering::Relaxed)
    }

    /// Blocks until everything appended so far is stable.
    pub fn flush(&self) {
        let target = self.appended();
        let mut stable = self.shared.stable.lock();
        while self.shared.stable_count.load(Ordering::Relaxed) < target {
            self.shared.stable_cv.wait(&mut stable);
        }
    }

    /// The underlying devices (for statistics).
    pub fn devices(&self) -> &[Arc<StorageDevice>] {
        &self.devices
    }

    /// Stops the writer threads after draining queued requests.
    pub fn shutdown(&self) {
        self.flush();
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        let mut writers = self.writers.lock();
        for h in writers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for StableLog {
    fn drop(&mut self) {
        // Only the last clone shuts the log down.
        if Arc::strong_count(&self.writers) == 1 && !self.shared.stopping.load(Ordering::Acquire) {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::{Duration, Instant};

    fn fast_log(n: usize) -> StableLog {
        StableLog::new(vec![DiskSpec::simulated(Duration::from_micros(200)); n])
    }

    fn records(log: &StableLog) -> Vec<Vec<u8>> {
        log.stable_entries().into_iter().map(|(_, record)| record).collect()
    }

    #[test]
    fn append_becomes_stable_and_readable() {
        let log = fast_log(1);
        let t = log.append(b"hello".to_vec());
        t.wait();
        assert!(t.is_stable());
        assert_eq!(records(&log), vec![b"hello".to_vec()]);
        assert_eq!(log.appended(), 1);
        assert_eq!(log.stable_len(), 1);
    }

    #[test]
    fn records_keep_sequence_order_across_devices() {
        let log = fast_log(3);
        let tickets: Vec<_> = (0..50u8).map(|i| log.append(vec![i])).collect();
        for t in &tickets {
            t.wait();
        }
        let recs = records(&log);
        assert_eq!(recs.len(), 50);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r[0] as usize, i, "stable order must follow append order");
        }
    }

    #[test]
    fn entries_carry_their_sequence_numbers() {
        let log = fast_log(2);
        let tickets: Vec<_> = (0..6u8).map(|i| log.append(vec![i])).collect();
        log.flush();
        let entries = log.stable_entries();
        assert_eq!(entries.len(), 6);
        for ((seq, record), ticket) in entries.iter().zip(&tickets) {
            assert_eq!(*seq, ticket.seq());
            assert_eq!(record[0] as u64, seq.0);
        }
    }

    #[test]
    fn subscribe_fires_on_stability() {
        let log = fast_log(1);
        let hits = Arc::new(AtomicU32::new(0));
        let t = log.append(b"x".to_vec());
        let h = hits.clone();
        t.subscribe(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        t.wait();
        // Late subscription fires immediately.
        let h = hits.clone();
        t.subscribe(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn already_stable_ticket_is_stable() {
        let t = LogTicket::already_stable();
        assert!(t.is_stable());
        t.wait(); // must not block
    }

    #[test]
    fn more_devices_increase_throughput() {
        // With 10ms writes and group commit disabled by spacing, 1 device
        // serializes; 4 devices parallelize. We compare elapsed time for 8
        // sequential-ticket waits issued concurrently.
        let run = |devices: usize| -> Duration {
            let log = StableLog::new(vec![DiskSpec::simulated(Duration::from_millis(5)); devices]);
            let start = Instant::now();
            let tickets: Vec<_> = (0..8).map(|i| log.append(vec![i as u8])).collect();
            for t in tickets {
                t.wait();
            }
            start.elapsed()
        };
        let one = run(1);
        let four = run(4);
        // Group commit can batch heavily on the single device, so only
        // assert the parallel version is not slower by more than noise.
        assert!(four <= one + Duration::from_millis(20), "4 devices {four:?} vs 1 device {one:?}");
    }

    #[test]
    fn truncate_prunes_old_records() {
        let log = fast_log(1);
        let tickets: Vec<_> = (0..10u8).map(|i| log.append(vec![i])).collect();
        for t in &tickets {
            t.wait();
        }
        log.truncate_below(LogSeq(5));
        let recs = records(&log);
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0], vec![5u8]);
    }

    #[test]
    fn flush_waits_for_all_appends() {
        let log = fast_log(2);
        for i in 0..20u8 {
            log.append(vec![i]);
        }
        log.flush();
        assert_eq!(log.stable_len(), 20);
    }

    #[test]
    fn shutdown_drains_and_joins() {
        let log = fast_log(2);
        for i in 0..10u8 {
            log.append(vec![i]);
        }
        log.shutdown();
        assert_eq!(log.stable_len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one storage point")]
    fn empty_spec_list_panics() {
        let _ = StableLog::new(vec![]);
    }

    #[test]
    fn torn_tail_is_truncated_not_panicked() {
        let log = fast_log(1);
        for i in 0..5u8 {
            log.append(vec![i]).wait();
        }
        assert!(log.corrupt_tail());
        let recs = records(&log);
        assert_eq!(recs, vec![vec![0u8], vec![1], vec![2], vec![3]]);
        assert_eq!(log.corrupt_dropped(), 1);
        // The log stays usable after truncation.
        log.append(vec![9]).wait();
        assert_eq!(records(&log).len(), 5);
    }

    #[test]
    fn corrupt_record_truncates_everything_after_it() {
        let log = fast_log(1);
        for r in [b"a", b"b", b"c"] {
            log.append(r.to_vec()).wait();
        }
        // Corrupt the *middle* record: the tail after it must go too.
        {
            let mut stable = log.shared.stable.lock();
            let middle = stable.values_mut().nth(1).unwrap();
            *middle.last_mut().unwrap() ^= 0x01;
        }
        assert_eq!(records(&log), vec![b"a".to_vec()]);
        assert_eq!(log.corrupt_dropped(), 2);
    }

    #[test]
    fn attached_obs_records_write_timing_and_torn_tail_warning() {
        use streammine_obs::{JournalKind, Verbosity};
        let obs = Obs::tracing();
        let log = fast_log(1);
        log.attach_obs(LogObs::registered(&obs, 3));
        for i in 0..5u8 {
            log.append(vec![i]).wait();
        }
        let write_us = obs.registry.histogram_snapshot("log.write_us", Labels::op(3)).unwrap();
        assert!(write_us.count() >= 1, "device batches must record write durations");
        // 200us simulated writes land well above zero.
        assert!(write_us.sum >= 200, "write_us sum {} too small", write_us.sum);
        let groups = obs.registry.histogram_snapshot("log.batch_groups", Labels::op(3)).unwrap();
        assert_eq!(groups.sum, 5, "5 records must pass through group commit");

        assert!(log.corrupt_tail());
        let _ = records(&log);
        assert_eq!(
            obs.registry.counter_value("log.corrupt_dropped", Labels::op(3)),
            Some(1),
            "torn tail must mirror into the registry"
        );
        assert!(obs.journal.enabled(Verbosity::Warn));
        let warns: Vec<_> = obs
            .journal
            .events()
            .into_iter()
            .filter(|e| matches!(&e.kind, JournalKind::Warn { code: "log-torn-tail", .. }))
            .collect();
        assert_eq!(warns.len(), 1, "one torn-tail warning expected");
        assert_eq!(warns[0].op, Some(3));
    }

    #[test]
    fn transient_disk_faults_are_retried_until_stable() {
        let spec = DiskSpec::simulated(Duration::from_micros(100)).with_fault_rate(0.9);
        let log = StableLog::new(vec![spec]);
        for i in 0..10u8 {
            log.append(vec![i]).wait();
        }
        assert_eq!(records(&log).len(), 10);
        assert!(log.write_retries() > 0, "0.9 fault rate produced no retries");
        assert!(log.devices()[0].fault_count() > 0);
    }
}
