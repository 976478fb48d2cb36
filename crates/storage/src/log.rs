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
//! The readable set is one byte image: CRC32-framed records
//! (`checksum || payload`) back to back, in the order their writes
//! completed, with a dense slot index by sequence number saying where each
//! record is (in flight, stable at a position, or gone). An append copies
//! the payload into the pending queue's buffer; a writer swaps that buffer
//! for its own, and after the device write frames each record straight
//! into the image — no per-record allocation survives the append. Reads
//! validate the frames there. The first frame that fails its checksum
//! truncates the log from that sequence number onward — a torn tail
//! shortens the replayable suffix, it does not fail recovery.
//!
//! The image is cut into fixed 16 KiB blocks that are never reallocated,
//! so a growing log leaves no outgrown buffers behind in the allocator.
//! Truncation below a checkpoint frees the blocks at the front once
//! nothing readable is left in them: O(1) per block, and nothing is
//! copied.
//!
//! A [`LogTicket`] is the log plus a sequence number: whether a record is
//! stable, and the callbacks waiting for it, live in the log.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Range;
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogSeq(pub u64);

impl fmt::Display for LogSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log#{}", self.0)
    }
}

type Callback = Box<dyn FnOnce() + Send>;

/// Acknowledgment handle for one appended record: the log and the
/// record's sequence number.
///
/// Supports blocking waits and callbacks; the engine subscribes a callback
/// that releases the corresponding output events / authorizes the
/// transaction commit, so no thread blocks per record.
#[derive(Clone)]
pub struct LogTicket {
    /// `None` for [`LogTicket::already_stable`].
    log: Option<Arc<LogShared>>,
    seq: LogSeq,
}

impl fmt::Debug for LogTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogTicket")
            .field("seq", &self.seq)
            .field("stable", &self.is_stable())
            .finish()
    }
}

impl LogTicket {
    /// An already-stable ticket (used when nothing needed logging).
    pub fn already_stable() -> Self {
        LogTicket { log: None, seq: LogSeq(u64::MAX) }
    }

    /// The record's sequence number.
    pub fn seq(&self) -> LogSeq {
        self.seq
    }

    /// Whether the record is stable on its device.
    pub fn is_stable(&self) -> bool {
        self.log.as_ref().is_none_or(|log| log.state.lock().is_stable(self.seq.0))
    }

    /// Blocks until the record is stable *and* every callback subscribed
    /// before stability has finished running.
    pub fn wait(&self) {
        if let Some(log) = &self.log {
            let mut state = log.state.lock();
            while !state.is_settled(self.seq.0) {
                log.stable_cv.wait(&mut state);
            }
        }
    }

    /// Runs `f` when the record becomes stable (immediately if it already
    /// is). Callbacks run on the device writer thread — keep them short.
    pub fn subscribe<F: FnOnce() + Send + 'static>(&self, f: F) {
        if let Some(log) = &self.log {
            let mut state = log.state.lock();
            if !state.is_settled(self.seq.0) {
                // A second subscriber chains behind the first: one box per
                // subscription, and they run in subscription order.
                let callback: Callback = match state.waiting.remove(&self.seq.0) {
                    Some(first) => Box::new(move || {
                        first();
                        f();
                    }),
                    None => Box::new(f),
                };
                state.waiting.insert(self.seq.0, callback);
                return;
            }
        }
        f();
    }
}

/// Where the record at one sequence number is: a readable frame (at least
/// four bytes) at image position `pos`, or one of the two states below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    pos: u32,
    len: u32,
}

impl Slot {
    /// Appended, its write not finished.
    const IN_FLIGHT: Slot = Slot { pos: 0, len: 0 };
    /// Written, not readable: truncated, dropped as corrupt, or below the
    /// truncation watermark when its write finished.
    const GONE: Slot = Slot { pos: 0, len: 1 };

    /// The frame's position and length, if the record is readable.
    fn frame(self) -> Option<(u32, u32)> {
        (self.len >= 4).then_some((self.pos, self.len))
    }
}

/// Bytes per image block. A block is allocated whole and never grows: a
/// growing `Vec` leaves each buffer it outgrew behind in the allocator,
/// which here cost about as much again as the records themselves. A log
/// truncated at every checkpoint holds little, so the block sets its
/// footprint: at 64 KiB, with truncation waiting for the image record to
/// be stable, a 4-relay chain's peak RSS read ≈ 8 % higher.
const BLOCK: usize = 16 * 1024;

struct Block {
    bytes: Vec<u8>,
    /// Bytes of readable frames in this block.
    live: usize,
}

/// The readable set's bytes: CRC-framed records (`checksum || payload`)
/// back to back, in the order their writes completed — one byte stream
/// cut into blocks, which a frame may straddle. A position is a `u32`
/// modulo 2³²: only its distance from `origin` is used, and what is live
/// spans less than 4 GiB.
#[derive(Default)]
struct Image {
    blocks: VecDeque<Block>,
    /// Stream position of the first byte of `blocks[0]`.
    origin: u32,
}

/// The pieces of `len` bytes starting `at` bytes into the image: block
/// index and byte range in that block.
fn pieces(at: usize, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let (mut block, mut off, mut left) = (at / BLOCK, at % BLOCK, len);
    std::iter::from_fn(move || {
        (left > 0).then(|| {
            let n = left.min(BLOCK - off);
            let piece = (block, off..off + n);
            (block, off, left) = (block + 1, 0, left - n);
            piece
        })
    })
}

impl Image {
    fn offset(&self, pos: u32) -> usize {
        pos.wrapping_sub(self.origin) as usize
    }

    /// Appends the frame made of `parts` and returns its position.
    fn push(&mut self, parts: [&[u8]; 2]) -> u32 {
        let end =
            self.blocks.back().map_or(0, |last| (self.blocks.len() - 1) * BLOCK + last.bytes.len());
        for mut bytes in parts {
            while !bytes.is_empty() {
                if self.blocks.back().is_none_or(|last| last.bytes.len() == BLOCK) {
                    self.blocks.push_back(Block { bytes: Vec::with_capacity(BLOCK), live: 0 });
                }
                let last = self.blocks.back_mut().expect("a block with room");
                let n = bytes.len().min(BLOCK - last.bytes.len());
                last.bytes.extend_from_slice(&bytes[..n]);
                last.live += n;
                bytes = &bytes[n..];
            }
        }
        self.origin.wrapping_add(end as u32)
    }

    /// The frame at `pos`: borrowed from its block, or gathered into
    /// `scratch` when it straddles blocks.
    fn frame<'a>(&'a self, pos: u32, len: u32, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        let (at, len) = (self.offset(pos), len as usize);
        if at % BLOCK + len <= BLOCK {
            return &self.blocks[at / BLOCK].bytes[at % BLOCK..][..len];
        }
        scratch.clear();
        for (block, range) in pieces(at, len) {
            scratch.extend_from_slice(&self.blocks[block].bytes[range]);
        }
        scratch
    }

    fn byte_mut(&mut self, pos: u32) -> &mut u8 {
        let at = self.offset(pos);
        &mut self.blocks[at / BLOCK].bytes[at % BLOCK]
    }

    /// The frame at `pos` is no longer readable; blocks at the front left
    /// with nothing readable are freed.
    fn release(&mut self, pos: u32, len: u32) {
        for (block, range) in pieces(self.offset(pos), len as usize) {
            self.blocks[block].live -= range.len();
        }
        while self.blocks.front().is_some_and(|first| first.live == 0) {
            self.blocks.pop_front();
            self.origin = self.origin.wrapping_add(BLOCK as u32);
        }
    }
}

/// Records appended and not yet taken by a writer: the payloads back to
/// back, in sequence order from `first`.
#[derive(Default)]
struct Queued {
    first: u64,
    bytes: Vec<u8>,
    lens: Vec<u32>,
}

impl Queued {
    /// Moves up to [`MAX_BATCH`] records into `batch` (emptied first). The
    /// whole queue moves by swapping buffers, so neither side allocates
    /// once both have grown to the traffic.
    fn take_into(&mut self, batch: &mut Queued) {
        batch.bytes.clear();
        batch.lens.clear();
        batch.first = self.first;
        if self.lens.len() <= MAX_BATCH {
            std::mem::swap(&mut self.bytes, &mut batch.bytes);
            std::mem::swap(&mut self.lens, &mut batch.lens);
        } else {
            let bytes: usize = self.lens[..MAX_BATCH].iter().map(|&len| len as usize).sum();
            batch.bytes.extend(self.bytes.drain(..bytes));
            batch.lens.extend(self.lens.drain(..MAX_BATCH));
        }
        self.first += batch.lens.len() as u64;
    }
}

/// The readable set and the acknowledgment state, under one lock.
#[derive(Default)]
struct LogState {
    /// The one copy of a record after its write — the device models the
    /// write's latency and faults, it does not keep the bytes.
    image: Image,
    /// `slots[i]` is record `base + i`. Every record below `base` was
    /// written and is gone; past the end, records are in flight.
    base: u64,
    slots: VecDeque<Slot>,
    /// Records below this sequence are pruned, including ones that become
    /// stable after the truncation request (checkpoint covers them).
    watermark: u64,
    /// Callbacks subscribed before their record was stable, by sequence.
    waiting: HashMap<u64, Callback>,
    /// Written batches whose callbacks are still running on their writer.
    draining: Vec<Range<u64>>,
}

impl LogState {
    fn slot(&self, seq: u64) -> Slot {
        match seq.checked_sub(self.base) {
            None => Slot::GONE,
            Some(i) => self.slots.get(i as usize).copied().unwrap_or(Slot::IN_FLIGHT),
        }
    }

    fn is_stable(&self, seq: u64) -> bool {
        self.slot(seq) != Slot::IN_FLIGHT
    }

    /// Stable, and no callback subscribed before that is still running.
    fn is_settled(&self, seq: u64) -> bool {
        self.is_stable(seq) && !self.draining.iter().any(|batch| batch.contains(&seq))
    }

    /// The write of record `seq` finished: frame it into the image, unless
    /// a truncation already covers it.
    fn write(&mut self, seq: u64, payload: &[u8]) {
        let i = (seq - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::IN_FLIGHT);
        }
        self.slots[i] = if seq >= self.watermark {
            let checksum = crc32::checksum(payload).to_le_bytes();
            Slot { pos: self.image.push([&checksum, payload]), len: payload.len() as u32 + 4 }
        } else {
            Slot::GONE
        };
        self.pop_gone();
    }

    /// Makes the readable records in `seqs` gone and returns how many
    /// there were.
    fn drop_readable(&mut self, seqs: Range<u64>) -> u64 {
        let index = |seq: u64| (seq.saturating_sub(self.base) as usize).min(self.slots.len());
        let (lo, hi) = (index(seqs.start), index(seqs.end));
        let mut dropped = 0;
        for slot in self.slots.range_mut(lo..hi) {
            if let Some((pos, len)) = slot.frame() {
                self.image.release(pos, len);
                *slot = Slot::GONE;
                dropped += 1;
            }
        }
        self.pop_gone();
        dropped
    }

    fn pop_gone(&mut self) {
        while self.slots.front() == Some(&Slot::GONE) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Moves the callbacks waiting for records in `seqs` into `out`.
    fn take_callbacks(&mut self, seqs: Range<u64>, out: &mut Vec<Callback>) {
        if self.waiting.is_empty() {
            return;
        }
        out.extend(seqs.filter_map(|seq| self.waiting.remove(&seq)));
    }
}

struct LogShared {
    queue: Mutex<Queued>,
    queue_cv: Condvar,
    state: Mutex<LogState>,
    /// Signalled, under `state`'s lock, after `stable_count` moved and
    /// after a batch's callbacks finished.
    stable_cv: Condvar,
    stopping: AtomicBool,
    appended: AtomicU64,
    stable_count: AtomicU64,
    /// Records dropped by torn-tail truncation during validated reads.
    corrupt_dropped: AtomicU64,
    /// Device write attempts retried after a transient disk fault.
    write_retries: AtomicU64,
    /// Observability hooks, once the engine attached them.
    obs: OnceLock<LogObs>,
}

impl LogShared {
    /// Runs the callbacks of the written batch `seqs`, unlocked; loops
    /// because one may subscribe another, then lets waiters through.
    fn run_callbacks(&self, seqs: Range<u64>, callbacks: &mut Vec<Callback>) {
        loop {
            for callback in callbacks.drain(..) {
                callback();
            }
            let mut state = self.state.lock();
            state.take_callbacks(seqs.clone(), callbacks);
            if callbacks.is_empty() {
                state.draining.retain(|batch| *batch != seqs);
                break;
            }
        }
        self.stable_cv.notify_all();
    }
}

/// The stable decision log: N parallel storage points with group commit.
///
/// Cheap to clone; all clones share the same log. Dropping the last clone
/// flushes queued requests and joins the writer threads.
pub struct StableLog {
    shared: Arc<LogShared>,
    devices: Vec<Arc<StorageDevice>>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Clone for StableLog {
    fn clone(&self) -> Self {
        StableLog {
            shared: self.shared.clone(),
            devices: self.devices.clone(),
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
            queue: Mutex::new(Queued::default()),
            queue_cv: Condvar::new(),
            state: Mutex::new(LogState::default()),
            stable_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            appended: AtomicU64::new(0),
            stable_count: AtomicU64::new(0),
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
        StableLog { shared, devices, writers: Arc::new(Mutex::new(writers)) }
    }

    fn writer_loop(shared: &LogShared, dev: &StorageDevice) {
        let mut batch = Queued::default();
        let mut callbacks: Vec<Callback> = Vec::new();
        loop {
            {
                let mut queue = shared.queue.lock();
                while queue.lens.is_empty() {
                    if shared.stopping.load(Ordering::Acquire) {
                        return;
                    }
                    shared.queue_cv.wait(&mut queue);
                }
                queue.take_into(&mut batch);
            }
            let records = batch.lens.len();
            let seqs = batch.first..batch.first + records as u64;
            // Transient disk faults (injected or real) fail the whole
            // batch; retry with a small exponential backoff until the
            // write sticks — the record is not acknowledged before then.
            let framed_bytes = batch.bytes.len() + 4 * records;
            let write_start = std::time::Instant::now();
            let mut retries = 0u64;
            let mut delay = Duration::from_micros(100);
            while dev.write(framed_bytes).is_err() {
                retries += 1;
                shared.write_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(5));
            }
            if let Some(obs) = shared.obs.get() {
                obs.write_us.record_duration(write_start.elapsed());
                obs.batch_groups.record(records as u64);
                obs.write_retries.add(retries);
            }
            {
                // The watermark is read under the lock, after the write: a
                // truncation issued during it still applies to these
                // records.
                let mut state = shared.state.lock();
                let mut at = 0;
                for (seq, &len) in seqs.clone().zip(&batch.lens) {
                    let end = at + len as usize;
                    state.write(seq, &batch.bytes[at..end]);
                    at = end;
                }
                shared.stable_count.fetch_add(records as u64, Ordering::Relaxed);
                state.take_callbacks(seqs.clone(), &mut callbacks);
                if !callbacks.is_empty() {
                    state.draining.push(seqs.clone());
                }
            }
            shared.stable_cv.notify_all();
            if !callbacks.is_empty() {
                shared.run_callbacks(seqs, &mut callbacks);
            }
        }
    }

    /// Appends one record asynchronously; the returned ticket resolves when
    /// the record is stable. The log frames it with a CRC32 checksum so
    /// recovery reads can detect a torn or corrupted tail.
    pub fn append(&self, record: impl AsRef<[u8]>) -> LogTicket {
        let record = record.as_ref();
        let len = u32::try_from(record.len() + 4).expect("a log record is under 4 GiB") - 4;
        let seq = {
            let mut queue = self.shared.queue.lock();
            let seq = queue.first + queue.lens.len() as u64;
            queue.bytes.extend_from_slice(record);
            queue.lens.push(len);
            self.shared.appended.fetch_add(1, Ordering::Relaxed);
            seq
        };
        self.shared.queue_cv.notify_one();
        LogTicket { log: Some(self.shared.clone()), seq: LogSeq(seq) }
    }

    /// Every stable record with its sequence number, in sequence order,
    /// CRC validated. The first corrupt record truncates the log from
    /// there onward — a torn tail must not panic recovery, only shorten
    /// the replayable suffix (upstream replay re-derives the rest).
    pub fn stable_entries(&self) -> Vec<(LogSeq, Vec<u8>)> {
        let mut state = self.shared.state.lock();
        let mut out = Vec::with_capacity(state.slots.len());
        let mut torn: Option<u64> = None;
        let mut scratch = Vec::new();
        for (seq, slot) in (state.base..).zip(&state.slots) {
            if let Some((pos, len)) = slot.frame() {
                match crc32::unframe(state.image.frame(pos, len, &mut scratch)) {
                    Some(payload) => out.push((LogSeq(seq), payload.to_vec())),
                    None => {
                        torn = Some(seq);
                        break;
                    }
                }
            }
        }
        if let Some(from) = torn {
            let dropped = state.drop_readable(from..u64::MAX);
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
        let mut state = self.shared.state.lock();
        match state.slots.iter().rev().find_map(|slot| slot.frame()) {
            Some((pos, len)) => {
                *state.image.byte_mut(pos.wrapping_add(len - 1)) ^= 0x40;
                true
            }
            None => false,
        }
    }

    /// Flips bit `bit` (counted from the first byte of the frame, modulo
    /// its length) of record `seq` as stored (fault injection). Returns
    /// `false` when the record is not readable.
    pub fn corrupt_bit(&self, seq: LogSeq, bit: usize) -> bool {
        let mut state = self.shared.state.lock();
        let Some((pos, len)) = state.slot(seq.0).frame() else {
            return false;
        };
        let bit = bit % (len as usize * 8);
        *state.image.byte_mut(pos.wrapping_add((bit / 8) as u32)) ^= 1 << (bit % 8);
        true
    }

    /// Prunes records with sequence `< upto` (after a checkpoint). Also
    /// applies to records still in flight: they are dropped from the
    /// readable set when their write completes.
    pub fn truncate_below(&self, upto: LogSeq) {
        let mut state = self.shared.state.lock();
        state.watermark = state.watermark.max(upto.0);
        state.drop_readable(0..upto.0);
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
        let mut state = self.shared.state.lock();
        while self.shared.stable_count.load(Ordering::Relaxed) < target {
            self.shared.stable_cv.wait(&mut state);
        }
    }

    /// The underlying devices (for statistics).
    pub fn devices(&self) -> &[Arc<StorageDevice>] {
        &self.devices
    }

    /// Stops the writer threads after draining queued requests.
    pub fn shutdown(&self) {
        self.flush();
        {
            // Under the queue's lock: a writer between its check of the
            // flag and its wait would otherwise miss the notification and
            // wait for ever.
            let _queue = self.shared.queue.lock();
            self.shared.stopping.store(true, Ordering::Release);
        }
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
        let t = log.append(b"hello");
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
        let t = log.append(b"x");
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
    fn frames_straddle_blocks_and_truncation_frees_dead_ones() {
        // Frames of a sixteenth of a block and 4 bytes: the 16th straddles
        // the first block boundary.
        let log = fast_log(1);
        let record = |i: u8| vec![i; BLOCK / 16];
        for i in 0..40u8 {
            log.append(record(i)).wait();
        }
        assert_eq!(records(&log), (0..40u8).map(record).collect::<Vec<_>>());
        assert_eq!(log.shared.state.lock().image.blocks.len(), 3);
        log.truncate_below(LogSeq(20));
        {
            let state = log.shared.state.lock();
            assert_eq!((state.base, state.slots.len()), (20, 20), "the gone front is popped");
            assert_eq!(state.image.blocks.len(), 2, "the first block held only dead frames");
        }
        assert_eq!(records(&log), (20..40u8).map(record).collect::<Vec<_>>());
        assert!(log.corrupt_bit(LogSeq(31), (BLOCK / 16 + 4) * 8 - 1), "a bit in the frame");
        assert_eq!(records(&log), (20..31u8).map(record).collect::<Vec<_>>());
        log.truncate_below(LogSeq(40));
        let state = log.shared.state.lock();
        assert!(state.image.blocks.is_empty() && state.slots.is_empty());
    }

    #[test]
    fn truncation_also_drops_records_still_in_flight() {
        let log = StableLog::new(vec![DiskSpec::simulated(Duration::from_millis(20))]);
        let tickets: Vec<_> = (0..4u8).map(|i| log.append([i])).collect();
        log.truncate_below(LogSeq(3));
        for t in &tickets {
            t.wait();
            assert!(t.is_stable());
        }
        assert_eq!(records(&log), vec![vec![3u8]]);
        assert_eq!(log.stable_len(), 4);
    }

    #[test]
    fn wait_covers_a_callback_subscribed_by_a_callback() {
        let log = StableLog::new(vec![DiskSpec::simulated(Duration::from_millis(5))]);
        let hits = Arc::new(AtomicU32::new(0));
        let t = log.append(b"x");
        let (again, h) = (t.clone(), hits.clone());
        t.subscribe(move || {
            let h2 = h.clone();
            again.subscribe(move || {
                std::thread::sleep(Duration::from_millis(5));
                h2.fetch_add(1, Ordering::SeqCst);
            });
            h.fetch_add(1, Ordering::SeqCst);
        });
        t.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 2, "wait returned before a callback ran");
    }

    #[test]
    fn a_backlog_past_the_batch_cap_is_written_in_order() {
        let log = fast_log(1);
        log.devices()[0].stall_for(Duration::from_millis(50));
        let n = MAX_BATCH + 100;
        for i in 0..n as u32 {
            log.append(i.to_le_bytes());
        }
        log.flush();
        assert!(log.devices()[0].write_count() >= 2, "one batch holds at most MAX_BATCH");
        let entries = log.stable_entries();
        assert_eq!(entries.len(), n);
        for (i, (seq, record)) in entries.iter().enumerate() {
            assert_eq!((seq.0, record.as_slice()), (i as u64, &(i as u32).to_le_bytes()[..]));
        }
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
            log.append(r).wait();
        }
        // Corrupt the *middle* record: the tail after it must go too.
        assert!(log.corrupt_bit(LogSeq(1), 5 * 8 - 1));
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
