//! The asynchronous decision log.
//!
//! Implements the logging algorithm of §2.4: processing functions *issue an
//! asynchronous storage request* for a non-deterministic decision and
//! continue; resulting events are held (non-speculative mode) or sent
//! speculatively (speculative mode) until the request is stable. The engine
//! appends one record per decision when it is taken (`core::determinant`),
//! so a write runs beside the operator; a record here is opaque bytes
//! under a dense sequence number.
//!
//! The paper gives each storage point a writer thread because a real disk
//! write blocks. A device here is a latency model, so it is a timeline: a
//! group (group commit) starts when the device is next free — or at its
//! first record's append if it was idle — holds every record appended
//! before its start, at most [`MAX_BATCH`], and ends one
//! [`DiskSpec::write_duration`] later; failed attempts and stall windows
//! go on the same timeline. With N > 1 the devices stripe the sequence:
//! record *n + 1* can be stable before record *n*, so a recovery read
//! takes, per event, only the contiguous prefix of what it finds.
//!
//! The log runs no thread. Every read — [`StableLog::poll`], a ticket's
//! `is_stable`, `wait` or `subscribe`, [`StableLog::stable_entries`],
//! [`StableLog::flush`] — completes each group whose end has passed and
//! runs its callbacks outside the lock. The owner parks until
//! [`StableLog::next_due`]; an append that brings that forward signals its
//! waker ([`StableLog::set_waker`]).
//!
//! The readable set is one byte image: CRC32-framed records
//! (`checksum || payload`) in append order, in fixed 16 KiB blocks, with a
//! dense slot index by sequence number, so a warm append allocates
//! nothing. The first frame a read finds torn truncates the log from
//! there: a torn tail shortens the replayable suffix, it does not fail
//! recovery. Truncation below a checkpoint frees the front blocks once
//! nothing live is left in them.
//!
//! A log opened on a file ([`StableLog::open`]) outlives its process: a
//! group's frames reach the file, each with its sequence number, before
//! the group turns stable, and a write the file does not take is a failed
//! device attempt. A truncation, a torn read or a failed write has the
//! file rewritten whole (temp + rename) from what is readable.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use streammine_common::{crc32, BackoffConfig};
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
    /// The device's busy time per batch, start to end, retries included,
    /// microseconds (`log.write_us`).
    pub write_us: Histogram,
    /// Records per device batch (`log.batch_groups`).
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
    log: Arc<LogShared>,
    seq: LogSeq,
}

impl fmt::Debug for LogTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogTicket").field("seq", &self.seq).finish()
    }
}

impl LogTicket {
    /// The record's sequence number.
    pub fn seq(&self) -> LogSeq {
        self.seq
    }

    /// Whether the record is stable on its device (a read: it completes
    /// the groups that have ended).
    pub fn is_stable(&self) -> bool {
        self.log.poll();
        self.log.state.lock().slot(self.seq.0).stable
    }

    /// Blocks until the record is stable *and* every callback subscribed
    /// before stability has finished running, sleeping until the log's
    /// next group ends.
    pub fn wait(&self) {
        self.log.wait_until(|state| state.is_settled(self.seq.0));
    }

    /// Runs `f` when the record becomes stable (at once if it already is,
    /// or its group has ended: subscribing is a read). Callbacks run on
    /// whichever thread finds the record's group complete — the log's
    /// owner, or any reader — so keep them short and non-blocking.
    pub fn subscribe<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.log.poll();
        let mut state = self.log.state.lock();
        if state.is_settled(self.seq.0) {
            drop(state);
            return f();
        }
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
    }
}

/// Where the record at one sequence number is: its frame (`len` bytes at
/// image position `pos`; `len == 0` when it has none), and whether its
/// group completed. A stable record with a frame is readable; one without
/// is gone (truncated, or dropped as corrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    pos: u32,
    len: u32,
    stable: bool,
}

impl Slot {
    /// Stable and not readable.
    const GONE: Slot = Slot { pos: 0, len: 0, stable: true };
    /// In flight with no frame: appended below the truncation watermark,
    /// or truncated while in flight.
    const UNWRITTEN: Slot = Slot { pos: 0, len: 0, stable: false };

    /// The frame's position and length, if the record is readable.
    fn frame(self) -> Option<(u32, u32)> {
        (self.stable && self.len > 0).then_some((self.pos, self.len))
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
    /// Bytes of live frames (readable or in flight) in this block.
    live: usize,
}

/// The frames' bytes: CRC-framed records (`checksum || payload`) back to
/// back, in append order — one byte stream cut into blocks, which a frame
/// may straddle. A position is a `u32` modulo 2³²: only its distance from
/// `origin` is used, and what is live spans less than 4 GiB.
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

    /// The frame at `pos` is no longer live; blocks at the front left
    /// with nothing live are freed.
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

/// [`StableLog::read_file`], and the length of the file's intact prefix.
fn read_frames(path: &Path) -> (Vec<(LogSeq, Vec<u8>)>, u64) {
    let bytes = std::fs::read(path).unwrap_or_default();
    let mut records = BTreeMap::new();
    let mut rest = &bytes[..];
    while let Some((header, tail)) = rest.split_first_chunk::<16>() {
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        let len = word(8) as usize;
        if crc32::checksum(&header[..12]) != word(12) || tail.len() < len {
            break;
        }
        let Some(record) = crc32::unframe(&tail[..len]) else { break };
        let seq = u64::from_le_bytes(header[..8].try_into().unwrap());
        records.insert(seq, record.to_vec());
        rest = &tail[len..];
    }
    let records = records.into_iter().map(|(seq, record)| (LogSeq(seq), record)).collect();
    (records, (bytes.len() - rest.len()) as u64)
}

/// A batch of records on its device: the sequence numbers it holds, their
/// framed bytes, the instant its write ends, and its failed attempts so far.
struct Group {
    seqs: Range<u64>,
    bytes: usize,
    end: Instant,
    failures: u32,
}

/// The wait before the k-th retry of a failed group write: 100 µs
/// doubling to 5 ms.
const WRITE_RETRY: BackoffConfig = BackoffConfig::micros(100, 5_000);

impl Group {
    /// Counts one more failed attempt and returns the wait before the next.
    fn failed(&mut self) -> Duration {
        self.failures += 1;
        WRITE_RETRY.delay(self.failures)
    }
}

/// A log's file of frames `seq u64 || len u32 || crc32 of those 12 bytes ||
/// frame`; `append` is `None` while it may differ from the readable set.
struct LogFile {
    path: PathBuf,
    append: Option<File>,
}

/// The readable set, the devices' timelines and the acknowledgment state,
/// under one lock.
#[derive(Default)]
struct LogState {
    /// The one copy of a record — the device models the write's latency
    /// and faults, it does not keep the bytes.
    image: Image,
    /// `slots[i]` is record `base + i`; every appended record has one.
    /// Every record below `base` is stable and gone.
    base: u64,
    slots: VecDeque<Slot>,
    /// Records below this sequence are pruned, including ones appended
    /// after the truncation request (a checkpoint covers them).
    watermark: u64,
    /// The last records appended, which no group holds yet: when each was
    /// appended and its framed length.
    queued: VecDeque<(Instant, u32)>,
    /// Per device, its groups not completed yet, in start (so end) order:
    /// the device is free at the end of its last one. Every queued record
    /// was appended after the end of any group completed before.
    lanes: Vec<VecDeque<Group>>,
    /// Records whose group completed.
    stable: u64,
    /// Callbacks subscribed before their record was stable, by sequence.
    waiting: HashMap<u64, Callback>,
    /// Completed groups whose callbacks are still running.
    draining: Vec<Range<u64>>,
    /// Storage the next completion's callbacks are moved into.
    spare: Vec<Callback>,
    file: Option<LogFile>,
}

impl LogState {
    fn appended(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn slot(&self, seq: u64) -> Slot {
        match seq.checked_sub(self.base) {
            None => Slot::GONE,
            Some(i) => self.slots.get(i as usize).copied().unwrap_or(Slot::UNWRITTEN),
        }
    }

    /// Stable, and no callback subscribed before that is still running.
    fn is_settled(&self, seq: u64) -> bool {
        self.slot(seq).stable && !self.draining.iter().any(|group| group.contains(&seq))
    }

    /// When the earliest group in flight ends.
    fn next_due(&self) -> Option<Instant> {
        self.lanes.iter().filter_map(|lane| lane.front().map(|g| g.end)).min()
    }

    /// Releases the frames of the records in `seqs` — readable ones, and
    /// ones in flight too when `in_flight` — and returns how many readable
    /// ones there were.
    fn drop_frames(&mut self, seqs: Range<u64>, in_flight: bool) -> u64 {
        let index = |seq: u64| (seq.saturating_sub(self.base) as usize).min(self.slots.len());
        let (lo, hi) = (index(seqs.start), index(seqs.end));
        let mut dropped = 0;
        for slot in self.slots.range_mut(lo..hi) {
            if slot.len > 0 && (slot.stable || in_flight) {
                self.image.release(slot.pos, slot.len);
                dropped += u64::from(slot.stable);
                *slot = if slot.stable { Slot::GONE } else { Slot::UNWRITTEN };
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

    /// Writes the frames of the records in `seqs` to the file: appended,
    /// or — `whole`, or when the file may differ from the readable set —
    /// with every readable frame into a new file renamed over it.
    fn write_file(&mut self, seqs: Range<u64>, whole: bool) -> io::Result<()> {
        let LogState { image, slots, base, file, .. } = self;
        let Some(file) = file else { return Ok(()) };
        let whole = whole || file.append.is_none();
        let from = if whole { *base } else { seqs.start.max(*base) };
        let (mut buf, mut scratch) = (Vec::new(), Vec::new());
        for (seq, slot) in (from..).zip(slots.range((from - *base) as usize..)) {
            if seq >= seqs.end && !whole {
                break;
            }
            if slot.len > 0 && (slot.stable || seqs.contains(&seq)) {
                let at = buf.len();
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(&slot.len.to_le_bytes());
                let checksum = crc32::checksum(&buf[at..]).to_le_bytes();
                buf.extend_from_slice(&checksum);
                buf.extend_from_slice(image.frame(slot.pos, slot.len, &mut scratch));
            }
        }
        let tmp = file.path.with_extension("tmp");
        let written = match file.append.as_mut() {
            Some(append) if !whole => append.write_all(&buf),
            _ => std::fs::write(&tmp, &buf).and_then(|()| std::fs::rename(&tmp, &file.path)),
        };
        file.append = match written {
            Ok(()) if whole => OpenOptions::new().append(true).open(&file.path).ok(),
            Ok(()) => file.append.take(),
            Err(_) => None,
        };
        written
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
    devices: Vec<Arc<StorageDevice>>,
    state: Mutex<LogState>,
    /// Signalled after a group completed and after its callbacks finished.
    stable_cv: Condvar,
    /// Records dropped by torn-tail truncation during validated reads.
    corrupt_dropped: AtomicU64,
    /// Device write attempts retried after a transient disk fault.
    write_retries: AtomicU64,
    /// Observability hooks, once the engine attached them.
    obs: OnceLock<LogObs>,
    /// The owner's waker, once set.
    waker: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

impl LogShared {
    /// Sets when `group`'s write on device `lane`, tried at `at` after
    /// `retries` failed attempts, ends: each failed attempt is counted and
    /// retried after the group's backoff ([`WRITE_RETRY`]).
    fn write(&self, lane: usize, group: &mut Group, mut at: Instant, mut retries: u64) {
        group.end = loop {
            match self.devices[lane].write(at, group.bytes) {
                Ok(end) => break end,
                Err((failed, _)) => (at, retries) = (failed + group.failed(), retries + 1),
            }
        };
        self.write_retries.fetch_add(retries, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.write_retries.add(retries);
        }
    }

    /// Completes the group that ended first, if one ended by `now`: its
    /// frames go to the file, its records turn stable, and its waiting
    /// callbacks move to `out`. One the file did not take is retried.
    fn complete_next(
        &self,
        state: &mut LogState,
        now: Instant,
        out: &mut Vec<Callback>,
    ) -> Option<Range<u64>> {
        loop {
            let lane = (0..state.lanes.len())
                .filter(|&i| state.lanes[i].front().is_some_and(|g| g.end <= now))
                .min_by_key(|&i| state.lanes[i].front().map(|g| g.end))?;
            let seqs = state.lanes[lane].front().expect("a due group").seqs.clone();
            if state.write_file(seqs.clone(), false).is_err() {
                let group = state.lanes[lane].front_mut().expect("a due group");
                let at = now + group.failed();
                self.write(lane, group, at, 1);
                continue;
            }
            state.lanes[lane].pop_front();
            let base = state.base;
            let slots = (seqs.start - base) as usize..(seqs.end - base) as usize;
            state.slots.range_mut(slots).for_each(|slot| slot.stable = true);
            state.stable += seqs.end - seqs.start;
            state.pop_gone();
            state.take_callbacks(seqs.clone(), out);
            return Some(seqs);
        }
    }

    /// Starts every group whose start has come by `now`, on the device
    /// free first: a group takes the records appended by its start.
    fn schedule(&self, state: &mut LogState, now: Instant) {
        while let Some(&(first, _)) = state.queued.front() {
            let (lane, free_at) = (state.lanes.iter().map(|lane| lane.back().map(|g| g.end)))
                .enumerate()
                .min_by_key(|&(_, free_at)| free_at)
                .expect("a log has a device");
            let start = free_at.map_or(first, |free_at| free_at.max(first));
            if start > now {
                return;
            }
            let n = state.queued.iter().take(MAX_BATCH).take_while(|(at, _)| *at <= start).count();
            let from = state.appended() - state.queued.len() as u64;
            let bytes: usize = state.queued.drain(..n).map(|(_, len)| len as usize).sum();
            // A transient fault fails the whole attempt, retried after a
            // small exponential backoff until the write sticks.
            let seqs = from..from + n as u64;
            let mut group = Group { seqs, bytes, end: start, failures: 0 };
            self.write(lane, &mut group, start, 0);
            if let Some(obs) = self.obs.get() {
                obs.write_us.record_duration(group.end - start);
                obs.batch_groups.record(n as u64);
            }
            state.lanes[lane].push_back(group);
        }
    }

    /// Completes every group that has ended, in end order, running each
    /// one's callbacks unlocked, then lets waiters through.
    fn poll(&self) {
        let now = Instant::now();
        let mut state = self.state.lock();
        self.schedule(&mut state, now);
        let mut callbacks = std::mem::take(&mut state.spare);
        let mut completed = false;
        while let Some(seqs) = self.complete_next(&mut state, now, &mut callbacks) {
            completed = true;
            if callbacks.is_empty() {
                continue;
            }
            state.draining.push(seqs.clone());
            // Loops because a callback may subscribe another to the group.
            while !callbacks.is_empty() {
                drop(state);
                callbacks.drain(..).for_each(|callback| callback());
                state = self.state.lock();
                state.take_callbacks(seqs.clone(), &mut callbacks);
            }
            state.draining.retain(|group| *group != seqs);
        }
        state.spare = callbacks;
        drop(state);
        if completed {
            self.stable_cv.notify_all();
        }
    }

    /// Polls until `done` holds, sleeping until the next group ends (or
    /// another thread's callbacks finish) in between.
    fn wait_until(&self, done: impl Fn(&LogState) -> bool) {
        loop {
            self.poll();
            let mut state = self.state.lock();
            if done(&state) {
                return;
            }
            match state.next_due() {
                Some(due) => {
                    let now = Instant::now();
                    if due > now {
                        self.stable_cv.wait_for(&mut state, due - now);
                    }
                }
                None => self.stable_cv.wait(&mut state),
            }
        }
    }
}

/// The stable decision log: N parallel storage points with group commit.
///
/// Cheap to clone; all clones share the same log. It runs no thread: its
/// devices are timelines that every read of the log advances.
#[derive(Clone)]
pub struct StableLog {
    shared: Arc<LogShared>,
}

impl fmt::Debug for StableLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StableLog")
            .field("devices", &self.shared.devices.len())
            .field("stable", &self.shared.state.lock().stable)
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
        let lanes = devices.iter().map(|_| VecDeque::new()).collect();
        let state = LogState { lanes, ..LogState::default() };
        StableLog {
            shared: Arc::new(LogShared {
                devices,
                state: Mutex::new(state),
                stable_cv: Condvar::new(),
                corrupt_dropped: AtomicU64::new(0),
                write_retries: AtomicU64::new(0),
                obs: OnceLock::new(),
                waker: OnceLock::new(),
            }),
        }
    }

    /// A log over `specs` whose groups also go to the file at `path`, holding
    /// its intact records ([`StableLog::read_file`]) as stable; appends follow
    /// the highest. While the file cannot be written, no group turns stable.
    pub fn open(specs: Vec<DiskSpec>, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let log = StableLog::new(specs);
        let mut state = log.shared.state.lock();
        let (records, intact) = read_frames(&path);
        state.base = records.first().map_or(0, |(seq, _)| seq.0);
        for (LogSeq(seq), record) in records {
            let at = (seq - state.base) as usize;
            state.slots.resize(at, Slot::GONE);
            let checksum = crc32::checksum(&record).to_le_bytes();
            let pos = state.image.push([&checksum, &record]);
            state.slots.push_back(Slot { pos, len: record.len() as u32 + 4, stable: true });
        }
        (state.stable, state.watermark) = (state.appended(), state.base);
        // New frames follow the intact ones: a torn tail is cut off first.
        let file = OpenOptions::new().create(true).append(true).open(&path);
        let append = file.and_then(|file| file.set_len(intact).map(|()| file)).ok();
        state.file = Some(LogFile { path, append });
        drop(state);
        log
    }

    /// The intact records of the log file at `path` with their sequence
    /// numbers, in sequence order: the read stops at the first frame that
    /// fails its checksum or is cut short, and a missing file holds none.
    pub fn read_file(path: &Path) -> Vec<(LogSeq, Vec<u8>)> {
        read_frames(path).0
    }

    /// Appends one record asynchronously; the returned ticket resolves when
    /// the record is stable. The log frames it with a CRC32 checksum so
    /// recovery reads can detect a torn or corrupted tail. When the record
    /// makes a group end sooner than any in flight, the owner's waker is
    /// signalled.
    pub fn append(&self, record: impl AsRef<[u8]>) -> LogTicket {
        let record = record.as_ref();
        let len = u32::try_from(record.len() + 4).expect("a log record is under 4 GiB");
        let checksum = crc32::checksum(record).to_le_bytes();
        let (seq, sooner) = {
            let mut state = self.shared.state.lock();
            let now = Instant::now();
            let seq = state.appended();
            let slot = if seq >= state.watermark {
                Slot { pos: state.image.push([&checksum, record]), len, stable: false }
            } else {
                Slot::UNWRITTEN
            };
            state.slots.push_back(slot);
            state.queued.push_back((now, len));
            let due = state.next_due();
            self.shared.schedule(&mut state, now);
            let sooner = state.next_due().is_some_and(|next| due.is_none_or(|due| next < due));
            (seq, sooner)
        };
        if sooner {
            if let Some(wake) = self.shared.waker.get() {
                wake();
            }
        }
        LogTicket { log: self.shared.clone(), seq: LogSeq(seq) }
    }

    /// Completes every group whose write has ended by now, running the
    /// callbacks subscribed to its records on this thread.
    pub fn poll(&self) {
        self.shared.poll();
    }

    /// When the next group in flight ends — the instant a later
    /// [`StableLog::poll`] completes something — or `None` when nothing is
    /// in flight.
    pub fn next_due(&self) -> Option<Instant> {
        let mut state = self.shared.state.lock();
        self.shared.schedule(&mut state, Instant::now());
        state.next_due()
    }

    /// Sets the waker of the log's owner, the thread that parks until
    /// [`StableLog::next_due`]: an append that makes a group end sooner
    /// signals it. A log has one owner; a second call changes nothing.
    pub fn set_waker(&self, wake: impl Fn() + Send + Sync + 'static) {
        let _ = self.shared.waker.set(Box::new(wake));
    }

    /// Every stable record with its sequence number, in sequence order,
    /// CRC validated. The first corrupt record truncates the log from
    /// there onward — a torn tail must not panic recovery, only shorten
    /// the replayable suffix (upstream replay re-derives the rest).
    pub fn stable_entries(&self) -> Vec<(LogSeq, Vec<u8>)> {
        self.shared.poll();
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
            let dropped = state.drop_frames(from..u64::MAX, false);
            let _ = state.write_file(0..0, true);
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

    /// Prunes records with sequence `< upto` (after a checkpoint), in the
    /// file too. Also applies to records still in flight, and to ones
    /// appended later below `upto`: they turn stable but never readable.
    pub fn truncate_below(&self, upto: LogSeq) {
        let mut state = self.shared.state.lock();
        state.watermark = state.watermark.max(upto.0);
        state.drop_frames(0..upto.0, true);
        let _ = state.write_file(0..0, true);
    }

    /// Records appended so far (stable or not).
    pub fn appended(&self) -> u64 {
        self.shared.state.lock().appended()
    }

    /// Records stable so far (a read: it completes the groups that have
    /// ended).
    pub fn stable_len(&self) -> u64 {
        self.shared.poll();
        self.shared.state.lock().stable
    }

    /// Blocks until everything appended so far is stable.
    pub fn flush(&self) {
        let target = self.appended();
        self.shared.wait_until(|state| state.stable >= target);
    }

    /// The underlying devices (for statistics).
    pub fn devices(&self) -> &[Arc<StorageDevice>] {
        &self.shared.devices
    }

    /// Completes everything appended so far: a [`StableLog::flush`]. The
    /// log runs no thread, so there is nothing else to stop; it stays
    /// usable.
    pub fn shutdown(&self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// The k-th retry of a failed group write waits min(100 µs · 2^(k−1),
    /// 5 ms).
    #[test]
    fn write_retries_double_from_100us_to_5ms() {
        let now = Instant::now();
        let mut group = Group { seqs: 0..1, bytes: 1, end: now, failures: 0 };
        let waits: Vec<u64> = (0..9).map(|_| group.failed().as_micros() as u64).collect();
        assert_eq!(waits, [100, 200, 400, 800, 1_600, 3_200, 5_000, 5_000, 5_000]);
        assert_eq!(group.failures, 9);
    }

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
    fn shutdown_completes_everything_appended() {
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
    fn back_to_back_groups_cost_exactly_their_write() {
        // One record every 100 µs for 100 ms keeps one 2 ms device busy: a
        // group starts where the last one ended (or, after the appending
        // thread was held up past a whole write, at its next append) and
        // ends one write later, however late anyone looks. The test keeps
        // that timeline from its own instants around each append — a
        // group starts no later than the log's, and holds a record only if
        // the log's does or an earlier one — and checks each record 1 ms
        // after its group's end: a group that ran long pushes every later
        // one back.
        let (write, slack) = (Duration::from_millis(2), Duration::from_millis(1));
        let log = StableLog::new(vec![DiskSpec::simulated(write)]);
        let t0 = Instant::now();
        let (mut tickets, mut group_of, mut ends) = (Vec::new(), Vec::new(), Vec::<Instant>::new());
        let mut checked = 0;
        let mut check = |tickets: &[LogTicket], group_of: &[usize], ends: &[Instant]| {
            while checked < tickets.len() && ends[group_of[checked]] + slack <= Instant::now() {
                let group = group_of[checked];
                assert!(tickets[checked].is_stable(), "group {group} ended more than 1 ms ago");
                checked += 1;
            }
        };
        for i in 0..1_000u32 {
            let due = t0 + Duration::from_micros(100) * i;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let before = Instant::now();
            tickets.push(log.append(i.to_le_bytes()));
            if ends.last().is_none_or(|&end| Instant::now() > end - write) {
                ends.push(ends.last().map_or(before, |&end| end.max(before)) + write);
            }
            group_of.push(ends.len() - 1);
            check(&tickets, &group_of, &ends);
        }
        assert!(ends.len() >= 40, "{} groups in 100 ms of 2 ms writes", ends.len());
        // The first 50 groups (the 50th ends 100 ms in when nothing held
        // the appends up), each checked once its end is 1 ms past.
        let fiftieth = group_of.iter().take_while(|&&group| group < 50).count();
        let last = ends[group_of[fiftieth - 1]] + slack;
        std::thread::sleep(last.saturating_duration_since(Instant::now()));
        check(&tickets[..fiftieth], &group_of, &ends);
        assert!(checked >= fiftieth);
    }

    #[test]
    fn a_record_appended_after_its_group_started_waits_for_the_next() {
        let write = Duration::from_millis(10);
        let log = StableLog::new(vec![DiskSpec::simulated(write)]);
        let before = Instant::now();
        let first = log.append(b"first");
        std::thread::sleep(Duration::from_millis(2));
        let late = log.append(b"late");
        first.wait();
        assert!(!late.is_stable(), "a late record rode a group that started before it");
        assert!(before.elapsed() >= write);
        late.wait();
        assert!(before.elapsed() >= write * 2, "the late record's group ended early");
        assert_eq!(log.devices()[0].write_count(), 2);
    }

    #[test]
    fn next_due_is_the_earliest_end_and_a_sooner_one_wakes_the_owner() {
        let log = StableLog::new(vec![DiskSpec::simulated(Duration::from_millis(20)); 2]);
        let wakes = Arc::new(AtomicU32::new(0));
        let w = wakes.clone();
        log.set_waker(move || {
            w.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(log.next_due(), None, "nothing in flight");
        let before = Instant::now();
        let a = log.append(b"a");
        let due = log.next_due().expect("a group in flight");
        assert!(due >= before + Duration::from_millis(20));
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "the first group wakes the owner");
        // The second device takes the next record: a later end, no wake.
        log.append(b"b");
        // Both devices busy: the record waits in the queue, no wake.
        log.append(b"c");
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert_eq!(log.next_due(), Some(due));
        log.poll();
        assert!(Instant::now() >= due || !a.is_stable());
        log.flush();
        assert_eq!(log.next_due(), None);
    }

    #[test]
    fn a_stall_delays_the_next_groups_end() {
        let write = Duration::from_millis(2);
        let log = StableLog::new(vec![DiskSpec::simulated(write)]);
        log.devices()[0].stall_for(Duration::from_millis(10));
        let start = Instant::now();
        log.append(b"stalled").wait();
        assert!(
            start.elapsed() >= Duration::from_millis(10) + write,
            "the stall did not hold the group"
        );
        let start = Instant::now();
        log.append(b"after").wait();
        assert!(start.elapsed() < Duration::from_millis(10), "the window outlived itself");
    }

    #[test]
    fn every_record_turns_stable_under_faults_and_each_retry_is_counted() {
        let spec = DiskSpec::simulated(Duration::from_micros(200)).with_fault_rate(0.3);
        let log = StableLog::new(vec![spec]);
        let tickets: Vec<_> = (0..40u8)
            .map(|i| {
                let ticket = log.append([i]);
                ticket.wait();
                ticket
            })
            .collect();
        assert!(tickets.iter().all(LogTicket::is_stable));
        assert_eq!(records(&log), (0..40u8).map(|i| vec![i]).collect::<Vec<_>>());
        let dev = &log.devices()[0];
        assert!(log.write_retries() > 0, "0.3 fault rate produced no retries");
        assert_eq!(log.write_retries(), dev.fault_count(), "one retry per failed attempt");
        assert_eq!(dev.write_count(), 40, "one successful write per group");
    }

    /// A file in a fresh directory under the temp dir, which the caller
    /// removes.
    fn scratch_file(name: &str) -> (PathBuf, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("streammine-log-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), dir.join("worker0.log"))
    }

    /// A log reopened from its file reads back what was stable, under the
    /// same sequence numbers, and appends after it; a frame cut short or
    /// with a flipped bit ends the read there.
    #[test]
    fn a_reopened_file_reads_back_and_a_torn_frame_ends_it() {
        let (dir, path) = scratch_file("reopen");
        std::fs::create_dir_all(&dir).unwrap();
        let log = StableLog::open(vec![DiskSpec::simulated(Duration::from_micros(200)); 2], &path);
        for i in 0..6u8 {
            log.append(vec![i; 3 + i as usize]);
        }
        log.flush();
        log.truncate_below(LogSeq(2));
        let kept = log.stable_entries();
        assert_eq!(StableLog::read_file(&path), kept);
        let log = StableLog::open(vec![DiskSpec::simulated(Duration::ZERO)], &path);
        assert_eq!(log.stable_entries(), kept);
        let next = log.append(b"next");
        assert_eq!(next.seq(), LogSeq(6), "a reopened log appends after the highest record");
        next.wait();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert_eq!(StableLog::read_file(&path), kept, "a torn last frame is no record");
        let mut flipped = bytes.clone();
        // The first payload byte of seq 3's frame, after seq 2's 16 + 4 + 5.
        flipped[25 + 16 + 4] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(StableLog::read_file(&path), kept[..1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write the file does not take is a failed device attempt: the
    /// group is retried, counted, and nothing turns stable until the file
    /// holds it.
    #[test]
    fn a_group_the_file_does_not_take_is_retried_and_stays_unstable() {
        let (dir, path) = scratch_file("missing");
        let log = StableLog::open(vec![DiskSpec::simulated(Duration::from_micros(100))], &path);
        let ticket = log.append(b"held");
        std::thread::sleep(Duration::from_millis(20));
        assert!(!ticket.is_stable(), "stable on a record the file does not hold");
        assert!(log.write_retries() > 0, "a failed file write is a retried attempt");
        std::fs::create_dir_all(&dir).unwrap();
        ticket.wait();
        assert_eq!(StableLog::read_file(&path), vec![(LogSeq(0), b"held".to_vec())]);
        let _ = std::fs::remove_dir_all(&dir);
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
