//! Checkpoint store.
//!
//! Stateful operators periodically checkpoint their local state so that the
//! decision log can be truncated and recovery does not need to replay the
//! stream from the beginning (§2.2). A checkpoint records the state
//! snapshot together with the log sequence number it covers and where each
//! input stream stands ([`InputFrontier`]); recovery restores the latest checkpoint and replays only the log
//! suffix.
//!
//! Stored checkpoints are CRC32-framed: [`CheckpointStore::latest`] skips a
//! corrupted newest checkpoint (torn mid-write by a crash) and falls back
//! to the previous one instead of panicking.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use streammine_common::codec::{decode_from_slice, Decode, DecodeError, Decoder, Encode, Encoder};
use streammine_common::crc32;
use streammine_obs::{Counter, Histogram, Journal, Labels, Obs};

use crate::disk::{DiskSpec, StorageDevice};
use crate::log::LogSeq;

/// Observability hooks for one checkpoint store, attached by the engine.
/// Without them the store is silent; with them save timing and
/// degradation counters mirror into the registry and give-up/corruption
/// events warn through the journal instead of stderr.
#[derive(Clone, Debug)]
pub struct CheckpointObs {
    /// Owning operator index, used as the metric/journal label.
    pub op: u32,
    /// Journal receiving degradation warnings.
    pub journal: Arc<Journal>,
    /// Device write duration per save, microseconds (`checkpoint.save_us`).
    pub save_us: Histogram,
    /// Checkpoints saved (`checkpoint.saves`).
    pub saves: Counter,
    /// Mirror of [`CheckpointStore::save_retries`] (`checkpoint.save_retries`).
    pub save_retries: Counter,
    /// Mirror of [`CheckpointStore::corrupt_skipped`] (`checkpoint.corrupt_skipped`).
    pub corrupt_skipped: Counter,
}

impl CheckpointObs {
    /// Registers the checkpoint metrics of operator `op` in an [`Obs`]
    /// bundle.
    pub fn registered(obs: &Obs, op: u32) -> CheckpointObs {
        let labels = Labels::op(op);
        CheckpointObs {
            op,
            journal: obs.journal.clone(),
            save_us: obs.registry.histogram("checkpoint.save_us", labels),
            saves: obs.registry.counter("checkpoint.saves", labels),
            save_retries: obs.registry.counter("checkpoint.save_retries", labels),
            corrupt_skipped: obs.registry.counter("checkpoint.corrupt_skipped", labels),
        }
    }
}

/// Where one input stream stands at a checkpoint: the durable part of an
/// operator's per-port frontier. Recovery rewinds the port to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InputFrontier {
    /// The link sequence read next: replay of the stream starts here.
    pub position: u64,
    /// Data events read below `position` (a frame may carry several, or
    /// none). A receiver that resumes the edge in a new process tells its
    /// sender this count, and the sender swallows that many.
    pub events: u64,
    /// Every upstream event whose id sequence is below it is covered by
    /// the snapshot. A sender that recovers later re-sends such events
    /// under fresh link sequences, and the operator's memory of the ids it
    /// consumed dies with it: this is what lets it drop them all the same.
    pub covered_below: u64,
}

impl Encode for InputFrontier {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.position);
        enc.put_u64(self.events);
        enc.put_u64(self.covered_below);
    }
}

impl Decode for InputFrontier {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(InputFrontier {
            position: dec.get_u64()?,
            events: dec.get_u64()?,
            covered_below: dec.get_u64()?,
        })
    }
}

/// One stored checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Monotone checkpoint id, assigned by [`CheckpointStore::save`].
    pub id: u64,
    /// The snapshot covers all log records with sequence `< covers_log`.
    pub covers_log: LogSeq,
    /// Number of events the operator had fully processed at snapshot time
    /// (the serial counter resumes here).
    pub events_processed: u64,
    /// Per input port: where the stream stands.
    pub inputs: Vec<InputFrontier>,
    /// Per-output-edge count of data events the operator had sent when the
    /// snapshot was taken. Recovery replays only the post-checkpoint
    /// suffix, so the difference between the link's live send counter and
    /// this value is exactly the number of re-executed outputs that are
    /// already on the wire and must not be re-sent.
    pub outputs_sent: Vec<u64>,
    /// Serialized operator state.
    pub state: Vec<u8>,
    /// Serialized operator RNG state: restoring it keeps the random stream
    /// continuous across a crash, so re-executed events that were never
    /// logged still draw the same values the failure-free run drew.
    pub rng_state: Vec<u8>,
}

impl Encode for Checkpoint {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_u64(self.covers_log.0);
        enc.put_u64(self.events_processed);
        self.inputs.encode(enc);
        self.outputs_sent.encode(enc);
        enc.put_bytes(&self.state);
        enc.put_bytes(&self.rng_state);
    }
}

impl Decode for Checkpoint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Checkpoint {
            id: dec.get_u64()?,
            covers_log: LogSeq(dec.get_u64()?),
            events_processed: dec.get_u64()?,
            inputs: Vec::<InputFrontier>::decode(dec)?,
            outputs_sent: Vec::<u64>::decode(dec)?,
            state: dec.get_bytes()?,
            rng_state: dec.get_bytes()?,
        })
    }
}

/// Durable store holding the most recent checkpoints of one operator.
///
/// Writes are charged to a [`StorageDevice`] like log writes; the store
/// keeps the last two checkpoints (the newest may be mid-write during a
/// crash in a real system; recovery code falls back when the newest frame
/// fails its CRC check).
pub struct CheckpointStore {
    device: Arc<StorageDevice>,
    /// CRC-framed encoded checkpoints, oldest first (at most 2).
    kept: Mutex<Vec<Vec<u8>>>,
    next_id: Mutex<u64>,
    corrupt_skipped: AtomicU64,
    save_retries: AtomicU64,
    /// Approximate-recovery error budget, durable with the checkpoints:
    /// updates permanently missing from the persisted state lineage
    /// (baked in when a checkpoint whose window dropped them is saved).
    approx_loss: AtomicU64,
    /// Precise recovery cycles forced by budget exhaustion.
    approx_escalations: AtomicU64,
    /// When set, every save atomically rewrites this file with the kept
    /// frames and budget counters, and a store built by a respawned
    /// process preloads it — checkpoint durability across real process
    /// crashes, not just in-process restarts.
    persist_path: Mutex<Option<PathBuf>>,
    obs: Mutex<Option<CheckpointObs>>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore").field("kept", &self.kept.lock().len()).finish()
    }
}

/// Give up persisting a checkpoint after this many failed device writes;
/// the in-memory copy still serves recovery, and the next checkpoint
/// retries the device.
const MAX_SAVE_ATTEMPTS: u32 = 32;

impl CheckpointStore {
    /// Creates a store writing through a device with the given spec.
    pub fn new(spec: DiskSpec) -> Self {
        CheckpointStore {
            device: Arc::new(StorageDevice::new(spec, 0xC4EC_4901)),
            kept: Mutex::new(Vec::new()),
            next_id: Mutex::new(0),
            corrupt_skipped: AtomicU64::new(0),
            save_retries: AtomicU64::new(0),
            approx_loss: AtomicU64::new(0),
            approx_escalations: AtomicU64::new(0),
            persist_path: Mutex::new(None),
            obs: Mutex::new(None),
        }
    }

    /// Binds the store to a filesystem path: an existing image at `path`
    /// is loaded first (checkpoints, id counter, and error-budget
    /// counters — the respawn case), then every save atomically rewrites
    /// the file. Returns `true` when a previous image was restored.
    pub fn attach_file(&self, path: PathBuf) -> bool {
        let loaded = self.load_image(&path);
        *self.persist_path.lock() = Some(path);
        loaded
    }

    fn load_image(&self, path: &Path) -> bool {
        let Ok(bytes) = std::fs::read(path) else { return false };
        let Some(payload) = crc32::unframe(&bytes) else {
            self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let mut dec = Decoder::new(payload);
        let image = (|| -> Result<_, DecodeError> {
            let next_id = dec.get_u64()?;
            let loss = dec.get_u64()?;
            let escalations = dec.get_u64()?;
            let frames = dec.get_u32()? as usize;
            if frames > 2 {
                return Err(DecodeError::InvalidTag { type_name: "CheckpointImage", tag: 0 });
            }
            let mut kept = Vec::with_capacity(frames);
            for _ in 0..frames {
                kept.push(dec.get_bytes()?);
            }
            Ok((next_id, loss, escalations, kept))
        })();
        let Ok((next_id, loss, escalations, kept)) = image else {
            self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        *self.next_id.lock() = next_id;
        self.approx_loss.store(loss, Ordering::Relaxed);
        self.approx_escalations.store(escalations, Ordering::Relaxed);
        *self.kept.lock() = kept;
        true
    }

    /// Rewrites the persist file (when bound) from the current kept
    /// frames and counters: temp file + rename, so a crash mid-write
    /// leaves the previous image intact.
    fn persist(&self, kept: &[Vec<u8>]) -> std::io::Result<()> {
        let Some(path) = self.persist_path.lock().clone() else { return Ok(()) };
        let mut enc = Encoder::new();
        enc.put_u64(*self.next_id.lock());
        enc.put_u64(self.approx_loss.load(Ordering::Relaxed));
        enc.put_u64(self.approx_escalations.load(Ordering::Relaxed));
        enc.put_u32(kept.len() as u32);
        for frame in kept {
            enc.put_bytes(frame);
        }
        let framed = crc32::frame(enc.into_vec());
        let tmp = path.with_extension("tmp");
        let wrote = std::fs::write(&tmp, &framed).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = &wrote {
            if let Some(obs) = self.obs.lock().clone() {
                obs.journal.warn(
                    Some(obs.op),
                    "checkpoint-persist-failed",
                    format!("could not persist checkpoint image to {}: {e}", path.display()),
                );
            }
        }
        wrote
    }

    /// Updates permanently missing from the persisted state lineage
    /// (approximate recovery's realized loss, baked at checkpoint time).
    pub fn approx_loss(&self) -> u64 {
        self.approx_loss.load(Ordering::Relaxed)
    }

    /// Bakes `n` dropped updates into the durable loss counter: the
    /// state lineage saved from here on is missing them forever.
    pub fn add_approx_loss(&self, n: u64) {
        self.approx_loss.fetch_add(n, Ordering::Relaxed);
    }

    /// Precise recovery cycles forced by budget exhaustion.
    pub fn approx_escalations(&self) -> u64 {
        self.approx_escalations.load(Ordering::Relaxed)
    }

    /// Records a budget-exhaustion escalation.
    pub fn note_escalation(&self) {
        self.approx_escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// Attaches observability hooks (save timing, degradation counters,
    /// journal warnings).
    pub fn attach_obs(&self, obs: CheckpointObs) {
        *self.obs.lock() = Some(obs);
    }

    /// Synchronously writes `cp` under the next id (whatever id it
    /// carries); returns it with that id.
    ///
    /// Blocks for the device's modeled write duration — operators call this
    /// from a background thread or accept the pause, exactly the trade-off
    /// the paper's speculation hides. Transient device faults are retried
    /// with backoff up to a bound.
    ///
    /// # Errors
    ///
    /// When the store is bound to a file ([`CheckpointStore::attach_file`])
    /// and the image did not reach it. The checkpoint is still kept in
    /// memory, but a new process would not find it, so nothing may be
    /// acknowledged on its strength.
    pub fn save(&self, mut cp: Checkpoint) -> std::io::Result<Checkpoint> {
        cp.id = {
            let mut next = self.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let framed = crc32::frame(cp.encode_to_vec());
        let obs = self.obs.lock().clone();
        let save_start = std::time::Instant::now();
        let mut retries = 0u64;
        let mut delay = Duration::from_micros(100);
        for attempt in 1..=MAX_SAVE_ATTEMPTS {
            if self.device.write(framed.len()).is_ok() {
                break;
            }
            retries += 1;
            self.save_retries.fetch_add(1, Ordering::Relaxed);
            if attempt == MAX_SAVE_ATTEMPTS {
                if let Some(obs) = &obs {
                    obs.journal.warn(
                        Some(obs.op),
                        "checkpoint-write-gave-up",
                        format!("giving up on device write after {attempt} attempts"),
                    );
                }
                break;
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(5));
        }
        if let Some(obs) = &obs {
            obs.save_us.record_duration(save_start.elapsed());
            obs.saves.incr();
            obs.save_retries.add(retries);
        }
        let mut kept = self.kept.lock();
        kept.push(framed);
        let excess = kept.len().saturating_sub(2);
        if excess > 0 {
            kept.drain(..excess);
        }
        self.persist(&kept)?;
        Ok(cp)
    }

    /// The most recent *valid* checkpoint, if any.
    ///
    /// A checkpoint whose CRC frame fails validation (torn by a crash
    /// mid-write) is skipped in favor of the previous one.
    pub fn latest(&self) -> Option<Checkpoint> {
        let kept = self.kept.lock();
        for framed in kept.iter().rev() {
            if let Some(payload) = crc32::unframe(framed) {
                if let Ok(cp) = decode_from_slice::<Checkpoint>(payload) {
                    return Some(cp);
                }
            }
            self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.obs.lock().clone() {
                obs.corrupt_skipped.incr();
                obs.journal.warn(
                    Some(obs.op),
                    "checkpoint-corrupt-frame",
                    "skipping corrupt checkpoint frame, falling back".to_string(),
                );
            }
        }
        None
    }

    /// Number of checkpoints retained (at most 2).
    pub fn retained(&self) -> usize {
        self.kept.lock().len()
    }

    /// Corrupt checkpoint frames skipped during [`CheckpointStore::latest`].
    pub fn corrupt_skipped(&self) -> u64 {
        self.corrupt_skipped.load(Ordering::Relaxed)
    }

    /// Device writes retried after transient faults.
    pub fn save_retries(&self) -> u64 {
        self.save_retries.load(Ordering::Relaxed)
    }

    /// Flips one bit in the newest stored checkpoint frame, simulating a
    /// crash mid-write (fault injection). Returns `false` when empty.
    pub fn corrupt_latest(&self) -> bool {
        let mut kept = self.kept.lock();
        if let Some(byte) = kept.last_mut().and_then(|frame| frame.last_mut()) {
            *byte ^= 0x40;
            return true;
        }
        false
    }

    /// Checkpoint write statistics from the underlying device.
    pub fn device(&self) -> &Arc<StorageDevice> {
        &self.device
    }
}

/// Convenience: a checkpoint store with effectively free writes, for tests.
pub fn instant_store() -> CheckpointStore {
    CheckpointStore::new(DiskSpec::simulated(Duration::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::codec::roundtrip;

    /// An image of `state` at serial `events`, covering the log below `log`.
    fn image(log: u64, events: u64, state: &[u8]) -> Checkpoint {
        Checkpoint {
            covers_log: LogSeq(log),
            events_processed: events,
            state: state.to_vec(),
            ..Checkpoint::default()
        }
    }

    fn at(position: u64, events: u64, covered_below: u64) -> InputFrontier {
        InputFrontier { position, events, covered_below }
    }

    #[test]
    fn save_and_restore_latest() {
        let store = instant_store();
        assert!(store.latest().is_none());
        store.save(Checkpoint { inputs: vec![at(3, 3, 0)], ..image(10, 7, b"state-a") }).unwrap();
        let cp = store
            .save(Checkpoint {
                id: 9,
                inputs: vec![at(7, 5, 6), at(9, 11, 8)],
                outputs_sent: vec![11],
                rng_state: b"rng".to_vec(),
                ..image(20, 16, b"state-b")
            })
            .unwrap();
        assert_eq!(cp.id, 1);
        let latest = store.latest().unwrap();
        assert_eq!(latest.state, b"state-b".to_vec());
        assert_eq!(latest.covers_log, LogSeq(20));
        assert_eq!(latest.events_processed, 16);
        assert_eq!(latest.id, 1, "the store assigns the id");
        assert_eq!(latest.inputs, vec![at(7, 5, 6), at(9, 11, 8)]);
        assert_eq!(latest.rng_state, b"rng".to_vec());
    }

    #[test]
    fn keeps_at_most_two() {
        let store = instant_store();
        for i in 0..5u64 {
            store.save(image(i, i, &[i as u8])).unwrap();
        }
        assert_eq!(store.retained(), 2);
        assert_eq!(store.latest().unwrap().id, 4);
    }

    #[test]
    fn checkpoint_roundtrips_through_codec() {
        let cp = Checkpoint {
            id: 3,
            covers_log: LogSeq(99),
            events_processed: 42,
            inputs: vec![at(1, 1, 7), at(2, 5, 8), at(3, 2, 9)],
            outputs_sent: vec![4, 5],
            state: vec![0xAB; 16],
            rng_state: vec![0xCD; 32],
        };
        assert_eq!(roundtrip(&cp).unwrap(), cp);
    }

    #[test]
    fn checkpoint_write_is_charged_to_device() {
        let store = instant_store();
        store.save(image(0, 0, &[1, 2, 3])).unwrap();
        assert_eq!(store.device().write_count(), 1);
        assert!(store.device().bytes_written() > 0);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let store = instant_store();
        store.save(image(5, 3, b"old")).unwrap();
        store.save(image(9, 6, b"new")).unwrap();
        assert!(store.corrupt_latest());
        let latest = store.latest().unwrap();
        assert_eq!(latest.state, b"old".to_vec());
        assert_eq!(store.corrupt_skipped(), 1);
    }

    #[test]
    fn all_corrupt_yields_none() {
        let store = instant_store();
        store.save(image(1, 1, b"only")).unwrap();
        assert!(store.corrupt_latest());
        assert!(store.latest().is_none());
    }

    #[test]
    fn attached_obs_mirrors_saves_and_corruption() {
        use streammine_obs::JournalKind;
        let obs = Obs::tracing();
        let store = instant_store();
        store.attach_obs(CheckpointObs::registered(&obs, 5));
        store.save(image(1, 1, b"a")).unwrap();
        store.save(image(2, 2, b"b")).unwrap();
        assert_eq!(obs.registry.counter_value("checkpoint.saves", Labels::op(5)), Some(2));
        let save_us = obs.registry.histogram_snapshot("checkpoint.save_us", Labels::op(5)).unwrap();
        assert_eq!(save_us.count(), 2);

        assert!(store.corrupt_latest());
        assert!(store.latest().is_some(), "must fall back to the previous checkpoint");
        assert_eq!(
            obs.registry.counter_value("checkpoint.corrupt_skipped", Labels::op(5)),
            Some(1)
        );
        let warned = obs.journal.count_matching(|e| {
            matches!(&e.kind, JournalKind::Warn { code: "checkpoint-corrupt-frame", .. })
                && e.op == Some(5)
        });
        assert_eq!(warned, 1);
    }

    fn temp_path(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU32;
        static UNIQ: AtomicU32 = AtomicU32::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("streammine-ckpt-{}-{tag}-{n}.ckpt", std::process::id()))
    }

    #[test]
    fn persisted_image_survives_a_new_store() {
        let path = temp_path("roundtrip");
        let store = instant_store();
        assert!(!store.attach_file(path.clone()), "no image yet");
        store.save(image(3, 9, b"alpha")).unwrap();
        store.save(Checkpoint { rng_state: b"rng".to_vec(), ..image(6, 18, b"beta") }).unwrap();
        store.add_approx_loss(7);
        store.note_escalation();
        // Counters changed after the last save land with the next one.
        store.save(image(9, 27, b"gamma")).unwrap();

        let respawned = instant_store();
        assert!(respawned.attach_file(path.clone()), "image must load");
        let latest = respawned.latest().unwrap();
        assert_eq!(latest.state, b"gamma".to_vec());
        assert_eq!(latest.events_processed, 27);
        assert_eq!(respawned.retained(), 2, "both kept frames persist");
        assert_eq!(respawned.approx_loss(), 7);
        assert_eq!(respawned.approx_escalations(), 1);
        // The id counter continues instead of colliding.
        let cp = respawned.save(image(12, 36, b"delta")).unwrap();
        assert_eq!(cp.id, 3);
        let _ = std::fs::remove_file(&path);
    }

    /// A save whose image cannot reach its file says so (and warns): a new
    /// process would not find it, so its caller must not act on it. Once
    /// the file is writable again, the next save persists both kept frames.
    #[test]
    fn a_save_that_misses_its_file_fails() {
        use streammine_obs::JournalKind;
        let dir = temp_path("gone").with_extension("d");
        let path = dir.join("worker0.ckpt");
        let obs = Obs::tracing();
        let store = instant_store();
        store.attach_obs(CheckpointObs::registered(&obs, 2));
        assert!(!store.attach_file(path.clone()), "no image yet");
        let missed = store.save(image(1, 4, b"a"));
        assert!(missed.is_err(), "the directory does not exist, yet the save succeeded");
        let warned = obs.journal.count_matching(|e| {
            matches!(&e.kind, JournalKind::Warn { code: "checkpoint-persist-failed", .. })
                && e.op == Some(2)
        });
        assert_eq!(warned, 1);

        std::fs::create_dir(&dir).unwrap();
        store.save(image(2, 8, b"b")).unwrap();
        let respawned = instant_store();
        assert!(respawned.attach_file(path), "image must load");
        assert_eq!(respawned.retained(), 2);
        assert_eq!(respawned.latest().unwrap().events_processed, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_persist_file_is_ignored() {
        let path = temp_path("torn");
        let store = instant_store();
        store.attach_file(path.clone());
        store.save(image(1, 1, b"x")).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let respawned = instant_store();
        assert!(!respawned.attach_file(path.clone()), "torn image must not load");
        assert!(respawned.latest().is_none());
        assert_eq!(respawned.corrupt_skipped(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_survives_transient_device_faults() {
        let store = CheckpointStore::new(DiskSpec::simulated(Duration::ZERO).with_fault_rate(0.9));
        for i in 0..5u64 {
            store.save(image(i, i, &[i as u8])).unwrap();
        }
        assert_eq!(store.latest().unwrap().id, 4);
        assert!(store.save_retries() > 0, "0.9 fault rate produced no retries");
    }
}
