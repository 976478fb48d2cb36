//! The StreamMine event model.
//!
//! An [`Event`] is the unit of data flowing through an operator graph. Every
//! event carries:
//!
//! * an [`EventId`] — `(creating operator, sequence number)`, stable across
//!   re-emissions;
//! * a `version` — bumped each time a *speculative* event is re-emitted with
//!   different content after a rollback (§3.1 of the paper: `E₁′`, `E₁″`);
//! * a logical `timestamp` in microseconds;
//! * a `speculative` flag — a speculative event may later be revoked or
//!   replaced, a *final* event never changes (§2.3);
//! * a typed [`Value`] payload.

use std::fmt;
use std::sync::Arc;

use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use crate::ids::EventId;

/// Microseconds since an arbitrary epoch; the logical event time.
pub type Timestamp = u64;

/// Dynamically typed event payload.
///
/// ESP operators in the paper are plain C functions over untyped buffers; in
/// Rust we model payloads as a small algebraic value type so the operator
/// library (filters, aggregations, joins, sketches) can be written once and
/// composed freely.
///
/// Payload buffers (`Str`, `Bytes`, `Record`) are reference-counted:
/// `clone()` is an O(1) refcount bump, so fanning an event out to N
/// downstream edges, snapshotting it for a speculative attempt, or holding
/// it in an output queue all share one allocation. Values are immutable —
/// an operator that wants a changed payload builds a new `Value` (copy on
/// write), so a shared buffer can never be mutated under a sibling branch
/// or a pending rollback snapshot.
///
/// ```
/// use streammine_common::event::Value;
/// let v = Value::record(vec![Value::from(1i64), Value::from("sym")]);
/// assert_eq!(v.field(1).and_then(Value::as_str), Some("sym"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// Signed 64-bit integer.
    Int(i64),
    /// IEEE-754 double.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string (shared, immutable).
    Str(Arc<str>),
    /// Raw bytes (shared, immutable).
    Bytes(Arc<[u8]>),
    /// Ordered tuple of values (a record / row; shared, immutable).
    Record(Arc<[Value]>),
}

impl Value {
    /// Builds a `Value::Record` from owned fields.
    pub fn record(fields: Vec<Value>) -> Value {
        Value::Record(fields.into())
    }

    /// Builds a `Value::Bytes` from owned bytes.
    pub fn bytes(bytes: Vec<u8>) -> Value {
        Value::Bytes(bytes.into())
    }

    /// Returns the integer if this is a `Value::Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float if this is a `Value::Float` (or an exact `Int`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a `Value::Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Value::Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the bytes if this is a `Value::Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b.as_ref()),
            _ => None,
        }
    }

    /// Returns field `i` if this is a `Value::Record`.
    pub fn field(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields.get(i),
            _ => None,
        }
    }

    /// Returns the record fields if this is a `Value::Record`.
    pub fn fields(&self) -> Option<&[Value]> {
        match self {
            Value::Record(fields) => Some(fields.as_ref()),
            _ => None,
        }
    }

    /// A stable 64-bit hash of the value, used for routing and sketching.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over the encoded form: deterministic across processes,
        // unlike `std::collections::hash_map::DefaultHasher`.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        // Hashing is hot (routing, sketching): encode into a pooled
        // scratch buffer and hash in place, so a warm thread allocates
        // nothing here.
        crate::buf::with_scratch(|scratch| {
            self.encode_into(scratch);
            let mut h = OFFSET;
            for &b in scratch.iter() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => {
                write!(f, "0x{}", b.iter().map(|x| format!("{x:02x}")).collect::<String>())
            }
            Value::Record(fields) => {
                write!(f, "(")?;
                for (i, v) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v.into())
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Record(v.into())
    }
}

impl Encode for Value {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Value::Null => enc.put_u8(0),
            Value::Int(v) => {
                enc.put_u8(1);
                enc.put_i64(*v);
            }
            Value::Float(v) => {
                enc.put_u8(2);
                enc.put_f64(*v);
            }
            Value::Bool(v) => {
                enc.put_u8(3);
                enc.put_u8(u8::from(*v));
            }
            Value::Str(s) => {
                enc.put_u8(4);
                enc.put_bytes(s.as_bytes());
            }
            Value::Bytes(b) => {
                enc.put_u8(5);
                enc.put_bytes(b);
            }
            Value::Record(fields) => {
                enc.put_u8(6);
                enc.put_u64(fields.len() as u64);
                for v in fields.iter() {
                    v.encode(enc);
                }
            }
        }
    }
}

impl Decode for Value {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => Value::Null,
            1 => Value::Int(dec.get_i64()?),
            2 => Value::Float(dec.get_f64()?),
            3 => Value::Bool(dec.get_u8()? != 0),
            4 => Value::Str(
                String::from_utf8(dec.get_bytes()?).map_err(|_| DecodeError::InvalidUtf8)?.into(),
            ),
            5 => Value::Bytes(dec.get_bytes()?.into()),
            6 => {
                let len = dec.get_len()?;
                let mut fields = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    fields.push(Value::decode(dec)?);
                }
                Value::Record(fields.into())
            }
            tag => return Err(DecodeError::InvalidTag { type_name: "Value", tag }),
        })
    }
}

/// Causal trace context riding on a sampled event.
///
/// `id` names the end-to-end trace (derived deterministically from the
/// source operator and sequence number, so a precise recovery reproduces
/// the identical context) and `parent` names the span — keyed by
/// `(operator, serial)` — whose processing emitted this event, `0` for an
/// event stamped at a source. Untraced events carry no context at all:
/// the unsampled hot path pays one `Option` discriminant, nothing more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace identity, shared by every span the traced event touches.
    pub id: u64,
    /// Span id of the causal parent hop (`0` = stamped at a source).
    pub parent: u64,
}

impl TraceCtx {
    /// A root context as stamped by a source (no causal parent).
    pub fn root(id: u64) -> TraceCtx {
        TraceCtx { id, parent: 0 }
    }

    /// A child context: same trace, emitted by span `parent`.
    pub fn child(&self, parent: u64) -> TraceCtx {
        TraceCtx { id: self.id, parent }
    }
}

impl Encode for TraceCtx {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_u64(self.parent);
    }
}

impl Decode for TraceCtx {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TraceCtx { id: dec.get_u64()?, parent: dec.get_u64()? })
    }
}

/// A data event flowing through the graph.
///
/// Equality compares full content (id, version, timestamp, speculative flag,
/// payload and trace context), which is what the precise-recovery tests rely
/// on: a precise recovery must reproduce *identical* events — including the
/// deterministic trace context.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Stable identity (creating operator + sequence number).
    pub id: EventId,
    /// Re-emission version; 0 for the first emission. A speculative event
    /// whose content changed after rollback is re-sent with `version + 1`.
    pub version: u32,
    /// Logical event time in microseconds.
    pub timestamp: Timestamp,
    /// `true` while the event may still be revoked or replaced.
    pub speculative: bool,
    /// The payload.
    pub payload: Value,
    /// Causal trace context (`None` for unsampled events).
    pub trace: Option<TraceCtx>,
}

impl Event {
    /// Creates a *final* event with version 0.
    pub fn new(id: EventId, timestamp: Timestamp, payload: Value) -> Self {
        Event { id, version: 0, timestamp, speculative: false, payload, trace: None }
    }

    /// Creates a *speculative* event with version 0.
    pub fn speculative(id: EventId, timestamp: Timestamp, payload: Value) -> Self {
        Event { id, version: 0, timestamp, speculative: true, payload, trace: None }
    }

    /// Returns this event with the given trace context attached.
    #[must_use]
    pub fn traced(mut self, trace: Option<TraceCtx>) -> Event {
        self.trace = trace;
        self
    }

    /// Returns `true` if the event is final (will never change).
    pub fn is_final(&self) -> bool {
        !self.speculative
    }

    /// Returns a copy marked final, keeping id/version/content.
    ///
    /// Used when an upstream speculation is confirmed: the confirmation
    /// refers to `(id, version)` and flips only the flag.
    pub fn finalized(&self) -> Event {
        let mut ev = self.clone();
        ev.speculative = false;
        ev
    }

    /// Returns a re-emission of this event with new content and a bumped
    /// version, still speculative. The trace context is preserved: a
    /// revision is the same causal event.
    pub fn reissue(&self, payload: Value) -> Event {
        Event {
            id: self.id,
            version: self.version + 1,
            timestamp: self.timestamp,
            speculative: true,
            payload,
            trace: self.trace,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}v{}{} @{} {}",
            self.id,
            self.version,
            if self.speculative { "?" } else { "" },
            self.timestamp,
            self.payload
        )
    }
}

impl Encode for Event {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        enc.put_u32(self.version);
        enc.put_u64(self.timestamp);
        enc.put_u8(u8::from(self.speculative));
        self.payload.encode(enc);
        match &self.trace {
            None => enc.put_u8(0),
            Some(ctx) => {
                enc.put_u8(1);
                ctx.encode(enc);
            }
        }
    }
}

impl Decode for Event {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Event {
            id: EventId::decode(dec)?,
            version: dec.get_u32()?,
            timestamp: dec.get_u64()?,
            speculative: dec.get_u8()? != 0,
            payload: Value::decode(dec)?,
            trace: match dec.get_u8()? {
                0 => None,
                1 => Some(TraceCtx::decode(dec)?),
                tag => return Err(DecodeError::InvalidTag { type_name: "TraceCtx", tag }),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;
    use crate::ids::OperatorId;

    fn id(seq: u64) -> EventId {
        EventId::new(OperatorId::new(1), seq)
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::from(5i64).as_i64(), Some(5));
        assert_eq!(Value::from(5i64).as_f64(), Some(5.0));
        assert_eq!(Value::from(2.5f64).as_f64(), Some(2.5));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::Null.as_i64(), None);
        let rec = Value::record(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(rec.field(0), Some(&Value::Int(1)));
        assert_eq!(rec.field(2), None);
        assert_eq!(rec.fields().unwrap().len(), 2);
    }

    #[test]
    fn value_roundtrips_through_codec() {
        let values = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(6.5),
            Value::Bool(true),
            Value::Str("hello".into()),
            Value::bytes(vec![0, 255, 128]),
            Value::record(vec![Value::Int(1), Value::record(vec![Value::Null])]),
        ];
        for v in values {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_discriminating() {
        let a = Value::from("abc").stable_hash();
        let b = Value::from("abc").stable_hash();
        let c = Value::from("abd").stable_hash();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Int and Float with the same bits must not collide via tagging.
        assert_ne!(Value::Int(0).stable_hash(), Value::Float(0.0).stable_hash());
    }

    #[test]
    fn event_finality_transitions() {
        let ev = Event::speculative(id(0), 100, Value::Int(1));
        assert!(!ev.is_final());
        let fin = ev.finalized();
        assert!(fin.is_final());
        assert_eq!(fin.id, ev.id);
        assert_eq!(fin.version, ev.version);
        assert_eq!(fin.payload, ev.payload);
    }

    #[test]
    fn reissue_bumps_version_and_stays_speculative() {
        let ev = Event::speculative(id(3), 50, Value::Int(1));
        let re = ev.reissue(Value::Int(2));
        assert_eq!(re.id, ev.id);
        assert_eq!(re.version, 1);
        assert!(re.speculative);
        assert_eq!(re.payload, Value::Int(2));
        assert_eq!(re.timestamp, ev.timestamp);
    }

    #[test]
    fn event_roundtrips_through_codec() {
        let ev = Event {
            id: id(9),
            version: 3,
            timestamp: 1_000_000,
            speculative: true,
            payload: Value::record(vec![Value::Int(5), Value::Str("x".into())]),
            trace: None,
        };
        assert_eq!(roundtrip(&ev).unwrap(), ev);
    }

    #[test]
    fn traced_event_roundtrips_and_trace_survives_transitions() {
        let ctx = TraceCtx::root(0xDEAD_BEEF);
        let ev = Event::speculative(id(4), 10, Value::Int(1)).traced(Some(ctx));
        assert_eq!(roundtrip(&ev).unwrap(), ev);
        // Finalize keeps the context; reissue keeps it too (a revision is
        // the same causal event); a child context keeps the trace id.
        assert_eq!(ev.finalized().trace, Some(ctx));
        assert_eq!(ev.reissue(Value::Int(2)).trace, Some(ctx));
        let child = ctx.child(77);
        assert_eq!(child.id, ctx.id);
        assert_eq!(child.parent, 77);
        assert_eq!(roundtrip(&child).unwrap(), child);
    }

    #[test]
    fn clone_is_refcount_bump_sharing_buffers() {
        // Str: the clone must point at the same allocation.
        let s = Value::from("shared payload string");
        let s2 = s.clone();
        assert_eq!(
            s.as_str().unwrap().as_ptr(),
            s2.as_str().unwrap().as_ptr(),
            "Str clone must share the buffer"
        );

        // Bytes likewise.
        let b = Value::bytes(vec![1, 2, 3, 4]);
        let b2 = b.clone();
        assert_eq!(
            b.as_bytes().unwrap().as_ptr(),
            b2.as_bytes().unwrap().as_ptr(),
            "Bytes clone must share the buffer"
        );

        // Record likewise — and nested buffers are shared transitively.
        let r = Value::record(vec![Value::from("inner"), Value::Int(9)]);
        let r2 = r.clone();
        assert_eq!(
            r.fields().unwrap().as_ptr(),
            r2.fields().unwrap().as_ptr(),
            "Record clone must share the field slice"
        );
        assert_eq!(
            r.field(0).unwrap().as_str().unwrap().as_ptr(),
            r2.field(0).unwrap().as_str().unwrap().as_ptr(),
            "nested Str must be shared through a Record clone"
        );
    }

    #[test]
    fn event_clone_shares_payload_with_original() {
        let ev = Event::new(id(1), 5, Value::from("fan-out payload"));
        let for_edge_a = ev.clone();
        let for_edge_b = ev.clone();
        let p = ev.payload.as_str().unwrap().as_ptr();
        assert_eq!(for_edge_a.payload.as_str().unwrap().as_ptr(), p);
        assert_eq!(for_edge_b.payload.as_str().unwrap().as_ptr(), p);
        // The finalized copy (confirmation) also shares the buffer.
        let fin = Event::speculative(id(2), 5, Value::from("spec")).finalized();
        assert!(fin.is_final());
    }

    #[test]
    fn display_is_informative() {
        let ev = Event::speculative(id(2), 7, Value::Int(1));
        let s = ev.to_string();
        assert!(s.contains("op1#2"));
        assert!(s.contains('?'));
    }
}
