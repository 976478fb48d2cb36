//! A small, self-contained binary wire format.
//!
//! StreamMine needs to serialize events, determinant-log records, checkpoints
//! and link frames. No serde *format* crate is available in the offline crate
//! set, so this module provides a minimal hand-rolled codec over [`bytes`]:
//! little-endian fixed-width integers, length-prefixed byte strings, and
//! composite impls for the standard containers the framework uses.
//!
//! The format is not self-describing; both sides must agree on the schema,
//! which is always the case here (same binary on both ends of a simulated
//! link).
//!
//! # Example
//!
//! ```
//! use streammine_common::codec::{encode_to_vec, decode_from_slice};
//!
//! let v: Vec<u64> = vec![1, 2, 3];
//! let bytes = encode_to_vec(&v);
//! let back: Vec<u64> = decode_from_slice(&bytes)?;
//! assert_eq!(back, v);
//! # Ok::<(), streammine_common::codec::DecodeError>(())
//! ```

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Error produced when decoding malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// How many bytes the decoder needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A tag byte did not correspond to any known variant.
    InvalidTag {
        /// The type being decoded.
        type_name: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the configured sanity bound.
    LengthOverflow(u64),
    /// Bytes declared as UTF-8 were not valid UTF-8.
    InvalidUtf8,
    /// Trailing bytes remained after a complete value was decoded.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected end of input: needed {needed} bytes, {remaining} remaining")
            }
            DecodeError::InvalidTag { type_name, tag } => {
                write!(f, "invalid tag {tag} while decoding {type_name}")
            }
            DecodeError::LengthOverflow(len) => {
                write!(f, "length prefix {len} exceeds sanity bound")
            }
            DecodeError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum length accepted for any length-prefixed field (64 MiB).
///
/// Decision-log records and checkpoints in the experiments are tiny; the
/// bound exists to turn corrupted length prefixes into clean errors instead
/// of huge allocations.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

/// Streaming encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: BytesMut::with_capacity(cap) }
    }

    /// Creates an encoder writing into a caller-provided scratch buffer,
    /// typically borrowed from [`crate::buf`]. The buffer is cleared first;
    /// recover it (with the encoded bytes) via [`Encoder::into_scratch`].
    pub fn from_scratch(mut scratch: Vec<u8>) -> Self {
        scratch.clear();
        Encoder { buf: BytesMut::from(scratch) }
    }

    /// Tears the encoder down into its underlying buffer, so a scratch
    /// buffer's grown capacity can be returned to the pool it came from.
    pub fn into_scratch(self) -> Vec<u8> {
        self.buf.into()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding and returns the immutable buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finishes encoding into a `Vec<u8>`.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.to_vec()
    }
}

/// Streaming decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::UnexpectedEof { needed: n, remaining: self.buf.remaining() })
        } else {
            Ok(())
        }
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_u64()?;
        if len > MAX_LEN {
            return Err(DecodeError::LengthOverflow(len));
        }
        let len = len as usize;
        self.need(len)?;
        let mut out = vec![0u8; len];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    /// Reads a length-prefixed count for a container, bounds-checked.
    pub fn get_len(&mut self) -> Result<usize, DecodeError> {
        let len = self.get_u64()?;
        if len > MAX_LEN {
            return Err(DecodeError::LengthOverflow(len));
        }
        Ok(len as usize)
    }
}

/// Types that can serialize themselves into an [`Encoder`].
pub trait Encode {
    /// Appends this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encodes into a fresh `Vec<u8>`.
    ///
    /// The encoder works in a pooled thread-local scratch buffer
    /// ([`crate::buf`]), so the growth reallocations of encoding happen
    /// once per thread rather than once per record; only the exact-size
    /// result vector is allocated per call.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut enc = Encoder::from_scratch(crate::buf::take());
        self.encode(&mut enc);
        let scratch = enc.into_scratch();
        let out = scratch.as_slice().to_vec();
        crate::buf::give(scratch);
        out
    }

    /// Encodes into `out` (cleared first), reusing its capacity — for
    /// callers that hold a long-lived buffer and want zero allocations.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut enc = Encoder::from_scratch(std::mem::take(out));
        self.encode(&mut enc);
        *out = enc.into_scratch();
    }
}

/// Types that can deserialize themselves from a [`Decoder`].
pub trait Decode: Sized {
    /// Reads one value from `dec`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Encodes a value into a fresh vector.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    value.encode_to_vec()
}

/// Decodes exactly one value from `bytes`, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated/malformed input or trailing bytes.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let v = T::decode(&mut dec)?;
    if dec.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(dec.remaining()));
    }
    Ok(v)
}

/// Encode-then-decode helper used pervasively in tests.
///
/// # Errors
///
/// Propagates any [`DecodeError`] from the decode half.
pub fn roundtrip<T: Encode + Decode>(value: &T) -> Result<T, DecodeError> {
    decode_from_slice(&encode_to_vec(value))
}

macro_rules! impl_codec_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                dec.$get()
            }
        }
    };
}

impl_codec_prim!(u8, put_u8, get_u8);
impl_codec_prim!(u16, put_u16, get_u16);
impl_codec_prim!(u32, put_u32, get_u32);
impl_codec_prim!(u64, put_u64, get_u64);
impl_codec_prim!(i64, put_i64, get_i64);
impl_codec_prim!(f64, put_f64, get_f64);

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::InvalidTag { type_name: "bool", tag }),
        }
    }
}

impl Encode for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_len()
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bytes = dec.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl Encode for str {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.get_len()?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            tag => Err(DecodeError::InvalidTag { type_name: "Option", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&0xABu8).unwrap(), 0xAB);
        assert_eq!(roundtrip(&0xBEEFu16).unwrap(), 0xBEEF);
        assert_eq!(roundtrip(&0xDEAD_BEEFu32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(roundtrip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(roundtrip(&i64::MIN).unwrap(), i64::MIN);
        assert!(roundtrip(&true).unwrap());
        assert!(!roundtrip(&false).unwrap());
        let f = roundtrip(&3.25f64).unwrap();
        assert_eq!(f, 3.25);
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![String::from("a"), String::from("bb"), String::new()];
        assert_eq!(roundtrip(&v).unwrap(), v);
        let o: Option<u64> = Some(7);
        assert_eq!(roundtrip(&o).unwrap(), o);
        let n: Option<u64> = None;
        assert_eq!(roundtrip(&n).unwrap(), n);
        let t = (1u32, String::from("x"), vec![1u8, 2, 3]);
        assert_eq!(roundtrip(&t).unwrap(), t);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = encode_to_vec(&u64::MAX);
        let err = decode_from_slice::<u64>(&bytes[..5]).unwrap_err();
        assert!(matches!(err, DecodeError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        let err = decode_from_slice::<u32>(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes(1));
    }

    #[test]
    fn invalid_bool_tag_is_an_error() {
        let err = decode_from_slice::<bool>(&[9]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { type_name: "bool", tag: 9 }));
    }

    #[test]
    fn oversized_length_prefix_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_u64(MAX_LEN + 1);
        let err = decode_from_slice::<Vec<u8>>(&enc.into_vec()).unwrap_err();
        assert!(matches!(err, DecodeError::LengthOverflow(_)));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xFF, 0xFE]);
        let err = decode_from_slice::<String>(&enc.into_vec()).unwrap_err();
        assert_eq!(err, DecodeError::InvalidUtf8);
    }

    #[test]
    fn scratch_encoder_reuses_capacity_and_matches_fresh_encoding() {
        let v: Vec<u64> = (0..64).collect();
        let fresh = {
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            enc.into_vec()
        };
        let scratch = Vec::with_capacity(1024);
        let ptr = scratch.as_ptr();
        let mut enc = Encoder::from_scratch(scratch);
        v.encode(&mut enc);
        let back = enc.into_scratch();
        assert_eq!(back, fresh);
        assert_eq!(back.as_ptr(), ptr, "encoding must stay in the provided buffer");
    }

    #[test]
    fn encode_into_reuses_the_output_buffer() {
        let mut out = Vec::with_capacity(256);
        let ptr = out.as_ptr();
        7u64.encode_into(&mut out);
        assert_eq!(out, encode_to_vec(&7u64));
        assert_eq!(out.as_ptr(), ptr);
        // A second value replaces, not appends.
        9u64.encode_into(&mut out);
        assert_eq!(out, encode_to_vec(&9u64));
    }

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msg = DecodeError::InvalidUtf8.to_string();
        assert!(msg.starts_with("invalid"));
    }
}
