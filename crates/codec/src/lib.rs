//! Versioned, checksummed, length-prefixed binary codec.
//!
//! This is the serialization substrate for everything the BGLA stack
//! persists or ships: durable process snapshots (crash recovery), the
//! interned proof store, and — by design — the wire transport the
//! ROADMAP networking item needs. It is deliberately tiny and
//! dependency-free: a [`Writer`]/[`Reader`] pair with two integer forms
//! (below), a [`Wire`] trait with impls for the std building blocks, and
//! a self-describing *frame* wrapper.
//!
//! # Integers
//!
//! An integer that *counts* something — a collection length, a process
//! id, a round, a timestamp, an rbcast tag, a sequence number — is a
//! **varint** ([`Writer::var`], [`Reader::var`], [`var_len`]): unsigned
//! LEB128, seven value bits per byte, least significant group first, the
//! high bit set on every byte but the last. Such numbers stay small in
//! every run, so they cost one or two bytes instead of eight.
//! [`Writer::usize`]/[`Reader::usize`]/[`Reader::seq_len`] and `impl Wire
//! for usize` are varints.
//!
//! What is *opaque* stays fixed-width little-endian: a proposed value
//! (`impl Wire for u64` — a uniformly random 64-bit word would cost 9–10
//! bytes as LEB128), voter-bitset words, signatures, keys, hashes, the
//! frame checksum, and the 16-byte frame header that a stream reader
//! pulls before it knows the length. The type cannot tell a counter from
//! a word, so the choice is made where a field is written: messages and
//! the scalar fields of snapshots say [`Writer::var`]; a generic container
//! of `u64` (a snapshot's map keyed by round) takes the `u64` impl and
//! stays fixed-width.
//!
//! A varint has exactly one accepted encoding, the shortest: a padded one
//! (a trailing `0x00` group) is [`CodecError::Invalid`], as is one that
//! does not fit 64 bits.
//!
//! # Frame format
//!
//! ```text
//! +-------+---------+--------+---------+-----------+----------+
//! | magic | version |  kind  |   len   |  payload  | checksum |
//! | BGLA  |   u16   |  u16   |   u64   | len bytes |   u64    |
//! +-------+---------+--------+---------+-----------+----------+
//! ```
//!
//! The header integers and the checksum are fixed-width little-endian.
//! `kind` is a caller-defined tag (snapshot type, message type) checked
//! on decode so a WTS snapshot can never be misread as an SbS one.
//! `checksum` is FNV-1a-64 over every preceding byte (magic through
//! payload): it detects disk and wire *corruption* — truncation, bit
//! flips, torn writes — not adversarial tampering, which the protocol
//! layer handles with real signatures. Decoding rejects trailing bytes,
//! non-canonical encodings (unsorted sets, padded varints, non-minimal
//! tags) and anything the target type's invariants refuse, so
//! `decode(encode(x)) == x` and every accepted byte string has exactly
//! one meaning.
//!
//! # Canonicality
//!
//! Ordered collections encode in their natural order and decoding
//! enforces *strictly* ascending keys: an encoding with duplicated or
//! shuffled elements is rejected as [`CodecError::Invalid`] rather
//! than silently re-canonicalized, and a varint is accepted in its
//! shortest form only. This keeps the encoding injective, which the
//! content-addressed proof store relies on.
//!
//! # Shared parts
//!
//! An encoding may say a part once that the decoded value holds many
//! times (a proof of safety says its acks' echoed request set once; a
//! proven payload names an echoed record by its position).
//! Work that walks the decoded value then grows with the value spelled
//! out, not with the input. [`Reader::reuse`] charges each further use
//! of such a part, and a decode fails once its input plus those charges
//! pass [`MAX_SPELLED_OUT`], so a few input bytes can never stand for
//! more than one frame could carry with every part repeated.

use std::fmt;

/// Current frame format version. Bump on any incompatible layout
/// change, or when what a stored signature covers changes (8: signed
/// records sign their own encoding); decoders reject other versions as
/// [`CodecError::BadVersion`].
pub const FRAME_VERSION: u16 = 8;

/// The 4-byte frame magic.
pub const FRAME_MAGIC: [u8; 4] = *b"BGLA";

/// Fixed frame overhead: magic + version + kind + len + checksum.
pub const FRAME_OVERHEAD: usize = 4 + 2 + 2 + 8 + 8;

/// Most bytes one decode may spell out: its input plus every further use
/// of a shared part ([`Reader::reuse`]). It is the largest payload a
/// transport frame carries, so a decoded value is never larger than one
/// frame could hold with each shared part repeated at every use.
pub const MAX_SPELLED_OUT: usize = 64 * 1024 * 1024;

/// Why a decode was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the encoding did.
    Truncated,
    /// Frame does not start with `BGLA`.
    BadMagic,
    /// Frame version is not [`FRAME_VERSION`].
    BadVersion(u16),
    /// Frame kind tag differs from the expected one.
    BadKind {
        /// Tag the caller asked for.
        expected: u16,
        /// Tag found in the frame header.
        found: u16,
    },
    /// Frame length field disagrees with the actual byte count.
    BadLength,
    /// FNV-1a-64 checksum mismatch (bit flip / torn write).
    BadChecksum,
    /// A structurally valid read produced a value the target type
    /// rejects (bad enum tag, unsorted set, invalid UTF-8…).
    Invalid(&'static str),
    /// Decoding finished with unconsumed input left over.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported frame version {v} (expected {FRAME_VERSION})"
                )
            }
            CodecError::BadKind { expected, found } => {
                write!(f, "frame kind mismatch: expected {expected}, found {found}")
            }
            CodecError::BadLength => write!(f, "frame length field inconsistent"),
            CodecError::BadChecksum => write!(f, "checksum mismatch (corrupt frame)"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash — the frame checksum. Not cryptographic; the
/// threat here is corruption, not forgery.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes [`Writer::var`] spends on `v`: one per started group of seven
/// significant bits, 1 (`v < 128`) to 10.
#[inline]
pub const fn var_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Append-only byte sink, or a counter of the bytes it would append.
///
/// [`Writer::counting`] builds one that stores nothing and allocates
/// nothing: every [`Wire::wire_size`] is an encode into it, so a size is
/// the encoding's length by construction. The methods a count runs are
/// `#[inline]`: the simulator meters every send through them, from
/// other crates.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// `Some(n)` in a counting writer: `n` bytes counted, none stored.
    counted: Option<usize>,
}

impl Writer {
    /// A fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer that counts what it is given and stores none of it.
    #[inline]
    pub fn counting() -> Writer {
        Writer {
            buf: Vec::new(),
            counted: Some(0),
        }
    }

    /// Bytes written (or counted) so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, returning the encoded bytes (none for a
    /// counting writer).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// How a type that caches its encoded length is sized without a
    /// walk: a counting writer counts `len` bytes and returns `true`; a
    /// storing writer returns `false`, and the caller encodes.
    #[inline]
    pub fn counted(&mut self, len: usize) -> bool {
        match &mut self.counted {
            Some(n) => {
                *n += len;
                true
            }
            None => false,
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a varint (see the module docs): the shortest LEB128
    /// encoding of `v`.
    #[inline]
    pub fn var(&mut self, mut v: u64) {
        if self.counted(var_len(v)) {
            return;
        }
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a `usize` as a varint.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.var(v as u64);
    }

    /// Appends raw bytes (no length prefix — callers add their own).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        if !self.counted(v.len()) {
            self.buf.extend_from_slice(v);
        }
    }
}

/// Bounds-checked byte source.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The input's length plus every [`Reader::reuse`] charge so far.
    spelled: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            spelled: buf.len(),
        }
    }

    /// Charges one more use of a shared part of `n` bytes, one the input
    /// says once and the decoded value holds again. Fails once the input
    /// plus every charge passes [`MAX_SPELLED_OUT`].
    pub fn reuse(&mut self, n: usize) -> Result<(), CodecError> {
        self.spelled = self.spelled.saturating_add(n);
        if self.spelled > MAX_SPELLED_OUT {
            return Err(CodecError::Invalid(
                "shared parts spelled out past the limit",
            ));
        }
        Ok(())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Consumes the next `N` bytes as a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.bytes(N)?.try_into().map_err(|_| CodecError::Truncated)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(|[b]| b)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a varint, accepting only what [`Writer::var`] writes: a
    /// padded encoding (last group zero) or one beyond 64 bits is
    /// rejected, so every value has exactly one byte string.
    pub fn var(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            // The tenth group holds bit 63 alone and ends the number.
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(CodecError::Invalid("varint not minimal"));
                }
                return Ok(v);
            }
        }
        Err(CodecError::Invalid("varint overflow"))
    }

    /// Reads a varint and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.var()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads a collection length and sanity-checks it against the
    /// remaining input (every element costs at least one byte), so a
    /// corrupted length can't trigger a pathological allocation.
    pub fn seq_len(&mut self) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Succeeds only when every input byte was consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Binary serialization to/from the BGLA codec.
///
/// `decode` must accept exactly the strings `encode` produces and
/// reject everything else (wrong tags, unsorted collections, trailing
/// garbage is rejected by the framing helpers).
pub trait Wire: Sized {
    /// Appends the encoding of `self`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value, consuming exactly its encoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Length of the encoding: an [`Wire::encode`] into a
    /// [`Writer::counting`], so it allocates nothing. A type that caches
    /// its length answers [`Writer::counted`] with it and skips the walk.
    #[inline]
    fn wire_size(&self) -> usize {
        let mut w = Writer::counting();
        self.encode(&mut w);
        w.len()
    }
}

/// Encodes a bare (unframed) payload.
pub fn encode_payload<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a bare payload, requiring full consumption.
pub fn decode_payload<T: Wire>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

/// Encodes `value` inside a versioned, checksummed frame tagged `kind`.
pub fn encode_frame<T: Wire>(kind: u16, value: &T) -> Vec<u8> {
    let payload = encode_payload(value);
    let mut w = Writer::new();
    w.bytes(&FRAME_MAGIC);
    w.u16(FRAME_VERSION);
    w.u16(kind);
    w.u64(payload.len() as u64);
    w.bytes(&payload);
    let sum = fnv1a64(&w.buf);
    w.u64(sum);
    w.into_bytes()
}

/// Validates a frame's envelope (magic, version, length, checksum)
/// and returns its kind tag without touching the payload. This is
/// what a snapshot store runs at load time to detect corruption
/// before anything is deserialized.
pub fn verify_frame(bytes: &[u8]) -> Result<u16, CodecError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(CodecError::Truncated);
    }
    let mut r = Reader::new(bytes);
    if r.bytes(4)? != FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != FRAME_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = r.u16()?;
    let len = r.u64()?;
    let body = bytes.len() - FRAME_OVERHEAD;
    if len != body as u64 {
        // Distinguish "file cut short" from "length field nonsense".
        return if len > body as u64 {
            Err(CodecError::Truncated)
        } else {
            Err(CodecError::BadLength)
        };
    }
    let split = bytes.len().checked_sub(8).ok_or(CodecError::Truncated)?;
    let mut tail = Reader::new(bytes.get(split..).ok_or(CodecError::Truncated)?);
    let sum = tail.u64()?;
    if fnv1a64(bytes.get(..split).ok_or(CodecError::Truncated)?) != sum {
        return Err(CodecError::BadChecksum);
    }
    Ok(kind)
}

/// Decodes a frame produced by [`encode_frame`], checking magic,
/// version, kind tag, length, and checksum before deserializing.
pub fn decode_frame<T: Wire>(kind: u16, bytes: &[u8]) -> Result<T, CodecError> {
    let found = verify_frame(bytes)?;
    if found != kind {
        return Err(CodecError::BadKind {
            expected: kind,
            found,
        });
    }
    let end = bytes.len().checked_sub(8).ok_or(CodecError::Truncated)?;
    decode_payload(bytes.get(16..end).ok_or(CodecError::Truncated)?)
}

macro_rules! wire_int {
    ($t:ty, $put:ident, $get:ident) => {
        impl Wire for $t {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    };
}

wire_int!(u8, u8, u8);
wire_int!(u16, u16, u16);
wire_int!(u32, u32, u32);
wire_int!(u64, u64, u64);
wire_int!(usize, usize, usize);

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let raw = r.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Invalid("utf-8"))
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.bytes(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.array()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Wire + Ord> Wire for std::collections::BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let mut out = std::collections::BTreeSet::new();
        let mut prev: Option<T> = None;
        for _ in 0..n {
            let item = T::decode(r)?;
            if let Some(p) = prev.take() {
                if p >= item {
                    return Err(CodecError::Invalid("set not strictly ascending"));
                }
                out.insert(p);
            }
            prev = Some(item);
        }
        if let Some(p) = prev {
            out.insert(p);
        }
        Ok(out)
    }
}

impl<K: Wire + Ord + Clone, V: Wire> Wire for std::collections::BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len()?;
        let mut out = std::collections::BTreeMap::new();
        let mut prev: Option<K> = None;
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            if let Some(p) = &prev {
                if *p >= k {
                    return Err(CodecError::Invalid("map keys not strictly ascending"));
                }
            }
            prev = Some(k.clone());
            out.insert(k, v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn var_bytes(v: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.var(v);
        w.into_bytes()
    }

    fn read_var(bytes: &[u8]) -> Result<u64, CodecError> {
        let mut r = Reader::new(bytes);
        let v = r.var()?;
        r.expect_end()?;
        Ok(v)
    }

    /// Both sides of every length boundary: `2^7k − 1` is the last value
    /// of `k` bytes, `2^7k` the first of `k + 1`.
    #[test]
    fn varint_roundtrips_at_every_length_boundary() {
        assert_eq!(var_bytes(0), [0]);
        assert_eq!(var_bytes(127), [0x7f]);
        assert_eq!(var_bytes(128), [0x80, 0x01]);
        assert_eq!(var_bytes(300), [0xac, 0x02]);
        for k in 1..=9usize {
            for (v, len) in [((1u64 << (7 * k)) - 1, k), (1u64 << (7 * k), k + 1)] {
                let bytes = var_bytes(v);
                assert_eq!((bytes.len(), var_len(v)), (len, len), "{v}");
                assert_eq!(read_var(&bytes), Ok(v));
            }
        }
        let max = var_bytes(u64::MAX);
        assert_eq!((max.len(), var_len(u64::MAX), max[9]), (10, 10, 1));
        assert_eq!(read_var(&max), Ok(u64::MAX));
    }

    #[test]
    fn varint_overflow_and_truncation_are_told_apart() {
        let overflow = Err(CodecError::Invalid("varint overflow"));
        // A tenth byte may only say "bit 63, and I am the last".
        for tenth in [2, 0x7f, 0x80, 0x81, 0xff] {
            let mut bytes = vec![0xff; 9];
            bytes.extend([tenth, 0]);
            assert_eq!(Reader::new(&bytes).var(), overflow, "tenth byte {tenth:#x}");
        }
        assert_eq!(Reader::new(&[0x80; 11]).var(), overflow);
        for cut in 0..10 {
            assert_eq!(read_var(&[0xff; 10][..cut]), Err(CodecError::Truncated));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `bits` spreads the cases over all ten encoded lengths.
        #[test]
        fn varint_roundtrips_and_var_len_is_the_encoded_length(raw: u64, bits: u8) {
            let v = raw >> (bits % 64);
            let bytes = var_bytes(v);
            prop_assert_eq!(bytes.len(), var_len(v));
            prop_assert_eq!(read_var(&bytes), Ok(v));
            let as_len = var_bytes(v as usize as u64);
            prop_assert_eq!(Reader::new(&as_len).usize(), Ok(v as usize));
        }

        /// Every way of writing `v` in more bytes than needed is refused:
        /// zero groups up to the tenth byte are padding, beyond it overflow.
        #[test]
        fn every_padded_varint_is_refused(raw: u64, bits: u8) {
            let v = raw >> (bits % 64);
            let minimal = var_bytes(v);
            for total in minimal.len() + 1..=12 {
                let mut padded = minimal.clone();
                padded.resize(total, 0x80);
                padded[minimal.len() - 1] |= 0x80;
                padded[total - 1] = 0;
                let expected = if total <= 10 { "varint not minimal" } else { "varint overflow" };
                prop_assert_eq!(read_var(&padded), Err(CodecError::Invalid(expected)));
            }
        }
    }

    #[test]
    fn primitive_roundtrips() {
        let mut w = Writer::new();
        0xABu8.encode(&mut w);
        0x1234u16.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        0x0102_0304_0506_0708u64.encode(&mut w);
        true.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::decode(&mut r).unwrap(), 0x1234);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), 0x0102_0304_0506_0708);
        assert!(bool::decode(&mut r).unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn composite_roundtrips() {
        let v: Vec<Option<(u64, String)>> = vec![
            Some((7, "seven".to_string())),
            None,
            Some((0, String::new())),
        ];
        assert_eq!(
            decode_payload::<Vec<Option<(u64, String)>>>(&encode_payload(&v)).unwrap(),
            v
        );
        let set: BTreeSet<u64> = [5, 1, 3].into_iter().collect();
        assert_eq!(
            decode_payload::<BTreeSet<u64>>(&encode_payload(&set)).unwrap(),
            set
        );
        let map: BTreeMap<(usize, u64), Vec<u32>> = [((1, 2), vec![3, 4]), ((1, 3), vec![])]
            .into_iter()
            .collect();
        assert_eq!(
            decode_payload::<BTreeMap<(usize, u64), Vec<u32>>>(&encode_payload(&map)).unwrap(),
            map
        );
    }

    #[test]
    fn a_counting_writer_counts_what_a_writer_stores() {
        let v: Vec<Option<(u64, String)>> = vec![Some((7, "x".repeat(200))), None];
        let map: BTreeMap<usize, Vec<u32>> = [(1, vec![3]), (300, vec![])].into_iter().collect();
        assert_eq!(v.wire_size(), encode_payload(&v).len());
        assert_eq!(map.wire_size(), encode_payload(&map).len());
        let mut w = Writer::counting();
        w.var(u64::MAX);
        w.bytes(&[0; 5]);
        assert!(w.counted(3));
        assert_eq!((w.len(), w.into_bytes()), (18, Vec::new()));
        assert!(!Writer::new().counted(3));
    }

    #[test]
    fn non_canonical_collections_rejected() {
        // Hand-build [2, 1] and [1, 1] as "sets": both must be refused.
        for pair in [[2u64, 1u64], [1, 1]] {
            let mut w = Writer::new();
            w.usize(2);
            w.u64(pair[0]);
            w.u64(pair[1]);
            let bytes = w.into_bytes();
            assert_eq!(
                decode_payload::<BTreeSet<u64>>(&bytes),
                Err(CodecError::Invalid("set not strictly ascending"))
            );
        }
        let mut w = Writer::new();
        w.usize(2);
        w.u64(9);
        w.u8(1);
        w.u64(3);
        w.u8(2);
        let bytes = w.into_bytes();
        assert_eq!(
            decode_payload::<BTreeMap<u64, u8>>(&bytes),
            Err(CodecError::Invalid("map keys not strictly ascending"))
        );
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(
            decode_payload::<bool>(&[2]),
            Err(CodecError::Invalid("bool tag"))
        );
        assert_eq!(
            decode_payload::<Option<u8>>(&[7, 0]),
            Err(CodecError::Invalid("option tag"))
        );
    }

    #[test]
    fn absurd_length_is_truncation_not_allocation() {
        let mut w = Writer::new();
        w.var(u64::MAX);
        assert_eq!(
            decode_payload::<Vec<u64>>(&w.into_bytes()),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn frame_roundtrip_and_kind_check() {
        let value: Vec<u64> = vec![1, 2, 3];
        let frame = encode_frame(42, &value);
        assert_eq!(verify_frame(&frame).unwrap(), 42);
        assert_eq!(decode_frame::<Vec<u64>>(42, &frame).unwrap(), value);
        assert_eq!(
            decode_frame::<Vec<u64>>(41, &frame),
            Err(CodecError::BadKind {
                expected: 41,
                found: 42
            })
        );
    }

    #[test]
    fn every_truncation_of_a_frame_is_rejected() {
        let frame = encode_frame(7, &vec![10u64, 20, 30]);
        for cut in 0..frame.len() {
            assert!(
                decode_frame::<Vec<u64>>(7, &frame[..cut]).is_err(),
                "prefix of len {cut} accepted"
            );
        }
    }

    #[test]
    fn every_bitflip_of_a_frame_is_rejected() {
        let frame = encode_frame(7, &vec![10u64, 20, 30]);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_frame::<Vec<u64>>(7, &bad).is_err(),
                    "flip at byte {i} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn reuse_is_charged_against_the_input_length() {
        let over = Err(CodecError::Invalid(
            "shared parts spelled out past the limit",
        ));
        let input = [0u8; 100];
        let mut r = Reader::new(&input);
        assert_eq!(r.reuse(MAX_SPELLED_OUT - 150), Ok(()));
        assert_eq!(r.reuse(50), Ok(()), "exactly the limit");
        assert_eq!(r.reuse(1), over);
        assert_eq!(Reader::new(&input).reuse(usize::MAX), over);
        // Charges never consume input.
        assert_eq!(r.remaining(), 100);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_payload(&7u64);
        bytes.push(0);
        assert_eq!(
            decode_payload::<u64>(&bytes),
            Err(CodecError::TrailingBytes)
        );
    }
}
