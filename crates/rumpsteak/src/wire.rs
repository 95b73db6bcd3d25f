//! Hand-rolled wire serialisation for session messages.
//!
//! The distributed transport ([`net`](crate::net)) moves protocol labels
//! between OS processes, so they need a byte representation. This
//! container has no crates.io access, so instead of `serde` the repo
//! carries its own minimal codec: [`Wire`] encodes a value into a byte
//! vector and decodes it back from a bounds-checked [`WireReader`]
//! cursor. The format is fixed-endian (little), length-prefixed for
//! variable-size data, and self-contained per message — no schema
//! evolution, no versioning — because both ends of a session link are
//! compiled from the *same* protocol declaration, which is exactly the
//! property the session types already enforce.
//!
//! The [`messages!`](crate::messages) macro's `wire enum` arm derives
//! [`Wire`] for a protocol's label enum (a `u16` variant tag in
//! declaration order, then the payload) and for each label struct, so a
//! protocol opts its wire format in with one keyword:
//!
//! ```ignore
//! messages! {
//!     wire enum Label { Ready(Ready), Value(Value): i32, Stop(Stop) }
//! }
//! ```
//!
//! Every decode path returns [`WireError`] — malformed input from a
//! socket must never panic the process.

use std::fmt;

/// Decoding failure: the bytes do not describe a value of the requested
/// type. Always an *input* error — decoders never panic on malformed
/// bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes the buffer still had.
        remaining: usize,
    },
    /// An enum tag matching no variant of the target type.
    UnknownTag(u16),
    /// A declared element count or byte length too large for the
    /// remaining input (a corrupt or hostile length prefix).
    LengthOverflow(u64),
    /// String bytes that are not valid UTF-8.
    InvalidUtf8,
    /// A value decoded completely but left unconsumed bytes behind.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} byte(s), {remaining} remaining"
            ),
            WireError::UnknownTag(tag) => write!(f, "unknown wire tag {tag}"),
            WireError::LengthOverflow(len) => {
                write!(f, "declared length {len} exceeds the remaining input")
            }
            WireError::InvalidUtf8 => f.write_str("string payload is not valid UTF-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing byte(s) after the value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked cursor over an encoded byte buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes, failing (not panicking) if fewer
    /// remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// Asserts the buffer was consumed exactly; a complete message must
    /// account for every byte of its frame.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// A value with a byte representation on the session wire.
///
/// Encoding is infallible (it only appends to a vector); decoding
/// returns [`WireError`] on malformed input. The derived implementations
/// round-trip: `decode(encode(v)) == v` for every value.
pub trait Wire: Sized {
    /// Appends the value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value, consuming exactly the bytes [`encode`](Self::encode)
    /// produced for it.
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Appends the encoding of every element of `items`, in order — the
    /// body of a `Vec<Self>`. Fixed-width numbers override the
    /// per-element loop with one pass over the output bytes.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes exactly `count` values. The caller has already bounded
    /// `count` by the remaining input, so the pre-allocation cannot
    /// exceed what the buffer could hold.
    fn decode_vec(count: usize, reader: &mut WireReader<'_>) -> Result<Vec<Self>, WireError> {
        let mut items = Vec::with_capacity(count.min(reader.remaining().max(1)));
        for _ in 0..count {
            items.push(Self::decode(reader)?);
        }
        Ok(items)
    }
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a complete buffer, rejecting trailing bytes.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut reader = WireReader::new(bytes);
    let value = T::decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Fixed-width numeric primitives: little-endian, no prefix.
macro_rules! wire_le {
    ($($ty:ty),*) => {
        $(
            impl Wire for $ty {
                #[inline]
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
                    let bytes = reader.take(std::mem::size_of::<$ty>())?;
                    Ok(<$ty>::from_le_bytes(bytes.try_into().expect("take returned n bytes")))
                }
                fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                    const SIZE: usize = std::mem::size_of::<$ty>();
                    let start = out.len();
                    out.resize(start + items.len() * SIZE, 0);
                    for (bytes, item) in out[start..].chunks_exact_mut(SIZE).zip(items) {
                        bytes.copy_from_slice(&item.to_le_bytes());
                    }
                }
                fn decode_vec(
                    count: usize,
                    reader: &mut WireReader<'_>,
                ) -> Result<Vec<Self>, WireError> {
                    const SIZE: usize = std::mem::size_of::<$ty>();
                    let len = count
                        .checked_mul(SIZE)
                        .ok_or(WireError::LengthOverflow(count as u64))?;
                    let bytes = reader.take(len)?;
                    Ok(bytes
                        .chunks_exact(SIZE)
                        .map(|bytes| {
                            <$ty>::from_le_bytes(bytes.try_into().expect("chunks of SIZE bytes"))
                        })
                        .collect())
                }
            }
        )*
    };
}

wire_le!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(u8::decode(reader)? != 0)
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// `u32` element count, then each element in order. Counts are checked
/// against the remaining input *before* any allocation, so a hostile
/// length prefix cannot trigger an out-of-memory abort.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (u32::try_from(self.len()).expect("vector longer than u32::MAX elements")).encode(out);
        T::encode_slice(self, out);
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let count = u32::decode(reader)? as usize;
        // Every element costs at least one byte on the wire except `()`
        // and other ZST-encodings; cap the pre-allocation at what the
        // input could possibly hold, then decode exactly `count` items.
        if std::mem::size_of::<T>() > 0 && count > reader.remaining() {
            return Err(WireError::LengthOverflow(count as u64));
        }
        T::decode_vec(count, reader)
    }
}

/// `u32` byte length, then UTF-8 bytes.
impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (u32::try_from(self.len()).expect("string longer than u32::MAX bytes")).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = u32::decode(reader)? as usize;
        if len > reader.remaining() {
            return Err(WireError::LengthOverflow(len as u64));
        }
        let bytes = reader.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

/// Causal trace context attached to a wire frame when the sender runs
/// with telemetry enabled: a per-process session id, a per-edge frame
/// sequence number, and the sender's monotonic clock at encode time.
///
/// Fixed 24-byte encoding (three little-endian `u64`s) so the framing
/// layer can reserve space for it without consulting the payload. The
/// receiver uses `seq` to pair its `frame_recv` trace event with the
/// sender's `frame_send` (the flow edges `rumpsteak-trace --merge`
/// draws) and `t_ns` — shifted by the handshake-estimated clock offset
/// — to record the link's send→recv latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Sender-process session identifier (one per `NetLink`).
    pub session: u64,
    /// Frame index on this directed edge, starting at 0.
    pub seq: u64,
    /// Sender's monotonic clock at frame encode, in nanoseconds.
    pub t_ns: u64,
}

impl TraceContext {
    /// Encoded size in bytes: three `u64` words.
    pub const WIRE_SIZE: usize = 24;
}

impl Wire for TraceContext {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        self.seq.encode(out);
        self.t_ns.encode(out);
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(TraceContext {
            session: u64::decode(reader)?,
            seq: u64::decode(reader)?,
            t_ns: u64::decode(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0x1234u16);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(-1i8);
        round_trip(i16::MIN);
        round_trip(i32::MIN);
        round_trip(i64::MAX);
        round_trip(1.5f32);
        round_trip(-2.25f64);
        round_trip(true);
        round_trip(false);
        round_trip(());
    }

    #[test]
    fn numbers_are_little_endian() {
        assert_eq!(to_bytes(&0x0102_0304u32), vec![4, 3, 2, 1]);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Vec::<i32>::new());
        round_trip(vec![1i32, -2, 3]);
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
        round_trip(String::new());
        round_trip("héllo wire".to_owned());
    }

    #[test]
    fn numeric_vectors_round_trip_through_the_bulk_paths() {
        round_trip((-2000..2000).collect::<Vec<i32>>());
        round_trip(vec![0u64, 1, u64::MAX, 0x0102_0304_0506_0708]);
        round_trip(vec![0.0f32, -1.5, f32::MAX, f32::MIN_POSITIVE]);
        // Same bytes as the per-element encoding the format is defined by.
        let values = vec![1i32, -2, i32::MAX];
        let mut expected = to_bytes(&3u32);
        for value in &values {
            value.encode(&mut expected);
        }
        assert_eq!(to_bytes(&values), expected);
        // A hostile count is refused before anything is allocated; one
        // that passes the count check (5 ≤ 8 remaining bytes) but not at
        // the element width (5 × 8) fails in the bulk decoder's `take`.
        assert!(matches!(
            from_bytes::<Vec<f32>>(&to_bytes(&u32::MAX)),
            Err(WireError::LengthOverflow(_))
        ));
        let mut short = to_bytes(&5u32);
        short.extend_from_slice(&[0; 8]);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&short),
            Err(WireError::UnexpectedEnd {
                needed: 40,
                remaining: 8
            })
        ));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_bytes(&7u32);
        assert!(matches!(
            from_bytes::<u32>(&bytes[..3]),
            Err(WireError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        // Claims u32::MAX elements with a 0-byte body.
        let bytes = to_bytes(&u32::MAX);
        assert!(matches!(
            from_bytes::<Vec<i32>>(&bytes),
            Err(WireError::LengthOverflow(_))
        ));
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn trace_context_is_fixed_size_and_round_trips() {
        let ctx = TraceContext {
            session: 0xfeed_beef_dead_cafe,
            seq: 42,
            t_ns: u64::MAX,
        };
        let bytes = to_bytes(&ctx);
        assert_eq!(bytes.len(), TraceContext::WIRE_SIZE);
        assert_eq!(from_bytes::<TraceContext>(&bytes).unwrap(), ctx);
        round_trip(TraceContext::default());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = to_bytes(&2u32);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(from_bytes::<String>(&bytes), Err(WireError::InvalidUtf8));
    }
}
