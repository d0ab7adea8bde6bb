//! Transport frame layer: the three frame kinds the TCP runtime puts on
//! a wire, built on `bgla_codec`'s length-prefixed checksummed framing.
//!
//! Every frame is a standard codec frame (`BGLA` magic, version, kind
//! tag, length, FNV-1a-64 checksum); the transport adds nothing of its
//! own to the envelope. Protocol messages ride inside [`Data`] as an
//! opaque `encode_payload` byte string, so the transport never needs to
//! know the protocol message type to forward, retransmit, or dedup it.
//!
//! The kind tags live in the `0x4exx` ("N" for net) range, disjoint
//! from the snapshot tags used elsewhere in the workspace, so a frame
//! misrouted between subsystems fails loudly as a kind mismatch rather
//! than decoding as garbage.

use bgla_codec::{decode_payload, verify_frame, CodecError, Reader, Wire, Writer, FRAME_OVERHEAD};

/// Kind tag of a [`Hello`] frame.
pub const FK_HELLO: u16 = 0x4e01;
/// Kind tag of a [`Data`] frame.
pub const FK_DATA: u16 = 0x4e02;
/// Kind tag of an [`Ack`] frame. `0x4e03` is retired: it tagged the
/// ACK without a gap report, which must fail here as an unknown kind
/// rather than decode short.
pub const FK_ACK: u16 = 0x4e04;

/// Bytes of a codec frame header before the payload (magic + version +
/// kind + length). A stream reader pulls this much to learn the
/// payload length, then the payload plus the trailing checksum.
pub const FRAME_HEADER: usize = 16;

/// Hard upper bound on a frame payload accepted off a socket. Guards
/// allocation against a hostile or corrupt length field before the
/// checksum can be verified. The codec bounds what one decode may spell
/// out by the same number.
pub const MAX_FRAME_PAYLOAD: u64 = bgla_codec::MAX_SPELLED_OUT as u64;

/// Connection handshake, sent by both ends when a connection is
/// (re-)established. The dialer introduces itself (`from`, with
/// `expected = 0`); the accepter replies with the next DATA sequence
/// number it expects from that peer, which is what lets the dialer
/// *resync*: drop acknowledged entries from its unacked queue and
/// retransmit exactly the tail the peer has not seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Process id of the sending end.
    pub from: u64,
    /// Next DATA sequence the sender of this HELLO expects to receive
    /// (meaningful on the accepter side; dialers send 0).
    pub expected: u64,
}

impl Wire for Hello {
    fn encode(&self, w: &mut Writer) {
        w.var(self.from);
        w.var(self.expected);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Hello {
            from: r.var()?,
            expected: r.var()?,
        })
    }
}

/// One protocol message in flight on a directed link. `seq` is the
/// per-link sequence number driving retransmission and dedup; `depth`
/// is the causal depth the message would carry as a simulator envelope
/// (sender's depth at send time + 1), shipped so the receiving node's
/// clock advances exactly as it would in-memory; `payload` is the
/// protocol message's `bgla_codec` encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    /// Per-directed-link sequence number, starting at 0.
    pub seq: u64,
    /// Causal depth of the carried protocol message.
    pub depth: u64,
    /// `encode_payload` bytes of the protocol message.
    pub payload: Vec<u8>,
}

impl Wire for Data {
    fn encode(&self, w: &mut Writer) {
        w.var(self.seq);
        w.var(self.depth);
        self.payload.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Data {
            seq: r.var()?,
            depth: r.var()?,
            payload: Vec::<u8>::decode(r)?,
        })
    }
}

/// Cumulative acknowledgment with a gap report: every DATA with
/// `seq < cum` has been received on this link, and `held` is the
/// lowest sequence the receiver holds out of order (`== cum` when it
/// holds none) — so `[cum, held)` is exactly what it is missing. Sent
/// by the accepter after every wakeup that read DATA, duplicates
/// included, so any DATA frame — a probe above all — elicits the
/// receiver's current view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// All sequence numbers below this are acknowledged.
    pub cum: u64,
    /// Lowest sequence held out of order; `cum` when there is no hole.
    pub held: u64,
}

impl Wire for Ack {
    fn encode(&self, w: &mut Writer) {
        w.var(self.cum);
        w.var(self.held);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Ack {
            cum: r.var()?,
            held: r.var()?,
        })
    }
}

/// A decoded transport frame, the output of [`demux_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFrame {
    /// Connection handshake / resync announcement.
    Hello(Hello),
    /// A protocol message with link sequencing.
    Data(Data),
    /// Cumulative acknowledgment.
    Ack(Ack),
}

/// Verifies one complete frame (magic, version, length, checksum —
/// one pass over the bytes) and decodes its body according to its kind
/// tag. Unknown kinds are rejected: the transport demux must handle
/// every `FK_*` constant in this file (enforced by `bgla-lint`'s
/// `frame-demux-coverage` pass) and nothing else arrives on a healthy
/// link.
pub fn demux_frame(bytes: &[u8]) -> Result<NetFrame, CodecError> {
    let kind = verify_frame(bytes)?;
    // `verify_frame` established `len >= FRAME_OVERHEAD`; the body sits
    // between the header and the trailing checksum.
    let end = bytes.len().saturating_sub(FRAME_OVERHEAD - FRAME_HEADER);
    let body = bytes.get(FRAME_HEADER..end).ok_or(CodecError::Truncated)?;
    match kind {
        FK_HELLO => Ok(NetFrame::Hello(decode_payload(body)?)),
        FK_DATA => Ok(NetFrame::Data(decode_payload(body)?)),
        FK_ACK => Ok(NetFrame::Ack(decode_payload(body)?)),
        _ => Err(CodecError::Invalid("unknown transport frame kind")),
    }
}

/// Parses a frame header prefix and returns the total frame length
/// (header + payload + checksum) if `buf` starts with a structurally
/// plausible header, `Ok(None)` if more bytes are needed to tell, and
/// an error if the prefix can never become a valid frame (wrong magic,
/// wrong version, or an absurd length field). Checksum and payload
/// validation happen later, in [`demux_frame`], once the whole frame
/// has arrived.
pub fn frame_total_len(buf: &[u8]) -> Result<Option<usize>, CodecError> {
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let mut r = Reader::new(buf);
    if r.bytes(4)? != bgla_codec::FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != bgla_codec::FRAME_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let _kind = r.u16()?;
    let len = r.u64()?;
    if len > MAX_FRAME_PAYLOAD {
        return Err(CodecError::BadLength);
    }
    Ok(Some(len as usize + FRAME_OVERHEAD))
}

/// Splits complete frames off the front of a receive buffer. Returns
/// the decoded frames; the buffer retains any trailing partial frame.
/// The first malformed prefix or corrupt frame aborts with an error —
/// the caller treats that as a dead connection (mid-frame resets leave
/// exactly this kind of torn garbage) and lets the reconnect/resync
/// machinery recover.
pub fn drain_frames(buf: &mut Vec<u8>) -> Result<Vec<NetFrame>, CodecError> {
    let mut out = Vec::new();
    // Consumed prefix: advanced per frame, drained once per call.
    let mut off = 0;
    while let Some(total) = frame_total_len(&buf[off..])? {
        let Some(frame) = buf.get(off..off + total) else {
            break;
        };
        out.push(demux_frame(frame)?);
        off += total;
    }
    buf.drain(..off);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_codec::encode_frame;

    #[test]
    fn frames_roundtrip_through_demux() {
        let h = Hello {
            from: 3,
            expected: 17,
        };
        let d = Data {
            seq: 9,
            depth: 4,
            payload: vec![1, 2, 3],
        };
        let a = Ack { cum: 10, held: 12 };
        assert_eq!(
            demux_frame(&encode_frame(FK_HELLO, &h)).unwrap(),
            NetFrame::Hello(h)
        );
        assert_eq!(
            demux_frame(&encode_frame(FK_DATA, &d)).unwrap(),
            NetFrame::Data(d)
        );
        assert_eq!(
            demux_frame(&encode_frame(FK_ACK, &a)).unwrap(),
            NetFrame::Ack(a)
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        // 0x4e03 is the retired gap-less ACK of earlier versions.
        for kind in [0x4eff, 0x4e03] {
            let bytes = encode_frame(kind, &7u64);
            assert_eq!(
                demux_frame(&bytes),
                Err(CodecError::Invalid("unknown transport frame kind"))
            );
        }
    }

    #[test]
    fn drain_splits_a_coalesced_stream() {
        let mut buf = Vec::new();
        buf.extend(encode_frame(
            FK_DATA,
            &Data {
                seq: 0,
                depth: 1,
                payload: vec![7; 40],
            },
        ));
        buf.extend(encode_frame(FK_ACK, &Ack { cum: 1, held: 1 }));
        // Plus half of a third frame.
        let third = encode_frame(FK_ACK, &Ack { cum: 2, held: 5 });
        buf.extend(&third[..10]);

        let frames = drain_frames(&mut buf).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0], NetFrame::Data(_)));
        assert!(matches!(frames[1], NetFrame::Ack(Ack { cum: 1, held: 1 })));
        // The partial tail stays buffered...
        assert_eq!(buf, &third[..10]);
        // ...and completes once the rest arrives.
        buf.extend(&third[10..]);
        let frames = drain_frames(&mut buf).unwrap();
        assert_eq!(frames, vec![NetFrame::Ack(Ack { cum: 2, held: 5 })]);
        assert!(buf.is_empty());
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        // A mid-frame reset leaves a valid header followed by garbage
        // from the *next* connection attempt; the checksum catches it.
        let mut good = encode_frame(
            FK_DATA,
            &Data {
                seq: 5,
                depth: 2,
                payload: vec![9; 16],
            },
        );
        let n = good.len();
        good[n - 1] ^= 0xff;
        let mut buf = good;
        assert_eq!(drain_frames(&mut buf), Err(CodecError::BadChecksum));
    }

    #[test]
    fn absurd_length_field_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend(bgla_codec::FRAME_MAGIC);
        buf.extend(bgla_codec::FRAME_VERSION.to_le_bytes());
        buf.extend(FK_DATA.to_le_bytes());
        buf.extend(u64::MAX.to_le_bytes());
        assert_eq!(frame_total_len(&buf), Err(CodecError::BadLength));
    }

    #[test]
    fn wrong_magic_fails_fast() {
        let mut buf = vec![b'X'; FRAME_HEADER];
        assert_eq!(frame_total_len(&buf), Err(CodecError::BadMagic));
        buf.truncate(3);
        // Too short to judge: not an error yet.
        assert_eq!(frame_total_len(&buf), Ok(None));
    }
}
