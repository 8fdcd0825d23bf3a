//! # hlock-wire
//!
//! A compact, hand-rolled binary wire format for the protocol messages of
//! `hlock-core` and `hlock-naimi`, used by the real TCP transport
//! (`hlock-net`). No serde formats are needed on the wire: messages are a
//! handful of small integers, so LEB128 varints plus one tag byte per
//! variant give frames of typically 4–10 bytes.
//!
//! ```
//! use hlock_core::{Envelope, LockId, Mode, NodeId, Payload, Priority, Stamp, Ticket};
//! use hlock_wire::WireCodec;
//!
//! let msg = Envelope {
//!     lock: LockId(3),
//!     payload: Payload::Request {
//!         origin: NodeId(7),
//!         mode: Mode::Read,
//!         stamp: Stamp(42),
//!         priority: Priority::NORMAL,
//!         span: Ticket(42),
//!     },
//! };
//! let mut buf = Vec::new();
//! msg.encode(&mut buf);
//! let mut bytes = buf.as_slice();
//! let decoded = Envelope::decode(&mut bytes)?;
//! assert_eq!(decoded, msg);
//! assert!(bytes.is_empty());
//! # Ok::<(), hlock_wire::WireError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hlock_core::{
    Envelope, LockId, LockReport, Mode, ModeSet, NodeId, Payload, Priority, QueueEntry,
    RecoveryBody, RecoveryEnvelope, Stamp, Ticket, Waiter,
};
use hlock_naimi::{NaimiEnvelope, NaimiPayload};
use hlock_session::SessionFrame;
use std::fmt;

/// The buffer every encoder appends to, under the name the repository
/// benchmark imports it by (it was `bytes::BytesMut` once).
pub type BytesMut = Vec<u8>;

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended in the middle of a value.
    UnexpectedEof,
    /// An unknown message or waiter tag byte.
    InvalidTag(u8),
    /// A byte that is not a valid [`Mode`].
    InvalidMode(u8),
    /// A byte with bits outside the five mode-set bits.
    InvalidModeSet(u8),
    /// A varint longer than 10 bytes.
    VarintOverflow,
    /// A frame length prefix above [`frame::MAX_FRAME_LEN`].
    FrameTooLarge(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::InvalidTag(t) => write!(f, "invalid tag byte {t:#x}"),
            WireError::InvalidMode(m) => write!(f, "invalid mode byte {m:#x}"),
            WireError::InvalidModeSet(m) => write!(f, "invalid mode-set byte {m:#x}"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::FrameTooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {} byte limit", frame::MAX_FRAME_LEN)
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Symmetric binary encode/decode.
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; the buffer position is unspecified afterwards.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;
}

/// Writes `v` as a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one byte (a tag).
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] on an empty buffer.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&byte, rest) = buf.split_first().ok_or(WireError::UnexpectedEof)?;
    *buf = rest;
    Ok(byte)
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] on truncation, [`WireError::VarintOverflow`]
/// past 10 bytes.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = get_u8(buf)?;
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_mode(buf: &mut Vec<u8>, m: Mode) {
    buf.push(m.wire_tag());
}

fn get_mode(buf: &mut &[u8]) -> Result<Mode, WireError> {
    let b = get_u8(buf)?;
    Mode::from_wire_tag(b).ok_or(WireError::InvalidMode(b))
}

/// Optional modes are encoded as `0xFF` (none) or the mode tag.
fn put_opt_mode(buf: &mut Vec<u8>, m: Option<Mode>) {
    buf.push(m.map_or(0xFF, Mode::wire_tag));
}

fn get_opt_mode(buf: &mut &[u8]) -> Result<Option<Mode>, WireError> {
    let b = get_u8(buf)?;
    if b == 0xFF {
        Ok(None)
    } else {
        Mode::from_wire_tag(b).map(Some).ok_or(WireError::InvalidMode(b))
    }
}

fn put_mode_set(buf: &mut Vec<u8>, s: ModeSet) {
    buf.push(s.bits());
}

fn get_mode_set(buf: &mut &[u8]) -> Result<ModeSet, WireError> {
    let b = get_u8(buf)?;
    ModeSet::from_bits(b).ok_or(WireError::InvalidModeSet(b))
}

const WAITER_REMOTE: u8 = 0;
const WAITER_LOCAL: u8 = 1;
const WAITER_UPGRADE: u8 = 2;

impl WireCodec for QueueEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self.waiter {
            Waiter::Remote(n) => {
                buf.push(WAITER_REMOTE);
                put_varint(buf, u64::from(n.0));
            }
            Waiter::Local(t) => {
                buf.push(WAITER_LOCAL);
                put_varint(buf, t.0);
            }
            Waiter::LocalUpgrade(t) => {
                buf.push(WAITER_UPGRADE);
                put_varint(buf, t.0);
            }
        }
        put_mode(buf, self.mode);
        put_varint(buf, self.stamp.0);
        buf.push(self.priority.0);
        put_varint(buf, self.span.0);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let tag = get_u8(buf)?;
        let id = get_varint(buf)?;
        let waiter = match tag {
            WAITER_REMOTE => Waiter::Remote(NodeId(id as u32)),
            WAITER_LOCAL => Waiter::Local(Ticket(id)),
            WAITER_UPGRADE => Waiter::LocalUpgrade(Ticket(id)),
            other => return Err(WireError::InvalidTag(other)),
        };
        let mode = get_mode(buf)?;
        let stamp = Stamp(get_varint(buf)?);
        let priority = Priority(get_u8(buf)?);
        let span = Ticket(get_varint(buf)?);
        Ok(QueueEntry::with_priority(waiter, mode, stamp, priority).with_span(span))
    }
}

const TAG_REQUEST: u8 = 0;
const TAG_GRANT: u8 = 1;
const TAG_TOKEN: u8 = 2;
const TAG_RELEASE: u8 = 3;
const TAG_FREEZE: u8 = 4;
const TAG_UPDATE: u8 = 5;

impl WireCodec for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(self.lock.0));
        match &self.payload {
            Payload::Request { origin, mode, stamp, priority, span } => {
                buf.push(TAG_REQUEST);
                put_varint(buf, u64::from(origin.0));
                put_mode(buf, *mode);
                put_varint(buf, stamp.0);
                buf.push(priority.0);
                put_varint(buf, span.0);
            }
            Payload::Grant { mode, frozen } => {
                buf.push(TAG_GRANT);
                put_mode(buf, *mode);
                put_mode_set(buf, *frozen);
            }
            Payload::Token { mode, queue, sender_owned } => {
                buf.push(TAG_TOKEN);
                put_mode(buf, *mode);
                put_opt_mode(buf, *sender_owned);
                put_varint(buf, queue.len() as u64);
                for e in queue {
                    e.encode(buf);
                }
            }
            Payload::Release { new_owned } => {
                buf.push(TAG_RELEASE);
                put_opt_mode(buf, *new_owned);
            }
            Payload::Freeze { modes } => {
                buf.push(TAG_FREEZE);
                put_mode_set(buf, *modes);
            }
            Payload::Update { frozen } => {
                buf.push(TAG_UPDATE);
                put_mode_set(buf, *frozen);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let lock = LockId(get_varint(buf)? as u32);
        let tag = get_u8(buf)?;
        let payload = match tag {
            TAG_REQUEST => {
                let origin = NodeId(get_varint(buf)? as u32);
                let mode = get_mode(buf)?;
                let stamp = Stamp(get_varint(buf)?);
                let priority = Priority(get_u8(buf)?);
                let span = Ticket(get_varint(buf)?);
                Payload::Request { origin, mode, stamp, priority, span }
            }
            TAG_GRANT => {
                let mode = get_mode(buf)?;
                let frozen = get_mode_set(buf)?;
                Payload::Grant { mode, frozen }
            }
            TAG_TOKEN => {
                let mode = get_mode(buf)?;
                let sender_owned = get_opt_mode(buf)?;
                let len = get_varint(buf)? as usize;
                let mut queue = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    queue.push(QueueEntry::decode(buf)?);
                }
                Payload::Token { mode, queue, sender_owned }
            }
            TAG_RELEASE => Payload::Release { new_owned: get_opt_mode(buf)? },
            TAG_FREEZE => Payload::Freeze { modes: get_mode_set(buf)? },
            TAG_UPDATE => Payload::Update { frozen: get_mode_set(buf)? },
            other => return Err(WireError::InvalidTag(other)),
        };
        Ok(Envelope { lock, payload })
    }
}

const TAG_REC_APP: u8 = 0;
const TAG_REC_REPORT: u8 = 1;
const TAG_REC_INSTALL: u8 = 2;
const TAG_REC_NACK: u8 = 3;

/// Recovery envelopes prepend a varint epoch and one body tag to the
/// existing [`Envelope`] codec, so fail-free traffic pays 2 extra bytes
/// per message until the first recovery bumps the epoch past 127.
impl WireCodec for RecoveryEnvelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.epoch);
        match &self.body {
            RecoveryBody::App(envelope) => {
                buf.push(TAG_REC_APP);
                envelope.encode(buf);
            }
            RecoveryBody::Report { dead, base, state } => {
                buf.push(TAG_REC_REPORT);
                put_varint(buf, dead.len() as u64);
                for n in dead {
                    put_varint(buf, u64::from(n.0));
                }
                put_varint(buf, *base);
                put_varint(buf, state.len() as u64);
                for report in state {
                    buf.push(u8::from(report.holds_token));
                    put_opt_mode(buf, report.owned);
                }
            }
            RecoveryBody::Install { live, base, homes, copysets } => {
                buf.push(TAG_REC_INSTALL);
                put_varint(buf, live.len() as u64);
                for n in live {
                    put_varint(buf, u64::from(n.0));
                }
                put_varint(buf, *base);
                put_varint(buf, homes.len() as u64);
                for n in homes {
                    put_varint(buf, u64::from(n.0));
                }
                put_varint(buf, copysets.len() as u64);
                for copyset in copysets {
                    put_varint(buf, copyset.len() as u64);
                    for &(n, m) in copyset {
                        put_varint(buf, u64::from(n.0));
                        put_mode(buf, m);
                    }
                }
            }
            RecoveryBody::Nack => buf.push(TAG_REC_NACK),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let epoch = get_varint(buf)?;
        let body = match get_u8(buf)? {
            TAG_REC_APP => RecoveryBody::App(Envelope::decode(buf)?),
            TAG_REC_REPORT => {
                let n = get_varint(buf)? as usize;
                let mut dead = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    dead.push(NodeId(get_varint(buf)? as u32));
                }
                let base = get_varint(buf)?;
                let n = get_varint(buf)? as usize;
                let mut state = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let holds_token = get_u8(buf)? != 0;
                    let owned = get_opt_mode(buf)?;
                    state.push(LockReport { holds_token, owned });
                }
                RecoveryBody::Report { dead, base, state }
            }
            TAG_REC_INSTALL => {
                let n = get_varint(buf)? as usize;
                let mut live = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    live.push(NodeId(get_varint(buf)? as u32));
                }
                let base = get_varint(buf)?;
                let n = get_varint(buf)? as usize;
                let mut homes = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    homes.push(NodeId(get_varint(buf)? as u32));
                }
                let n = get_varint(buf)? as usize;
                let mut copysets = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let len = get_varint(buf)? as usize;
                    let mut copyset = Vec::with_capacity(len.min(4096));
                    for _ in 0..len {
                        let node = NodeId(get_varint(buf)? as u32);
                        let mode = get_mode(buf)?;
                        copyset.push((node, mode));
                    }
                    copysets.push(copyset);
                }
                RecoveryBody::Install { live, base, homes, copysets }
            }
            TAG_REC_NACK => RecoveryBody::Nack,
            other => return Err(WireError::InvalidTag(other)),
        };
        Ok(RecoveryEnvelope { epoch, body })
    }
}

impl WireCodec for NaimiEnvelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(self.lock.0));
        match &self.payload {
            NaimiPayload::Request { origin } => {
                buf.push(TAG_REQUEST);
                put_varint(buf, u64::from(origin.0));
            }
            NaimiPayload::Token => buf.push(TAG_TOKEN),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let lock = LockId(get_varint(buf)? as u32);
        let tag = get_u8(buf)?;
        let payload = match tag {
            TAG_REQUEST => NaimiPayload::Request { origin: NodeId(get_varint(buf)? as u32) },
            TAG_TOKEN => NaimiPayload::Token,
            other => return Err(WireError::InvalidTag(other)),
        };
        Ok(NaimiEnvelope { lock, payload })
    }
}

const TAG_SESSION_DATA: u8 = 0;
const TAG_SESSION_ACK: u8 = 1;

/// Session frames wrap any codec-capable message with delivery metadata:
/// one tag byte, then for `Data` the varint sequence number, varint
/// cumulative ack and the inner encoding; for `Ack` just the varint ack.
/// Overhead is 3 bytes for small sequence numbers.
impl<M: WireCodec> WireCodec for SessionFrame<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SessionFrame::Data { seq, ack, message } => {
                buf.push(TAG_SESSION_DATA);
                put_varint(buf, *seq);
                put_varint(buf, *ack);
                message.encode(buf);
            }
            SessionFrame::Ack { ack } => {
                buf.push(TAG_SESSION_ACK);
                put_varint(buf, *ack);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_u8(buf)? {
            TAG_SESSION_DATA => {
                let seq = get_varint(buf)?;
                let ack = get_varint(buf)?;
                let message = M::decode(buf)?;
                Ok(SessionFrame::Data { seq, ack, message })
            }
            TAG_SESSION_ACK => Ok(SessionFrame::Ack { ack: get_varint(buf)? }),
            other => Err(WireError::InvalidTag(other)),
        }
    }
}

/// Length-prefixed **batch** framing — one frame per effect-step batch.
///
/// Layout: `u32` little-endian body length, then the body:
///
/// ```text
/// varint sender | varint hlc | varint count | count × (varint sub_len | sub_len bytes)
/// ```
///
/// The sender header and hybrid-logical-clock stamp are paid once per
/// frame regardless of how many messages the step coalesced; each
/// sub-frame is one message in the existing per-message codec. The
/// `hlc` field carries the sender's clock at frame-encode time so
/// receivers can causally order cross-node flight-recorder dumps; hosts
/// without a recorder write `0` (one byte) and receivers ignore it.
/// Decoding is zero-copy: the body is a borrowed sub-slice of the receive
/// buffer, handed to the per-message codecs without re-buffering.
pub mod frame {
    use super::*;

    /// Largest frame body a reader accepts; a longer length prefix is
    /// [`WireError::FrameTooLarge`] the moment its four bytes are in, so a
    /// peer cannot make a node buffer gigabytes waiting for a body.
    ///
    /// Measured over every test binary, the benchmark's six workloads and
    /// the `hlock-bench` binaries: the largest frame a host writes is 129
    /// bytes (`tests/simulation.rs`; 45 bytes over TCP, 41 in the
    /// benchmark), the largest any test encodes 525 bytes (the 130-message
    /// batch of the split tests below). 16 MiB is 30 000× that, and room
    /// for a recovery `Install` — the one message that grows with the lock
    /// table, a few bytes per lock — over millions of locks.
    pub const MAX_FRAME_LEN: usize = 16 << 20;

    /// Appends one frame containing a whole batch from `sender` to
    /// `buf`, with a zero (absent) clock stamp.
    ///
    /// # Panics
    ///
    /// Panics if `messages` is empty — empty batches never cross the
    /// step/flush boundary.
    pub fn write_batch<M: WireCodec>(buf: &mut Vec<u8>, sender: NodeId, messages: &[M]) {
        write_batch_stamped(buf, sender, 0, messages);
    }

    /// Appends one frame carrying `hlc` — the sender's packed
    /// hybrid-logical-clock stamp at encode time.
    ///
    /// # Panics
    ///
    /// Panics if `messages` is empty — empty batches never cross the
    /// step/flush boundary — or if the body outgrows [`MAX_FRAME_LEN`],
    /// which every reader would refuse.
    pub fn write_batch_stamped<M: WireCodec>(
        buf: &mut Vec<u8>,
        sender: NodeId,
        hlc: u64,
        messages: &[M],
    ) {
        assert!(!messages.is_empty(), "a batch frame carries at least one message");
        let mut body = Vec::new();
        put_varint(&mut body, u64::from(sender.0));
        put_varint(&mut body, hlc);
        put_varint(&mut body, messages.len() as u64);
        let mut sub = Vec::new();
        for message in messages {
            sub.clear();
            message.encode(&mut sub);
            put_varint(&mut body, sub.len() as u64);
            body.extend_from_slice(&sub);
        }
        put_body(buf, &body);
    }

    fn put_body(buf: &mut Vec<u8>, body: &[u8]) {
        assert!(body.len() <= MAX_FRAME_LEN, "frame body of {} bytes", body.len());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body);
    }

    /// Appends one single-message frame (a batch of one) to `buf`.
    pub fn write<M: WireCodec>(buf: &mut Vec<u8>, sender: NodeId, message: &M) {
        write_batch(buf, sender, std::slice::from_ref(message));
    }

    /// Splits the body of one complete frame off the front of `buf`;
    /// `Ok(None)` leaves `buf` untouched until more bytes arrive.
    fn take_body<'a>(buf: &mut &'a [u8]) -> Result<Option<&'a [u8]>, WireError> {
        let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        if rest.len() < len {
            return Ok(None);
        }
        let (body, rest) = rest.split_at(len);
        *buf = rest;
        Ok(Some(body))
    }

    fn decode_batch<M: WireCodec>(mut body: &[u8]) -> Result<(NodeId, u64, Vec<M>), WireError> {
        let sender = NodeId(get_varint(&mut body)? as u32);
        let hlc = get_varint(&mut body)?;
        let count = get_varint(&mut body)?;
        let mut messages = Vec::new();
        for _ in 0..count {
            let sub_len = get_varint(&mut body)?;
            if sub_len > body.len() as u64 {
                return Err(WireError::UnexpectedEof);
            }
            let (mut sub, rest) = body.split_at(sub_len as usize);
            body = rest;
            messages.push(M::decode(&mut sub)?);
        }
        Ok((sender, hlc, messages))
    }

    /// Tries to split one complete frame off the front of `buf`,
    /// returning the sender and the batch's messages in wire order.
    /// Returns `Ok(None)` if more bytes are needed. The frame's clock
    /// stamp is discarded; use [`read_stamped`] to keep it.
    ///
    /// Bytes trailing the advertised message count inside a complete
    /// body are ignored (forward compatibility); the count itself is
    /// untrusted, so nothing is preallocated from it.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] as soon as an oversized length prefix
    /// is in; any other [`WireError`] from decoding a complete but
    /// malformed frame, which is consumed.
    pub fn read<M: WireCodec>(buf: &mut &[u8]) -> Result<Option<(NodeId, Vec<M>)>, WireError> {
        Ok(read_stamped(buf)?.map(|(sender, _, messages)| (sender, messages)))
    }

    /// Like [`read`], but also returns the frame's hybrid-logical-clock
    /// stamp (`0` when the sender carries no clock).
    ///
    /// # Errors
    ///
    /// As for [`read`].
    pub fn read_stamped<M: WireCodec>(
        buf: &mut &[u8],
    ) -> Result<Option<(NodeId, u64, Vec<M>)>, WireError> {
        take_body(buf)?.map(decode_batch).transpose()
    }

    /// Appends the link handshake — a frame whose body is a bare varint
    /// node id, sent once by the dialing side before any batch frame.
    pub fn write_hello(buf: &mut Vec<u8>, me: NodeId) {
        let mut hello = Vec::new();
        put_varint(&mut hello, u64::from(me.0));
        put_body(buf, &hello);
    }

    /// An incremental frame decoder for nonblocking transports.
    ///
    /// Bytes arrive in arbitrary slices (whatever one readiness-driven
    /// `read` returned) via [`Decoder::extend`]; complete frames are
    /// popped with [`Decoder::next`] / [`Decoder::next_hello`], which
    /// return `Ok(None)` while the buffer holds only a partial frame —
    /// including a partial length prefix, a varint split mid-byte, or a
    /// sub-message cut anywhere inside a batch body. The decode result
    /// is byte-identical to running [`read`] over the concatenated
    /// stream, which the fuzz-style split tests assert at every byte
    /// boundary.
    #[derive(Debug, Default)]
    pub struct Decoder {
        buf: Vec<u8>,
        /// Bytes at the front of `buf` that popped frames already used.
        consumed: usize,
        last_hlc: u64,
    }

    impl Decoder {
        /// An empty decoder.
        pub fn new() -> Decoder {
            Decoder::default()
        }

        /// Feeds `bytes` into the decode buffer.
        pub fn extend(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }

        /// Bytes buffered but not yet consumed by a complete frame.
        pub fn buffered(&self) -> usize {
            self.buf.len() - self.consumed
        }

        /// The clock stamp of the last frame popped by [`Decoder::next`]
        /// (`0` before any frame, or when the sender carries no clock).
        pub fn last_hlc(&self) -> u64 {
            self.last_hlc
        }

        /// Runs `read` over the unconsumed bytes and marks what it took
        /// as consumed. The used prefix is reclaimed lazily — at once when
        /// nothing else is buffered, else when it is at least 4 KiB and
        /// half the buffer — so popping frames off the front stays
        /// O(frame).
        fn pop<T>(
            &mut self,
            read: impl FnOnce(&mut &[u8]) -> Result<Option<T>, WireError>,
        ) -> Result<Option<T>, WireError> {
            let mut rest = &self.buf[self.consumed..];
            let popped = read(&mut rest);
            self.consumed = self.buf.len() - rest.len();
            if self.consumed == self.buf.len() {
                self.buf.clear();
                self.consumed = 0;
            } else if self.consumed >= 4096 && self.consumed * 2 >= self.buf.len() {
                self.buf.drain(..self.consumed);
                self.consumed = 0;
            }
            popped
        }

        /// Pops the next complete batch frame, if one is buffered; its
        /// clock stamp is retained for [`Decoder::last_hlc`].
        ///
        /// # Errors
        ///
        /// As for [`read`].
        #[allow(clippy::should_implement_trait)] // generic in the message type per call
        pub fn next<M: WireCodec>(&mut self) -> Result<Option<(NodeId, Vec<M>)>, WireError> {
            Ok(self.pop(read_stamped)?.map(|(sender, hlc, messages)| {
                self.last_hlc = hlc;
                (sender, messages)
            }))
        }

        /// Pops the handshake frame (see [`write_hello`]), if complete.
        ///
        /// # Errors
        ///
        /// [`WireError::FrameTooLarge`], or any other [`WireError`] from a
        /// complete but malformed handshake.
        pub fn next_hello(&mut self) -> Result<Option<NodeId>, WireError> {
            self.pop(|buf| {
                let Some(mut body) = take_body(buf)? else {
                    return Ok(None);
                };
                Ok(Some(NodeId(get_varint(&mut body)? as u32)))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_core::rng::{check_cases, Rng};
    use hlock_core::ALL_MODES;

    fn roundtrip<M: WireCodec + PartialEq + fmt::Debug>(m: &M) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut bytes = buf.as_slice();
        let decoded = M::decode(&mut bytes).expect("decodes");
        assert_eq!(&decoded, m);
        assert!(bytes.is_empty(), "no trailing bytes");
    }

    #[test]
    fn varint_edge_cases() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, 1 << 63, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut b = buf.as_slice();
            assert_eq!(get_varint(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn varint_truncation_errors() {
        let mut b = &[0x80][..];
        assert_eq!(get_varint(&mut b), Err(WireError::UnexpectedEof));
        let mut b = &[][..];
        assert_eq!(get_varint(&mut b), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn varint_overflow_errors() {
        let mut buf = vec![0xFF; 10];
        buf.push(0x01);
        let mut b = buf.as_slice();
        assert_eq!(get_varint(&mut b), Err(WireError::VarintOverflow));
    }

    #[test]
    fn all_payload_variants_roundtrip() {
        let samples = vec![
            Payload::Request {
                origin: NodeId(3),
                mode: Mode::Read,
                stamp: Stamp(99),
                priority: Priority::NORMAL,
                span: Ticket(99),
            },
            Payload::Grant { mode: Mode::IntentWrite, frozen: ModeSet::ALL },
            Payload::Token {
                mode: Mode::Write,
                queue: vec![
                    QueueEntry::new(Waiter::Remote(NodeId(9)), Mode::Read, Stamp(4)),
                    QueueEntry::new(Waiter::Local(Ticket(77)), Mode::Upgrade, Stamp(5)),
                    QueueEntry::new(Waiter::LocalUpgrade(Ticket(1)), Mode::Write, Stamp(6)),
                ],
                sender_owned: Some(Mode::IntentRead),
            },
            Payload::Token { mode: Mode::Upgrade, queue: vec![], sender_owned: None },
            Payload::Release { new_owned: None },
            Payload::Release { new_owned: Some(Mode::IntentRead) },
            Payload::Freeze { modes: ModeSet::from_modes([Mode::IntentWrite]) },
            Payload::Update { frozen: ModeSet::EMPTY },
        ];
        for p in samples {
            roundtrip(&Envelope { lock: LockId(12), payload: p });
        }
    }

    #[test]
    fn recovery_variants_roundtrip() {
        let inner = Envelope {
            lock: LockId(4),
            payload: Payload::Request {
                origin: NodeId(2),
                mode: Mode::Upgrade,
                stamp: Stamp(31),
                priority: Priority::NORMAL,
                span: Ticket(31),
            },
        };
        roundtrip(&RecoveryEnvelope { epoch: 0, body: RecoveryBody::App(inner) });
        roundtrip(&RecoveryEnvelope {
            epoch: 7,
            body: RecoveryBody::Report {
                dead: vec![NodeId(0), NodeId(5)],
                base: 6,
                state: vec![
                    LockReport { holds_token: true, owned: Some(Mode::Write) },
                    LockReport { holds_token: false, owned: None },
                    LockReport { holds_token: false, owned: Some(Mode::IntentRead) },
                ],
            },
        });
        roundtrip(&RecoveryEnvelope {
            epoch: u64::MAX,
            body: RecoveryBody::Install {
                live: vec![NodeId(1), NodeId(2), NodeId(3)],
                base: u64::MAX - 1,
                homes: vec![NodeId(1), NodeId(3)],
                copysets: vec![
                    vec![(NodeId(2), Mode::Read), (NodeId(3), Mode::IntentWrite)],
                    vec![],
                ],
            },
        });
        roundtrip(&RecoveryEnvelope { epoch: 300, body: RecoveryBody::Nack });
    }

    #[test]
    fn recovery_invalid_bytes_error_not_panic() {
        let mut b = &[0x00, 0x09][..]; // epoch 0, tag 9
        assert_eq!(RecoveryEnvelope::decode(&mut b), Err(WireError::InvalidTag(9)));
        let mut b = &[0x00][..]; // epoch only, no tag
        assert_eq!(RecoveryEnvelope::decode(&mut b), Err(WireError::UnexpectedEof));
        // Report claiming one dead node but with no id bytes.
        let mut b = &[0x00, TAG_REC_REPORT, 0x01][..];
        assert_eq!(RecoveryEnvelope::decode(&mut b), Err(WireError::UnexpectedEof));
        // Report with a lock state carrying an invalid owned mode.
        let mut b = &[0x02, TAG_REC_REPORT, 0x00, 0x00, 0x01, 0x01, 0x09][..];
        assert_eq!(RecoveryEnvelope::decode(&mut b), Err(WireError::InvalidMode(9)));
        // Install truncated inside the copyset list.
        let mut b = &[0x01, TAG_REC_INSTALL, 0x01, 0x02, 0x00, 0x01, 0x00, 0x01][..];
        assert_eq!(RecoveryEnvelope::decode(&mut b), Err(WireError::UnexpectedEof));
        let mut b = &[][..];
        assert_eq!(RecoveryEnvelope::decode(&mut b), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn naimi_variants_roundtrip() {
        roundtrip(&NaimiEnvelope {
            lock: LockId(0),
            payload: NaimiPayload::Request { origin: NodeId(250) },
        });
        roundtrip(&NaimiEnvelope { lock: LockId(65_000), payload: NaimiPayload::Token });
    }

    #[test]
    fn session_frame_variants_roundtrip() {
        let inner = Envelope {
            lock: LockId(5),
            payload: Payload::Request {
                origin: NodeId(2),
                mode: Mode::Write,
                stamp: Stamp(7),
                priority: Priority::NORMAL,
                span: Ticket(7),
            },
        };
        roundtrip(&SessionFrame::Data { seq: 1, ack: 0, message: inner.clone() });
        roundtrip(&SessionFrame::Data { seq: u64::MAX, ack: u64::MAX - 1, message: inner });
        roundtrip(&SessionFrame::<Envelope>::Ack { ack: 0 });
        roundtrip(&SessionFrame::<Envelope>::Ack { ack: 300 });
    }

    #[test]
    fn session_frame_overhead_is_small() {
        // The reliability header costs 3 bytes for small seq/ack values.
        let inner = NaimiEnvelope { lock: LockId(1), payload: NaimiPayload::Token };
        let mut plain = Vec::new();
        inner.encode(&mut plain);
        let mut wrapped = Vec::new();
        SessionFrame::Data { seq: 9, ack: 4, message: inner }.encode(&mut wrapped);
        assert_eq!(wrapped.len(), plain.len() + 3);
    }

    #[test]
    fn session_frame_invalid_bytes_error_not_panic() {
        let mut b = &[0x05][..]; // unknown session tag
        assert_eq!(SessionFrame::<Envelope>::decode(&mut b), Err(WireError::InvalidTag(5)));
        let mut b = &[TAG_SESSION_DATA, 0x01][..]; // truncated
        assert_eq!(SessionFrame::<Envelope>::decode(&mut b), Err(WireError::UnexpectedEof));
        let mut b = &[][..];
        assert_eq!(SessionFrame::<Envelope>::decode(&mut b), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn invalid_bytes_error_not_panic() {
        let mut b = &[0x00, 0x09][..]; // lock 0, tag 9
        assert_eq!(Envelope::decode(&mut b), Err(WireError::InvalidTag(9)));
        let mut b = &[0x00, TAG_GRANT, 0x07][..]; // mode 7
        assert_eq!(Envelope::decode(&mut b), Err(WireError::InvalidMode(7)));
        let mut b = &[0x00, TAG_FREEZE, 0xFF][..]; // bad set
        assert_eq!(Envelope::decode(&mut b), Err(WireError::InvalidModeSet(0xFF)));
        let mut b = &[0x00][..];
        assert_eq!(Envelope::decode(&mut b), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn frame_roundtrip_and_partial_reads() {
        let msg = Envelope {
            lock: LockId(2),
            payload: Payload::Request {
                origin: NodeId(1),
                mode: Mode::Write,
                stamp: Stamp(8),
                priority: Priority::NORMAL,
                span: Ticket(8),
            },
        };
        let mut wire = Vec::new();
        frame::write(&mut wire, NodeId(1), &msg);
        frame::write(&mut wire, NodeId(1), &msg);
        // Reveal byte by byte; frames appear exactly when complete.
        let mut consumed = 0;
        let mut decoded = 0;
        for end in 1..=wire.len() {
            let mut partial = &wire[consumed..end];
            while let Some((from, batch)) = frame::read::<Envelope>(&mut partial).unwrap() {
                assert_eq!(from, NodeId(1));
                assert_eq!(batch, vec![msg.clone()]);
                decoded += 1;
            }
            consumed = end - partial.len();
        }
        assert_eq!(decoded, 2);
        assert_eq!(consumed, wire.len());
    }

    /// One-shot decode of a whole stream via `frame::read`, as the
    /// oracle for the incremental [`frame::Decoder`] split tests.
    fn one_shot<M: WireCodec>(mut stream: &[u8]) -> Vec<(NodeId, Vec<M>)> {
        let mut out = Vec::new();
        while let Some(frame) = frame::read::<M>(&mut stream).expect("oracle decodes") {
            out.push(frame);
        }
        assert!(stream.is_empty(), "oracle left trailing bytes");
        out
    }

    /// `body` behind its length prefix, valid or not.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire
    }

    /// Feeds `stream` to a fresh decoder split into two slices at
    /// `split`, draining complete frames after each feed.
    fn decode_split_at<M: WireCodec>(stream: &[u8], split: usize) -> Vec<(NodeId, Vec<M>)> {
        let mut dec = frame::Decoder::new();
        let mut out = Vec::new();
        for chunk in [&stream[..split], &stream[split..]] {
            dec.extend(chunk);
            while let Some(frame) = dec.next::<M>().expect("incremental decodes") {
                out.push(frame);
            }
        }
        assert_eq!(dec.buffered(), 0, "decoder left trailing bytes");
        out
    }

    #[test]
    fn incremental_decoder_matches_one_shot_at_every_split() {
        // A stream whose batch headers exercise multi-byte varints:
        // sender 300 (two bytes) and a 130-message batch (two-byte
        // count), so some splits land mid-varint inside the header.
        let small = NaimiEnvelope { lock: LockId(200), payload: NaimiPayload::Token };
        let mut stream = Vec::new();
        frame::write_batch(&mut stream, NodeId(300), &vec![small.clone(); 130]);
        frame::write(&mut stream, NodeId(1), &small);
        frame::write_batch(&mut stream, NodeId(300), &[small.clone(), small.clone()]);

        let oracle = one_shot::<NaimiEnvelope>(&stream);
        assert_eq!(oracle.len(), 3);
        assert_eq!(oracle[0].0, NodeId(300));
        assert_eq!(oracle[0].1.len(), 130);
        for split in 0..=stream.len() {
            assert_eq!(
                decode_split_at::<NaimiEnvelope>(&stream, split),
                oracle,
                "split at byte {split} diverged from one-shot decode"
            );
        }
    }

    #[test]
    fn incremental_decoder_matches_one_shot_mid_recovery_envelope() {
        // Recovery envelopes are the largest messages on the wire
        // (Install carries live sets, homes and per-lock copysets), so
        // most split points land inside a sub-message body.
        let install = RecoveryEnvelope {
            epoch: 300, // multi-byte epoch varint
            body: RecoveryBody::Install {
                live: vec![NodeId(1), NodeId(2), NodeId(300)],
                base: 299,
                homes: vec![NodeId(1), NodeId(300)],
                copysets: vec![
                    vec![(NodeId(2), Mode::Read), (NodeId(300), Mode::IntentWrite)],
                    vec![(NodeId(1), Mode::Write)],
                ],
            },
        };
        let report = RecoveryEnvelope {
            epoch: 300,
            body: RecoveryBody::Report {
                dead: vec![NodeId(0)],
                base: 299,
                state: vec![
                    LockReport { holds_token: true, owned: Some(Mode::Write) },
                    LockReport { holds_token: false, owned: None },
                ],
            },
        };
        let mut stream = Vec::new();
        frame::write_batch(&mut stream, NodeId(2), &[report, install]);
        frame::write(
            &mut stream,
            NodeId(2),
            &RecoveryEnvelope { epoch: 301, body: RecoveryBody::Nack },
        );

        let oracle = one_shot::<RecoveryEnvelope>(&stream);
        assert_eq!(oracle.len(), 2);
        for split in 0..=stream.len() {
            assert_eq!(
                decode_split_at::<RecoveryEnvelope>(&stream, split),
                oracle,
                "split at byte {split} diverged from one-shot decode"
            );
        }
    }

    #[test]
    fn incremental_decoder_byte_by_byte_with_hello() {
        // The full link preamble: hello frame, then batches — fed one
        // byte at a time, the worst case a readiness loop can see.
        let msg = Envelope {
            lock: LockId(2),
            payload: Payload::Request {
                origin: NodeId(300),
                mode: Mode::Write,
                stamp: Stamp(8),
                priority: Priority::NORMAL,
                span: Ticket(8),
            },
        };
        let mut stream = Vec::new();
        frame::write_hello(&mut stream, NodeId(300));
        frame::write(&mut stream, NodeId(300), &msg);
        frame::write(&mut stream, NodeId(300), &msg);

        let mut dec = frame::Decoder::new();
        let mut hello = None;
        let mut frames = Vec::new();
        for byte in stream.iter() {
            dec.extend(&[*byte]);
            if hello.is_none() {
                hello = dec.next_hello().expect("hello decodes");
                if hello.is_none() {
                    continue;
                }
            }
            while let Some(frame) = dec.next::<Envelope>().expect("frame decodes") {
                frames.push(frame);
            }
        }
        assert_eq!(hello, Some(NodeId(300)));
        assert_eq!(frames, vec![(NodeId(300), vec![msg.clone()]); 2]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn incremental_decoder_surfaces_errors_once_frame_completes() {
        // A complete frame with garbage inside errors exactly when the
        // last byte arrives, never earlier.
        let mut body = Vec::new();
        put_varint(&mut body, 1); // sender
        put_varint(&mut body, 0); // hlc
        put_varint(&mut body, 3); // count, but no sub-frames follow
        let wire = framed(&body);

        let mut dec = frame::Decoder::new();
        for (i, byte) in wire.iter().enumerate() {
            dec.extend(&[*byte]);
            if i + 1 < wire.len() {
                assert_eq!(dec.next::<Envelope>(), Ok(None), "errored early at byte {i}");
            } else {
                assert_eq!(dec.next::<Envelope>(), Err(WireError::UnexpectedEof));
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_its_body() {
        // At the limit a bare prefix is a partial frame like any other.
        let mut dec = frame::Decoder::new();
        dec.extend(&(frame::MAX_FRAME_LEN as u32).to_le_bytes());
        assert_eq!(dec.next::<Envelope>(), Ok(None));
        assert_eq!(dec.next_hello(), Ok(None));

        // One byte past it is refused the moment the fourth length byte
        // arrives — by the batch reader, the handshake reader and the
        // one-shot reader alike — with no body byte buffered.
        let too_large = WireError::FrameTooLarge(frame::MAX_FRAME_LEN + 1);
        let over = (frame::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut dec = frame::Decoder::new();
        dec.extend(&over[..3]);
        assert_eq!(dec.next::<Envelope>(), Ok(None));
        dec.extend(&over[3..]);
        assert_eq!(dec.next::<Envelope>(), Err(too_large));
        assert_eq!(dec.next_hello(), Err(too_large));
        assert_eq!(frame::read_stamped::<Envelope>(&mut &over[..]), Err(too_large));

        let mut dec = frame::Decoder::new();
        dec.extend(&[0xff; 4]);
        assert_eq!(dec.next_hello(), Err(WireError::FrameTooLarge(u32::MAX as usize)));
    }

    #[test]
    fn batch_frame_roundtrip_preserves_order() {
        let msgs: Vec<Envelope> = (0..4)
            .map(|i| Envelope {
                lock: LockId(i),
                payload: Payload::Request {
                    origin: NodeId(7),
                    mode: Mode::IntentRead,
                    stamp: Stamp(u64::from(i)),
                    priority: Priority::NORMAL,
                    span: Ticket(u64::from(i)),
                },
            })
            .collect();
        let mut wire = Vec::new();
        frame::write_batch(&mut wire, NodeId(7), &msgs);
        let mut wire = wire.as_slice();
        let (from, decoded) = frame::read::<Envelope>(&mut wire).unwrap().unwrap();
        assert_eq!(from, NodeId(7));
        assert_eq!(decoded, msgs);
        assert!(wire.is_empty());
    }

    #[test]
    fn batch_frame_carries_the_hlc_stamp() {
        let msg = Envelope {
            lock: LockId(1),
            payload: Payload::Request {
                origin: NodeId(3),
                mode: Mode::Read,
                stamp: Stamp(1),
                priority: Priority::NORMAL,
                span: Ticket(9),
            },
        };
        let stamp = (123_456u64 << 16) | 7;
        let mut wire = Vec::new();
        frame::write_batch_stamped(&mut wire, NodeId(3), stamp, std::slice::from_ref(&msg));
        frame::write_batch(&mut wire, NodeId(3), std::slice::from_ref(&msg));

        let mut probe = wire.as_slice();
        let (from, hlc, decoded) = frame::read_stamped::<Envelope>(&mut probe).unwrap().unwrap();
        assert_eq!((from, hlc), (NodeId(3), stamp));
        assert_eq!(decoded, vec![msg.clone()]);
        let (_, hlc, _) = frame::read_stamped::<Envelope>(&mut probe).unwrap().unwrap();
        assert_eq!(hlc, 0, "unstamped frames read back a zero stamp");

        // The incremental decoder exposes the same stamp per frame.
        let mut dec = frame::Decoder::new();
        dec.extend(&wire);
        assert_eq!(dec.last_hlc(), 0);
        let _ = dec.next::<Envelope>().unwrap().unwrap();
        assert_eq!(dec.last_hlc(), stamp);
        let _ = dec.next::<Envelope>().unwrap().unwrap();
        assert_eq!(dec.last_hlc(), 0);
    }

    #[test]
    fn batch_frame_amortizes_the_header() {
        // n messages in one batch frame cost less than n single frames:
        // the u32 length prefix and sender varint are paid once.
        let msg = NaimiEnvelope { lock: LockId(1), payload: NaimiPayload::Token };
        let msgs = vec![msg.clone(); 4];
        let mut batched = Vec::new();
        frame::write_batch(&mut batched, NodeId(3), &msgs);
        let mut singles = Vec::new();
        for m in &msgs {
            frame::write(&mut singles, NodeId(3), m);
        }
        assert!(
            batched.len() < singles.len(),
            "batch {} bytes vs singles {} bytes",
            batched.len(),
            singles.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn empty_batch_frames_are_rejected() {
        let mut wire = Vec::new();
        frame::write_batch::<Envelope>(&mut wire, NodeId(0), &[]);
    }

    #[test]
    fn batch_frame_garbage_errors_not_panics() {
        // Body claims 3 sub-frames but truncates after the count.
        let mut body = Vec::new();
        put_varint(&mut body, 1); // sender
        put_varint(&mut body, 0); // hlc
        put_varint(&mut body, 3); // count
        let wire = framed(&body);
        assert_eq!(frame::read::<Envelope>(&mut wire.as_slice()), Err(WireError::UnexpectedEof));

        // Sub-frame length larger than the remaining body.
        let mut body = Vec::new();
        put_varint(&mut body, 1);
        put_varint(&mut body, 0); // hlc
        put_varint(&mut body, 1);
        put_varint(&mut body, 1_000_000); // sub_len way past the body
        body.push(0xAA);
        let wire = framed(&body);
        assert_eq!(frame::read::<Envelope>(&mut wire.as_slice()), Err(WireError::UnexpectedEof));

        // Absurd count (2^63) with no sub-frames: must error, not OOM.
        let mut body = Vec::new();
        put_varint(&mut body, 1);
        put_varint(&mut body, 0); // hlc
        put_varint(&mut body, 1 << 63);
        let wire = framed(&body);
        assert_eq!(frame::read::<Envelope>(&mut wire.as_slice()), Err(WireError::UnexpectedEof));

        // A sub-frame holding garbage bytes surfaces the codec's error.
        let mut body = Vec::new();
        put_varint(&mut body, 1);
        put_varint(&mut body, 0); // hlc
        put_varint(&mut body, 1);
        put_varint(&mut body, 2);
        body.push(0x00); // lock 0
        body.push(0x09); // invalid payload tag
        let wire = framed(&body);
        assert_eq!(frame::read::<Envelope>(&mut wire.as_slice()), Err(WireError::InvalidTag(9)));
    }

    fn arb_mode(rng: &mut Rng) -> Mode {
        ALL_MODES[rng.index(5)]
    }

    fn arb_opt_mode(rng: &mut Rng) -> Option<Mode> {
        rng.chance(0.5).then(|| arb_mode(rng))
    }

    fn arb_entry(rng: &mut Rng) -> QueueEntry {
        let waiter = match rng.below(3) {
            0 => Waiter::Remote(NodeId(rng.next_u64() as u32)),
            1 => Waiter::Local(Ticket(rng.next_u64())),
            _ => Waiter::LocalUpgrade(Ticket(rng.next_u64())),
        };
        QueueEntry::new(waiter, arb_mode(rng), Stamp(rng.next_u64()))
            .with_span(Ticket(rng.next_u64()))
    }

    fn arb_mode_set(rng: &mut Rng) -> ModeSet {
        ModeSet::from_bits(rng.range_inclusive(0..=0b1_1111) as u8).unwrap()
    }

    fn arb_payload(rng: &mut Rng) -> Payload {
        match rng.below(6) {
            0 => Payload::Request {
                origin: NodeId(rng.next_u64() as u32),
                mode: arb_mode(rng),
                stamp: Stamp(rng.next_u64()),
                priority: Priority(rng.next_u64() as u8),
                span: Ticket(rng.next_u64()),
            },
            1 => Payload::Grant { mode: arb_mode(rng), frozen: arb_mode_set(rng) },
            2 => Payload::Token {
                mode: arb_mode(rng),
                queue: (0..rng.below(8)).map(|_| arb_entry(rng)).collect(),
                sender_owned: arb_opt_mode(rng),
            },
            3 => Payload::Release { new_owned: arb_opt_mode(rng) },
            4 => Payload::Freeze { modes: arb_mode_set(rng) },
            _ => Payload::Update { frozen: arb_mode_set(rng) },
        }
    }

    fn arb_bytes(rng: &mut Rng, max_len: u64) -> Vec<u8> {
        (0..rng.below(max_len)).map(|_| rng.next_u64() as u8).collect()
    }

    /// Cases per property, proptest's former default.
    const CASES: u64 = 256;

    #[test]
    fn prop_envelope_roundtrip() {
        check_cases(CASES, |rng| {
            roundtrip(&Envelope { lock: LockId(rng.next_u64() as u32), payload: arb_payload(rng) });
        });
    }

    #[test]
    fn prop_varint_roundtrip() {
        check_cases(CASES, |rng| {
            // Every encoded length: a uniform 64-bit draw is ten bytes
            // nine times in ten.
            let v = rng.next_u64() >> rng.below(64);
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut b = buf.as_slice();
            assert_eq!(get_varint(&mut b).unwrap(), v);
        });
    }

    /// Causal span tickets survive the wire in both places they
    /// travel: request messages and queue entries inside a token
    /// transfer — the invariant the cross-node span ids rely on.
    #[test]
    fn prop_span_survives_roundtrip() {
        check_cases(CASES, |rng| {
            let (origin, span, entry_span) =
                (rng.next_u64() as u32, rng.next_u64(), rng.next_u64());
            let req = Envelope {
                lock: LockId(1),
                payload: Payload::Request {
                    origin: NodeId(origin),
                    mode: Mode::Write,
                    stamp: Stamp(1),
                    priority: Priority::NORMAL,
                    span: Ticket(span),
                },
            };
            let mut buf = Vec::new();
            req.encode(&mut buf);
            let decoded = Envelope::decode(&mut buf.as_slice()).unwrap();
            let Payload::Request { span: got, .. } = decoded.payload else {
                panic!("not a request");
            };
            assert_eq!(got, Ticket(span));

            let tok = Envelope {
                lock: LockId(1),
                payload: Payload::Token {
                    mode: Mode::Write,
                    queue: vec![QueueEntry::new(Waiter::Remote(NodeId(4)), Mode::Read, Stamp(2))
                        .with_span(Ticket(entry_span))],
                    sender_owned: None,
                },
            };
            let mut buf = Vec::new();
            tok.encode(&mut buf);
            let decoded = Envelope::decode(&mut buf.as_slice()).unwrap();
            let Payload::Token { queue, .. } = decoded.payload else {
                panic!("not a token");
            };
            assert_eq!(queue[0].span, Ticket(entry_span));
        });
    }

    #[test]
    fn prop_decode_never_panics() {
        check_cases(CASES, |rng| {
            let bytes = arb_bytes(rng, 64);
            let _ = Envelope::decode(&mut bytes.as_slice()); // Err is fine; panic is not.
        });
    }

    #[test]
    fn prop_naimi_roundtrip() {
        check_cases(CASES, |rng| {
            let payload = if rng.chance(0.5) {
                NaimiPayload::Request { origin: NodeId(rng.next_u64() as u32) }
            } else {
                NaimiPayload::Token
            };
            roundtrip(&NaimiEnvelope { lock: LockId(rng.next_u64() as u32), payload });
        });
    }

    #[test]
    fn prop_session_frame_roundtrip() {
        check_cases(CASES, |rng| {
            let (seq, ack) = (rng.next_u64(), rng.next_u64());
            let frame = if rng.chance(0.5) {
                SessionFrame::Ack { ack }
            } else {
                let message = Envelope { lock: LockId(1), payload: arb_payload(rng) };
                SessionFrame::Data { seq, ack, message }
            };
            roundtrip(&frame);
        });
    }

    #[test]
    fn prop_frame_roundtrip() {
        check_cases(CASES, |rng| {
            let sender = NodeId(rng.next_u64() as u32);
            let msg = Envelope { lock: LockId(1), payload: arb_payload(rng) };
            let mut wire = Vec::new();
            frame::write(&mut wire, sender, &msg);
            let mut wire = wire.as_slice();
            let (from, decoded) = frame::read::<Envelope>(&mut wire).unwrap().unwrap();
            assert_eq!(from, sender);
            assert_eq!(decoded, vec![msg]);
            assert!(wire.is_empty());
        });
    }

    #[test]
    fn prop_batch_frame_roundtrip() {
        check_cases(CASES, |rng| {
            let sender = NodeId(rng.next_u64() as u32);
            let msgs: Vec<Envelope> = (0..rng.range(1..6))
                .map(|i| Envelope { lock: LockId(i as u32), payload: arb_payload(rng) })
                .collect();
            let mut wire = Vec::new();
            frame::write_batch(&mut wire, sender, &msgs);
            let mut wire = wire.as_slice();
            let (from, decoded) = frame::read::<Envelope>(&mut wire).unwrap().unwrap();
            assert_eq!(from, sender);
            assert_eq!(decoded, msgs);
            assert!(wire.is_empty());
        });
    }

    #[test]
    fn prop_batch_read_never_panics() {
        check_cases(CASES, |rng| {
            // Arbitrary bytes fed as a complete frame body: Err or
            // Ok(None) are both fine; panics and runaway allocation are
            // not.
            let wire = framed(&arb_bytes(rng, 96));
            let _ = frame::read::<Envelope>(&mut wire.as_slice());
        });
    }
}
