//! The length-prefixed frame codec.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     2  magic     0x4E46 ("NF")
//!      2     1  version   1
//!      3     1  kind      FrameKind
//!      4     4  tenant    global tenant id
//!      8     4  service   service index within the tenant
//!     12     8  req_id    client-chosen request id (or seq on replies)
//!     20     4  len       payload length, at most MAX_PAYLOAD
//!     24     4  checksum  FNV-1a over header (checksum zeroed) + payload
//!     28   len  payload
//! ```
//!
//! The checksum covers every header byte and the payload, so any
//! single-bit corruption is caught: a flipped magic/version byte maps to
//! the matching typed error, a flipped length either overflows the bound
//! ([`FrameError::Oversized`]) or breaks the checksum, and everything
//! else lands in [`FrameError::BadChecksum`]. On any decode error the
//! [`Decoder`] **latches**: a corrupted length field means frame
//! boundaries can no longer be trusted, so rather than resynchronize
//! wrongly (the classic desync bug) the stream is declared dead and the
//! connection torn down. A fresh connection restarts clean.
//!
//! The decoder reads bytes from a peer, so this module may not index,
//! unwrap or panic: every access is checked and a bad frame is a
//! [`FrameError`].
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::fmt;

/// Frame magic, `"NF"` little-endian.
pub const MAGIC: u16 = 0x4E46;

/// Protocol version this codec speaks.
pub const VERSION: u8 = 1;

/// Header bytes per frame.
pub const HEADER_LEN: usize = 28;

/// Largest admissible payload (64 KiB) — far above any request the
/// factories generate, far below anything that could wedge a reader.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// What a frame is, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: claim a (tenant, service) pair and state the
    /// scenario (seed, mode, requests) for validation.
    Hello,
    /// Server → client: the Hello was accepted.
    HelloAck,
    /// Client → server: one request payload.
    Request,
    /// Server → client: a completion (simulated timings + reply bytes).
    Reply,
    /// Server → client: the pair's last request was rejected by
    /// admission; in closed-loop mode the pair is closed.
    Reject,
    /// Client → server: the pair's request stream ended gracefully.
    Done,
    /// Server → client: the run is over, exports are final.
    Finish,
    /// Client → server: transport handshake offer (plaintext).
    ClientHello,
    /// Server → client: transport handshake answer (plaintext).
    ServerHello,
    /// Either side: fatal protocol error, payload is a human-readable
    /// reason; the connection is dead.
    Abort,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::HelloAck => 2,
            FrameKind::Request => 3,
            FrameKind::Reply => 4,
            FrameKind::Reject => 5,
            FrameKind::Done => 6,
            FrameKind::Finish => 7,
            FrameKind::ClientHello => 8,
            FrameKind::ServerHello => 9,
            FrameKind::Abort => 10,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::HelloAck),
            3 => Some(FrameKind::Request),
            4 => Some(FrameKind::Reply),
            5 => Some(FrameKind::Reject),
            6 => Some(FrameKind::Done),
            7 => Some(FrameKind::Finish),
            8 => Some(FrameKind::ClientHello),
            9 => Some(FrameKind::ServerHello),
            10 => Some(FrameKind::Abort),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// Global tenant id the frame belongs to.
    pub tenant: u32,
    /// Service index within the tenant.
    pub service: u32,
    /// Request id (client-chosen on requests; completion seq on replies).
    pub req_id: u64,
    /// Payload bytes (at most [`MAX_PAYLOAD`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with the given header fields and payload. The payload
    /// bound is not checked here: [`crate::conn::FrameSender::send`]
    /// refuses oversized frames with [`FrameError::Oversized`] on the
    /// way out, and the [`Decoder`] refuses them on the way in — the
    /// fallible seams, so nothing on the wire path can panic.
    pub fn new(kind: FrameKind, tenant: u32, service: u32, req_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            tenant,
            service,
            req_id,
            payload,
        }
    }

    /// Encodes the frame into its wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(self.kind.to_byte());
        out.extend_from_slice(&self.tenant.to_le_bytes());
        out.extend_from_slice(&self.service.to_le_bytes());
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        // `out` holds exactly the 24 checksum-free header bytes here.
        let sum = checksum(&out, &self.payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Panic-free little-endian reads for the wire path: they take at most
/// the needed bytes and treat missing trailing bytes as zero. Callers
/// bounds-check first — the fold exists so that no slice-length mistake
/// can ever abort a connection thread.
pub(crate) fn le_u16(bytes: &[u8]) -> u16 {
    le(bytes, 2) as u16
}

pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    le(bytes, 4) as u32
}

pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    le(bytes, 8)
}

fn le(bytes: &[u8], width: usize) -> u64 {
    bytes
        .iter()
        .take(width)
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b)) << (8 * i))
}

/// FNV-1a over the 24 checksum-free header bytes followed by the
/// payload.
fn checksum(header: &[u8], payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in header.iter().chain(payload) {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Typed decode failures. Every one of these poisons the [`Decoder`]
/// (see the module docs for why resynchronization is not attempted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not start with the frame magic.
    BadMagic(u16),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Claimed payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Header/payload checksum mismatch (bit flip or truncated write).
    BadChecksum {
        /// Checksum carried by the frame.
        claimed: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// Feeding more bytes would exceed the decoder's bounded buffer.
    BufferOverflow {
        /// Bytes the buffer would have grown to.
        len: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds bound"),
            FrameError::BadChecksum { claimed, computed } => {
                write!(
                    f,
                    "frame checksum mismatch ({claimed:#010x} != {computed:#010x})"
                )
            }
            FrameError::BufferOverflow { len } => {
                write!(f, "pending-frame buffer would grow to {len} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A streaming frame decoder over a bounded buffer. Feed arbitrary
/// chunks with [`Decoder::feed`], drain complete frames with
/// [`Decoder::next_frame`]. Never panics on any input; returns typed errors
/// and latches on the first one.
#[derive(Debug)]
pub struct Decoder {
    buf: Vec<u8>,
    cap: usize,
    poisoned: Option<FrameError>,
}

impl Decoder {
    /// Default buffer bound: two maximal frames — enough for any honest
    /// sender, small enough that a flooding client hits TCP
    /// backpressure instead of growing server memory.
    pub const DEFAULT_CAP: usize = 2 * (HEADER_LEN + MAX_PAYLOAD);

    /// A decoder with the default buffer bound.
    pub fn new() -> Decoder {
        Decoder::with_capacity(Decoder::DEFAULT_CAP)
    }

    /// A decoder with an explicit buffer bound (at least one maximal
    /// frame, or complete frames could never fit).
    pub fn with_capacity(cap: usize) -> Decoder {
        Decoder {
            buf: Vec::new(),
            cap: cap.max(HEADER_LEN + MAX_PAYLOAD),
            poisoned: None,
        }
    }

    /// Bytes currently buffered (fed but not yet drained as frames).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Appends raw stream bytes to the pending buffer.
    ///
    /// # Errors
    ///
    /// [`FrameError::BufferOverflow`] if the bound would be exceeded, or
    /// the latched error if the decoder is already poisoned.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buf.len() + bytes.len() > self.cap {
            let e = FrameError::BufferOverflow {
                len: self.buf.len() + bytes.len(),
            };
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Decodes the next complete frame, if the buffer holds one.
    /// `Ok(None)` means "incomplete — feed more bytes".
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; the decoder latches it and every later call
    /// returns it again.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match parse(&self.buf) {
            Ok(Some((frame, total))) => {
                self.buf.drain(..total);
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(self.poison(e)),
        }
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e.clone());
        e
    }
}

/// Decodes the frame at the front of `buf` and the bytes it spans, or
/// `None` while the buffer holds only part of one.
fn parse(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let magic = le_u16(&header[..2]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[2] != VERSION {
        return Err(FrameError::BadVersion(header[2]));
    }
    let len = le_u32(&header[20..24]);
    if len as usize > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let total = HEADER_LEN + len as usize;
    let Some(payload) = buf.get(HEADER_LEN..total) else {
        return Ok(None);
    };
    let claimed = le_u32(&header[24..]);
    let computed = checksum(&header[..24], payload);
    if claimed != computed {
        return Err(FrameError::BadChecksum { claimed, computed });
    }
    // The kind byte is authenticated by the checksum, so an unknown kind
    // here is a peer speaking a newer protocol, not corruption — still
    // fatal, still typed.
    let Some(kind) = FrameKind::from_byte(header[3]) else {
        return Err(FrameError::BadKind(header[3]));
    };
    let frame = Frame {
        kind,
        tenant: le_u32(&header[4..8]),
        service: le_u32(&header[8..12]),
        req_id: le_u64(&header[12..20]),
        payload: payload.to_vec(),
    };
    Ok(Some((frame, total)))
}

impl Default for Decoder {
    fn default() -> Decoder {
        Decoder::new()
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(FrameKind::Request, 3, 1, 42, vec![7, 8, 9])
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let mut d = Decoder::new();
        d.feed(&f.encode()).unwrap();
        assert_eq!(d.next_frame().unwrap(), Some(f));
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_roundtrip() {
        let f = sample();
        let mut d = Decoder::new();
        for b in f.encode() {
            d.feed(&[b]).unwrap();
        }
        assert_eq!(d.next_frame().unwrap(), Some(f));
    }

    #[test]
    fn truncated_frame_is_incomplete_not_error() {
        let bytes = sample().encode();
        let mut d = Decoder::new();
        d.feed(&bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(d.next_frame().unwrap(), None);
        d.feed(&bytes[bytes.len() - 1..]).unwrap();
        assert!(d.next_frame().unwrap().is_some());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = sample().encode();
        bytes[20..24].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut d = Decoder::new();
        d.feed(&bytes).unwrap();
        assert!(matches!(d.next_frame(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().encode();
        bytes[2] = 9;
        let mut d = Decoder::new();
        d.feed(&bytes).unwrap();
        assert_eq!(d.next_frame(), Err(FrameError::BadVersion(9)));
    }

    #[test]
    fn errors_latch() {
        let mut bytes = sample().encode();
        bytes[5] ^= 0x10; // tenant bytes — caught by the checksum
        let mut d = Decoder::new();
        d.feed(&bytes).unwrap();
        let first = d.next_frame().unwrap_err();
        assert!(matches!(first, FrameError::BadChecksum { .. }));
        // A pristine frame after the corruption still errors: the
        // stream is dead, not resynchronized.
        assert_eq!(d.feed(&sample().encode()), Err(first.clone()));
        assert_eq!(d.next_frame(), Err(first));
    }

    #[test]
    fn buffer_is_bounded() {
        let mut d = Decoder::with_capacity(HEADER_LEN + MAX_PAYLOAD);
        let chunk = vec![0u8; HEADER_LEN + MAX_PAYLOAD];
        d.feed(&chunk).unwrap();
        assert!(matches!(
            d.feed(&[0]),
            Err(FrameError::BufferOverflow { .. })
        ));
    }
}
