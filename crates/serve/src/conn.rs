//! Framed TCP connections: a [`FramedConn`] pairs a [`FrameSender`] and
//! a [`FrameReceiver`] over one socket (via `try_clone`), so open-loop
//! clients can split sending and receiving across threads. With TLS
//! enabled ([`FramedConn::enable_tls`]) every frame travels inside one
//! `ne-tls` record — the wire bytes are ciphertext; framing, sequence
//! numbers, and tampering are authenticated by the record layer before
//! the frame decoder ever sees a byte.
//!
//! [`FrameReceiver::recv`] reads bytes from a peer, so this module may
//! not index, unwrap or panic: a bad read is a [`ConnError`].
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ne_tls::record::{ContentType, RecordError, RecordLayer};

use crate::frame::{le_u32, Decoder, Frame, FrameError, HEADER_LEN, MAX_PAYLOAD};

/// Largest admissible TLS record body on the wire: one maximal frame
/// plus the record tag, with a little slack. Anything larger is a
/// protocol violation, refused before allocating.
const MAX_RECORD: usize = HEADER_LEN + MAX_PAYLOAD + 64;

/// Connection-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnError {
    /// The read deadline expired (slow or stalled peer).
    TimedOut,
    /// The peer closed the connection.
    Closed,
    /// Frame decode failure (see [`FrameError`]); the stream is dead.
    Frame(FrameError),
    /// TLS record failure (tamper, replay, framing); the stream is dead.
    Record(RecordError),
    /// Protocol violation above the codec (wrong frame kind, oversized
    /// record, handshake refusal).
    Protocol(String),
    /// Any other socket error.
    Io(std::io::ErrorKind),
}

impl fmt::Display for ConnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnError::TimedOut => write!(f, "read deadline expired"),
            ConnError::Closed => write!(f, "connection closed by peer"),
            ConnError::Frame(e) => write!(f, "frame error: {e}"),
            ConnError::Record(e) => write!(f, "record error: {e}"),
            ConnError::Protocol(m) => write!(f, "protocol error: {m}"),
            ConnError::Io(k) => write!(f, "socket error: {k:?}"),
        }
    }
}

impl std::error::Error for ConnError {}

fn map_io(e: std::io::Error) -> ConnError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ConnError::TimedOut,
        std::io::ErrorKind::UnexpectedEof => ConnError::Closed,
        k => ConnError::Io(k),
    }
}

/// The sending half of a framed connection.
#[derive(Debug)]
pub struct FrameSender {
    stream: TcpStream,
    seal: Option<RecordLayer>,
}

impl FrameSender {
    /// Encodes and writes one frame (sealed in a record when TLS is
    /// enabled).
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] for a payload past [`MAX_PAYLOAD`]
    /// (the peer's decoder would refuse it anyway — failing here keeps
    /// the stream alive), or socket write failures.
    pub fn send(&mut self, frame: &Frame) -> Result<(), ConnError> {
        if frame.payload.len() > MAX_PAYLOAD {
            return Err(ConnError::Frame(FrameError::Oversized(
                frame.payload.len().min(u32::MAX as usize) as u32,
            )));
        }
        let bytes = frame.encode();
        let wire = match &mut self.seal {
            Some(layer) => layer.seal(ContentType::Data, &bytes),
            None => bytes,
        };
        self.stream.write_all(&wire).map_err(map_io)
    }
}

/// The receiving half of a framed connection.
#[derive(Debug)]
pub struct FrameReceiver {
    stream: TcpStream,
    seal: Option<RecordLayer>,
    decoder: Decoder,
}

impl FrameReceiver {
    /// Blocks for the next frame, honoring the socket's read timeout.
    ///
    /// In plaintext mode a timeout leaves buffered partial bytes intact
    /// (the read is resumable); in TLS mode a timeout mid-record is
    /// fatal to the stream — the caller treats any [`ConnError`] other
    /// than a clean first-byte timeout as reason to drop the peer.
    ///
    /// # Errors
    ///
    /// [`ConnError`] on timeout, close, decode, or record failure.
    pub fn recv(&mut self) -> Result<Frame, ConnError> {
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(ConnError::Frame)? {
                return Ok(frame);
            }
            match &mut self.seal {
                None => {
                    let mut chunk = [0u8; 4096];
                    let n = self.stream.read(&mut chunk).map_err(map_io)?;
                    if n == 0 {
                        return Err(ConnError::Closed);
                    }
                    let read = chunk
                        .get(..n)
                        .ok_or(ConnError::Io(std::io::ErrorKind::InvalidData))?;
                    self.decoder.feed(read).map_err(ConnError::Frame)?;
                }
                Some(layer) => {
                    let mut header = [0u8; 5];
                    read_exact(&mut self.stream, &mut header)?;
                    let len = le_u32(&header[1..5]) as usize;
                    if len > MAX_RECORD {
                        return Err(ConnError::Protocol(format!(
                            "oversized record of {len} bytes"
                        )));
                    }
                    let mut wire = Vec::with_capacity(5 + len);
                    wire.extend_from_slice(&header);
                    wire.resize(5 + len, 0);
                    // INVARIANT: `wire` is the 5 header bytes plus `len` more.
                    #[allow(clippy::indexing_slicing)]
                    read_exact(&mut self.stream, &mut wire[5..])?;
                    let (ty, plaintext) = layer.open(&wire).map_err(ConnError::Record)?;
                    if ty != ContentType::Data {
                        return Err(ConnError::Protocol(format!(
                            "unexpected record type {ty:?}"
                        )));
                    }
                    self.decoder.feed(&plaintext).map_err(ConnError::Frame)?;
                }
            }
        }
    }
}

fn read_exact(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), ConnError> {
    stream.read_exact(buf).map_err(map_io)
}

/// A framed connection: one socket, both directions.
#[derive(Debug)]
pub struct FramedConn {
    tx: FrameSender,
    rx: FrameReceiver,
}

impl FramedConn {
    /// Wraps a connected stream. The stream is cloned so the two halves
    /// can later be split across threads.
    ///
    /// # Errors
    ///
    /// Socket clone failure.
    pub fn new(stream: TcpStream) -> std::io::Result<FramedConn> {
        let write_half = stream.try_clone()?;
        Ok(FramedConn {
            tx: FrameSender {
                stream: write_half,
                seal: None,
            },
            rx: FrameReceiver {
                stream,
                seal: None,
                decoder: Decoder::new(),
            },
        })
    }

    /// Sets the read deadline for [`FramedConn::recv`] (`None` blocks
    /// forever).
    ///
    /// # Errors
    ///
    /// Socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.rx.stream.set_read_timeout(timeout)
    }

    /// Switches both directions to sealed records under `key` (each
    /// direction gets its own [`RecordLayer`] so the halves stay
    /// independently owned). Must be called at a frame boundary — i.e.
    /// right after the plaintext handshake frames.
    ///
    /// # Errors
    ///
    /// [`ConnError::Protocol`] if the peer pipelined bytes past its
    /// handshake frame: those buffered plaintext bytes would be
    /// misinterpreted once records are on, so the stream is refused
    /// instead of desynchronized (a hostile client must not be able to
    /// abort the front door — it only gets its own connection dropped).
    pub fn enable_tls(&mut self, key: [u8; 16]) -> Result<(), ConnError> {
        let buffered = self.rx.decoder.buffered();
        if buffered != 0 {
            return Err(ConnError::Protocol(format!(
                "{buffered} bytes pipelined past the handshake frame"
            )));
        }
        self.tx.seal = Some(RecordLayer::new(key));
        self.rx.seal = Some(RecordLayer::new(key));
        Ok(())
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// As [`FrameSender::send`].
    pub fn send(&mut self, frame: &Frame) -> Result<(), ConnError> {
        self.tx.send(frame)
    }

    /// Receives one frame.
    ///
    /// # Errors
    ///
    /// As [`FrameReceiver::recv`].
    pub fn recv(&mut self) -> Result<Frame, ConnError> {
        self.rx.recv()
    }

    /// Splits the connection into independently owned halves (the
    /// open-loop client writes from one thread and reads from another).
    pub fn into_split(self) -> (FrameSender, FrameReceiver) {
        (self.tx, self.rx)
    }
}
