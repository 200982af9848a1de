//! The authenticated record layer.
//!
//! Wire format: `[content_type: u8][len: u32 LE][ciphertext || tag]`, with
//! the sequence number as AES-GCM nonce/AAD so replayed or reordered
//! records fail to open.
//!
//! `open` reads bytes from a peer, so this module may not index, unwrap
//! or panic: every access is checked and a bad record is a
//! [`RecordError`].
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use ne_crypto::gcm::AesGcm;
use std::fmt;

/// TLS content types (the subset we model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// Handshake messages.
    Handshake,
    /// Application data.
    Data,
    /// Heartbeat extension messages (RFC 6520).
    Heartbeat,
}

impl ContentType {
    fn to_byte(self) -> u8 {
        match self {
            ContentType::Handshake => 22,
            ContentType::Data => 23,
            ContentType::Heartbeat => 24,
        }
    }

    fn from_byte(b: u8) -> Option<ContentType> {
        match b {
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::Data),
            24 => Some(ContentType::Heartbeat),
            _ => None,
        }
    }
}

/// Record-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Too short or inconsistent framing.
    Malformed,
    /// Unknown content type byte.
    BadContentType(u8),
    /// Authentication failed (tamper, replay, wrong key).
    BadMac,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Malformed => write!(f, "malformed record"),
            RecordError::BadContentType(b) => write!(f, "bad content type {b}"),
            RecordError::BadMac => write!(f, "record authentication failed"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One direction of a record stream (each peer owns two: send and
/// receive share the key here since the mini-handshake derives one key per
/// direction pair — adequate for the case study).
#[derive(Debug)]
pub struct RecordLayer {
    cipher: AesGcm,
    send_seq: u64,
    recv_seq: u64,
}

/// Bytes of framing overhead per record (type + length + GCM tag).
pub const RECORD_OVERHEAD: usize = 1 + 4 + 16;

impl RecordLayer {
    /// Creates a record layer with the session key.
    pub fn new(key: [u8; 16]) -> RecordLayer {
        RecordLayer {
            cipher: AesGcm::new(&key),
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// Seals `payload` into a wire record.
    pub fn seal(&mut self, ty: ContentType, payload: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.send_seq.to_le_bytes());
        let aad = [ty.to_byte()];
        let ct = self.cipher.seal(&nonce, payload, &aad);
        self.send_seq += 1;
        let mut out = Vec::with_capacity(5 + ct.len());
        out.push(ty.to_byte());
        out.extend_from_slice(&(ct.len() as u32).to_le_bytes());
        out.extend_from_slice(&ct);
        out
    }

    /// Opens a wire record.
    ///
    /// # Errors
    ///
    /// [`RecordError`] on framing or authentication failure.
    pub fn open(&mut self, wire: &[u8]) -> Result<(ContentType, Vec<u8>), RecordError> {
        let ([ty_byte, len @ ..], body) = wire
            .split_first_chunk::<5>()
            .ok_or(RecordError::Malformed)?;
        let ty = ContentType::from_byte(*ty_byte).ok_or(RecordError::BadContentType(*ty_byte))?;
        if body.len() != u32::from_le_bytes(*len) as usize {
            return Err(RecordError::Malformed);
        }
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.recv_seq.to_le_bytes());
        let aad = [*ty_byte];
        let pt = self
            .cipher
            .open(&nonce, body, &aad)
            .map_err(|_| RecordError::BadMac)?;
        self.recv_seq += 1;
        Ok((ty, pt))
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

    fn pair() -> (RecordLayer, RecordLayer) {
        (RecordLayer::new([9; 16]), RecordLayer::new([9; 16]))
    }

    /// Round key 0 is the AES key itself, so a `{:?}` of a record layer
    /// (or of the frame codecs that hold one) must not print the schedule.
    #[test]
    fn debug_prints_no_round_key() {
        let text = format!("{:?}", RecordLayer::new([0x42; 16]));
        assert!(text.contains("AesGcm { .. }"), "{text}");
        // The key's word as the schedule stores it, and its bytes.
        for word in ["1111638594", "66, 66, 66, 66"] {
            assert!(!text.contains(word), "{text}");
        }
    }

    #[test]
    fn roundtrip() {
        let (mut a, mut b) = pair();
        let wire = a.seal(ContentType::Data, b"hello");
        let (ty, pt) = b.open(&wire).unwrap();
        assert_eq!(ty, ContentType::Data);
        assert_eq!(pt, b"hello");
    }

    #[test]
    fn sequence_numbers_prevent_replay() {
        let (mut a, mut b) = pair();
        let wire = a.seal(ContentType::Data, b"one");
        b.open(&wire).unwrap();
        assert_eq!(b.open(&wire).unwrap_err(), RecordError::BadMac);
    }

    #[test]
    fn reordering_detected() {
        let (mut a, mut b) = pair();
        let w1 = a.seal(ContentType::Data, b"one");
        let w2 = a.seal(ContentType::Data, b"two");
        assert_eq!(b.open(&w2).unwrap_err(), RecordError::BadMac);
        b.open(&w1).unwrap();
        b.open(&w2).unwrap();
    }

    #[test]
    fn content_type_is_authenticated() {
        let (mut a, mut b) = pair();
        let mut wire = a.seal(ContentType::Data, b"x");
        wire[0] = ContentType::Heartbeat.to_byte();
        assert_eq!(b.open(&wire).unwrap_err(), RecordError::BadMac);
    }

    #[test]
    fn tamper_detected() {
        let (mut a, mut b) = pair();
        let mut wire = a.seal(ContentType::Data, b"payload");
        let n = wire.len();
        wire[n - 1] ^= 1;
        assert_eq!(b.open(&wire).unwrap_err(), RecordError::BadMac);
    }

    #[test]
    fn malformed_records_rejected() {
        let (_, mut b) = pair();
        assert_eq!(b.open(&[]).unwrap_err(), RecordError::Malformed);
        assert_eq!(
            b.open(&[23, 9, 0, 0, 0]).unwrap_err(),
            RecordError::Malformed
        );
        assert_eq!(
            b.open(&[99, 0, 0, 0, 0]).unwrap_err(),
            RecordError::BadContentType(99)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let mut a = RecordLayer::new([1; 16]);
        let mut b = RecordLayer::new([2; 16]);
        let wire = a.seal(ContentType::Data, b"x");
        assert_eq!(b.open(&wire).unwrap_err(), RecordError::BadMac);
    }
}
