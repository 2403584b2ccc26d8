//! Per-peer frame reassembly for byte-stream transports.
//!
//! A stream socket delivers bytes, not frames: one `read` may return half a
//! frame, three frames, or a frame and a half. The [`ReassemblyBuffer`]
//! accumulates whatever arrives and re-cuts it at the length-prefixed frame
//! boundaries `dataflasks_core::wire` defines. Cutting needs only the length
//! prefix: [`ReassemblyBuffer::next_raw_frame`] yields a frame's bytes
//! without looking inside them, which is all the socket runtime's reactor
//! does — the frame is decoded later, on the worker thread that dispatches
//! it. [`ReassemblyBuffer::next_frame`] is that cut followed by
//! [`decode_frame`], for callers that want messages. A buffer that ends
//! mid-frame simply means "read more bytes"; every error is a protocol
//! violation the caller answers by closing the connection (and counting a
//! `NodeStats::wire_rejects`).
//!
//! The buffer is the single place where split/coalesced delivery is undone,
//! so its contract is property-tested exhaustively: any re-chunking of a
//! valid frame stream — byte by byte, coalesced pairs, arbitrary splits —
//! yields the identical frame sequence and no rejects (see
//! `tests/reassembly_properties.rs`).
//!
//! # Example
//!
//! ```
//! use dataflasks_core::wire::encode_frame;
//! use dataflasks_core::Message;
//! use dataflasks_net_env::ReassemblyBuffer;
//! use dataflasks_types::NodeId;
//!
//! let message = Message::AntiEntropyPush { objects: [].into() };
//! let mut bytes = Vec::new();
//! encode_frame(NodeId::new(3), std::slice::from_ref(&message), &mut bytes).unwrap();
//!
//! let mut buffer = ReassemblyBuffer::new();
//! let (head, tail) = bytes.split_at(5); // a partial read...
//! buffer.extend_from_slice(head);
//! assert!(buffer.next_frame().unwrap().is_none(), "mid-frame: wait for more");
//! buffer.extend_from_slice(tail); // ...completed by the next read
//! let frame = buffer.next_frame().unwrap().expect("frame is complete");
//! assert_eq!(frame.from, NodeId::new(3));
//! assert!(buffer.is_empty());
//! ```

use dataflasks_core::wire::{decode_frame, DecodedFrame, WireError, MAX_FRAME_BYTES};

/// How many consumed bytes may pile up at the front of the buffer before it
/// is compacted (the amortised alternative to shifting after every frame).
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Accumulates the bytes of one peer connection and yields complete wire
/// frames, whatever read boundaries the transport produced.
#[derive(Debug, Default)]
pub struct ReassemblyBuffer {
    bytes: Vec<u8>,
    /// Offset of the first unconsumed byte; bytes before it belong to frames
    /// already yielded and are reclaimed lazily.
    start: usize,
}

impl ReassemblyBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer on top of a recycled allocation (cleared
    /// first). Pairs with [`ReassemblyBuffer::into_buffer`] so a buffer
    /// arena can recirculate reassembly storage across connection churn.
    #[must_use]
    pub fn with_buffer(mut buffer: Vec<u8>) -> Self {
        buffer.clear();
        Self {
            bytes: buffer,
            start: 0,
        }
    }

    /// Consumes the reassembler and hands its backing allocation back (for
    /// return to a buffer arena). Any pending partial frame is discarded —
    /// callers only do this when the connection is gone.
    #[must_use]
    pub fn into_buffer(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends one read's worth of bytes.
    pub fn extend_from_slice(&mut self, chunk: &[u8]) {
        self.compact();
        self.bytes.extend_from_slice(chunk);
    }

    /// Cuts the next complete frame off the front of the buffer and returns
    /// its bytes, length prefix included, **without decoding them**: only
    /// the prefix is examined. The slice is what [`decode_frame`] accepts.
    ///
    /// Returns `Ok(None)` when the buffered bytes end mid-frame (the caller
    /// reads more and retries later).
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] if the prefix announces a body longer
    /// than [`MAX_FRAME_BYTES`] — rejected from the header alone, before the
    /// body is waited for. The buffer is left untouched; the caller is
    /// expected to drop the connection.
    pub fn next_raw_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let pending = &self.bytes[self.start..];
        let Some(prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let announced = u32::from_le_bytes(*prefix) as usize;
        if announced > MAX_FRAME_BYTES {
            return Err(WireError::FrameTooLarge { announced });
        }
        let Some(frame) = pending.get(..4 + announced) else {
            return Ok(None);
        };
        self.start += frame.len();
        Ok(Some(frame))
    }

    /// Cuts the next complete frame ([`Self::next_raw_frame`]) and decodes
    /// it.
    ///
    /// Returns `Ok(None)` when the buffered bytes end mid-frame (the caller
    /// reads more and retries later).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] other than `Truncated` — an oversized announcement,
    /// an unknown tag, an internally inconsistent body. A frame that was cut
    /// but failed to decode has been consumed; the caller is expected to
    /// drop the connection either way.
    pub fn next_frame(&mut self) -> Result<Option<DecodedFrame>, WireError> {
        self.next_raw_frame()?.map(decode_frame).transpose()
    }

    /// Bytes buffered but not yet consumed by a cut frame (a partial
    /// frame waiting for more reads, or zero).
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.bytes.len() - self.start
    }

    /// Returns `true` if no partial frame is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending_bytes() == 0
    }

    /// Reclaims consumed front bytes: free the whole allocation's worth when
    /// everything was consumed, shift once the dead prefix crosses the
    /// compaction threshold. Runs when the buffer is about to grow — never
    /// while a cut frame's slice is out.
    fn compact(&mut self) {
        if self.start == self.bytes.len() {
            self.bytes.clear();
            self.start = 0;
        } else if self.start > COMPACT_THRESHOLD {
            self.bytes.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_core::wire::encode_frame;
    use dataflasks_core::Message;
    use dataflasks_types::{Key, NodeId, StoredObject, Value, Version};

    fn frame_bytes(from: u64, payload: &[u8]) -> Vec<u8> {
        let message = Message::AntiEntropyPush {
            objects: vec![StoredObject::new(
                Key::from_raw(9),
                Version::new(1),
                Value::from_bytes(payload),
            )]
            .into(),
        };
        let mut bytes = Vec::new();
        encode_frame(
            NodeId::new(from),
            std::slice::from_ref(&message),
            &mut bytes,
        )
        .unwrap();
        bytes
    }

    #[test]
    fn coalesced_frames_are_cut_apart() {
        let mut stream = frame_bytes(1, b"a");
        stream.extend_from_slice(&frame_bytes(2, b"bb"));
        let mut buffer = ReassemblyBuffer::new();
        buffer.extend_from_slice(&stream);
        assert_eq!(buffer.next_frame().unwrap().unwrap().from, NodeId::new(1));
        assert_eq!(buffer.next_frame().unwrap().unwrap().from, NodeId::new(2));
        assert!(buffer.next_frame().unwrap().is_none());
        assert!(buffer.is_empty());
    }

    #[test]
    fn byte_by_byte_delivery_reassembles() {
        let stream = frame_bytes(4, b"payload");
        let mut buffer = ReassemblyBuffer::new();
        let mut frames = 0;
        for byte in &stream {
            buffer.extend_from_slice(std::slice::from_ref(byte));
            while let Some(frame) = buffer.next_frame().unwrap() {
                assert_eq!(frame.from, NodeId::new(4));
                frames += 1;
            }
        }
        assert_eq!(frames, 1);
        assert!(buffer.is_empty());
    }

    #[test]
    fn corrupt_bytes_surface_the_wire_error() {
        let mut stream = frame_bytes(1, b"ok");
        // Rewrite the message count so the body is internally inconsistent.
        stream[12] = 0xFF;
        let mut buffer = ReassemblyBuffer::new();
        buffer.extend_from_slice(&stream);
        assert!(buffer.next_frame().is_err());
    }

    #[test]
    fn oversized_announcements_are_rejected_from_the_header_alone() {
        let mut buffer = ReassemblyBuffer::new();
        let announced = (dataflasks_core::wire::MAX_FRAME_BYTES + 1) as u32;
        buffer.extend_from_slice(&announced.to_le_bytes());
        assert!(matches!(
            buffer.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn long_streams_stay_compact() {
        let frame = frame_bytes(7, &[0x5A; 512]);
        let mut buffer = ReassemblyBuffer::new();
        for _ in 0..1_000 {
            buffer.extend_from_slice(&frame);
            assert!(buffer.next_frame().unwrap().is_some());
            assert!(buffer.is_empty());
            // Full consumption clears the backing storage outright.
            assert_eq!(buffer.pending_bytes(), 0);
        }
        assert!(buffer.bytes.len() <= frame.len());
    }
}
