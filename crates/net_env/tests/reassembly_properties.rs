//! The reassembly contract, exhaustively: any re-chunking of a valid frame
//! stream — byte by byte, every single split boundary, coalesced pairs,
//! random splits — decodes to the identical frame sequence with zero
//! rejects. This is the property a stream transport relies on: read
//! boundaries are invisible to the protocol. The socket runtime cuts frames
//! on one thread ([`ReassemblyBuffer::next_raw_frame`]) and decodes them on
//! another, so the same is held for the two-step path: it yields exactly
//! what the one-step [`ReassemblyBuffer::next_frame`] yields.

use dataflasks_core::wire::{decode_frame, encode_frame, WireError};
use dataflasks_core::Message;
use dataflasks_net_env::ReassemblyBuffer;
use dataflasks_types::{Key, NodeId, StoredObject, Value, Version};
use proptest::prelude::*;

/// A short stream of frames with varied shapes: an empty batch, a
/// single-message frame, a multi-object payload frame.
fn frame_stream() -> (Vec<u8>, Vec<(NodeId, usize)>) {
    let mut bytes = Vec::new();
    let mut expected = Vec::new();
    let frames: Vec<(u64, Vec<Message>)> = vec![
        (1, vec![]),
        (
            2,
            vec![Message::AntiEntropyPush {
                objects: vec![StoredObject::new(
                    Key::from_raw(7),
                    Version::new(3),
                    Value::from_bytes(b"alpha"),
                )]
                .into(),
            }],
        ),
        (
            3,
            vec![
                Message::AntiEntropyPush {
                    objects: vec![
                        StoredObject::new(
                            Key::from_raw(11),
                            Version::new(1),
                            Value::from_bytes(&[0xAB; 64]),
                        ),
                        StoredObject::new(
                            Key::from_raw(12),
                            Version::new(2),
                            Value::from_bytes(b""),
                        ),
                    ]
                    .into(),
                },
                Message::AntiEntropyPush { objects: [].into() },
            ],
        ),
    ];
    for (from, messages) in frames {
        encode_frame(NodeId::new(from), &messages, &mut bytes).unwrap();
        expected.push((NodeId::new(from), messages.len()));
    }
    (bytes, expected)
}

/// Feeds `stream` to a fresh buffer in the given chunk sizes and returns
/// the shape of every decoded frame, asserting no decode error ever
/// surfaces and nothing is left over.
fn reassemble(stream: &[u8], chunk_sizes: impl IntoIterator<Item = usize>) -> Vec<(NodeId, usize)> {
    let chunks: Vec<usize> = chunk_sizes.into_iter().collect();
    let (units, left) = collect_units(stream, &chunks, one_step);
    assert_eq!(left, 0, "no partial frame may remain");
    shapes(&units)
}

#[test]
fn every_single_split_boundary_reassembles_identically() {
    let (stream, expected) = frame_stream();
    for cut in 0..=stream.len() {
        let frames = reassemble(&stream, [cut, stream.len() - cut]);
        assert_eq!(frames, expected, "split at byte {cut}");
    }
}

#[test]
fn byte_by_byte_delivery_reassembles_identically() {
    let (stream, expected) = frame_stream();
    let frames = reassemble(&stream, std::iter::repeat_n(1, stream.len()));
    assert_eq!(frames, expected);
}

#[test]
fn coalesced_pairs_reassemble_identically() {
    // The whole stream in one chunk, and in two-byte pairs.
    let (stream, expected) = frame_stream();
    assert_eq!(reassemble(&stream, [stream.len()]), expected);
    let pairs = std::iter::repeat_n(2, stream.len().div_ceil(2));
    assert_eq!(reassemble(&stream, pairs), expected);
}

proptest! {
    /// Random re-chunkings: any sequence of chunk sizes covering the stream
    /// yields the identical frames and no rejects.
    #[test]
    fn random_splits_reassemble_identically(
        sizes in proptest::collection::vec(1usize..64, 1..64),
    ) {
        let (stream, expected) = frame_stream();
        let frames = reassemble(&stream, sizes);
        prop_assert_eq!(frames, expected);
    }
}

/// One decoded transport unit: sender and messages.
type Unit = (NodeId, Vec<Message>);

/// Sender and message count of each unit.
fn shapes(units: &[Unit]) -> Vec<(NodeId, usize)> {
    units
        .iter()
        .map(|(from, messages)| (*from, messages.len()))
        .collect()
}

/// Cut and decode in one step.
fn one_step(buffer: &mut ReassemblyBuffer) -> Result<Option<Unit>, WireError> {
    Ok(buffer
        .next_frame()?
        .map(|frame| (frame.from, frame.messages)))
}

/// Cut raw bytes (the reactor's half), then decode them (the worker's).
fn two_step(buffer: &mut ReassemblyBuffer) -> Result<Option<Unit>, WireError> {
    let Some(raw) = buffer.next_raw_frame()? else {
        return Ok(None);
    };
    let frame = decode_frame(raw)?;
    assert_eq!(frame.consumed, raw.len(), "a cut is exactly one frame");
    Ok(Some((frame.from, frame.messages)))
}

/// Feeds `bytes` in `chunks` (then whatever they left uncovered) and
/// collects what `cut` yields after every chunk, plus the bytes still
/// pending at the end; a cut reporting an error is a test failure.
fn collect_units(
    bytes: &[u8],
    chunks: &[usize],
    cut: fn(&mut ReassemblyBuffer) -> Result<Option<Unit>, WireError>,
) -> (Vec<Unit>, usize) {
    let mut buffer = ReassemblyBuffer::new();
    let mut units = Vec::new();
    let mut offset = 0;
    for &size in chunks.iter().chain(std::iter::once(&bytes.len())) {
        let end = (offset + size).min(bytes.len());
        buffer.extend_from_slice(&bytes[offset..end]);
        offset = end;
        while let Some(unit) = cut(&mut buffer).expect("a valid prefix never rejects") {
            units.push(unit);
        }
    }
    (units, buffer.pending_bytes())
}

proptest! {
    /// Raw cut + `decode_frame` and `next_frame` agree on every re-chunking,
    /// message for message.
    #[test]
    fn raw_cut_then_decode_matches_next_frame(
        sizes in proptest::collection::vec(1usize..64, 0..64),
    ) {
        let (stream, expected) = frame_stream();
        let (decoded, left) = collect_units(&stream, &sizes, one_step);
        let (cut_then_decoded, raw_left) = collect_units(&stream, &sizes, two_step);
        prop_assert_eq!(&cut_then_decoded, &decoded);
        prop_assert_eq!((left, raw_left), (0, 0));
        prop_assert_eq!(shapes(&decoded), expected);
    }

    /// A stream torn anywhere is "read more", never an error: both paths
    /// yield the frames that completed and keep the tail pending.
    #[test]
    fn a_truncated_tail_is_read_more_never_an_error(
        keep in 0usize..1000,
        sizes in proptest::collection::vec(1usize..64, 0..64),
    ) {
        let (stream, _) = frame_stream();
        let torn = &stream[..keep % stream.len()];
        let (decoded, left) = collect_units(torn, &sizes, one_step);
        let (cut_then_decoded, raw_left) = collect_units(torn, &sizes, two_step);
        prop_assert_eq!(&cut_then_decoded, &decoded);
        prop_assert_eq!(left, raw_left);
        // What surfaced is byte for byte the completed prefix; the torn
        // frame's bytes all wait in the buffer.
        let mut completed = Vec::new();
        for (from, messages) in &decoded {
            encode_frame(*from, messages, &mut completed).unwrap();
        }
        prop_assert!(torn.starts_with(&completed));
        prop_assert_eq!(left, torn.len() - completed.len());
    }
}
