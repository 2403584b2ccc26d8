//! Property tests for the wire framing layer: randomly generated protocol
//! messages — singles and whole batches — must survive an encode→decode
//! round trip bit-exactly, every strict prefix of a frame must be reported
//! as truncated, frames announcing an oversized body must be rejected, and
//! the allocation-free walk must reach the same verdict as the full decode
//! on every batch, truncation and single-byte corruption.

use std::sync::Arc;

use dataflasks_core::wire::{decode_frame, encode_frame, walk_frame, MAX_FRAME_BYTES};
use dataflasks_core::{DisseminationPhase, GetRequest, Message, PutRequest, WireError};
use dataflasks_membership::{NodeDescriptor, ShuffleRequest, ShuffleResponse};
use dataflasks_slicing::{AttributeSample, SliceExchange};
use dataflasks_store::StoreDigest;
use dataflasks_types::{
    Key, KeyRange, NodeId, NodeProfile, RequestId, SliceId, StoredObject, Value, Version,
};

/// The integer genome one random message is decoded from (the vendored
/// proptest stub has no `prop_oneof`, so variants come from a selector;
/// nested pairs keep the tuple within the stub's arity).
type Genome = ((u8, u64), (u64, u8), Vec<u8>);

fn arb_genome() -> impl proptest::Strategy<Value = Genome> {
    use proptest::prelude::*;
    (
        (0u8..9, any::<u64>()),
        (any::<u64>(), any::<u8>()),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
}

fn descriptor(seed: u64, index: u64, slice: u8) -> NodeDescriptor {
    NodeDescriptor::new(
        NodeId::new(seed.wrapping_add(index)),
        NodeProfile::with_capacity_and_tie_break(seed >> 8, index),
    )
    .with_age((seed % 57) as u32)
    .with_slice((!slice.is_multiple_of(3)).then(|| SliceId::new(u32::from(slice) % 16)))
}

fn object(seed: u64, index: u64, payload: &[u8]) -> StoredObject {
    StoredObject::new(
        Key::from_raw(seed.rotate_left(index as u32)),
        Version::new(seed % 97 + index),
        Value::from_bytes(payload),
    )
}

fn digest(seed: u64, entries: u64) -> StoreDigest {
    let mut digest = StoreDigest::new();
    for i in 0..entries % 7 {
        digest.record(Key::from_raw(seed.wrapping_mul(i + 1)), Version::new(i + 1));
    }
    digest
}

fn range(a: u64, b: u64) -> KeyRange {
    KeyRange::new(Key::from_raw(a.min(b)), Key::from_raw(a.max(b)))
}

/// Decodes one genome into a message, covering every variant and the
/// optional/empty sub-structures.
fn decode_genome(genome: &Genome) -> Message {
    let ((selector, a), (b, small), payload) = genome;
    let (selector, a, b, small) = (*selector, *a, *b, *small);
    let descriptors: Vec<NodeDescriptor> = (0..b % 5).map(|i| descriptor(a, i, small)).collect();
    let samples: Vec<AttributeSample> = (0..b % 5)
        .map(|i| {
            AttributeSample::new(
                NodeId::new(a.wrapping_add(i)),
                NodeProfile::with_capacity_and_tie_break(b, i),
                a % 1_000,
            )
        })
        .collect();
    let objects: Vec<StoredObject> = (0..b % 4).map(|i| object(a, i, payload)).collect();
    match selector {
        0 => Message::Shuffle(ShuffleRequest { descriptors }),
        1 => Message::ShuffleReply(ShuffleResponse { descriptors }),
        2 => Message::SliceGossip(SliceExchange { samples }),
        3 => Message::SliceGossipReply(SliceExchange { samples }),
        4 => Message::Put(Arc::new(PutRequest {
            id: RequestId::new(a, b),
            client: a ^ b,
            object: object(a, b % 9, payload),
            phase: if small % 2 == 0 {
                DisseminationPhase::Global
            } else {
                DisseminationPhase::IntraSlice
            },
            ttl: small as u32,
        })),
        5 => Message::Get(Arc::new(GetRequest {
            id: RequestId::new(a, b),
            client: a ^ b,
            key: Key::from_raw(a),
            version: (small % 2 == 0).then(|| Version::new(b)),
            phase: if small % 3 == 0 {
                DisseminationPhase::Global
            } else {
                DisseminationPhase::IntraSlice
            },
            ttl: u32::from(small),
        })),
        6 => Message::AntiEntropyDigest {
            digest: Arc::new(digest(a, b)),
            range: range(a, b),
        },
        7 => Message::AntiEntropyReply {
            objects: objects.into(),
            digest: Arc::new(digest(b, a)),
            range: range(a, b),
        },
        _ => Message::AntiEntropyPush {
            objects: objects.into(),
        },
    }
}

/// Walks `bytes` and materialises what the walk yielded, so its verdict
/// (and, on success, its messages) can be compared with [`decode_frame`].
fn walk_then_materialise(bytes: &[u8]) -> Result<(NodeId, Vec<Message>, usize), WireError> {
    let mut entries = Vec::new();
    let frame = walk_frame(bytes, |entry| entries.push(entry))?;
    let messages = entries
        .into_iter()
        .map(|entry| entry.into_message(bytes))
        .collect();
    Ok((frame.from, messages, frame.consumed))
}

/// `walk_frame` and `decode_frame` agree on `bytes`: the same `Ok`/`Err`,
/// the same error, and on success the same sender, messages and length.
fn assert_walk_agrees(bytes: &[u8]) {
    let walked = walk_then_materialise(bytes);
    let decoded = decode_frame(bytes).map(|frame| (frame.from, frame.messages, frame.consumed));
    proptest::prop_assert_eq!(walked, decoded);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// A single random message round-trips bit-exactly through one frame.
    #[test]
    fn single_messages_round_trip(genome in arb_genome(), from in proptest::any::<u64>()) {
        let message = decode_genome(&genome);
        let mut buf = Vec::new();
        encode_frame(NodeId::new(from), std::slice::from_ref(&message), &mut buf).unwrap();
        let frame = decode_frame(&buf).expect("self-encoded frames decode");
        proptest::prop_assert_eq!(frame.from, NodeId::new(from));
        proptest::prop_assert_eq!(frame.messages, vec![message]);
        proptest::prop_assert_eq!(frame.consumed, buf.len());
    }

    /// A whole batch rides one frame and round-trips in order.
    #[test]
    fn batches_round_trip_as_one_frame(
        genomes in proptest::collection::vec(arb_genome(), 0..6),
        from in proptest::any::<u64>(),
    ) {
        let messages: Vec<Message> = genomes.iter().map(decode_genome).collect();
        let mut buf = Vec::new();
        encode_frame(NodeId::new(from), &messages, &mut buf).unwrap();
        let frame = decode_frame(&buf).expect("self-encoded frames decode");
        proptest::prop_assert_eq!(frame.messages, messages);
        proptest::prop_assert_eq!(frame.consumed, buf.len());
    }

    /// Every strict prefix of a valid frame is reported as truncated —
    /// never misdecoded, never accepted.
    #[test]
    fn truncated_frames_are_rejected(genome in arb_genome(), cut_seed in proptest::any::<u64>()) {
        let message = decode_genome(&genome);
        let mut buf = Vec::new();
        encode_frame(NodeId::new(1), std::slice::from_ref(&message), &mut buf).unwrap();
        let cut = (cut_seed % buf.len() as u64) as usize;
        proptest::prop_assert_eq!(decode_frame(&buf[..cut]), Err(WireError::Truncated));
    }

    /// Frames announcing a body beyond the limit are rejected up front,
    /// regardless of how many bytes follow the length prefix.
    #[test]
    fn oversized_frames_are_rejected(extra in proptest::any::<u32>(), padding in 0usize..64) {
        let announced = MAX_FRAME_BYTES as u64 + 1 + u64::from(extra % 1024);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(announced as u32).to_le_bytes());
        buf.extend(std::iter::repeat_n(0u8, padding));
        proptest::prop_assert_eq!(
            decode_frame(&buf),
            Err(WireError::FrameTooLarge { announced: announced as usize })
        );
    }

    /// The walk reaches `decode_frame`'s verdict on a whole batch, on every
    /// strict prefix of it, and on every single-byte corruption of it.
    #[test]
    fn the_walk_agrees_with_decode_on_batches_truncations_and_flips(
        genomes in proptest::collection::vec(arb_genome(), 0..6),
        from in proptest::any::<u64>(),
        mask in 1u8..=255,
    ) {
        let messages: Vec<Message> = genomes.iter().map(decode_genome).collect();
        let mut buf = Vec::new();
        encode_frame(NodeId::new(from), &messages, &mut buf).unwrap();
        assert_walk_agrees(&buf);
        let (walked_from, walked, consumed) =
            walk_then_materialise(&buf).expect("self-encoded frames walk");
        proptest::prop_assert_eq!(walked_from, NodeId::new(from));
        proptest::prop_assert_eq!(walked, messages);
        proptest::prop_assert_eq!(consumed, buf.len());
        for cut in 0..buf.len() {
            assert_walk_agrees(&buf[..cut]);
        }
        let mut flipped = buf.clone();
        for at in 0..buf.len() {
            flipped[at] ^= mask;
            assert_walk_agrees(&flipped);
            flipped[at] = buf[at];
        }
    }
}

/// [`every_tag_frame`] encoded from sender `0xC0FFEE`, as hex.
const EVERY_TAG_FRAME_HEX: &str = concat!(
    "f8010000eeffc000000000000a000000000200000002010000000000001e0000",
    "0001000000000000000000000000000000010100000003010000000000001e00",
    "0000010000000000000001000000000000000001020000000201000000000000",
    "1e00000001000000000000000000000000000000010100000003010000000000",
    "001e000000010000000000000001000000000000000003010000000900000000",
    "000000000200000000000004000000000000004d000000000000000401000000",
    "0900000000000000000200000000000004000000000000004d00000000000000",
    "05010000000000000002000000000000000300000000000000ab000000000000",
    "0003000000000000000300000078797a00040000000605000000000000000600",
    "0000000000000700000000000000cd0000000000000001080000000000000001",
    "0200000006050000000000000006000000000000000700000000000000cd0000",
    "0000000000000102000000070100000010000000000000000200000000000000",
    "4b6485c9ca115a14000100000000000000020000000000000801000000ab0000",
    "000000000003000000000000000300000078797a010000001000000000000000",
    "02000000000000004b6485c9ca115a140000000000000000ffffffffffffffff",
    "0901000000ab0000000000000003000000000000000300000078797a",
);

/// One frame from a fixed sender holding one message of every tag (0, 1
/// and 3–9; tag 2 is retired), with a get both with and without a version.
fn every_tag_frame() -> Vec<Message> {
    let descriptors = vec![descriptor(0x0102, 0, 1), descriptor(0x0102, 1, 3)];
    let samples = vec![AttributeSample::new(
        NodeId::new(9),
        NodeProfile::with_capacity_and_tie_break(512, 4),
        77,
    )];
    let stored = StoredObject::new(
        Key::from_raw(0xAB),
        Version::new(3),
        Value::from_bytes(b"xyz"),
    );
    let mut digest = StoreDigest::new();
    digest.record(Key::from_raw(0x10), Version::new(2));
    let get = |version: Option<Version>| {
        Message::Get(Arc::new(GetRequest {
            id: RequestId::new(5, 6),
            client: 7,
            key: Key::from_raw(0xCD),
            version,
            phase: DisseminationPhase::IntraSlice,
            ttl: 2,
        }))
    };
    vec![
        Message::Shuffle(ShuffleRequest {
            descriptors: descriptors.clone(),
        }),
        Message::ShuffleReply(ShuffleResponse { descriptors }),
        Message::SliceGossip(SliceExchange {
            samples: samples.clone(),
        }),
        Message::SliceGossipReply(SliceExchange { samples }),
        Message::Put(Arc::new(PutRequest {
            id: RequestId::new(1, 2),
            client: 3,
            object: stored.clone(),
            phase: DisseminationPhase::Global,
            ttl: 4,
        })),
        get(Some(Version::new(8))),
        get(None),
        Message::AntiEntropyDigest {
            digest: Arc::new(digest.clone()),
            range: range(0x100, 0x200),
        },
        Message::AntiEntropyReply {
            objects: vec![stored.clone()].into(),
            digest: Arc::new(digest),
            range: KeyRange::FULL,
        },
        Message::AntiEntropyPush {
            objects: vec![stored].into(),
        },
    ]
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The frame bytes are pinned, not only their round trip: a change that
/// moved encoder and decoder together would keep every property above green
/// while breaking compatibility with deployed peers.
#[test]
fn every_tag_frame_matches_its_pinned_bytes() {
    let messages = every_tag_frame();
    let mut buf = Vec::new();
    encode_frame(NodeId::new(0x00C0_FFEE), &messages, &mut buf).unwrap();
    assert_eq!(to_hex(&buf), EVERY_TAG_FRAME_HEX);
    let frame = decode_frame(&buf).expect("the pinned frame decodes");
    assert_eq!(frame.from, NodeId::new(0x00C0_FFEE));
    assert_eq!(frame.messages, messages);
    assert_eq!(frame.consumed, buf.len());
}
