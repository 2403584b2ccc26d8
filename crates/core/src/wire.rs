//! Wire framing: one transport unit ⇄ one length-prefixed frame.
//!
//! The batched effect pipeline hands every environment *per-destination
//! transport units*: an [`Output::Send`] carries one message, an
//! [`Output::SendBatch`] several. This module defines how one unit travels
//! over a byte transport — the framing the worker-pool runtime
//! (`dataflasks-net-env`) uses for every hop on both of its transports, and
//! the answer to how a socket-backed deployment maps one batch to one write:
//!
//! ```text
//! frame    := body_len: u32 | body            (body_len = byte length of body)
//! body     := from: u64 | count: u32 | message{count}
//! message  := tag: u8 | payload               (tag identifies the variant)
//! ```
//!
//! Tags are stable: tag 2 belonged to a retired membership message and is
//! now unknown, and the tags after it keep their numbers.
//!
//! All integers are little-endian; byte strings and collections carry a `u32`
//! length/count prefix. A whole multi-message batch is a *single* frame, so
//! the receiving reactor performs one read, one decode and one dispatch round
//! per transport unit, mirroring the one-channel-send-per-batch discipline of
//! the in-process runtimes.
//!
//! Decoding is defensive: a frame longer than [`MAX_FRAME_BYTES`] is rejected
//! before any allocation ([`WireError::FrameTooLarge`]), a buffer that ends
//! mid-frame reports [`WireError::Truncated`] (the streaming caller simply
//! reads more), and any inconsistency *inside* a complete frame is
//! [`WireError::Malformed`].
//!
//! # Walk, then materialise
//!
//! There is one parser, [`walk_frame`]. It runs every check — length
//! prefix, [`MAX_FRAME_BYTES`], tags, counts against the body, option flags,
//! dissemination phases, digest fingerprints, trailing bytes — and yields
//! each message as a [`FrameEntry`]. Puts and gets, the flooded traffic a
//! node mostly drops as duplicates, come out without touching the heap: a
//! get owns nothing on the heap and is yielded whole, a put is yielded as a
//! [`PutHeader`] whose value is still a byte range of the frame. Gossip and
//! anti-entropy messages are decoded as they are walked.
//!
//! [`decode_frame`] is the walk followed by materialising every entry. A
//! receiver that deduplicates does better: it walks the frame, admits each
//! request by id, and materialises only the ones it admits
//! (`NodeHost::enqueue_frame`). Both see exactly the same accept/reject
//! decision and the same [`WireError`] for every byte string, because both
//! are the same walk.
//!
//! # Example
//!
//! ```
//! use dataflasks_core::wire::{decode_frame, encode_frame};
//! use dataflasks_core::Message;
//! use dataflasks_store::StoreDigest;
//! use dataflasks_types::{KeyRange, NodeId};
//!
//! let message = Message::AntiEntropyDigest {
//!     digest: std::sync::Arc::new(StoreDigest::new()),
//!     range: KeyRange::FULL,
//! };
//! let mut buf = Vec::new();
//! encode_frame(NodeId::new(3), std::slice::from_ref(&message), &mut buf).unwrap();
//! let frame = decode_frame(&buf).unwrap();
//! assert_eq!(frame.from, NodeId::new(3));
//! assert_eq!(frame.messages, vec![message]);
//! assert_eq!(frame.consumed, buf.len());
//! ```

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use dataflasks_membership::{NodeDescriptor, ShuffleRequest, ShuffleResponse};
use dataflasks_slicing::{AttributeSample, SliceExchange};
use dataflasks_store::StoreDigest;
use dataflasks_types::{
    Key, KeyRange, NodeId, NodeProfile, RequestId, SliceId, StoredObject, Value, Version,
};

use crate::message::{ClientId, DisseminationPhase, GetRequest, Message, Output, PutRequest};

/// Upper bound on the body length of a single frame (16 MiB). A peer
/// announcing a larger frame is rejected before any buffer is grown.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Why a byte buffer failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ends before the frame does; read more bytes and retry.
    Truncated,
    /// The frame announces a body longer than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The announced body length.
        announced: usize,
    },
    /// A complete frame contained an unknown message tag.
    UnknownTag(u8),
    /// A complete frame was internally inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => f.write_str("byte buffer ends mid-frame"),
            Self::FrameTooLarge { announced } => write!(
                f,
                "frame body of {announced} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            Self::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            Self::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl Error for WireError {}

/// A successfully decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// The sending node.
    pub from: NodeId,
    /// The messages of the transport unit, in emission order.
    pub messages: Vec<Message>,
    /// Total bytes consumed (length prefix included); a streaming caller
    /// resumes decoding at this offset.
    pub consumed: usize,
}

/// A successfully walked frame: its header. The messages went to the
/// visitor passed to [`walk_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkedFrame {
    /// The sending node.
    pub from: NodeId,
    /// Total bytes consumed (length prefix included), as in
    /// [`DecodedFrame::consumed`].
    pub consumed: usize,
}

/// One message of a walked frame (see [`walk_frame`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FrameEntry {
    /// A put request, checked but not materialised: its value is still a
    /// byte range of the frame.
    Put(PutHeader),
    /// A get request. It owns nothing on the heap, so the walk yields it
    /// whole.
    Get(GetRequest),
    /// Any other message, decoded.
    Other(Message),
}

impl FrameEntry {
    /// Materialises the entry into the [`Message`] [`decode_frame`] would
    /// have returned. `frame` must be the bytes the entry was walked from.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is shorter than the walked frame.
    #[must_use]
    pub fn into_message(self, frame: &[u8]) -> Message {
        match self {
            Self::Put(header) => Message::Put(Arc::new(header.materialise(frame))),
            Self::Get(request) => Message::Get(Arc::new(request)),
            Self::Other(message) => message,
        }
    }
}

/// A walked put request: every field of [`PutRequest`] except the value,
/// which stays in the frame until [`Self::materialise`] copies it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutHeader {
    /// The request identifier (what duplicate suppression keys on).
    pub id: RequestId,
    /// The client expecting the acknowledgement.
    pub client: ClientId,
    /// The object's key.
    pub key: Key,
    /// The object's version.
    pub version: Version,
    /// Where the value's bytes sit in the walked frame.
    pub value: Range<usize>,
    /// Current dissemination phase.
    pub phase: DisseminationPhase,
    /// Remaining hops in the current phase.
    pub ttl: u32,
}

impl PutHeader {
    /// Builds the request, copying the value out of `frame` — the bytes
    /// the header was walked from.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is shorter than the walked frame.
    #[must_use]
    pub fn materialise(&self, frame: &[u8]) -> PutRequest {
        PutRequest {
            id: self.id,
            client: self.client,
            object: StoredObject::new(
                self.key,
                self.version,
                Value::from_bytes(&frame[self.value.clone()]),
            ),
            phase: self.phase,
            ttl: self.ttl,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes one transport unit — `messages` sent by `from` — as a single
/// length-prefixed frame appended to `out`.
///
/// # Errors
///
/// Returns [`WireError::FrameTooLarge`] — and truncates `out` back to its
/// original length — if the encoded body exceeds [`MAX_FRAME_BYTES`]. The
/// protocol bounds its exchanges well below the limit, so this only fires
/// on pathological payloads (an unbounded client value); callers treat it
/// like a network dropping an oversized datagram.
pub fn encode_frame(
    from: NodeId,
    messages: &[Message],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let frame_start = out.len();
    out.extend_from_slice(&[0u8; 4]); // body length back-patched below
    put_u64(out, from.as_u64());
    put_u32(out, messages.len() as u32);
    for message in messages {
        encode_message(message, out);
    }
    let body_len = out.len() - frame_start - 4;
    if body_len > MAX_FRAME_BYTES {
        out.truncate(frame_start);
        return Err(WireError::FrameTooLarge {
            announced: body_len,
        });
    }
    out[frame_start..frame_start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(())
}

/// Encodes a routed [`Output`] as a frame, if it is a transport unit
/// (`Send` or `SendBatch`), returning the destination. Replies and timer
/// re-arms are not wire traffic and return `Ok(None)`.
///
/// # Errors
///
/// Returns [`WireError::FrameTooLarge`] (leaving `out` untouched) if the
/// unit exceeds [`MAX_FRAME_BYTES`]; see [`encode_frame`].
pub fn encode_output(
    from: NodeId,
    output: &Output,
    out: &mut Vec<u8>,
) -> Result<Option<NodeId>, WireError> {
    match output {
        Output::Send { to, message } => {
            encode_frame(from, std::slice::from_ref(message), out)?;
            Ok(Some(*to))
        }
        Output::SendBatch { to, messages } => {
            encode_frame(from, messages, out)?;
            Ok(Some(*to))
        }
        Output::Reply { .. } | Output::Timer { .. } => Ok(None),
    }
}

/// Encodes one transport unit into a **reusable** buffer: `buf` is cleared
/// first and afterwards holds exactly one frame. This is the entry point
/// for pooled-buffer ("arena") senders that recycle encode buffers instead
/// of allocating per frame; [`encode_frame`] remains the appending variant
/// for callers batching several frames into one byte stream.
///
/// # Errors
///
/// Returns [`WireError::FrameTooLarge`] — leaving `buf` empty — if the
/// encoded body exceeds [`MAX_FRAME_BYTES`]; see [`encode_frame`].
pub fn encode_frame_into(
    from: NodeId,
    messages: &[Message],
    buf: &mut Vec<u8>,
) -> Result<(), WireError> {
    buf.clear();
    encode_frame(from, messages, buf)
}

fn encode_message(message: &Message, out: &mut Vec<u8>) {
    match message {
        Message::Shuffle(request) => {
            out.push(0);
            put_descriptors(out, &request.descriptors);
        }
        Message::ShuffleReply(response) => {
            out.push(1);
            put_descriptors(out, &response.descriptors);
        }
        Message::SliceGossip(exchange) => {
            out.push(3);
            put_samples(out, &exchange.samples);
        }
        Message::SliceGossipReply(exchange) => {
            out.push(4);
            put_samples(out, &exchange.samples);
        }
        Message::Put(request) => {
            out.push(5);
            put_request_id(out, request.id);
            put_u64(out, request.client);
            put_object(out, &request.object);
            put_phase(out, request.phase);
            put_u32(out, request.ttl);
        }
        Message::Get(request) => {
            out.push(6);
            put_request_id(out, request.id);
            put_u64(out, request.client);
            put_u64(out, request.key.as_u64());
            match request.version {
                Some(version) => {
                    out.push(1);
                    put_u64(out, version.as_u64());
                }
                None => out.push(0),
            }
            put_phase(out, request.phase);
            put_u32(out, request.ttl);
        }
        Message::AntiEntropyDigest { digest, range } => {
            out.push(7);
            put_digest(out, digest);
            put_range(out, *range);
        }
        Message::AntiEntropyReply {
            objects,
            digest,
            range,
        } => {
            out.push(8);
            put_objects(out, objects);
            put_digest(out, digest);
            put_range(out, *range);
        }
        Message::AntiEntropyPush { objects } => {
            out.push(9);
            put_objects(out, objects);
        }
    }
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_request_id(out: &mut Vec<u8>, id: RequestId) {
    put_u64(out, id.client());
    put_u64(out, id.sequence());
}

fn put_phase(out: &mut Vec<u8>, phase: DisseminationPhase) {
    out.push(match phase {
        DisseminationPhase::Global => 0,
        DisseminationPhase::IntraSlice => 1,
    });
}

fn put_range(out: &mut Vec<u8>, range: KeyRange) {
    put_u64(out, range.start().as_u64());
    put_u64(out, range.end().as_u64());
}

fn put_object(out: &mut Vec<u8>, object: &StoredObject) {
    put_u64(out, object.key.as_u64());
    put_u64(out, object.version.as_u64());
    let bytes = object.value.as_slice();
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_objects(out: &mut Vec<u8>, objects: &[StoredObject]) {
    put_u32(out, objects.len() as u32);
    for object in objects {
        put_object(out, object);
    }
}

fn put_digest(out: &mut Vec<u8>, digest: &StoreDigest) {
    // Digests iterate in hash order; encode sorted by key so the same digest
    // always produces the same bytes (stable frames for tests and dedup).
    let mut entries: Vec<(Key, Version)> = digest.iter().collect();
    entries.sort_unstable();
    put_u32(out, entries.len() as u32);
    for (key, version) in entries {
        put_u64(out, key.as_u64());
        put_u64(out, version.as_u64());
    }
    // The chunk fingerprint rides along so receivers can verify the entry
    // list decoded intact (it is recomputable from the entries — carrying it
    // makes corruption detectable instead of silently skewing the adaptive
    // chunk-skipping decisions built on it).
    put_u64(out, digest.fingerprint());
}

fn put_descriptors(out: &mut Vec<u8>, descriptors: &[NodeDescriptor]) {
    put_u32(out, descriptors.len() as u32);
    for descriptor in descriptors {
        put_u64(out, descriptor.id().as_u64());
        put_u32(out, descriptor.age());
        put_u64(out, descriptor.profile().capacity());
        put_u64(out, descriptor.profile().tie_break());
        match descriptor.slice() {
            Some(slice) => {
                out.push(1);
                put_u32(out, slice.index());
            }
            None => out.push(0),
        }
    }
}

fn put_samples(out: &mut Vec<u8>, samples: &[AttributeSample]) {
    put_u32(out, samples.len() as u32);
    for sample in samples {
        put_u64(out, sample.node().as_u64());
        put_u64(out, sample.profile().capacity());
        put_u64(out, sample.profile().tie_break());
        put_u64(out, sample.round());
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes the frame at the start of `bytes`: [`walk_frame`], then every
/// entry materialised ([`FrameEntry::into_message`]).
///
/// # Errors
///
/// Exactly those of [`walk_frame`].
pub fn decode_frame(bytes: &[u8]) -> Result<DecodedFrame, WireError> {
    let mut messages = Vec::new();
    let frame = walk_frame(bytes, |entry| messages.push(entry.into_message(bytes)))?;
    Ok(DecodedFrame {
        from: frame.from,
        messages,
        consumed: frame.consumed,
    })
}

/// Checks the whole frame at the start of `bytes` and hands each of its
/// messages, in emission order, to `visit` as a [`FrameEntry`]. Puts and
/// gets are checked field by field but not allocated (see the module docs);
/// byte ranges in a [`PutHeader`] index `bytes`.
///
/// `visit` sees a message as soon as it has been checked, so when the walk
/// fails, the entries it already saw belong to a rejected frame: a caller
/// acts on them only after `Ok`.
///
/// # Errors
///
/// [`WireError::Truncated`] if `bytes` ends before the frame does (read more
/// and retry), [`WireError::FrameTooLarge`] if the announced body exceeds
/// [`MAX_FRAME_BYTES`], and [`WireError::UnknownTag`] /
/// [`WireError::Malformed`] for corrupt frames.
pub fn walk_frame(
    bytes: &[u8],
    mut visit: impl FnMut(FrameEntry),
) -> Result<WalkedFrame, WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated);
    }
    let announced = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if announced > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { announced });
    }
    if bytes.len() < 4 + announced {
        return Err(WireError::Truncated);
    }
    // The reader spans the whole frame, prefix included, so the positions
    // it reports are offsets into `bytes`.
    let mut reader = Reader {
        bytes: &bytes[..4 + announced],
        pos: 4,
    };
    let from = NodeId::new(reader.u64()?);
    let count = reader.u32()?;
    for _ in 0..count {
        visit(walk_message(&mut reader)?);
    }
    if reader.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes inside frame body"));
    }
    Ok(WalkedFrame {
        from,
        consumed: 4 + announced,
    })
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Steps over `n` bytes, returning where they sit.
    fn skip(&mut self, n: usize) -> Result<Range<usize>, WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed("frame body ends mid-field"));
        }
        let start = self.pos;
        self.pos += n;
        Ok(start..self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        let range = self.skip(n)?;
        Ok(&self.bytes[range])
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a count prefix for elements of at least `min_element_bytes`,
    /// rejecting counts that could not possibly fit in the remaining body
    /// (so a corrupt count never drives a huge allocation).
    fn count(&mut self, min_element_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_element_bytes) > self.remaining() {
            return Err(WireError::Malformed("collection count exceeds frame body"));
        }
        Ok(count)
    }
}

fn walk_message(reader: &mut Reader<'_>) -> Result<FrameEntry, WireError> {
    let tag = reader.u8()?;
    let message = match tag {
        0 => Message::Shuffle(ShuffleRequest {
            descriptors: get_descriptors(reader)?,
        }),
        1 => Message::ShuffleReply(ShuffleResponse {
            descriptors: get_descriptors(reader)?,
        }),
        3 => Message::SliceGossip(SliceExchange {
            samples: get_samples(reader)?,
        }),
        4 => Message::SliceGossipReply(SliceExchange {
            samples: get_samples(reader)?,
        }),
        5 => {
            let id = get_request_id(reader)?;
            let client = reader.u64()?;
            let (key, version, value) = get_object_fields(reader)?;
            let phase = get_phase(reader)?;
            let ttl = reader.u32()?;
            return Ok(FrameEntry::Put(PutHeader {
                id,
                client,
                key,
                version,
                value,
                phase,
                ttl,
            }));
        }
        6 => {
            let id = get_request_id(reader)?;
            let client = reader.u64()?;
            let key = Key::from_raw(reader.u64()?);
            let version = match reader.u8()? {
                0 => None,
                1 => Some(Version::new(reader.u64()?)),
                _ => return Err(WireError::Malformed("invalid option flag")),
            };
            let phase = get_phase(reader)?;
            let ttl = reader.u32()?;
            return Ok(FrameEntry::Get(GetRequest {
                id,
                client,
                key,
                version,
                phase,
                ttl,
            }));
        }
        7 => {
            let digest = Arc::new(get_digest(reader)?);
            let range = get_range(reader)?;
            Message::AntiEntropyDigest { digest, range }
        }
        8 => {
            let objects = get_objects(reader)?.into();
            let digest = Arc::new(get_digest(reader)?);
            let range = get_range(reader)?;
            Message::AntiEntropyReply {
                objects,
                digest,
                range,
            }
        }
        9 => Message::AntiEntropyPush {
            objects: get_objects(reader)?.into(),
        },
        other => return Err(WireError::UnknownTag(other)),
    };
    Ok(FrameEntry::Other(message))
}

fn get_request_id(reader: &mut Reader<'_>) -> Result<RequestId, WireError> {
    let client = reader.u64()?;
    let sequence = reader.u64()?;
    Ok(RequestId::new(client, sequence))
}

fn get_phase(reader: &mut Reader<'_>) -> Result<DisseminationPhase, WireError> {
    match reader.u8()? {
        0 => Ok(DisseminationPhase::Global),
        1 => Ok(DisseminationPhase::IntraSlice),
        _ => Err(WireError::Malformed("invalid dissemination phase")),
    }
}

fn get_range(reader: &mut Reader<'_>) -> Result<KeyRange, WireError> {
    let start = reader.u64()?;
    let end = reader.u64()?;
    if start > end {
        return Err(WireError::Malformed("inverted key range"));
    }
    Ok(KeyRange::new(Key::from_raw(start), Key::from_raw(end)))
}

/// The one object layout (put requests and anti-entropy batches alike),
/// with the value left as a byte range.
fn get_object_fields(reader: &mut Reader<'_>) -> Result<(Key, Version, Range<usize>), WireError> {
    let key = Key::from_raw(reader.u64()?);
    let version = Version::new(reader.u64()?);
    let len = reader.u32()? as usize;
    Ok((key, version, reader.skip(len)?))
}

fn get_object(reader: &mut Reader<'_>) -> Result<StoredObject, WireError> {
    let (key, version, value) = get_object_fields(reader)?;
    Ok(StoredObject::new(
        key,
        version,
        Value::from_bytes(&reader.bytes[value]),
    ))
}

fn get_objects(reader: &mut Reader<'_>) -> Result<Vec<StoredObject>, WireError> {
    let count = reader.count(20)?;
    let mut objects = Vec::with_capacity(count);
    for _ in 0..count {
        objects.push(get_object(reader)?);
    }
    Ok(objects)
}

fn get_digest(reader: &mut Reader<'_>) -> Result<StoreDigest, WireError> {
    let count = reader.count(16)?;
    let mut digest = StoreDigest::with_capacity(count);
    for _ in 0..count {
        let key = Key::from_raw(reader.u64()?);
        let version = Version::new(reader.u64()?);
        digest.record(key, version);
    }
    let announced = reader.u64()?;
    if announced != digest.fingerprint() {
        return Err(WireError::Malformed("digest fingerprint mismatch"));
    }
    Ok(digest)
}

fn get_descriptors(reader: &mut Reader<'_>) -> Result<Vec<NodeDescriptor>, WireError> {
    let count = reader.count(29)?;
    let mut descriptors = Vec::with_capacity(count);
    for _ in 0..count {
        let id = NodeId::new(reader.u64()?);
        let age = reader.u32()?;
        let capacity = reader.u64()?;
        let tie_break = reader.u64()?;
        let slice = match reader.u8()? {
            0 => None,
            1 => Some(SliceId::new(reader.u32()?)),
            _ => return Err(WireError::Malformed("invalid option flag")),
        };
        descriptors.push(
            NodeDescriptor::new(
                id,
                NodeProfile::with_capacity_and_tie_break(capacity, tie_break),
            )
            .with_age(age)
            .with_slice(slice),
        );
    }
    Ok(descriptors)
}

fn get_samples(reader: &mut Reader<'_>) -> Result<Vec<AttributeSample>, WireError> {
    let count = reader.count(32)?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let node = NodeId::new(reader.u64()?);
        let capacity = reader.u64()?;
        let tie_break = reader.u64()?;
        let round = reader.u64()?;
        samples.push(AttributeSample::new(
            node,
            NodeProfile::with_capacity_and_tie_break(capacity, tie_break),
            round,
        ));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let descriptor = NodeDescriptor::new(
            NodeId::new(4),
            NodeProfile::with_capacity_and_tie_break(700, 4),
        )
        .with_age(3)
        .with_slice(Some(SliceId::new(1)));
        let mut digest = StoreDigest::new();
        digest.record(Key::from_raw(9), Version::new(2));
        digest.record(Key::from_raw(1), Version::new(5));
        vec![
            Message::Shuffle(ShuffleRequest {
                descriptors: vec![descriptor],
            }),
            Message::SliceGossip(SliceExchange {
                samples: vec![AttributeSample::new(
                    NodeId::new(8),
                    NodeProfile::with_capacity(123),
                    7,
                )],
            }),
            Message::Put(Arc::new(PutRequest {
                id: RequestId::new(3, 11),
                client: 3,
                object: StoredObject::new(
                    Key::from_user_key("wire"),
                    Version::new(2),
                    Value::from_bytes(b"payload"),
                ),
                phase: DisseminationPhase::IntraSlice,
                ttl: 5,
            })),
            Message::Get(Arc::new(GetRequest {
                id: RequestId::new(3, 12),
                client: 3,
                key: Key::from_user_key("wire"),
                version: None,
                phase: DisseminationPhase::Global,
                ttl: 2,
            })),
            Message::AntiEntropyReply {
                objects: vec![StoredObject::new(
                    Key::from_raw(77),
                    Version::new(1),
                    Value::from_bytes(b"x"),
                )]
                .into(),
                digest: Arc::new(digest),
                range: KeyRange::new(Key::from_raw(0), Key::from_raw(1 << 40)),
            },
        ]
    }

    #[test]
    fn a_batch_round_trips_as_one_frame() {
        let messages = sample_messages();
        let mut buf = Vec::new();
        encode_frame(NodeId::new(42), &messages, &mut buf).unwrap();
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.from, NodeId::new(42));
        assert_eq!(frame.messages, messages);
        assert_eq!(frame.consumed, buf.len());
    }

    #[test]
    fn consecutive_frames_decode_by_consumed_offset() {
        let messages = sample_messages();
        let mut buf = Vec::new();
        encode_frame(NodeId::new(1), &messages[..2], &mut buf).unwrap();
        let first_len = buf.len();
        encode_frame(NodeId::new(2), &messages[2..], &mut buf).unwrap();
        let first = decode_frame(&buf).unwrap();
        assert_eq!(first.consumed, first_len);
        assert_eq!(first.from, NodeId::new(1));
        let second = decode_frame(&buf[first.consumed..]).unwrap();
        assert_eq!(second.from, NodeId::new(2));
        assert_eq!(second.messages, messages[2..]);
    }

    #[test]
    fn every_truncation_reports_truncated() {
        let messages = sample_messages();
        let mut buf = Vec::new();
        encode_frame(NodeId::new(7), &messages, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert_eq!(
                decode_frame(&buf[..cut]),
                Err(WireError::Truncated),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, (MAX_FRAME_BYTES + 1) as u32);
        buf.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            decode_frame(&buf),
            Err(WireError::FrameTooLarge {
                announced: MAX_FRAME_BYTES + 1
            })
        );
    }

    #[test]
    fn unknown_tags_and_corrupt_bodies_are_malformed() {
        let mut buf = Vec::new();
        encode_frame(NodeId::new(1), &[], &mut buf).unwrap();
        // A frame whose single message has an unknown tag: the retired tag 2
        // or one past the last variant.
        for tag in [2, 200] {
            // Splice a bogus message in: rewrite count to 1 and append a tag.
            let mut corrupt = buf.clone();
            corrupt[4 + 8..4 + 12].copy_from_slice(&1u32.to_le_bytes());
            corrupt.push(tag);
            let body_len = (corrupt.len() - 4) as u32;
            corrupt[0..4].copy_from_slice(&body_len.to_le_bytes());
            assert_eq!(decode_frame(&corrupt), Err(WireError::UnknownTag(tag)));
            assert_eq!(
                walk_frame(&corrupt, |_| {}).err(),
                Some(WireError::UnknownTag(tag))
            );
        }

        // A frame with trailing garbage inside the body.
        let mut padded = buf.clone();
        padded.push(0xEE);
        let body_len = (padded.len() - 4) as u32;
        padded[0..4].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            decode_frame(&padded),
            Err(WireError::Malformed("trailing bytes inside frame body"))
        );

        // A collection count that cannot fit the remaining body.
        let mut hungry = Vec::new();
        encode_frame(
            NodeId::new(1),
            &[Message::AntiEntropyPush { objects: [].into() }],
            &mut hungry,
        )
        .unwrap();
        let len = hungry.len();
        hungry[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&hungry),
            Err(WireError::Malformed("collection count exceeds frame body"))
        );
    }

    #[test]
    fn oversized_units_fail_encoding_and_leave_the_buffer_clean() {
        let message = Message::AntiEntropyPush {
            objects: vec![StoredObject::new(
                Key::from_raw(1),
                Version::new(1),
                Value::filled(MAX_FRAME_BYTES + 1, 0),
            )]
            .into(),
        };
        let mut buf = vec![0xAA];
        assert!(matches!(
            encode_frame(NodeId::new(1), std::slice::from_ref(&message), &mut buf),
            Err(WireError::FrameTooLarge { .. })
        ));
        // The partial frame was rolled back: the buffer is reusable.
        assert_eq!(buf, vec![0xAA]);
        let mut via_output = Vec::new();
        assert!(encode_output(
            NodeId::new(1),
            &Output::Send {
                to: NodeId::new(2),
                message,
            },
            &mut via_output,
        )
        .is_err());
        assert!(via_output.is_empty());
    }

    #[test]
    fn corrupted_digest_fingerprints_are_rejected() {
        let mut digest = StoreDigest::new();
        digest.record(Key::from_raw(9), Version::new(2));
        let message = Message::AntiEntropyDigest {
            digest: Arc::new(digest),
            range: KeyRange::FULL,
        };
        let mut buf = Vec::new();
        encode_frame(NodeId::new(3), std::slice::from_ref(&message), &mut buf).unwrap();
        assert!(decode_frame(&buf).is_ok(), "intact frame decodes");
        // The digest fingerprint sits just before the 16-byte key range.
        let fp_offset = buf.len() - 16 - 8;
        buf[fp_offset] ^= 0xFF;
        assert_eq!(
            decode_frame(&buf),
            Err(WireError::Malformed("digest fingerprint mismatch"))
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::Truncated.to_string().contains("mid-frame"));
        assert!(WireError::FrameTooLarge { announced: 99 }
            .to_string()
            .contains("99"));
        assert!(WireError::UnknownTag(7).to_string().contains('7'));
        assert!(WireError::Malformed("x").to_string().contains('x'));
    }

    #[test]
    fn encode_output_frames_transport_units_only() {
        let mut buf = Vec::new();
        let to = encode_output(
            NodeId::new(5),
            &Output::SendBatch {
                to: NodeId::new(6),
                messages: sample_messages(),
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(to, Some(NodeId::new(6)));
        assert_eq!(decode_frame(&buf).unwrap().messages, sample_messages());
        let mut empty = Vec::new();
        assert_eq!(
            encode_output(
                NodeId::new(5),
                &Output::Timer {
                    kind: crate::message::TimerKind::PssShuffle,
                    after: dataflasks_types::Duration::ZERO,
                },
                &mut empty
            )
            .unwrap(),
            None
        );
        assert!(empty.is_empty());
    }
}
