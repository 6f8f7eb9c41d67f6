//! Binary codec for cached payloads.
//!
//! memcached stores opaque bytes; the real CacheGenie pickles Python row
//! lists into it. This module is our equivalent: a little-endian,
//! row-framed format over [`Payload`] values (row sets, counts, raw
//! bytes), and — for the two list shapes — [`EncodedList`], which edits
//! the encoded bytes directly so a trigger's append costs the row it adds
//! and not the list it touches.
//!
//! Splicing bytes instead of unpickling the list is still
//! memcached-faithful: `append` is a native memcached verb, the other
//! edits do what the paper's generated triggers do with `gets` → modify
//! → `cas` (run where the value lives, [`crate::Delta`]), and the
//! virtual-time cost model prices that round trip as cache operations,
//! not as a pickle.
//!
//! # Wire format (version 2)
//!
//! ```text
//! header, 13 bytes
//!   0  u16  magic 0xCA6E
//!   2  u8   version (2)
//!   3  u8   tag: 0 Rows, 1 Count, 2 Raw, 3 TopK
//!   4  u8   flags: bit 0 = Top-K `complete`; every other bit zero
//!   5  u32  frame count: rows for Rows/TopK, exactly 1 for Count/Raw
//!   9  u32  checksum of bytes 0..9
//! frame, 8 + len bytes, `frame count` of them, then end of buffer
//!   0      u32  len
//!   4      ...  body: a row (arity u32, then tagged values), an i64
//!               count, or the raw bytes
//!   4+len  u32  checksum of the frame's first 4 + len bytes
//! ```
//!
//! Two rules keep the format safe to splice. **Verify before
//! interpret:** a header is read only after its checksum matched, and a
//! frame's body is reachable only through [`Frame::row`], which checks
//! the frame's checksum first; a frame's `len` is used unverified solely
//! to find where the frame ends, under bounds checks. **Never re-stamp:**
//! a splice writes a new header (it owns the count) and checksums the
//! frames it creates, but a frame it merely copies keeps the checksum it
//! arrived with — so a splice cannot launder bytes it did not verify, and
//! a corrupt frame is still refused by the next [`Payload::decode`].

use crate::error::{CacheError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use genie_storage::{Row, Value};

const MAGIC: u16 = 0xCA6E;
const VERSION: u8 = 2;
const HEADER_LEN: usize = 13;
/// Bytes a frame adds around its body: `len` before, checksum after.
const FRAME_OVERHEAD: usize = 8;

const TAG_ROWS: u8 = 0;
const TAG_COUNT: u8 = 1;
const TAG_RAW: u8 = 2;
const TAG_TOP_K: u8 = 3;

/// A typed cache payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An ordered list of rows (feature/link query results).
    Rows(Vec<Row>),
    /// A scalar count (count-query results).
    Count(i64),
    /// Uninterpreted bytes (application-managed entries).
    Raw(Vec<u8>),
    /// A Top-K list with reserve rows. `complete` records whether the list
    /// covers *every* matching row (total ≤ capacity), which decides
    /// whether a tail append after deletes is sound — the bookkeeping the
    /// paper's reserve mechanism needs.
    TopK {
        /// Rows in sort order, up to K + reserve.
        rows: Vec<Row>,
        /// True iff the list contains every matching database row.
        complete: bool,
    },
}

impl Payload {
    /// Encodes the payload: checksummed header, then one checksummed
    /// frame per row (or the single count/raw frame).
    pub fn encode(&self) -> Bytes {
        match self {
            Payload::Rows(rows) => Payload::encode_rows(rows),
            Payload::TopK { rows, complete } => Payload::encode_top_k(rows, *complete),
            Payload::Count(n) => encode_scalar(TAG_COUNT, 8, |b| b.put_i64_le(*n)),
            Payload::Raw(bytes) => encode_scalar(TAG_RAW, bytes.len(), |b| b.put_slice(bytes)),
        }
    }

    /// Encodes `Payload::Rows(rows)` from borrowed rows.
    pub fn encode_rows(rows: &[Row]) -> Bytes {
        encode_list(false, false, rows)
    }

    /// Encodes `Payload::TopK { rows, complete }` from borrowed rows.
    pub fn encode_top_k(rows: &[Row], complete: bool) -> Bytes {
        encode_list(true, complete, rows)
    }

    /// Decodes a payload previously produced by [`Payload::encode`] or an
    /// [`EncodedList`] splice.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] on truncation, trailing bytes, bad
    /// magic/version (a version-1 payload included), an unknown tag, a
    /// frame whose length disagrees with its content, or a header or
    /// frame checksum mismatch.
    pub fn decode(data: &[u8]) -> Result<Payload> {
        let (header, frames) = parse_header(data)?;
        let mut off = 0;
        let payload = match header.tag {
            TAG_ROWS | TAG_TOP_K => {
                let n = header.frames as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rows.push(Frame::take(frames, &mut off)?.row()?.to_row()?);
                }
                if header.tag == TAG_ROWS {
                    Payload::Rows(rows)
                } else {
                    Payload::TopK {
                        rows,
                        complete: header.complete,
                    }
                }
            }
            _ => {
                if header.frames != 1 {
                    return Err(codec_err("scalar payload must have exactly one frame"));
                }
                let mut body = Frame::take(frames, &mut off)?.body()?;
                if header.tag == TAG_RAW {
                    Payload::Raw(body.to_vec())
                } else if body.len() == 8 {
                    Payload::Count(body.get_i64_le())
                } else {
                    return Err(codec_err("count frame is not 8 bytes"));
                }
            }
        };
        if off != frames.len() {
            return Err(codec_err("trailing bytes after the last frame"));
        }
        Ok(payload)
    }

    /// The rows if this is a `Rows` payload.
    pub fn as_rows(&self) -> Option<&[Row]> {
        match self {
            Payload::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// The rows and completeness flag if this is a `TopK` payload.
    pub fn as_top_k(&self) -> Option<(&[Row], bool)> {
        match self {
            Payload::TopK { rows, complete } => Some((rows, *complete)),
            _ => None,
        }
    }

    /// The count if this is a `Count` payload.
    pub fn as_count(&self) -> Option<i64> {
        match self {
            Payload::Count(n) => Some(*n),
            _ => None,
        }
    }
}

fn codec_err(msg: &str) -> CacheError {
    CacheError::Codec(msg.into())
}

// ---------------------------------------------------------------------
// Header and frames
// ---------------------------------------------------------------------

struct Header {
    tag: u8,
    complete: bool,
    frames: u32,
}

fn header_bytes(tag: u8, complete: bool, frames: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    h[2] = VERSION;
    h[3] = tag;
    h[4] = u8::from(complete);
    h[5..9].copy_from_slice(&frames.to_le_bytes());
    let sum = checksum(&h[..9]);
    h[9..].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Verifies and reads the header; returns it with the frame region.
fn parse_header(data: &[u8]) -> Result<(Header, &[u8])> {
    if data.len() < HEADER_LEN {
        return Err(codec_err("payload too short"));
    }
    let (mut head, frames) = data.split_at(HEADER_LEN);
    if checksum(&head[..9]) != u32::from_le_bytes(head[9..].try_into().expect("4 bytes")) {
        return Err(codec_err("header checksum mismatch"));
    }
    let magic = head.get_u16_le();
    if magic != MAGIC {
        return Err(CacheError::Codec(format!("bad magic {magic:#x}")));
    }
    let version = head.get_u8();
    if version != VERSION {
        return Err(CacheError::Codec(format!("unsupported version {version}")));
    }
    let tag = head.get_u8();
    if tag > TAG_TOP_K {
        return Err(CacheError::Codec(format!("unknown payload tag {tag}")));
    }
    let flags = head.get_u8();
    if flags > u8::from(tag == TAG_TOP_K) {
        return Err(CacheError::Codec(format!("bad flags {flags:#x}")));
    }
    let header = Header {
        tag,
        complete: flags == 1,
        frames: head.get_u32_le(),
    };
    Ok((header, frames))
}

/// One frame of an encoded payload, located but not yet verified: the
/// only way to its content is [`Frame::row`], which checks the frame's
/// checksum first.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// `len | body | checksum`.
    bytes: &'a [u8],
}

impl<'a> Frame<'a> {
    /// The frame starting at byte `off` of the frame region. Its length
    /// field is trusted only as far as the bounds checks here go.
    fn at(frames: &'a [u8], off: usize) -> Result<Frame<'a>> {
        let rest = frames
            .get(off..)
            .filter(|r| r.len() >= FRAME_OVERHEAD)
            .ok_or_else(|| codec_err("truncated frame"))?;
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let bytes = len
            .checked_add(FRAME_OVERHEAD)
            .and_then(|total| rest.get(..total))
            .ok_or_else(|| codec_err("frame length runs past the payload"))?;
        Ok(Frame { bytes })
    }

    /// The frame at `*off`, moving `off` past it.
    fn take(frames: &'a [u8], off: &mut usize) -> Result<Frame<'a>> {
        let frame = Frame::at(frames, *off)?;
        *off += frame.bytes.len();
        Ok(frame)
    }

    /// The checksum-verified body.
    fn body(&self) -> Result<&'a [u8]> {
        let (covered, sum) = self.bytes.split_at(self.bytes.len() - 4);
        if checksum(covered) != u32::from_le_bytes(sum.try_into().expect("4 bytes")) {
            return Err(codec_err("frame checksum mismatch"));
        }
        Ok(&covered[4..])
    }

    /// Verifies the frame's checksum and opens it as a row.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] on a checksum mismatch.
    pub fn row(&self) -> Result<RowView<'a>> {
        Ok(RowView { body: self.body()? })
    }
}

/// Writes one frame: `len`, the body `write` produces (exactly `len`
/// bytes), and the checksum over both.
fn put_frame(buf: &mut BytesMut, len: usize, write: impl FnOnce(&mut BytesMut)) {
    let start = buf.len();
    buf.put_u32_le(u32::try_from(len).expect("a frame body is far below 4 GiB"));
    write(buf);
    debug_assert_eq!(buf.len(), start + 4 + len);
    let sum = checksum(&buf[start..]);
    buf.put_u32_le(sum);
}

fn put_row_frame(buf: &mut BytesMut, row: &Row) {
    put_frame(buf, row_len(row), |b| {
        b.put_u32_le(row.arity() as u32);
        for v in row.values() {
            encode_value(b, v);
        }
    });
}

/// A count or raw payload: the header and its single frame.
fn encode_scalar(tag: u8, len: usize, write: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + FRAME_OVERHEAD + len);
    buf.put_slice(&header_bytes(tag, false, 1));
    put_frame(&mut buf, len, write);
    buf.freeze()
}

fn frames_len(rows: &[Row]) -> usize {
    rows.iter().map(|r| FRAME_OVERHEAD + row_len(r)).sum()
}

fn encode_list(top_k: bool, complete: bool, rows: &[Row]) -> Bytes {
    let mut out = ListWriter::new(top_k, frames_len(rows));
    for row in rows {
        out.push(row);
    }
    out.finish(complete)
        .expect("a list is far below 2^32 rows")
        .data
}

/// A verified row of an encoded list, read column by column without
/// building a [`Row`].
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    body: &'a [u8],
}

impl RowView<'_> {
    /// The value at column `i`, or NULL when out of range — the contract
    /// of [`Row::get`].
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if the row's bytes are malformed.
    pub fn get(&self, i: usize) -> Result<Value> {
        let mut buf = self.body;
        if i >= checked_u32(&mut buf, "row arity")? as usize {
            return Ok(Value::Null);
        }
        for _ in 0..i {
            skip_value(&mut buf)?;
        }
        decode_value(&mut buf)
    }

    /// The values from column `from` to the end of the row.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if the row has fewer than `from` columns or
    /// its bytes are malformed.
    pub fn values_from(&self, from: usize) -> Result<Vec<Value>> {
        let (n, mut buf) = self.skip_to(from)?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(decode_value(&mut buf)?);
        }
        end_of_row(buf)?;
        Ok(vals)
    }

    /// Materialises the whole row, decoding straight into its one shared
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if the row's bytes are malformed.
    pub fn to_row(&self) -> Result<Row> {
        let (n, mut buf) = self.skip_to(0)?;
        let row = Row::try_build(n, |vals| {
            for v in vals {
                *v = decode_value(&mut buf)?;
            }
            Ok(())
        })?;
        end_of_row(buf)?;
        Ok(row)
    }

    /// Skips the first `from` values: the number of values after them and
    /// the bytes that hold those values. The count is checked against the
    /// bytes left (every value takes at least its tag byte), so a corrupt
    /// arity cannot size an allocation.
    fn skip_to(&self, from: usize) -> Result<(usize, &[u8])> {
        let mut buf = self.body;
        let arity = checked_u32(&mut buf, "row arity")? as usize;
        if from > arity {
            return Err(codec_err("row has fewer columns than the split point"));
        }
        for _ in 0..from {
            skip_value(&mut buf)?;
        }
        if arity - from > buf.len() {
            return Err(codec_err("row arity exceeds its frame"));
        }
        Ok((arity - from, buf))
    }
}

// ---------------------------------------------------------------------
// Splicing encoded lists
// ---------------------------------------------------------------------

/// What [`EncodedList::edit`] does with one frame.
#[derive(Debug)]
pub enum Edit {
    /// Copy the frame as it is.
    Keep,
    /// Leave the frame out.
    Remove,
    /// Put a frame for this row in its place.
    Replace(Row),
}

/// An encoded `Rows` or `TopK` payload with its header verified, edited
/// in place: every operation builds the new payload from byte ranges of
/// the old one plus frames for the rows it adds, and materialises no row
/// it does not change. See the module docs for the two safety rules.
#[derive(Debug, Clone)]
pub struct EncodedList {
    data: Bytes,
    top_k: bool,
    complete: bool,
    len: usize,
}

impl EncodedList {
    /// Verifies the header of an encoded payload; `None` if it is a
    /// count or raw payload rather than a list.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if the header is not a valid version-2 one.
    pub fn parse(data: Bytes) -> Result<Option<EncodedList>> {
        let (header, _) = parse_header(&data)?;
        let top_k = match header.tag {
            TAG_ROWS => false,
            TAG_TOP_K => true,
            _ => return Ok(None),
        };
        Ok(Some(EncodedList {
            top_k,
            complete: header.complete,
            len: header.frames as usize,
            data,
        }))
    }

    /// True for a `TopK` payload, false for `Rows`.
    pub fn is_top_k(&self) -> bool {
        self.top_k
    }

    /// The Top-K completeness flag (false for `Rows`).
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Bytes {
        self.data
    }

    fn frames(&self) -> &[u8] {
        &self.data[HEADER_LEN..]
    }

    /// Appends `rows` at the tail. Reads nothing but the header, so the
    /// cost is the rows added plus one copy of the existing bytes.
    ///
    /// # Errors
    ///
    /// [`CacheError::Codec`] if the row count would overflow the header.
    pub fn append(&self, rows: &[Row]) -> Result<EncodedList> {
        let mut out = ListWriter::new(self.top_k, self.frames().len() + frames_len(rows));
        out.copy(self.frames(), self.len);
        for row in rows {
            out.push(row);
        }
        out.finish(self.complete)
    }

    /// Walks the frames in order and applies `f`'s verdict to each.
    /// `f` decides from [`Frame::row`] — or, without calling it, leaves
    /// the frame unread and unverified. `None` if every frame was kept.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns, and [`CacheError::Codec`] if the frames do
    /// not tile the payload exactly.
    pub fn edit(
        &self,
        mut f: impl FnMut(Frame<'_>) -> Result<Edit>,
    ) -> Result<Option<EncodedList>> {
        let frames = self.frames();
        let mut out: Option<ListWriter> = None;
        // The run of kept frames not yet copied: (first byte, frames).
        let (mut run_start, mut run_len) = (0, 0);
        let mut off = 0;
        for _ in 0..self.len {
            let start = off;
            match f(Frame::take(frames, &mut off)?)? {
                Edit::Keep => run_len += 1,
                change => {
                    let out = out.get_or_insert_with(|| ListWriter::new(self.top_k, frames.len()));
                    out.copy(&frames[run_start..start], run_len);
                    if let Edit::Replace(row) = change {
                        out.push(&row);
                    }
                    (run_start, run_len) = (off, 0);
                }
            }
        }
        if off != frames.len() {
            return Err(codec_err("trailing bytes after the last frame"));
        }
        out.map(|mut out| {
            out.copy(&frames[run_start..], run_len);
            out.finish(self.complete)
        })
        .transpose()
    }

    /// The paper's Top-K insert (§3.2): puts `row` before the first
    /// cached row it `ranks_before`, then trims the list to `capacity`
    /// rows, clearing `complete` if that cut anything. A row that ranks
    /// below everything cached extends the tail only when the list is
    /// `complete`; otherwise nothing changes and the result is `None`.
    /// Frames up to the insertion point are verified (they are compared
    /// against); the rest are copied unread.
    ///
    /// # Errors
    ///
    /// Whatever `ranks_before` returns, and [`CacheError::Codec`] on a
    /// frame that fails its checksum or runs past the payload.
    pub fn insert_ranked(
        &self,
        row: &Row,
        capacity: usize,
        mut ranks_before: impl FnMut(&RowView<'_>) -> Result<bool>,
    ) -> Result<Option<EncodedList>> {
        let frames = self.frames();
        let (mut pos, mut off) = (self.len, 0);
        for i in 0..self.len {
            let frame = Frame::at(frames, off)?;
            if ranks_before(&frame.row()?)? {
                pos = i;
                break;
            }
            off += frame.bytes.len();
        }
        if pos == self.len && !self.complete {
            return Ok(None);
        }
        let total = self.len.saturating_add(1).min(capacity);
        let trimmed = total <= self.len;
        let mut out = ListWriter::new(self.top_k, frames.len() + FRAME_OVERHEAD + row_len(row));
        if pos < total {
            out.copy(&frames[..off], pos);
            out.push(row);
            let tail = total - pos - 1;
            let tail_end = if trimmed {
                skip_frames(frames, off, tail)?
            } else {
                frames.len()
            };
            out.copy(&frames[off..tail_end], tail);
        } else {
            // The new row itself falls beyond capacity.
            out.copy(&frames[..skip_frames(frames, 0, total)?], total);
        }
        out.finish(self.complete && !trimmed).map(Some)
    }
}

/// The offset `n` frames after `off`, by length fields alone.
fn skip_frames(frames: &[u8], mut off: usize, n: usize) -> Result<usize> {
    for _ in 0..n {
        Frame::take(frames, &mut off)?;
    }
    Ok(off)
}

/// Builds a list payload from copied frame ranges and new rows; the
/// header is stamped last, when the frame count is known.
struct ListWriter {
    buf: BytesMut,
    top_k: bool,
    frames: usize,
}

impl ListWriter {
    fn new(top_k: bool, frame_bytes: usize) -> Self {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + frame_bytes);
        buf.put_slice(&[0; HEADER_LEN]);
        ListWriter {
            buf,
            top_k,
            frames: 0,
        }
    }

    /// Copies `n` whole frames verbatim, checksums included.
    fn copy(&mut self, bytes: &[u8], n: usize) {
        self.buf.put_slice(bytes);
        self.frames += n;
    }

    fn push(&mut self, row: &Row) {
        put_row_frame(&mut self.buf, row);
        self.frames += 1;
    }

    fn finish(mut self, complete: bool) -> Result<EncodedList> {
        let frames =
            u32::try_from(self.frames).map_err(|_| codec_err("list exceeds 2^32 - 1 rows"))?;
        let tag = if self.top_k { TAG_TOP_K } else { TAG_ROWS };
        self.buf[..HEADER_LEN].copy_from_slice(&header_bytes(tag, complete, frames));
        Ok(EncodedList {
            data: self.buf.freeze(),
            top_k: self.top_k,
            complete,
            len: self.frames,
        })
    }
}

// ---------------------------------------------------------------------
// Rows and values
// ---------------------------------------------------------------------

/// The bytes left once a row's last value is read: none, or the frame
/// is malformed.
fn end_of_row(buf: &[u8]) -> Result<()> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(codec_err("frame is longer than its row"))
    }
}

fn checked_u32(buf: &mut &[u8], what: &str) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(CacheError::Codec(format!("truncated {what}")));
    }
    Ok(buf.get_u32_le())
}

/// Encoded size of a row body: arity, then the values.
fn row_len(row: &Row) -> usize {
    4 + row.values().iter().map(value_len).sum::<usize>()
}

fn value_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
        Value::Text(s) => 4 + s.len(),
    }
}

fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(x) => {
            buf.put_u8(1);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
        Value::Text(s) => {
            buf.put_u8(3);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(u8::from(*b));
        }
        Value::Timestamp(t) => {
            buf.put_u8(5);
            buf.put_i64_le(*t);
        }
    }
}

fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(CacheError::Codec("truncated value tag".into()));
    }
    let tag = buf.get_u8();
    match tag {
        0 => Ok(Value::Null),
        1 => {
            if buf.remaining() < 8 {
                return Err(CacheError::Codec("truncated int".into()));
            }
            Ok(Value::Int(buf.get_i64_le()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(CacheError::Codec("truncated float".into()));
            }
            Ok(Value::Float(buf.get_f64_le()))
        }
        3 => {
            let n = checked_u32(buf, "text length")? as usize;
            if buf.remaining() < n {
                return Err(CacheError::Codec("truncated text".into()));
            }
            let s = std::str::from_utf8(&buf[..n])
                .map_err(|_| CacheError::Codec("invalid utf-8 in text".into()))?
                .to_owned();
            buf.advance(n);
            Ok(Value::Text(s))
        }
        4 => {
            if buf.remaining() < 1 {
                return Err(CacheError::Codec("truncated bool".into()));
            }
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        5 => {
            if buf.remaining() < 8 {
                return Err(CacheError::Codec("truncated timestamp".into()));
            }
            Ok(Value::Timestamp(buf.get_i64_le()))
        }
        other => Err(CacheError::Codec(format!("unknown value tag {other}"))),
    }
}

/// Steps over one encoded value without building it.
fn skip_value(buf: &mut &[u8]) -> Result<()> {
    if buf.remaining() < 1 {
        return Err(codec_err("truncated value tag"));
    }
    let n = match buf.get_u8() {
        0 => 0,
        1 | 2 | 5 => 8,
        3 => checked_u32(buf, "text length")? as usize,
        4 => 1,
        other => return Err(CacheError::Codec(format!("unknown value tag {other}"))),
    };
    if buf.remaining() < n {
        return Err(codec_err("truncated value"));
    }
    buf.advance(n);
    Ok(())
}

/// 32-bit checksum, four bytes to a step. Each step is a bijection of
/// the running state for a fixed word and of the word for a fixed state,
/// so any change confined to one word always changes the sum; the
/// rotation carries a word's high bits down to where the multiply
/// spreads them.
fn checksum(data: &[u8]) -> u32 {
    const SEED: u32 = 0x811c9dc5;
    const MUL: u32 = 0x9e3779b9;
    let step = |h: u32, w: u32| (h.rotate_left(5) ^ w).wrapping_mul(MUL);
    let mut words = data.chunks_exact(4);
    let mut hash = SEED;
    for w in &mut words {
        hash = step(hash, u32::from_le_bytes(w.try_into().expect("4 bytes")));
    }
    for &b in words.remainder() {
        hash = step(hash, u32::from(b));
    }
    hash
}

/// 64-bit hash of a key, used by the consistent-hash ring.
///
/// FNV-1a followed by a splitmix64 finalizer: plain FNV avalanches poorly
/// in the upper bits for near-identical strings (e.g. `server0#vnode1` vs
/// `server0#vnode2`), which would leave the ring badly unbalanced.
pub fn hash_key(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in key.as_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    // splitmix64 finalizer.
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58476d1ce4e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d049bb133111eb);
    hash ^ (hash >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_storage::row;

    fn multi_row_payloads() -> Vec<Payload> {
        let rows = vec![
            row![1i64, "alice", true, 2.5f64],
            row![Value::Null, Value::Timestamp(99)],
            row![3i64, "", false],
            row![],
        ];
        vec![
            Payload::Rows(rows.clone()),
            Payload::TopK {
                rows: rows.clone(),
                complete: true,
            },
            Payload::TopK {
                rows,
                complete: false,
            },
            Payload::Count(42),
            Payload::Raw(vec![7; 5]),
        ]
    }

    fn list(p: &Payload) -> EncodedList {
        EncodedList::parse(p.encode()).unwrap().expect("a list")
    }

    fn decoded(l: EncodedList) -> Payload {
        Payload::decode(&l.into_bytes()).unwrap()
    }

    /// Byte range of frame `i` in an encoded list.
    fn frame_range(enc: &[u8], i: usize) -> std::ops::Range<usize> {
        let frames = &enc[HEADER_LEN..];
        let start = skip_frames(frames, 0, i).unwrap();
        let end = skip_frames(frames, start, 1).unwrap();
        HEADER_LEN + start..HEADER_LEN + end
    }

    #[test]
    fn rows_roundtrip() {
        let p = Payload::Rows(vec![
            row![1i64, "alice", true, 2.5f64],
            row![Value::Null, Value::Timestamp(99)],
        ]);
        let enc = p.encode();
        assert_eq!(Payload::decode(&enc).unwrap(), p);
    }

    #[test]
    fn count_roundtrip() {
        for n in [0i64, -5, i64::MAX, i64::MIN] {
            let p = Payload::Count(n);
            assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn raw_roundtrip() {
        let p = Payload::Raw(vec![0, 1, 2, 255]);
        assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
        let empty = Payload::Raw(vec![]);
        assert_eq!(Payload::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn empty_rows_roundtrip() {
        let p = Payload::Rows(vec![]);
        assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn corruption_detected() {
        for p in multi_row_payloads() {
            let enc = p.encode().to_vec();
            for bit in 0..enc.len() * 8 {
                let mut bytes = enc.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(Payload::decode(&bytes), Err(CacheError::Codec(_))),
                    "{p:?}: flipping bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncation_detected() {
        for p in multi_row_payloads() {
            let bytes = p.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Payload::decode(&bytes[..cut]).is_err(),
                    "{p:?}: prefix of {cut} bytes should not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        for p in multi_row_payloads() {
            let mut bytes = p.encode().to_vec();
            bytes.push(0);
            let err = Payload::decode(&bytes).unwrap_err();
            assert!(err.to_string().contains("trailing"), "{p:?}: {err}");
            // A whole extra well-formed frame the header does not count.
            let mut bytes = BytesMut::new();
            bytes.put_slice(&p.encode());
            put_row_frame(&mut bytes, &row![1i64]);
            assert!(Payload::decode(&bytes).is_err(), "{p:?}");
        }
    }

    /// A frame whose checksum is right but whose length disagrees with
    /// the row inside it.
    #[test]
    fn wrong_frame_length_rejected() {
        let row_bytes = |row: &Row| {
            let mut b = BytesMut::new();
            b.put_u32_le(row.arity() as u32);
            row.values().iter().for_each(|v| encode_value(&mut b, v));
            b
        };
        let body = row_bytes(&row![1i64, "abc"]);
        for len in [body.len() - 1, body.len() + 1] {
            let mut padded = body.to_vec();
            padded.resize(len, 0);
            let mut buf = BytesMut::new();
            buf.put_slice(&header_bytes(TAG_ROWS, false, 1));
            put_frame(&mut buf, len, |b| b.put_slice(&padded));
            let err = Payload::decode(&buf).unwrap_err();
            assert!(matches!(err, CacheError::Codec(_)), "len {len}: {err}");
        }
        // A length field pointing past the buffer.
        let mut bytes = Payload::Rows(vec![row![1i64]]).encode().to_vec();
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Payload::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("past the payload"), "{err}");
    }

    /// The version-1 layout (no frames, one FNV-1a sum over everything)
    /// is refused, never misread as version 2.
    #[test]
    fn version_1_payload_refused() {
        let mut v1 = BytesMut::new();
        v1.put_u16_le(MAGIC);
        v1.put_u8(1);
        v1.put_u8(TAG_ROWS);
        v1.put_u32_le(1);
        v1.put_u32_le(1); // arity
        encode_value(&mut v1, &Value::Int(7));
        let fnv1a = v1.iter().fold(0x811c9dc5u32, |h, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x01000193)
        });
        v1.put_u32_le(fnv1a);
        assert!(matches!(Payload::decode(&v1), Err(CacheError::Codec(_))));
        assert!(matches!(
            EncodedList::parse(v1.freeze()),
            Err(CacheError::Codec(_))
        ));
        // Even with a header checksum that matches, the version is named.
        let mut h = header_bytes(TAG_ROWS, false, 0);
        h[2] = 1;
        let sum = checksum(&h[..9]);
        h[9..].copy_from_slice(&sum.to_le_bytes());
        let err = Payload::decode(&h).unwrap_err();
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut h = header_bytes(TAG_COUNT, false, 1);
        h[0] = 0;
        // Fix up the checksum so only the magic check can fail.
        let sum = checksum(&h[..9]);
        h[9..].copy_from_slice(&sum.to_le_bytes());
        let err = Payload::decode(&h).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn top_k_roundtrip() {
        for complete in [true, false] {
            let p = Payload::TopK {
                rows: vec![row![1i64, "a"], row![2i64, "b"]],
                complete,
            };
            assert_eq!(Payload::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Payload::Count(3).as_count(), Some(3));
        assert_eq!(Payload::Count(3).as_rows(), None);
        let rows = Payload::Rows(vec![row![1i64]]);
        assert_eq!(rows.as_rows().unwrap().len(), 1);
        assert_eq!(rows.as_count(), None);
        let tk = Payload::TopK {
            rows: vec![row![1i64]],
            complete: true,
        };
        assert!(tk.as_top_k().unwrap().1);
        assert!(rows.as_top_k().is_none());
    }

    #[test]
    fn parse_reads_the_header_only() {
        assert!(EncodedList::parse(Payload::Count(1).encode())
            .unwrap()
            .is_none());
        assert!(EncodedList::parse(Payload::Raw(vec![1]).encode())
            .unwrap()
            .is_none());
        let l = list(&Payload::TopK {
            rows: vec![row![1i64], row![2i64]],
            complete: true,
        });
        assert!(l.is_top_k() && l.complete() && l.len() == 2 && !l.is_empty());
        let l = list(&Payload::Rows(vec![]));
        assert!(!l.is_top_k() && !l.complete() && l.is_empty());
    }

    #[test]
    fn row_view_reads_columns_lazily() {
        let enc = Payload::Rows(vec![row![1i64, "alice", true, Value::Null, 2.5f64]]).encode();
        let view = Frame::at(&enc[HEADER_LEN..], 0).unwrap().row().unwrap();
        assert_eq!(view.get(0).unwrap(), Value::Int(1));
        assert_eq!(view.get(1).unwrap(), Value::Text("alice".into()));
        assert_eq!(view.get(4).unwrap(), Value::Float(2.5));
        assert_eq!(view.get(5).unwrap(), Value::Null, "like Row::get");
        assert_eq!(
            view.values_from(3).unwrap(),
            vec![Value::Null, Value::Float(2.5)]
        );
        assert_eq!(view.values_from(5).unwrap(), vec![]);
        assert!(view.values_from(6).is_err());
    }

    #[test]
    fn append_and_edit_match_reencoding() {
        let rows = vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]];
        let l = list(&Payload::Rows(rows.clone()));
        let more = [row![4i64, "d"], row![5i64, "e"]];
        let mut want = rows.clone();
        want.extend(more.iter().cloned());
        let appended = l.append(&more).unwrap();
        assert_eq!(appended.len(), 5);
        // Byte-identical to encoding the longer list from scratch.
        assert_eq!(
            appended.into_bytes(),
            Payload::Rows(want).encode(),
            "append"
        );

        let by_pk = |pk: i64, hit: fn() -> Edit| {
            move |f: Frame<'_>| {
                Ok(if f.row()?.get(0)? == Value::Int(pk) {
                    hit()
                } else {
                    Edit::Keep
                })
            }
        };
        let removed = l.edit(by_pk(2, || Edit::Remove)).unwrap().unwrap();
        assert_eq!(removed.len(), 2);
        assert_eq!(
            decoded(removed),
            Payload::Rows(vec![rows[0].clone(), rows[2].clone()])
        );
        let replaced = l
            .edit(by_pk(3, || Edit::Replace(row![3i64, "z", true])))
            .unwrap()
            .unwrap();
        assert_eq!(
            decoded(replaced),
            Payload::Rows(vec![
                rows[0].clone(),
                rows[1].clone(),
                row![3i64, "z", true]
            ])
        );
        assert!(l.edit(by_pk(9, || Edit::Remove)).unwrap().is_none());
    }

    #[test]
    fn insert_ranked_positions_trims_and_tracks_complete() {
        let top = |ts: &[i64], complete| {
            list(&Payload::TopK {
                rows: ts.iter().map(|&t| row![t, Value::Timestamp(t)]).collect(),
                complete,
            })
        };
        // Descending by column 1.
        let insert = |l: &EncodedList, t: i64, capacity| {
            let new = row![t, Value::Timestamp(t)];
            l.insert_ranked(&new, capacity, |r| Ok(Value::Timestamp(t) > r.get(1)?))
                .unwrap()
                .map(|l| match decoded(l) {
                    Payload::TopK { rows, complete } => (
                        rows.iter()
                            .map(|r| r.get(0).as_int().unwrap())
                            .collect::<Vec<_>>(),
                        complete,
                    ),
                    other => panic!("{other:?}"),
                })
        };
        let l = top(&[100, 50], true);
        assert_eq!(insert(&l, 75, 5), Some((vec![100, 75, 50], true)));
        assert_eq!(insert(&l, 200, 5), Some((vec![200, 100, 50], true)));
        assert_eq!(insert(&l, 10, 5), Some((vec![100, 50, 10], true)));
        // Tail insert into an incomplete list is a no-op.
        assert_eq!(insert(&top(&[100, 50], false), 10, 5), None);
        // At capacity: the insert pushes the last row out and coverage is lost.
        assert_eq!(insert(&l, 75, 2), Some((vec![100, 75], false)));
        // The new row itself is the one cut.
        assert_eq!(insert(&l, 10, 2), Some((vec![100, 50], false)));
        // Over capacity already: trimmed down to it.
        assert_eq!(
            insert(&top(&[9, 8, 7, 6], false), 10, 2),
            Some((vec![10, 9], false))
        );
    }

    /// A splice never re-stamps a frame it only copies: corrupting frame
    /// `i` and appending succeeds without reading it — which is also why
    /// an append costs the row added, not the list — and the result is
    /// still refused by the next decode.
    #[test]
    fn append_neither_reads_nor_launders_a_corrupt_frame() {
        let rows: Vec<Row> = (0..6).map(|i| row![i, format!("row {i}")]).collect();
        let enc = Payload::Rows(rows).encode().to_vec();
        for i in 0..6 {
            let range = frame_range(&enc, i);
            for at in [range.start, range.start + 5, range.end - 1] {
                let mut bad = enc.clone();
                bad[at] ^= 0x10;
                let l = EncodedList::parse(Bytes::from(bad.clone()))
                    .unwrap()
                    .unwrap();
                let out = l.append(&[row![99i64, "new"]]).unwrap().into_bytes();
                assert_eq!(out[range.clone()], bad[range.clone()], "copied verbatim");
                assert!(Payload::decode(&out).is_err(), "frame {i} byte {at}");
            }
        }
    }

    /// An edit that has to read a corrupt frame fails; one that stops
    /// reading before it copies it through, still corrupt.
    #[test]
    fn splices_verify_exactly_the_frames_they_read() {
        let rows: Vec<Row> = (0..5)
            .map(|i| row![i, Value::Timestamp(100 - 10 * i)])
            .collect();
        let enc = Payload::TopK {
            rows,
            complete: true,
        }
        .encode()
        .to_vec();
        let mut bad = enc.clone();
        bad[frame_range(&enc, 2).start + 6] ^= 1;
        let l = EncodedList::parse(Bytes::from(bad)).unwrap().unwrap();
        let insert = |ts: i64| {
            let new = row![9i64, Value::Timestamp(ts)];
            l.insert_ranked(&new, 10, |r| Ok(Value::Timestamp(ts) > r.get(1)?))
        };
        // Ranks ahead of row 1: frames 0 and 1 are compared, 2 is not.
        let out = insert(95).unwrap().unwrap();
        assert!(Payload::decode(&out.into_bytes()).is_err());
        // Must be compared against the corrupt frame: the splice errors.
        assert!(matches!(insert(75), Err(CacheError::Codec(_))));
        assert!(matches!(insert(0), Err(CacheError::Codec(_))));
        // Remove-by-pk reads every frame.
        let scan = l.edit(|f| f.row()?.get(0).map(|_| Edit::Keep));
        assert!(matches!(scan, Err(CacheError::Codec(_))));
        // An edit that decides without opening frames passes them through.
        assert!(l.edit(|_| Ok(Edit::Keep)).unwrap().is_none());
    }

    #[test]
    fn hash_key_is_stable_and_spread() {
        let a = hash_key("LatestWallPostsOfUser:42");
        let b = hash_key("LatestWallPostsOfUser:43");
        assert_ne!(a, b);
        assert_eq!(a, hash_key("LatestWallPostsOfUser:42"));
    }
}
