//! Shared CRC framing for crash-surviving byte streams.
//!
//! Both the WAL (`pstm-storage`) and the flight recorder
//! ([`crate::recorder`]) persist records as checksummed binary frames:
//!
//! ```text
//! | len: u32 LE | checksum: u32 LE | payload: len bytes |
//! ```
//!
//! The checksum covers **both** the length field and the payload, so a
//! corrupted length that still points inside the buffer is detected as
//! corruption rather than silently truncating the stream. A frame whose
//! claimed length runs past the end of the buffer is indistinguishable
//! from a write cut short by power loss and is treated as a torn tail —
//! the same stop-at-first-invalid-record policy real redo passes use.
//!
//! This module is the single home of that machinery: the checksum
//! (previously private to `pstm-storage`'s codec), the frame writer, and
//! the frame scanner with its torn-vs-corrupt classification. The WAL
//! builds its replay loop on [`next_frame`], so the recorder's torn-tail
//! semantics are the WAL's by construction, not by parallel
//! implementation.

/// Size in bytes of a frame header (`len` + `checksum`).
pub const FRAME_HEADER: usize = 8;

/// Fletcher-32 style checksum used by WAL records, page images and
/// recorder frames. Not cryptographic — it only needs to catch
/// torn/truncated writes.
#[must_use]
pub fn checksum(data: &[u8]) -> u32 {
    let mut s = ChecksumStream::new();
    s.update(data);
    s.finish()
}

/// Incremental form of [`checksum`]: feed any number of slices via
/// [`ChecksumStream::update`] and the digest equals `checksum` over their
/// concatenation. The 359-byte fold boundaries are tracked logically
/// (bytes since the last fold), not per `update` call, so callers can
/// checksum a frame header and payload without concatenating them first.
#[derive(Clone, Debug)]
pub struct ChecksumStream {
    a: u32,
    b: u32,
    /// Bytes accumulated since the last modular fold (`0..CHUNK`).
    fill: usize,
}

/// Fold interval of the Fletcher accumulators — the largest run for
/// which `b` cannot overflow between folds.
const CHUNK: usize = 359;

impl Default for ChecksumStream {
    fn default() -> Self {
        ChecksumStream::new()
    }
}

impl ChecksumStream {
    /// A fresh digest (equals `checksum(&[])` if finished immediately).
    #[must_use]
    pub fn new() -> Self {
        ChecksumStream { a: 0xF1E2, b: 0xD3C4, fill: 0 }
    }

    /// Absorbs `data`, folding at every 359th byte of the logical stream.
    ///
    /// Each run up to the next fold is one block: `n` bytes `xᵢ` advance
    /// the byte-at-a-time recurrence `a += x; b += a` to
    /// `b += n·a + Σ(n−i)·xᵢ`, `a += Σxᵢ`. Within a fold nothing
    /// overflows `u32` (`b` < 2²⁶), so the digest is bit-identical to the
    /// byte loop, and the two sums carry no dependency from byte to byte.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let (run, rest) = data.split_at(data.len().min(CHUNK - self.fill));
            let n = run.len() as u32;
            let (mut sum, mut weighted) = (0u32, 0u32);
            for (i, &x) in (0u32..).zip(run) {
                sum += u32::from(x);
                weighted += (n - i) * u32::from(x);
            }
            self.b += n * self.a + weighted;
            self.a += sum;
            self.fill += run.len();
            if self.fill == CHUNK {
                self.a %= 65_535;
                self.b %= 65_535;
                self.fill = 0;
            }
            data = rest;
        }
    }

    /// Final digest; a partial trailing chunk folds exactly as
    /// `checksum`'s last `chunks(359)` iteration does.
    #[must_use]
    pub fn finish(mut self) -> u32 {
        if self.fill > 0 {
            self.a %= 65_535;
            self.b %= 65_535;
        }
        (self.b << 16) | self.a
    }
}

/// Frame checksum over the length field and the payload together, so a
/// corrupted length inside the buffer cannot masquerade as a valid frame.
/// Streamed — the header and payload are never concatenated.
#[must_use]
pub fn frame_checksum(len_bytes: &[u8; 4], payload: &[u8]) -> u32 {
    let mut s = ChecksumStream::new();
    s.update(len_bytes);
    s.update(payload);
    s.finish()
}

/// Appends the complete frame for `payload` (header + payload) to `out`,
/// returning the frame's size in bytes.
pub fn write_frame(payload: &[u8], out: &mut Vec<u8>) -> usize {
    write_frame_with(out, |out| out.extend_from_slice(payload))
}

/// Appends one frame to `out` whose payload `write_payload` appends in
/// place: the header is reserved first and back-filled once the payload's
/// length is known, so an encoder never builds an intermediate payload
/// buffer. Returns the frame's size in bytes.
pub fn write_frame_with(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    write_payload(out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER);
    let len_bytes = (payload.len() as u32).to_le_bytes();
    header[..4].copy_from_slice(&len_bytes);
    header[4..].copy_from_slice(&frame_checksum(&len_bytes, payload).to_le_bytes());
    payload.len() + FRAME_HEADER
}

/// Outcome of scanning one frame at an offset (see [`next_frame`]).
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStep<'a> {
    /// An intact frame: its payload and the offset just past it.
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame (the next scan position).
        end: usize,
    },
    /// The bytes from this offset on are a torn tail — a header cut
    /// short, a length running past the buffer, or a checksum failure on
    /// the very last frame. Scanning must stop and the suffix may be
    /// discarded (the crash contract).
    Torn,
    /// A checksum failure *before* the tail: media corruption, not a
    /// tear. The stream is damaged mid-way and replay must error rather
    /// than silently drop the rest.
    Corrupt,
}

/// Scans the frame starting at `pos` in `buf`, classifying the bytes as
/// an intact frame, a torn tail, or mid-stream corruption. `pos` past the
/// end of the buffer is a torn tail (an empty one).
#[must_use]
pub fn next_frame(buf: &[u8], pos: usize) -> FrameStep<'_> {
    if pos.saturating_add(FRAME_HEADER) > buf.len() {
        return FrameStep::Torn; // torn frame header at tail
    }
    let len_bytes: [u8; 4] = match buf[pos..pos + 4].try_into() {
        Ok(b) => b,
        Err(_) => return FrameStep::Torn,
    };
    let len = u32::from_le_bytes(len_bytes) as usize;
    let sum = u32::from_le_bytes(match buf[pos + 4..pos + 8].try_into() {
        Ok(b) => b,
        Err(_) => return FrameStep::Torn,
    });
    let start = pos + FRAME_HEADER;
    if start.checked_add(len).is_none_or(|end| end > buf.len()) {
        // Either a torn final write or a corrupted length running past
        // the buffer — indistinguishable; treat as a tear.
        return FrameStep::Torn;
    }
    let payload = &buf[start..start + len];
    if frame_checksum(&len_bytes, payload) != sum {
        if start + len == buf.len() {
            return FrameStep::Torn; // corrupt final record: torn tail
        }
        return FrameStep::Corrupt;
    }
    FrameStep::Frame { payload, end: start + len }
}

/// Byte length of the longest valid frame prefix of `buf`: the offset at
/// which scanning first hits a torn tail or corruption. Used to trim a
/// torn suffix so post-recovery appends land on a frame boundary.
#[must_use]
pub fn valid_prefix_len(buf: &[u8]) -> usize {
    let mut pos = 0usize;
    while pos < buf.len() {
        match next_frame(buf, pos) {
            FrameStep::Frame { end, .. } => pos = end,
            FrameStep::Torn | FrameStep::Corrupt => break,
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(p, &mut buf);
        }
        buf
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = checksum(data);
        let mut copy = data.to_vec();
        copy[7] ^= 0x01;
        assert_ne!(checksum(&copy), base);
    }

    #[test]
    fn stream_matches_one_shot_across_chunk_boundaries() {
        // Lengths straddling the 359-byte fold boundary, plus empty.
        for len in [0usize, 1, 358, 359, 360, 717, 718, 719, 1024] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let mut s = ChecksumStream::new();
            s.update(&data);
            assert_eq!(s.finish(), checksum(&data), "len {len}");
        }
    }

    /// The byte-at-a-time recurrence the blocked update must reproduce.
    fn byte_loop(data: &[u8]) -> u32 {
        let (mut a, mut b, mut fill) = (0xF1E2u32, 0xD3C4u32, 0usize);
        for &byte in data {
            a = a.wrapping_add(u32::from(byte));
            b = b.wrapping_add(a);
            fill += 1;
            if fill == CHUNK {
                a %= 65_535;
                b %= 65_535;
                fill = 0;
            }
        }
        if fill > 0 {
            a %= 65_535;
            b %= 65_535;
        }
        (b << 16) | a
    }

    #[test]
    fn all_ones_bytes_match_the_byte_loop() {
        // 0xFF everywhere drives both sums to their largest values.
        for len in [1usize, 358, 359, 360, 4 * CHUNK, 28 * 1024] {
            let data = vec![0xFF; len];
            assert_eq!(checksum(&data), byte_loop(&data), "len {len}");
            let mut s = ChecksumStream::new();
            for piece in data.chunks(CHUNK - 1) {
                s.update(piece);
            }
            assert_eq!(s.finish(), byte_loop(&data), "len {len}, streamed");
        }
    }

    proptest! {
        #[test]
        fn prop_blocked_checksum_is_the_byte_loop_at_every_split(
            data in prop::collection::vec(any::<u8>(), 0..1_200),
        ) {
            let expect = byte_loop(&data);
            prop_assert_eq!(checksum(&data), expect);
            for cut in 0..=data.len() {
                let mut s = ChecksumStream::new();
                s.update(&data[..cut]);
                s.update(&data[cut..]);
                prop_assert_eq!(s.finish(), expect, "split at {}", cut);
            }
        }
    }

    /// `cargo test --release -p pstm-obs --lib checksum_ns_per_byte --
    /// --ignored --nocapture`: what the digest under every durable byte
    /// costs, for a WAL commit, a page and a 1 024-row heap image —
    /// blocked, and the byte loop it replaced.
    #[test]
    #[ignore = "timing probe; run in release"]
    fn checksum_ns_per_byte() {
        let ns_per_byte = |f: fn(&[u8]) -> u32, data: &[u8]| {
            let rounds = (64 << 20) / data.len();
            let start = std::time::Instant::now();
            let mut fold = 0u32;
            for _ in 0..rounds {
                fold = fold.wrapping_add(f(std::hint::black_box(data)));
            }
            (start.elapsed().as_nanos() as f64 / (rounds * data.len()) as f64, fold)
        };
        for len in [136usize, 4 * 1024, 28 * 1024] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let (blocked, a) = ns_per_byte(checksum, &data);
            let (bytes, b) = ns_per_byte(byte_loop, &data);
            assert_eq!(a, b);
            println!("{len:>6} B: {blocked:.3} ns/B blocked, {bytes:.3} ns/B byte loop");
        }
    }

    #[test]
    fn frames_round_trip() {
        let buf = framed(&[b"alpha", b"", b"gamma-gamma"]);
        let mut pos = 0;
        let mut seen = Vec::new();
        while pos < buf.len() {
            match next_frame(&buf, pos) {
                FrameStep::Frame { payload, end } => {
                    seen.push(payload.to_vec());
                    pos = end;
                }
                other => panic!("unexpected {other:?} at {pos}"),
            }
        }
        assert_eq!(seen, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-gamma".to_vec()]);
        assert_eq!(valid_prefix_len(&buf), buf.len());
    }

    #[test]
    fn every_truncation_recovers_the_longest_valid_prefix() {
        let buf = framed(&[b"one", b"two-two", b"three"]);
        let boundaries = {
            let mut b = vec![0usize];
            let mut pos = 0;
            while let FrameStep::Frame { end, .. } = next_frame(&buf, pos) {
                b.push(end);
                pos = end;
            }
            b
        };
        for cut in 0..=buf.len() {
            let torn = &buf[..cut];
            let expect = *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
            assert_eq!(valid_prefix_len(torn), expect, "cut {cut}");
        }
    }

    #[test]
    fn mid_stream_corruption_classified_as_corrupt_not_torn() {
        let mut buf = framed(&[b"first", b"second"]);
        buf[FRAME_HEADER + 1] ^= 0xFF; // payload of the first frame
        assert_eq!(next_frame(&buf, 0), FrameStep::Corrupt);
        // The same flip on the *final* frame is a torn tail.
        let mut tail = framed(&[b"first", b"second"]);
        let second = valid_prefix_len(&framed(&[b"first"]));
        let len = tail.len();
        tail[len - 1] ^= 0xFF;
        assert_eq!(next_frame(&tail, second), FrameStep::Torn);
    }

    #[test]
    fn corrupted_inline_length_within_buffer_is_corrupt() {
        let mut buf = framed(&[b"aaaa", b"bbbb", b"cccc"]);
        buf[0] ^= 0x01; // first frame's length: still inside the buffer
        assert_eq!(next_frame(&buf, 0), FrameStep::Corrupt);
    }

    #[test]
    fn oversized_length_is_a_torn_tail() {
        let mut buf = framed(&[b"payload"]);
        buf[2] = 0xFF; // length now runs far past the buffer
        assert_eq!(next_frame(&buf, 0), FrameStep::Torn);
        assert_eq!(valid_prefix_len(&buf), 0);
    }
}
