//! Single-file persistence for the engine.
//!
//! The LDBS owns durability in the paper's architecture; this module
//! lets a database outlive the process, not just a simulated crash. The
//! format is deliberately boring — a magic header and length-prefixed,
//! checksummed sections:
//!
//! ```text
//! | magic "PSTMDB1\0" | catalog len u32 | catalog JSON | catalog crc u32 |
//! | heap count u32 | per heap: len u64 + image + crc u32 |
//! ```
//!
//! [`crate::engine::Database::save_to`] takes a quiescent checkpoint (so
//! the image holds only committed data) and writes it out;
//! [`crate::engine::Database::open_from`] reads it back through the same
//! validation path recovery uses. The WAL is not persisted: a save *is*
//! a checkpoint, after which the log is empty by construction.

use pstm_obs::frame::checksum;
use pstm_types::{PstmError, PstmResult};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PSTMDB1\0";

/// Serializes a checkpoint image (catalog JSON + heap images) to bytes.
pub(crate) fn encode(catalog_json: &[u8], heaps: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        MAGIC.len()
            + 8
            + catalog_json.len()
            + 4
            + heaps.iter().map(|h| 12 + h.len()).sum::<usize>(),
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(catalog_json.len() as u32).to_le_bytes());
    out.extend_from_slice(catalog_json);
    out.extend_from_slice(&checksum(catalog_json).to_le_bytes());
    out.extend_from_slice(&(heaps.len() as u32).to_le_bytes());
    for heap in heaps {
        out.extend_from_slice(&(heap.len() as u64).to_le_bytes());
        out.extend_from_slice(heap);
        out.extend_from_slice(&checksum(heap).to_le_bytes());
    }
    out
}

/// Parses and validates a file image back into catalog JSON + heap
/// images.
pub(crate) fn decode(bytes: &[u8]) -> PstmResult<(Vec<u8>, Vec<Vec<u8>>)> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> PstmResult<&[u8]> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| PstmError::WalCorrupt("database file truncated".into()))?;
        let s = &bytes[*pos..end];
        *pos = end;
        Ok(s)
    };
    if take(&mut pos, MAGIC.len())? != MAGIC {
        return Err(PstmError::WalCorrupt("not a PSTM database file (bad magic)".into()));
    }
    let cat_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let catalog_json = take(&mut pos, cat_len)?.to_vec();
    let cat_crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    if checksum(&catalog_json) != cat_crc {
        return Err(PstmError::WalCorrupt("catalog section checksum mismatch".into()));
    }
    let heap_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    // Untrusted length: never pre-allocate from it directly (a corrupted
    // count must fail on the section reads, not in the allocator).
    let mut heaps = Vec::with_capacity(heap_count.min(1_024));
    for i in 0..heap_count {
        let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let img = take(&mut pos, len)?.to_vec();
        let crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if checksum(&img) != crc {
            return Err(PstmError::WalCorrupt(format!("heap #{i} checksum mismatch")));
        }
        heaps.push(img);
    }
    if pos != bytes.len() {
        return Err(PstmError::WalCorrupt(format!(
            "{} trailing bytes after last heap",
            bytes.len() - pos
        )));
    }
    Ok((catalog_json, heaps))
}

/// Writes `bytes` to `path` atomically (temp file + rename).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> PstmResult<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a whole file.
pub(crate) fn read_all(path: &Path) -> PstmResult<Vec<u8>> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let catalog = br#"{"tables":[]}"#.to_vec();
        let heaps = vec![vec![1u8; 100], vec![2u8; 200], Vec::new()];
        let bytes = encode(&catalog, &heaps);
        let (cat, hs) = decode(&bytes).unwrap();
        assert_eq!(cat, catalog);
        assert_eq!(hs, heaps);
    }

    #[test]
    fn corruption_detected_everywhere() {
        let catalog = br#"{"tables":[]}"#.to_vec();
        let heaps = vec![vec![7u8; 64]];
        let bytes = encode(&catalog, &heaps);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(decode(&bad).is_err(), "flip at byte {i} not detected");
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(b"{}", &[vec![1u8; 32]]);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} not detected");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode(&extended).is_err(), "trailing byte not detected");
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = encode(b"{}", &[]);
        bytes[0] = b'X';
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }
}
