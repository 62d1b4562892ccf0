//! Slotted pages.
//!
//! Classical slotted-page layout in a fixed 4 KiB buffer:
//!
//! ```text
//! +--------+-----------------+ .... +------------------+
//! | header | slot directory →|      |← record area     |
//! +--------+-----------------+ .... +------------------+
//! 0        8                  free                 4096
//! ```
//!
//! * header: `slot_count: u16`, `free_end: u16`, `dead_bytes: u16`, 2 bytes
//!   reserved;
//! * the slot directory grows upward, 4 bytes per slot
//!   (`offset: u16`, `len: u16`); `offset == 0` marks a tombstone
//!   (offset 0 is inside the header, so it can never be a real record);
//! * records grow downward from the end of the page.
//!
//! Updates rewrite in place when the new record is not longer; otherwise
//! they re-append and repoint the slot. Deleted/stale bytes are tracked in
//! `dead_bytes` and reclaimed by [`Page::compact`], which inserts trigger
//! automatically when contiguous space runs out but total space suffices.

use pstm_types::{PstmError, PstmResult};

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;

const HEADER_LEN: usize = 8;
const SLOT_LEN: usize = 4;
const TOMBSTONE_OFFSET: u16 = 0;
/// High bit of the slot length marks a record *logically deleted* by an
/// uncommitted transaction: invisible to readers, but its bytes and slot
/// stay reserved so the delete can be undone ([`Page::undelete`]) or
/// finalized ([`Page::purge`]) — see the engine's deferred-delete
/// protocol.
const DELETED_FLAG: u16 = 0x8000;

/// A fixed-size slotted page.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    #[must_use]
    pub fn new() -> Self {
        let mut p = Page { buf: Box::new([0u8; PAGE_SIZE]) };
        p.set_slot_count(0);
        p.set_free_end(PAGE_SIZE as u16);
        p.set_dead_bytes(0);
        p
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.buf[0], self.buf[1]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.buf[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.buf[2], self.buf[3]])
    }

    fn set_free_end(&mut self, v: u16) {
        self.buf[2..4].copy_from_slice(&v.to_le_bytes());
    }

    fn dead_bytes(&self) -> u16 {
        u16::from_le_bytes([self.buf[4], self.buf[5]])
    }

    fn set_dead_bytes(&mut self, v: u16) {
        self.buf[4..6].copy_from_slice(&v.to_le_bytes());
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let base = HEADER_LEN + slot as usize * SLOT_LEN;
        let off = u16::from_le_bytes([self.buf[base], self.buf[base + 1]]);
        let len = u16::from_le_bytes([self.buf[base + 2], self.buf[base + 3]]);
        (off, len)
    }

    fn set_slot_entry(&mut self, slot: u16, off: u16, len: u16) {
        let base = HEADER_LEN + slot as usize * SLOT_LEN;
        self.buf[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.buf[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes of contiguous free space between directory and record area.
    #[must_use]
    pub fn contiguous_free(&self) -> usize {
        let dir_end = HEADER_LEN + self.slot_count() as usize * SLOT_LEN;
        self.free_end() as usize - dir_end
    }

    /// Total reclaimable free space (contiguous + dead).
    #[must_use]
    pub fn total_free(&self) -> usize {
        self.contiguous_free() + self.dead_bytes() as usize
    }

    /// Number of live (non-tombstone) records.
    #[must_use]
    pub fn live_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| {
                let (off, len) = self.slot_entry(s);
                off != TOMBSTONE_OFFSET && len & DELETED_FLAG == 0
            })
            .count()
    }

    /// Whether a record of `len` bytes can be inserted (possibly after
    /// compaction), accounting for a potentially-new directory slot.
    #[must_use]
    pub fn can_insert(&self, len: usize) -> bool {
        let slot_cost = if self.free_tombstone().is_some() { 0 } else { SLOT_LEN };
        self.total_free() >= len + slot_cost
    }

    fn free_tombstone(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == TOMBSTONE_OFFSET)
    }

    /// Inserts a record, returning its slot, or `None` if it cannot fit
    /// even after compaction.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.is_empty() || record.len() > PAGE_SIZE - HEADER_LEN - SLOT_LEN {
            return None;
        }
        if !self.can_insert(record.len()) {
            return None;
        }
        let reuse = self.free_tombstone();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT_LEN };
        if self.contiguous_free() < record.len() + slot_cost {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= record.len() + slot_cost);
        let new_end = self.free_end() - record.len() as u16;
        self.buf[new_end as usize..new_end as usize + record.len()].copy_from_slice(record);
        self.set_free_end(new_end);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.set_slot_entry(slot, new_end, record.len() as u16);
        Some(slot)
    }

    /// Places a record at a *specific* slot — used only by recovery redo,
    /// which must reproduce the row addresses recorded in the WAL. The
    /// slot directory is extended with tombstones as needed; the target
    /// slot must not hold a live record.
    pub fn insert_at(&mut self, slot: u16, record: &[u8]) -> PstmResult<()> {
        if record.is_empty() {
            return Err(PstmError::internal("empty record in redo"));
        }
        if slot < self.slot_count() && self.slot_entry(slot).0 != TOMBSTONE_OFFSET {
            return Err(PstmError::internal(format!("redo into live slot {slot}")));
        }
        let new_slots = (slot + 1).saturating_sub(self.slot_count()) as usize;
        let need = record.len() + new_slots * SLOT_LEN;
        if self.total_free() < need {
            return Err(PstmError::internal(format!(
                "page cannot host redo record of {} bytes at slot {slot}",
                record.len()
            )));
        }
        if self.contiguous_free() < need {
            self.compact();
        }
        while self.slot_count() <= slot {
            let s = self.slot_count();
            self.set_slot_count(s + 1);
            self.set_slot_entry(s, TOMBSTONE_OFFSET, 0);
        }
        let new_end = self.free_end() - record.len() as u16;
        self.buf[new_end as usize..new_end as usize + record.len()].copy_from_slice(record);
        self.set_free_end(new_end);
        self.set_slot_entry(slot, new_end, record.len() as u16);
        Ok(())
    }

    /// Returns the record at `slot`, or `None` if the slot is absent or
    /// deleted.
    #[must_use]
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE_OFFSET || len & DELETED_FLAG != 0 {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Rewrites the record at `slot`. Returns `Ok(true)` on success and
    /// `Ok(false)` if the page cannot hold the longer record even after
    /// compaction (the caller must relocate the row to another page).
    pub fn update(&mut self, slot: u16, record: &[u8]) -> PstmResult<bool> {
        if self.get(slot).is_none() {
            return Err(PstmError::NotFound(format!("slot {slot} in page")));
        }
        let (off, len) = self.slot_entry(slot);
        if record.len() <= len as usize {
            // In-place rewrite; excess old bytes become dead.
            self.buf[off as usize..off as usize + record.len()].copy_from_slice(record);
            self.set_slot_entry(slot, off, record.len() as u16);
            self.set_dead_bytes(self.dead_bytes() + (len - record.len() as u16));
            return Ok(true);
        }
        // Re-append: the old copy becomes dead space first so compaction
        // accounting stays truthful.
        self.set_dead_bytes(self.dead_bytes() + len);
        self.set_slot_entry(slot, TOMBSTONE_OFFSET, 0);
        if self.total_free() < record.len() {
            // Restore the slot so the row is not lost on a failed grow.
            self.set_slot_entry(slot, off, len);
            self.set_dead_bytes(self.dead_bytes() - len);
            return Ok(false);
        }
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let new_end = self.free_end() - record.len() as u16;
        self.buf[new_end as usize..new_end as usize + record.len()].copy_from_slice(record);
        self.set_free_end(new_end);
        self.set_slot_entry(slot, new_end, record.len() as u16);
        Ok(true)
    }

    /// Deletes the record at `slot` immediately (tombstones the slot and
    /// reclaims its bytes). For transactional deletes use
    /// [`Page::mark_deleted`] + [`Page::purge`]/[`Page::undelete`] so the
    /// space cannot be reused before the deleting transaction commits.
    pub fn delete(&mut self, slot: u16) -> PstmResult<()> {
        if self.get(slot).is_none() {
            return Err(PstmError::NotFound(format!("slot {slot} in page")));
        }
        let (_, len) = self.slot_entry(slot);
        self.set_slot_entry(slot, TOMBSTONE_OFFSET, 0);
        self.set_dead_bytes(self.dead_bytes() + len);
        Ok(())
    }

    /// Marks a live record logically deleted: readers no longer see it,
    /// but its slot and bytes stay reserved until [`Page::purge`] (commit)
    /// or [`Page::undelete`] (abort).
    pub fn mark_deleted(&mut self, slot: u16) -> PstmResult<()> {
        if self.get(slot).is_none() {
            return Err(PstmError::NotFound(format!("slot {slot} in page")));
        }
        let (off, len) = self.slot_entry(slot);
        self.set_slot_entry(slot, off, len | DELETED_FLAG);
        Ok(())
    }

    /// Reverses [`Page::mark_deleted`].
    pub fn undelete(&mut self, slot: u16) -> PstmResult<()> {
        if slot >= self.slot_count() {
            return Err(PstmError::NotFound(format!("slot {slot} in page")));
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE_OFFSET || len & DELETED_FLAG == 0 {
            return Err(PstmError::internal(format!("slot {slot} is not marked deleted")));
        }
        self.set_slot_entry(slot, off, len & !DELETED_FLAG);
        Ok(())
    }

    /// Finalizes a [`Page::mark_deleted`]: the slot becomes a reusable
    /// tombstone and the record bytes become reclaimable dead space.
    pub fn purge(&mut self, slot: u16) -> PstmResult<()> {
        if slot >= self.slot_count() {
            return Err(PstmError::NotFound(format!("slot {slot} in page")));
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE_OFFSET || len & DELETED_FLAG == 0 {
            return Err(PstmError::internal(format!("slot {slot} is not marked deleted")));
        }
        self.set_slot_entry(slot, TOMBSTONE_OFFSET, 0);
        self.set_dead_bytes(self.dead_bytes() + (len & !DELETED_FLAG));
        Ok(())
    }

    /// Rewrites the record area densely, eliminating dead space. Slot
    /// numbers are stable (RowIds remain valid).
    pub fn compact(&mut self) {
        // Every non-tombstone slot keeps its bytes — including records
        // merely *marked* deleted, whose space is still reserved for a
        // possible undelete.
        let mut records: Vec<(u16, u16, Vec<u8>)> = (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                if off == TOMBSTONE_OFFSET {
                    return None;
                }
                let real_len = (len & !DELETED_FLAG) as usize;
                Some((s, len, self.buf[off as usize..off as usize + real_len].to_vec()))
            })
            .collect();
        // Rewrite from the page end downward, preserving slot order for
        // determinism.
        records.sort_by_key(|(s, _, _)| *s);
        let mut end = PAGE_SIZE as u16;
        for (slot, flagged_len, rec) in records {
            end -= rec.len() as u16;
            self.buf[end as usize..end as usize + rec.len()].copy_from_slice(&rec);
            self.set_slot_entry(slot, end, flagged_len);
        }
        self.set_free_end(end);
        self.set_dead_bytes(0);
    }

    /// Iterator over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Serializes the page image followed by a checksum.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PAGE_SIZE + 4);
        self.write_image(&mut out);
        out
    }

    /// Appends [`Page::to_bytes`]'s image to `out`.
    pub(crate) fn write_image(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf[..]);
        out.extend_from_slice(&pstm_obs::frame::checksum(&self.buf[..]).to_le_bytes());
    }

    /// Deserializes a page image, verifying length and checksum.
    pub fn from_bytes(bytes: &[u8]) -> PstmResult<Self> {
        if bytes.len() != PAGE_SIZE + 4 {
            return Err(PstmError::WalCorrupt(format!(
                "page image has {} bytes, expected {}",
                bytes.len(),
                PAGE_SIZE + 4
            )));
        }
        let (img, sum) = bytes.split_at(PAGE_SIZE);
        let expect = u32::from_le_bytes(sum.try_into().unwrap());
        if pstm_obs::frame::checksum(img) != expect {
            return Err(PstmError::WalCorrupt("page checksum mismatch".into()));
        }
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        buf.copy_from_slice(img);
        Ok(Page { buf })
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("contiguous_free", &self.contiguous_free())
            .field("dead", &self.dead_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_round_trip() {
        let mut p = Page::new();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_ne!(s1, s2);
        assert_eq!(p.get(s1).unwrap(), b"hello");
        assert_eq!(p.get(s2).unwrap(), b"world!");
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_tombstones_and_reuses_slot() {
        let mut p = Page::new();
        let s1 = p.insert(b"aaaa").unwrap();
        p.delete(s1).unwrap();
        assert!(p.get(s1).is_none());
        let s2 = p.insert(b"bbbb").unwrap();
        assert_eq!(s1, s2, "tombstoned slot should be reused");
        assert_eq!(p.get(s2).unwrap(), b"bbbb");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"short").unwrap());
        assert_eq!(p.get(s).unwrap(), b"short");
        assert!(p.update(s, b"a much longer record than before").unwrap());
        assert_eq!(p.get(s).unwrap(), b"a much longer record than before");
    }

    #[test]
    fn update_missing_slot_errors() {
        let mut p = Page::new();
        assert!(p.update(0, b"x").is_err());
        let s = p.insert(b"x").unwrap();
        p.delete(s).unwrap();
        assert!(p.update(s, b"y").is_err());
        assert!(p.delete(s).is_err());
    }

    #[test]
    fn page_fills_and_rejects_when_full() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 4096 - 8 header; each record costs 100 + 4 directory bytes.
        assert_eq!(n, (PAGE_SIZE - HEADER_LEN) / 104);
        assert!(!p.can_insert(100));
        assert!(p.can_insert(p.contiguous_free().saturating_sub(SLOT_LEN)));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = Page::new();
        let rec = [1u8; 200];
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&rec) {
            slots.push(s);
        }
        // Delete every other record, then insert a large one that only
        // fits after compaction.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let big = vec![9u8; 600];
        let s = p.insert(&big).expect("fits after compaction");
        assert_eq!(p.get(s).unwrap(), &big[..]);
        // Survivors are intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(*s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn failed_grow_keeps_old_record() {
        let mut p = Page::new();
        let s = p.insert(&[3u8; 64]).unwrap();
        while p.insert(&[5u8; 64]).is_some() {}
        // Now ask the first record to grow beyond anything available.
        let grown = p.update(s, &vec![9u8; 2000]).unwrap();
        assert!(!grown);
        assert_eq!(p.get(s).unwrap(), &[3u8; 64][..]);
    }

    #[test]
    fn serialization_round_trips_and_checksums() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        let bytes = p.to_bytes();
        let q = Page::from_bytes(&bytes).unwrap();
        assert_eq!(q.get(0).unwrap(), b"persist me");

        let mut corrupt = bytes.clone();
        corrupt[100] ^= 0xFF;
        assert!(Page::from_bytes(&corrupt).is_err());
        assert!(Page::from_bytes(&bytes[..100]).is_err());
    }

    #[test]
    fn empty_and_oversized_records_rejected() {
        let mut p = Page::new();
        assert!(p.insert(b"").is_none());
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
    }

    proptest! {
        /// Random insert/update/delete sequences preserve a shadow model.
        #[test]
        fn prop_page_matches_shadow(ops in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(any::<u8>(), 1..300).prop_map(PageOp::Insert),
                (any::<u16>(), prop::collection::vec(any::<u8>(), 1..300)).prop_map(|(s, r)| PageOp::Update(s, r)),
                any::<u16>().prop_map(PageOp::Delete),
            ],
            0..80,
        )) {
            let mut page = Page::new();
            let mut shadow: std::collections::BTreeMap<u16, Vec<u8>> = Default::default();
            for op in ops {
                match op {
                    PageOp::Insert(rec) => {
                        if let Some(slot) = page.insert(&rec) {
                            shadow.insert(slot, rec);
                        }
                    }
                    PageOp::Update(slot, rec) => {
                        if let std::collections::btree_map::Entry::Occupied(mut e) = shadow.entry(slot) {
                            if page.update(slot, &rec).unwrap() {
                                e.insert(rec);
                            }
                        } else {
                            prop_assert!(page.update(slot, &rec).is_err());
                        }
                    }
                    PageOp::Delete(slot) => {
                        if shadow.remove(&slot).is_some() {
                            page.delete(slot).unwrap();
                        } else {
                            prop_assert!(page.delete(slot).is_err());
                        }
                    }
                }
            }
            prop_assert_eq!(page.live_count(), shadow.len());
            for (slot, rec) in &shadow {
                prop_assert_eq!(page.get(*slot).unwrap(), &rec[..]);
            }
            // Round-trip through bytes preserves everything.
            let back = Page::from_bytes(&page.to_bytes()).unwrap();
            for (slot, rec) in &shadow {
                prop_assert_eq!(back.get(*slot).unwrap(), &rec[..]);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum PageOp {
        Insert(Vec<u8>),
        Update(u16, Vec<u8>),
        Delete(u16),
    }
}
