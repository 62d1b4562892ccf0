//! Heap files: an append-friendly collection of slotted pages addressed by
//! [`RowId`].

use crate::page::{Page, PAGE_SIZE};
use crate::row::{Row, RowId};
use pstm_types::{PstmError, PstmResult, Value};

/// A heap file — the physical store of one table.
///
/// Insertion uses a simple last-page-first policy with a linear fallback
/// over pages that advertise enough free space; this keeps the structure
/// deterministic and compact without a free-space map.
#[derive(Default)]
pub struct HeapFile {
    pages: Vec<Page>,
    /// Reused encode buffer for [`HeapFile::update`] — the commit path
    /// rewrites rows inside the engine's exclusive section and must not
    /// allocate there.
    enc: Vec<u8>,
}

impl HeapFile {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        HeapFile::default()
    }

    /// Number of pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total live rows across pages (O(pages·slots); used by tests and
    /// statistics, not hot paths).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.pages.iter().map(Page::live_count).sum()
    }

    /// Inserts an encoded row, returning its address.
    pub fn insert(&mut self, row: &Row) -> PstmResult<RowId> {
        let rec = row.encode();
        if rec.len() > PAGE_SIZE / 2 {
            return Err(PstmError::internal(format!(
                "record of {} bytes exceeds half-page limit",
                rec.len()
            )));
        }
        // Try the last page, then any page with room, then a fresh page.
        if let Some(last) = self.pages.len().checked_sub(1) {
            if let Some(slot) = self.pages[last].insert(&rec) {
                return Ok(RowId::new(last as u32, slot));
            }
        }
        for (i, page) in self.pages.iter_mut().enumerate() {
            if page.can_insert(rec.len()) {
                if let Some(slot) = page.insert(&rec) {
                    return Ok(RowId::new(i as u32, slot));
                }
            }
        }
        let mut page = Page::new();
        let slot =
            page.insert(&rec).ok_or_else(|| PstmError::internal("fresh page rejected record"))?;
        self.pages.push(page);
        Ok(RowId::new(self.pages.len() as u32 - 1, slot))
    }

    /// Places a row at a *specific* address — recovery redo only (the WAL
    /// records the address each insert originally received and redo must
    /// reproduce it). Missing pages are created empty.
    pub fn materialize_at(&mut self, id: RowId, row: &Row) -> PstmResult<()> {
        while self.pages.len() <= id.page() as usize {
            self.pages.push(Page::new());
        }
        self.pages[id.page() as usize].insert_at(id.slot(), &row.encode())
    }

    /// Fetches and decodes the row at `id`.
    pub fn get(&self, id: RowId) -> PstmResult<Row> {
        Row::decode(self.record(id)?.1)
    }

    /// [`HeapFile::get`] into `row`, reusing its capacity.
    pub(crate) fn get_into(&self, id: RowId, row: &mut Row) -> PstmResult<()> {
        crate::codec::decode_row_into(self.record(id)?.1, &mut row.0)
    }

    /// Column `column` of the row at `id`, decoded alone; `None` if the
    /// row has fewer columns.
    pub(crate) fn get_col(&self, id: RowId, column: usize) -> PstmResult<Option<Value>> {
        crate::codec::decode_col(self.record(id)?.1, column)
    }

    /// The page holding row `id` and the row's encoded bytes.
    fn record(&self, id: RowId) -> PstmResult<(&Page, &[u8])> {
        let page = self.pages.get(id.page() as usize).ok_or_else(|| not_found(id))?;
        Ok((page, page.get(id.slot()).ok_or_else(|| not_found(id))?))
    }

    /// Whether a live row exists at `id`.
    #[must_use]
    pub fn exists(&self, id: RowId) -> bool {
        self.pages.get(id.page() as usize).and_then(|p| p.get(id.slot())).is_some()
    }

    /// Rewrites the row at `id` in place. Rows never migrate: the GTM hands
    /// out stable [`RowId`]s as object identities, so a row that no longer
    /// fits its page is an error (records in this system shrink or keep
    /// their size—values are fixed-width except text). The engine's write
    /// sets check `HeapFile::page_free` before logging, so they never
    /// meet it.
    pub fn update(&mut self, id: RowId, row: &Row) -> PstmResult<()> {
        let page = self.pages.get_mut(id.page() as usize).ok_or_else(|| not_found(id))?;
        self.enc.clear();
        crate::codec::encode_row_into(row.values(), &mut self.enc);
        match page.update(id.slot(), &self.enc)? {
            true => Ok(()),
            false => Err(PstmError::internal(format!(
                "row {id} grew beyond its page; in-place update impossible"
            ))),
        }
    }

    /// Marks the row at `id` logically deleted (invisible, space
    /// reserved) — the first phase of a transactional delete.
    pub fn mark_deleted(&mut self, id: RowId) -> PstmResult<()> {
        self.page_mut(id)?.mark_deleted(id.slot()).map_err(|_| not_found(id))
    }

    /// Reverses [`HeapFile::mark_deleted`] (abort path).
    pub fn undelete(&mut self, id: RowId) -> PstmResult<()> {
        self.page_mut(id)?.undelete(id.slot())
    }

    /// Finalizes [`HeapFile::mark_deleted`] (commit path): the slot and
    /// bytes become reusable.
    pub fn purge(&mut self, id: RowId) -> PstmResult<()> {
        self.page_mut(id)?.purge(id.slot())
    }

    fn page_mut(&mut self, id: RowId) -> PstmResult<&mut Page> {
        self.pages.get_mut(id.page() as usize).ok_or_else(|| not_found(id))
    }

    /// Deletes the row at `id`.
    pub fn delete(&mut self, id: RowId) -> PstmResult<()> {
        self.page_mut(id)?.delete(id.slot()).map_err(|_| not_found(id))
    }

    /// Full scan in `RowId` order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        self.pages.iter().enumerate().flat_map(|(pno, page)| {
            page.iter().map(move |(slot, rec)| {
                let row = Row::decode(rec).expect("heap pages contain only rows we encoded");
                (RowId::new(pno as u32, slot), row)
            })
        })
    }

    /// Serializes every page.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_image(&mut out);
        out
    }

    /// Rewrites `out` as the heap's image — page count, then each page
    /// and its checksum — in the capacity `out` already has: a checkpoint
    /// writes into the buffer the previous one left.
    pub(crate) fn write_image(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.image_len());
        out.extend_from_slice(&(self.pages.len() as u32).to_le_bytes());
        for p in &self.pages {
            p.write_image(out);
        }
    }

    /// Bytes [`HeapFile::write_image`] writes.
    #[must_use]
    pub(crate) fn image_len(&self) -> usize {
        4 + self.pages.len() * (PAGE_SIZE + 4)
    }

    /// Free bytes (after compaction) on the page holding row `id`: a
    /// row there may grow by that much in [`HeapFile::update`].
    pub(crate) fn page_free(&self, id: RowId) -> PstmResult<usize> {
        Ok(self.record(id)?.0.total_free())
    }

    /// Restores a heap from [`HeapFile::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> PstmResult<Self> {
        if bytes.len() < 4 {
            return Err(PstmError::WalCorrupt("heap image truncated".into()));
        }
        let n = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let expected = 4 + n * (PAGE_SIZE + 4);
        if bytes.len() != expected {
            return Err(PstmError::WalCorrupt(format!(
                "heap image has {} bytes, expected {expected}",
                bytes.len()
            )));
        }
        let mut pages = Vec::with_capacity(n);
        for i in 0..n {
            let start = 4 + i * (PAGE_SIZE + 4);
            pages.push(Page::from_bytes(&bytes[start..start + PAGE_SIZE + 4])?);
        }
        Ok(HeapFile { pages, enc: Vec::new() })
    }
}

fn not_found(id: RowId) -> PstmError {
    PstmError::NotFound(format!("row {id}"))
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("pages", &self.pages.len())
            .field("rows", &self.row_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::Text(format!("row-{i}"))])
    }

    #[test]
    fn insert_get_many_rows_across_pages() {
        let mut h = HeapFile::new();
        let ids: Vec<RowId> = (0..2000).map(|i| h.insert(&row(i)).unwrap()).collect();
        assert!(h.page_count() > 1, "2000 rows must span pages");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(h.get(*id).unwrap(), row(i as i64));
        }
        assert_eq!(h.row_count(), 2000);
    }

    #[test]
    fn update_preserves_row_id() {
        let mut h = HeapFile::new();
        let id = h.insert(&row(1)).unwrap();
        h.update(id, &row(999)).unwrap();
        assert_eq!(h.get(id).unwrap(), row(999));
    }

    #[test]
    fn delete_then_get_fails() {
        let mut h = HeapFile::new();
        let id = h.insert(&row(1)).unwrap();
        h.delete(id).unwrap();
        assert!(h.get(id).is_err());
        assert!(!h.exists(id));
        assert!(h.delete(id).is_err());
    }

    #[test]
    fn scan_returns_live_rows_in_rowid_order() {
        let mut h = HeapFile::new();
        let ids: Vec<RowId> = (0..50).map(|i| h.insert(&row(i)).unwrap()).collect();
        h.delete(ids[10]).unwrap();
        h.delete(ids[20]).unwrap();
        let scanned: Vec<(RowId, Row)> = h.scan().collect();
        assert_eq!(scanned.len(), 48);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn deleted_space_is_reused() {
        let mut h = HeapFile::new();
        let ids: Vec<RowId> = (0..500).map(|i| h.insert(&row(i)).unwrap()).collect();
        let pages_before = h.page_count();
        for id in &ids {
            h.delete(*id).unwrap();
        }
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        assert_eq!(h.page_count(), pages_before, "reinsertions should reuse freed pages");
    }

    #[test]
    fn oversized_record_rejected() {
        let mut h = HeapFile::new();
        let big = Row::new(vec![Value::Text("x".repeat(PAGE_SIZE))]);
        assert!(h.insert(&big).is_err());
    }

    #[test]
    fn missing_row_ids_error() {
        let h = HeapFile::new();
        assert!(h.get(RowId::new(0, 0)).is_err());
        assert!(h.get(RowId::new(99, 0)).is_err());
    }

    #[test]
    fn heap_serialization_round_trips() {
        let mut h = HeapFile::new();
        let ids: Vec<RowId> = (0..300).map(|i| h.insert(&row(i)).unwrap()).collect();
        h.delete(ids[7]).unwrap();
        let img = h.to_bytes();
        let back = HeapFile::from_bytes(&img).unwrap();
        assert_eq!(back.row_count(), 299);
        assert_eq!(back.get(ids[0]).unwrap(), row(0));
        assert!(back.get(ids[7]).is_err());

        assert!(HeapFile::from_bytes(&img[..img.len() - 1]).is_err());
        assert!(HeapFile::from_bytes(&[]).is_err());
    }
}
