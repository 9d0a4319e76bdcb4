//! Per-inode logs.
//!
//! A log is a linked list of 4 KB log pages (the final cache line of each
//! page is a footer holding the next-page link). Entries are appended at the
//! tail, persisted, and then committed with a single atomic 64-bit store to
//! the inode's tail pointer — the paper's Fig. 1 steps ②–③. A multi-entry
//! write appends every entry first and commits once, making the whole
//! operation atomic.

use crate::alloc::Allocator;
use crate::entry::{decode, LogEntry};
use crate::error::{NovaError, Result};
use crate::inode::InodeTable;
use crate::layout::{Layout, BLOCK_SIZE, LOG_ENTRY_SIZE, LOG_PAGE_PAYLOAD};
use denova_pmem::PmemDevice;

/// Byte offset of the next-page link within a log page.
const FOOTER_NEXT: u64 = LOG_PAGE_PAYLOAD;

/// In-DRAM mirror of an inode's log position. The committed tail lives in
/// the persistent inode; this mirror avoids a PM read per append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogPosition {
    /// First log page block (0 = no log yet).
    pub head: u64,
    /// Device byte offset of the next append position (0 = no log yet).
    pub tail: u64,
}

/// Read the next-page link of the log page at `page_block`.
pub fn next_page(dev: &PmemDevice, layout: &Layout, page_block: u64) -> u64 {
    dev.read_u64(layout.block_off(page_block) + FOOTER_NEXT)
}

/// Link `page_block`'s footer to `next_block` and persist.
fn link_page(dev: &PmemDevice, layout: &Layout, page_block: u64, next_block: u64) {
    let off = layout.block_off(page_block) + FOOTER_NEXT;
    dev.write_u64(off, next_block);
    dev.persist(off, 8);
}

/// Allocate a fresh log page, clearing only its footer (the next-page
/// link). Entry slots need no zeroing: iteration is bounded by the
/// committed tail, and every entry carries a checksum, so stale bytes from
/// the page's previous life are never interpreted as entries. Zeroing the
/// whole page would cost a full 64-line flush per page — per *file* for the
/// small-file workload.
fn alloc_log_page(dev: &PmemDevice, layout: &Layout, alloc: &Allocator) -> Result<u64> {
    let block = alloc.alloc_one().ok_or(NovaError::NoSpace)?;
    let footer = layout.block_off(block) + LOG_PAGE_PAYLOAD;
    dev.memset(footer, 64, 0);
    dev.persist(footer, 64);
    Ok(block)
}

/// Append `entries` to `ino`'s log and commit the tail atomically.
///
/// Every entry is persisted before the single tail commit, so the whole
/// append is atomic: a crash before the commit leaves the entries
/// unreachable (beyond the tail); a crash after leaves them all visible.
/// Returns the device byte offset of each appended entry.
///
/// `cp` prefixes the crash points fired along the way, letting callers
/// distinguish e.g. a crash in a foreground write from one in the dedup
/// daemon's append (they recover differently).
#[allow(clippy::too_many_arguments)]
pub fn append(
    dev: &PmemDevice,
    layout: &Layout,
    alloc: &Allocator,
    table: &InodeTable<'_>,
    ino: u64,
    pos: &mut LogPosition,
    entries: &[[u8; 64]],
    cp: &str,
) -> Result<Vec<u64>> {
    append_with_ranges(dev, layout, alloc, table, ino, pos, entries, &[], cp)
}

/// [`append`], with caller-supplied `data_ranges` folded into the same
/// flush + fence that persists the log entries. A zero-copy write stores its
/// data pages directly and hands the dirty ranges here, so data and entries
/// ride one `clwb` batch and one `sfence` instead of two — the fence-batching
/// half of the foreground fast path.
#[allow(clippy::too_many_arguments)]
pub fn append_with_ranges(
    dev: &PmemDevice,
    layout: &Layout,
    alloc: &Allocator,
    table: &InodeTable<'_>,
    ino: u64,
    pos: &mut LogPosition,
    entries: &[[u8; 64]],
    data_ranges: &[(u64, usize)],
    cp: &str,
) -> Result<Vec<u64>> {
    if entries.is_empty() {
        return Ok(Vec::new());
    }
    // First append ever: allocate the head page and persist the head link.
    if pos.head == 0 {
        let head = alloc_log_page(dev, layout, alloc)?;
        table.set_log_head(ino, head)?;
        pos.head = head;
        pos.tail = layout.block_off(head);
    }
    let mut offs = Vec::with_capacity(entries.len());
    let mut ranges: Vec<(u64, usize)> = Vec::with_capacity(data_ranges.len() + 1);
    ranges.extend_from_slice(data_ranges);
    let mut tail = pos.tail;
    for bytes in entries {
        // Page full? Allocate, link, jump.
        if tail % BLOCK_SIZE >= LOG_PAGE_PAYLOAD {
            let page = alloc_log_page(dev, layout, alloc)?;
            link_page(dev, layout, tail / BLOCK_SIZE, page);
            tail = layout.block_off(page);
        }
        dev.write(tail, bytes);
        // Contiguous entries coalesce into one flush range.
        match ranges.last_mut() {
            Some((off, len)) if *off + *len as u64 == tail => *len += LOG_ENTRY_SIZE as usize,
            _ => ranges.push((tail, LOG_ENTRY_SIZE as usize)),
        }
        offs.push(tail);
        tail += LOG_ENTRY_SIZE;
    }
    // One flush batch + one fence covers the caller's data and every entry.
    dev.flush_ranges(&ranges);
    dev.fence();
    if dev.crash_points().enabled() {
        dev.crash_point(&format!("{cp}::before_tail_commit"));
    }
    table.commit_log_tail(ino, tail)?;
    if dev.crash_points().enabled() {
        dev.crash_point(&format!("{cp}::after_tail_commit"));
    }
    pos.tail = tail;
    dev.metrics()
        .counter("nova.log.entries_appended")
        .add(entries.len() as u64);
    Ok(offs)
}

/// Iterator over the committed entries of a log. It reads the committed
/// part of each log page in one device read (through the footer when the
/// tail lies beyond the page, so following the link costs no extra read).
pub struct LogIter<'a> {
    dev: &'a PmemDevice,
    layout: &'a Layout,
    cursor: u64,
    tail: u64,
    /// Bytes `[buf_off, buf_off + buf_len)` of the current page.
    buf: [u8; BLOCK_SIZE as usize],
    buf_off: u64,
    buf_len: u64,
}

impl<'a> LogIter<'a> {
    /// Iterate `[head, tail)`. `head_block == 0` or `tail == 0` yields an
    /// empty iterator (no log yet).
    pub fn new(dev: &'a PmemDevice, layout: &'a Layout, head_block: u64, tail: u64) -> Self {
        let cursor = if head_block == 0 || tail == 0 {
            tail
        } else {
            layout.block_off(head_block)
        };
        LogIter {
            dev,
            layout,
            cursor,
            tail,
            buf: [0u8; BLOCK_SIZE as usize],
            buf_off: 0,
            buf_len: 0,
        }
    }

    /// Whether `[off, off + len)` is in the page buffer.
    fn buffered(&self, off: u64, len: u64) -> bool {
        off >= self.buf_off && off + len <= self.buf_off + self.buf_len
    }

    /// Buffer the page holding `cursor` from `cursor` up to the tail, or to
    /// the page end (footer included) when the tail lies beyond the page.
    fn fill(&mut self) {
        let page_start = self.cursor - self.cursor % BLOCK_SIZE;
        let end = if self.tail > self.cursor && self.tail <= page_start + LOG_PAGE_PAYLOAD {
            // (A corrupt tail inside an entry still reads the whole entry.)
            self.tail.max(self.cursor + LOG_ENTRY_SIZE)
        } else {
            page_start + BLOCK_SIZE
        };
        self.buf_off = self.cursor;
        self.buf_len = end - self.cursor;
        self.dev
            .read_into(self.cursor, &mut self.buf[..self.buf_len as usize]);
    }
}

impl Iterator for LogIter<'_> {
    /// `(entry device offset, decoded entry)`.
    type Item = Result<(u64, LogEntry)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.cursor == self.tail {
                return None;
            }
            // End of page payload: follow the footer link.
            if self.cursor % BLOCK_SIZE >= LOG_PAGE_PAYLOAD {
                let footer = self.cursor - self.cursor % BLOCK_SIZE + FOOTER_NEXT;
                let next = if self.buffered(footer, 8) {
                    let at = (footer - self.buf_off) as usize;
                    u64::from_le_bytes(self.buf[at..at + 8].try_into().unwrap())
                } else {
                    next_page(self.dev, self.layout, self.cursor / BLOCK_SIZE)
                };
                if next == 0 {
                    return Some(Err(NovaError::Corrupt("log chain ends before tail")));
                }
                self.cursor = self.layout.block_off(next);
                continue;
            }
            if !self.buffered(self.cursor, LOG_ENTRY_SIZE) {
                self.fill();
            }
            let off = self.cursor;
            self.cursor += LOG_ENTRY_SIZE;
            let at = (off - self.buf_off) as usize;
            let bytes: &[u8; 64] = self.buf[at..at + LOG_ENTRY_SIZE as usize]
                .try_into()
                .unwrap();
            return Some(decode(bytes).map(|e| (off, e)));
        }
    }
}

/// Collect the blocks of every page in a log chain starting at `head_block`.
pub fn log_pages(dev: &PmemDevice, layout: &Layout, head_block: u64) -> Vec<u64> {
    let mut pages = Vec::new();
    let mut cur = head_block;
    while cur != 0 {
        pages.push(cur);
        cur = next_page(dev, layout, cur);
        if pages.len() as u64 > layout.total_blocks {
            // Defensive: a corrupt cycle must not hang recovery.
            break;
        }
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{DedupeFlag, WriteEntry};
    use crate::layout::ENTRIES_PER_LOG_PAGE;

    fn setup() -> (PmemDevice, Layout) {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        (dev, layout)
    }

    fn we(n: u64) -> [u8; 64] {
        WriteEntry {
            dedupe_flag: DedupeFlag::Needed,
            file_pgoff: n,
            num_pages: 1,
            block: 1000 + n,
            size_after: (n + 1) * BLOCK_SIZE,
            txid: n,
            hole: false,
        }
        .encode()
    }

    fn append_all(
        dev: &PmemDevice,
        layout: &Layout,
        alloc: &Allocator,
        ino: u64,
        pos: &mut LogPosition,
        n: u64,
    ) -> Vec<u64> {
        let table = InodeTable::new(dev, layout);
        let entries: Vec<[u8; 64]> = (0..n).map(we).collect();
        append(dev, layout, alloc, &table, ino, pos, &entries, "test").unwrap()
    }

    #[test]
    fn append_and_iterate_single_page() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        let offs = append_all(&dev, &layout, &alloc, 2, &mut pos, 5);
        assert_eq!(offs.len(), 5);
        let got: Vec<_> = LogIter::new(&dev, &layout, pos.head, pos.tail)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got.len(), 5);
        for (i, (off, e)) in got.iter().enumerate() {
            assert_eq!(*off, offs[i]);
            match e {
                LogEntry::Write(w) => assert_eq!(w.file_pgoff, i as u64),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn log_spills_across_pages() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        let n = ENTRIES_PER_LOG_PAGE * 2 + 5;
        append_all(&dev, &layout, &alloc, 2, &mut pos, n);
        let count = LogIter::new(&dev, &layout, pos.head, pos.tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(count as u64, n);
        assert_eq!(log_pages(&dev, &layout, pos.head).len(), 3);
    }

    #[test]
    fn committed_tail_matches_inode() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        append_all(&dev, &layout, &alloc, 2, &mut pos, 3);
        assert_eq!(table.log_tail(2).unwrap(), pos.tail);
        assert_eq!(table.read(2).unwrap().log_head, pos.head);
    }

    #[test]
    fn crash_before_commit_hides_entries() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        append_all(&dev, &layout, &alloc, 2, &mut pos, 2);

        dev.crash_points().arm("test::before_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = [we(10)];
            let mut p = pos;
            append(&dev, &layout, &alloc, &table, 2, &mut p, &entries, "test").unwrap();
        }));
        assert!(r.is_err());
        // Post-crash: the committed tail still shows only the first two
        // entries; iteration from the persistent tail sees exactly them.
        let tail = table.log_tail(2).unwrap();
        assert_eq!(tail, pos.tail);
        let n = LogIter::new(&dev, &layout, pos.head, tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(n, 2);
    }

    #[test]
    fn crash_after_commit_exposes_entries() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let pos = LogPosition::default();

        dev.crash_points().arm("test::after_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = [we(0), we(1)];
            let mut p = pos;
            append(&dev, &layout, &alloc, &table, 2, &mut p, &entries, "test").unwrap();
        }));
        assert!(r.is_err());
        let head = table.read(2).unwrap().log_head;
        let tail = table.log_tail(2).unwrap();
        let n = LogIter::new(&dev, &layout, head, tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(n, 2);
        let _ = pos;
    }

    #[test]
    fn empty_log_iterates_nothing() {
        let (dev, layout) = setup();
        assert_eq!(LogIter::new(&dev, &layout, 0, 0).count(), 0);
    }

    #[test]
    fn multi_entry_append_is_atomic_across_page_boundary() {
        // Fill a page to one entry short of full, then append 3 entries that
        // straddle the boundary and crash before the commit: none of the 3
        // may be visible.
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        append_all(&dev, &layout, &alloc, 2, &mut pos, ENTRIES_PER_LOG_PAGE - 1);

        dev.crash_points().arm("test::before_tail_commit", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entries = [we(100), we(101), we(102)];
            let mut p = pos;
            append(&dev, &layout, &alloc, &table, 2, &mut p, &entries, "test").unwrap();
        }));
        assert!(r.is_err());
        let tail = table.log_tail(2).unwrap();
        let visible = LogIter::new(&dev, &layout, pos.head, tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len();
        assert_eq!(visible as u64, ENTRIES_PER_LOG_PAGE - 1);
    }

    #[test]
    fn append_nothing_is_noop() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        let offs = append(&dev, &layout, &alloc, &table, 2, &mut pos, &[], "test").unwrap();
        assert!(offs.is_empty());
        assert_eq!(pos, LogPosition::default());
    }

    /// Device reads issued by iterating the whole log.
    fn reads_to_iterate(dev: &PmemDevice, layout: &Layout, pos: &LogPosition) -> (u64, u64) {
        let before = dev.stats().snapshot().reads;
        let n = LogIter::new(dev, layout, pos.head, pos.tail)
            .collect::<crate::error::Result<Vec<_>>>()
            .unwrap()
            .len() as u64;
        (n, dev.stats().snapshot().reads - before)
    }

    #[test]
    fn iteration_reads_each_log_page_once() {
        let (dev, layout) = setup();
        let alloc = Allocator::new(1, layout.data_start, layout.data_blocks());
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        let mut pos = LogPosition::default();
        // Exactly one full page: the tail sits at the payload end and no
        // next page exists yet.
        append_all(&dev, &layout, &alloc, 2, &mut pos, ENTRIES_PER_LOG_PAGE);
        assert_eq!(
            reads_to_iterate(&dev, &layout, &pos),
            (ENTRIES_PER_LOG_PAGE, 1)
        );
        // Two more full pages and a partial one: one read per page, the
        // footer links riding along with the entries.
        append_all(
            &dev,
            &layout,
            &alloc,
            2,
            &mut pos,
            ENTRIES_PER_LOG_PAGE * 2 + 5,
        );
        assert_eq!(
            reads_to_iterate(&dev, &layout, &pos),
            (ENTRIES_PER_LOG_PAGE * 3 + 5, 4)
        );
    }
}
