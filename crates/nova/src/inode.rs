//! Persistent inodes and the inode table.
//!
//! NOVA keeps a per-inode log; the inode itself holds the log head block and
//! the log tail pointer. The tail is the *commit point* of every metadata
//! transaction: it is updated with an atomic 64-bit store (+ flush + fence),
//! which is all the consistency NOVA needs — a crash before the tail update
//! leaves appended entries unreachable, a crash after leaves the transaction
//! complete.

use crate::error::{NovaError, Result};
use crate::layout::{Layout, BLOCK_SIZE, INODE_SIZE};
use denova_pmem::PmemDevice;

// Field offsets within the 128 B inode.
const OFF_INO: u64 = 0;
const OFF_FLAGS: u64 = 8;
const OFF_SIZE: u64 = 16;
const OFF_LOG_HEAD: u64 = 24;
const OFF_LOG_TAIL: u64 = 32;
const OFF_LINK_COUNT: u64 = 40;
const OFF_BLOCKS: u64 = 48;

/// Bytes from the start of an inode through its last field.
const FIELDS_LEN: usize = OFF_BLOCKS as usize + 8;

const FLAG_VALID: u64 = 1;
const FLAG_DIR: u64 = 2;

/// A decoded persistent inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inode {
    /// The `ino` value.
    pub ino: u64,
    /// The `valid` value.
    pub valid: bool,
    /// The `is_dir` value.
    pub is_dir: bool,
    /// The `size` value.
    pub size: u64,
    /// First log page (block number); 0 = no log yet.
    pub log_head: u64,
    /// Device byte offset where the next log entry will be appended;
    /// 0 = no log yet.
    pub log_tail: u64,
    /// The `link_count` value.
    pub link_count: u64,
    /// Data blocks attributed to this file (informational).
    pub blocks: u64,
}

/// Decode the field bytes (`FIELDS_LEN` or more) of one inode.
fn decode(b: &[u8]) -> Inode {
    let field =
        |off: u64| u64::from_le_bytes(b[off as usize..off as usize + 8].try_into().unwrap());
    let flags = field(OFF_FLAGS);
    Inode {
        ino: field(OFF_INO),
        valid: flags & FLAG_VALID != 0,
        is_dir: flags & FLAG_DIR != 0,
        size: field(OFF_SIZE),
        log_head: field(OFF_LOG_HEAD),
        log_tail: field(OFF_LOG_TAIL),
        link_count: field(OFF_LINK_COUNT),
        blocks: field(OFF_BLOCKS),
    }
}

/// Accessor for the persistent inode table.
pub struct InodeTable<'a> {
    dev: &'a PmemDevice,
    layout: &'a Layout,
}

impl<'a> InodeTable<'a> {
    /// Create a new instance.
    pub fn new(dev: &'a PmemDevice, layout: &'a Layout) -> Self {
        InodeTable { dev, layout }
    }

    fn base(&self, ino: u64) -> Result<u64> {
        if ino == 0 || ino >= self.layout.num_inodes {
            return Err(NovaError::BadInode(ino));
        }
        Ok(self.layout.inode_off(ino))
    }

    /// Read inode `ino` (one device read of its field bytes).
    pub fn read(&self, ino: u64) -> Result<Inode> {
        let base = self.base(ino)?;
        let mut b = [0u8; FIELDS_LEN];
        self.dev.read_into(base, &mut b);
        Ok(decode(&b))
    }

    /// Visit every slot `1..num_inodes` with its decoded inode, reading the
    /// table a page (32 inodes) per device read. For mount-time sweeps.
    pub fn for_each_slot(&self, mut f: impl FnMut(u64, Inode)) {
        const PER_PAGE: u64 = BLOCK_SIZE / INODE_SIZE;
        let mut page = [0u8; BLOCK_SIZE as usize];
        let start = self.layout.inode_table_start * BLOCK_SIZE;
        let n = self.layout.num_inodes;
        let mut first = 0;
        while first < n {
            let count = PER_PAGE.min(n - first);
            let buf = &mut page[..(count * INODE_SIZE) as usize];
            self.dev.read_into(start + first * INODE_SIZE, buf);
            for (k, raw) in buf.chunks_exact(INODE_SIZE as usize).enumerate() {
                let slot = first + k as u64;
                if slot != 0 {
                    f(slot, decode(raw));
                }
            }
            first += count;
        }
    }

    /// Initialize inode `ino` as a fresh, valid file or directory and persist
    /// it. The inode only becomes *reachable* when a dentry referencing it
    /// commits, so a crash between the two leaves an orphan that recovery
    /// treats as free.
    pub fn init(&self, ino: u64, is_dir: bool) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.memset(base, 128, 0);
        self.dev.write_u64(base + OFF_INO, ino);
        let mut flags = FLAG_VALID;
        if is_dir {
            flags |= FLAG_DIR;
        }
        self.dev.write_u64(base + OFF_FLAGS, flags);
        self.dev.write_u64(base + OFF_LINK_COUNT, 1);
        self.dev.persist(base, 128);
        Ok(())
    }

    /// Mark inode `ino` free and persist.
    pub fn clear(&self, ino: u64) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.memset(base, 128, 0);
        self.dev.persist(base, 128);
        Ok(())
    }

    /// Whether slot `ino` currently holds a valid inode.
    pub fn is_valid(&self, ino: u64) -> Result<bool> {
        let base = self.base(ino)?;
        Ok(self.dev.read_u64(base + OFF_FLAGS) & FLAG_VALID != 0)
    }

    /// Persist the log head block of `ino` (set once, when the first log
    /// page is allocated).
    pub fn set_log_head(&self, ino: u64, head_block: u64) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.write_u64(base + OFF_LOG_HEAD, head_block);
        self.dev.persist(base + OFF_LOG_HEAD, 8);
        Ok(())
    }

    /// Commit the log tail of `ino`: the atomic 64-bit store that makes a
    /// log transaction durable (paper Section II-A, step 3 of the write
    /// flow).
    pub fn commit_log_tail(&self, ino: u64, tail: u64) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.atomic_store_u64(base + OFF_LOG_TAIL, tail);
        self.dev.persist(base + OFF_LOG_TAIL, 8);
        Ok(())
    }

    /// Read the committed log tail with an atomic load.
    pub fn log_tail(&self, ino: u64) -> Result<u64> {
        let base = self.base(ino)?;
        Ok(self.dev.atomic_load_u64(base + OFF_LOG_TAIL))
    }

    /// Persist the cached file size (maintained lazily; recovery recomputes
    /// the authoritative size from the log).
    pub fn set_size(&self, ino: u64, size: u64) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.write_u64(base + OFF_SIZE, size);
        self.dev.persist(base + OFF_SIZE, 8);
        Ok(())
    }

    /// Write the cached file size *without* a fence of its own: the store is
    /// flushed, so it becomes durable with the next fence this thread issues
    /// (typically the following operation's tail commit). Safe because the
    /// size field is purely advisory — recovery recomputes the authoritative
    /// size from the log (`size_after` in write entries, Attr entries), fsck
    /// never audits it, and live readers (`file_size`, `stat`) serve the
    /// in-DRAM size. A crash that reverts this store merely loses a cache.
    pub fn cache_size(&self, ino: u64, size: u64) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.write_u64(base + OFF_SIZE, size);
        self.dev.flush(base + OFF_SIZE, 8);
        Ok(())
    }

    /// Persist the link count.
    pub fn set_link_count(&self, ino: u64, n: u64) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.write_u64(base + OFF_LINK_COUNT, n);
        self.dev.persist(base + OFF_LINK_COUNT, 8);
        Ok(())
    }

    /// Persist the block count (informational).
    pub fn set_blocks(&self, ino: u64, blocks: u64) -> Result<()> {
        let base = self.base(ino)?;
        self.dev.write_u64(base + OFF_BLOCKS, blocks);
        self.dev.persist(base + OFF_BLOCKS, 8);
        Ok(())
    }

    /// Find the lowest free inode slot at or after `from` (linear scan of the
    /// persistent table; callers cache a DRAM bitmap for speed).
    pub fn find_free(&self, from: u64) -> Result<u64> {
        for ino in from.max(1)..self.layout.num_inodes {
            if !self.is_valid(ino)? {
                return Ok(ino);
            }
        }
        Err(NovaError::NoInodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PmemDevice, Layout) {
        let dev = PmemDevice::new(16 * 1024 * 1024);
        let layout = Layout::compute(dev.size() as u64, 64, 2);
        (dev, layout)
    }

    #[test]
    fn init_read_roundtrip() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(5, false).unwrap();
        let ino = table.read(5).unwrap();
        assert!(ino.valid);
        assert!(!ino.is_dir);
        assert_eq!(ino.ino, 5);
        assert_eq!(ino.size, 0);
        assert_eq!(ino.log_head, 0);
        assert_eq!(ino.log_tail, 0);
        assert_eq!(ino.link_count, 1);
    }

    #[test]
    fn dir_flag_persisted() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(1, true).unwrap();
        assert!(table.read(1).unwrap().is_dir);
    }

    #[test]
    fn clear_frees_slot() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(5, false).unwrap();
        table.clear(5).unwrap();
        assert!(!table.is_valid(5).unwrap());
    }

    #[test]
    fn bad_ino_rejected() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        assert_eq!(table.read(0), Err(NovaError::BadInode(0)));
        assert_eq!(table.read(64), Err(NovaError::BadInode(64)));
    }

    #[test]
    fn find_free_skips_valid() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(1, true).unwrap();
        table.init(2, false).unwrap();
        assert_eq!(table.find_free(1).unwrap(), 3);
        table.clear(2).unwrap();
        assert_eq!(table.find_free(1).unwrap(), 2);
    }

    #[test]
    fn find_free_exhaustion() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        for ino in 1..layout.num_inodes {
            table.init(ino, false).unwrap();
        }
        assert_eq!(table.find_free(1), Err(NovaError::NoInodes));
    }

    #[test]
    fn tail_commit_survives_crash() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(3, false).unwrap();
        table.commit_log_tail(3, 0xABCD00).unwrap();
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        let layout2 = layout;
        let table2 = InodeTable::new(&after, &layout2);
        assert_eq!(table2.read(3).unwrap().log_tail, 0xABCD00);
    }

    #[test]
    fn uncommitted_tail_does_not_survive_crash() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(3, false).unwrap();
        table.commit_log_tail(3, 100).unwrap();
        // Store without persist (not via commit_log_tail).
        let base = layout.inode_off(3);
        dev.atomic_store_u64(base + 32, 200);
        let after = dev.crash_clone(denova_pmem::CrashMode::Strict);
        let table2 = InodeTable::new(&after, &layout);
        assert_eq!(table2.read(3).unwrap().log_tail, 100);
    }

    #[test]
    fn size_and_blocks_roundtrip() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(2, false).unwrap();
        table.set_size(2, 123456).unwrap();
        table.set_blocks(2, 31).unwrap();
        let ino = table.read(2).unwrap();
        assert_eq!(ino.size, 123456);
        assert_eq!(ino.blocks, 31);
    }

    #[test]
    fn read_is_one_device_read() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        table.init(7, false).unwrap();
        table.set_size(7, 99).unwrap();
        let before = dev.stats().snapshot().reads;
        let ino = table.read(7).unwrap();
        assert_eq!(dev.stats().snapshot().reads - before, 1);
        assert_eq!((ino.ino, ino.size, ino.link_count), (7, 99, 1));
    }

    #[test]
    fn slot_scan_reads_a_page_per_32_inodes() {
        let (dev, layout) = setup();
        let table = InodeTable::new(&dev, &layout);
        for ino in [1, 31, 32, 63] {
            table.init(ino, ino == 1).unwrap();
        }
        let before = dev.stats().snapshot().reads;
        let mut valid = Vec::new();
        let mut slots = 0;
        table.for_each_slot(|slot, pi| {
            slots += 1;
            if pi.valid {
                assert_eq!(pi.ino, slot);
                valid.push(slot);
            }
        });
        assert_eq!(
            dev.stats().snapshot().reads - before,
            layout.num_inodes.div_ceil(32)
        );
        assert_eq!(slots, layout.num_inodes - 1);
        assert_eq!(valid, [1, 31, 32, 63]);
    }
}
