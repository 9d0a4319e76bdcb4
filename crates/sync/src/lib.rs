//! Optimistic-concurrency primitives for the lock-free read path.
//!
//! Everything here is hand-rolled on `std::sync::atomic` (dependencies are
//! vendored in this workspace), and deliberately small: the DENOVA hot read
//! structures need exactly three tools.
//!
//! * [`SeqCount`] — a sequence lock. A single writer (already serialized by
//!   an external write lock) brackets its mutation with `write_scope()`,
//!   which takes the counter odd and restores it even. Readers snapshot the
//!   counter with [`SeqCount::read_begin`], read the protected data
//!   optimistically, and accept the result only if
//!   [`SeqCount::validate`] confirms the counter is unchanged — otherwise
//!   the read may be torn and must be retried or taken under the lock.
//! * [`epoch`] — epoch-based deferred reclamation. Readers [`pin`] the
//!   global epoch for the duration of a traversal; structures retire
//!   unlinked memory with [`defer`], and the collector frees it only after
//!   two epoch advances, i.e. once every reader that could have observed
//!   the old pointer has unpinned.
//! * [`RcuCell`] — a published pointer to an immutable value. Readers
//!   dereference it under a pin without any lock; writers either
//!   clone-modify-publish a whole snapshot (a FACT stripe table) or publish
//!   and clear a single value (one inode-table slot), and the replaced value
//!   is retired through the epoch collector.
//! * [`Stack`] — a Treiber-stack freelist (lock-free LIFO) whose pop path
//!   relies on the epoch collector to keep unlinked nodes alive while a
//!   racing pop may still be reading them.
//!
//! All `SeqCount` operations use `SeqCst` ordering: the structures guarded
//! here are DRAM caches over a persistent-memory image, so the cost of the
//! strongest ordering is noise next to the PM access it protects, and it
//! keeps the protocol easy to reason about (and ThreadSanitizer-friendly).

pub mod epoch;
mod rcu;
mod seqlock;
mod treiber;

pub use epoch::{defer, freed_objects, pin, try_collect, Guard};
pub use rcu::RcuCell;
pub use seqlock::{SeqCount, SeqWriteGuard};
pub use treiber::Stack;
