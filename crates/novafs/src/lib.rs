//! `novafs` — a NOVA-like log-structured file system for persistent memory.
//!
//! Models the design of NOVA (Xu & Swanson, FAST '16), the file system the
//! paper mounts on its Optane PMem tier. The properties the paper leans on
//! are reproduced faithfully:
//!
//! * **Per-inode logs.** Every inode owns a chain of log pages; data and
//!   metadata updates append log entries. There is no central journal, so
//!   there is no double write of data — the contrast with Strata's
//!   log-then-digest design that §3.1 of the paper measures.
//! * **DAX data path.** File data is written directly to persistent-memory
//!   pages (copy-on-write), then persisted with cache-line flushes
//!   ([`simdev::Device::flush_range`], the CLFLUSH model), then committed by
//!   an 8-byte atomic log-tail update. The pages a write displaces are
//!   freed only after that commit: nothing the durable log maps is reused
//!   before the commit that supersedes it.
//! * **Recovery by log replay.** Mounting an existing device rebuilds all
//!   in-DRAM indexes (extent maps, the free-page allocator, directories) by
//!   scanning the inode table and walking each log up to its committed
//!   tail. Entries past the tail — e.g. half-written before a crash — are
//!   ignored, giving atomic operations.
//!
//! In-DRAM state (extent maps, allocator) is a cache of the log; the log on
//! the device is the single source of truth.

mod fs;
mod inode;
mod layout;
mod log;
mod palloc;

pub use fs::{NovaFs, NovaOptions};
pub use layout::PAGE;
