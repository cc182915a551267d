//! Simulated storage devices with deterministic virtual-time accounting.
//!
//! This crate is the hardware substrate for the Mux reproduction. The paper
//! evaluates on Intel Optane PMem 200 (persistent memory), an Optane SSD DC
//! P4800X and a Seagate Exos X18 HDD; none of those are available here, so
//! each is replaced by a [`Device`]: a RAM-backed byte store that charges a
//! deterministic *virtual* service time per operation, computed from a
//! [`DeviceProfile`] (fixed latency, bandwidth, seek model, queue submission
//! cost).
//!
//! Virtual time is accounted on a shared [`VirtualClock`]. Benchmarks derive
//! throughput and latency from virtual nanoseconds, which makes every
//! experiment deterministic and laptop-scale while preserving the *shape* of
//! the paper's results (orderings and ratios between systems).
//!
//! Crash behaviour is modelled too: writes land in a volatile write cache
//! until [`Device::flush`] (or a byte-granular [`Device::flush_range`])
//! persists them, and [`Device::crash`] discards (or tears, under
//! [`FaultMode::TornWrites`]) everything unpersisted, so the file-system
//! crates' recovery paths are exercised against genuinely lost writes.

mod clock;
mod crashplan;
mod device;
mod fault;
mod profile;
mod stats;

pub use clock::VirtualClock;
pub use crashplan::{CrashPlan, TornTail};
pub use device::{DevError, Device, DeviceConfig};
pub use fault::FaultMode;
pub use profile::{cxl_ssd, hdd, nvme_ssd, pmem, DeviceClass, DeviceProfile};
pub use stats::{Counter, DeviceStats, StatsSnapshot};

/// Simulation page size used by the backing store (not an access-granularity
/// constraint; byte-addressable profiles may read or write any range).
pub const SIM_PAGE: usize = 4096;
