//! Per-device operation counters, and the [`counters!`](crate::counters)
//! declaration every counter family in the workspace is built from.

use std::sync::atomic::{AtomicU64, Ordering};

/// One declared counter: a single relaxed atomic, or one per slot
/// (`name[N]` in [`counters!`](crate::counters)).
pub trait Counter {
    /// What a snapshot holds: `u64`, or `[u64; N]`.
    type Value: Copy;
    /// Loads every slot (relaxed).
    fn load(&self) -> Self::Value;
    /// The atomics, one per slot.
    fn cells(&self) -> &[AtomicU64];
    /// A snapshot value's slots, in [`Counter::cells`] order.
    fn slots(value: &Self::Value) -> &[u64];
}

impl Counter for AtomicU64 {
    type Value = u64;
    fn load(&self) -> u64 {
        AtomicU64::load(self, Ordering::Relaxed)
    }
    fn cells(&self) -> &[AtomicU64] {
        std::slice::from_ref(self)
    }
    fn slots(value: &u64) -> &[u64] {
        std::slice::from_ref(value)
    }
}

impl<const N: usize> Counter for [AtomicU64; N] {
    type Value = [u64; N];
    fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self[i].load(Ordering::Relaxed))
    }
    fn cells(&self) -> &[AtomicU64] {
        self
    }
    fn slots(value: &[u64; N]) -> &[u64] {
        value
    }
}

/// `AtomicU64`/`u64` for a plain counter, `[_; N]` for `name[N]`.
#[doc(hidden)]
#[macro_export]
macro_rules! __counter_ty {
    ($t:ty) => {
        $t
    };
    ($t:ty; $n:expr) => {
        [$t; $n]
    };
}

/// Declares a counter family once: each counter is its `///` doc and its
/// name (`name[N]` for one counter per slot). Generates
///
/// - the atomic struct (`#[derive(Debug, Default)]`, one `AtomicU64` or
///   `[AtomicU64; N]` per counter), with `snapshot()` and `cells()`;
/// - its `Copy` snapshot twin with the same field names and docs, holding
///   `u64` / `[u64; N]`, with the name/help table `FIELDS` and `values()`.
///
/// Increments stay plain relaxed `fetch_add`s on the named fields; the
/// table is for readers that walk every counter.
///
/// ```
/// simdev::counters! {
///     /// Wire counters.
///     pub struct Wire;
///     /// A copy of [`Wire`].
///     pub struct WireSnapshot {
///         /// Messages sent.
///         messages,
///         /// Bytes sent per lane.
///         lane_bytes[2],
///     }
/// }
/// let w = Wire::default();
/// w.lane_bytes[1].fetch_add(64, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(w.snapshot().lane_bytes, [0, 64]);
/// assert_eq!(WireSnapshot::FIELDS[0].0, "messages");
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$atomic_meta:meta])*
        $atomic_vis:vis struct $atomic:ident;
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident {
            $(
                $(#[doc = $doc:literal])+
                $field:ident $([$n:expr])?
            ),+ $(,)?
        }
    ) => {
        $(#[$atomic_meta])*
        #[derive(Debug, Default)]
        $atomic_vis struct $atomic {
            $(
                $(#[doc = $doc])+
                pub $field: $crate::__counter_ty!(::std::sync::atomic::AtomicU64 $(; $n)?),
            )+
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $(
                $(#[doc = $doc])+
                pub $field: $crate::__counter_ty!(u64 $(; $n)?),
            )+
        }

        impl $atomic {
            /// Takes a point-in-time copy of every counter (relaxed loads).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: $crate::Counter::load(&self.$field),)+
                }
            }

            /// Every counter's atomics by name, in declaration order: one
            /// cell, or one per slot.
            pub fn cells(
                &self,
            ) -> impl Iterator<Item = (&'static str, &[::std::sync::atomic::AtomicU64])> {
                [$((stringify!($field), $crate::Counter::cells(&self.$field)),)+].into_iter()
            }
        }

        impl $snap {
            /// Every counter's name and doc comment (lines joined), in
            /// declaration order.
            pub const FIELDS: &'static [(&'static str, &'static str)] =
                &[$((stringify!($field), concat!($($doc),+)),)+];

            /// Every counter's value by name, in [`Self::FIELDS`] order:
            /// one value, or one per slot.
            pub fn values(&self) -> impl Iterator<Item = (&'static str, &[u64])> {
                [$((
                    stringify!($field),
                    <$crate::__counter_ty!(::std::sync::atomic::AtomicU64 $(; $n)?)
                        as $crate::Counter>::slots(&self.$field),
                ),)+]
                .into_iter()
            }
        }
    };
}

counters! {
    /// Cumulative statistics for one device.
    ///
    /// All fields are atomics so devices can be shared across threads; readers
    /// take a consistent-enough snapshot via [`DeviceStats::snapshot`].
    pub struct DeviceStats;
    /// A plain-old-data copy of [`DeviceStats`] at one instant.
    pub struct StatsSnapshot {
        /// Number of read operations.
        reads,
        /// Number of write operations.
        writes,
        /// Number of flush (persistence barrier) operations.
        flushes,
        /// Total bytes read.
        bytes_read,
        /// Total bytes written.
        bytes_written,
        /// Seeks charged by the HDD model.
        seeks,
        /// Silent corruptions injected by the fault layer: bits rotted, writes
        /// lost, writes misdirected. The caller saw no error for any of these —
        /// this counter is the ground truth integrity checkers are measured
        /// against.
        corruptions,
        /// Total virtual nanoseconds this device was busy.
        busy_ns,
        /// Busy nanoseconds attributable to reads (service-time attribution;
        /// `read_busy_ns + write_busy_ns + flush_busy_ns == busy_ns`).
        read_busy_ns,
        /// Busy nanoseconds attributable to writes.
        write_busy_ns,
        /// Busy nanoseconds attributable to flushes.
        flush_busy_ns,
    }
}

impl DeviceStats {
    /// Records a read of `bytes` taking `ns` of device time.
    pub fn on_read(&self, bytes: u64, ns: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.read_busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records a write of `bytes` taking `ns` of device time.
    pub fn on_write(&self, bytes: u64, ns: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.write_busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records a flush taking `ns`.
    pub fn on_flush(&self, ns: u64) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.flush_busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one seek.
    pub fn on_seek(&self) {
        self.seeks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one silently injected corruption (rot / lost / misdirect).
    pub fn on_corruption(&self) {
        self.corruptions.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DeviceStats::default();
        s.on_read(100, 10);
        s.on_read(50, 5);
        s.on_write(200, 20);
        s.on_flush(3);
        s.on_seek();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.bytes_read, 150);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.bytes_written, 200);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.seeks, 1);
        assert_eq!(snap.busy_ns, 38);
        assert_eq!(snap.read_busy_ns, 15);
        assert_eq!(snap.write_busy_ns, 20);
        assert_eq!(snap.flush_busy_ns, 3);
        assert_eq!(
            snap.read_busy_ns + snap.write_busy_ns + snap.flush_busy_ns,
            snap.busy_ns,
            "per-op attribution partitions total busy time"
        );
    }

    #[test]
    fn every_device_counter_reaches_its_snapshot() {
        let s = DeviceStats::default();
        let mut next = 0;
        for c in s.cells().flat_map(|(_, cells)| cells) {
            next += 1;
            c.fetch_add(next, Ordering::Relaxed);
        }
        let snap = s.snapshot();
        let got: Vec<u64> = snap.values().flat_map(|(_, v)| v.to_vec()).collect();
        assert_eq!(got, (1..=next).collect::<Vec<_>>());
        assert_eq!(next as usize, StatsSnapshot::FIELDS.len());
    }
}
