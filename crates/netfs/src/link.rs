//! The simulated network link.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use simdev::VirtualClock;
use tvfs::{VfsError, VfsResult};

/// Performance model of a link: one message of `n` bytes costs
/// `one_way_ns + n * 1e9 / bandwidth_bps`; a request/response pair charges
/// both directions.
#[derive(Debug, Clone)]
pub struct LinkProfile {
    /// One-way propagation + stack latency.
    pub one_way_ns: u64,
    /// Link bandwidth in bytes/second.
    pub bandwidth_bps: u64,
}

impl LinkProfile {
    /// A 25 GbE-ish datacenter link: ~10 µs one-way, ~3 GB/s.
    pub fn datacenter() -> Self {
        LinkProfile {
            one_way_ns: 10_000,
            bandwidth_bps: 3_000_000_000,
        }
    }

    /// A WAN-ish link: 2 ms one-way, 100 MB/s.
    pub fn wan() -> Self {
        LinkProfile {
            one_way_ns: 2_000_000,
            bandwidth_bps: 100_000_000,
        }
    }

    /// Service time of one message of `bytes`.
    pub fn message_ns(&self, bytes: u64) -> u64 {
        self.one_way_ns + self.serialization_ns(bytes)
    }

    /// Time the wire itself is occupied by `bytes` (bandwidth term only —
    /// propagation latency does not consume link capacity).
    pub fn serialization_ns(&self, bytes: u64) -> u64 {
        bytes.saturating_mul(1_000_000_000) / self.bandwidth_bps.max(1)
    }
}

/// Direction of one message on a bidirectional link, seen from the
/// initiator: requests flow out, responses flow back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Initiator → responder.
    Request,
    /// Responder → initiator.
    Response,
}

simdev::counters! {
    /// The atomics behind [`LinkStats`].
    struct LinkCounters;
    /// Counters for one [`SimLink`], split by direction, plus the traffic a
    /// partition dropped on the floor.
    pub struct LinkStats {
        /// Messages sent initiator → responder.
        req_messages,
        /// Bytes sent initiator → responder.
        req_bytes,
        /// Messages sent responder → initiator.
        resp_messages,
        /// Bytes sent responder → initiator.
        resp_bytes,
        /// Messages refused because the link was partitioned.
        dropped_messages,
        /// Bytes refused because the link was partitioned.
        dropped_bytes,
    }
}

impl LinkStats {
    /// Total messages delivered in both directions.
    pub fn messages(&self) -> u64 {
        self.req_messages + self.resp_messages
    }

    /// Total bytes delivered in both directions.
    pub fn bytes(&self) -> u64 {
        self.req_bytes + self.resp_bytes
    }
}

/// A bidirectional simulated link charging a [`VirtualClock`].
#[derive(Clone)]
pub struct SimLink {
    shared: Arc<Shared>,
}

struct Shared {
    profile: LinkProfile,
    clock: VirtualClock,
    partitioned: AtomicBool,
    counters: LinkCounters,
}

impl SimLink {
    /// A healthy link with `profile`, charging `clock`.
    pub fn new(profile: LinkProfile, clock: VirtualClock) -> Self {
        SimLink {
            shared: Arc::new(Shared {
                profile,
                clock,
                partitioned: AtomicBool::new(false),
                counters: LinkCounters::default(),
            }),
        }
    }

    /// Simulates a network partition: transfers fail until healed.
    pub fn set_partitioned(&self, p: bool) {
        self.shared.partitioned.store(p, Ordering::Release);
    }

    /// Whether the link is currently partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.shared.partitioned.load(Ordering::Acquire)
    }

    /// The link's performance model.
    pub fn profile(&self) -> &LinkProfile {
        &self.shared.profile
    }

    /// Per-direction message/byte counters plus partition drops.
    pub fn stats(&self) -> LinkStats {
        self.shared.counters.snapshot()
    }

    /// Charges one message of `bytes` in direction `dir`.
    pub fn transfer(&self, dir: LinkDir, bytes: u64) -> VfsResult<()> {
        let s = &self.shared;
        let c = &s.counters;
        if s.partitioned.load(Ordering::Acquire) {
            c.dropped_messages.fetch_add(1, Ordering::Relaxed);
            c.dropped_bytes.fetch_add(bytes, Ordering::Relaxed);
            return Err(VfsError::Io("network partition".into()));
        }
        s.clock.advance(s.profile.message_ns(bytes));
        match dir {
            LinkDir::Request => {
                c.req_messages.fetch_add(1, Ordering::Relaxed);
                c.req_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            LinkDir::Response => {
                c.resp_messages.fetch_add(1, Ordering::Relaxed);
                c.resp_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_has_latency_and_bandwidth_terms() {
        let p = LinkProfile {
            one_way_ns: 1000,
            bandwidth_bps: 1_000_000_000,
        };
        assert_eq!(p.message_ns(0), 1000);
        assert_eq!(p.message_ns(1_000_000), 1000 + 1_000_000);
        assert_eq!(p.serialization_ns(1_000_000), 1_000_000);
    }

    #[test]
    fn transfer_charges_clock_and_counts_per_direction() {
        let clock = VirtualClock::new();
        let l = SimLink::new(
            LinkProfile {
                one_way_ns: 500,
                bandwidth_bps: 1_000_000_000,
            },
            clock.clone(),
        );
        l.transfer(LinkDir::Request, 1000).unwrap();
        assert_eq!(clock.now_ns(), 500 + 1000);
        l.transfer(LinkDir::Response, 200).unwrap();
        let st = l.stats();
        assert_eq!((st.req_messages, st.req_bytes), (1, 1000));
        assert_eq!((st.resp_messages, st.resp_bytes), (1, 200));
        assert_eq!(st.messages(), 2);
        assert_eq!(st.bytes(), 1200);
        assert_eq!(st.dropped_messages, 0);
    }

    #[test]
    fn partition_blocks_traffic_and_counts_drops() {
        let l = SimLink::new(LinkProfile::datacenter(), VirtualClock::new());
        assert!(!l.is_partitioned());
        l.set_partitioned(true);
        assert!(l.is_partitioned());
        assert!(l.transfer(LinkDir::Request, 64).is_err());
        assert!(l.transfer(LinkDir::Response, 36).is_err());
        let st = l.stats();
        assert_eq!(st.dropped_messages, 2);
        assert_eq!(st.dropped_bytes, 100);
        assert_eq!(st.messages(), 0);
        l.set_partitioned(false);
        assert!(l.transfer(LinkDir::Request, 1).is_ok());
    }

    #[test]
    fn partition_then_heal_resumes_delivery_with_history_intact() {
        // The satellite-3 transition test: traffic → partition (drops
        // accumulate, clock frozen) → heal (delivery resumes, drop
        // counters keep their history).
        let clock = VirtualClock::new();
        let l = SimLink::new(LinkProfile::datacenter(), clock.clone());
        l.transfer(LinkDir::Request, 4096).unwrap();
        let healthy_ns = clock.now_ns();
        let before = l.stats();
        assert_eq!(before.req_messages, 1);

        l.set_partitioned(true);
        for _ in 0..5 {
            assert!(l.transfer(LinkDir::Request, 4096).is_err());
        }
        // A partitioned link never advances virtual time.
        assert_eq!(clock.now_ns(), healthy_ns);
        assert_eq!(l.stats().dropped_messages, 5);
        assert_eq!(l.stats().dropped_bytes, 5 * 4096);

        l.set_partitioned(false);
        l.transfer(LinkDir::Response, 128).unwrap();
        let after = l.stats();
        assert_eq!(after.req_messages, 1);
        assert_eq!(after.resp_messages, 1);
        assert_eq!(after.dropped_messages, 5, "heal must not clear history");
        assert!(clock.now_ns() > healthy_ns);
    }

    #[test]
    fn every_link_counter_reaches_its_snapshot() {
        let l = SimLink::new(LinkProfile::datacenter(), VirtualClock::new());
        let mut next = 0;
        for c in l.shared.counters.cells().flat_map(|(_, cells)| cells) {
            next += 1;
            c.fetch_add(next, Ordering::Relaxed);
        }
        let got: Vec<u64> = l.stats().values().flat_map(|(_, v)| v.to_vec()).collect();
        assert_eq!(got, (1..=next).collect::<Vec<_>>());
        assert_eq!(next as usize, LinkStats::FIELDS.len());
    }

    #[test]
    fn wan_slower_than_datacenter() {
        assert!(LinkProfile::wan().message_ns(4096) > LinkProfile::datacenter().message_ns(4096));
    }
}
