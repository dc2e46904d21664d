//! Link parameters: the classic α-β (latency-bandwidth) model.

use serde::{Deserialize, Serialize};
use simtime::SimTime;

/// Parameters of every link in the (flat, full-bisection) network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkParams {
    /// Per-message latency (α), seconds.
    pub latency: SimTime,
    /// Per-link bandwidth (β), bytes/s.
    pub bandwidth: f64,
}

impl NetworkParams {
    /// A message of `bytes` takes `α + bytes/β` end to end.
    pub fn message_time(&self, bytes: u64) -> SimTime {
        self.latency + SimTime::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// The serialization (egress-occupancy) part only: `bytes/β`.
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Gigabit Ethernet: 50 µs, 125 MB/s.
    pub fn gigabit_ethernet() -> Self {
        NetworkParams {
            latency: SimTime::from_micros(50.0),
            bandwidth: 125e6,
        }
    }

    /// QDR InfiniBand (the FutureGrid Delta fabric): 2 µs, 4 GB/s.
    pub fn infiniband_qdr() -> Self {
        NetworkParams {
            latency: SimTime::from_micros(2.0),
            bandwidth: 4e9,
        }
    }

    /// An idealized zero-cost network, for isolating compute effects.
    pub fn ideal() -> Self {
        NetworkParams {
            latency: SimTime::ZERO,
            bandwidth: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_time_is_alpha_plus_beta() {
        let p = NetworkParams {
            latency: SimTime::from_secs(1),
            bandwidth: 100.0,
        };
        assert_eq!(p.message_time(200).as_secs_f64(), 3.0);
        assert_eq!(p.wire_time(200).as_secs_f64(), 2.0);
    }

    #[test]
    fn ideal_network_is_free() {
        let p = NetworkParams::ideal();
        assert_eq!(p.message_time(1 << 40), SimTime::ZERO);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let eth = NetworkParams::gigabit_ethernet();
        let ib = NetworkParams::infiniband_qdr();
        assert!(ib.latency < eth.latency);
        assert!(ib.bandwidth > eth.bandwidth);
    }
}
