//! Data-transfer time models.
//!
//! The paper's `G_p[x] = a₁·x + a₂` transfer model (Equation 2) captures
//! "network and PCIe bandwidths" in the linear coefficient and "network
//! and system latencies" in the constant. We model each hop explicitly —
//! an Ethernet link from the master node to a remote machine, and the
//! PCIe link from host memory to a GPU — and sum them; the result is
//! affine in the byte count, exactly the form the balancer fits.

use serde::{Deserialize, Serialize};

/// One transfer hop: fixed latency plus bytes over bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

impl Link {
    /// The *effective* per-task node-to-node link of a 2015 StarPU-MPI
    /// cluster: raw 10 GbE bandwidth, but ~1 ms of per-task latency —
    /// the MPI request/reply, StarPU-MPI bookkeeping, and TCP stack a
    /// real task dispatch pays. This is what makes fine-grained
    /// self-scheduling across nodes expensive and is the default
    /// inter-node link for cluster simulations.
    pub fn cluster_ethernet() -> Link {
        Link {
            latency_s: 1e-3,
            bandwidth_gbs: 1.1,
        }
    }

    /// PCIe 2.0 x16 with per-task driver costs (cudaMemcpy setup +
    /// kernel-launch driver path of the era): the default host↔GPU link.
    pub(crate) fn pcie_task() -> Link {
        Link {
            latency_s: 100e-6,
            bandwidth_gbs: 6.0,
        }
    }

    /// Time to move `bytes` across this link.
    pub fn time(&self, bytes: f64) -> f64 {
        debug_assert!(bytes >= 0.0);
        self.latency_s + bytes / (self.bandwidth_gbs * 1e9)
    }
}

/// The sequence of hops between the master node's memory and a
/// processing unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferPath {
    hops: Vec<Link>,
}

impl TransferPath {
    /// A path with no hops: data already where it is consumed (the
    /// master's own CPU).
    pub(crate) fn local() -> TransferPath {
        TransferPath { hops: Vec::new() }
    }

    /// Build a path from explicit hops.
    pub fn new(hops: Vec<Link>) -> TransferPath {
        TransferPath { hops }
    }

    /// Path to a CPU on a remote machine: one network hop.
    pub(crate) fn remote_cpu(net: Link) -> TransferPath {
        TransferPath { hops: vec![net] }
    }

    /// Path to a GPU on the master machine: one PCIe hop.
    pub(crate) fn local_gpu(pcie: Link) -> TransferPath {
        TransferPath { hops: vec![pcie] }
    }

    /// Path to a GPU on a remote machine: network then PCIe.
    pub(crate) fn remote_gpu(net: Link, pcie: Link) -> TransferPath {
        TransferPath {
            hops: vec![net, pcie],
        }
    }

    /// Total time to move `bytes` along the path (hops are traversed
    /// serially: store-and-forward through host memory).
    pub fn time(&self, bytes: f64) -> f64 {
        self.hops.iter().map(|l| l.time(bytes)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_time_is_affine() {
        let l = Link {
            latency_s: 1e-3,
            bandwidth_gbs: 1.0,
        };
        assert!((l.time(0.0) - 1e-3).abs() < 1e-15);
        assert!((l.time(1e9) - (1e-3 + 1.0)).abs() < 1e-12);
        // Affine: t(2b) - t(b) == t(3b) - t(2b).
        let d1 = l.time(2e9) - l.time(1e9);
        let d2 = l.time(3e9) - l.time(2e9);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn local_path_is_free() {
        assert_eq!(TransferPath::local().time(1e9), 0.0);
    }

    #[test]
    fn remote_gpu_slower_than_local_gpu() {
        let net = Link::cluster_ethernet();
        let pcie = Link::pcie_task();
        let bytes = 64e6;
        let local = TransferPath::local_gpu(pcie).time(bytes);
        let remote = TransferPath::remote_gpu(net, pcie).time(bytes);
        assert!(remote > local);
        assert!((remote - local - net.time(bytes)).abs() < 1e-12);
    }
}
