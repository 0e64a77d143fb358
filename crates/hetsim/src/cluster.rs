//! Cluster assembly: machines → processing units with performance models,
//! transfer paths, noise streams, and runtime perturbations (QoS drift,
//! device loss) for the fault-tolerance extension.

use crate::noise::NoiseGen;
use crate::perf::DevicePerf;
use crate::specs::MachineSpec;
use crate::transfer::{Link, TransferPath};
use crate::workload::CostModel;

/// Index of a processing unit within a [`ClusterSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PuId(pub usize);

impl std::fmt::Display for PuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PU{}", self.0)
    }
}

/// Processing-unit kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PuKind {
    /// A whole multicore CPU (the paper treats each node's CPU as one
    /// unit running one thread per virtual core).
    Cpu,
    /// One GPU processor.
    Gpu,
}

/// Static description of one processing unit.
#[derive(Debug, Clone)]
pub struct PuSpec {
    /// Display name, e.g. `"A/cpu"` or `"B/gpu0"`.
    pub name: String,
    /// CPU or GPU.
    pub kind: PuKind,
    /// Index of the machine the unit lives on.
    pub machine: usize,
    /// Machine label from the spec ("A".."D").
    pub machine_name: String,
    /// Performance model.
    pub perf: DevicePerf,
    /// Transfer path from the master node's memory.
    pub path: TransferPath,
    /// Device memory capacity in bytes (`f64::INFINITY` for CPUs, whose
    /// working set lives in host RAM).
    pub mem_bytes: f64,
    /// Link over which an oversized broadcast working set is re-streamed
    /// per task (PCIe for GPUs; `None` for CPUs).
    pub stream_link: Option<Link>,
}

/// A live simulated device: spec + noise stream + runtime perturbations.
#[derive(Debug, Clone)]
pub struct SimDevice {
    /// Static description.
    pub spec: PuSpec,
    noise: NoiseGen,
    /// Runtime slowdown factor (1.0 = nominal). Raised by the QoS-drift
    /// extension to emulate a contended cloud node.
    slowdown: f64,
    /// False once the device has "failed" (fault-tolerance extension).
    available: bool,
}

impl SimDevice {
    /// Wrap a spec with a seeded noise stream.
    pub fn new(spec: PuSpec, seed: u64, device_id: u64, noise_sigma: f64) -> SimDevice {
        SimDevice {
            spec,
            noise: NoiseGen::new(seed, device_id, noise_sigma),
            slowdown: 1.0,
            available: true,
        }
    }

    /// Measure (simulate) the kernel execution time for a block.
    /// Each call draws fresh noise, like a real timing measurement.
    pub fn proc_time(&mut self, cost: &dyn CostModel, items: u64) -> f64 {
        self.proc_time_at(cost, 0, items)
    }

    /// Kernel time for the block `offset..offset+items` — the
    /// range-aware entry irregular workloads need (a skewed SpMV block's
    /// time depends on which rows it covers). Count-based models ignore
    /// the offset, so for them this is identical to
    /// [`SimDevice::proc_time`].
    pub fn proc_time_at(&mut self, cost: &dyn CostModel, offset: u64, items: u64) -> f64 {
        let t = self.spec.perf.kernel_time(
            cost.flops_range(offset, items),
            cost.bytes_touched_range(offset, items),
            cost.threads_range(offset, items),
        );
        t * self.slowdown * self.noise.factor()
    }

    /// Measure the transfer time for a block (input down, results back,
    /// plus per-task re-streaming of any broadcast working set that does
    /// not fit in device memory).
    pub fn transfer_time(&mut self, cost: &dyn CostModel, items: u64) -> f64 {
        self.transfer_time_at(cost, 0, items)
    }

    /// Transfer time for the block `offset..offset+items` (range-aware
    /// twin of [`SimDevice::transfer_time`], same noise and overflow
    /// semantics).
    pub fn transfer_time_at(&mut self, cost: &dyn CostModel, offset: u64, items: u64) -> f64 {
        let bytes = cost.bytes_in_range(offset, items) + cost.bytes_out_range(offset, items);
        let t = self.spec.path.time(bytes) + self.stream_overflow_time(cost);
        if t == 0.0 {
            0.0
        } else {
            t * self.noise.factor()
        }
    }

    /// Per-task cost of re-streaming the broadcast set's overflow: the
    /// portion of `broadcast_bytes` beyond ~80 % of device memory (the
    /// rest is assumed cached across tasks) crosses the stream link on
    /// every task.
    pub fn stream_overflow_time(&self, cost: &dyn CostModel) -> f64 {
        let link = match self.spec.stream_link {
            Some(l) => l,
            None => return 0.0,
        };
        let ws = cost.broadcast_bytes();
        let overflow = ws - 0.8 * self.spec.mem_bytes;
        if overflow <= 0.0 {
            return 0.0;
        }
        overflow / (link.bandwidth_gbs * 1e9)
    }

    /// Set the slowdown factor (QoS drift; must be > 0).
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slowdown must be positive"
        );
        self.slowdown = factor;
    }

    /// Is the device still usable?
    pub fn is_available(&self) -> bool {
        self.available
    }

    /// Mark the device failed (it stops accepting work).
    pub fn fail(&mut self) {
        self.available = false;
    }

    /// Restore a failed device.
    pub fn restore(&mut self) {
        self.available = true;
    }
}

/// Options controlling cluster construction.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// RNG seed for all noise streams.
    pub seed: u64,
    /// Lognormal sigma of timing noise (0 disables noise).
    pub noise_sigma: f64,
    /// Inter-node network link.
    pub network: Link,
    /// Host↔GPU link.
    pub pcie: Link,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            seed: 0,
            noise_sigma: 0.03,
            network: Link::cluster_ethernet(),
            pcie: Link::pcie_task(),
        }
    }
}

/// A simulated cluster: the ordered set of processing units built from a
/// machine list. Machine 0 is the master node (where input data lives).
///
/// ```
/// use plb_hetsim::cluster::ClusterOptions;
/// use plb_hetsim::workload::LinearCost;
/// use plb_hetsim::{cluster_scenario, ClusterSim, PuId, Scenario};
///
/// // The paper's machine A: one Xeon CPU and one Tesla K20c.
/// let machines = cluster_scenario(Scenario::One, false);
/// let mut cluster = ClusterSim::build(&machines, &ClusterOptions::default());
/// assert_eq!(cluster.len(), 2);
///
/// // "Measure" a 10k-item block on each unit.
/// let cost = LinearCost::generic();
/// let t_cpu = cluster.device_mut(PuId(0)).proc_time(&cost, 10_000);
/// let t_gpu = cluster.device_mut(PuId(1)).proc_time(&cost, 10_000);
/// assert!(t_cpu > 0.0 && t_gpu > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSim {
    devices: Vec<SimDevice>,
}

impl ClusterSim {
    /// Build the cluster. Each machine contributes its CPU first, then
    /// its GPU processors, preserving machine order.
    pub fn build(machines: &[MachineSpec], opts: &ClusterOptions) -> ClusterSim {
        assert!(!machines.is_empty(), "cluster needs at least one machine");
        let mut devices = Vec::new();
        for (mi, m) in machines.iter().enumerate() {
            let cpu_path = if mi == 0 {
                TransferPath::local()
            } else {
                TransferPath::remote_cpu(opts.network)
            };
            let id = devices.len() as u64;
            devices.push(SimDevice::new(
                PuSpec {
                    name: format!("{}/cpu", m.name),
                    kind: PuKind::Cpu,
                    machine: mi,
                    machine_name: m.name.clone(),
                    perf: DevicePerf::for_cpu(&m.cpu),
                    path: cpu_path,
                    mem_bytes: f64::INFINITY,
                    stream_link: None,
                },
                opts.seed,
                id,
                opts.noise_sigma,
            ));
            for (gi, g) in m.gpus.iter().enumerate() {
                let gpu_path = if mi == 0 {
                    TransferPath::local_gpu(opts.pcie)
                } else {
                    TransferPath::remote_gpu(opts.network, opts.pcie)
                };
                let id = devices.len() as u64;
                devices.push(SimDevice::new(
                    PuSpec {
                        name: format!("{}/gpu{}", m.name, gi),
                        kind: PuKind::Gpu,
                        machine: mi,
                        machine_name: m.name.clone(),
                        perf: DevicePerf::for_gpu(g),
                        path: gpu_path,
                        mem_bytes: g.mem_gb * 1e9,
                        stream_link: Some(opts.pcie),
                    },
                    opts.seed,
                    id,
                    opts.noise_sigma,
                ));
            }
        }
        ClusterSim { devices }
    }

    /// Number of processing units.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the cluster has no devices (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// All unit ids in order.
    pub fn ids(&self) -> impl Iterator<Item = PuId> + '_ {
        (0..self.devices.len()).map(PuId)
    }

    /// Borrow a device.
    pub fn device(&self, id: PuId) -> &SimDevice {
        &self.devices[id.0]
    }

    /// Mutably borrow a device.
    pub fn device_mut(&mut self, id: PuId) -> &mut SimDevice {
        &mut self.devices[id.0]
    }

    /// All devices, immutably.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{cluster_scenario, Scenario};
    use crate::workload::LinearCost;

    fn cluster(scenario: Scenario, single_gpu: bool) -> ClusterSim {
        let machines = cluster_scenario(scenario, single_gpu);
        ClusterSim::build(&machines, &ClusterOptions::default())
    }

    #[test]
    fn four_machine_full_cluster_pu_count() {
        // A: cpu+1gpu, B: cpu+2gpu, C: cpu+2gpu, D: cpu+1gpu = 10 PUs.
        let c = cluster(Scenario::Four, false);
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn single_gpu_mode_is_8_pus() {
        let c = cluster(Scenario::Four, true);
        assert_eq!(c.len(), 8);
        let gpus = c
            .devices()
            .iter()
            .filter(|d| d.spec.kind == PuKind::Gpu)
            .count();
        assert_eq!(gpus, 4);
    }

    #[test]
    fn master_cpu_has_free_transfers() {
        let mut c = cluster(Scenario::Two, false);
        let cost = LinearCost::generic();
        assert_eq!(c.device_mut(PuId(0)).transfer_time(&cost, 1000), 0.0);
        // Remote machine's CPU pays network time.
        let remote_cpu = c
            .devices()
            .iter()
            .position(|d| d.spec.machine == 1 && d.spec.kind == PuKind::Cpu)
            .unwrap();
        assert!(c.device_mut(PuId(remote_cpu)).transfer_time(&cost, 1000) > 0.0);
    }

    #[test]
    fn remote_gpu_has_two_hops() {
        let c = cluster(Scenario::Two, false);
        let remote_gpu = c
            .devices()
            .iter()
            .find(|d| d.spec.machine == 1 && d.spec.kind == PuKind::Gpu)
            .unwrap();
        let opts = ClusterOptions::default();
        assert_eq!(
            remote_gpu.spec.path,
            TransferPath::remote_gpu(opts.network, opts.pcie)
        );
        let local_gpu = c
            .devices()
            .iter()
            .find(|d| d.spec.machine == 0 && d.spec.kind == PuKind::Gpu)
            .unwrap();
        assert_eq!(local_gpu.spec.path, TransferPath::local_gpu(opts.pcie));
    }

    #[test]
    fn proc_time_deterministic_per_seed() {
        let cost = LinearCost::generic();
        let mut a = cluster(Scenario::One, false);
        let mut b = cluster(Scenario::One, false);
        for _ in 0..5 {
            assert_eq!(
                a.device_mut(PuId(0)).proc_time(&cost, 10_000),
                b.device_mut(PuId(0)).proc_time(&cost, 10_000)
            );
        }
    }

    #[test]
    fn slowdown_scales_time() {
        let machines = cluster_scenario(Scenario::One, false);
        let opts = ClusterOptions {
            noise_sigma: 0.0,
            ..Default::default()
        };
        let mut c = ClusterSim::build(&machines, &opts);
        let cost = LinearCost::generic();
        let t1 = c.device_mut(PuId(0)).proc_time(&cost, 100_000);
        c.device_mut(PuId(0)).set_slowdown(3.0);
        let t3 = c.device_mut(PuId(0)).proc_time(&cost, 100_000);
        assert!((t3 / t1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn failed_device_excluded_from_available() {
        let mut c = cluster(Scenario::Two, false);
        let n = c.len();
        let available = |c: &ClusterSim| c.devices().iter().filter(|d| d.is_available()).count();
        assert_eq!(available(&c), n);
        c.device_mut(PuId(1)).fail();
        assert_eq!(available(&c), n - 1);
        assert!(!c.device(PuId(1)).is_available());
        c.device_mut(PuId(1)).restore();
        assert_eq!(available(&c), n);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_cluster_panics() {
        ClusterSim::build(&[], &ClusterOptions::default());
    }

    #[test]
    fn device_names_follow_machine_labels() {
        let c = cluster(Scenario::Four, true);
        let names: Vec<&str> = c.devices().iter().map(|d| d.spec.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["A/cpu", "A/gpu0", "B/cpu", "B/gpu0", "C/cpu", "C/gpu0", "D/cpu", "D/gpu0"]
        );
    }
}
