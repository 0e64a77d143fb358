#![warn(missing_docs)]

//! Heterogeneous CPU/GPU cluster performance simulator.
//!
//! The paper evaluates PLB-HeC on a four-machine cluster (Table I) whose
//! nodes mix a multicore CPU with one or two GPU processors per board.
//! This crate substitutes for that hardware: it models each processing
//! unit's kernel execution time as a roofline with an
//! occupancy-dependent efficiency ramp, and data movement as
//! latency + bytes/bandwidth over PCIe and Ethernet links.
//!
//! The load-balancing algorithms under study never see device internals —
//! only `(block size → measured time)` observations — so a simulator that
//! reproduces the *shape* of those observations (Fig. 1 of the paper:
//! sub-linear GPU ramps, near-linear CPU curves, noise) exercises exactly
//! the same algorithm code paths as the real cluster.
//!
//! Everything is deterministic given a seed: experiments are replayed
//! bit-for-bit, and the paper's 10-run mean/σ protocol is reproduced with
//! seeds 0..9.

pub mod calibrate;
pub mod cluster;
pub mod fault;
pub mod noise;
pub mod perf;
pub mod presets;
pub mod specs;
pub mod topology;
pub mod transfer;
pub mod workload;

pub use calibrate::{
    calibrate_device, calibrate_device_raw, CalibrateError, Calibration, RawSample,
};
pub use cluster::{ClusterSim, PuId, PuKind, PuSpec, SimDevice};
pub use fault::{
    Fault, FaultAction, FaultKind, FaultPlan, FaultSpecError, NodeFault, NodeFaultKind,
    NodeFaultPlan,
};

pub use perf::DevicePerf;
pub use presets::{cluster_scenario, machine_a, machine_b, machine_c, machine_d, Scenario};
pub use specs::{CpuSpec, GpuSpec, MachineSpec};
pub use topology::Topology;
pub use transfer::{Link, TransferPath};
pub use workload::CostModel;
