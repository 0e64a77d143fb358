//! Hardware specification records mirroring the paper's Table I.

use serde::{Deserialize, Serialize};

/// A multicore CPU specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"Intel Xeon E5-2690V2"`.
    pub name: String,
    /// Physical core count.
    pub cores: u32,
    /// Base clock in GHz.
    pub clock_ghz: f64,
    /// Last-level cache in MB.
    pub cache_mb: f64,
    /// Installed RAM in GB.
    pub ram_gb: f64,
    /// SIMD lanes per core for f32 (AVX = 8).
    pub simd_width: u32,
    /// Whether the paper's setup ran one thread per *virtual* core.
    pub hyperthreading: bool,
}

/// A GPU processor specification. Boards with two GPU processors (GTX
/// 295, GTX 680 in the paper's Table I) are represented as two `GpuSpec`
/// entries on the machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"Tesla K20c"`.
    pub name: String,
    /// CUDA core count of this GPU processor.
    pub cuda_cores: u32,
    /// Stream multiprocessor count (the paper launches `k` blocks for
    /// `k` SMs).
    pub sms: u32,
    /// Shader clock in GHz.
    pub clock_ghz: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Device memory in GB.
    pub mem_gb: f64,
}

/// One cluster node: a CPU plus zero or more GPU processors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Machine label, `"A"`..`"D"` for the paper's nodes.
    pub name: String,
    /// The node's CPU.
    pub cpu: CpuSpec,
    /// GPU processors installed in the node.
    pub gpus: Vec<GpuSpec>,
}

impl MachineSpec {
    /// Keep only the first GPU processor (the Fig. 6 / Fig. 7 setup uses
    /// "machines A, B, C and D with one GPU per machine").
    pub(crate) fn with_single_gpu(mut self) -> MachineSpec {
        self.gpus.truncate(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuSpec {
        CpuSpec {
            name: "test cpu".into(),
            cores: 4,
            clock_ghz: 3.0,
            cache_mb: 8.0,
            ram_gb: 16.0,
            simd_width: 8,
            hyperthreading: true,
        }
    }

    fn gpu(n: &str) -> GpuSpec {
        GpuSpec {
            name: n.into(),
            cuda_cores: 1024,
            sms: 8,
            clock_ghz: 1.0,
            mem_bandwidth_gbs: 200.0,
            mem_gb: 4.0,
        }
    }

    #[test]
    fn single_gpu_truncates() {
        let m = MachineSpec {
            name: "X".into(),
            cpu: cpu(),
            gpus: vec![gpu("a"), gpu("b")],
        };
        let s = m.with_single_gpu();
        assert_eq!(s.gpus.len(), 1);
        assert_eq!(s.gpus[0].name, "a");
    }

    #[test]
    fn serde_roundtrip() {
        let m = MachineSpec {
            name: "X".into(),
            cpu: cpu(),
            gpus: vec![gpu("a")],
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
