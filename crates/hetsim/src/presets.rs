//! The paper's Table I machine configurations and the four evaluation
//! scenarios (1–4 machines).

use crate::specs::{CpuSpec, GpuSpec, MachineSpec};

/// Machine A: Intel Xeon E5-2690V2 (10 cores @ 3.0 GHz, 25 MB cache,
/// 256 GB RAM) + Tesla K20c (2496 cores / 13 SMs, 205 GB/s, 6 GB).
pub fn machine_a() -> MachineSpec {
    MachineSpec {
        name: "A".into(),
        cpu: CpuSpec {
            name: "Intel Xeon E5-2690V2".into(),
            cores: 10,
            clock_ghz: 3.0,
            cache_mb: 25.0,
            ram_gb: 256.0,
            simd_width: 8,
            hyperthreading: true,
        },
        gpus: vec![GpuSpec {
            name: "Tesla K20c".into(),
            cuda_cores: 2496,
            sms: 13,
            clock_ghz: 0.706,
            mem_bandwidth_gbs: 205.0,
            mem_gb: 6.0,
        }],
    }
}

/// Machine B: Intel i7 920 (4 cores @ 2.67 GHz, 8 MB cache, 8 GB RAM) +
/// GTX 295 (2 × 240 cores / 30 SMs total, 223.8 GB/s, 896 MB). The board
/// carries two GPU processors; each is one processing unit.
pub fn machine_b() -> MachineSpec {
    MachineSpec {
        name: "B".into(),
        cpu: CpuSpec {
            name: "Intel i7 920".into(),
            cores: 4,
            clock_ghz: 2.67,
            cache_mb: 8.0,
            ram_gb: 8.0,
            simd_width: 4,
            hyperthreading: true,
        },
        gpus: vec![gtx295_half(), gtx295_half()],
    }
}

fn gtx295_half() -> GpuSpec {
    GpuSpec {
        name: "GTX 295 (one GPU)".into(),
        cuda_cores: 240,
        sms: 15, // 30 SMs across the two processors
        clock_ghz: 1.242,
        mem_bandwidth_gbs: 111.9, // half of the board's 223.8 GB/s
        mem_gb: 0.875 / 2.0,
    }
}

/// Machine C: Intel i7 4930K (6 cores @ 3.4 GHz, 12 MB cache, 32 GB RAM)
/// + GTX 680 (2 × 1536 cores / 8 SMs each per Table I, 192.2 GB/s, 2 GB).
pub fn machine_c() -> MachineSpec {
    MachineSpec {
        name: "C".into(),
        cpu: CpuSpec {
            name: "Intel i7 4930K".into(),
            cores: 6,
            clock_ghz: 3.4,
            cache_mb: 12.0,
            ram_gb: 32.0,
            simd_width: 8,
            hyperthreading: true,
        },
        gpus: vec![gtx680_half(), gtx680_half()],
    }
}

fn gtx680_half() -> GpuSpec {
    GpuSpec {
        name: "GTX 680 (one GPU)".into(),
        cuda_cores: 1536,
        sms: 8,
        clock_ghz: 1.006,
        mem_bandwidth_gbs: 96.1,
        mem_gb: 1.0,
    }
}

/// Machine D: Intel i7 3930K (6 cores @ 3.2 GHz, 12 MB cache, 32 GB RAM)
/// + GTX Titan (2688 cores / 14 SMs, 223.8 GB/s, 6 GB).
pub fn machine_d() -> MachineSpec {
    MachineSpec {
        name: "D".into(),
        cpu: CpuSpec {
            name: "Intel i7 3930K".into(),
            cores: 6,
            clock_ghz: 3.2,
            cache_mb: 12.0,
            ram_gb: 32.0,
            simd_width: 8,
            hyperthreading: true,
        },
        gpus: vec![GpuSpec {
            name: "GTX Titan".into(),
            cuda_cores: 2688,
            sms: 14,
            clock_ghz: 0.837,
            mem_bandwidth_gbs: 223.8,
            mem_gb: 6.0,
        }],
    }
}

/// The paper's four evaluation scenarios: {A}, {A,B}, {A,B,C}, {A,B,C,D}.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Machine A only.
    One,
    /// Machines A and B.
    Two,
    /// Machines A, B and C.
    Three,
    /// All four machines.
    Four,
}

impl Scenario {
    /// All scenarios in evaluation order.
    pub const ALL: [Scenario; 4] = [
        Scenario::One,
        Scenario::Two,
        Scenario::Three,
        Scenario::Four,
    ];

    /// Number of machines.
    pub fn machines(self) -> usize {
        match self {
            Scenario::One => 1,
            Scenario::Two => 2,
            Scenario::Three => 3,
            Scenario::Four => 4,
        }
    }
}

/// Build the machine list for a scenario. With `single_gpu` set, boards
/// with two GPU processors contribute only one (the Fig. 6/7 setup).
pub fn cluster_scenario(s: Scenario, single_gpu: bool) -> Vec<MachineSpec> {
    let all = [machine_a(), machine_b(), machine_c(), machine_d()];
    all[..s.machines()]
        .iter()
        .cloned()
        .map(|m| if single_gpu { m.with_single_gpu() } else { m })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_machine_names() {
        assert_eq!(machine_a().name, "A");
        assert_eq!(machine_b().name, "B");
        assert_eq!(machine_c().name, "C");
        assert_eq!(machine_d().name, "D");
    }

    #[test]
    fn table1_cpu_core_counts() {
        assert_eq!(machine_a().cpu.cores, 10);
        assert_eq!(machine_b().cpu.cores, 4);
        assert_eq!(machine_c().cpu.cores, 6);
        assert_eq!(machine_d().cpu.cores, 6);
    }

    #[test]
    fn dual_gpu_boards_are_two_processing_units() {
        assert_eq!(machine_b().gpus.len(), 2);
        assert_eq!(machine_c().gpus.len(), 2);
        assert_eq!(machine_a().gpus.len(), 1);
        assert_eq!(machine_d().gpus.len(), 1);
    }

    #[test]
    fn gtx295_total_cores_match_table() {
        let total: u32 = machine_b().gpus.iter().map(|g| g.cuda_cores).sum();
        assert_eq!(total, 480); // 2 x 240
    }

    #[test]
    fn scenario_sizes() {
        for s in Scenario::ALL {
            assert_eq!(cluster_scenario(s, false).len(), s.machines());
        }
        assert_eq!(cluster_scenario(Scenario::Four, false)[3].name, "D");
    }

    #[test]
    fn single_gpu_mode_has_8_pus_on_4_machines() {
        let ms = cluster_scenario(Scenario::Four, true);
        let pus: usize = ms.iter().map(|m| 1 + m.gpus.len()).sum();
        assert_eq!(pus, 8); // 4 CPUs + 4 GPUs
    }

    #[test]
    fn titan_is_fastest_gpu() {
        // Peak throughput ordering sanity: Titan > K20c > 680-half > 295-half.
        use crate::perf::gpu_peak_gflops;
        let titan = gpu_peak_gflops(&machine_d().gpus[0]);
        let k20 = gpu_peak_gflops(&machine_a().gpus[0]);
        let g680 = gpu_peak_gflops(&machine_c().gpus[0]);
        let g295 = gpu_peak_gflops(&machine_b().gpus[0]);
        assert!(titan > k20, "{titan} vs {k20}");
        assert!(k20 > g680, "{k20} vs {g680}");
        assert!(g680 > g295, "{g680} vs {g295}");
    }
}
