//! Device kernel-time models.
//!
//! Each processing unit is a roofline with an occupancy ramp:
//!
//! ```text
//! t(block) = overhead + max( flops / (peak_flops · eff(threads)),
//!                            bytes_touched / mem_bandwidth )
//! eff(threads) = eff_max · threads / (threads + half_threads)
//! ```
//!
//! `half_threads` is the parallelism at which the device reaches half of
//! its asymptotic efficiency. GPUs have enormous `half_threads` (tens of
//! thousands of resident threads are needed to hide latency), which
//! produces the paper's Fig. 1 shape: small blocks run far below peak and
//! the FLOP rate climbs toward an asymptote as blocks grow — precisely
//! why HDSS fits logarithmic curves and PLB-HeC fits a richer basis.
//! CPUs saturate with a few threads, so their time is near-linear in
//! block size from the start.

use crate::specs::{CpuSpec, GpuSpec};
use serde::{Deserialize, Serialize};

/// Peak single-precision GFLOP/s of a CPU: cores × clock × SIMD lanes ×
/// 2 (FMA), derated to a realistic fraction of theoretical peak for
/// compiled scalar-ish kernels.
pub(crate) fn cpu_peak_gflops(cpu: &CpuSpec) -> f64 {
    let derate = 0.35; // real kernels rarely sustain full FMA issue
    cpu.cores as f64 * cpu.clock_ghz * cpu.simd_width as f64 * 2.0 * derate
}

/// Peak single-precision GFLOP/s of a GPU processor: cores × clock × 2,
/// derated per generation (older architectures sustain less of peak).
pub(crate) fn gpu_peak_gflops(gpu: &GpuSpec) -> f64 {
    // Pre-Fermi parts (GTX 295 era: few, simple SMs per core count)
    // sustain a smaller fraction of theoretical peak on real kernels.
    let derate = if gpu.cuda_cores < 512 { 0.45 } else { 0.60 };
    gpu.cuda_cores as f64 * gpu.clock_ghz * 2.0 * derate
}

/// The execution-time model of one processing unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DevicePerf {
    /// Sustained peak in GFLOP/s.
    pub peak_gflops: f64,
    /// Asymptotic efficiency (fraction of `peak_gflops` reachable).
    pub eff_max: f64,
    /// Threads needed to reach half of `eff_max`.
    pub half_threads: f64,
    /// Fixed per-kernel overhead in seconds (launch, dispatch, sync).
    pub overhead_s: f64,
    /// Device memory bandwidth in GB/s (roofline memory ceiling).
    pub mem_bandwidth_gbs: f64,
}

impl DevicePerf {
    /// Build the model for a CPU.
    pub fn for_cpu(cpu: &CpuSpec) -> DevicePerf {
        let threads = if cpu.hyperthreading {
            cpu.cores * 2
        } else {
            cpu.cores
        };
        DevicePerf {
            peak_gflops: cpu_peak_gflops(cpu),
            eff_max: 0.95,
            // A CPU saturates once each worker thread has a few items.
            half_threads: threads as f64 * 4.0,
            overhead_s: 20e-6, // thread wake + loop setup
            mem_bandwidth_gbs: 40.0,
        }
    }

    /// Build the model for a GPU processor.
    pub fn for_gpu(gpu: &GpuSpec) -> DevicePerf {
        DevicePerf {
            peak_gflops: gpu_peak_gflops(gpu),
            eff_max: 0.90,
            // Latency hiding needs ~16 resident threads per CUDA core.
            half_threads: gpu.cuda_cores as f64 * 16.0,
            overhead_s: 60e-6, // kernel launch latency
            mem_bandwidth_gbs: gpu.mem_bandwidth_gbs,
        }
    }

    /// Occupancy-dependent efficiency for a block exposing `threads`
    /// parallel work units.
    pub(crate) fn efficiency(&self, threads: f64) -> f64 {
        if threads <= 0.0 {
            return 0.0;
        }
        self.eff_max * threads / (threads + self.half_threads)
    }

    /// Noise-free kernel time for a block characterized by raw costs.
    pub fn kernel_time(&self, flops: f64, bytes_touched: f64, threads: f64) -> f64 {
        debug_assert!(flops >= 0.0 && bytes_touched >= 0.0);
        if flops == 0.0 && bytes_touched == 0.0 {
            return self.overhead_s;
        }
        let eff = self.efficiency(threads).max(1e-9);
        let t_compute = flops / (self.peak_gflops * 1e9 * eff);
        let t_memory = bytes_touched / (self.mem_bandwidth_gbs * 1e9);
        self.overhead_s + t_compute.max(t_memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{machine_a, machine_b};

    #[test]
    fn cpu_peak_reasonable() {
        // Xeon E5-2690V2: 10 x 3.0 x 8 x 2 x 0.35 = 168 GFLOP/s sustained.
        let p = cpu_peak_gflops(&machine_a().cpu);
        assert!((p - 168.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn gpu_outruns_cpu_at_scale() {
        let m = machine_a();
        let cpu = DevicePerf::for_cpu(&m.cpu);
        let gpu = DevicePerf::for_gpu(&m.gpus[0]);
        // Big compute-bound block: GPU must win by a large factor.
        let flops = 1e12;
        let threads = 1e7;
        let t_cpu = cpu.kernel_time(flops, 1e6, threads);
        let t_gpu = gpu.kernel_time(flops, 1e6, threads);
        assert!(t_gpu * 4.0 < t_cpu, "gpu {t_gpu}, cpu {t_cpu}");
    }

    #[test]
    fn cpu_beats_gpu_on_tiny_blocks() {
        // With almost no parallelism the GPU idles most of its cores and
        // pays a bigger launch overhead: the CPU should win. This is the
        // crossover that makes heterogeneous balancing non-trivial.
        let m = machine_a();
        let cpu = DevicePerf::for_cpu(&m.cpu);
        let gpu = DevicePerf::for_gpu(&m.gpus[0]);
        let flops = 2e6;
        let threads = 64.0;
        let t_cpu = cpu.kernel_time(flops, 1e3, threads);
        let t_gpu = gpu.kernel_time(flops, 1e3, threads);
        assert!(t_cpu < t_gpu, "cpu {t_cpu}, gpu {t_gpu}");
    }

    #[test]
    fn efficiency_monotonic_in_threads() {
        let gpu = DevicePerf::for_gpu(&machine_a().gpus[0]);
        let mut last = 0.0;
        for exp in 0..24 {
            let e = gpu.efficiency((1u64 << exp) as f64);
            assert!(e >= last, "efficiency not monotonic");
            last = e;
        }
        assert!(last <= gpu.eff_max + 1e-12);
    }

    #[test]
    fn efficiency_half_point() {
        let gpu = DevicePerf::for_gpu(&machine_a().gpus[0]);
        let e = gpu.efficiency(gpu.half_threads);
        assert!((e - gpu.eff_max / 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_time_monotonic_in_flops() {
        let cpu = DevicePerf::for_cpu(&machine_b().cpu);
        let t1 = cpu.kernel_time(1e9, 0.0, 1e4);
        let t2 = cpu.kernel_time(2e9, 0.0, 1e4);
        assert!(t2 > t1);
    }

    #[test]
    fn memory_bound_ceiling_applies() {
        let gpu = DevicePerf::for_gpu(&machine_a().gpus[0]);
        // Tiny flops, huge bytes: time dominated by bandwidth.
        let bytes = 205e9; // one second at full bandwidth
        let t = gpu.kernel_time(1.0, bytes, 1e9);
        assert!((t - (gpu.overhead_s + 1.0)).abs() < 1e-6, "{t}");
    }

    #[test]
    fn zero_work_costs_overhead_only() {
        let gpu = DevicePerf::for_gpu(&machine_a().gpus[0]);
        assert_eq!(gpu.kernel_time(0.0, 0.0, 0.0), gpu.overhead_s);
    }

    #[test]
    fn gpu_flop_rate_grows_with_block_size() {
        // Reproduces the Fig. 1 observation: achieved FLOP/s increases
        // with block size and saturates.
        let gpu = DevicePerf::for_gpu(&machine_a().gpus[0]);
        let mut last_rate = 0.0;
        for exp in 10..26 {
            let threads = (1u64 << exp) as f64;
            let flops = threads * 100.0;
            let t = gpu.kernel_time(flops, 0.0, threads) - gpu.overhead_s;
            let rate = flops / t;
            assert!(rate > last_rate, "rate should grow with block size");
            last_rate = rate;
        }
    }
}
