//! Dense neural-network layer inference — an *extension* application.
//!
//! The paper's introduction motivates heterogeneous clusters with
//! machine-learning and neural-network workloads (its references \[5\]
//! and \[7\]); this module adds one as a fourth application to
//! demonstrate that the balancer generalizes beyond the three the paper
//! evaluates. One work item is one input sample pushed through a dense
//! layer: `y = relu(W·x + b)` with a weight matrix of `out × in`.
//!
//! The weight matrix is broadcast state (like matrix A in MM): at large
//! layer sizes it no longer fits small GPUs and is re-streamed per
//! task, so this app exercises the same crossover mechanics as the
//! paper's MM at 65536.

use plb_hetsim::CostModel;
use plb_rng::ChaCha8Rng;
use plb_runtime::{Codelet, DisjointOutput, PuResources};
use std::ops::Range;
use std::sync::Arc;

/// The layer-inference application: `samples` items through an
/// `inputs → outputs` dense layer.
#[derive(Debug, Clone)]
pub struct NnLayer {
    /// Batch size (work items).
    pub samples: u64,
    /// Input features per sample.
    pub inputs: u64,
    /// Output features per sample.
    pub outputs: u64,
}

impl NnLayer {
    /// Create the application.
    pub fn new(samples: u64, inputs: u64, outputs: u64) -> NnLayer {
        assert!(
            samples > 0 && inputs > 0 && outputs > 0,
            "dimensions must be positive"
        );
        NnLayer {
            samples,
            inputs,
            outputs,
        }
    }

    /// Total work items (samples).
    pub fn total_items(&self) -> u64 {
        self.samples
    }

    /// The simulator cost model.
    pub fn cost(&self) -> NnLayerCost {
        NnLayerCost {
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }
}

/// Cost model: `2·in·out` FLOPs per sample, the weight matrix as
/// broadcast state, one thread per output neuron per sample.
#[derive(Debug, Clone)]
pub struct NnLayerCost {
    inputs: u64,
    outputs: u64,
}

impl CostModel for NnLayerCost {
    fn name(&self) -> &str {
        "nn-layer"
    }

    fn flops(&self, items: u64) -> f64 {
        2.0 * self.inputs as f64 * self.outputs as f64 * items as f64
    }

    fn bytes_in(&self, items: u64) -> f64 {
        4.0 * self.inputs as f64 * items as f64
    }

    fn bytes_out(&self, items: u64) -> f64 {
        4.0 * self.outputs as f64 * items as f64
    }

    fn bytes_touched(&self, items: u64) -> f64 {
        // The kernel streams the sample and its activations; the weight
        // matrix traffic is covered by the broadcast-overflow model.
        8.0 * (self.inputs + self.outputs) as f64 * items as f64
    }

    fn threads(&self, items: u64) -> f64 {
        self.outputs as f64 * items as f64
    }

    fn broadcast_bytes(&self) -> f64 {
        4.0 * self.inputs as f64 * self.outputs as f64
    }
}

/// Host data: the layer parameters and the input batch.
pub struct NnLayerData {
    /// Input features.
    pub inputs: usize,
    /// Output features.
    pub outputs: usize,
    /// Weights, row-major `outputs × inputs`.
    pub weights: Vec<f32>,
    /// Biases, length `outputs`.
    pub biases: Vec<f32>,
    /// Input batch, sample-major `samples × inputs`.
    pub batch: Vec<f32>,
    /// Batch size.
    pub samples: usize,
}

impl NnLayerData {
    /// Generate a deterministic random layer and batch.
    pub fn generate(samples: usize, inputs: usize, outputs: usize, seed: u64) -> NnLayerData {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut weights = vec![0.0f32; outputs * inputs];
        let mut biases = vec![0.0f32; outputs];
        let mut batch = vec![0.0f32; samples * inputs];
        for v in weights
            .iter_mut()
            .chain(biases.iter_mut())
            .chain(batch.iter_mut())
        {
            *v = rng.gen_range(-0.5..0.5);
        }
        NnLayerData {
            inputs,
            outputs,
            weights,
            biases,
            batch,
            samples,
        }
    }

    /// Reference forward pass for one sample.
    pub fn reference_forward(&self, sample: usize) -> Vec<f32> {
        let x = &self.batch[sample * self.inputs..(sample + 1) * self.inputs];
        (0..self.outputs)
            .map(|o| {
                let w = &self.weights[o * self.inputs..(o + 1) * self.inputs];
                let z: f32 = w.iter().zip(x).map(|(a, b)| a * b).sum::<f32>() + self.biases[o];
                z.max(0.0)
            })
            .collect()
    }
}

/// The real CPU codelet: forward pass over its sample range.
pub struct NnLayerCodelet {
    data: Arc<NnLayerData>,
    /// Activations, sample-major `samples × outputs`; each work item
    /// (sample) owns the contiguous row `sample·outputs ..
    /// (sample+1)·outputs`, and a chunk of samples claims its rows as
    /// one [`DisjointOutput`] view.
    activations: Arc<DisjointOutput<f32>>,
}

impl NnLayerCodelet {
    /// Wrap host data.
    pub fn new(data: Arc<NnLayerData>) -> NnLayerCodelet {
        let activations = Arc::new(DisjointOutput::new(0.0f32, data.samples * data.outputs));
        NnLayerCodelet { data, activations }
    }

    /// The computed activations, sample-major `samples × outputs`.
    pub fn activations(&self) -> Vec<f32> {
        self.activations.snapshot()
    }

    fn forward(&self, sample: usize, row: &mut [f32]) {
        let d = &self.data;
        let x = &d.batch[sample * d.inputs..(sample + 1) * d.inputs];
        for (o, out) in row.iter_mut().enumerate() {
            let w = &d.weights[o * d.inputs..(o + 1) * d.inputs];
            let mut z = d.biases[o];
            for (a, b) in w.iter().zip(x) {
                z += a * b;
            }
            *out = z.max(0.0);
        }
    }
}

impl Codelet for NnLayerCodelet {
    fn name(&self) -> &str {
        "nn-layer"
    }

    fn execute(&self, range: Range<u64>, res: &PuResources) {
        let outputs = self.data.outputs;
        res.for_each_chunk(range, |sub| {
            let (lo, hi) = (sub.start as usize, sub.end as usize);
            let mut out = self.activations.writer(lo * outputs..hi * outputs);
            for (sample, row) in (lo..hi).zip(out.chunks_exact_mut(outputs)) {
                self.forward(sample, row);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::PuKind;

    #[test]
    fn cost_scales_with_layer_dimensions() {
        let small = NnLayer::new(100, 128, 64).cost();
        let big = NnLayer::new(100, 256, 128).cost();
        assert!((big.flops(1) / small.flops(1) - 4.0).abs() < 1e-12);
        assert_eq!(small.broadcast_bytes(), 4.0 * 128.0 * 64.0);
        assert_eq!(small.threads(10), 640.0);
    }

    #[test]
    fn large_layers_overflow_small_gpus() {
        use plb_hetsim::cluster::ClusterOptions;
        use plb_hetsim::{cluster_scenario, ClusterSim, PuId, Scenario};
        // GTX 295 half: 0.44 GB. A 16384x16384 layer = 1.07 GB of
        // weights -> streams; a 2048x2048 layer = 16 MB -> cached.
        let cluster = ClusterSim::build(
            &cluster_scenario(Scenario::Two, false),
            &ClusterOptions {
                noise_sigma: 0.0,
                ..Default::default()
            },
        );
        let b_gpu = PuId(3);
        let small = NnLayer::new(1000, 2048, 2048).cost();
        let large = NnLayer::new(1000, 16384, 16384).cost();
        assert_eq!(cluster.device(b_gpu).stream_overflow_time(&small), 0.0);
        assert!(cluster.device(b_gpu).stream_overflow_time(&large) > 0.0);
    }

    #[test]
    fn codelet_matches_reference() {
        let data = Arc::new(NnLayerData::generate(16, 32, 24, 5));
        let codelet = NnLayerCodelet::new(Arc::clone(&data));
        codelet.execute(
            0..16,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let acts = codelet.activations();
        for s in 0..16 {
            let expect = data.reference_forward(s);
            for (o, &e) in expect.iter().enumerate() {
                let got = acts[s * 24 + o];
                assert!((got - e).abs() < 1e-5, "sample {s} out {o}: {got} vs {e}");
            }
        }
    }

    #[test]
    fn relu_clamps_negative_preactivations() {
        let data = Arc::new(NnLayerData::generate(64, 48, 32, 11));
        let codelet = NnLayerCodelet::new(Arc::clone(&data));
        codelet.execute(
            0..64,
            &PuResources {
                threads: 2,
                kind: PuKind::Gpu,
            },
        );
        let acts = codelet.activations();
        assert!(acts.iter().all(|&a| a >= 0.0));
        // With symmetric random weights about half the preactivations
        // are negative: expect plenty of exact zeros.
        let zeros = acts.iter().filter(|&&a| a == 0.0).count();
        assert!(
            zeros > acts.len() / 10,
            "only {zeros} zeros of {}",
            acts.len()
        );
    }

    #[test]
    fn parallel_equals_sequential() {
        let data = Arc::new(NnLayerData::generate(50, 64, 40, 3));
        let a = NnLayerCodelet::new(Arc::clone(&data));
        a.execute(
            0..50,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let b = NnLayerCodelet::new(Arc::clone(&data));
        b.execute(
            0..50,
            &PuResources {
                threads: 4,
                kind: PuKind::Gpu,
            },
        );
        assert_eq!(a.activations(), b.activations());
    }

    #[test]
    fn partial_ranges_touch_only_their_samples() {
        let data = Arc::new(NnLayerData::generate(10, 8, 6, 1));
        let codelet = NnLayerCodelet::new(data);
        codelet.execute(
            4..7,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let acts = codelet.activations();
        assert!(acts[..4 * 6].iter().all(|&a| a == 0.0));
        assert!(acts[7 * 6..].iter().all(|&a| a == 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimensions_rejected() {
        NnLayer::new(10, 0, 5);
    }
}
