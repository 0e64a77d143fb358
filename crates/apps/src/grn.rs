//! Gene regulatory network (GRN) inference (paper Section IV-A,
//! reference \[26\]: Borelli et al., "Gene regulatory networks inference
//! using a multi-GPU exhaustive search algorithm").
//!
//! Feature selection by exhaustive search: for each *target* gene, find
//! the pair of predictor genes whose discretized expression states best
//! predict the target's state — scored by conditional entropy over the
//! sample set. "The division of work consisted in distributing the gene
//! sets that are evaluated by each processor. The complexity of the
//! algorithm is O(n³) where n is the number of genes": evaluating one
//! target means scanning all `O(n²)` predictor pairs, so one work item
//! (one target gene) costs `O(n²)` and the whole run `O(n³)`.

use plb_hetsim::CostModel;
use plb_rng::ChaCha8Rng;
use plb_runtime::{Codelet, DisjointOutput, PuResources};
use std::ops::Range;
use std::sync::Arc;

/// Number of discrete expression states (off / baseline / on).
pub const STATES: usize = 3;

/// The GRN inference application over `genes` genes.
#[derive(Debug, Clone)]
pub struct GrnInference {
    /// Number of genes.
    pub genes: u64,
    /// Number of expression samples (microarray columns).
    pub samples: u64,
}

impl GrnInference {
    /// Create the application with the paper-typical sample count.
    pub fn new(genes: u64) -> GrnInference {
        GrnInference::with_samples(genes, 20)
    }

    /// Create with an explicit sample count.
    pub fn with_samples(genes: u64, samples: u64) -> GrnInference {
        assert!(genes >= 3, "need at least 3 genes (target + pair)");
        assert!(samples > 0, "need samples");
        GrnInference { genes, samples }
    }

    /// Total work items (target genes).
    pub fn total_items(&self) -> u64 {
        self.genes
    }

    /// The simulator cost model.
    pub fn cost(&self) -> GrnCost {
        GrnCost {
            genes: self.genes,
            samples: self.samples,
        }
    }
}

/// Candidate-regulator window per target. An unrestricted pair scan at
/// the paper's gene counts (140k genes → ~10¹⁰ pairs × 140k targets)
/// would take years on the authors' own hardware, so — like any real
/// GRN pipeline — the search for each target is restricted to a window
/// of candidate regulators (transcription-factor shortlist). This keeps
/// the per-target cost heavy (≈ a GPU-millisecond) and the full-run
/// scaling super-linear in the gene count, preserving the evaluation's
/// shape.
pub const CANDIDATE_WINDOW: u64 = 1024;

/// Cost model: one item = one target gene = an exhaustive pair scan
/// over the candidate window.
#[derive(Debug, Clone)]
pub struct GrnCost {
    genes: u64,
    samples: u64,
}

impl GrnCost {
    fn pairs_per_target(&self) -> f64 {
        let k = self.genes.min(CANDIDATE_WINDOW) as f64;
        (k - 1.0) * (k - 2.0) / 2.0
    }
}

impl CostModel for GrnCost {
    fn name(&self) -> &str {
        "grn"
    }

    fn flops(&self, items: u64) -> f64 {
        // Per pair: histogram accumulation + entropy over samples,
        // ~6 ops per sample.
        items as f64 * self.pairs_per_target() * self.samples as f64 * 6.0
    }

    fn bytes_in(&self, items: u64) -> f64 {
        // Targets' expression rows; the gene matrix itself is broadcast
        // once (paid outside the per-block stream, as with matrix A).
        items as f64 * self.samples as f64
    }

    fn bytes_out(&self, items: u64) -> f64 {
        12.0 * items as f64 // best (pair, score) per target
    }

    fn bytes_touched(&self, items: u64) -> f64 {
        // The pair scan streams the candidate window from device
        // memory/cache; charge one window pass per target.
        let k = self.genes.min(CANDIDATE_WINDOW) as f64;
        items as f64 * k * self.samples as f64
    }

    fn threads(&self, items: u64) -> f64 {
        // Pairs are independent: massive fine-grained parallelism.
        items as f64 * self.pairs_per_target()
    }

    fn broadcast_bytes(&self) -> f64 {
        // The discretized expression matrix is broadcast once; at the
        // paper's sizes (≤ 140k genes × 20 one-byte samples ≈ 2.8 MB)
        // it fits every device, so no per-task streaming occurs.
        self.genes as f64 * self.samples as f64
    }
}

/// Host data: the discretized expression matrix, gene-major
/// (`genes × samples`, entries in `0..STATES`).
pub struct GrnData {
    /// Number of genes.
    pub genes: usize,
    /// Number of samples.
    pub samples: usize,
    /// Expression states, `genes × samples` row-major.
    pub expr: Vec<u8>,
}

impl GrnData {
    /// Generate a deterministic synthetic expression matrix in which
    /// some targets are true functions of gene pairs (so inference has
    /// signal to find).
    pub fn generate(genes: usize, samples: usize, seed: u64) -> GrnData {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut expr = vec![0u8; genes * samples];
        for v in expr.iter_mut() {
            *v = rng.gen_range(0..STATES as u8);
        }
        // Plant deterministic pair relationships: gene i (for i ≥ 2,
        // every 3rd gene) = f(gene i-1, gene i-2).
        for g in (2..genes).step_by(3) {
            for s in 0..samples {
                let a = expr[(g - 1) * samples + s];
                let b = expr[(g - 2) * samples + s];
                expr[g * samples + s] = ((a + 2 * b) % STATES as u8) as u8;
            }
        }
        GrnData {
            genes,
            samples,
            expr,
        }
    }

    /// Expression row of one gene.
    pub fn gene(&self, g: usize) -> &[u8] {
        &self.expr[g * self.samples..(g + 1) * self.samples]
    }
}

/// Conditional entropy `H(target | (a, b))` over the sample set, in
/// bits. Zero means the pair perfectly determines the target.
pub fn conditional_entropy(data: &GrnData, target: usize, a: usize, b: usize) -> f64 {
    let mut joint = [[0u32; STATES]; STATES * STATES];
    let t = data.gene(target);
    let ga = data.gene(a);
    let gb = data.gene(b);
    for s in 0..data.samples {
        let cond = ga[s] as usize * STATES + gb[s] as usize;
        joint[cond][t[s] as usize] += 1;
    }
    let n = data.samples as f64;
    let mut h = 0.0;
    for cond in joint.iter() {
        let cn: u32 = cond.iter().sum();
        if cn == 0 {
            continue;
        }
        let pc = cn as f64 / n;
        let mut hc = 0.0;
        for &c in cond {
            if c > 0 {
                let p = c as f64 / cn as f64;
                hc -= p * p.log2();
            }
        }
        h += pc * hc;
    }
    h
}

/// Marginal entropy `H(target)` over the sample set, in bits.
pub fn entropy(data: &GrnData, gene: usize) -> f64 {
    let mut counts = [0u32; STATES];
    for &v in data.gene(gene) {
        counts[v as usize] += 1;
    }
    let n = data.samples as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Mutual information `I(target; (a, b)) = H(target) − H(target | a, b)`
/// in bits — the complementary view of the conditional-entropy
/// criterion: a pair that fully determines the target has
/// `I = H(target)`.
pub fn mutual_information(data: &GrnData, target: usize, a: usize, b: usize) -> f64 {
    entropy(data, target) - conditional_entropy(data, target, a, b)
}

/// A reconstructed regulatory network: the best predictor pair per
/// target, thresholded into directed edges `regulator -> target`.
#[derive(Debug, Clone)]
pub struct GrnNetwork {
    /// Directed edges `(regulator, target)`.
    pub edges: Vec<(u32, u32)>,
}

impl GrnNetwork {
    /// Assemble a network from per-target inference results: targets
    /// whose best pair scores at or below `max_entropy` contribute both
    /// regulators as edges.
    pub fn assemble(results: &[Option<GrnResult>], max_entropy: f64) -> GrnNetwork {
        let mut edges = Vec::new();
        for (target, r) in results.iter().enumerate() {
            if let Some(r) = r {
                if r.score <= max_entropy {
                    edges.push((r.pair.0, target as u32));
                    edges.push((r.pair.1, target as u32));
                }
            }
        }
        GrnNetwork { edges }
    }

    /// Precision/recall of the reconstruction against a ground-truth
    /// edge set.
    pub fn score_against(&self, truth: &[(u32, u32)]) -> (f64, f64) {
        if self.edges.is_empty() {
            return (0.0, 0.0);
        }
        let hit = |e: &(u32, u32)| truth.contains(e);
        let tp = self.edges.iter().filter(|e| hit(e)).count() as f64;
        let precision = tp / self.edges.len() as f64;
        let recall = if truth.is_empty() {
            0.0
        } else {
            tp / truth.len() as f64
        };
        (precision, recall)
    }
}

/// The ground-truth edges planted by [`GrnData::generate`]: for every
/// third gene `g ≥ 2`, `g-1 -> g` and `g-2 -> g`.
pub fn planted_edges(genes: usize) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for g in (2..genes).step_by(3) {
        edges.push(((g - 2) as u32, g as u32));
        edges.push(((g - 1) as u32, g as u32));
    }
    edges
}

/// Result of inferring one target gene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrnResult {
    /// Best predictor pair (indices).
    pub pair: (u32, u32),
    /// Its conditional entropy (lower = better).
    pub score: f64,
}

/// The real CPU codelet: exhaustive pair search per target gene.
pub struct GrnCodelet {
    data: Arc<GrnData>,
    /// Best pair per target; each chunk of targets claims its indices
    /// as one [`DisjointOutput`] view.
    results: Arc<DisjointOutput<Option<GrnResult>>>,
}

impl GrnCodelet {
    /// Wrap host data.
    pub fn new(data: Arc<GrnData>) -> GrnCodelet {
        let results = Arc::new(DisjointOutput::new(None, data.genes));
        GrnCodelet { data, results }
    }

    /// The per-target inference results (None for unprocessed targets).
    pub fn results(&self) -> Vec<Option<GrnResult>> {
        self.results.snapshot()
    }

    fn infer_target(&self, target: usize) -> GrnResult {
        let n = self.data.genes;
        let mut best = GrnResult {
            pair: (0, 0),
            score: f64::INFINITY,
        };
        for a in 0..n {
            if a == target {
                continue;
            }
            for b in (a + 1)..n {
                if b == target {
                    continue;
                }
                let h = conditional_entropy(&self.data, target, a, b);
                if h < best.score {
                    best = GrnResult {
                        pair: (a as u32, b as u32),
                        score: h,
                    };
                }
            }
        }
        best
    }
}

impl Codelet for GrnCodelet {
    fn name(&self) -> &str {
        "grn"
    }

    fn execute(&self, range: Range<u64>, res: &PuResources) {
        res.for_each_chunk(range, |sub| {
            let (lo, hi) = (sub.start as usize, sub.end as usize);
            let mut out = self.results.writer(lo..hi);
            for (slot, target) in out.iter_mut().zip(lo..hi) {
                *slot = Some(self.infer_target(target));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plb_hetsim::PuKind;

    #[test]
    fn cost_scaling_below_window_is_cubic() {
        // Below the candidate window the scan is the paper's full
        // exhaustive search: O(n³) total.
        let small = GrnInference::new(100).cost();
        let big = GrnInference::new(200).cost();
        let ratio = big.flops(200) / small.flops(100);
        assert!((ratio - 8.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn cost_scaling_above_window_is_linear_with_heavy_items() {
        let a = GrnInference::new(60_000).cost();
        let b = GrnInference::new(120_000).cost();
        let ratio = b.flops(120_000) / a.flops(60_000);
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        // Items stay heavy: ~60 MFLOP per target gene.
        assert!(a.flops(1) > 1e7);
    }

    #[test]
    fn entropy_zero_for_deterministic_relation() {
        // Gene 2 = f(gene 1, gene 0) by construction in generate().
        let data = GrnData::generate(9, 40, 3);
        let h = conditional_entropy(&data, 2, 1, 0);
        assert!(h < 1e-12, "planted relation should have zero CE, got {h}");
    }

    #[test]
    fn entropy_positive_for_random_pair() {
        let data = GrnData::generate(9, 200, 3);
        // Genes 3,4 are iid random vs gene 0 — H > 0 with overwhelming
        // probability at 200 samples.
        let h = conditional_entropy(&data, 0, 3, 4);
        assert!(h > 0.1, "random pair CE should be large, got {h}");
    }

    #[test]
    fn inference_finds_planted_pair() {
        let data = Arc::new(GrnData::generate(12, 60, 5));
        let codelet = GrnCodelet::new(Arc::clone(&data));
        codelet.execute(
            2..3,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let r = codelet.results()[2].expect("target 2 processed");
        assert_eq!(r.score, 0.0);
        // The planted pair is (0, 1) (order normalized a < b).
        assert_eq!(r.pair, (0, 1), "found {:?}", r.pair);
    }

    #[test]
    fn parallel_equals_sequential() {
        let data = Arc::new(GrnData::generate(10, 30, 8));
        let a = GrnCodelet::new(Arc::clone(&data));
        a.execute(
            0..10,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let b = GrnCodelet::new(Arc::clone(&data));
        b.execute(
            0..10,
            &PuResources {
                threads: 4,
                kind: PuKind::Gpu,
            },
        );
        let ra = a.results();
        let rb = b.results();
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.map(|r| r.pair), y.map(|r| r.pair));
        }
    }

    #[test]
    fn unprocessed_targets_stay_none() {
        let data = Arc::new(GrnData::generate(8, 20, 2));
        let codelet = GrnCodelet::new(data);
        codelet.execute(
            0..2,
            &PuResources {
                threads: 1,
                kind: PuKind::Cpu,
            },
        );
        let r = codelet.results();
        assert!(r[0].is_some() && r[1].is_some());
        assert!(r[2..].iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_few_genes_rejected() {
        GrnInference::new(2);
    }

    #[test]
    fn mutual_information_identities() {
        let data = GrnData::generate(12, 80, 21);
        // Planted: gene 2 = f(gene 0, gene 1) → I = H(target).
        let mi = mutual_information(&data, 2, 0, 1);
        let h = entropy(&data, 2);
        assert!(
            (mi - h).abs() < 1e-12,
            "planted pair: I = H, got {mi} vs {h}"
        );
        // MI is non-negative and bounded by H(target).
        let mi_rand = mutual_information(&data, 0, 4, 5);
        assert!(mi_rand >= -1e-12);
        assert!(mi_rand <= entropy(&data, 0) + 1e-12);
    }

    #[test]
    fn entropy_of_uniform_three_states_near_log3() {
        let data = GrnData::generate(10, 3000, 7);
        // Gene 0 is iid uniform over 3 states.
        let h = entropy(&data, 0);
        assert!((h - 3.0f64.log2()).abs() < 0.05, "H = {h}");
    }

    #[test]
    fn network_reconstruction_is_perfect_on_planted_data() {
        use plb_hetsim::PuKind;
        let genes = 15usize;
        // Enough samples that a random pair almost surely cannot
        // perfectly predict an unrelated target by luck (9 conditioning
        // states x ~28 samples each).
        let data = Arc::new(GrnData::generate(genes, 250, 9));
        let codelet = GrnCodelet::new(Arc::clone(&data));
        codelet.execute(
            0..genes as u64,
            &PuResources {
                threads: 2,
                kind: PuKind::Cpu,
            },
        );
        let net = GrnNetwork::assemble(&codelet.results(), 0.0);
        let truth = planted_edges(genes);
        let (_, recall) = net.score_against(&truth);
        assert!(
            recall > 0.999,
            "every planted edge must be recovered: recall {recall}"
        );
        // The planted relation g = (a + 2b) mod 3 is *invertible*: every
        // gene of a triple {g-2, g-1, g} is perfectly determined by the
        // other two, so zero-entropy edges within a triple are correct
        // even when they point "backwards" (a classic GRN
        // identifiability limit). What must NOT happen is an edge
        // between unrelated genes.
        let triple_of = |g: u32| -> Option<u32> {
            // Triples are {t-2, t-1, t} for planted targets t = 2, 5, ...
            (2..genes as u32)
                .step_by(3)
                .find(|&t| g == t || g == t - 1 || g == t - 2)
        };
        for (reg, tgt) in &net.edges {
            let (a, b) = (triple_of(*reg), triple_of(*tgt));
            assert!(
                a.is_some() && a == b,
                "edge {reg}->{tgt} crosses unrelated genes"
            );
        }
    }

    #[test]
    fn empty_network_scores_zero() {
        let net = GrnNetwork::assemble(&[None, None], 0.0);
        assert_eq!(net.score_against(&[(0, 1)]), (0.0, 0.0));
    }

    #[test]
    fn conditional_entropy_bounded_by_log_states() {
        let data = GrnData::generate(10, 500, 13);
        let h = conditional_entropy(&data, 0, 3, 4);
        assert!(h <= (STATES as f64).log2() + 1e-9);
    }
}
