//! Property-based tests for the runtime: work conservation and trace
//! invariants under arbitrary workload shapes and block sizes.

use plb_hetsim::cluster::ClusterOptions;
use plb_hetsim::workload::LinearCost;
use plb_hetsim::{cluster_scenario, ClusterSim, Scenario};
use plb_runtime::{gantt_segments, Policy, SchedulerCtx, SimEngine, TaskInfo};
use proptest::prelude::*;

// FixedBlockPolicy lives behind the policy module; re-exported for tests.
use plb_runtime::policy::FixedBlockPolicy as Fixed;
use plb_runtime::{DisjointError, DisjointOutput, WorkPool};

fn cost() -> LinearCost {
    LinearCost {
        label: "prop".into(),
        flops_per_item: 5e4,
        in_bytes_per_item: 32.0,
        out_bytes_per_item: 8.0,
        threads_per_item: 16.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn work_is_conserved_for_any_block_size(
        total in 1u64..300_000,
        block in 1u64..50_000,
        seed in 0u64..100,
    ) {
        let machines = cluster_scenario(Scenario::Two, false);
        let opts = ClusterOptions { seed, noise_sigma: 0.03, ..Default::default() };
        let mut cluster = ClusterSim::build(&machines, &opts);
        let c = cost();
        let mut policy = Fixed { block };
        let report = SimEngine::new(&mut cluster, &c).run(&mut policy, total).unwrap();
        prop_assert_eq!(report.total_items, total);
        let per_pu: u64 = report.pus.iter().map(|p| p.items).sum();
        prop_assert_eq!(per_pu, total);
    }

    #[test]
    fn trace_segments_never_overlap_per_unit(
        total in 1000u64..100_000,
        block in 100u64..20_000,
    ) {
        let machines = cluster_scenario(Scenario::One, false);
        let opts = ClusterOptions { seed: 7, noise_sigma: 0.02, ..Default::default() };
        let mut cluster = ClusterSim::build(&machines, &opts);
        let c = cost();
        let mut policy = Fixed { block };
        let mut engine = SimEngine::new(&mut cluster, &c);
        let report = engine.run(&mut policy, total).unwrap();
        let segments = gantt_segments(engine.last_events().unwrap().iter());

        for pu in 0..report.pus.len() {
            let mut segs: Vec<(f64, f64)> = segments
                .iter()
                .filter(|s| s.pu == pu)
                .map(|s| (s.start, s.end))
                .collect();
            segs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in segs.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].0 + 1e-12,
                    "unit {pu}: segment [{:.6},{:.6}] overlaps [{:.6},{:.6}]",
                    w[0].0, w[0].1, w[1].0, w[1].1
                );
            }
        }
        // Makespan is the latest segment end.
        let max_end = segments.iter().fold(0.0f64, |m, s| m.max(s.end));
        prop_assert_eq!(report.makespan.to_bits(), max_end.to_bits());
    }

    #[test]
    fn idle_fractions_are_valid_probabilities(
        total in 1000u64..50_000,
        block in 50u64..5_000,
        seed in 0u64..50,
    ) {
        let machines = cluster_scenario(Scenario::Three, false);
        let opts = ClusterOptions { seed, noise_sigma: 0.05, ..Default::default() };
        let mut cluster = ClusterSim::build(&machines, &opts);
        let c = cost();
        let mut policy = Fixed { block };
        let report = SimEngine::new(&mut cluster, &c).run(&mut policy, total).unwrap();
        for pu in &report.pus {
            prop_assert!((0.0..=1.0).contains(&pu.idle_fraction), "{}", pu.idle_fraction);
            prop_assert!(pu.busy_s <= report.makespan * (1.0 + 1e-9));
        }
    }

    #[test]
    fn overhead_charges_delay_but_never_lose_work(
        total in 1000u64..50_000,
        overhead_s in 0.0f64..2.0,
    ) {
        /// Charges a fixed overhead at start, then behaves greedily.
        struct Charging {
            inner: Fixed,
            overhead: f64,
        }
        impl Policy for Charging {
            fn name(&self) -> &str {
                "charging"
            }
            fn on_start(&mut self, ctx: &mut dyn SchedulerCtx) {
                ctx.charge_overhead(self.overhead);
                self.inner.on_start(ctx);
            }
            fn on_task_finished(&mut self, ctx: &mut dyn SchedulerCtx, d: &TaskInfo) {
                self.inner.on_task_finished(ctx, d);
            }
        }
        let machines = cluster_scenario(Scenario::One, false);
        let opts = ClusterOptions { seed: 2, noise_sigma: 0.0, ..Default::default() };
        let c = cost();

        let mut cl = ClusterSim::build(&machines, &opts);
        let base = SimEngine::new(&mut cl, &c)
            .run(&mut Charging { inner: Fixed { block: 1000 }, overhead: 0.0 }, total)
            .unwrap();
        let mut cl = ClusterSim::build(&machines, &opts);
        let delayed = SimEngine::new(&mut cl, &c)
            .run(&mut Charging { inner: Fixed { block: 1000 }, overhead: overhead_s }, total)
            .unwrap();
        prop_assert_eq!(delayed.total_items, total);
        prop_assert!(delayed.makespan >= base.makespan - 1e-12);
        prop_assert!(
            (delayed.makespan - base.makespan - overhead_s).abs() < 1e-6 + 0.1 * overhead_s,
            "expected ~{overhead_s}s delay, got {}",
            delayed.makespan - base.makespan
        );
    }
}

// Properties of the safe disjoint-output abstraction the app kernels
// write through (see `docs/SOUNDNESS.md`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A second claim is accepted exactly when it does not overlap a
    /// live one, and a dropped claim is always reclaimable.
    #[test]
    fn disjoint_output_rejects_exactly_the_overlapping_claims(
        len in 16usize..256,
        s1 in 0usize..255,
        l1 in 1usize..64,
        s2 in 0usize..255,
        l2 in 1usize..64,
    ) {
        prop_assume!(s1 < len && s2 < len);
        let e1 = (s1 + l1).min(len);
        let e2 = (s2 + l2).min(len);
        let out = DisjointOutput::new(0u32, len);
        let w1 = out.try_writer(s1..e1);
        prop_assert!(w1.is_ok(), "first claim on a fresh output must succeed");
        let overlaps = s2 < e1 && s1 < e2;
        match out.try_writer(s2..e2) {
            Ok(_) => prop_assert!(!overlaps, "overlapping claim was admitted"),
            Err(DisjointError::Overlap { .. }) => {
                prop_assert!(overlaps, "disjoint claim was rejected")
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
        drop(w1);
        prop_assert!(
            out.try_writer(s1..e1).is_ok(),
            "a dropped claim must be released"
        );
    }

    /// Writing the blocks in an arbitrary order through disjoint
    /// writers produces bit-identical contents to a sequential fill.
    #[test]
    fn permuted_disjoint_writes_match_sequential_fill(
        blocks in 1usize..24,
        width in 1usize..16,
        perm_seed in 0u64..1_000,
    ) {
        let len = blocks * width;
        let expect: Vec<u64> = (0..len as u64).map(|i| i * 31 + 7).collect();

        // Deterministic Fisher-Yates permutation of the block order.
        let mut order: Vec<usize> = (0..blocks).collect();
        let mut state = perm_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }

        let out = DisjointOutput::new(0u64, len);
        for &blk in &order {
            let lo = blk * width;
            let mut w = out.writer(lo..lo + width);
            for (k, slot) in w.iter_mut().enumerate() {
                *slot = (lo + k) as u64 * 31 + 7;
            }
        }
        prop_assert_eq!(out.into_vec(), expect);
    }
}

// Properties of the undistributed-item pool both engines dispatch from:
// the disjoint-cover invariant must survive any interleaving of claims,
// completions, and failure re-credits (the checkpoint/resume layer
// additionally snapshots and rebuilds these covers).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under an arbitrary claim/complete/fail schedule no item is ever
    /// in two live assignments, and the final completed cover is exactly
    /// `0..total` with no gaps and no overlaps.
    #[test]
    fn workpool_cover_is_disjoint_under_arbitrary_interleavings(
        total in 1u64..5_000,
        ops in proptest::collection::vec((0u8..4, 1u64..997), 1..200),
    ) {
        let mut pool = WorkPool::new(total);
        let mut inflight: Vec<(u64, u64)> = Vec::new();
        let mut done: Vec<(u64, u64)> = Vec::new();
        for (op, arg) in ops {
            match op {
                // Claim a block (two arms: claims should dominate the
                // schedule or nothing ever gets in flight).
                0 | 1 => {
                    if let Some((off, got)) = pool.take(arg) {
                        prop_assert!(got >= 1 && got <= arg);
                        for &(o, l) in inflight.iter().chain(done.iter()) {
                            prop_assert!(
                                off + got <= o || o + l <= off,
                                "claim [{off},{}) overlaps live/completed [{o},{})",
                                off + got, o + l
                            );
                        }
                        inflight.push((off, got));
                    }
                }
                // Complete an arbitrary in-flight block.
                2 => {
                    if !inflight.is_empty() {
                        let i = (arg as usize) % inflight.len();
                        done.push(inflight.swap_remove(i));
                    }
                }
                // Fail an arbitrary in-flight block: re-credit.
                _ => {
                    if !inflight.is_empty() {
                        let i = (arg as usize) % inflight.len();
                        let (off, len) = inflight.swap_remove(i);
                        pool.reclaim(off, len);
                    }
                }
            }
        }
        // Drain: everything still in the pool completes, as does
        // everything left in flight.
        while let Some(r) = pool.take(1009) {
            done.push(r);
        }
        done.append(&mut inflight);
        done.sort_unstable();
        let mut expect = 0u64;
        for (off, len) in done {
            prop_assert_eq!(off, expect, "gap or overlap in the final cover");
            expect = off + len;
        }
        prop_assert_eq!(expect, total);
        prop_assert!(pool.try_close());
    }

    /// A resumed pool hands out exactly the complement of the
    /// checkpointed cover: completed ∪ resumed-claims == `0..total`,
    /// disjointly.
    #[test]
    fn workpool_resume_serves_exactly_the_complement(
        total in 1u64..5_000,
        cuts in proptest::collection::vec((0u64..200, 1u64..200), 0..20),
        want in 1u64..997,
    ) {
        let mut completed: Vec<(u64, u64)> = Vec::new();
        let mut cursor = 0u64;
        for (skip, len) in cuts {
            let off = cursor + skip;
            if off + len > total {
                break;
            }
            completed.push((off, len));
            cursor = off + len;
        }
        let mut pool = WorkPool::resume(total, &completed).unwrap();
        let mut cover = completed.clone();
        while let Some(r) = pool.take(want) {
            cover.push(r);
        }
        cover.sort_unstable();
        let mut expect = 0u64;
        for (off, len) in cover {
            prop_assert_eq!(off, expect, "gap or overlap after resume");
            expect = off + len;
        }
        prop_assert_eq!(expect, total);
        prop_assert!(pool.try_close());
    }
}
