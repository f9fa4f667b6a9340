//! Property-style tests of simulator invariants: determinism, density
//! monotonicity, energy positivity, and model consistency across seeded
//! randomized layer shapes.
//!
//! Originally `proptest` properties; the workspace is std-only, so each
//! property now loops over deterministic seeds with shapes derived from the
//! seed — same invariants, reproducible from the loop index.

use cscnn::models::LayerDesc;
use cscnn::sim::dram::DramConfig;
use cscnn::sim::energy::EnergyTable;
use cscnn::sim::pe::CartesianPe;
use cscnn::sim::workload::LayerWorkload;
use cscnn::sim::{baselines, Accelerator, CartesianAccelerator, LayerContext};

/// Small deterministic generator for layer shapes.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x1234_5678))
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let z = self.0 ^ (self.0 >> 31);
        z.wrapping_mul(0x94d0_49bb_1331_11eb)
    }
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Produces small but varied conv layer shapes (mirrors the old strategy:
/// c,k in 1..=16, 1x1 or 3x3 kernels, 6..=20 spatial, stride 1..=2).
fn random_layer(g: &mut Gen) -> LayerDesc {
    let c = g.range(1, 16) as usize;
    let k = g.range(1, 16) as usize;
    let kernel = if g.range(1, 2) == 1 { 1 } else { 3 };
    let hw = g.range(6, 20) as usize;
    let stride = g.range(1, 2) as usize;
    let padding = if kernel == 3 { 1 } else { 0 };
    LayerDesc::conv("p", c, k, kernel, kernel, hw, hw, stride, padding)
}

fn simulate(
    acc: &dyn Accelerator,
    layer: &LayerDesc,
    wd: f64,
    ad: f64,
    seed: u64,
) -> cscnn::sim::LayerStats {
    let wl = LayerWorkload::synthesize(layer, wd, ad, acc.scheme().uses_centrosymmetric(), seed);
    let cfg = acc.config();
    let dram = DramConfig::default();
    let energy = EnergyTable::default();
    let ctx = LayerContext {
        cfg: &cfg,
        dram: &dram,
        energy: &energy,
        workload: &wl,
        input_on_chip: true,
        output_fits_on_chip: true,
    };
    acc.simulate_layer(&ctx)
}

/// Same seed → identical results, across accelerators and shapes.
#[test]
fn simulation_is_deterministic() {
    for case in 0..48u64 {
        let mut g = Gen::new(case);
        let layer = random_layer(&mut g);
        let seed = g.range(0, 99);
        let acc = CartesianAccelerator::cscnn();
        let a = simulate(&acc, &layer, 0.5, 0.5, seed);
        let b = simulate(&acc, &layer, 0.5, 0.5, seed);
        assert_eq!(a.compute_cycles, b.compute_cycles, "case {case}");
        assert_eq!(a.effective_mults, b.effective_mults);
        assert!((a.energy.on_chip_pj() - b.energy.on_chip_pj()).abs() < 1e-9);
    }
}

/// More non-zeros can never make a sparse accelerator *faster* (beyond
/// sampling noise): cycles are monotone in weight density.
#[test]
fn cycles_monotone_in_weight_density() {
    for case in 0..48u64 {
        let mut g = Gen::new(case ^ 0x11);
        let layer = random_layer(&mut g);
        let seed = g.range(0, 49);
        let acc = CartesianAccelerator::scnn();
        let sparse = simulate(&acc, &layer, 0.2, 0.5, seed);
        let dense = simulate(&acc, &layer, 0.9, 0.5, seed);
        // Allow tiny-shape noise: dense must be at least ~sparse.
        assert!(
            dense.compute_cycles as f64 >= sparse.compute_cycles as f64 * 0.95,
            "case {case}: dense {} vs sparse {}",
            dense.compute_cycles,
            sparse.compute_cycles
        );
        assert!(dense.effective_mults >= sparse.effective_mults);
    }
}

/// Energy components are finite and non-negative; component view sums
/// to the three-way split.
#[test]
fn energy_is_well_formed() {
    for case in 0..24u64 {
        let mut g = Gen::new(case ^ 0x22);
        let layer = random_layer(&mut g);
        let seed = g.range(0, 49);
        for acc in baselines::evaluation_accelerators() {
            let stats = simulate(acc.as_ref(), &layer, 0.5, 0.6, seed);
            let e = &stats.energy;
            for v in [e.compute_pj, e.memory_pj, e.others_pj, e.dram_pj] {
                assert!(v.is_finite() && v >= 0.0, "case {case}: {}", acc.name());
            }
            let by_component = e.mul_array_pj
                + e.ib_ob_pj
                + e.wb_pj
                + e.ab_pj
                + e.crossbar_pj
                + e.ccu_pj
                + e.ppu_pj;
            assert!(
                (by_component - e.on_chip_pj()).abs() <= 1e-6 * e.on_chip_pj().max(1.0),
                "case {case}: {}: component sum mismatch",
                acc.name()
            );
            // No dataflow may issue more multiplications per cycle than
            // the configured PE array has multipliers.
            let util = stats.multiplier_utilization(acc.config().total_multipliers());
            assert!(
                util <= 1.0,
                "case {case}: {}: utilization {util}",
                acc.name()
            );
        }
    }
}

/// The dense accelerator's cycle count is insensitive to synthesized
/// sparsity (it runs the dense model).
#[test]
fn dcnn_is_sparsity_blind() {
    for case in 0..48u64 {
        let mut g = Gen::new(case ^ 0x33);
        let layer = random_layer(&mut g);
        let seed = g.range(0, 49);
        let acc = baselines::dcnn();
        let a = simulate(&acc, &layer, 0.1, 0.2, seed);
        let b = simulate(&acc, &layer, 0.9, 0.9, seed);
        assert_eq!(a.compute_cycles, b.compute_cycles, "case {case}");
    }
}

/// The PE fast model's multiplier-array occupancy never exceeds 100 %:
/// cycles ≥ products / (Px·Py).
#[test]
fn pe_cycles_bound_products() {
    for case in 0..96u64 {
        let mut g = Gen::new(case ^ 0x44);
        let w = g.range(1, 199);
        let a = g.range(1, 199);
        let dual = g.range(0, 1) == 1;
        let pe = CartesianPe {
            px: 4,
            py: 4,
            stall_factor: 1.0,
            dual,
            self_dual_frac: 0.2,
        };
        let r = pe.run_conv(&[(w, a)], 0);
        let products = w * a;
        assert_eq!(r.counters.mults, products, "case {case}");
        assert!(r.cycles as f64 >= products as f64 / 16.0);
        // And fragmentation can cost at most (Px-1)(Py-1)-ish slack plus
        // setup: rounds ≤ (w/4+1)(a/4+1).
        let upper = (w.div_ceil(4)) * (a.div_ceil(4));
        assert!(r.cycles <= upper + 2 + 1, "case {case}");
    }
}

/// Batched intake is a pure cache over sequential simulation: whatever
/// annotations a request carries and however often its structure repeats
/// in the batch, `BatchRunner::run_batch` must return, per request, a
/// result bit-identical to `Runner::run_ir` — a workload-cache hit and a
/// miss must be indistinguishable from the outside. Annotations are drawn
/// from seeded `cscnn-rng` streams; worker counts vary per case.
#[test]
fn workload_cache_hits_never_change_run_stats() {
    use cscnn::ir::ModelIr;
    use cscnn::models::{catalog, lower, SparsityProfile};
    use cscnn::sim::{BatchRunner, Runner};
    use cscnn_rng::rngs::StdRng;
    use cscnn_rng::{Rng, SeedableRng};

    let as_json = |stats: &cscnn::sim::RunStats| -> String {
        cscnn::json::to_string(stats).expect("stats serialize")
    };

    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(case ^ 0x55);
        let model = if rng.gen_bool(0.5) {
            catalog::lenet5()
        } else {
            catalog::convnet()
        };
        // A few unique annotation vectors over one structure...
        let uniques: Vec<ModelIr> = (0..rng.gen_range(1usize..=3))
            .map(|_| {
                let (weight_density, activation_density) = model
                    .layers
                    .iter()
                    .map(|_| {
                        let w = rng.gen_range(0.1..=0.9f64);
                        (w, rng.gen_range(0.2..=1.0f64))
                    })
                    .unzip();
                let mut ir = lower::to_ir(&model);
                let profile = SparsityProfile {
                    weight_density,
                    activation_density,
                };
                assert!(profile.annotate(&mut ir));
                ir
            })
            .collect();
        // ...each duplicated a random number of times, so the batch mixes
        // cache misses (first sight) and hits (every repeat).
        let mut requests: Vec<ModelIr> = Vec::new();
        for ir in &uniques {
            let copies = rng.gen_range(1usize..=3);
            requests.extend((0..copies).map(|_| ir.clone()));
        }
        let unique_count = uniques.len();

        let runner = Runner::new(case);
        let workers = rng.gen_range(1usize..=4);
        let stats = BatchRunner::new(runner.clone())
            .with_workers(workers)
            .run_batch(&cscnn::sim::CartesianAccelerator::cscnn(), &requests)
            .expect("annotated batch");

        assert_eq!(stats.cache_misses, unique_count, "case {case}");
        assert_eq!(
            stats.cache_hits,
            requests.len() - unique_count,
            "case {case}"
        );
        for (i, (run, request)) in stats.runs.iter().zip(&requests).enumerate() {
            let sequential = runner
                .run_ir(&cscnn::sim::CartesianAccelerator::cscnn(), request)
                .expect("annotated IR");
            assert_eq!(
                as_json(run),
                as_json(&sequential),
                "case {case}, request {i} ({workers} workers)"
            );
        }
    }
}

/// CSCNN on an eligible layer never issues more multiplications than
/// SCNN at the same effective model (unique weights ≤ full weights).
#[test]
fn reuse_reduces_mults_on_eligible_layers() {
    for seed in 0..100u64 {
        let layer = LayerDesc::conv("e", 8, 8, 3, 3, 12, 12, 1, 1);
        let scnn = simulate(&CartesianAccelerator::scnn(), &layer, 0.5, 0.5, seed);
        let cscnn = simulate(&CartesianAccelerator::cscnn(), &layer, 0.5, 0.5, seed);
        assert!(
            cscnn.effective_mults < scnn.effective_mults,
            "seed {seed}: cscnn {} vs scnn {}",
            cscnn.effective_mults,
            scnn.effective_mults
        );
    }
}
