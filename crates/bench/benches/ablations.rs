//! Ablation benches for two design choices:
//!
//! * **ATPG compaction** — reverse-order compaction of the deterministic
//!   sequence (on vs off) and its knock-on effect on generator area,
//! * **fault-model weight** — grading cost of stuck-at-only vs the full
//!   mixed model.
//!
//! Each ablation prints its effect on c432 once, then benchmarks both
//! arms.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bist_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn deterministic_set(circuit: &Circuit, compact: bool) -> Vec<Pattern> {
    let faults = FaultList::mixed_model(circuit);
    let options = AtpgOptions {
        no_compaction: !compact,
        ..AtpgOptions::default()
    };
    TestGenerator::new(circuit, faults, options)
        .run()
        .sequence()
}

fn ablation_report() {
    let model = AreaModel::es2_1um();
    let circuit = iscas85::circuit("c432").expect("known benchmark");

    // --- compaction ---
    let compacted = deterministic_set(&circuit, true);
    let uncompacted = deterministic_set(&circuit, false);
    let g_compacted = LfsromGenerator::synthesize(&compacted).expect("synthesis");
    let g_uncompacted = LfsromGenerator::synthesize(&uncompacted).expect("synthesis");
    println!("\n[ablation] ATPG compaction on c432:");
    println!(
        "  with    : {:>4} patterns -> {:.3} mm²",
        compacted.len(),
        g_compacted.area_mm2(&model)
    );
    println!(
        "  without : {:>4} patterns -> {:.3} mm²",
        uncompacted.len(),
        g_uncompacted.area_mm2(&model)
    );

    // --- fault model ---
    let mut rng = StdRng::seed_from_u64(1);
    let patterns: Vec<Pattern> = (0..256)
        .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
        .collect();
    let mut sa = FaultSim::new(&circuit, FaultList::stuck_at_collapsed(&circuit));
    sa.simulate(&patterns);
    let mut mixed = FaultSim::new(&circuit, FaultList::mixed_model(&circuit));
    mixed.simulate(&patterns);
    println!("[ablation] fault model on c432, 256 random patterns:");
    println!("  stuck-at only: {}", sa.report());
    println!("  mixed model  : {}", mixed.report());
}

fn bench(c: &mut Criterion) {
    ablation_report();
    let circuit = iscas85::circuit("c432").expect("known benchmark");
    let patterns = pseudo_random_patterns(paper_poly(), circuit.inputs().len(), 256);

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("faultsim_stuck_at_only", |b| {
        let faults = FaultList::stuck_at_collapsed(&circuit);
        b.iter_batched(
            || FaultSim::new(&circuit, faults.clone()),
            |mut sim| sim.simulate(&patterns),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("faultsim_mixed_model", |b| {
        let faults = FaultList::mixed_model(&circuit);
        b.iter_batched(
            || FaultSim::new(&circuit, faults.clone()),
            |mut sim| sim.simulate(&patterns),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
