//! Output checks: the `results_digest`, re-grading every solved point,
//! and byte-identity of served results with in-process cold runs.

use bist_cli::render;
use bist_core::MixedSolution;
use bist_engine::digest::sha256_hex;
use bist_engine::JobResult;
use bist_fault::FaultList;
use bist_faultsim::{CoverageReport, FaultSim};
use bist_netlist::Circuit;

fn report(r: &CoverageReport) -> String {
    format!(
        "det={} red={} abt={} und={}",
        r.detected, r.redundant, r.aborted, r.undetected
    )
}

/// One solved point as digest text: `(p, d)`, both coverage reports
/// (abort counts included), both areas as IEEE-754 bits, and the
/// deterministic patterns themselves.
pub fn solution_line(s: &MixedSolution) -> String {
    let patterns: Vec<String> = s
        .generator
        .deterministic()
        .iter()
        .map(ToString::to_string)
        .collect();
    format!(
        "p={} d={} cov[{}] prefix[{}] area={:016x} chip={:016x} det={}",
        s.prefix_len,
        s.det_len,
        report(&s.coverage),
        report(&s.prefix_coverage),
        s.generator_area_mm2.to_bits(),
        s.chip_area_mm2.to_bits(),
        sha256_hex(patterns.join(",").as_bytes()),
    )
}

/// A result's digest text. Session work counters are left out: one of
/// them (`podem_cache_hits`) depends on the pool width.
pub fn result_lines(result: &JobResult) -> Vec<String> {
    let mut lines = vec![format!("circuit {}", result.circuit())];
    match result {
        JobResult::SolveAt(o) => lines.push(solution_line(&o.solution)),
        JobResult::Sweep(o) => lines.extend(o.summary.solutions().iter().map(solution_line)),
        JobResult::CoverageCurve(o) => {
            lines.push(format!("universe {}", o.fault_universe));
            lines.extend(
                o.curve
                    .points()
                    .iter()
                    .map(|(len, pct)| format!("len={len} cov={:016x}", pct.to_bits())),
            );
        }
        JobResult::CoverageEstimate(o) => lines.push(format!(
            "universe={} reps={} p={} samples={} hit={} est={:016x} lo={:016x} hi={:016x} conf={} seed={}",
            o.fault_universe,
            o.representatives,
            o.prefix_len,
            o.samples,
            o.detected_samples,
            o.estimate_pct.to_bits(),
            o.lo_pct.to_bits(),
            o.hi_pct.to_bits(),
            o.confidence,
            o.seed
        )),
        other => lines.push(format!("unchecked {}", render::result_text(other))),
    }
    lines
}

/// SHA-256 over the digest text of `results`, in order.
pub fn results_digest<'r>(results: impl IntoIterator<Item = &'r JobResult>) -> String {
    let text: Vec<String> = results.into_iter().flat_map(result_lines).collect();
    sha256_hex(text.join("\n").as_bytes())
}

/// The solved points of a result (none for curves and estimates).
pub fn solutions(result: &JobResult) -> &[MixedSolution] {
    match result {
        JobResult::SolveAt(o) => std::slice::from_ref(&o.solution),
        JobResult::Sweep(o) => o.summary.solutions(),
        _ => &[],
    }
}

/// Re-grades a solved point: the generator's pseudo-random prefix
/// followed by its deterministic suffix, on a fresh simulator over the
/// mixed fault universe, must detect at least the reported count.
pub fn grade_solution(circuit: &Circuit, s: &MixedSolution) -> Result<(), String> {
    let generator = &s.generator;
    if generator.expected_random().len() != s.prefix_len
        || generator.deterministic().len() != s.det_len
    {
        return Err(format!(
            "{} p={}: generator holds {}+{} patterns, point says {}+{}",
            circuit.name(),
            s.prefix_len,
            generator.expected_random().len(),
            generator.deterministic().len(),
            s.prefix_len,
            s.det_len
        ));
    }
    let mut sequence = generator.expected_random().to_vec();
    sequence.extend_from_slice(generator.deterministic());
    let mut sim = FaultSim::new(circuit, FaultList::mixed_model(circuit));
    sim.simulate(&sequence);
    let detected = sim.report().detected;
    if detected < s.coverage.detected {
        return Err(format!(
            "{} p={}: the generator's sequence detects {detected} faults, {} reported",
            circuit.name(),
            s.prefix_len,
            s.coverage.detected
        ));
    }
    Ok(())
}

/// What `bist` prints for a result, in both output formats.
pub fn rendered(result: &JobResult) -> String {
    format!(
        "{}\n{}",
        render::result_json(result).render_pretty(),
        render::result_text(result)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_engine::{CircuitSource, Engine, JobSpec};

    #[test]
    fn digest_is_stable_and_ignores_the_pool_width() {
        let spec = JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]);
        let one = Engine::with_threads(1)
            .run(spec.clone())
            .expect("c17 sweep");
        let two = Engine::with_threads(2).run(spec).expect("c17 sweep");
        assert_eq!(results_digest([&one]), results_digest([&two]));
        assert_eq!(results_digest([&one]).len(), 64);
        let other = Engine::with_threads(1)
            .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4]))
            .expect("c17 sweep");
        assert_ne!(results_digest([&one]), results_digest([&other]));
    }

    #[test]
    fn grading_accepts_real_points_and_rejects_inflated_ones() {
        let c17 = bist_netlist::iscas85::c17();
        let result = Engine::with_threads(1)
            .run(JobSpec::solve_at(CircuitSource::iscas85("c17"), 4))
            .expect("c17 solve");
        let mut solution = solutions(&result)[0].clone();
        grade_solution(&c17, &solution).expect("a real point re-grades");
        solution.coverage.detected += 1;
        assert!(grade_solution(&c17, &solution).is_err());
        solution.det_len += 1;
        assert!(grade_solution(&c17, &solution).is_err());
    }
}
