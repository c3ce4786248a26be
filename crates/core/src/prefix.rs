//! Prefix grading and the ascending-ladder rule shared by every session.
//!
//! The paper's trade-off is solved on a ladder of prefix lengths `p`.
//! [`solve_ascending`] solves the ladder's distinct points in ascending
//! order and answers in request order, so a [`PrefixGrader`] only ever
//! moves forward and grades each pseudo-random pattern once, however the
//! request list is arranged.

use std::convert::Infallible;

use bist_fault::{Fault, FaultStatus};
use bist_faultsim::{CoverageCurve, CoverageReport, FaultSim, WordFault};
use bist_lfsr::{Lfsr, ScanExpander};
use bist_logicsim::Pattern;
use bist_netlist::Circuit;

use crate::session::{MixedSchemeConfig, SessionStats};

/// Answers `points` in request order, calling `solve` once per distinct
/// point and in ascending order. Repeated points share one answer.
///
/// # Errors
///
/// Stops at, and returns, the first error of `solve`.
pub fn solve_ascending<T: Clone, E>(
    points: &[usize],
    mut solve: impl FnMut(usize) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| points[i]);
    let mut answers: Vec<Option<T>> = points.iter().map(|_| None).collect();
    for group in order.chunk_by(|&a, &b| points[a] == points[b]) {
        if let Some((&first, repeats)) = group.split_first() {
            let answer = solve(points[first])?;
            for &i in repeats {
                answers[i] = Some(answer.clone());
            }
            answers[first] = Some(answer);
        }
    }
    Ok(answers.into_iter().flatten().collect())
}

/// Incremental prefix grading over one fault universe: one simulator
/// advanced monotonically along the scheme's pseudo-random stream, so
/// each prefix pattern is graded once. A request below the front
/// re-grades on a fresh simulator from pattern zero and leaves the
/// shared one untouched.
#[derive(Debug)]
pub struct PrefixGrader<'c, F = Fault> {
    /// The shared simulator; it holds the universe.
    sim: FaultSim<'c, F>,
    /// The stream, positioned at the front.
    expander: ScanExpander,
    /// The stream at its start, for re-grades.
    origin: ScanExpander,
    /// Prefix patterns the shared simulator has consumed.
    front: usize,
}

impl<'c, F: WordFault> PrefixGrader<'c, F> {
    /// A grader of `universe` on `circuit`, along `config`'s
    /// pseudo-random stream and at its pool width.
    pub fn new(
        circuit: &'c Circuit,
        config: &MixedSchemeConfig,
        universe: impl IntoIterator<Item = F>,
    ) -> Self {
        let origin = ScanExpander::new(Lfsr::fibonacci(config.poly, 1), circuit.inputs().len());
        PrefixGrader {
            sim: FaultSim::new(circuit, universe).with_threads(config.threads),
            expander: origin.clone(),
            origin,
            front: 0,
        }
    }

    /// The graded universe.
    pub fn universe(&self) -> &[F] {
        self.sim.faults()
    }

    /// Fault statuses after exactly `p` prefix patterns. The patterns
    /// graded to answer count in `stats`: in
    /// [`SessionStats::patterns_simulated`] at or beyond the front, in
    /// [`SessionStats::patterns_resimulated`] below it.
    pub fn statuses_at(&mut self, p: usize, stats: &mut SessionStats) -> Vec<FaultStatus> {
        if p >= self.front {
            grade(&mut self.sim, &mut self.expander, p - self.front);
            stats.patterns_simulated += p - self.front;
            self.front = p;
            self.sim.statuses().to_vec()
        } else {
            stats.patterns_resimulated += p;
            self.regrade(p, &[]).statuses().to_vec()
        }
    }

    /// The coverage-versus-length curve of the pure pseudo-random
    /// sequence (the paper's Figure 4), in request order. Coverage is
    /// read over the first `reported` faults of the universe.
    pub fn coverage_curve(
        &mut self,
        checkpoints: &[usize],
        reported: usize,
        stats: &mut SessionStats,
    ) -> CoverageCurve {
        let Ok(coverage) = solve_ascending(checkpoints, |p| {
            let mut statuses = self.statuses_at(p, stats);
            statuses.truncate(reported);
            Ok::<_, Infallible>(CoverageReport::from_statuses(&statuses).coverage_pct())
        });
        CoverageCurve::new(checkpoints.iter().copied().zip(coverage).collect())
    }

    /// A fresh simulator over the universe, at the shared one's width,
    /// that has graded the first `p` prefix patterns and then `suffix`.
    pub fn regrade(&self, p: usize, suffix: &[Pattern]) -> FaultSim<'c, F> {
        let mut sim = FaultSim::new(self.sim.circuit(), self.universe().iter().copied())
            .with_threads(self.sim.threads());
        grade(&mut sim, &mut self.origin.clone(), p);
        sim.simulate(suffix);
        sim
    }

    /// The first `p` patterns of the stream.
    pub fn prefix(&self, p: usize) -> Vec<Pattern> {
        self.origin.clone().patterns(p)
    }
}

/// Grades the next `count` patterns of `stream` on `sim`, one 64-pattern
/// block at a time: the blocks a single call over all of them forms,
/// without holding more than one block of patterns.
fn grade<F: WordFault>(sim: &mut FaultSim<'_, F>, stream: &mut ScanExpander, count: usize) {
    let mut left = count;
    while left > 0 {
        let block = left.min(64);
        sim.simulate(&stream.patterns(block));
        left -= block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_ascending_solves_each_point_once_in_order() {
        let mut calls = Vec::new();
        let answers = solve_ascending(&[16, 0, 8, 16, 0], |p| {
            calls.push(p);
            Ok::<_, Infallible>(p * 10)
        });
        assert_eq!(answers, Ok(vec![160, 0, 80, 160, 0]));
        assert_eq!(calls, vec![0, 8, 16]);
    }

    #[test]
    fn solve_ascending_stops_at_the_first_error() {
        let mut calls = Vec::new();
        let answers = solve_ascending(&[30, 10, 20], |p| {
            calls.push(p);
            if p == 20 {
                Err(p)
            } else {
                Ok(p)
            }
        });
        assert_eq!(answers, Err(20));
        assert_eq!(calls, vec![10, 20]);
    }
}
