//! The transition-delay model on the word-parallel engine.
//!
//! Patterns are applied as one continuous sequence — exactly what a BIST
//! generator does — so pattern `t-1` doubles as the initialization vector
//! of pattern `t` (launch-on-capture). A [`TransitionFault`] is detected
//! at step `t` when the faulted line transitions between `t-1` and `t` in
//! the good machine (launch) and the line's erroneously retained value is
//! observed at a primary output under pattern `t` (capture). The model
//! contributes only the launch mask and the retained-value seed word;
//! `FaultSim<'_, TransitionFault>` does the rest.

use bist_faultsim::{BlockCtx, Seeds, WordFault};

use crate::model::TransitionFault;

impl WordFault for TransitionFault {
    /// The retained-value seed at the effect site: where the launch mask
    /// excites the fault, the line (stem) or the gate input (branch)
    /// erroneously keeps its initial value through capture.
    fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds {
        let g = ctx.graph;
        let site = self.site.index();
        let excite = launch_mask(ctx, *self);
        if excite & ctx.valid == 0 {
            return Seeds::NONE;
        }
        let init_word = if self.initial_value() { !0u64 } else { 0 };
        let fv = match self.pin {
            None => {
                // The stem erroneously retains the initial value where
                // excited; elsewhere it follows the good machine.
                let good = ctx.good[site];
                (good & !excite) | (init_word & excite)
            }
            Some(p) => {
                // Only the branch into pin `p` is late: re-evaluate the gate
                // with that pin forced to the initial value where excited.
                g.kind(site)
                    .eval_word_iter(g.fanin(site).iter().enumerate().map(|(k, &f)| {
                        let good = ctx.good[f as usize];
                        if k == p as usize {
                            (good & !excite) | (init_word & excite)
                        } else {
                            good
                        }
                    }))
            }
        };
        let diff = (fv ^ ctx.good[site]) & ctx.valid;
        if diff == 0 {
            return Seeds::NONE;
        }
        Seeds::one(site as u32, fv)
    }
}

/// Word of patterns where the faulted line launches its transition:
/// driver held the initial value at `t-1` and the final value at `t`.
fn launch_mask(ctx: &BlockCtx<'_>, fault: TransitionFault) -> u64 {
    let driver = match fault.pin {
        None => fault.site.index(),
        Some(p) => ctx.graph.fanin(fault.site.index())[p as usize] as usize,
    };
    let g = ctx.good[driver];
    let before = ctx.prev[driver];
    let init = fault.initial_value();
    let was_init = if init { before } else { !before };
    let is_final = if init { !g } else { g };
    was_init & is_final
}

#[cfg(test)]
mod tests {
    use crate::model::{Transition, TransitionFault, TransitionFaultList};
    use bist_fault::FaultStatus;
    use bist_faultsim::FaultSim;
    use bist_logicsim::Pattern;
    use bist_netlist::GateKind;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_sequence(width: usize, count: usize, seed: u64) -> Vec<Pattern> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| Pattern::random(&mut rng, width))
            .collect()
    }

    #[test]
    fn c17_random_sequence_reaches_full_transition_coverage() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        let total = faults.len();
        let mut sim = FaultSim::new(&c17, faults);
        sim.simulate(&random_sequence(5, 3000, 7));
        assert_eq!(
            sim.report().detected,
            total,
            "c17 transition faults are all two-pattern testable"
        );
    }

    #[test]
    fn single_pattern_detects_nothing() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        assert_eq!(sim.simulate(&[Pattern::from_fn(5, |_| true)]), 0);
    }

    #[test]
    fn repeated_pattern_launches_nothing() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        let p = Pattern::from_fn(5, |i| i % 2 == 0);
        assert_eq!(sim.simulate(&[p.clone(), p.clone(), p]), 0);
    }

    #[test]
    fn hand_checked_buffer_chain() {
        // a -> buf -> y : slow-to-rise at "a" is detected exactly by the
        // ordered pair (0, 1); slow-to-fall by (1, 0).
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("chain");
        b.add_input("a").unwrap();
        b.add_gate("y", GateKind::Buf, &["a"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let a = c.find("a").unwrap();

        let rise: TransitionFaultList = [TransitionFault::stem(a, Transition::SlowToRise)]
            .into_iter()
            .collect();
        let mut sim = FaultSim::new(&c, rise.clone());
        let zero = Pattern::from_bits(&[false]);
        let one = Pattern::from_bits(&[true]);
        sim.simulate(&[zero.clone(), one.clone()]);
        assert_eq!(sim.report().detected, 1);
        assert_eq!(sim.first_detection(0), Some(1), "capture happens at t=1");

        let mut sim = FaultSim::new(&c, rise);
        sim.simulate(&[one.clone(), zero.clone()]);
        assert_eq!(
            sim.report().detected,
            0,
            "falling pair cannot launch a rise"
        );

        let fall: TransitionFaultList = [TransitionFault::stem(a, Transition::SlowToFall)]
            .into_iter()
            .collect();
        let mut sim = FaultSim::new(&c, fall);
        sim.simulate(&[one, zero]);
        assert_eq!(sim.report().detected, 1);
    }

    #[test]
    fn branch_fault_requires_propagation_through_its_gate_only() {
        // stem s fans out to AND(s, en) and to output y2 = BUF(s).
        // The branch fault s->AND slow-to-rise needs en=1 at capture;
        // the stem fault is observable through the buffer regardless.
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("fan");
        b.add_input("s").unwrap();
        b.add_input("en").unwrap();
        b.add_gate("y1", GateKind::And, &["s", "en"]).unwrap();
        b.add_gate("y2", GateKind::Buf, &["s"]).unwrap();
        b.mark_output("y1").unwrap();
        b.mark_output("y2").unwrap();
        let c = b.build().unwrap();
        let y1 = c.find("y1").unwrap();
        let s = c.find("s").unwrap();

        let faults: TransitionFaultList = [
            TransitionFault::branch(y1, 0, Transition::SlowToRise),
            TransitionFault::stem(s, Transition::SlowToRise),
        ]
        .into_iter()
        .collect();

        // launch s: 0 -> 1 with en=0 at capture: branch undetected, stem
        // detected via y2
        let mut sim = FaultSim::new(&c, faults.clone());
        sim.simulate(&[
            Pattern::from_bits(&[false, false]),
            Pattern::from_bits(&[true, false]),
        ]);
        assert_eq!(sim.status_of(0), FaultStatus::Undetected);
        assert_eq!(sim.status_of(1), FaultStatus::Detected);

        // same launch with en=1 at capture: both detected
        let mut sim = FaultSim::new(&c, faults);
        sim.simulate(&[
            Pattern::from_bits(&[false, true]),
            Pattern::from_bits(&[true, true]),
        ]);
        assert_eq!(sim.status_of(0), FaultStatus::Detected);
        assert_eq!(sim.status_of(1), FaultStatus::Detected);
    }

    #[test]
    fn chunked_equals_monolithic() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = TransitionFaultList::universe(&c);
        let patterns = random_sequence(c.inputs().len(), 300, 42);

        let mut mono = FaultSim::new(&c, faults.clone());
        mono.simulate(&patterns);

        let mut chunked = FaultSim::new(&c, faults);
        for chunk in patterns.chunks(37) {
            chunked.simulate(chunk);
        }
        assert_eq!(mono.statuses(), chunked.statuses());
        for i in 0..mono.faults().len() {
            assert_eq!(
                mono.first_detection(i),
                chunked.first_detection(i),
                "fault {i}"
            );
        }
    }

    #[test]
    fn parallel_grading_is_bit_identical_to_serial() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = TransitionFaultList::universe(&c);
        let patterns = random_sequence(c.inputs().len(), 400, 7);

        let mut serial = FaultSim::new(&c, faults.clone()).with_threads(1);
        serial.simulate(&patterns);

        for threads in [2, 4] {
            let mut par = FaultSim::new(&c, faults.clone()).with_threads(threads);
            par.simulate(&patterns);
            assert_eq!(serial.statuses(), par.statuses(), "threads={threads}");
            for i in 0..serial.faults().len() {
                assert_eq!(
                    serial.first_detection(i),
                    par.first_detection(i),
                    "threads={threads}, fault {i}"
                );
            }
            assert_eq!(
                serial.counters(),
                par.counters(),
                "work counters drift at threads={threads}"
            );
        }
    }

    #[test]
    fn transition_coverage_lags_stuck_at_coverage() {
        // the paper's premise: the same random sequence detects fewer
        // delay faults than stuck-at faults (two-pattern tests are rarer)
        let c = bist_netlist::iscas85::circuit("c880").unwrap();
        let patterns = random_sequence(c.inputs().len(), 128, 880);

        let tf = TransitionFaultList::universe(&c);
        let mut tsim = FaultSim::new(&c, tf);
        tsim.simulate(&patterns);

        let sa = bist_fault::FaultList::stuck_at_collapsed(&c);
        let mut ssim = FaultSim::new(&c, sa);
        ssim.simulate(&patterns);

        assert!(
            tsim.report().coverage_pct() < ssim.report().coverage_pct(),
            "transition {:.2}% vs stuck-at {:.2}%",
            tsim.report().coverage_pct(),
            ssim.report().coverage_pct()
        );
    }
}
