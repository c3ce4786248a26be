//! Cross-engine consistency tests: every independent implementation of the
//! same semantics must agree (bit-parallel vs naive simulation, PPSFP vs
//! serial fault grading, software LFSR vs synthesized hardware, PODEM
//! tests vs fault-simulator verdicts).

use bist_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn packed_vs_naive_on_three_profiles() {
    let mut rng = StdRng::seed_from_u64(2024);
    for name in ["c432", "c499", "c880"] {
        let c = iscas85::circuit(name).unwrap();
        let patterns: Vec<Pattern> = (0..64)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();
        let block = bist_logicsim::PatternBlock::pack(&c, &patterns);
        let mut sim = PackedSim::new(&c);
        let outs = sim.run(&block);
        for (j, p) in patterns.iter().enumerate() {
            let naive = bist_logicsim::naive_eval(&c, &p.to_bits());
            for (o, out_id) in c.outputs().iter().enumerate() {
                assert_eq!(
                    (outs[o] >> j) & 1 == 1,
                    naive[out_id.index()],
                    "{name}: output {o}, pattern {j}"
                );
            }
        }
    }
}

#[test]
fn ppsfp_vs_serial_on_c880_sampled_universe() {
    let c = iscas85::circuit("c880").unwrap();
    let universe = FaultList::mixed_model(&c);
    let sampled: FaultList = universe
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % 23 == 0)
        .map(|(_, f)| f)
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let patterns: Vec<Pattern> = (0..120)
        .map(|_| Pattern::random(&mut rng, c.inputs().len()))
        .collect();

    let serial = bist_faultsim::serial::grade_sequence(&c, sampled.faults(), &patterns);
    let mut ppsfp = FaultSim::new(&c, sampled.clone());
    ppsfp.simulate(&patterns);
    for (i, &graded) in serial.iter().enumerate() {
        assert_eq!(
            graded,
            ppsfp.first_detection(i),
            "fault {}",
            sampled.get(i).unwrap().describe(&c)
        );
    }
}

#[test]
fn podem_patterns_verified_by_independent_grader() {
    let c = iscas85::circuit("c1355").unwrap();
    let faults = FaultList::stuck_at_collapsed(&c);
    let mut checked = 0;
    for fault in faults.iter().step_by(31) {
        let Fault::StuckAt { site, pin, value } = *fault else {
            continue;
        };
        let outcome = bist_atpg::podem(
            &c,
            bist_logicsim::InjectedFault {
                site,
                pin,
                stuck: value,
            },
            bist_atpg::PodemOptions::default(),
        );
        if let bist_atpg::PodemOutcome::Test(p) = outcome {
            assert!(
                bist_faultsim::serial::detects(&c, *fault, None, &p),
                "PODEM pattern fails independent grading for {}",
                fault.describe(&c)
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "too few faults exercised ({checked})");
}

#[test]
fn lfsrom_software_eval_equals_hardware_replay() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut seq: Vec<Pattern> = Vec::new();
    while seq.len() < 20 {
        let p = Pattern::random(&mut rng, 12);
        if !seq.contains(&p) {
            seq.push(p); // distinct patterns: the state *is* the pattern
        }
    }
    let generator = LfsromGenerator::synthesize(&seq).unwrap();
    assert_eq!(generator.extra_flip_flops(), 0);
    // software: iterate the next-state network
    let net = generator.network();
    let mut state = seq[0].clone();
    let mut software = vec![state.clone()];
    for _ in 1..seq.len() {
        state = net.eval(&state);
        software.push(state.clone());
    }
    assert_eq!(software, seq);
    // hardware: clock the netlist
    assert_eq!(generator.replay(seq.len()), seq);
}

/// One LFSROM-shaped network pinned by the SHA-256 of its PLA dump: a
/// seeded sequence of 300 patterns, 233 bits wide like c2670's, with
/// three repeats that add two disambiguation flip-flops.
#[test]
fn lfsrom_network_is_pinned() {
    let mut rng = StdRng::seed_from_u64(2670);
    let mut seq: Vec<Pattern> = (0..300).map(|_| Pattern::random(&mut rng, 233)).collect();
    seq[100] = seq[7].clone();
    seq[200] = seq[7].clone();
    seq[250] = seq[42].clone();
    let generator = LfsromGenerator::synthesize(&seq).unwrap();
    assert_eq!(generator.extra_flip_flops(), 2);
    let network = generator.network();
    assert_eq!((network.num_terms(), network.num_literals()), (4754, 26432));
    assert_eq!(
        bist_engine::digest::sha256_hex(network.to_string().as_bytes()),
        "c593c78764c85506ff6f4c408f47b556e701672cddc8baef6ef538f7f1f0b540"
    );
}

#[test]
fn incremental_imply_equals_full_imply() {
    use bist_logicsim::{FiveValueSim, InjectedFault};
    let c = iscas85::circuit("c432").unwrap();
    let fault = InjectedFault {
        site: c.outputs()[0],
        pin: None,
        stuck: false,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let mut incremental = FiveValueSim::new(&c, Some(fault));
    incremental.imply();
    let mut reference = FiveValueSim::new(&c, Some(fault));
    for step in 0..200 {
        let pi = rand::Rng::gen_range(&mut rng, 0..c.inputs().len());
        let v = match rand::Rng::gen_range(&mut rng, 0..3) {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        };
        incremental.set_input(pi, v);
        incremental.imply_from_input(pi);
        reference.set_input(pi, v);
        reference.imply();
        for idx in 0..c.num_nodes() {
            let id = bist_netlist::NodeId::from_index(idx);
            assert_eq!(
                incremental.value(id),
                reference.value(id),
                "step {step}: node {id} diverged"
            );
        }
    }

    // PODEM's use of the trail: decide (imply one more input), flip
    // (restore the top decision's mark, imply the other value) and undo
    // (restore the mark, unassign) must leave every in-scope node as a
    // fresh full implication of the remaining assignment computes it. A
    // detect search is scoped to the fan-in closure of its fault's
    // fan-out cone, a justification search to that of its requirements.
    decide_flip_undo_equals_full_imply(detect_scope(&c, fault), 4);
    let c499 = iscas85::circuit("c499").unwrap();
    let xor = c499
        .topo_order()
        .iter()
        .copied()
        .find(|&id| {
            let node = c499.node(id);
            node.kind() == bist_netlist::GateKind::Xor && node.fanin().len() >= 2
        })
        .expect("c499 is XOR-rich");
    let pin_fault = InjectedFault {
        site: xor,
        pin: Some(1),
        stuck: true,
    };
    decide_flip_undo_equals_full_imply(detect_scope(&c499, pin_fault), 5);

    // an internal c2670 fault whose scope is well under the circuit: the
    // first gate whose detect scope holds 10-30 % of the nodes
    let c2670 = iscas85::circuit("c2670").unwrap();
    let sim = c2670
        .topo_order()
        .iter()
        .filter(|&&id| c2670.node(id).kind().is_combinational())
        .map(|&site| {
            let fault = InjectedFault {
                site,
                pin: None,
                stuck: false,
            };
            detect_scope(&c2670, fault)
        })
        .find(|sim| (10..=30).contains(&(100 * scope_size(sim) / c2670.num_nodes())))
        .expect("c2670 has small detect scopes");
    decide_flip_undo_equals_full_imply(sim, 6);

    // a justification scope: two c432 outputs, no fault
    let reqs = [c.outputs()[1], c.outputs()[4]];
    decide_flip_undo_equals_full_imply(FiveValueSim::scoped(&c, None, reqs), 7);
}

/// The simulator of a PODEM detect search for `fault`: scoped to the fan-in
/// closure of the fault's fan-out cone.
fn detect_scope(
    c: &Circuit,
    fault: bist_logicsim::InjectedFault,
) -> bist_logicsim::FiveValueSim<'_> {
    bist_logicsim::FiveValueSim::scoped(c, Some(fault), c.fanout_cone(fault.site))
}

/// Number of nodes `sim` implies.
fn scope_size(sim: &bist_logicsim::FiveValueSim<'_>) -> usize {
    let c = sim.circuit();
    (0..c.num_nodes())
        .filter(|&i| sim.in_scope(bist_netlist::NodeId::from_index(i)))
        .count()
}

/// Random decide / flip / undo sequences over the undo trail of `sim`,
/// choosing among the inputs in its scope. The scope must be fan-in closed
/// and smaller than the circuit; after every step each in-scope node is
/// checked against a fresh unscoped full `imply()`.
fn decide_flip_undo_equals_full_imply(mut sim: bist_logicsim::FiveValueSim<'_>, seed: u64) {
    use bist_logicsim::FiveValueSim;
    use bist_netlist::NodeId;
    use rand::Rng;
    let c = sim.circuit();
    let fault = sim.fault();
    for idx in 0..c.num_nodes() {
        let id = NodeId::from_index(idx);
        if sim.in_scope(id) && c.node(id).kind().is_combinational() {
            for &f in c.node(id).fanin() {
                assert!(sim.in_scope(f), "{}: scope not fan-in closed", c.name());
            }
        }
    }
    assert!(
        scope_size(&sim) < c.num_nodes(),
        "{}: a proper scope",
        c.name()
    );
    let inputs: Vec<usize> = (0..c.inputs().len())
        .filter(|&i| sim.in_scope(c.inputs()[i]))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    sim.imply();
    // (input, value, trail mark before the decision)
    let mut stack: Vec<(usize, bool, usize)> = Vec::new();
    let mut assigned: Vec<Option<bool>> = vec![None; c.inputs().len()];
    let mut ops = [0usize; 3];
    for step in 0..600 {
        let op = match rng.gen_range(0..10) {
            _ if stack.is_empty() => 0,
            _ if stack.len() == inputs.len() => 2,
            0..=4 => 0,
            5..=7 => 1,
            _ => 2,
        };
        ops[op] += 1;
        match op {
            0 => {
                let free: Vec<usize> = inputs
                    .iter()
                    .copied()
                    .filter(|&i| assigned[i].is_none())
                    .collect();
                let pi = free[rng.gen_range(0..free.len())];
                let value = rng.gen::<bool>();
                stack.push((pi, value, sim.trail_mark()));
                sim.set_input(pi, Some(value));
                sim.imply_from_input(pi);
                assigned[pi] = Some(value);
            }
            1 => {
                let (pi, value, mark) = stack.pop().expect("non-empty");
                sim.undo_to(mark);
                sim.set_input(pi, Some(!value));
                sim.imply_from_input(pi);
                stack.push((pi, !value, mark));
                assigned[pi] = Some(!value);
            }
            _ => {
                let (pi, _, mark) = stack.pop().expect("non-empty");
                sim.undo_to(mark);
                sim.set_input(pi, None);
                assigned[pi] = None;
            }
        }
        let mut reference = FiveValueSim::new(c, fault);
        for (pi, &value) in assigned.iter().enumerate() {
            reference.set_input(pi, value);
        }
        reference.imply();
        for idx in 0..c.num_nodes() {
            let id = NodeId::from_index(idx);
            if sim.in_scope(id) {
                assert_eq!(
                    sim.value(id),
                    reference.value(id),
                    "{}: step {step} (op {op}): node {id} diverged",
                    c.name()
                );
            }
        }
    }
    assert!(
        ops.iter().all(|&n| n > 50),
        "every operation exercised: {ops:?}"
    );
}
