//! Naive single-pair reference semantics for transition faults.
//!
//! [`detects`] re-derives detection from first principles — full-circuit
//! good evaluation of both vectors, explicit faulty re-evaluation of the
//! capture vector — with none of the packing, dropping or cone pruning of
//! the packed `FaultSim<'_, TransitionFault>`. Property tests pit the two
//! against each other.

use bist_logicsim::Pattern;
use bist_netlist::{Circuit, GateKind};

use crate::model::TransitionFault;

/// Evaluates every node of `circuit` under `pattern` (bit `i` of the
/// pattern drives input `i`), returning one value per node.
fn good_values(circuit: &Circuit, pattern: &Pattern) -> Vec<bool> {
    let mut values = vec![false; circuit.num_nodes()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        values[pi.index()] = pattern.get(i);
    }
    let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        match node.kind() {
            GateKind::Input => {}
            GateKind::Dff => values[id.index()] = false,
            kind => {
                fanin_buf.clear();
                fanin_buf.extend(node.fanin().iter().map(|f| u64::from(values[f.index()])));
                values[id.index()] = kind.eval_word(&fanin_buf) & 1 == 1;
            }
        }
    }
    values
}

/// Evaluates `circuit` under `pattern` with `fault` active: the faulted
/// line is forced to its initial value (the launch is assumed to have
/// happened; callers check it separately).
fn faulty_values(circuit: &Circuit, fault: TransitionFault, pattern: &Pattern) -> Vec<bool> {
    let init = fault.initial_value();
    let mut values = vec![false; circuit.num_nodes()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        values[pi.index()] = pattern.get(i);
    }
    if fault.pin.is_none() && circuit.node(fault.site).kind() == GateKind::Input {
        values[fault.site.index()] = init;
    }
    let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        match node.kind() {
            GateKind::Input => {}
            GateKind::Dff => values[id.index()] = false,
            kind => {
                fanin_buf.clear();
                for (k, f) in node.fanin().iter().enumerate() {
                    let forced = fault.pin == Some(k as u8) && id == fault.site;
                    let v = if forced { init } else { values[f.index()] };
                    fanin_buf.push(u64::from(v));
                }
                values[id.index()] = kind.eval_word(&fanin_buf) & 1 == 1;
                if fault.pin.is_none() && id == fault.site {
                    values[id.index()] = init;
                }
            }
        }
    }
    values
}

/// True if the ordered pair `(v1, v2)` detects `fault`: the faulted line
/// launches the target transition between the two vectors and the retained
/// value differs from the good machine at some primary output under `v2`.
///
/// # Example
///
/// ```
/// use bist_delay::{serial, Transition, TransitionFault};
/// use bist_logicsim::Pattern;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let a = c17.inputs()[0];
/// let fault = TransitionFault::stem(a, Transition::SlowToRise);
/// let v1: Pattern = "00000".parse()?;
/// let same = serial::detects(&c17, fault, &v1, &v1);
/// assert!(!same, "no transition is launched by a repeated vector");
/// # Ok::<(), bist_logicsim::ParsePatternError>(())
/// ```
pub fn detects(circuit: &Circuit, fault: TransitionFault, v1: &Pattern, v2: &Pattern) -> bool {
    let g1 = good_values(circuit, v1);
    let g2 = good_values(circuit, v2);
    let driver = fault.driver(circuit);
    let init = fault.initial_value();
    let launched = g1[driver.index()] == init && g2[driver.index()] != init;
    if !launched {
        return false;
    }
    let f2 = faulty_values(circuit, fault, v2);
    circuit
        .outputs()
        .iter()
        .any(|&o| f2[o.index()] != g2[o.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Transition, TransitionFaultList};
    use bist_faultsim::FaultSim;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn agrees_with_packed_engine_on_c17_pairs() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let v1 = Pattern::random(&mut rng, 5);
            let v2 = Pattern::random(&mut rng, 5);
            let fi = rng.gen_range(0..faults.len());
            let fault = *faults.get(fi).unwrap();

            let naive = detects(&c17, fault, &v1, &v2);

            let single: TransitionFaultList = [fault].into_iter().collect();
            let mut sim = FaultSim::new(&c17, single);
            sim.simulate(&[v1.clone(), v2.clone()]);
            let packed = sim.report().detected == 1;
            assert_eq!(naive, packed, "{} on ({v1}, {v2})", fault.describe(&c17));
        }
    }

    #[test]
    fn launch_direction_is_respected() {
        let c17 = bist_netlist::iscas85::c17();
        let a = c17.inputs()[0];
        let rise = TransitionFault::stem(a, Transition::SlowToRise);
        let fall = TransitionFault::stem(a, Transition::SlowToFall);
        let lo = Pattern::zeros(5);
        let mut hi = Pattern::zeros(5);
        hi.set(0, true);
        // make side inputs propagate: brute-force over remaining bits
        let mut rise_hit = false;
        let mut fall_hit = false;
        for v in 0u32..32 {
            let mut p1 = lo.clone();
            let mut p2 = hi.clone();
            for b in 1..5 {
                p1.set(b, (v >> b) & 1 == 1);
                p2.set(b, (v >> b) & 1 == 1);
            }
            if detects(&c17, rise, &p1, &p2) {
                rise_hit = true;
                assert!(!detects(&c17, rise, &p2, &p1), "opposite order must fail");
            }
            if detects(&c17, fall, &p2, &p1) {
                fall_hit = true;
            }
        }
        assert!(rise_hit && fall_hit);
    }
}
