use std::fmt;

use bist_netlist::{Circuit, GateKind, NodeId};

/// The direction of the late transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transition {
    /// The node rises too slowly: under the second pattern it still shows
    /// the *initial* value `0`.
    SlowToRise,
    /// The node falls too slowly: under the second pattern it still shows
    /// the *initial* value `1`.
    SlowToFall,
}

impl Transition {
    /// Both directions, for iteration.
    pub const BOTH: [Transition; 2] = [Transition::SlowToRise, Transition::SlowToFall];

    /// The value the node holds *before* the (late) transition — also the
    /// value the faulty node erroneously retains under the second pattern.
    pub fn initial_value(self) -> bool {
        matches!(self, Transition::SlowToFall)
    }

    /// The value the fault-free node reaches under the second pattern.
    pub fn final_value(self) -> bool {
        !self.initial_value()
    }

    /// The opposite direction.
    pub fn opposite(self) -> Transition {
        match self {
            Transition::SlowToRise => Transition::SlowToFall,
            Transition::SlowToFall => Transition::SlowToRise,
        }
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Transition::SlowToRise => "slow-to-rise",
            Transition::SlowToFall => "slow-to-fall",
        })
    }
}

/// A gate-level transition (gross-delay) fault.
///
/// A transition fault at a node means the node's output transition is so
/// late that, at capture time of the *next* pattern, the node still shows
/// its old value. Under the standard consecutive-pattern application of a
/// BIST generator — each pattern's predecessor is the initialization
/// vector — detection requires the ordered pair *(V1, V2)* where V1 sets
/// the site to the initial value and V2 both launches the transition and
/// propagates the (temporarily) stuck value to a primary output. This is
/// precisely the "much more realistic and complex" fault class the paper's
/// sections 2.2/3.1 argue pseudo-random sequences handle poorly and the
/// deterministic LFSROM suffix exists to cover.
///
/// Like stuck-at faults, transition faults live on a stem (`pin: None`) or
/// on the fan-out branch feeding pin `pin` of gate `site`.
///
/// # Example
///
/// ```
/// use bist_delay::{Transition, TransitionFault};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let f = TransitionFault::stem(g10, Transition::SlowToRise);
/// assert_eq!(f.initial_value(), false);
/// assert_eq!(f.describe(&c17), "G10 slow-to-rise");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionFault {
    /// Faulted node (the gate whose input pin is late, for branch faults).
    pub site: NodeId,
    /// Fan-in pin index for branch faults, `None` for stem faults.
    pub pin: Option<u8>,
    /// Direction of the late transition.
    pub transition: Transition,
}

impl TransitionFault {
    /// A stem transition fault on `site`.
    pub fn stem(site: NodeId, transition: Transition) -> Self {
        TransitionFault {
            site,
            pin: None,
            transition,
        }
    }

    /// A branch transition fault as seen by fan-in `pin` of gate `site`.
    pub fn branch(site: NodeId, pin: u8, transition: Transition) -> Self {
        TransitionFault {
            site,
            pin: Some(pin),
            transition,
        }
    }

    /// The value the faulty line shows under the second pattern.
    pub fn initial_value(&self) -> bool {
        self.transition.initial_value()
    }

    /// The line whose transition is late: the stem itself, or the branch's
    /// *driver* stem for branch faults.
    pub fn driver(&self, circuit: &Circuit) -> NodeId {
        match self.pin {
            None => self.site,
            Some(p) => circuit.node(self.site).fanin()[p as usize],
        }
    }

    /// Human-readable description using node names.
    pub fn describe(&self, circuit: &Circuit) -> String {
        match self.pin {
            None => format!("{} {}", circuit.node(self.site).name(), self.transition),
            Some(p) => format!(
                "{}->{} (pin {}) {}",
                circuit.node(self.driver(circuit)).name(),
                circuit.node(self.site).name(),
                p,
                self.transition
            ),
        }
    }
}

/// An ordered universe of transition faults over one circuit.
///
/// # Example
///
/// ```
/// use bist_delay::TransitionFaultList;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let faults = TransitionFaultList::universe(&c17);
/// // c17: 11 nodes carry transition faults, every stem in both directions
/// assert!(faults.len() >= 22);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionFaultList {
    faults: Vec<TransitionFault>,
}

impl TransitionFaultList {
    /// An empty list.
    pub fn new() -> Self {
        TransitionFaultList { faults: Vec::new() }
    }

    /// The standard transition-fault universe: both directions on every
    /// stem (primary inputs and combinational gates; constants and flip-
    /// flops carry no transitions), plus both directions on every fan-out
    /// branch whose driver stem has fan-out greater than one (single-fan-out
    /// branches are equivalent to their stems and are collapsed away).
    pub fn universe(circuit: &Circuit) -> Self {
        let mut faults = Vec::new();
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            match node.kind() {
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff => continue,
                _ => {}
            }
            for t in Transition::BOTH {
                faults.push(TransitionFault::stem(id, t));
            }
        }
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            if !node.kind().is_combinational() {
                continue;
            }
            for (pin, &driver) in node.fanin().iter().enumerate() {
                if circuit.fanout(driver).len() > 1 {
                    for t in Transition::BOTH {
                        faults.push(TransitionFault::branch(id, pin as u8, t));
                    }
                }
            }
        }
        TransitionFaultList { faults }
    }

    /// Only the stem faults of [`TransitionFaultList::universe`].
    pub fn stems_only(circuit: &Circuit) -> Self {
        let universe = Self::universe(circuit);
        TransitionFaultList {
            faults: universe
                .faults
                .into_iter()
                .filter(|f| f.pin.is_none())
                .collect(),
        }
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the list holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault at `index`.
    pub fn get(&self, index: usize) -> Option<&TransitionFault> {
        self.faults.get(index)
    }

    /// Iterates over the faults in order.
    pub fn iter(&self) -> std::slice::Iter<'_, TransitionFault> {
        self.faults.iter()
    }

    /// The faults as a slice.
    pub fn faults(&self) -> &[TransitionFault] {
        &self.faults
    }

    /// Appends a fault.
    pub fn push(&mut self, fault: TransitionFault) {
        self.faults.push(fault);
    }
}

impl FromIterator<TransitionFault> for TransitionFaultList {
    fn from_iter<I: IntoIterator<Item = TransitionFault>>(iter: I) -> Self {
        TransitionFaultList {
            faults: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a TransitionFaultList {
    type Item = &'a TransitionFault;
    type IntoIter = std::slice::Iter<'a, TransitionFault>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for TransitionFaultList {
    type Item = TransitionFault;
    type IntoIter = std::vec::IntoIter<TransitionFault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_value_conventions() {
        assert!(!Transition::SlowToRise.initial_value());
        assert!(Transition::SlowToRise.final_value());
        assert!(Transition::SlowToFall.initial_value());
        assert!(!Transition::SlowToFall.final_value());
        assert_eq!(Transition::SlowToRise.opposite(), Transition::SlowToFall);
    }

    #[test]
    fn universe_counts_on_c17() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        // 11 stems (5 PIs + 6 NANDs), each both directions = 22 stem faults
        let stems = faults.iter().filter(|f| f.pin.is_none()).count();
        assert_eq!(stems, 22);
        // every branch fault's driver must truly have fanout > 1
        for f in faults.iter().filter(|f| f.pin.is_some()) {
            assert!(c17.fanout(f.driver(&c17)).len() > 1);
        }
        // c17 has multi-fanout stems, so branch faults must exist
        assert!(faults.len() > stems);
    }

    #[test]
    fn stems_only_is_a_subset() {
        let c17 = bist_netlist::iscas85::c17();
        let all = TransitionFaultList::universe(&c17);
        let stems = TransitionFaultList::stems_only(&c17);
        assert!(stems.len() < all.len());
        assert!(stems.iter().all(|f| f.pin.is_none()));
    }

    #[test]
    fn describe_names_stem_and_branch() {
        let c17 = bist_netlist::iscas85::c17();
        let g10 = c17.find("G10").unwrap();
        let stem = TransitionFault::stem(g10, Transition::SlowToFall);
        assert_eq!(stem.describe(&c17), "G10 slow-to-fall");
        let faults = TransitionFaultList::universe(&c17);
        let branch = faults.iter().find(|f| f.pin.is_some()).unwrap();
        let text = branch.describe(&c17);
        assert!(text.contains("->"), "branch description: {text}");
    }

    #[test]
    fn constants_carry_no_stem_faults() {
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("k");
        b.add_input("a").unwrap();
        b.add_gate("one", GateKind::Const1, &[]).unwrap();
        b.add_gate("y", GateKind::And, &["a", "one"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let one = c.find("one").unwrap();
        let faults = TransitionFaultList::universe(&c);
        assert!(faults.iter().all(|f| f.site != one || f.pin.is_some()));
    }
}
