use std::fmt;

use bist_logicsim::Pattern;
use bist_netlist::{BuildCircuitError, CircuitBuilder, GateKind};

use crate::cube::Cube;

/// The function of one network output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputFunc {
    /// Constant output (an output whose care set was one-sided).
    Const(bool),
    /// OR of the listed product terms (indices into the shared term pool).
    Terms(Vec<usize>),
}

/// A multi-output two-level (AND-OR) network with a shared product-term
/// pool — the synthesized "OR2 network" of the LFSROM figures.
///
/// Obtained from [`synthesize_pla`](crate::synthesize_pla); evaluable in
/// software ([`TwoLevelNetwork::eval`]) and emittable as structural gates
/// into a [`CircuitBuilder`] ([`TwoLevelNetwork::emit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelNetwork {
    width: usize,
    terms: Vec<Cube>,
    outputs: Vec<OutputFunc>,
}

impl TwoLevelNetwork {
    /// Assembles a network from parts (used by the synthesizer).
    pub fn new(width: usize, terms: Vec<Cube>, outputs: Vec<OutputFunc>) -> Self {
        TwoLevelNetwork {
            width,
            terms,
            outputs,
        }
    }

    /// Number of input variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of distinct product terms in the AND plane.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The product terms.
    pub fn terms(&self) -> &[Cube] {
        &self.terms
    }

    /// The output functions.
    pub fn outputs(&self) -> &[OutputFunc] {
        &self.outputs
    }

    /// Total number of AND-plane literals.
    pub fn num_literals(&self) -> usize {
        self.terms.iter().map(Cube::num_literals).sum()
    }

    /// Total number of OR-plane connections.
    pub fn or_plane_size(&self) -> usize {
        self.outputs
            .iter()
            .map(|o| match o {
                OutputFunc::Const(_) => 0,
                OutputFunc::Terms(t) => t.len(),
            })
            .sum()
    }

    /// Evaluates the network on one input pattern; returns one bit per
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches.
    pub fn eval(&self, input: &Pattern) -> Pattern {
        assert_eq!(input.len(), self.width, "input width mismatch");
        let term_values: Vec<bool> = self.terms.iter().map(|t| t.contains(input)).collect();
        Pattern::from_fn(self.outputs.len(), |o| match &self.outputs[o] {
            OutputFunc::Const(b) => *b,
            OutputFunc::Terms(ts) => ts.iter().any(|&t| term_values[t]),
        })
    }

    /// Emits the network as structural gates.
    ///
    /// `inputs[v]` names the node driving variable `v`; created node names
    /// are prefixed with `prefix`. Inverters are shared per variable; terms
    /// and outputs become (wide) `AND`/`OR` gates that the area model
    /// decomposes into 2-input cells. Returns the created output node
    /// names, one per network output.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildCircuitError`] (e.g. name collisions with existing
    /// nodes).
    pub fn emit(
        &self,
        builder: &mut CircuitBuilder,
        inputs: &[&str],
        prefix: &str,
    ) -> Result<Vec<String>, BuildCircuitError> {
        assert_eq!(inputs.len(), self.width, "input name count mismatch");
        // shared inverters for variables used negatively
        let mut inv_name: Vec<Option<String>> = vec![None; self.width];
        for term in &self.terms {
            for (v, pol) in term.literals() {
                if !pol && inv_name[v].is_none() {
                    let name = format!("{prefix}_inv{v}");
                    builder.add_gate(&name, GateKind::Not, &[inputs[v]])?;
                    inv_name[v] = Some(name);
                }
            }
        }
        // product terms
        let mut term_names: Vec<String> = Vec::with_capacity(self.terms.len());
        for (ti, term) in self.terms.iter().enumerate() {
            let lits: Vec<String> = term
                .literals()
                .map(|(v, pol)| {
                    if pol {
                        inputs[v].to_owned()
                    } else {
                        inv_name[v].clone().expect("inverter emitted above")
                    }
                })
                .collect();
            let name = format!("{prefix}_t{ti}");
            match lits.len() {
                0 => {
                    builder.add_gate(&name, GateKind::Const1, &[])?;
                }
                1 => {
                    builder.add_gate(&name, GateKind::Buf, &[&lits[0]])?;
                }
                _ => {
                    let refs: Vec<&str> = lits.iter().map(String::as_str).collect();
                    builder.add_gate(&name, GateKind::And, &refs)?;
                }
            }
            term_names.push(name);
        }
        // outputs
        let mut out_names = Vec::with_capacity(self.outputs.len());
        for (o, func) in self.outputs.iter().enumerate() {
            let name = format!("{prefix}_y{o}");
            match func {
                OutputFunc::Const(false) => {
                    builder.add_gate(&name, GateKind::Const0, &[])?;
                }
                OutputFunc::Const(true) => {
                    builder.add_gate(&name, GateKind::Const1, &[])?;
                }
                OutputFunc::Terms(ts) if ts.len() == 1 => {
                    builder.add_gate(&name, GateKind::Buf, &[&term_names[ts[0]]])?;
                }
                OutputFunc::Terms(ts) => {
                    let refs: Vec<&str> = ts.iter().map(|&t| term_names[t].as_str()).collect();
                    builder.add_gate(&name, GateKind::Or, &refs)?;
                }
            }
            out_names.push(name);
        }
        Ok(out_names)
    }
}

impl fmt::Display for TwoLevelNetwork {
    /// PLA-table style dump.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ".i {} .o {} .p {}",
            self.width,
            self.outputs.len(),
            self.terms.len()
        )?;
        for (ti, term) in self.terms.iter().enumerate() {
            let uses: String = self
                .outputs
                .iter()
                .map(|o| match o {
                    OutputFunc::Terms(ts) if ts.contains(&ti) => '1',
                    _ => '0',
                })
                .collect();
            writeln!(f, "{term} {uses}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::synthesize_pla;
    use bist_logicsim::naive_eval;

    fn p(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    fn sample_network() -> TwoLevelNetwork {
        let inputs = [p("110"), p("111"), p("000"), p("010"), p("001")];
        let outputs = [p("10"), p("10"), p("00"), p("00"), p("01")];
        synthesize_pla(3, &inputs, &outputs)
    }

    #[test]
    fn emit_matches_eval() {
        let net = sample_network();
        let mut b = CircuitBuilder::new("pla");
        b.add_input("x0").unwrap();
        b.add_input("x1").unwrap();
        b.add_input("x2").unwrap();
        let outs = net.emit(&mut b, &["x0", "x1", "x2"], "pla").unwrap();
        for o in &outs {
            b.mark_output(o).unwrap();
        }
        let circuit = b.build().unwrap();
        for v in 0u32..8 {
            let input = Pattern::from_fn(3, |i| (v >> i) & 1 == 1);
            let sw = net.eval(&input);
            let hw = naive_eval(&circuit, &input.to_bits());
            for (o, name) in outs.iter().enumerate() {
                let id = circuit.find(name).unwrap();
                assert_eq!(hw[id.index()], sw.get(o), "input {input} output {o}");
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let net = sample_network();
        assert!(net.num_terms() >= 1);
        assert!(net.num_literals() >= net.num_terms());
        assert!(net.or_plane_size() >= net.num_outputs() - 1);
    }

    #[test]
    fn display_is_pla_like() {
        let net = sample_network();
        let text = net.to_string();
        assert!(text.starts_with(".i 3 .o 2"));
        assert!(text.lines().count() == net.num_terms() + 1);
    }
}
