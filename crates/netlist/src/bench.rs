//! Reader and writer for the ISCAS-85 `.bench` netlist format.
//!
//! The format (Brglez & Fujiwara, ISCAS 1985) is line-oriented:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G22)
//! G10 = NAND(G1, G3)
//! G22 = NOR(G10, G16)
//! ```
//!
//! Parsing a file that was produced by [`write()`] round-trips exactly, and
//! real ISCAS-85 files from the public distribution parse unchanged, so the
//! synthetic substrate in [`iscas85`](crate::iscas85) can be swapped for the
//! original netlists without touching downstream code.

use std::str::FromStr;

use crate::builder::CircuitBuilder;
use crate::circuit::Circuit;
use crate::error::{BuildCircuitError, ParseBenchError};
use crate::gate::GateKind;

/// Where each name of a parsed `.bench` source first appears.
///
/// Built as a by-product of [`parse_with_source_map`]; the declaration
/// and reference lines let diagnostics — parse errors here, lint
/// findings downstream — point at a concrete source line even for
/// defects the builder can only detect at `build` time (forward
/// references are legal, so a name's declaration may come after its
/// first use).
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    // name lookup only — never iterated, so map order cannot leak into
    // any output
    #[allow(clippy::disallowed_types)]
    decl_lines: std::collections::HashMap<String, usize>,
    #[allow(clippy::disallowed_types)]
    ref_lines: std::collections::HashMap<String, usize>,
}

impl SourceMap {
    /// The 1-based line where `name` is first declared (`INPUT(name)` or
    /// `name = KIND(...)`).
    pub fn decl_line(&self, name: &str) -> Option<usize> {
        self.decl_lines.get(name).copied()
    }

    /// The 1-based line where `name` is first referenced (as a fan-in or
    /// in an `OUTPUT(name)` marking).
    pub fn ref_line(&self, name: &str) -> Option<usize> {
        self.ref_lines.get(name).copied()
    }

    /// The best source line for a diagnostic about `name`: its
    /// declaration if one exists, otherwise its first reference.
    pub fn line_for(&self, name: &str) -> Option<usize> {
        self.decl_line(name).or_else(|| self.ref_line(name))
    }

    /// The source line a builder-time defect should be attributed to:
    /// the declaring line for defects about a declared node, the first
    /// referencing line for defects about a missing one, `0` for
    /// whole-netlist defects (missing I/O) that no single line owns.
    pub fn attribute(&self, error: &BuildCircuitError) -> usize {
        match error {
            BuildCircuitError::UnknownName(n) => self.ref_line(n).unwrap_or_default(),
            BuildCircuitError::DuplicateName(n)
            | BuildCircuitError::CombinationalCycle(n)
            | BuildCircuitError::BadFanin { name: n, .. } => self.line_for(n).unwrap_or_default(),
            BuildCircuitError::DuplicateOutput(n) => self.ref_line(n).unwrap_or_default(),
            BuildCircuitError::NoInputs | BuildCircuitError::NoOutputs => 0,
        }
    }
}

/// Parses `.bench` source text into a [`Circuit`] named `name`.
///
/// # Errors
///
/// Returns [`ParseBenchError::Syntax`] for malformed lines and
/// [`ParseBenchError::Build`] when the declarations do not form a valid
/// netlist (unknown names, cycles, …).
///
/// # Example
///
/// ```
/// let src = "
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// y = NAND(a, b)
/// ";
/// let c = bist_netlist::bench::parse("tiny", src)?;
/// assert_eq!(c.num_gates(), 1);
/// # Ok::<(), bist_netlist::ParseBenchError>(())
/// ```
pub fn parse(name: &str, source: &str) -> Result<Circuit, ParseBenchError> {
    parse_with_source_map(name, source).map(|(circuit, _)| circuit)
}

/// [`parse`], additionally returning the [`SourceMap`] of declaration
/// and reference lines — the span substrate the `bist-lint` analyzer
/// points its diagnostics with.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_with_source_map(
    name: &str,
    source: &str,
) -> Result<(Circuit, SourceMap), ParseBenchError> {
    let mut builder = CircuitBuilder::new(name);
    let mut outputs: Vec<(String, usize)> = Vec::new();
    let mut map = SourceMap::default();

    for (lineno, raw) in source.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let syntax = |message: String| ParseBenchError::Syntax {
            line: lineno + 1,
            message,
        };
        let build = |error| ParseBenchError::Build {
            line: lineno + 1,
            error,
        };

        if let Some(rest) = strip_call(line, "INPUT") {
            builder.add_input(rest.trim()).map_err(build)?;
            map.decl_lines
                .entry(rest.trim().to_owned())
                .or_insert(lineno + 1);
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            outputs.push((rest.trim().to_owned(), lineno + 1));
        } else if let Some(eq) = line.find('=') {
            let target = line[..eq].trim();
            if target.is_empty() {
                return Err(syntax("missing gate name before `=`".into()));
            }
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| syntax(format!("expected `KIND(...)` after `=`, got `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(syntax(format!("unterminated gate call `{rhs}`")));
            }
            let kind_str = rhs[..open].trim();
            let kind = GateKind::from_str(kind_str).map_err(|e| syntax(e.to_string()))?;
            if kind == GateKind::Input {
                return Err(syntax("INPUT cannot appear on the right of `=`".into()));
            }
            let args = &rhs[open + 1..rhs.len() - 1];
            let fanin: Vec<&str> = if args.trim().is_empty() {
                Vec::new()
            } else {
                args.split(',').map(str::trim).collect()
            };
            if fanin.iter().any(|f| f.is_empty()) {
                return Err(syntax(format!("empty fan-in name in `{rhs}`")));
            }
            builder.add_gate(target, kind, &fanin).map_err(build)?;
            map.decl_lines
                .entry(target.to_owned())
                .or_insert(lineno + 1);
            for f in &fanin {
                map.ref_lines.entry((*f).to_owned()).or_insert(lineno + 1);
            }
        } else {
            return Err(syntax(format!("unrecognized declaration `{line}`")));
        }
    }

    for (o, line) in &outputs {
        builder
            .mark_output(o)
            .map_err(|error| ParseBenchError::Build { line: *line, error })?;
        map.ref_lines.entry(o.clone()).or_insert(*line);
    }
    let circuit = builder.build().map_err(|error| ParseBenchError::Build {
        line: map.attribute(&error),
        error,
    })?;
    Ok((circuit, map))
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.strip_suffix(')')
}

/// Serializes a [`Circuit`] to `.bench` source text.
///
/// Declarations follow node order (forward references are legal), so
/// the output parses back (see [`parse`]) into the same circuit node for
/// node: names, kinds, fan-in ids, input and output order. The text is
/// therefore a fixed point of `write ∘ parse`.
///
/// # Example
///
/// ```
/// let c17 = bist_netlist::iscas85::c17();
/// let text = bist_netlist::bench::write(&c17);
/// let back = bist_netlist::bench::parse("c17", &text)?;
/// assert_eq!(back.nodes(), c17.nodes());
/// assert_eq!(bist_netlist::bench::write(&back), text);
/// # Ok::<(), bist_netlist::ParseBenchError>(())
/// ```
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", circuit.name()));
    out.push_str(&format!(
        "# {} inputs, {} outputs, {} gates\n",
        circuit.inputs().len(),
        circuit.outputs().len(),
        circuit.num_gates()
    ));
    for node in circuit.nodes() {
        if node.kind() == GateKind::Input {
            out.push_str(&format!("INPUT({})\n", node.name()));
            continue;
        }
        let fanin: Vec<&str> = node
            .fanin()
            .iter()
            .map(|f| circuit.node(*f).name())
            .collect();
        out.push_str(&format!(
            "{} = {}({})\n",
            node.name(),
            node.kind().bench_keyword(),
            fanin.join(", ")
        ));
    }
    for &o in circuit.outputs() {
        out.push_str(&format!("OUTPUT({})\n", circuit.node(o).name()));
    }
    out
}

/// Asserts that `circuit` survives a `.bench` round trip node for node —
/// names, kinds, fan-in ids, input and output order — and that the
/// written text is a fixed point.
#[cfg(test)]
pub(crate) fn assert_exact_round_trip(circuit: &Circuit) {
    let name = circuit.name();
    let text = write(circuit);
    let back = parse(name, &text).expect("serialized netlist parses");
    assert_eq!(back.name(), name);
    assert_eq!(back.nodes(), circuit.nodes(), "{name}: nodes");
    assert_eq!(back.inputs(), circuit.inputs(), "{name}: inputs");
    assert_eq!(back.outputs(), circuit.outputs(), "{name}: outputs");
    assert_eq!(write(&back), text, "{name}: the text is a fixed point");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
# a comment
INPUT(a)
INPUT(b)  # trailing comment
OUTPUT(y)
mid = NOR(a, b)
y = NOT(mid)
";

    #[test]
    fn parses_sample() {
        let c = parse("s", SAMPLE).expect("sample parses");
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.num_gates(), 2);
        let mid = c.find("mid").expect("mid declared");
        assert_eq!(c.node(mid).kind(), GateKind::Nor);
    }

    #[test]
    fn round_trips() {
        assert_exact_round_trip(&parse("s", SAMPLE).expect("sample parses"));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse("s", "INPUT(a)\nOUTPUT(a)\nwhat is this").unwrap_err();
        assert!(
            matches!(err, ParseBenchError::Syntax { line: 3, .. }),
            "expected a line-3 syntax error, got {err}"
        );
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn unknown_gate_kind_is_syntax_error() {
        let err = parse("s", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)").unwrap_err();
        assert!(matches!(err, ParseBenchError::Syntax { line: 3, .. }));
    }

    #[test]
    fn build_errors_carry_the_offending_line() {
        let err = parse("s", "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)").unwrap_err();
        assert!(
            matches!(err, ParseBenchError::Build { line: 3, .. }),
            "expected a line-3 build error, got {err}"
        );
        let err = parse("s", "INPUT(a)\nOUTPUT(ghost)\ny = NOT(a)").unwrap_err();
        assert!(
            matches!(err, ParseBenchError::Build { line: 2, .. }),
            "expected a line-2 build error, got {err}"
        );
    }

    #[test]
    fn source_map_records_first_lines() {
        let (_, map) = parse_with_source_map("s", SAMPLE).expect("sample parses");
        assert_eq!(map.decl_line("mid"), Some(6));
        assert_eq!(map.ref_line("mid"), Some(7));
        assert_eq!(map.decl_line("a"), Some(3));
        assert_eq!(map.ref_line("a"), Some(6));
        // OUTPUT(y) references `y` before its declaration; line_for prefers
        // the declaration
        assert_eq!(map.ref_line("y"), Some(5));
        assert_eq!(map.line_for("y"), Some(7));
        assert_eq!(map.line_for("ghost"), None);
    }

    #[test]
    fn source_map_attributes_every_build_defect() {
        let (_, map) = parse_with_source_map("s", SAMPLE).expect("sample parses");
        use crate::BuildCircuitError as E;
        assert_eq!(map.attribute(&E::DuplicateName("mid".into())), 6);
        assert_eq!(map.attribute(&E::UnknownName("mid".into())), 7);
        assert_eq!(map.attribute(&E::UnknownName("ghost".into())), 0);
        assert_eq!(
            map.attribute(&E::BadFanin {
                name: "y".into(),
                kind: "NOT".into(),
                got: 2
            }),
            7
        );
        assert_eq!(map.attribute(&E::CombinationalCycle("mid".into())), 6);
        assert_eq!(map.attribute(&E::DuplicateOutput("y".into())), 5);
        assert_eq!(map.attribute(&E::NoInputs), 0);
        assert_eq!(map.attribute(&E::NoOutputs), 0);
    }

    #[test]
    fn whole_netlist_errors_use_line_zero() {
        // no primary inputs: not attributable to any one declaration
        let err = parse("s", "OUTPUT(y)\ny = AND(y2, y3)\ny2 = NOT(y)\ny3 = NOT(y2)").unwrap_err();
        assert!(
            matches!(err, ParseBenchError::Build { line: 0, .. }),
            "expected a whole-netlist error, got {err}"
        );
        assert_eq!(err.line(), 0);
    }

    #[test]
    fn accepts_buff_alias() {
        let c = parse("s", "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)").expect("BUFF is an alias");
        let y = c.find("y").expect("y declared");
        assert_eq!(c.node(y).kind(), GateKind::Buf);
    }
}
