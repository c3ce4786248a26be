//! Fuzz-lite robustness of the batch-manifest parser: corrupted and
//! truncated manifests must come back as `Ok` (harmless mutations) or
//! as `Err(BistError::Parse { line, .. })` located inside the text —
//! never a panic, and never any other error shape.

use bist_cli::manifest;
use bist_engine::BistError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A manifest touching every key the parser knows.
const MANIFEST: &str = r#"# every job kind, every key
[defaults]
circuit = "c17"   # jobs that name none run here
threads = 2

[[job]]
kind = "sweep"
points = [0, 4, 8]
fault-model = "transition"
estimate-first = true

[[job]]
kind = "solve"
circuit = "c432"
prefix = 6

[[job]]
kind = "curve"
points = [0, 8]
fault-model = "bridging:16:7"

[[job]]
kind = "bakeoff"
random-length = 64

[[job]]
kind = "emit-hdl"
prefix = 4
language = "verilog"
module = "c17_bist"
testbench = true

[[job]]
kind = "area"

[[job]]
kind = "estimate"
prefix = 100
samples = 32
confidence = 99
seed = 7

[[job]]
kind = "lint"
"#;

/// Parses `text` and checks the contract: success, or a parse error on
/// one of its lines (a manifest with no jobs at all is reported on its
/// last line, line 1 when it is empty).
fn assert_parse_contract(name: &str, text: &str) {
    match manifest::parse(name, text) {
        Ok(parsed) => {
            for job in &parsed.jobs {
                assert!(!job.kind().is_empty());
            }
        }
        Err(BistError::Parse {
            source_name,
            line,
            message,
        }) => {
            assert_eq!(source_name, name);
            assert!(
                line <= text.lines().count().max(1),
                "error line {line} beyond the {} source lines",
                text.lines().count()
            );
            assert!(!message.is_empty(), "errors explain themselves");
        }
        Err(other) => panic!("manifests only fail with Parse errors, got {other:?}"),
    }
}

/// Applies one seeded corruption to manifest text.
fn mutate(source: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let lines: Vec<&str> = source.lines().collect();
    match rng.gen_range(0..5) {
        // truncate at an arbitrary char boundary (torn file)
        0 => {
            let cut = rng.gen_range(0..=source.chars().count());
            source.chars().take(cut).collect()
        }
        // overwrite one char with line noise
        1 => {
            let noise = ['[', ']', '=', '"', ',', '#', 'x', '9', '-', ' ', '\u{e9}'];
            let mut chars: Vec<char> = source.chars().collect();
            if !chars.is_empty() {
                let at = rng.gen_range(0..chars.len());
                chars[at] = noise[rng.gen_range(0..noise.len())];
            }
            chars.into_iter().collect()
        }
        // delete a whole line (lost header or binding)
        2 if !lines.is_empty() => {
            let drop = rng.gen_range(0..lines.len());
            let kept: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, l)| *l)
                .collect();
            kept.join("\n")
        }
        // duplicate a line (duplicate keys and headers)
        3 if !lines.is_empty() => {
            let dup = rng.gen_range(0..lines.len());
            let mut out = lines.clone();
            out.insert(dup, lines[dup]);
            out.join("\n")
        }
        // splice in a malformed line
        _ => {
            let garbage = [
                "[[job]]",
                "[defaults",
                "kind = 7",
                "points = [1, \"a\"]",
                "points = [",
                "prefix = -3",
                "= 4",
                "threads = 99999999999999999999",
                "fault-model = \"bridging:x\"",
                "confidence = 4294967296",
                "seed = -1",
                "kind = \"frobnicate\"",
                "circuit = \"\"",
                "language = \"cobol\"",
            ];
            let at = rng.gen_range(0..=lines.len());
            let mut out = lines.clone();
            out.insert(at, garbage[rng.gen_range(0..garbage.len())]);
            out.join("\n")
        }
    }
}

#[test]
fn the_fixture_parses() {
    let parsed = manifest::parse("all.toml", MANIFEST).expect("valid manifest");
    assert_eq!(parsed.jobs.len(), 8);
    assert_eq!(parsed.threads, Some(2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every seeded corruption of the fixture parses or fails with a
    /// located parse error.
    #[test]
    fn corrupted_manifests_never_panic(seed in any::<u64>(), layers in 1usize..4) {
        let mut text = MANIFEST.to_owned();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..layers {
            text = mutate(&text, rng.gen());
        }
        assert_parse_contract("mutant.toml", &text);
    }
}

#[test]
fn every_truncation_point_is_handled() {
    for cut in (0..MANIFEST.len()).filter(|&cut| MANIFEST.is_char_boundary(cut)) {
        assert_parse_contract("truncated.toml", &MANIFEST[..cut]);
    }
}
