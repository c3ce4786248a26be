//! Fuzz-lite robustness of the wire decoders: truncated and corrupted
//! request and response lines must come back as `Ok` or `Err` — never a
//! panic. A corrupted result line that still decodes carries restored
//! generators, and forcing their hardware must not panic either: each
//! synthesizes exactly what `MixedGenerator::build` makes of the same
//! four inputs, and replays it with the same verdict.

use std::sync::OnceLock;

use bist::core::{MixedGenerator, MixedSolution};
use bist::engine::wire::{self, Request, Response};
use bist::engine::{CircuitSource, Engine, JobResult, JobSpec};
use bist::netlist::{bench, iscas85};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A submit line carrying c17 as inline `.bench` text.
fn submit_line() -> String {
    wire::encode_request(&Request::Submit {
        spec: Box::new(JobSpec::sweep(
            CircuitSource::bench("c17", iscas85::C17_BENCH),
            [0, 4, 8],
        )),
    })
}

/// The response line of a computed c17 sweep, built once per test
/// binary.
fn result_line() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        let result = Engine::with_threads(1)
            .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4, 8]))
            .expect("c17 sweep");
        wire::encode_response(&Response::Result {
            job: 7,
            cached: true,
            result: Box::new(result),
        })
    })
}

fn solutions(result: &JobResult) -> &[MixedSolution] {
    match result {
        JobResult::SolveAt(o) => std::slice::from_ref(&o.solution),
        JobResult::Sweep(o) => o.summary.solutions(),
        JobResult::EmitHdl(o) => std::slice::from_ref(&o.solution),
        _ => &[],
    }
}

/// Decodes a (possibly corrupted) request line; a decoded request
/// re-encodes to a line that decodes to the same bytes again.
fn assert_request_contract(line: &str) {
    if let Ok(request) = wire::decode_request(line) {
        let canonical = wire::encode_request(&request);
        let again = wire::decode_request(&canonical).expect("a canonical line decodes");
        assert_eq!(wire::encode_request(&again), canonical);
    }
}

/// Decodes a (possibly corrupted) response line; every generator a
/// decoded result carries is the twin of a built one. Returns how many
/// of them replay their own sequence.
fn assert_response_contract(line: &str) -> usize {
    let Ok(Response::Result { result, .. }) = wire::decode_response(line) else {
        return 0;
    };
    let mut verified = 0;
    for s in solutions(&result) {
        let restored = &s.generator;
        let built = MixedGenerator::build(
            restored.width(),
            restored.poly(),
            restored.prefix_len(),
            restored.deterministic(),
        )
        .expect("inputs that pass the shape checks synthesize");
        assert_eq!(
            bench::write(restored.netlist()),
            bench::write(built.netlist()),
            "p={}",
            s.prefix_len
        );
        let verdict = restored.verify();
        assert_eq!(verdict, built.verify(), "p={}", s.prefix_len);
        verified += usize::from(verdict);
    }
    verified
}

/// Applies one seeded byte-level corruption to a wire line.
fn mutate(line: &str, seed: u64) -> String {
    const NOISE: [char; 18] = [
        '"', '\\', '{', '}', '[', ']', ':', ',', ' ', '0', '1', '7', 'f', '-', '.', 'e', 'n', 'é',
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chars: Vec<char> = line.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let at = rng.gen_range(0..chars.len());
    match rng.gen_range(0..5) {
        // torn line
        0 => chars.truncate(at),
        // one character overwritten with JSON syntax or a digit
        1 => chars[at] = NOISE[rng.gen_range(0..NOISE.len())],
        // one character overwritten with any printable ASCII
        2 => chars[at] = char::from(rng.gen_range(0x20u8..0x7f)),
        // one character dropped
        3 => {
            chars.remove(at);
        }
        // one character inserted
        _ => chars.insert(at, NOISE[rng.gen_range(0..NOISE.len())]),
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every seeded corruption of a c17 submit line decodes or fails.
    #[test]
    fn corrupted_requests_never_panic(seed in any::<u64>(), layers in 1usize..4) {
        let mut line = submit_line();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..layers {
            line = mutate(&line, rng.gen());
        }
        assert_request_contract(&line);
    }

    /// Every seeded corruption of a c17 sweep result line decodes or
    /// fails, and what decodes carries generators that verify.
    #[test]
    fn corrupted_results_never_panic(seed in any::<u64>(), layers in 1usize..4) {
        let mut line = result_line().to_owned();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..layers {
            line = mutate(&line, rng.gen());
        }
        assert_response_contract(&line);
    }
}

#[test]
fn every_truncation_point_is_handled() {
    let submit = submit_line();
    let result = result_line();
    for cut in (0..=submit.len()).filter(|&cut| submit.is_char_boundary(cut)) {
        assert_request_contract(&submit[..cut]);
    }
    for cut in (0..result.len()).filter(|&cut| result.is_char_boundary(cut)) {
        assert_eq!(
            assert_response_contract(&result[..cut]),
            0,
            "a torn line decoded"
        );
    }
    assert_eq!(
        assert_response_contract(result),
        3,
        "every c17 point verifies"
    );
}
