//! The committed determinism digest, reproduced at pool widths 1 and 4.
//!
//! `ci/determinism_digest.txt` pins results to the committed state:
//! four lines fingerprinting a c432 sweep at `[0, 50, 100]` (`p`, `d`,
//! the coverage counters and an FNV-1a hash of every deterministic
//! pattern bit, then a `total` line folding the sweep), followed by the
//! JSON of seven `bist` runs — estimates, a sweep and coverage curves up
//! to c5315 and c7552, under all three fault models. Both widths must
//! rebuild the file byte for byte, so any width leak in a parallel path
//! fails here as well as any drift from the committed results.

use std::process::Command;

use bist_engine::{CircuitSource, Engine, FaultModel, JobSpec, MixedSchemeConfig, SweepSpec};

const GOLDEN: &str = include_str!("../../../ci/determinism_digest.txt");

/// The `bist` runs whose JSON follows the sweep fingerprint.
const RUNS: [&[&str]; 7] = [
    &["estimate", "c432", "--prefix", "100"],
    &["sweep", "c432", "--points", "0,100"],
    &["curve", "c3540", "--points", "64,512,2000"],
    &[
        "curve",
        "c3540",
        "--points",
        "64,512,2000",
        "--fault-model",
        "transition",
    ],
    &[
        "curve",
        "c3540",
        "--points",
        "64,512,2000",
        "--fault-model",
        "bridging",
    ],
    &["curve", "c5315", "--points", "1000,2000"],
    &["estimate", "c7552", "--prefix", "4096"],
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn push(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The c432 sweep fingerprint, computed in-process at `width`.
fn sweep_fingerprint(width: usize) -> String {
    let spec = JobSpec::Sweep(SweepSpec {
        circuit: CircuitSource::iscas85("c432"),
        config: MixedSchemeConfig {
            threads: width,
            ..MixedSchemeConfig::default()
        },
        prefix_lengths: vec![0, 50, 100],
        fault_model: FaultModel::default(),
        estimate_first: false,
    });
    let result = Engine::with_threads(width).run(spec).expect("c432 sweep");
    let sweep = result.as_sweep().expect("sweep outcome");
    let mut out = String::new();
    let mut total = Fnv::new();
    for s in sweep.summary.solutions() {
        let mut h = Fnv::new();
        for pattern in s.generator.deterministic() {
            for bit in pattern.iter() {
                h.push(u8::from(bit));
            }
            h.push(0xFE); // pattern separator
        }
        let line = format!(
            "{} p={} d={} detected={} redundant={} aborted={} undetected={} seq={:016x}\n",
            sweep.circuit,
            s.prefix_len,
            s.det_len,
            s.coverage.detected,
            s.coverage.redundant,
            s.coverage.aborted,
            s.coverage.undetected,
            h.0
        );
        line.bytes().for_each(|b| total.push(b));
        out.push_str(&line);
    }
    out.push_str(&format!("total {:016x}\n", total.0));
    out
}

fn digest_at(width: usize) -> String {
    let mut digest = sweep_fingerprint(width);
    for args in RUNS {
        let output = Command::new(env!("CARGO_BIN_EXE_bist"))
            .args(args)
            .args(["--quiet", "--no-cache", "--format", "json"])
            .env("BIST_THREADS", width.to_string())
            .env_remove("BIST_CACHE_DIR")
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "bist {args:?} at width {width}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        digest.push_str(std::str::from_utf8(&output.stdout).expect("UTF-8 stdout"));
    }
    digest
}

#[test]
fn the_committed_digest_reproduces_at_width_1() {
    assert_eq!(digest_at(1), GOLDEN);
}

#[test]
fn the_committed_digest_reproduces_at_width_4() {
    assert_eq!(digest_at(4), GOLDEN);
}
