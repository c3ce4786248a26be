//! The `BENCH_*.json` artifact contract, shared by producers and
//! consumers.
//!
//! Every artifact is a [`Json`] tree written by [`write_artifact`], which
//! stamps the same three header keys on all of them, and `bench_check`
//! reads `BENCH_sweep.json` back with [`bist_engine::json::parse`]. The
//! layout version, the header and the `points` spelling live here, in
//! one copy, so writer and checker cannot drift apart.

use bist_core::prelude::MixedSolution;
use bist_engine::json::Json;

/// Version of the artifact layout. The writer stamps it, the checker
/// refuses files that do not declare exactly this value.
pub const SCHEMA_VERSION: i64 = 2;

/// Checks one parsed file's `schema_version` against
/// [`SCHEMA_VERSION`], explaining exactly what is wrong otherwise.
///
/// # Errors
///
/// A human-readable message naming `path` and the remedy.
pub fn check_schema(path: &str, doc: &Json) -> Result<(), String> {
    match doc.get("schema_version") {
        Some(Json::Int(SCHEMA_VERSION)) => Ok(()),
        Some(other) => Err(format!(
            "{path}: schema_version {} does not match the supported version \
             {SCHEMA_VERSION}; regenerate the file with this tree's bench_sweep \
             (or update the committed baseline)",
            other.render()
        )),
        None => Err(format!(
            "{path}: no schema_version field — the file predates the versioned \
             layout; regenerate it with this tree's bench_sweep"
        )),
    }
}

/// Writes one artifact into the current directory: `experiment`,
/// `schema_version` and `available_parallelism` (the machine's width,
/// whatever pool width the run used), then `fields` in order.
///
/// # Panics
///
/// Panics when the current directory is not writable.
pub fn write_artifact(file: &str, experiment: &str, fields: Vec<(&str, Json)>) {
    let machine = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut doc = Json::object();
    doc.push("experiment", Json::str(experiment))
        .push("schema_version", Json::Int(SCHEMA_VERSION))
        .push("available_parallelism", Json::uint(machine));
    for (key, value) in fields {
        doc.push(key, value);
    }
    let text = doc.render_pretty();
    std::fs::write(file, &text).expect("writable working directory");
    println!("\nwrote {file} ({} bytes)", text.len());
}

/// A sweep's solved frontier as the artifacts spell it:
/// `[{"p": prefix, "d": suffix}, …]`, in request order.
pub fn points(solutions: &[MixedSolution]) -> Json {
    Json::Array(
        solutions
            .iter()
            .map(|s| {
                let mut point = Json::object();
                point
                    .push("p", Json::uint(s.prefix_len))
                    .push("d", Json::uint(s.det_len));
                point
            })
            .collect(),
    )
}

/// FNV-1a, 64-bit: the tiny, dependency-free, platform-stable hash
/// behind the artifacts' `projected_digest` and `session_digest`.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Absorbs one byte.
    pub fn push(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_engine::json::parse;

    const SAMPLE: &str = r#"{
  "schema_version": 2,
  "circuits": [
    {
      "circuit": "c432",
      "speedup": 2.301,
      "patterns_simulated": 100,
      "points": [{"p": 0, "d": 50}, {"p": 100, "d": 24}]
    }
  ]
}
"#;

    #[test]
    fn schema_gate_accepts_the_current_version_only() {
        let doc = |text: &str| parse(text).expect("valid JSON");
        assert!(check_schema("ok.json", &doc(SAMPLE)).is_ok());
        let older = SAMPLE.replace("\"schema_version\": 2", "\"schema_version\": 1");
        let message = check_schema("old.json", &doc(&older)).expect_err("older layout");
        assert!(message.contains("old.json"));
        assert!(message.contains("schema_version 1 does not match"));
        let float = SAMPLE.replace("\"schema_version\": 2", "\"schema_version\": 2.0");
        assert!(check_schema("float.json", &doc(&float)).is_err());
        let missing = check_schema("none.json", &doc("{}")).expect_err("unversioned layout");
        assert!(missing.contains("no schema_version"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64-bit reference values
        let hash = |text: &str| {
            let mut h = Fnv::new();
            for b in text.bytes() {
                h.push(b);
            }
            h.finish()
        };
        assert_eq!(hash(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(hash("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(hash("foobar"), 0x8594_4171_F739_67E8);
    }
}
