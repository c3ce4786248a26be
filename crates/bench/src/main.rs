//! `bist-bench`: the experiment harness as one command.
//!
//! ```text
//! bist-bench EXPERIMENT [--circuits a,b] [--quick] [--threads N] [--format text|json] [--patterns N]
//! bist-bench bench_check MEASURED BASELINE [TOLERANCE_PCT]
//! bist-bench help
//! ```
//!
//! The first argument names the experiment; the rest go to it. Each
//! experiment's exit status is the process's: a usage error exits 2,
//! a failed `bench_check` gate exits 1.

use std::process::ExitCode;

mod experiments {
    pub mod bench_check;
    pub mod bench_collapse;
    pub mod bench_faultmodels;
    pub mod bench_faultsim;
    pub mod bench_par;
    pub mod bench_sweep;
    pub mod ext_bridging_coverage;
    pub mod ext_delay_coverage;
    pub mod ext_scan_flow;
    pub mod ext_tpg_bakeoff;
    pub mod fig4_random_coverage;
    pub mod fig5_mixed_coverage;
    pub mod fig6_deterministic_areas;
    pub mod fig7_mixed_cost;
    pub mod fig8_mixed_overhead;
    pub mod probe;
    pub mod table1_extremes;
    pub mod table2_mixed_solutions;
}

use experiments::*;

/// One experiment: its name, a one-line summary, and its entry point,
/// which receives the arguments after the name.
type Experiment = (&'static str, &'static str, fn(&[String]) -> ExitCode);

const EXPERIMENTS: [Experiment; 18] = [
    (
        "fig4_random_coverage",
        "Figure 4: fault coverage vs pseudo-random sequence length",
        fig4_random_coverage::run,
    ),
    (
        "fig5_mixed_coverage",
        "Figure 5: fault coverage of mixed (p, d) sequences",
        fig5_mixed_coverage::run,
    ),
    (
        "fig6_deterministic_areas",
        "Figure 6: full-deterministic LFSROM areas across ISCAS-85",
        fig6_deterministic_areas::run,
    ),
    (
        "fig7_mixed_cost",
        "Figure 7: mixed generator cost vs mixed sequence length",
        fig7_mixed_cost::run,
    ),
    (
        "fig8_mixed_overhead",
        "Figure 8: mixed generator overhead (% of chip) vs mixed length",
        fig8_mixed_overhead::run,
    ),
    (
        "table1_extremes",
        "Table 1: full-deterministic vs pure pseudo-random extremes",
        table1_extremes::run,
    ),
    (
        "table2_mixed_solutions",
        "Table 2: mixed test solutions for the larger circuits",
        table2_mixed_solutions::run,
    ),
    (
        "ext_bridging_coverage",
        "bridging-fault coverage of stuck-at-derived sequences",
        ext_bridging_coverage::run,
    ),
    (
        "ext_delay_coverage",
        "the mixed trade-off under the transition fault model",
        ext_delay_coverage::run,
    ),
    (
        "ext_scan_flow",
        "mixed BIST on scan-wrapped ISCAS-89 circuits",
        ext_scan_flow::run,
    ),
    (
        "ext_tpg_bakeoff",
        "TPG architecture bake-off: area vs test length vs coverage",
        ext_tpg_bakeoff::run,
    ),
    (
        "bench_sweep",
        "session vs one-shot sweep wall time -> BENCH_sweep.json",
        bench_sweep::run,
    ),
    (
        "bench_collapse",
        "fault collapsing and sampled estimation -> BENCH_collapse.json",
        bench_collapse::run,
    ),
    (
        "bench_faultsim",
        "simulation-core throughput -> BENCH_faultsim.json",
        bench_faultsim::run,
    ),
    (
        "bench_par",
        "fault-simulation scaling across pool widths -> BENCH_par.json",
        bench_par::run,
    ),
    (
        "bench_faultmodels",
        "sweep wall time per fault model -> BENCH_faultmodels.json",
        bench_faultmodels::run,
    ),
    (
        "bench_check",
        "gate a BENCH_sweep.json on a baseline: MEASURED BASELINE [TOLERANCE_PCT]",
        bench_check::run,
    ),
    (
        "probe",
        "one PODEM search per stuck-at representative: split, digest, counters",
        probe::run,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.first().map(String::as_str) {
        None | Some("help" | "--help") => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(name) => name,
    };
    match EXPERIMENTS.iter().find(|(known, ..)| *known == name) {
        Some((_, _, run)) => run(&args[1..]),
        None => {
            eprintln!("unknown experiment `{name}`\n");
            eprint!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    let mut text = String::from(
        "usage: bist-bench EXPERIMENT [--circuits a,b] [--quick] [--threads N] \
         [--format text|json] [--patterns N]\n       \
         bist-bench bench_check MEASURED BASELINE [TOLERANCE_PCT]\n\nexperiments:\n",
    );
    for (name, summary, _) in EXPERIMENTS {
        text.push_str(&format!("  {name:<26}{summary}\n"));
    }
    text
}
