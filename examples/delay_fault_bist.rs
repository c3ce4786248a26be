//! Delay-fault BIST: measuring the paper's motivating claim.
//!
//! ```text
//! cargo run --release --example delay_fault_bist
//! ```
//!
//! Section 2.2 of the paper argues that pseudo-random sequences "are no
//! longer efficient" for delay faults, and §3.1 reserves the mixed
//! scheme's deterministic suffix for exactly those. The 1995 evaluation
//! never measures it — this example does, on the c880 profile under the
//! gate-level transition fault model: for each pseudo-random prefix
//! length `p`, report the prefix's transition coverage and the size `d`
//! of the two-pattern deterministic top-up that closes the gap.

use bist_atpg::AtpgOptions;
use bist_delay::{DelayTestGenerator, TransitionFaultList};
use bist_faultsim::FaultSim;
use bist_lfsr::{paper_poly, pseudo_random_patterns};

fn main() {
    let circuit = bist_netlist::iscas85::circuit("c880").expect("known benchmark");
    let width = circuit.inputs().len();
    let faults = TransitionFaultList::universe(&circuit);
    println!(
        "circuit {} : {} inputs, {} transition faults (stems + fan-out branches)",
        circuit.name(),
        width,
        faults.len()
    );
    println!();
    println!(
        "{:>6}  {:>14}  {:>12}  {:>14}  {:>10}",
        "p", "prefix cov %", "top-up d", "final cov %", "total p+d"
    );

    for p in [0usize, 64, 256, 1024] {
        let prefix = pseudo_random_patterns(paper_poly(), width, p);

        // coverage of the prefix alone
        let mut sim = FaultSim::new(&circuit, faults.clone());
        sim.simulate(&prefix);
        let prefix_cov = sim.report().coverage_pct();

        // deterministic two-pattern top-up for what remains
        let run =
            DelayTestGenerator::new(&circuit, faults.clone(), AtpgOptions::default(), &prefix)
                .run();

        println!(
            "{:>6}  {:>13.2}%  {:>12}  {:>13.2}%  {:>10}",
            p,
            prefix_cov,
            run.num_patterns(),
            run.report.coverage_pct(),
            p + run.num_patterns()
        );
    }

    println!();
    println!("Reading: the prefix's transition coverage rises much more slowly than");
    println!("its stuck-at coverage would (two-pattern tests are rare events in a");
    println!("random stream), and the deterministic suffix shrinks as p grows —");
    println!("the same trade-off the paper's Figure 5 shows for stuck-at/stuck-open,");
    println!("now measured for the fault class that motivated the mixed scheme.");
}
