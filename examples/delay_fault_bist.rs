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

use bist_core::MixedSchemeConfig;
use bist_faultmodel::{FaultModel, ModelSession};

fn main() {
    let circuit = bist_netlist::iscas85::circuit("c880").expect("known benchmark");
    // the same session `bist sweep c880 --fault-model transition` drives
    let mut session = ModelSession::new(
        &circuit,
        MixedSchemeConfig::default(),
        FaultModel::Transition,
    );
    println!(
        "circuit {} : {} inputs, {} transition faults (stems + fan-out branches)",
        circuit.name(),
        circuit.inputs().len(),
        session.universe_len()
    );
    println!();
    println!(
        "{:>6}  {:>14}  {:>12}  {:>14}  {:>10}",
        "p", "prefix cov %", "top-up d", "final cov %", "total p+d"
    );

    let summary = session
        .sweep(&[0, 64, 256, 1024])
        .expect("c880 solves at every prefix");
    for s in summary.solutions() {
        println!(
            "{:>6}  {:>13.2}%  {:>12}  {:>13.2}%  {:>10}",
            s.prefix_len,
            s.prefix_coverage.coverage_pct(),
            s.det_len,
            s.coverage.coverage_pct(),
            s.total_len()
        );
    }

    println!();
    println!("Reading: the prefix's transition coverage rises much more slowly than");
    println!("its stuck-at coverage would (two-pattern tests are rare events in a");
    println!("random stream), and the deterministic suffix shrinks as p grows —");
    println!("the same trade-off the paper's Figure 5 shows for stuck-at/stuck-open,");
    println!("now measured for the fault class that motivated the mixed scheme.");
}
