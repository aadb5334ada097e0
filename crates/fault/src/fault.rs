use std::fmt;

use bist_netlist::{Circuit, NodeId};

/// A single gate-level fault.
///
/// Stuck-at faults live either on a node's output *stem* (`pin: None`) or
/// on a specific fan-out *branch* — fan-in pin `pin` of the gate `site`.
/// Stuck-open faults are properties of a gate's CMOS transistor networks;
/// see the [crate docs](crate) for their two-pattern detection semantics.
/// Transition faults sit on lines like stuck-at faults, but need an
/// ordered pattern pair like stuck-open faults.
///
/// # Example
///
/// ```
/// use bist_fault::Fault;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let f = Fault::StuckAt { site: g10, pin: None, value: true };
/// assert_eq!(f.site(), g10);
/// assert!(f.is_stuck_at());
/// assert_eq!(f.describe(&c17), "G10 stuck-at-1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fault {
    /// Stuck-at fault: on the stem of `site` when `pin` is `None`, or as
    /// seen by fan-in pin `pin` of gate `site` (a branch fault).
    StuckAt {
        /// Faulted node (gate, for branch faults).
        site: NodeId,
        /// Fan-in pin index for branch faults.
        pin: Option<u8>,
        /// The stuck logic value.
        value: bool,
    },
    /// A transistor of the gate's series network is open: the output
    /// transition requiring all inputs non-controlling is blocked
    /// (AND/NAND/OR/NOR gates).
    OpenSeries {
        /// The affected gate.
        site: NodeId,
    },
    /// The parallel transistor of fan-in `pin` is open: the output
    /// transition is blocked when `pin` is the only input at the
    /// controlling value (AND/NAND/OR/NOR gates).
    OpenParallel {
        /// The affected gate.
        site: NodeId,
        /// The pin whose parallel transistor is open.
        pin: u8,
    },
    /// Output cannot rise (pull-up open); inverters, buffers and XOR-family
    /// gates.
    OpenRise {
        /// The affected gate.
        site: NodeId,
    },
    /// Output cannot fall (pull-down open); inverters, buffers and
    /// XOR-family gates.
    OpenFall {
        /// The affected gate.
        site: NodeId,
    },
    /// Gate-level transition (gross-delay) fault: the line's transition
    /// is so late that at capture it still shows its initial value. On
    /// the stem of `site` when `pin` is `None`, or on the fan-out branch
    /// feeding pin `pin` of gate `site`.
    Transition {
        /// Faulted node (gate, for branch faults).
        site: NodeId,
        /// Fan-in pin index for branch faults.
        pin: Option<u8>,
        /// Direction of the late transition.
        transition: Transition,
    },
}

impl Fault {
    /// The node this fault is attached to.
    pub fn site(&self) -> NodeId {
        match *self {
            Fault::StuckAt { site, .. }
            | Fault::OpenSeries { site }
            | Fault::OpenParallel { site, .. }
            | Fault::OpenRise { site }
            | Fault::OpenFall { site }
            | Fault::Transition { site, .. } => site,
        }
    }

    /// True for the stuck-at variants.
    pub fn is_stuck_at(&self) -> bool {
        matches!(self, Fault::StuckAt { .. })
    }

    /// True for the stuck-open variants.
    pub fn is_stuck_open(&self) -> bool {
        matches!(
            self,
            Fault::OpenSeries { .. }
                | Fault::OpenParallel { .. }
                | Fault::OpenRise { .. }
                | Fault::OpenFall { .. }
        )
    }

    /// True for the transition (delay) variant.
    pub fn is_transition(&self) -> bool {
        matches!(self, Fault::Transition { .. })
    }

    /// Human-readable description using the circuit's node names.
    pub fn describe(&self, circuit: &Circuit) -> String {
        let name = |id: NodeId| circuit.node(id).name().to_owned();
        match *self {
            Fault::StuckAt {
                site,
                pin: None,
                value,
            } => format!("{} stuck-at-{}", name(site), u8::from(value)),
            Fault::StuckAt {
                site,
                pin: Some(p),
                value,
            } => {
                let driver = circuit.node(site).fanin()[p as usize];
                format!(
                    "{}.pin{}({}) stuck-at-{}",
                    name(site),
                    p,
                    name(driver),
                    u8::from(value)
                )
            }
            Fault::OpenSeries { site } => format!("{} series-open", name(site)),
            Fault::OpenParallel { site, pin } => {
                format!("{} parallel-open(pin{pin})", name(site))
            }
            Fault::OpenRise { site } => format!("{} open-rise", name(site)),
            Fault::OpenFall { site } => format!("{} open-fall", name(site)),
            Fault::Transition {
                site,
                pin: None,
                transition,
            } => format!("{} {transition}", name(site)),
            Fault::Transition {
                site,
                pin: Some(p),
                transition,
            } => {
                let driver = circuit.node(site).fanin()[p as usize];
                format!("{}->{} (pin {p}) {transition}", name(driver), name(site))
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::StuckAt {
                site,
                pin: None,
                value,
            } => write!(f, "{site} sa{}", u8::from(value)),
            Fault::StuckAt {
                site,
                pin: Some(p),
                value,
            } => write!(f, "{site}.{p} sa{}", u8::from(value)),
            Fault::OpenSeries { site } => write!(f, "{site} op-s"),
            Fault::OpenParallel { site, pin } => write!(f, "{site}.{pin} op-p"),
            Fault::OpenRise { site } => write!(f, "{site} op-r"),
            Fault::OpenFall { site } => write!(f, "{site} op-f"),
            Fault::Transition {
                site,
                pin: None,
                transition,
            } => write!(f, "{site} {}", transition.short_name()),
            Fault::Transition {
                site,
                pin: Some(p),
                transition,
            } => write!(f, "{site}.{p} {}", transition.short_name()),
        }
    }
}

/// The direction of a transition fault's late transition.
///
/// # Example
///
/// ```
/// use bist_fault::{Fault, Transition};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let f = Fault::Transition { site: g10, pin: None, transition: Transition::SlowToRise };
/// assert!(!Transition::SlowToRise.initial_value());
/// assert_eq!(f.describe(&c17), "G10 slow-to-rise");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transition {
    /// The line rises too slowly: under the second pattern it still shows
    /// the *initial* value `0`.
    SlowToRise,
    /// The line falls too slowly: under the second pattern it still shows
    /// the *initial* value `1`.
    SlowToFall,
}

impl Transition {
    /// Both directions, for iteration.
    pub const BOTH: [Transition; 2] = [Transition::SlowToRise, Transition::SlowToFall];

    /// The value the line holds *before* the (late) transition — also the
    /// value the faulty line erroneously retains under the second pattern.
    pub fn initial_value(self) -> bool {
        matches!(self, Transition::SlowToFall)
    }

    fn short_name(self) -> &'static str {
        match self {
            Transition::SlowToRise => "str",
            Transition::SlowToFall => "stf",
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

/// Lifecycle of a fault during grading and test generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultStatus {
    /// Not yet detected by any simulated pattern.
    #[default]
    Undetected,
    /// Detected by at least one pattern (or pattern pair).
    Detected,
    /// Proven untestable by exhaustive ATPG search — excluded from the
    /// achievable-coverage denominator ceiling (the paper's 96.7 % for
    /// C3540 comes from 135 such faults).
    Redundant,
    /// ATPG gave up before proving either way (backtrack limit).
    Aborted,
}

impl FaultStatus {
    /// True if the fault still needs attention from ATPG.
    pub fn is_open(self) -> bool {
        matches!(self, FaultStatus::Undetected | FaultStatus::Aborted)
    }
}

impl fmt::Display for FaultStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultStatus::Undetected => "undetected",
            FaultStatus::Detected => "detected",
            FaultStatus::Redundant => "redundant",
            FaultStatus::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_stem_and_branch() {
        let c17 = bist_netlist::iscas85::c17();
        let g16 = c17.find("G16").unwrap();
        let stem = Fault::StuckAt {
            site: g16,
            pin: None,
            value: false,
        };
        assert_eq!(stem.describe(&c17), "G16 stuck-at-0");
        let branch = Fault::StuckAt {
            site: g16,
            pin: Some(1),
            value: true,
        };
        assert_eq!(branch.describe(&c17), "G16.pin1(G11) stuck-at-1");
    }

    #[test]
    fn status_lifecycle() {
        assert!(FaultStatus::Undetected.is_open());
        assert!(FaultStatus::Aborted.is_open());
        assert!(!FaultStatus::Detected.is_open());
        assert!(!FaultStatus::Redundant.is_open());
        assert_eq!(FaultStatus::default(), FaultStatus::Undetected);
    }

    #[test]
    fn classification_helpers() {
        let c17 = bist_netlist::iscas85::c17();
        let g10 = c17.find("G10").unwrap();
        assert!(Fault::OpenSeries { site: g10 }.is_stuck_open());
        assert!(!Fault::OpenSeries { site: g10 }.is_stuck_at());
        let delay = Fault::Transition {
            site: g10,
            pin: None,
            transition: Transition::SlowToRise,
        };
        assert!(delay.is_transition());
        assert!(!delay.is_stuck_open() && !delay.is_stuck_at());
    }

    #[test]
    fn transition_value_conventions() {
        assert!(!Transition::SlowToRise.initial_value());
        assert!(Transition::SlowToFall.initial_value());
    }

    #[test]
    fn describe_names_transition_stem_and_branch() {
        let c17 = bist_netlist::iscas85::c17();
        let g10 = c17.find("G10").unwrap();
        let stem = Fault::Transition {
            site: g10,
            pin: None,
            transition: Transition::SlowToFall,
        };
        assert_eq!(stem.describe(&c17), "G10 slow-to-fall");
        let g16 = c17.find("G16").unwrap();
        let branch = Fault::Transition {
            site: g16,
            pin: Some(1),
            transition: Transition::SlowToRise,
        };
        assert_eq!(branch.describe(&c17), "G11->G16 (pin 1) slow-to-rise");
    }
}
