//! Table I evaluation metrics.
//!
//! | metric | definition |
//! |--------|------------|
//! | `ST` | proportion of slots that transmit data successfully |
//! | `AH` | slots adopting FH / total slots |
//! | `SH` | successful slots among those adopting FH |
//! | `AP` | slots adopting PC / total slots |
//! | `SP` | successful slots among those adopting PC |

use crate::env::SlotResult;

/// Accumulates Table I metrics across slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    slots: u64,
    successes: u64,
    fh_adopted: u64,
    fh_successes: u64,
    pc_adopted: u64,
    pc_successes: u64,
    jammed: u64,
    jammed_survived: u64,
    power_level_sum: u64,
}

impl Metrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one slot.
    pub fn record(&mut self, result: &SlotResult) {
        self.slots += 1;
        let success = result.outcome.is_success();
        if success {
            self.successes += 1;
        }
        match result.outcome {
            crate::env::Outcome::Jammed => self.jammed += 1,
            crate::env::Outcome::JammedSurvived => self.jammed_survived += 1,
            crate::env::Outcome::Clean => {}
        }
        if result.hopped {
            self.fh_adopted += 1;
            if success {
                self.fh_successes += 1;
            }
        }
        if result.power_control {
            self.pc_adopted += 1;
            if success {
                self.pc_successes += 1;
            }
        }
        self.power_level_sum += result.decision.power_level as u64;
    }

    /// Slots recorded.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The raw accumulator fields in declaration order — the
    /// checkpoint-serialization form (see [`Metrics::from_array`]).
    pub fn to_array(&self) -> [u64; 9] {
        [
            self.slots,
            self.successes,
            self.fh_adopted,
            self.fh_successes,
            self.pc_adopted,
            self.pc_successes,
            self.jammed,
            self.jammed_survived,
            self.power_level_sum,
        ]
    }

    /// Rebuilds an accumulator from [`Metrics::to_array`]'s form.
    pub fn from_array(fields: [u64; 9]) -> Self {
        let [slots, successes, fh_adopted, fh_successes, pc_adopted, pc_successes, jammed, jammed_survived, power_level_sum] =
            fields;
        Metrics {
            slots,
            successes,
            fh_adopted,
            fh_successes,
            pc_adopted,
            pc_successes,
            jammed,
            jammed_survived,
            power_level_sum,
        }
    }

    /// `ST`: success rate of transmission.
    pub fn success_rate(&self) -> f64 {
        ratio(self.successes, self.slots)
    }

    /// `AH`: adoption rate of frequency hopping.
    pub fn fh_adoption_rate(&self) -> f64 {
        ratio(self.fh_adopted, self.slots)
    }

    /// `SH`: success rate of frequency hopping.
    pub fn fh_success_rate(&self) -> f64 {
        ratio(self.fh_successes, self.fh_adopted)
    }

    /// `AP`: adoption rate of power control.
    pub fn pc_adoption_rate(&self) -> f64 {
        ratio(self.pc_adopted, self.slots)
    }

    /// `SP`: success rate of power control.
    pub fn pc_success_rate(&self) -> f64 {
        ratio(self.pc_successes, self.pc_adopted)
    }

    /// Fraction of slots fully jammed (`J`).
    pub fn jam_rate(&self) -> f64 {
        ratio(self.jammed, self.slots)
    }

    /// Fraction of slots jammed-but-survived (`TJ`).
    pub fn tj_rate(&self) -> f64 {
        ratio(self.jammed_survived, self.slots)
    }

    /// Mean transmit power-level *index* per slot — the suite's energy
    /// proxy (§IV.C.2: low PC adoption "can avoid unnecessary and
    /// meaningless energy waste, which is of great importance to
    /// energy-constrained applications").
    pub fn mean_power_level(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.power_level_sum as f64 / self.slots as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.slots += other.slots;
        self.successes += other.successes;
        self.fh_adopted += other.fh_adopted;
        self.fh_successes += other.fh_successes;
        self.pc_adopted += other.pc_adopted;
        self.pc_successes += other.pc_successes;
        self.jammed += other.jammed;
        self.jammed_survived += other.jammed_survived;
        self.power_level_sum += other.power_level_sum;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::JamAction;
    use crate::env::{Decision, Outcome, SlotResult};

    fn slot(outcome: Outcome, hopped: bool, pc: bool) -> SlotResult {
        SlotResult {
            decision: Decision {
                channel: 0,
                power_level: usize::from(pc) * 5,
            },
            outcome,
            hopped,
            power_control: pc,
            reward: 0.0,
            jam_action: JamAction {
                block: crate::adversary::ChannelBlock::of_block_index(0, 4),
                power: 20.0,
                locked: false,
            },
        }
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.success_rate(), 0.0);
        assert_eq!(m.fh_success_rate(), 0.0);
        assert_eq!(m.pc_adoption_rate(), 0.0);
    }

    #[test]
    fn table_i_definitions() {
        let mut m = Metrics::new();
        m.record(&slot(Outcome::Clean, false, false));
        m.record(&slot(Outcome::Clean, true, false)); // FH, success
        m.record(&slot(Outcome::Jammed, true, false)); // FH, failure
        m.record(&slot(Outcome::JammedSurvived, false, true)); // PC, success
        assert_eq!(m.slots(), 4);
        assert_eq!(m.success_rate(), 0.75);
        assert_eq!(m.fh_adoption_rate(), 0.5);
        assert_eq!(m.fh_success_rate(), 0.5);
        assert_eq!(m.pc_adoption_rate(), 0.25);
        assert_eq!(m.pc_success_rate(), 1.0);
        assert_eq!(m.jam_rate(), 0.25);
        assert_eq!(m.tj_rate(), 0.25);
        // One PC slot at level 5 over four slots.
        assert_eq!(m.mean_power_level(), 1.25);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Metrics::new();
        a.record(&slot(Outcome::Clean, false, false));
        let mut b = Metrics::new();
        b.record(&slot(Outcome::Jammed, true, true));
        a.merge(&b);
        assert_eq!(a.slots(), 2);
        assert_eq!(a.success_rate(), 0.5);
        assert_eq!(a.fh_adoption_rate(), 0.5);
    }

    #[test]
    fn tj_counts_as_success() {
        let mut m = Metrics::new();
        m.record(&slot(Outcome::JammedSurvived, false, false));
        assert_eq!(m.success_rate(), 1.0);
        assert_eq!(m.jam_rate(), 0.0);
        assert_eq!(m.tj_rate(), 1.0);
    }
}
