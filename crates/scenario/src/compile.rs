//! Compiling decoded scenarios onto the engines: `EnvParams` grids,
//! `JammingScenario`s, `FieldConfig`s, and fleet `CampaignSpec`s.
//!
//! Everything here is pure construction — no RNG, no IO. A scenario
//! validated by [`crate::schema`] always compiles (the `expect`s below
//! restate invariants the decoder already enforced), and two parses of
//! the same bytes compile to identical specs, so campaign fingerprints
//! are stable.

use crate::schema::{Campaign, Field, LinkSweep, Sweep, SweepAxis};
use ctjam_channel::link::{JammerKind, JammingScenario};
use ctjam_core::adversary::{AdversaryConfig, JammerMode};
use ctjam_core::env::EnvParams;
use ctjam_core::field::FieldConfig;
use ctjam_core::runner::SweepBudget;
use ctjam_fault::{FaultRates, FaultSite};
use ctjam_fleet::{CampaignFaults, CampaignPolicy, CampaignSpec};

/// A defender policy named in a campaign scenario, before it is turned
/// into a [`CampaignPolicy`] (which is not `PartialEq`/`Debug`-friendly
/// because of the shared-weights variant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyChoice {
    /// Fixed channel, lowest power.
    NoDefense,
    /// Hop only after a jammed slot.
    PassiveFh,
    /// Hop to a uniformly random channel every slot.
    RandomFh,
    /// Random hopping plus decoy transmissions at the given rate.
    DecoyRandomFh(f64),
    /// Train a fresh DQN per episode under the scenario budget.
    TrainDqn,
}

/// Parses a policy name from the scenario grammar: `"no-defense"`,
/// `"passive-fh"`, `"random-fh"`, `"decoy-random-fh(RATE)"` with a
/// decoy rate in `[0, 1]`, or `"train-dqn"`.
pub fn parse_policy(s: &str) -> Option<PolicyChoice> {
    match s {
        "no-defense" => return Some(PolicyChoice::NoDefense),
        "passive-fh" => return Some(PolicyChoice::PassiveFh),
        "random-fh" => return Some(PolicyChoice::RandomFh),
        "train-dqn" => return Some(PolicyChoice::TrainDqn),
        _ => {}
    }
    let rate = s
        .strip_prefix("decoy-random-fh(")
        .and_then(|r| r.strip_suffix(')'))?;
    let rate: f64 = rate.parse().ok()?;
    if rate.is_finite() && (0.0..=1.0).contains(&rate) {
        Some(PolicyChoice::DecoyRandomFh(rate))
    } else {
        None
    }
}

impl PolicyChoice {
    /// The fleet policy this choice names, with `budget` supplying the
    /// `train-dqn` slots.
    pub fn to_campaign_policy(self, budget: SweepBudget) -> CampaignPolicy {
        match self {
            PolicyChoice::NoDefense => CampaignPolicy::NoDefense,
            PolicyChoice::PassiveFh => CampaignPolicy::PassiveFh,
            PolicyChoice::RandomFh => CampaignPolicy::RandomFh,
            PolicyChoice::DecoyRandomFh(rate) => CampaignPolicy::DecoyRandomFh(rate),
            PolicyChoice::TrainDqn => CampaignPolicy::TrainDqn(budget),
        }
    }
}

/// Parses a label the schema already validated; panics otherwise
/// (decoder invariant).
fn adversary(label: &str) -> AdversaryConfig {
    AdversaryConfig::parse_label(label)
        .unwrap_or_else(|| panic!("validated adversary label {label:?} failed to parse"))
}

/// Applies one env-override / sweep-axis assignment to a point.
fn apply_axis(base: &EnvParams, axis: &str, value: f64) -> EnvParams {
    let mut p = base.clone();
    match axis {
        "l_j" => p.l_j = value,
        "l_h" => p.l_h = value,
        "l_decoy" => p.l_decoy = value,
        "tj_residual_per" => p.tj_residual_per = value,
        "sweep_cycle" => p.adversary = p.adversary.with_sweep_cycle(value as usize),
        "tx_lower_bound" => p = p.with_tx_lower_bound(value as i64),
        other => panic!("validated axis {other:?} failed to compile"),
    }
    p
}

/// One sweep axis compiled to a runnable table: display labels plus the
/// environment point for each value (jammer mode not yet applied).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSweep {
    /// Display name (`SweepAxis::name`).
    pub name: String,
    /// Filename-safe slug of the name (alphanumerics lowercased,
    /// everything else `_`) — used in replay-trace and CSV names.
    pub slug: String,
    /// X-axis labels, one per value (`Display` of the value).
    pub xs: Vec<String>,
    /// One environment point per value.
    pub points: Vec<EnvParams>,
}

/// The filename-safe slug the sweep bins have always used.
pub fn slugify(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Clones `points` with the jammer mode forced on every point.
pub fn apply_mode(points: &[EnvParams], mode: JammerMode) -> Vec<EnvParams> {
    points
        .iter()
        .cloned()
        .map(|mut p| {
            p.adversary.mode = mode;
            p
        })
        .collect()
}

impl LinkSweep {
    /// The channel-crate scenario this sweep evaluates.
    pub fn scenario(&self) -> JammingScenario {
        JammingScenario {
            link_distance_m: self.link_distance_m,
            tx_power_dbm: self.tx_power_dbm,
            payload_bytes: self.payload_bytes,
            ..JammingScenario::default()
        }
    }

    /// The jammer kinds, in evaluation order.
    pub fn kinds(&self) -> Vec<JammerKind> {
        self.jammers
            .iter()
            .map(|name| match name.as_str() {
                "emubee" => JammerKind::EmuBee,
                "zigbee" => JammerKind::ZigBee,
                "wifi-ofdm" => JammerKind::WifiOfdm,
                other => panic!("validated jammer family {other:?} failed to compile"),
            })
            .collect()
    }
}

impl Sweep {
    /// The per-point training/evaluation budget.
    pub fn budget(&self) -> SweepBudget {
        SweepBudget {
            train_slots: self.train_slots,
            eval_slots: self.eval_slots,
        }
    }

    /// The jammer modes to run, in scenario order.
    pub fn jammer_modes(&self) -> Vec<JammerMode> {
        self.modes
            .iter()
            .map(|m| match m.as_str() {
                "max-power" => JammerMode::MaxPower,
                "random-power" => JammerMode::RandomPower,
                other => panic!("validated jammer mode {other:?} failed to compile"),
            })
            .collect()
    }

    /// Every sweep axis compiled to its point grid.
    pub fn tables(&self) -> Vec<CompiledSweep> {
        let base = EnvParams {
            adversary: adversary(&self.adversary),
            ..EnvParams::default()
        };
        self.sweeps
            .iter()
            .map(|axis| compile_axis(&base, axis))
            .collect()
    }
}

fn compile_axis(base: &EnvParams, axis: &SweepAxis) -> CompiledSweep {
    CompiledSweep {
        name: axis.name.clone(),
        slug: slugify(&axis.name),
        xs: axis.values.iter().map(|v| format!("{v}")).collect(),
        points: axis
            .values
            .iter()
            .map(|&v| apply_axis(base, &axis.axis, v))
            .collect(),
    }
}

impl Field {
    /// The field-experiment configuration (defaults plus overrides).
    pub fn config(&self) -> FieldConfig {
        FieldConfig {
            num_peripherals: self.num_peripherals,
            payload_len: self.payload_len,
            ..FieldConfig::default()
        }
    }
}

impl Campaign {
    /// The base environment: defaults plus the scenario's env overrides,
    /// applied in file order. The adversary is replaced per grid point.
    pub fn base_env(&self) -> EnvParams {
        let mut base = EnvParams::default();
        for (key, value) in &self.env {
            base = apply_axis(&base, key, *value);
        }
        base
    }

    /// The grid points: one per adversary label, sharing the base env.
    pub fn points(&self) -> Vec<EnvParams> {
        let base = self.base_env();
        self.adversaries
            .iter()
            .map(|label| EnvParams {
                adversary: adversary(label),
                ..base.clone()
            })
            .collect()
    }

    /// The fleet fault plan, if the scenario injects faults. Rates apply
    /// in file order; a `"uniform"` entry sets every site (so later
    /// named sites override it).
    pub fn campaign_faults(&self) -> Option<CampaignFaults> {
        self.faults.as_ref().map(|f| {
            let mut rates = FaultRates::zero();
            for (key, p) in &f.rates {
                if key == "uniform" {
                    rates = FaultRates::uniform(*p);
                } else {
                    let site = FaultSite::ALL
                        .iter()
                        .copied()
                        .find(|s| s.name() == key)
                        .unwrap_or_else(|| {
                            panic!("validated fault site {key:?} failed to compile")
                        });
                    rates = rates.with(site, *p);
                }
            }
            CampaignFaults {
                seed: f.seed,
                rates,
            }
        })
    }

    /// The `train-dqn` budget.
    pub fn budget(&self) -> SweepBudget {
        SweepBudget {
            train_slots: self.train_slots,
            eval_slots: self.eval_slots,
        }
    }

    /// One fleet spec per policy, in scenario order, named
    /// `"<scenario_name>::<policy>"`.
    pub fn specs(&self, scenario_name: &str) -> Vec<(String, CampaignSpec)> {
        let points = self.points();
        let faults = self.campaign_faults();
        self.policies
            .iter()
            .map(|label| {
                let choice = parse_policy(label)
                    .unwrap_or_else(|| panic!("validated policy {label:?} failed to compile"));
                let spec = CampaignSpec {
                    name: format!("{scenario_name}::{label}"),
                    points: points.clone(),
                    seeds: self.seeds.clone(),
                    policy: choice.to_campaign_policy(self.budget()),
                    slots: self.slots,
                    kernel: self.kernel,
                    base_seed: self.base_seed,
                    faults,
                };
                (label.clone(), spec)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_grammar_parses_and_rejects() {
        assert_eq!(parse_policy("no-defense"), Some(PolicyChoice::NoDefense));
        assert_eq!(parse_policy("train-dqn"), Some(PolicyChoice::TrainDqn));
        assert_eq!(
            parse_policy("decoy-random-fh(0.25)"),
            Some(PolicyChoice::DecoyRandomFh(0.25))
        );
        for junk in [
            "",
            "dqn",
            "decoy-random-fh",
            "decoy-random-fh()",
            "decoy-random-fh(1.5)",
            "decoy-random-fh(nan)",
        ] {
            assert_eq!(parse_policy(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn axis_application_matches_hand_construction() {
        let base = EnvParams::default();
        assert_eq!(apply_axis(&base, "l_j", 65.0).l_j, 65.0);
        assert_eq!(
            apply_axis(&base, "tx_lower_bound", 9.0).tx_powers,
            EnvParams::default().with_tx_lower_bound(9).tx_powers
        );
        assert_eq!(
            apply_axis(&base, "sweep_cycle", 4.0)
                .adversary
                .sweep_cycle(),
            4
        );
    }

    #[test]
    fn slug_matches_the_historical_fig_bins() {
        assert_eq!(slugify("L_J"), "l_j");
        assert_eq!(slugify("sweep cycle"), "sweep_cycle");
        assert_eq!(slugify("lb(L_p)"), "lb_l_p_");
    }
}
