//! End-to-end link budget and the Fig. 2(b) jamming-effect scenario.
//!
//! A [`JammingScenario`] places a legitimate ZigBee link at a fixed
//! distance and a jammer at a variable distance, then evaluates PER and
//! throughput for each jammer kind — reproducing the paper's effect-
//! verification experiment (EmuBee > ZigBee > Wi-Fi).

use crate::fading::Fading;
use crate::interference::{InterferenceKind, Interferer};
use crate::noise::NoiseFloor;
use crate::pathloss::PathLoss;
use crate::per::{goodput_bps, per_from_sinr};
use crate::sinr::sinr_linear;

/// Jammer signal families selectable in the scenario (Fig. 2(b) legend).
pub type JammerKind = InterferenceKind;

/// Result of evaluating a jammed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkReport {
    /// Linear SINR at the victim receiver.
    pub sinr: f64,
    /// Packet error rate in `[0, 1]`.
    pub per: f64,
    /// Goodput in bits/second.
    pub goodput_bps: f64,
}

/// A star-network link under attack by a single jammer.
///
/// # Example
///
/// ```
/// use ctjam_channel::link::{JammingScenario, JammerKind};
///
/// let s = JammingScenario::default();
/// let emubee = s.evaluate(JammerKind::EmuBee, 8.0);
/// let wifi = s.evaluate(JammerKind::WifiOfdm, 8.0);
/// assert!(emubee.per >= wifi.per, "EmuBee should jam at least as hard");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammingScenario {
    /// Distance between the legitimate transmitter and the hub, meters.
    pub link_distance_m: f64,
    /// Legitimate transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Payload size used for PER, bytes.
    pub payload_bytes: usize,
    /// Propagation model shared by signal and jammer.
    pub path_loss: PathLoss,
    /// Small-scale fading model applied per draw in
    /// [`JammingScenario::evaluate_faded`] (on top of shadowing).
    pub fading: Fading,
    /// Receiver noise model.
    pub noise: NoiseFloor,
}

impl Default for JammingScenario {
    fn default() -> Self {
        JammingScenario {
            link_distance_m: 3.0,
            tx_power_dbm: 0.0,
            payload_bytes: 100,
            path_loss: PathLoss::indoor(),
            fading: Fading::None,
            noise: NoiseFloor::zigbee(),
        }
    }
}

impl JammingScenario {
    /// Evaluates the link with a jammer of `kind` at `jammer_distance_m`
    /// meters from the victim receiver, transmitting at its radio class's
    /// typical power.
    pub fn evaluate(&self, kind: JammerKind, jammer_distance_m: f64) -> LinkReport {
        self.evaluate_with_power(kind, kind.typical_tx_dbm(), jammer_distance_m)
    }

    /// Evaluates with an explicit jammer transmit power in dBm.
    pub fn evaluate_with_power(
        &self,
        kind: JammerKind,
        jammer_tx_dbm: f64,
        jammer_distance_m: f64,
    ) -> LinkReport {
        let signal_dbm = self
            .path_loss
            .received_dbm(self.tx_power_dbm, self.link_distance_m);
        let jammer = Interferer {
            kind,
            received_dbm: self
                .path_loss
                .received_dbm(jammer_tx_dbm, jammer_distance_m),
        };
        let sinr = sinr_linear(signal_dbm, &[jammer], &self.noise);
        let per = per_from_sinr(sinr, self.payload_bytes);
        LinkReport {
            sinr,
            per,
            goodput_bps: goodput_bps(per, self.payload_bytes),
        }
    }

    /// Evaluates the clean (unjammed) link.
    pub fn evaluate_clean(&self) -> LinkReport {
        let signal_dbm = self
            .path_loss
            .received_dbm(self.tx_power_dbm, self.link_distance_m);
        let sinr = sinr_linear(signal_dbm, &[], &self.noise);
        let per = per_from_sinr(sinr, self.payload_bytes);
        LinkReport {
            sinr,
            per,
            goodput_bps: goodput_bps(per, self.payload_bytes),
        }
    }

    /// Sweeps the jammer distance over `distances_m`, producing one
    /// [`LinkReport`] per point — a Fig. 2(b) data series.
    pub fn sweep(&self, kind: JammerKind, distances_m: &[f64]) -> Vec<LinkReport> {
        distances_m
            .iter()
            .map(|&d| self.evaluate(kind, d))
            .collect()
    }

    /// Evaluates the jammed link averaged over `draws` log-normal
    /// shadowing realizations (both the signal and the jammer paths fade
    /// independently). This is what an over-the-air measurement like
    /// Fig. 2(b) actually samples: the shadowing spread turns the BER
    /// waterfall into the gradual PER-vs-distance decline the paper
    /// plots.
    ///
    /// # Panics
    ///
    /// Panics if `draws == 0`.
    pub fn evaluate_faded<R: rand::Rng + ?Sized>(
        &self,
        kind: JammerKind,
        jammer_distance_m: f64,
        draws: usize,
        rng: &mut R,
    ) -> LinkReport {
        assert!(draws > 0, "need at least one shadowing draw");
        let mut per_sum = 0.0;
        let mut goodput_sum = 0.0;
        let mut sinr_sum = 0.0;
        for _ in 0..draws {
            let signal_dbm = self.fading.apply_dbm(
                self.tx_power_dbm - self.path_loss.loss_db_shadowed(self.link_distance_m, rng),
                rng,
            );
            let jammer = Interferer {
                kind,
                received_dbm: self.fading.apply_dbm(
                    kind.typical_tx_dbm() - self.path_loss.loss_db_shadowed(jammer_distance_m, rng),
                    rng,
                ),
            };
            let sinr = sinr_linear(signal_dbm, &[jammer], &self.noise);
            let per = per_from_sinr(sinr, self.payload_bytes);
            per_sum += per;
            goodput_sum += goodput_bps(per, self.payload_bytes);
            sinr_sum += sinr;
        }
        let n = draws as f64;
        LinkReport {
            sinr: sinr_sum / n,
            per: per_sum / n,
            goodput_bps: goodput_sum / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_is_error_free() {
        let report = JammingScenario::default().evaluate_clean();
        assert!(report.per < 1e-6, "clean PER = {}", report.per);
    }

    #[test]
    fn per_decreases_with_jamming_distance() {
        let s = JammingScenario::default();
        for kind in [JammerKind::EmuBee, JammerKind::ZigBee, JammerKind::WifiOfdm] {
            let mut prev = f64::INFINITY;
            for d in 1..=15 {
                let r = s.evaluate(kind, d as f64);
                assert!(
                    r.per <= prev + 1e-12,
                    "{kind:?}: PER rose at {d} m ({} > {prev})",
                    r.per
                );
                prev = r.per;
            }
        }
    }

    #[test]
    fn throughput_increases_with_jamming_distance() {
        let s = JammingScenario::default();
        let near = s.evaluate(JammerKind::EmuBee, 2.0);
        let far = s.evaluate(JammerKind::EmuBee, 14.0);
        assert!(far.goodput_bps >= near.goodput_bps);
    }

    #[test]
    fn jamming_effect_order_matches_paper() {
        // Fig. 2(b): EmuBee ≥ ZigBee ≥ WiFi in jamming effect at every
        // distance (strictly somewhere in the sweep).
        let s = JammingScenario::default();
        let mut strict_ez = false;
        let mut strict_zw = false;
        for d in 1..=15 {
            let d = d as f64;
            let e = s.evaluate(JammerKind::EmuBee, d).per;
            let z = s.evaluate(JammerKind::ZigBee, d).per;
            let w = s.evaluate(JammerKind::WifiOfdm, d).per;
            assert!(e >= z - 1e-12, "EmuBee < ZigBee at {d} m");
            assert!(z >= w - 1e-12, "ZigBee < WiFi at {d} m");
            if e > z + 1e-6 {
                strict_ez = true;
            }
            if z > w + 1e-6 {
                strict_zw = true;
            }
        }
        assert!(strict_ez && strict_zw, "orderings never strict in sweep");
    }

    #[test]
    fn emubee_outranges_zigbee_jammer() {
        // The superiority is "more significant when the jamming distance
        // is long (≥ 10 m)": find the farthest distance where each kind
        // still ruins >50% of packets.
        let s = JammingScenario::default();
        let reach = |kind: JammerKind| {
            (1..=40)
                .map(|d| d as f64 * 0.5)
                .filter(|&d| s.evaluate(kind, d).per > 0.5)
                .fold(0.0f64, f64::max)
        };
        assert!(reach(JammerKind::EmuBee) > reach(JammerKind::ZigBee));
    }

    #[test]
    fn explicit_power_overrides_class_default() {
        let s = JammingScenario::default();
        let weak = s.evaluate_with_power(JammerKind::EmuBee, -10.0, 5.0);
        let strong = s.evaluate_with_power(JammerKind::EmuBee, 20.0, 5.0);
        assert!(strong.per >= weak.per);
    }

    #[test]
    fn fading_broadens_the_per_transition() {
        use crate::fading::Fading;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // At a distance where the deterministic link is on the PER cliff
        // edge, Rayleigh fading pulls the mean PER off the extremes.
        let base = JammingScenario::default();
        let faded = JammingScenario {
            fading: Fading::Rayleigh,
            ..base
        };
        let mut rng = StdRng::seed_from_u64(1);
        // Far jammer: deterministic PER ~0; fading creates deep signal
        // fades, so the mean PER rises above it.
        let det = base.evaluate(JammerKind::EmuBee, 20.0).per;
        let fad = faded
            .evaluate_faded(JammerKind::EmuBee, 20.0, 4_000, &mut rng)
            .per;
        assert!(det < 0.05, "deterministic far link should be clean: {det}");
        assert!(
            fad > det + 0.02,
            "fading should lift the tail PER: {fad} vs {det}"
        );
    }

    #[test]
    fn sweep_returns_one_report_per_distance() {
        let s = JammingScenario::default();
        let ds: Vec<f64> = (1..=15).map(|d| d as f64).collect();
        assert_eq!(s.sweep(JammerKind::EmuBee, &ds).len(), 15);
    }
}
