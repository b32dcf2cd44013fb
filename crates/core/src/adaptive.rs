//! An adaptive, traffic-predicting jammer — the DeepJam-class adversary
//! from the paper's related work (reference \[14\]: "relies on deep learning
//! techniques to capture the temporal pattern of the past wireless
//! traffic and predict the future wireless traffic").
//!
//! Unlike the sweeping jammer of §II.C, the adaptive jammer is granted
//! wideband energy sensing: it observes which 4-channel block the victim
//! used in every past slot (an upper-bound adversary — a Wi-Fi front end
//! can energy-detect the whole 2.4 GHz band), fits a predictor to that
//! history, and jams the block it expects the victim to use next.
//!
//! Three predictors are provided, from dumb to DeepJam-like:
//!
//! * [`PredictorKind::LastBlock`] — assume the victim stays put;
//! * [`PredictorKind::Markov`] — first-order transition counting;
//! * [`PredictorKind::Rnn`] — an online-trained Elman RNN
//!   ([`ctjam_nn::rnn`]), capturing longer temporal patterns.
//!
//! Environments get it like every other adversary, from
//! [`AdversaryConfig::adaptive`] (plus [`AdversaryConfig::eavesdrop`] for
//! a jammer that reads plaintext announcements) through
//! [`AdversaryConfig::build`]; its hit rate is
//! [`crate::env::CompetitionEnv::adversary_probe`]'s.
//!
//! The headline lesson this module surfaces: a *deterministic* hopping
//! policy (however clever) is predictable and collapses against this
//! adversary, while randomized hopping bounds the jammer at chance level
//! — see the `adaptive_jammer` bench.

use crate::adversary::{
    pick_power, Adversary, AdversaryConfig, AdversaryProbe, ChannelBlock, JamAction, JammerMode,
    SlotSense,
};
use ctjam_nn::optimizer::Adam;
use ctjam_nn::rnn::Rnn;
use rand::Rng;
use std::collections::VecDeque;

/// Which prediction model the adaptive jammer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// Predict the block used last slot.
    LastBlock,
    /// First-order Markov transition counts.
    #[default]
    Markov,
    /// Online-trained Elman RNN over the block sequence.
    Rnn,
}

/// The block predictor.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one predictor per jammer; size is irrelevant
enum Predictor {
    LastBlock,
    Markov {
        /// `counts[from][to]` transition counts with add-one smoothing.
        counts: Vec<Vec<f64>>,
    },
    Rnn {
        rnn: Rnn,
        optimizer: Adam,
        /// Training window of observed blocks.
        window: VecDeque<usize>,
        window_len: usize,
        train_interval: usize,
        steps: usize,
    },
}

impl Predictor {
    fn new<R: Rng + ?Sized>(kind: PredictorKind, blocks: usize, rng: &mut R) -> Self {
        match kind {
            PredictorKind::LastBlock => Predictor::LastBlock,
            PredictorKind::Markov => Predictor::Markov {
                counts: vec![vec![1.0; blocks]; blocks],
            },
            PredictorKind::Rnn => Predictor::Rnn {
                rnn: Rnn::new(blocks, 16, blocks, rng),
                optimizer: Adam::with_learning_rate(5e-3),
                window: VecDeque::with_capacity(64),
                window_len: 32,
                train_interval: 4,
                steps: 0,
            },
        }
    }

    /// Predicts the next block given the most recent block.
    fn predict(&self, history: &VecDeque<usize>, blocks: usize) -> usize {
        let Some(&last) = history.back() else {
            return 0;
        };
        match self {
            Predictor::LastBlock => last,
            Predictor::Markov { counts } => counts[last]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite counts"))
                .map(|(i, _)| i)
                .unwrap_or(0),
            Predictor::Rnn { rnn, .. } => {
                // Run the RNN over the recent history and take the argmax
                // of the final output.
                let xs: Vec<Vec<f64>> = history.iter().map(|&b| one_hot(b, blocks)).collect();
                let outputs = rnn.run(&xs);
                outputs.last().map(|y| argmax(y)).unwrap_or(0)
            }
        }
    }

    /// Records an observed block (and its predecessor relation).
    fn observe(&mut self, history: &VecDeque<usize>, block: usize, blocks: usize) {
        match self {
            Predictor::LastBlock => {}
            Predictor::Markov { counts } => {
                if let Some(&prev) = history.back() {
                    counts[prev][block] += 1.0;
                }
            }
            Predictor::Rnn {
                rnn,
                optimizer,
                window,
                window_len,
                train_interval,
                steps,
            } => {
                window.push_back(block);
                if window.len() > *window_len {
                    window.pop_front();
                }
                *steps += 1;
                if window.len() >= 4 && steps.is_multiple_of(*train_interval) {
                    let seq: Vec<usize> = window.iter().copied().collect();
                    let xs: Vec<Vec<f64>> = seq[..seq.len() - 1]
                        .iter()
                        .map(|&b| one_hot(b, blocks))
                        .collect();
                    let ys: Vec<Vec<f64>> = seq[1..].iter().map(|&b| one_hot(b, blocks)).collect();
                    rnn.train_sequence(&xs, &ys, optimizer);
                }
            }
        }
    }
}

fn one_hot(index: usize, len: usize) -> Vec<f64> {
    let mut v = vec![0.0; len];
    v[index] = 1.0;
    v
}

fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite values"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The adaptive jammer: wideband sensing + traffic prediction.
#[derive(Debug, Clone)]
pub struct AdaptiveJammer {
    blocks: usize,
    jam_width: usize,
    powers: Vec<f64>,
    mode: JammerMode,
    predictor: Predictor,
    history: VecDeque<usize>,
    history_cap: usize,
    hits: u64,
    shots: u64,
    /// Whether the jammer reads the hub's plaintext FH/PC announcements
    /// (no prediction needed).
    eavesdropping: bool,
}

impl AdaptiveJammer {
    /// Creates an adaptive jammer with the `kind` predictor on `config`'s
    /// front end, drawing the predictor's initial weights from `rng`.
    ///
    /// With `eavesdrop` the jammer reads the hub's plaintext FH/PC
    /// announcements instead of predicting. §IV.A.2 has the hub announce
    /// next-slot FH/PC info to peripherals in advance, noting it "can be
    /// encrypted to prevent eavesdropping"; this mode quantifies why.
    /// Encrypted announcements would be opaque, which leaves the jammer
    /// its predictor (`eavesdrop = false`).
    pub fn new<R: Rng + ?Sized>(
        config: &AdversaryConfig,
        kind: PredictorKind,
        eavesdrop: bool,
        rng: &mut R,
    ) -> Self {
        let blocks = config.sweep_cycle();
        AdaptiveJammer {
            blocks,
            jam_width: config.jam_width,
            powers: config.powers.clone(),
            mode: config.mode,
            predictor: Predictor::new(kind, blocks, rng),
            history: VecDeque::with_capacity(64),
            history_cap: 32,
            hits: 0,
            shots: 0,
            eavesdropping: eavesdrop,
        }
    }
}

impl Adversary for AdaptiveJammer {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn rand::RngCore) -> JamAction {
        let victim_block = sense.victim_channel / self.jam_width;
        // An eavesdropper was told where the victim will be, and decoys
        // cannot fool a frame-decoding adversary. A predictor commits to
        // its block before seeing where the victim goes.
        let block = if self.eavesdropping {
            victim_block
        } else {
            self.predictor
                .predict(&self.history, self.blocks)
                .min(self.blocks - 1)
        };
        let action = JamAction {
            block: ChannelBlock::of_block_index(block, self.jam_width),
            power: pick_power(&self.powers, self.mode, rng),
            locked: true,
        };
        self.shots += 1;
        if block == victim_block {
            self.hits += 1;
        }
        if !self.eavesdropping {
            // Wideband energy detection: the hit counter scores against
            // the real victim, but the predictor learns from what the
            // detector heard loudest — the decoy, if any — so bait
            // pollutes the learned traffic pattern.
            let sensed_block = sense.sensed_channel() / self.jam_width;
            self.predictor
                .observe(&self.history, sensed_block, self.blocks);
            self.history.push_back(sensed_block);
            if self.history.len() > self.history_cap {
                self.history.pop_front();
            }
        }
        action
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(self.clone())
    }

    fn probe(&self) -> AdversaryProbe {
        AdversaryProbe {
            shots: self.shots,
            hits: self.hits,
            idle_slots: 0,
            energy: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defender::{Defender, RandomFh};
    use crate::env::{CompetitionEnv, Decision, EnvParams, SlotResult};
    use crate::runner::RunBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The default environment facing `adversary`.
    fn params_against(adversary: AdversaryConfig) -> EnvParams {
        EnvParams {
            adversary,
            ..EnvParams::default()
        }
    }

    fn run_pattern(kind: PredictorKind, pattern: &[usize], slots: usize, seed: u64) -> f64 {
        // A deterministic victim cycling through the given channels.
        let params = params_against(AdversaryConfig::adaptive(kind));
        let mut r = rng(seed);
        let mut env = CompetitionEnv::new(params, &mut r);
        for t in 0..slots {
            let d = Decision {
                channel: pattern[t % pattern.len()],
                power_level: 0,
            };
            env.step(d, &mut r);
        }
        env.adversary_probe().hit_rate()
    }

    #[test]
    fn all_predictors_nail_a_static_victim() {
        for kind in [
            PredictorKind::LastBlock,
            PredictorKind::Markov,
            PredictorKind::Rnn,
        ] {
            let hit = run_pattern(kind, &[5], 300, 1);
            assert!(hit > 0.9, "{kind:?} hit rate {hit} on a static victim");
        }
    }

    #[test]
    fn markov_learns_an_alternating_victim() {
        // Channels 1 and 9 live in blocks 0 and 2: a last-block jammer is
        // always one step behind (0% hits); Markov learns the alternation.
        let last = run_pattern(PredictorKind::LastBlock, &[1, 9], 400, 2);
        let markov = run_pattern(PredictorKind::Markov, &[1, 9], 400, 2);
        assert!(last < 0.1, "last-block should always miss: {last}");
        assert!(markov > 0.8, "markov should learn the cycle: {markov}");
    }

    #[test]
    fn rnn_learns_a_pattern_markov_cannot() {
        // Period-4 pattern 0,0,8,12 (blocks 0,0,2,3): from block 0 the
        // next block is 0 half the time and 2 half the time — a
        // first-order model peaks at 75%; the RNN can disambiguate by
        // remembering one more step.
        let pattern = [0usize, 0, 8, 12];
        let markov = run_pattern(PredictorKind::Markov, &pattern, 1_200, 3);
        let rnn = run_pattern(PredictorKind::Rnn, &pattern, 1_200, 3);
        assert!(markov <= 0.85, "markov unexpectedly high: {markov}");
        assert!(
            rnn > markov + 0.05,
            "rnn ({rnn}) should beat markov ({markov}) on a 2nd-order pattern"
        );
    }

    /// A victim hopping to a uniformly random channel every slot — the
    /// information-theoretic worst case for any predictor.
    struct UniformHopper {
        num_channels: usize,
    }

    impl Defender for UniformHopper {
        fn name(&self) -> &str {
            "uniform hopper"
        }
        fn decide(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
            use rand::Rng as _;
            Decision {
                channel: rng.gen_range(0..self.num_channels),
                power_level: 0,
            }
        }
        fn feedback(&mut self, _result: &SlotResult, _rng: &mut dyn rand::RngCore) {}
    }

    #[test]
    fn uniform_hopping_bounds_any_predictor_at_chance() {
        // 4 blocks → chance = 25%. No predictor can beat a uniformly
        // random victim by a meaningful margin.
        for kind in [PredictorKind::Markov, PredictorKind::Rnn] {
            let params = params_against(AdversaryConfig::adaptive(kind));
            let mut r = rng(4);
            let mut env = CompetitionEnv::new(params.clone(), &mut r);
            let mut defender = UniformHopper { num_channels: 16 };
            let _ = RunBuilder::new(&params).run_in(&mut env, &mut defender, 1_500, &mut r);
            let hit = env.adversary_probe().hit_rate();
            assert!(
                (hit - 0.25).abs() < 0.08,
                "{kind:?} should sit at chance vs a uniform victim: {hit}"
            );
        }
    }

    #[test]
    fn rand_fh_is_half_predictable() {
        // The paper's Rand FH baseline stays put whenever it picks the PC
        // arm (half the slots), so even a Markov predictor lands well
        // above chance against it — randomized *hopping* is not the same
        // as a randomized *strategy*.
        let params = params_against(AdversaryConfig::adaptive(PredictorKind::Markov));
        let mut r = rng(4);
        let mut env = CompetitionEnv::new(params.clone(), &mut r);
        let mut defender = RandomFh::new(&params, &mut r);
        let _ = RunBuilder::new(&params).run_in(&mut env, &mut defender, 1_500, &mut r);
        let hit = env.adversary_probe().hit_rate();
        assert!(
            hit > 0.4,
            "Rand FH's stay-arm should make it predictable: {hit}"
        );
    }

    #[test]
    fn plaintext_announcements_are_fatal_and_encryption_restores_the_fight() {
        // §IV.A.2's "can be encrypted to prevent eavesdropping",
        // quantified: the same uniformly hopping victim faces an
        // announcement-reading jammer with and without encryption (an
        // encrypted announcement leaves the jammer its predictor).
        let markov = AdversaryConfig::adaptive(PredictorKind::Markov);
        let params = params_against(markov.clone().eavesdrop());

        let mut r = rng(6);
        let mut plaintext = CompetitionEnv::new(params.clone(), &mut r);
        let mut victim = UniformHopper { num_channels: 16 };
        let report = RunBuilder::new(&params).run_in(&mut plaintext, &mut victim, 800, &mut r);
        assert!(
            report.metrics.success_rate() < 0.05,
            "plaintext announcements should be fatal: ST {}",
            report.metrics.success_rate()
        );
        assert!(plaintext.adversary_probe().hit_rate() > 0.99);

        let params = params_against(markov);
        let mut r = rng(6);
        let mut encrypted = CompetitionEnv::new(params.clone(), &mut r);
        let mut victim = UniformHopper { num_channels: 16 };
        let report = RunBuilder::new(&params).run_in(&mut encrypted, &mut victim, 800, &mut r);
        assert!(
            report.metrics.success_rate() > 0.6,
            "encryption should restore ~chance-level jamming: ST {}",
            report.metrics.success_rate()
        );
    }

    #[test]
    fn adaptive_jammer_slots_pay_eq5_rewards() {
        let params = params_against(AdversaryConfig::adaptive(PredictorKind::Markov));
        let mut r = rng(5);
        let mut env = CompetitionEnv::new(params.clone(), &mut r);
        let d = Decision {
            channel: env.current_channel(),
            power_level: 0,
        };
        let result = env.step(d, &mut r);
        let base = -params.tx_powers[0];
        assert!(result.reward == base || result.reward == base - params.l_j);
    }
}
