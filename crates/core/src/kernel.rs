//! The MDP-kernel environment: the paper's *simulation* world.
//!
//! §IV.A.1 evaluates the DQN in Matlab against the abstract competition
//! model — exactly the Eqs. (6)–(14) transition kernel, not a concrete
//! radio. [`KernelEnv`] samples that kernel directly, so Figs. 6–8
//! reproduce the paper's simulation setting faithfully, while
//! [`crate::env::CompetitionEnv`] plays the concrete 16-channel game used
//! by the field experiment (Figs. 9–11).

use crate::adversary::{ChannelBlock, JamAction};
use crate::env::{Decision, EnvParams, Environment, Outcome, SlotResult};
use ctjam_mdp::antijam::{Action as MdpAction, AntijamMdp, AntijamParams, State as MdpState};
use ctjam_mdp::solve::q_learning::sample_transition;
use rand::Rng;

/// Converts environment parameters into the paper's MDP parameters.
pub fn mdp_params_of(params: &EnvParams) -> AntijamParams {
    AntijamParams {
        sweep_cycle: params.adversary.sweep_cycle(),
        tx_powers: params.tx_powers.clone(),
        jx_powers: params.adversary.powers.clone(),
        l_h: params.l_h,
        l_j: params.l_j,
        jammer_mode: params.adversary.mode,
    }
}

/// An environment that samples the paper's MDP kernel (Eqs. 6–14).
///
/// The defender still acts in `(channel, power)` space; the kernel only
/// cares whether the channel changed (hop) and which power level was
/// chosen. The hidden MDP state is tracked internally and *not* exposed
/// to the defender — matching §III.C's observability argument.
#[derive(Debug, Clone)]
pub struct KernelEnv {
    params: EnvParams,
    mdp: AntijamMdp,
    state: MdpState,
    current_channel: usize,
}

impl KernelEnv {
    /// Creates the kernel environment.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (see
    /// [`ctjam_mdp::antijam::AntijamMdp::new`]).
    pub fn new<R: Rng + ?Sized>(params: EnvParams, rng: &mut R) -> Self {
        let mdp = AntijamMdp::new(mdp_params_of(&params));
        let current_channel = rng.gen_range(0..params.num_channels());
        KernelEnv {
            params,
            mdp,
            state: MdpState::Safe(1),
            current_channel,
        }
    }

    /// The underlying MDP.
    pub fn mdp(&self) -> &AntijamMdp {
        &self.mdp
    }

    /// The (hidden) current MDP state — test/diagnostic access.
    pub fn state(&self) -> MdpState {
        self.state
    }
}

impl Environment for KernelEnv {
    fn params(&self) -> &EnvParams {
        &self.params
    }

    fn current_channel(&self) -> usize {
        self.current_channel
    }

    fn step(&mut self, decision: Decision, rng: &mut dyn rand::RngCore) -> SlotResult {
        assert!(
            decision.channel < self.params.num_channels(),
            "channel {} out of range",
            decision.channel
        );
        assert!(
            decision.power_level < self.params.num_powers(),
            "power level {} out of range",
            decision.power_level
        );
        let hopped = decision.channel != self.current_channel;
        self.current_channel = decision.channel;

        let action = MdpAction {
            hop: hopped,
            power: decision.power_level,
        };
        let s = self.mdp.state_index(self.state);
        let a = self.mdp.action_index(action);
        let (next, reward) = sample_transition(self.mdp.tabular(), s, a, rng);
        self.state = self.mdp.state_of(next);

        let outcome = match self.state {
            MdpState::Safe(_) => Outcome::Clean,
            MdpState::JammedUnsuccessfully => Outcome::JammedSurvived,
            MdpState::Jammed => Outcome::Jammed,
        };

        SlotResult {
            decision,
            outcome,
            hopped,
            power_control: decision.power_level > self.params.min_power_level(),
            reward,
            jam_action: JamAction {
                block: ChannelBlock::EMPTY,
                power: 0.0,
                locked: outcome != Outcome::Clean,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn stay(env: &KernelEnv) -> Decision {
        Decision {
            channel: env.current_channel,
            power_level: 0,
        }
    }

    #[test]
    fn staying_forever_gets_jammed_within_cycles() {
        let mut r = rng(1);
        let mut env = KernelEnv::new(EnvParams::default(), &mut r);
        let mut jams = 0;
        for _ in 0..200 {
            let d = stay(&env);
            if env.step(d, &mut r).outcome == Outcome::Jammed {
                jams += 1;
            }
        }
        // Once jammed, staying keeps you jammed (max-power mode): nearly
        // everything after discovery is J.
        assert!(jams > 150, "jams = {jams}");
    }

    #[test]
    fn hop_from_jammed_always_escapes() {
        // Eq. 14: hopping out of TJ/J lands in Safe(1) with probability 1.
        let mut r = rng(2);
        let mut env = KernelEnv::new(EnvParams::default(), &mut r);
        // Drive into J.
        loop {
            let d = stay(&env);
            if env.step(d, &mut r).outcome == Outcome::Jammed {
                break;
            }
        }
        let hop = Decision {
            channel: (env.current_channel + 5) % 16,
            power_level: 0,
        };
        let result = env.step(hop, &mut r);
        assert!(result.hopped);
        assert_eq!(result.outcome, Outcome::Clean);
        assert_eq!(env.state(), MdpState::Safe(1));
    }

    #[test]
    fn rewards_come_from_the_kernel() {
        let mut r = rng(3);
        let mut env = KernelEnv::new(EnvParams::default(), &mut r);
        let d = stay(&env);
        let result = env.step(d, &mut r);
        // Stay with power level 0 (L_p = 6): reward is −6 or −106.
        assert!(result.reward == -6.0 || result.reward == -106.0);
    }

    #[test]
    fn always_hopping_matches_eq_9_rate() {
        let mut r = rng(4);
        let mut env = KernelEnv::new(EnvParams::default(), &mut r);
        let slots = 30_000;
        let mut successes = 0;
        for _ in 0..slots {
            let d = Decision {
                channel: (env.current_channel + 4) % 16,
                power_level: 0,
            };
            if env.step(d, &mut r).outcome.is_success() {
                successes += 1;
            }
        }
        let st = successes as f64 / slots as f64;
        // From Safe(1), hopping is jammed w.p. 2/9; from TJ/J it always
        // escapes. The stationary success rate of always-hop ≈ 0.81.
        assert!((st - 0.81).abs() < 0.03, "ST = {st}");
    }
}
