//! A validated tabular finite MDP.

use rand::Rng;
use std::fmt;

/// Error from building an invalid MDP.
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// A transition distribution does not sum to 1.
    BadDistribution {
        /// State index.
        state: usize,
        /// Action index.
        action: usize,
        /// Actual probability mass.
        mass: f64,
    },
    /// A transition references a state outside the MDP.
    BadTarget {
        /// State index.
        state: usize,
        /// Action index.
        action: usize,
        /// Offending target.
        target: usize,
    },
    /// A probability is negative or non-finite.
    BadProbability {
        /// State index.
        state: usize,
        /// Action index.
        action: usize,
        /// Offending probability.
        prob: f64,
    },
    /// The MDP has no states or no actions.
    Empty,
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::BadDistribution {
                state,
                action,
                mass,
            } => write!(
                f,
                "transition distribution for state {state}, action {action} sums to {mass}, not 1"
            ),
            MdpError::BadTarget {
                state,
                action,
                target,
            } => write!(
                f,
                "transition from state {state}, action {action} targets out-of-range state {target}"
            ),
            MdpError::BadProbability {
                state,
                action,
                prob,
            } => write!(
                f,
                "transition from state {state}, action {action} has invalid probability {prob}"
            ),
            MdpError::Empty => write!(f, "an mdp needs at least one state and one action"),
        }
    }
}

impl std::error::Error for MdpError {}

/// One transition: `(next_state, probability, reward)`.
///
/// Rewards are attached to transitions, matching the paper's
/// `U(x, a, x′)` formulation (Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Destination state index.
    pub next: usize,
    /// Transition probability.
    pub prob: f64,
    /// Immediate reward `U(x, a, x′)`.
    pub reward: f64,
}

/// A finite MDP stored as explicit transition lists.
///
/// Construct via [`MdpBuilder`], which validates that every
/// `(state, action)` pair carries a proper probability distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TabularMdp {
    num_states: usize,
    num_actions: usize,
    /// `transitions[s][a]` lists the outgoing transitions.
    transitions: Vec<Vec<Vec<Transition>>>,
}

impl TabularMdp {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Outgoing transitions of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn transitions(&self, state: usize, action: usize) -> &[Transition] {
        &self.transitions[state][action]
    }

    /// Expected immediate reward `E[U(x, a, ·)]`.
    pub fn expected_reward(&self, state: usize, action: usize) -> f64 {
        self.transitions[state][action]
            .iter()
            .map(|t| t.prob * t.reward)
            .sum()
    }

    /// One application of the Bellman optimality operator to `v`,
    /// writing into `out` and returning the max-norm change.
    ///
    /// This is the contraction mapping of the paper's Theorem III.1 /
    /// Appendix proof: repeated application converges to the unique `V*`.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths differ from the state count.
    pub fn bellman_backup(&self, gamma: f64, v: &[f64], out: &mut [f64]) -> f64 {
        assert_eq!(v.len(), self.num_states);
        assert_eq!(out.len(), self.num_states);
        let mut delta = 0.0f64;
        for s in 0..self.num_states {
            let best = (0..self.num_actions)
                .map(|a| self.q_value(gamma, v, s, a))
                .fold(f64::NEG_INFINITY, f64::max);
            delta = delta.max((best - v[s]).abs());
            out[s] = best;
        }
        delta
    }

    /// The action value `Q(s, a)` under the state values `v`.
    pub fn q_value(&self, gamma: f64, v: &[f64], s: usize, a: usize) -> f64 {
        self.transitions[s][a]
            .iter()
            .map(|t| t.prob * (t.reward + gamma * v[t.next]))
            .sum()
    }

    /// Samples one transition of `(state, action)` with a single uniform
    /// draw from `rng`, returning `(next_state, reward)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn sample_transition<R: Rng + ?Sized>(
        &self,
        state: usize,
        action: usize,
        rng: &mut R,
    ) -> (usize, f64) {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        let transitions = self.transitions(state, action);
        for t in transitions {
            if u < t.prob {
                return (t.next, t.reward);
            }
            u -= t.prob;
        }
        let last = transitions.last().expect("validated mdp has transitions");
        (last.next, last.reward)
    }
}

/// Incremental builder for [`TabularMdp`].
///
/// # Example
///
/// ```
/// use ctjam_mdp::mdp::MdpBuilder;
///
/// // A two-state chain: action 0 stays (reward 0), action 1 flips
/// // (reward 1 when reaching state 1).
/// let mdp = MdpBuilder::new(2, 2)
///     .transition(0, 0, 0, 1.0, 0.0)
///     .transition(0, 1, 1, 1.0, 1.0)
///     .transition(1, 0, 1, 1.0, 0.0)
///     .transition(1, 1, 0, 1.0, 0.0)
///     .build()?;
/// assert_eq!(mdp.num_states(), 2);
/// # Ok::<(), ctjam_mdp::mdp::MdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MdpBuilder {
    num_states: usize,
    num_actions: usize,
    transitions: Vec<Vec<Vec<Transition>>>,
}

impl MdpBuilder {
    /// Starts a builder for an MDP of the given size.
    pub fn new(num_states: usize, num_actions: usize) -> Self {
        MdpBuilder {
            num_states,
            num_actions,
            transitions: vec![vec![Vec::new(); num_actions]; num_states],
        }
    }

    /// Adds a transition `(state, action) → next` with probability `prob`
    /// and reward `reward`. Zero-probability entries are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range (a builder-usage bug,
    /// unlike the data errors reported by [`MdpBuilder::build`]).
    #[must_use]
    pub fn transition(
        mut self,
        state: usize,
        action: usize,
        next: usize,
        prob: f64,
        reward: f64,
    ) -> Self {
        assert!(state < self.num_states, "state {state} out of range");
        assert!(action < self.num_actions, "action {action} out of range");
        if prob != 0.0 {
            self.transitions[state][action].push(Transition { next, prob, reward });
        }
        self
    }

    /// Validates and produces the MDP.
    ///
    /// # Errors
    ///
    /// Returns an [`MdpError`] when any `(state, action)` distribution is
    /// missing mass, targets an unknown state, or carries an invalid
    /// probability.
    pub fn build(self) -> Result<TabularMdp, MdpError> {
        if self.num_states == 0 || self.num_actions == 0 {
            return Err(MdpError::Empty);
        }
        for (s, per_action) in self.transitions.iter().enumerate() {
            for (a, list) in per_action.iter().enumerate() {
                let mut mass = 0.0;
                for t in list {
                    if !(t.prob.is_finite() && t.prob >= 0.0) {
                        return Err(MdpError::BadProbability {
                            state: s,
                            action: a,
                            prob: t.prob,
                        });
                    }
                    if t.next >= self.num_states {
                        return Err(MdpError::BadTarget {
                            state: s,
                            action: a,
                            target: t.next,
                        });
                    }
                    mass += t.prob;
                }
                if (mass - 1.0).abs() > 1e-9 {
                    return Err(MdpError::BadDistribution {
                        state: s,
                        action: a,
                        mass,
                    });
                }
            }
        }
        Ok(TabularMdp {
            num_states: self.num_states,
            num_actions: self.num_actions,
            transitions: self.transitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> TabularMdp {
        MdpBuilder::new(2, 2)
            .transition(0, 0, 0, 1.0, 0.0)
            .transition(0, 1, 1, 1.0, 1.0)
            .transition(1, 0, 1, 1.0, 0.0)
            .transition(1, 1, 0, 1.0, 0.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_accepts_valid_mdp() {
        let mdp = two_state();
        assert_eq!(mdp.num_states(), 2);
        assert_eq!(mdp.num_actions(), 2);
        assert_eq!(mdp.transitions(0, 1).len(), 1);
    }

    #[test]
    fn builder_rejects_underfull_distribution() {
        let err = MdpBuilder::new(1, 1)
            .transition(0, 0, 0, 0.5, 0.0)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, MdpError::BadDistribution { mass, .. } if (mass - 0.5).abs() < 1e-12)
        );
    }

    #[test]
    fn builder_rejects_missing_distribution() {
        let err = MdpBuilder::new(2, 1)
            .transition(0, 0, 0, 1.0, 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MdpError::BadDistribution { state: 1, .. }));
    }

    #[test]
    fn builder_rejects_bad_target() {
        let err = MdpBuilder::new(1, 1)
            .transition(0, 0, 5, 1.0, 0.0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            MdpError::BadTarget {
                state: 0,
                action: 0,
                target: 5
            }
        );
    }

    #[test]
    fn builder_rejects_negative_probability() {
        let err = MdpBuilder::new(1, 1)
            .transition(0, 0, 0, -0.2, 0.0)
            .transition(0, 0, 0, 1.2, 0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MdpError::BadProbability { .. }));
    }

    #[test]
    fn builder_rejects_empty() {
        assert_eq!(MdpBuilder::new(0, 3).build().unwrap_err(), MdpError::Empty);
        assert_eq!(MdpBuilder::new(3, 0).build().unwrap_err(), MdpError::Empty);
    }

    #[test]
    fn expected_reward() {
        let mdp = MdpBuilder::new(2, 1)
            .transition(0, 0, 0, 0.25, 4.0)
            .transition(0, 0, 1, 0.75, 0.0)
            .transition(1, 0, 1, 1.0, 0.0)
            .build()
            .unwrap();
        assert!((mdp.expected_reward(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bellman_backup_is_a_gamma_contraction() {
        // Banach/Theorem III.1: ‖T(v1) − T(v2)‖∞ ≤ γ‖v1 − v2‖∞.
        let mdp = two_state();
        let gamma = 0.9;
        let v1 = vec![3.0, -2.0];
        let v2 = vec![-1.0, 5.0];
        let mut t1 = vec![0.0; 2];
        let mut t2 = vec![0.0; 2];
        mdp.bellman_backup(gamma, &v1, &mut t1);
        mdp.bellman_backup(gamma, &v2, &mut t2);
        let before = v1
            .iter()
            .zip(&v2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let after = t1
            .iter()
            .zip(&t2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            after <= gamma * before + 1e-12,
            "{after} > {gamma} * {before}"
        );
    }

    #[test]
    fn q_value_matches_hand_computation() {
        let mdp = two_state();
        let v = vec![10.0, 20.0];
        // Q(0, 1) = 1 + 0.9 * 20 = 19.
        assert!((mdp.q_value(0.9, &v, 0, 1) - 19.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_distribution() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mdp = MdpBuilder::new(2, 1)
            .transition(0, 0, 0, 0.25, 0.0)
            .transition(0, 0, 1, 0.75, 1.0)
            .transition(1, 0, 1, 1.0, 0.0)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let ones = (0..n)
            .filter(|_| mdp.sample_transition(0, 0, &mut rng).0 == 1)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac = {frac}");
    }
}
