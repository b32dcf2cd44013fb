//! The finite-MDP solver: [`value_iteration`], the Banach fixed-point
//! construction of the paper's Theorem III.1 and Appendix. The crate's
//! tests cross-check it against policy iteration.

pub mod value_iteration;

/// A solved MDP: optimal values, action values, and a greedy policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal state values `V*`.
    pub v: Vec<f64>,
    /// Optimal action values `Q*` (indexed `[state][action]`).
    pub q: Vec<Vec<f64>>,
    /// Greedy policy: `policy[s]` is the argmax action (Eq. 19).
    pub policy: Vec<usize>,
    /// Iterations (sweeps) used.
    pub iterations: usize,
    /// Final max-norm Bellman residual.
    pub residual: f64,
}

impl Solution {
    /// Constructs the greedy artifacts (`q`, `policy`) for `v` on `mdp`.
    #[allow(clippy::needless_range_loop)] // action index drives q_value
    pub(crate) fn from_values(
        mdp: &crate::mdp::TabularMdp,
        gamma: f64,
        v: Vec<f64>,
        iterations: usize,
        residual: f64,
    ) -> Self {
        let mut q = vec![vec![0.0; mdp.num_actions()]; mdp.num_states()];
        let mut policy = vec![0usize; mdp.num_states()];
        for s in 0..mdp.num_states() {
            let mut best = f64::NEG_INFINITY;
            for a in 0..mdp.num_actions() {
                let value = mdp.q_value(gamma, &v, s, a);
                q[s][a] = value;
                if value > best {
                    best = value;
                    policy[s] = a;
                }
            }
        }
        Solution {
            v,
            q,
            policy,
            iterations,
            residual,
        }
    }
}
