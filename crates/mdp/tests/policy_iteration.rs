//! Value iteration cross-checked against an independent solver: policy
//! iteration (Howard's algorithm) kept here as the test oracle.

use ctjam_mdp::mdp::{MdpBuilder, TabularMdp};
use ctjam_mdp::solve::value_iteration::value_iteration;

/// Solves `mdp` by policy iteration: iterative policy evaluation to
/// `eval_tolerance`, then the greedy improvement step, until the policy
/// stops changing or after `max_improvements` rounds. Returns the state
/// values and the final policy.
fn policy_iteration(
    mdp: &TabularMdp,
    gamma: f64,
    eval_tolerance: f64,
    max_improvements: usize,
) -> (Vec<f64>, Vec<usize>) {
    let mut policy = vec![0usize; mdp.num_states()];
    let mut v = vec![0.0; mdp.num_states()];
    for _ in 0..max_improvements {
        // Policy evaluation.
        loop {
            let mut delta = 0.0f64;
            for (s, &a) in policy.iter().enumerate() {
                let new = mdp.q_value(gamma, &v, s, a);
                delta = delta.max((new - v[s]).abs());
                v[s] = new;
            }
            if delta < eval_tolerance {
                break;
            }
        }
        // Greedy improvement.
        let mut stable = true;
        for (s, current) in policy.iter_mut().enumerate() {
            let (best_a, _) = (0..mdp.num_actions())
                .map(|a| (a, mdp.q_value(gamma, &v, s, a)))
                .fold((0, f64::NEG_INFINITY), |acc, cand| {
                    if cand.1 > acc.1 {
                        cand
                    } else {
                        acc
                    }
                });
            if best_a != *current {
                *current = best_a;
                stable = false;
            }
        }
        if stable {
            break;
        }
    }
    (v, policy)
}

fn random_ish_mdp(states: usize, actions: usize, seed: u64) -> TabularMdp {
    // Deterministic pseudo-random MDP without pulling in rand here.
    let mut x = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut nextf = move || {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        ((x >> 33) as f64) / (u32::MAX as f64 / 2.0)
    };
    let mut b = MdpBuilder::new(states, actions);
    for s in 0..states {
        for a in 0..actions {
            // Two-target distribution.
            let t1 = (s + a + 1) % states;
            let t2 = (s * 7 + a * 3 + 2) % states;
            let p = 0.3 + 0.4 * (nextf() % 1.0).abs().min(1.0);
            let r1 = nextf() * 10.0 - 5.0;
            let r2 = nextf() * 10.0 - 5.0;
            if t1 == t2 {
                b = b.transition(s, a, t1, 1.0, r1);
            } else {
                b = b
                    .transition(s, a, t1, p, r1)
                    .transition(s, a, t2, 1.0 - p, r2);
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn value_iteration_agrees_with_policy_iteration() {
    for seed in 0..5u64 {
        let mdp = random_ish_mdp(8, 3, seed);
        let vi = value_iteration(&mdp, 0.9, 1e-12, 100_000);
        let (pi_v, _) = policy_iteration(&mdp, 0.9, 1e-12, 1_000);
        for (s, (vi_v, pi_v)) in vi.v.iter().zip(&pi_v).enumerate() {
            assert!(
                (vi_v - pi_v).abs() < 1e-6,
                "seed {seed} state {s}: {vi_v} vs {pi_v}"
            );
        }
    }
}

#[test]
fn policies_achieve_equal_value_even_when_tied() {
    let mdp = random_ish_mdp(6, 4, 99);
    let vi = value_iteration(&mdp, 0.85, 1e-12, 100_000);
    let (_, pi_policy) = policy_iteration(&mdp, 0.85, 1e-12, 1_000);
    // Policies may differ on ties; their Q-values must match.
    for ((q, &pi_a), &vi_a) in vi.q.iter().zip(&pi_policy).zip(&vi.policy) {
        assert!((q[pi_a] - q[vi_a]).abs() < 1e-6);
    }
}
