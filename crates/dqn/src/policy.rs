//! Detached greedy-policy snapshots for serving.
//!
//! A [`GreedyPolicy`] is the deployable part of a [`DqnAgent`]: the
//! online network plus the configuration that gives its outputs meaning.
//! It carries none of the training state (replay buffer, optimizer,
//! target network, ε schedule), so it is cheap to clone, trivially
//! `Send + Sync`-shareable behind an `Arc`, and — crucially for an
//! inference server — swappable atomically without touching a live
//! training run.
//!
//! Both inference paths are **bit-exact** with [`DqnAgent::act_greedy`]
//! on the agent the snapshot was taken from: the per-sample path calls
//! the same [`Mlp::forward`], and the batched path goes through
//! [`Mlp::forward_batch`] (bit-exact with per-row `forward` by the
//! `ctjam-nn` kernel contract) followed by the same NaN-total argmax.
//! Regression-tested below and re-asserted end-to-end by the
//! `ctjam-serve` load harness.
//!
//! Because a snapshot never changes, its greedy action is a pure
//! function of the observation's bits. A [`DecisionMemo`] caches that
//! function for one `Arc<GreedyPolicy>` in a fixed table of at most
//! 64 KiB, and forwards only the rows it has not seen.

use crate::agent::{argmax, DqnAgent};
use crate::checkpoint::{self, CheckpointError};
use crate::config::DqnConfig;
use ctjam_nn::batch::Batch;
use ctjam_nn::mlp::{BatchScratch, Mlp};
use std::path::Path;
use std::sync::Arc;

/// An immutable greedy-inference snapshot of a trained DQN.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyPolicy {
    config: DqnConfig,
    net: Mlp,
}

impl GreedyPolicy {
    /// Snapshots the agent's online network and configuration.
    pub fn from_agent(agent: &DqnAgent) -> Self {
        GreedyPolicy {
            config: agent.config().clone(),
            net: agent.network().clone(),
        }
    }

    /// Loads a snapshot from a sealed agent checkpoint
    /// ([`crate::checkpoint::save_agent`] format): the file's magic,
    /// version, and FNV-1a checksum are verified and the full agent
    /// decoded before the policy is extracted, so corruption or shape
    /// lies surface as a typed [`CheckpointError`], never a panic or a
    /// silently wrong policy.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`CheckpointError`] on I/O failure,
    /// corruption, or malformed state.
    pub fn load_checkpoint(path: &Path) -> Result<Self, CheckpointError> {
        let agent = checkpoint::load_agent(path)?;
        Ok(GreedyPolicy::from_agent(&agent))
    }

    /// The snapshot's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// The snapshot's network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Observation width the policy expects (`3 × I`).
    pub fn input_size(&self) -> usize {
        self.config.input_size()
    }

    /// Number of actions the policy chooses among (`C × PL`).
    pub fn num_actions(&self) -> usize {
        self.config.num_actions()
    }

    /// A forward-pass scratch space sized for this policy's network.
    /// Reuse it across [`GreedyPolicy::act_greedy_batch`] calls so
    /// steady-state serving performs no per-batch allocation.
    pub fn scratch(&self) -> BatchScratch {
        BatchScratch::for_network(&self.net)
    }

    /// Greedy action at one observation — bit-exact with
    /// [`DqnAgent::act_greedy`] on the snapshotted agent.
    ///
    /// # Panics
    ///
    /// Panics if the observation width differs from
    /// [`GreedyPolicy::input_size`].
    pub fn act_greedy(&self, observation: &[f64]) -> usize {
        argmax(&self.net.forward(observation))
    }

    /// Greedy actions for a whole observation batch, through one
    /// [`Mlp::forward_batch`] call. Appends one action per row to
    /// `actions` (cleared first). Bit-exact with per-row
    /// [`GreedyPolicy::act_greedy`].
    ///
    /// # Panics
    ///
    /// Panics if `batch.cols()` differs from
    /// [`GreedyPolicy::input_size`].
    pub fn act_greedy_batch(
        &self,
        batch: &Batch,
        scratch: &mut BatchScratch,
        actions: &mut Vec<usize>,
    ) {
        actions.clear();
        if batch.is_empty() {
            return;
        }
        let q = self.net.forward_batch(batch, scratch);
        for s in 0..q.rows() {
            actions.push(argmax(q.row(s)));
        }
    }
}

/// Upper bound on one [`DecisionMemo`]'s table: keys, tags, actions
/// and use stamps together. A constant, not an option: a memo is one
/// bounded cache per policy user, never a growing map.
const DECISION_MEMO_BYTES: usize = 64 * 1024;

/// Slots per set of a [`DecisionMemo`] table.
const WAYS: usize = 8;

/// Table bytes per slot beyond its key: tag, action and use stamp.
const SLOT_META_BYTES: usize = 4 + 4 + 8;

/// Table entry of a slot that holds nothing yet.
const EMPTY: u32 = u32::MAX;

/// Placeholder for a row whose action the forward has not produced yet.
const PENDING: usize = usize::MAX;

/// An exact, bounded observation → greedy-action memo for one policy.
///
/// The memo owns the `Arc<GreedyPolicy>` it is filled under, so it can
/// never answer for another model: a user that swaps policies builds a
/// new memo, and holding the old `Arc` keeps a freed model's address
/// from aliasing the new one.
///
/// It is exact, not approximate:
/// - a key is the observation's exact f64 bit patterns, and a hit
///   compares every word, never the hash alone, so −0.0 and +0.0, or
///   two NaN payloads, are different keys;
/// - a row's forward output does not depend on the other rows of its
///   batch (the `ctjam-nn` kernel contract), and the argmax is total
///   over NaN, so a stored action is the one [`GreedyPolicy::act_greedy`]
///   returns for that observation in any batch.
///
/// The table is set-associative. A hash that mixes all 64 bits of every
/// word picks a set of 8 slots with its low bits and gives a 32-bit tag
/// with its high bits; a lookup compares the full key only where the
/// tag matches, and a miss evicts the set's least recently used slot.
/// The paper's features are mostly 0.0, 0.5 and 1.0, whose low mantissa
/// bits are all zero, so a hash of the low bits alone would crowd them
/// into a few sets. The table has the largest power-of-two number of
/// sets that fits in 64 KiB: 32 sets, 256 slots, at the paper's 24
/// features.
#[derive(Debug)]
pub struct DecisionMemo {
    policy: Arc<GreedyPolicy>,
    width: usize,
    /// `slots × width` words, set after set: slot `s` holds the bit
    /// patterns of the observation whose action is `actions[s]`.
    keys: Vec<u64>,
    /// Each slot's hash tag.
    tags: Vec<u32>,
    /// Each slot's greedy action, or [`EMPTY`].
    actions: Vec<u32>,
    /// When each slot was last filled or hit, in lookups and stores;
    /// 0 for an empty slot, so empty slots are evicted first.
    used: Vec<u64>,
    clock: u64,
    /// One call's misses, packed for a single forward, with the set and
    /// tag of each and the actions the forward chose.
    misses: Batch,
    miss_hashes: Vec<(usize, u32)>,
    miss_actions: Vec<usize>,
}

impl DecisionMemo {
    /// An empty memo answering for `policy`. Its table stores nothing
    /// when one set does not fit in 64 KiB, at more than 1 022 features.
    pub fn new(policy: Arc<GreedyPolicy>) -> Self {
        let set_bytes = WAYS * (policy.input_size() * 8 + SLOT_META_BYTES);
        let fit = DECISION_MEMO_BYTES / set_bytes;
        let sets = if fit == 0 { 0 } else { 1 << fit.ilog2() };
        DecisionMemo::with_sets(policy, sets)
    }

    /// An empty memo of exactly `sets` sets (a power of two, or 0 for a
    /// memo that stores nothing). Tests use tiny tables to force
    /// collisions.
    pub(crate) fn with_sets(policy: Arc<GreedyPolicy>, sets: usize) -> Self {
        assert!(sets == 0 || sets.is_power_of_two());
        let width = policy.input_size();
        let slots = sets * WAYS;
        DecisionMemo {
            keys: vec![0; slots * width],
            tags: vec![0; slots],
            actions: vec![EMPTY; slots],
            used: vec![0; slots],
            clock: 0,
            misses: Batch::with_cols(width),
            miss_hashes: Vec::new(),
            miss_actions: Vec::new(),
            policy,
            width,
        }
    }

    /// The policy every stored action came from.
    pub fn policy(&self) -> &Arc<GreedyPolicy> {
        &self.policy
    }

    /// Greedy actions for `rows`, one per row appended to `actions`
    /// (cleared first), bit-exact with [`GreedyPolicy::act_greedy`] on
    /// each row. Rows found in the memo are answered from it; the rest
    /// go through one [`GreedyPolicy::act_greedy_batch`] and are then
    /// stored. Two equal rows that both miss in one call are both
    /// forwarded. Returns how many rows the memo answered.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from
    /// [`GreedyPolicy::input_size`].
    pub fn act_greedy_batch<'r>(
        &mut self,
        rows: impl IntoIterator<Item = &'r [f64]>,
        scratch: &mut BatchScratch,
        actions: &mut Vec<usize>,
    ) -> usize {
        actions.clear();
        self.misses.reset(self.width);
        self.miss_hashes.clear();
        for row in rows {
            assert_eq!(row.len(), self.width, "observation width mismatch");
            let (set, tag) = self.hash(row);
            match self.lookup(set, tag, row) {
                Some(action) => actions.push(action),
                None => {
                    actions.push(PENDING);
                    self.misses.push_row(row);
                    self.miss_hashes.push((set, tag));
                }
            }
        }
        let hits = actions.len() - self.misses.rows();
        if self.misses.is_empty() {
            return hits;
        }
        self.policy
            .act_greedy_batch(&self.misses, scratch, &mut self.miss_actions);
        let mut answers = self.miss_actions.iter().zip(&self.miss_hashes);
        for (miss, action) in actions.iter_mut().filter(|a| **a == PENDING).enumerate() {
            let (&answer, &(set, tag)) = answers.next().expect("one answer per miss");
            *action = answer;
            if self.actions.is_empty() {
                continue;
            }
            let first = set * WAYS;
            let slot = (first..first + WAYS)
                .min_by_key(|&s| self.used[s])
                .expect("a set has slots");
            let w = self.width;
            for (k, &x) in self.keys[slot * w..(slot + 1) * w]
                .iter_mut()
                .zip(self.misses.row(miss))
            {
                *k = x.to_bits();
            }
            self.tags[slot] = tag;
            self.actions[slot] = u32::try_from(answer).unwrap_or(EMPTY);
            self.clock += 1;
            self.used[slot] = self.clock;
        }
        hits
    }

    /// The set (0 when the table is empty) and the tag of `observation`.
    fn hash(&self, observation: &[f64]) -> (usize, u32) {
        let mut h: u64 = 0x243F_6A88_85A3_08D3;
        for &x in observation {
            h = (h ^ x.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 32;
        }
        // The splitmix64 finalizer: every output bit depends on every
        // input bit, so the low bits that pick the set do too.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let sets = self.actions.len() / WAYS;
        (h as usize & sets.saturating_sub(1), (h >> 32) as u32)
    }

    /// The stored action for `observation`, if a slot of `set` with its
    /// tag holds a key equal to it word for word. Advances the clock and
    /// stamps the hit slot.
    fn lookup(&mut self, set: usize, tag: u32, observation: &[f64]) -> Option<usize> {
        self.clock += 1;
        let w = self.width;
        let first = set * WAYS;
        let slot = (first..first + WAYS.min(self.actions.len())).find(|&s| {
            self.tags[s] == tag
                && self.actions[s] != EMPTY
                && self.keys[s * w..(s + 1) * w]
                    .iter()
                    .zip(observation)
                    .all(|(&k, &x)| k == x.to_bits())
        })?;
        self.used[slot] = self.clock;
        Some(self.actions[slot] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_agent(seed: u64) -> DqnAgent {
        let config = DqnConfig {
            history_len: 3,
            num_channels: 4,
            num_power_levels: 2,
            hidden: (16, 12),
            replay_capacity: 256,
            batch_size: 8,
            warmup: 16,
            ..DqnConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agent = DqnAgent::new(config.clone(), &mut rng);
        for i in 0..80 {
            let mut state = vec![0.0; config.input_size()];
            state[i % config.input_size()] = (i as f64).sin();
            let next = state.clone();
            agent.observe(state, i % config.num_actions(), -1.0, next, &mut rng);
        }
        agent
    }

    fn observations(config: &DqnConfig, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..config.input_size())
                    .map(|j| ((i * 37 + j * 11) as f64).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn snapshot_matches_agent_per_sample_and_batched() {
        let agent = small_agent(7);
        let policy = GreedyPolicy::from_agent(&agent);
        let obs = observations(agent.config(), 33);
        let mut batch = Batch::with_cols(policy.input_size());
        for o in &obs {
            batch.push_row(o);
        }
        let mut scratch = policy.scratch();
        let mut actions = Vec::new();
        policy.act_greedy_batch(&batch, &mut scratch, &mut actions);
        assert_eq!(actions.len(), obs.len());
        for (i, o) in obs.iter().enumerate() {
            let expected = agent.act_greedy(o);
            assert_eq!(policy.act_greedy(o), expected, "per-sample row {i}");
            assert_eq!(actions[i], expected, "batched row {i}");
        }
    }

    #[test]
    fn batched_path_handles_empty_and_reused_scratch() {
        let agent = small_agent(8);
        let policy = GreedyPolicy::from_agent(&agent);
        let mut scratch = policy.scratch();
        let mut actions = vec![99; 4];
        policy.act_greedy_batch(
            &Batch::with_cols(policy.input_size()),
            &mut scratch,
            &mut actions,
        );
        assert!(actions.is_empty(), "empty batch must clear the output");
        // Varying batch sizes through the same scratch stay bit-exact.
        let obs = observations(agent.config(), 9);
        for take in [1, 5, 9, 2] {
            let mut batch = Batch::with_cols(policy.input_size());
            for o in obs.iter().take(take) {
                batch.push_row(o);
            }
            policy.act_greedy_batch(&batch, &mut scratch, &mut actions);
            for (i, o) in obs.iter().take(take).enumerate() {
                assert_eq!(actions[i], agent.act_greedy(o), "take {take} row {i}");
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_the_policy() {
        let agent = small_agent(9);
        let path = std::env::temp_dir().join("ctjam_policy_snapshot.ckpt");
        checkpoint::save_agent(&agent, &path).unwrap();
        let policy = GreedyPolicy::load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(policy.config(), agent.config());
        for o in observations(agent.config(), 10) {
            assert_eq!(policy.act_greedy(&o), agent.act_greedy(&o));
        }
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let agent = small_agent(10);
        let path = std::env::temp_dir().join("ctjam_policy_corrupt.ckpt");
        checkpoint::save_agent(&agent, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            GreedyPolicy::load_checkpoint(&path),
            Err(CheckpointError::ChecksumMismatch)
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Runs one memo call over `rows` and checks every action against
    /// `act_greedy`; returns the memo's hit count.
    fn memo_call(memo: &mut DecisionMemo, scratch: &mut BatchScratch, rows: &[Vec<f64>]) -> usize {
        let mut actions = vec![99; 3];
        let hits = memo.act_greedy_batch(rows.iter().map(Vec::as_slice), scratch, &mut actions);
        assert_eq!(actions.len(), rows.len());
        for (row, (o, &action)) in rows.iter().zip(&actions).enumerate() {
            assert_eq!(action, memo.policy().act_greedy(o), "row {row}: {o:?}");
        }
        assert!(hits <= rows.len());
        hits
    }

    /// Two observations the policy answers differently.
    fn disagreeing_pair(policy: &GreedyPolicy) -> (Vec<f64>, Vec<f64>) {
        let obs = observations(policy.config(), 64);
        let a = obs[0].clone();
        let b = obs
            .iter()
            .find(|o| policy.act_greedy(o) != policy.act_greedy(&a))
            .expect("64 observations with a single greedy action")
            .clone();
        (a, b)
    }

    /// Feature values a hash or a comparison could conflate: signed
    /// zeros, two NaN payloads, subnormals, infinities; else a plain
    /// value.
    const SPECIAL: [f64; 10] = [
        0.0,
        -0.0,
        0.5,
        1.0,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001),
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    fn feature() -> impl Strategy<Value = f64> {
        (0..SPECIAL.len() + 2, -4.0..4.0f64).prop_map(|(k, x)| SPECIAL.get(k).copied().unwrap_or(x))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn memo_answers_like_act_greedy_on_repeating_streams(
            seed in 0u64..1_000,
            pool in prop::collection::vec(prop::collection::vec(feature(), 9), 1..12),
            calls in prop::collection::vec(prop::collection::vec(0usize..64, 0..12), 1..8),
            table in 0usize..4,
        ) {
            let policy = Arc::new(GreedyPolicy::from_agent(&small_agent(seed)));
            prop_assert_eq!(policy.input_size(), 9);
            // The full-size table, or 0, 1 or 2 sets of eight slots:
            // tiny tables make every lookup meet colliding keys.
            let mut memo = match table {
                0 => DecisionMemo::new(Arc::clone(&policy)),
                t => DecisionMemo::with_sets(Arc::clone(&policy), (1 << t) >> 1),
            };
            let mut scratch = policy.scratch();
            for picks in calls {
                let rows: Vec<Vec<f64>> = picks.iter().map(|i| pool[i % pool.len()].clone()).collect();
                memo_call(&mut memo, &mut scratch, &rows);
            }
        }
    }

    #[test]
    fn a_one_set_memo_compares_every_word_before_it_answers() {
        let policy = Arc::new(GreedyPolicy::from_agent(&small_agent(11)));
        let (a, b) = disagreeing_pair(&policy);
        // Every observation lands in the only set, so each lookup meets
        // the other keys. `b_tail` differs from `a` in its last word
        // only, `neg_zero` from `pos_zero` in the sign of one zero.
        let mut b_tail = a.clone();
        *b_tail.last_mut().unwrap() += 1.0;
        let mut pos_zero = b.clone();
        pos_zero[0] = 0.0;
        let mut neg_zero = b.clone();
        neg_zero[0] = -0.0;
        let all = [a, b, b_tail, pos_zero, neg_zero];
        let mut memo = DecisionMemo::with_sets(Arc::clone(&policy), 1);
        let mut scratch = policy.scratch();
        for (i, o) in all.iter().enumerate() {
            let hits = memo_call(&mut memo, &mut scratch, std::slice::from_ref(o));
            assert_eq!(hits, 0, "observation {i} hit another's key");
        }
        assert_eq!(memo_call(&mut memo, &mut scratch, &all), all.len());
        // Nine distinct keys overflow the set's eight slots: the oldest
        // is evicted and misses again, still answered exactly.
        let more: Vec<Vec<f64>> = observations(policy.config(), 9)
            .into_iter()
            .map(|o| o.iter().map(|x| x + 10.0).collect())
            .collect();
        assert_eq!(memo_call(&mut memo, &mut scratch, &more), 0);
        assert_eq!(memo_call(&mut memo, &mut scratch, &more[..1]), 0);
    }

    #[test]
    fn an_all_miss_stream_then_an_all_hit_stream() {
        let policy = Arc::new(GreedyPolicy::from_agent(&small_agent(12)));
        let mut memo = DecisionMemo::new(Arc::clone(&policy));
        let mut scratch = policy.scratch();
        let obs = observations(policy.config(), 40);
        for chunk in obs.chunks(8) {
            assert_eq!(memo_call(&mut memo, &mut scratch, chunk), 0);
        }
        for chunk in obs.chunks(5) {
            assert_eq!(memo_call(&mut memo, &mut scratch, chunk), chunk.len());
        }
        // Duplicates inside one call both miss, then both hit.
        let twice = [obs[0].clone(), obs[0].clone()];
        let mut fresh = DecisionMemo::new(Arc::clone(&policy));
        assert_eq!(memo_call(&mut fresh, &mut scratch, &twice), 0);
        assert_eq!(memo_call(&mut fresh, &mut scratch, &twice), 2);
    }

    #[test]
    fn the_paper_shape_memo_fits_its_bound() {
        let config = DqnConfig::default();
        let agent = DqnAgent::new(config.clone(), &mut StdRng::seed_from_u64(3));
        let memo = DecisionMemo::new(Arc::new(GreedyPolicy::from_agent(&agent)));
        assert_eq!(memo.actions.len(), 256);
        let table_bytes = 8 * memo.keys.len()
            + 4 * memo.tags.len()
            + 4 * memo.actions.len()
            + 8 * memo.used.len();
        assert!(table_bytes <= DECISION_MEMO_BYTES, "{table_bytes} bytes");
    }

    #[test]
    fn a_memo_too_wide_for_one_set_stores_nothing_and_stays_exact() {
        let config = DqnConfig {
            history_len: 400,
            num_channels: 4,
            num_power_levels: 2,
            hidden: (8, 8),
            ..DqnConfig::default()
        };
        let agent = DqnAgent::new(config.clone(), &mut StdRng::seed_from_u64(4));
        let policy = Arc::new(GreedyPolicy::from_agent(&agent));
        let mut memo = DecisionMemo::new(Arc::clone(&policy));
        assert!(memo.actions.is_empty());
        let mut scratch = policy.scratch();
        let obs = observations(&config, 3);
        assert_eq!(memo_call(&mut memo, &mut scratch, &obs), 0);
        assert_eq!(memo_call(&mut memo, &mut scratch, &obs), 0);
    }
}
