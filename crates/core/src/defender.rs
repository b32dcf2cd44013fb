//! Anti-jamming strategies.
//!
//! * [`DqnDefender`] — the paper's scheme: a DQN over `(channel, power)`
//!   actions fed the `3×I` observable history.
//! * [`PassiveFh`] — "PSV FH": react only after being jammed.
//! * [`RandomFh`] — "Rand FH": pick FH or PC at random every slot.
//! * [`NoDefense`] — fixed channel and power (the unprotected floor).
//! * [`MdpOracle`] — the exact MDP optimum with privileged state access:
//!   an upper reference the online schemes cannot see (§III.C explains
//!   why the true state is unobservable in practice).

use crate::env::{Decision, EnvParams, Outcome, SlotResult};
use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::checkpoint::{self, CheckpointError};
use ctjam_dqn::config::DqnConfig;
use ctjam_dqn::encode::{ObservationEncoder, SlotOutcome, SlotRecord};
use ctjam_fault::FaultPoint;
use ctjam_mdp::antijam::{Action as MdpAction, AntijamMdp, State as MdpState};
use ctjam_mdp::solve::value_iteration::value_iteration;
use rand::{Rng, RngCore};
use std::path::Path;

/// Telemetry snapshot of a defender's learner state, taken after
/// `feedback`. Learning-free strategies report all-`None`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AgentProbe {
    /// Current exploration rate.
    pub epsilon: Option<f64>,
    /// Loss of the most recent gradient step, if any ran yet.
    pub last_loss: Option<f64>,
    /// Gradient updates performed so far.
    pub train_steps: Option<usize>,
    /// Transitions currently in the replay buffer.
    pub replay_len: Option<usize>,
    /// Replay buffer capacity.
    pub replay_capacity: Option<usize>,
    /// Gradient steps skipped by the non-finite-gradient guard (only
    /// ever advances on the fault-injected training path).
    pub skipped_train_steps: Option<usize>,
}

/// A per-slot decision maker.
///
/// Implementations are driven by the runner's one slot loop
/// ([`crate::runner::RunBuilder::run_in`]), against any
/// [`crate::env::Environment`], the field experiment included: `decide`
/// at the start of each slot, then `decoy`, then `feedback` with the
/// resolved result at the end.
pub trait Defender {
    /// Human-readable scheme name (used in reports).
    fn name(&self) -> &str;

    /// Chooses the next slot's channel and power level.
    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision;

    /// Optionally emits a decoy (bait) transmission for this slot: a
    /// fake-traffic channel broadcast alongside the real one to draw
    /// sensing jammers away, at the environment's `l_decoy` reward cost.
    /// Called by the runner right after [`Defender::decide`]. The
    /// default — no decoy, no RNG draws — keeps decoy-free defenders
    /// bit-exact with their pre-0.3.0 runs.
    fn decoy(&mut self, rng: &mut dyn RngCore) -> Option<usize> {
        let _ = rng;
        None
    }

    /// Receives the resolved slot (for learning and state tracking).
    fn feedback(&mut self, result: &SlotResult, rng: &mut dyn RngCore);

    /// [`Defender::feedback`] with a fault-injection plan threaded
    /// through (chaos testing — `tests/chaos.rs`). The default ignores
    /// the plan; learning defenders override it to route the plan into
    /// their training path's fault sites. Implementations must behave
    /// exactly like `feedback` — same RNG draws included — whenever the
    /// plan is disabled ([`FaultPoint::is_enabled`] is `false`).
    fn feedback_with_fault(
        &mut self,
        result: &SlotResult,
        rng: &mut dyn RngCore,
        fault: &mut dyn FaultPoint,
    ) {
        let _ = fault;
        self.feedback(result, rng);
    }

    /// Telemetry probe of the learner, read by the runner after each
    /// `feedback` when a sink is attached.
    fn probe(&self) -> AgentProbe {
        AgentProbe::default()
    }
}

// ---------------------------------------------------------------------------
// DQN defender
// ---------------------------------------------------------------------------

/// The paper's DQN-based hybrid FH/PC defense.
///
/// The network is exactly the paper's shape — `3×I` inputs, two ReLU
/// hidden layers, `C×PL` outputs — but channels are indexed
/// *egocentrically*: output channel `c` means "hop `c` channels up
/// (mod C)", so `c = 0` is "stay". The observation's channel feature is
/// likewise the relative hop taken in that slot. This re-parameterization
/// changes no dimension of the architecture while making the stay/hop
/// structure learnable at IoT-scale training budgets: "stay" is one fixed
/// output neuron instead of a per-slot moving target.
#[derive(Debug, Clone)]
pub struct DqnDefender {
    agent: DqnAgent,
    encoder: ObservationEncoder,
    training: bool,
    pending: Option<(Vec<f64>, usize)>,
    current_channel: usize,
    /// Relative hop distance of the pending decision (for the encoder).
    pending_delta: usize,
    /// Boltzmann temperature for deployment-time action sampling
    /// (`None` = the paper's ε-greedy policy).
    temperature: Option<f64>,
    /// Reusable observation buffer for the evaluation-mode hot path
    /// (training mode hands owned vectors to the replay buffer, so the
    /// scratch only cycles when no transition needs to be kept).
    obs_scratch: Vec<f64>,
}

impl DqnDefender {
    /// Creates a defender whose action space matches `params`.
    ///
    /// # Panics
    ///
    /// Panics if `config` disagrees with `params` on channel or power
    /// counts.
    pub fn new<R: Rng + ?Sized>(params: &EnvParams, config: DqnConfig, rng: &mut R) -> Self {
        assert_eq!(
            config.num_channels,
            params.num_channels(),
            "config/env channel count mismatch"
        );
        assert_eq!(
            config.num_power_levels,
            params.num_powers(),
            "config/env power count mismatch"
        );
        let encoder = ObservationEncoder::new(
            config.history_len,
            config.num_channels,
            config.num_power_levels,
        );
        let current_channel = rng.gen_range(0..params.num_channels());
        DqnDefender {
            agent: DqnAgent::new(config, rng),
            encoder,
            training: true,
            pending: None,
            current_channel,
            pending_delta: 0,
            temperature: None,
            obs_scratch: Vec::new(),
        }
    }

    /// A defender with the paper's default architecture for `params`.
    pub fn paper_default<R: Rng + ?Sized>(params: &EnvParams, rng: &mut R) -> Self {
        let config = DqnConfig {
            num_channels: params.num_channels(),
            num_power_levels: params.num_powers(),
            ..DqnConfig::default()
        };
        DqnDefender::new(params, config, rng)
    }

    /// A deliberately small configuration for fast unit tests.
    pub fn small_for_tests<R: Rng + ?Sized>(params: &EnvParams, rng: &mut R) -> Self {
        let config = DqnConfig {
            history_len: 4,
            num_channels: params.num_channels(),
            num_power_levels: params.num_powers(),
            hidden: (24, 20),
            learning_rate: 2e-3,
            replay_capacity: 20_000,
            batch_size: 16,
            target_sync_interval: 100,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 1_500,
            train_interval: 2,
            warmup: 64,
            gamma: 0.9,
            double_dqn: false,
        };
        DqnDefender::new(params, config, rng)
    }

    /// Enables or disables learning (ε also drops to its floor when
    /// evaluation-only).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Whether the defender is currently learning.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// The underlying agent (weights, statistics).
    pub fn agent(&self) -> &DqnAgent {
        &self.agent
    }

    /// Mutable access to the underlying agent (e.g. to load weights).
    pub fn agent_mut(&mut self) -> &mut DqnAgent {
        &mut self.agent
    }

    /// The channel the defender currently sits on.
    pub fn current_channel(&self) -> usize {
        self.current_channel
    }

    /// Switches deployment-time action selection to Boltzmann sampling
    /// with the given temperature (`None` restores ε-greedy).
    ///
    /// Randomizing the policy is the hardening against DeepJam-class
    /// traffic predictors: ε-greedy's dominant arm is deterministic and
    /// learnable, softmax spreads over all near-optimal hops.
    ///
    /// # Panics
    ///
    /// Panics if the temperature is not strictly positive.
    pub fn set_temperature(&mut self, temperature: Option<f64>) {
        if let Some(t) = temperature {
            assert!(t > 0.0, "softmax temperature must be positive");
        }
        self.temperature = temperature;
    }

    /// Serializes the complete defender — agent training state,
    /// observation window, pending transition, channel bookkeeping and
    /// policy mode — into the sealed checkpoint container and writes it
    /// atomically to `path` (tempfile + rename; see
    /// [`ctjam_dqn::checkpoint`]).
    ///
    /// A run resumed from the resulting file continues bit-exactly: the
    /// checkpoint captures everything except the RNG, which the caller
    /// owns (the determinism contract — `tests/determinism.rs`).
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut payload = Vec::new();
        checkpoint::encode_agent(&self.agent, &mut payload);
        let records: Vec<&SlotRecord> = self.encoder.records().collect();
        payload.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for rec in records {
            let outcome: u64 = match rec.outcome {
                SlotOutcome::Success => 0,
                SlotOutcome::SuccessUnderJamming => 1,
                SlotOutcome::Failure => 2,
            };
            payload.extend_from_slice(&outcome.to_le_bytes());
            payload.extend_from_slice(&(rec.channel as u64).to_le_bytes());
            payload.extend_from_slice(&(rec.power_level as u64).to_le_bytes());
        }
        payload.push(self.training as u8);
        match &self.pending {
            None => payload.push(0),
            Some((state, action)) => {
                payload.push(1);
                checkpoint::put_f64_vec(&mut payload, state);
                payload.extend_from_slice(&(*action as u64).to_le_bytes());
            }
        }
        payload.extend_from_slice(&(self.current_channel as u64).to_le_bytes());
        payload.extend_from_slice(&(self.pending_delta as u64).to_le_bytes());
        match self.temperature {
            None => payload.push(0),
            Some(t) => {
                payload.push(1);
                payload.extend_from_slice(&t.to_bits().to_le_bytes());
            }
        }
        checkpoint::write_checkpoint(path, &payload)
    }

    /// Restores a defender from a [`DqnDefender::save_checkpoint`] file.
    ///
    /// Every failure mode is a typed [`CheckpointError`] — truncation,
    /// bit corruption (checksum), version or shape mismatch — never a
    /// panic.
    pub fn load_checkpoint(path: &Path) -> Result<Self, CheckpointError> {
        let payload = checkpoint::read_checkpoint(path)?;
        let mut cursor = &payload[..];
        let agent = checkpoint::decode_agent(&mut cursor)?;
        let config = agent.config().clone();
        let mut encoder = ObservationEncoder::new(
            config.history_len,
            config.num_channels,
            config.num_power_levels,
        );
        let record_count = checkpoint::take_usize(&mut cursor)?;
        if record_count > config.history_len {
            return Err(CheckpointError::Malformed);
        }
        for _ in 0..record_count {
            let outcome = match checkpoint::take_u64(&mut cursor)? {
                0 => SlotOutcome::Success,
                1 => SlotOutcome::SuccessUnderJamming,
                2 => SlotOutcome::Failure,
                _ => return Err(CheckpointError::Malformed),
            };
            let channel = checkpoint::take_usize(&mut cursor)?;
            let power_level = checkpoint::take_usize(&mut cursor)?;
            if channel >= config.num_channels || power_level >= config.num_power_levels {
                return Err(CheckpointError::Malformed);
            }
            encoder.push(SlotRecord {
                outcome,
                channel,
                power_level,
            });
        }
        let training = checkpoint::take_bool(&mut cursor)?;
        let pending = if checkpoint::take_bool(&mut cursor)? {
            let state = checkpoint::take_f64_vec(&mut cursor)?;
            let action = checkpoint::take_usize(&mut cursor)?;
            if state.len() != config.input_size() || action >= config.num_actions() {
                return Err(CheckpointError::Malformed);
            }
            Some((state, action))
        } else {
            None
        };
        let current_channel = checkpoint::take_usize(&mut cursor)?;
        let pending_delta = checkpoint::take_usize(&mut cursor)?;
        if current_channel >= config.num_channels || pending_delta >= config.num_channels {
            return Err(CheckpointError::Malformed);
        }
        let temperature = if checkpoint::take_bool(&mut cursor)? {
            let t = checkpoint::take_f64(&mut cursor)?;
            if !(t.is_finite() && t > 0.0) {
                return Err(CheckpointError::Malformed);
            }
            Some(t)
        } else {
            None
        };
        if !cursor.is_empty() {
            return Err(CheckpointError::Malformed);
        }
        Ok(DqnDefender {
            agent,
            encoder,
            training,
            pending,
            current_channel,
            pending_delta,
            temperature,
            obs_scratch: Vec::new(),
        })
    }

    fn outcome_to_record(&self, result: &SlotResult) -> SlotRecord {
        let outcome = match result.outcome {
            Outcome::Clean => SlotOutcome::Success,
            Outcome::JammedSurvived => SlotOutcome::SuccessUnderJamming,
            Outcome::Jammed => SlotOutcome::Failure,
        };
        SlotRecord {
            outcome,
            // Egocentric channel feature: the relative hop taken.
            channel: self.pending_delta,
            power_level: result.decision.power_level,
        }
    }
}

impl Defender for DqnDefender {
    fn name(&self) -> &str {
        "RL FH (DQN)"
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        let mut observation = std::mem::take(&mut self.obs_scratch);
        self.encoder.encode_into(&mut observation);
        // §III.C: the deployed policy is ε-greedy — the best action with
        // probability 1 − ε, any other uniformly — also during
        // evaluation (ε sits at its floor once training has decayed it).
        // With a temperature set, deployment uses Boltzmann sampling
        // instead (anti-predictor hardening). The `_scratch` variants
        // are bit-exact with the plain ones, including RNG draw order.
        let action = match (self.training, self.temperature) {
            (false, Some(t)) => self.agent.act_softmax_scratch(&observation, t, rng),
            _ => self.agent.act_scratch(&observation, rng),
        };
        if self.training {
            // The transition must outlive this slot (the replay buffer
            // takes ownership in `feedback`), so hand the vector over.
            self.pending = Some((observation, action));
        } else {
            // Evaluation: nothing consumes the observation, so recycle
            // the buffer — the eval loop stays allocation-free.
            self.pending = None;
            self.obs_scratch = observation;
        }
        let (delta, power_level) = self.agent.config().decode_action(action);
        self.pending_delta = delta;
        let channel = (self.current_channel + delta) % self.agent.config().num_channels;
        Decision {
            channel,
            power_level,
        }
    }

    fn feedback(&mut self, result: &SlotResult, rng: &mut dyn RngCore) {
        self.encoder.push(self.outcome_to_record(result));
        self.current_channel = result.decision.channel;
        if let Some((state, action)) = self.pending.take() {
            if self.training {
                let next_state = self.encoder.encode();
                self.agent
                    .observe(state, action, result.reward, next_state, rng);
            }
        }
    }

    fn feedback_with_fault(
        &mut self,
        result: &SlotResult,
        rng: &mut dyn RngCore,
        fault: &mut dyn FaultPoint,
    ) {
        self.encoder.push(self.outcome_to_record(result));
        self.current_channel = result.decision.channel;
        if let Some((state, action)) = self.pending.take() {
            if self.training {
                let next_state = self.encoder.encode();
                self.agent
                    .observe_with_fault(state, action, result.reward, next_state, rng, fault);
            }
        }
    }

    fn probe(&self) -> AgentProbe {
        AgentProbe {
            epsilon: Some(self.agent.epsilon()),
            last_loss: self.agent.last_loss(),
            train_steps: Some(self.agent.train_steps()),
            replay_len: Some(self.agent.replay_len()),
            replay_capacity: Some(self.agent.replay_capacity()),
            skipped_train_steps: Some(self.agent.skipped_train_steps()),
        }
    }
}

// ---------------------------------------------------------------------------
// Passive FH ("PSV FH")
// ---------------------------------------------------------------------------

/// Reacts only after damage: hops to a random channel once the error
/// rate has confirmed jamming, otherwise keeps everything unchanged at
/// minimum power.
///
/// Because EmuBee is stealthy (§II.B), a passive victim cannot *see* a
/// jammer — it can only watch its error rate, and the paper's attack
/// model (§II.C.2) has it hop "once the error rate exceeds a certain
/// threshold". That thresholding costs `detection_slots` consecutive
/// jammed slots before the hop fires, which is exactly why passive FH
/// trails the proactive schemes in Fig. 11(a).
#[derive(Debug, Clone)]
pub struct PassiveFh {
    num_channels: usize,
    channel: usize,
    consecutive_jams: usize,
    detection_slots: usize,
}

impl PassiveFh {
    /// Creates the baseline with the default 2-slot detection threshold.
    pub fn new<R: Rng + ?Sized>(params: &EnvParams, rng: &mut R) -> Self {
        PassiveFh::with_detection_slots(params, 2, rng)
    }

    /// Creates the baseline with an explicit detection threshold
    /// (`1` = hop immediately after any jammed slot).
    ///
    /// # Panics
    ///
    /// Panics if `detection_slots == 0`.
    pub fn with_detection_slots<R: Rng + ?Sized>(
        params: &EnvParams,
        detection_slots: usize,
        rng: &mut R,
    ) -> Self {
        assert!(detection_slots > 0, "detection threshold must be positive");
        PassiveFh {
            num_channels: params.num_channels(),
            channel: rng.gen_range(0..params.num_channels()),
            consecutive_jams: 0,
            detection_slots,
        }
    }
}

impl Defender for PassiveFh {
    fn name(&self) -> &str {
        "PSV FH"
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        if self.consecutive_jams >= self.detection_slots {
            let mut next = rng.gen_range(0..self.num_channels - 1);
            if next >= self.channel {
                next += 1;
            }
            self.channel = next;
            self.consecutive_jams = 0;
        }
        Decision {
            channel: self.channel,
            power_level: 0,
        }
    }

    fn feedback(&mut self, result: &SlotResult, _rng: &mut dyn RngCore) {
        if result.outcome == Outcome::Jammed {
            self.consecutive_jams += 1;
        } else {
            self.consecutive_jams = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Random FH ("Rand FH")
// ---------------------------------------------------------------------------

/// Randomly selects FH or PC at the beginning of each time slot
/// (paper §IV.D.3): FH hops to a random channel at minimum power, PC
/// stays and picks a random power level.
#[derive(Debug, Clone)]
pub struct RandomFh {
    num_channels: usize,
    num_powers: usize,
    channel: usize,
}

impl RandomFh {
    /// Creates the baseline on a random starting channel.
    pub fn new<R: Rng + ?Sized>(params: &EnvParams, rng: &mut R) -> Self {
        RandomFh {
            num_channels: params.num_channels(),
            num_powers: params.num_powers(),
            channel: rng.gen_range(0..params.num_channels()),
        }
    }
}

impl Defender for RandomFh {
    fn name(&self) -> &str {
        "Rand FH"
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        if rng.gen_bool(0.5) {
            // FH: hop somewhere new, minimum power.
            let mut next = rng.gen_range(0..self.num_channels - 1);
            if next >= self.channel {
                next += 1;
            }
            self.channel = next;
            Decision {
                channel: self.channel,
                power_level: 0,
            }
        } else {
            // PC: stay, random power level.
            Decision {
                channel: self.channel,
                power_level: rng.gen_range(0..self.num_powers),
            }
        }
    }

    fn feedback(&mut self, _result: &SlotResult, _rng: &mut dyn RngCore) {}
}

// ---------------------------------------------------------------------------
// Decoy wrapper
// ---------------------------------------------------------------------------

/// Wraps any defender with probabilistic decoy (bait) transmissions:
/// each slot, with probability `rate`, a fake transmission is emitted on
/// a random channel other than the real one. Sensing jammers (reactive,
/// pursuit, sweep) chase the louder decoy; the eavesdropping adaptive
/// jammer is immune. Each decoy costs the environment's `l_decoy` on the
/// Eq. (5) reward.
#[derive(Debug, Clone)]
pub struct WithDecoys<D> {
    inner: D,
    rate: f64,
    num_channels: usize,
    last_channel: usize,
    name: String,
}

impl<D: Defender> WithDecoys<D> {
    /// Wraps `inner`, emitting a decoy with probability `rate` per slot.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` or fewer than two channels
    /// exist (a decoy needs a channel distinct from the real one).
    pub fn new(inner: D, rate: f64, params: &EnvParams) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate) && rate.is_finite(),
            "decoy rate must be a probability"
        );
        assert!(
            params.num_channels() >= 2,
            "decoys need a second channel to bait on"
        );
        let name = format!("{} + decoys", inner.name());
        WithDecoys {
            inner,
            rate,
            num_channels: params.num_channels(),
            last_channel: 0,
            name,
        }
    }

    /// The wrapped defender.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: Defender> Defender for WithDecoys<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        let decision = self.inner.decide(rng);
        self.last_channel = decision.channel;
        decision
    }

    fn decoy(&mut self, rng: &mut dyn RngCore) -> Option<usize> {
        if !rng.gen_bool(self.rate) {
            return None;
        }
        // Bait on any channel except the one actually in use.
        let mut channel = rng.gen_range(0..self.num_channels - 1);
        if channel >= self.last_channel {
            channel += 1;
        }
        Some(channel)
    }

    fn feedback(&mut self, result: &SlotResult, rng: &mut dyn RngCore) {
        self.inner.feedback(result, rng);
    }

    fn feedback_with_fault(
        &mut self,
        result: &SlotResult,
        rng: &mut dyn RngCore,
        fault: &mut dyn FaultPoint,
    ) {
        self.inner.feedback_with_fault(result, rng, fault);
    }

    fn probe(&self) -> AgentProbe {
        self.inner.probe()
    }
}

// ---------------------------------------------------------------------------
// No defense
// ---------------------------------------------------------------------------

/// Fixed channel and fixed power — the unprotected floor (and, with a
/// raised power level, the "power-control-only" ablation arm).
#[derive(Debug, Clone)]
pub struct NoDefense {
    channel: usize,
    power_level: usize,
}

impl NoDefense {
    /// Creates the floor strategy on a random channel at minimum power.
    pub fn new<R: Rng + ?Sized>(params: &EnvParams, rng: &mut R) -> Self {
        NoDefense::with_power(params, 0, rng)
    }

    /// Creates a static strategy pinned to a specific power level
    /// (e.g. the maximum, for a PC-only ablation).
    ///
    /// # Panics
    ///
    /// Panics if `power_level` is out of range.
    pub fn with_power<R: Rng + ?Sized>(
        params: &EnvParams,
        power_level: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            power_level < params.num_powers(),
            "power level out of range"
        );
        NoDefense {
            channel: rng.gen_range(0..params.num_channels()),
            power_level,
        }
    }
}

impl Defender for NoDefense {
    fn name(&self) -> &str {
        "No defense"
    }

    fn decide(&mut self, _rng: &mut dyn RngCore) -> Decision {
        Decision {
            channel: self.channel,
            power_level: self.power_level,
        }
    }

    fn feedback(&mut self, _result: &SlotResult, _rng: &mut dyn RngCore) {}
}

// ---------------------------------------------------------------------------
// MDP oracle
// ---------------------------------------------------------------------------

/// Plays the exact optimal policy of the paper's MDP using privileged
/// access to the true state — the idealized upper reference of §III.B
/// that motivates the DQN (a real Tx cannot observe its state).
#[derive(Debug, Clone)]
pub struct MdpOracle {
    mdp: AntijamMdp,
    policy: Vec<usize>,
    state: MdpState,
    num_channels: usize,
    block_width: usize,
    channel: usize,
    last_was_hop: bool,
}

impl MdpOracle {
    /// Solves the MDP matching `params` and prepares the policy.
    pub fn new<R: Rng + ?Sized>(params: &EnvParams, rng: &mut R) -> Self {
        let mdp = AntijamMdp::new(crate::kernel::mdp_params_of(params));
        let solution = value_iteration(mdp.tabular(), 0.9, 1e-9, 100_000);
        MdpOracle {
            policy: solution.policy,
            state: MdpState::Safe(1),
            num_channels: params.num_channels(),
            block_width: params.adversary.jam_width,
            channel: rng.gen_range(0..params.num_channels()),
            mdp,
            last_was_hop: false,
        }
    }

    /// The solved MDP (for inspecting the policy).
    pub fn mdp(&self) -> &AntijamMdp {
        &self.mdp
    }
}

impl Defender for MdpOracle {
    fn name(&self) -> &str {
        "MDP oracle"
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        let action_idx = self.policy[self.mdp.state_index(self.state)];
        let MdpAction { hop, power } = self.mdp.action_of(action_idx);
        if hop {
            // Hop to a random channel in a *different* jammer block —
            // a hop inside the same 4-channel block would not escape a
            // wideband jammer (the MDP's Eq. 9 presumes block-level
            // hopping).
            let width = self.block_width;
            let blocks = self.num_channels / width;
            let current_block = self.channel / width;
            let mut block = rng.gen_range(0..blocks - 1);
            if block >= current_block {
                block += 1;
            }
            self.channel = block * width + rng.gen_range(0..width);
        }
        self.last_was_hop = hop;
        Decision {
            channel: self.channel,
            power_level: power,
        }
    }

    fn feedback(&mut self, result: &SlotResult, _rng: &mut dyn RngCore) {
        // Privileged state update: the oracle *knows* the MDP state.
        // A clean slot after a hop restarts the survival counter at 1
        // (the hop moved to a fresh channel — Eqs. 9/14); a clean slot
        // after staying extends it (Eq. 6).
        self.state = match result.outcome {
            Outcome::Jammed => MdpState::Jammed,
            Outcome::JammedSurvived => MdpState::JammedUnsuccessfully,
            Outcome::Clean => match (self.last_was_hop, self.state) {
                (false, MdpState::Safe(n)) => {
                    MdpState::Safe((n + 1).min(self.mdp.num_safe_states()))
                }
                _ => MdpState::Safe(1),
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::CompetitionEnv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn run_slots<D: Defender>(
        defender: &mut D,
        slots: usize,
        seed: u64,
    ) -> crate::metrics::Metrics {
        let mut r = rng(seed);
        let mut env = CompetitionEnv::new(EnvParams::default(), &mut r);
        let mut metrics = crate::metrics::Metrics::new();
        for _ in 0..slots {
            let decision = defender.decide(&mut r);
            let result = env.step(decision, &mut r);
            defender.feedback(&result, &mut r);
            metrics.record(&result);
        }
        metrics
    }

    #[test]
    fn passive_fh_hops_only_after_jamming() {
        let mut r = rng(1);
        let params = EnvParams::default();
        let mut psv = PassiveFh::with_detection_slots(&params, 1, &mut r);
        let d1 = psv.decide(&mut r);
        // Clean feedback → no hop.
        let mut env = CompetitionEnv::new(params.clone(), &mut r);
        let result = env.step(d1, &mut r);
        let clean = SlotResult {
            outcome: Outcome::Clean,
            ..result
        };
        psv.feedback(&clean, &mut r);
        assert_eq!(psv.decide(&mut r).channel, d1.channel);
        // Jammed feedback → hop.
        let jammed = SlotResult {
            outcome: Outcome::Jammed,
            ..result
        };
        psv.feedback(&jammed, &mut r);
        assert_ne!(psv.decide(&mut r).channel, d1.channel);
    }

    #[test]
    fn passive_fh_detection_threshold_delays_the_hop() {
        let mut r = rng(11);
        let params = EnvParams::default();
        let mut psv = PassiveFh::new(&params, &mut r); // threshold 2
        let d1 = psv.decide(&mut r);
        let mut env = CompetitionEnv::new(params.clone(), &mut r);
        let result = env.step(d1, &mut r);
        let jammed = SlotResult {
            outcome: Outcome::Jammed,
            ..result
        };
        // One jammed slot: below the error threshold, stays put.
        psv.feedback(&jammed, &mut r);
        assert_eq!(psv.decide(&mut r).channel, d1.channel);
        // Second consecutive jam: threshold crossed, hops.
        psv.feedback(&jammed, &mut r);
        assert_ne!(psv.decide(&mut r).channel, d1.channel);
        // A clean slot resets the error counter.
        let mut psv2 = PassiveFh::new(&params, &mut r);
        let d2 = psv2.decide(&mut r);
        psv2.feedback(&jammed, &mut r);
        psv2.feedback(
            &SlotResult {
                outcome: Outcome::Clean,
                ..result
            },
            &mut r,
        );
        psv2.feedback(&jammed, &mut r);
        assert_eq!(psv2.decide(&mut r).channel, d2.channel);
    }

    #[test]
    fn random_fh_mixes_fh_and_pc() {
        let mut r = rng(2);
        let params = EnvParams::default();
        let mut rand_fh = RandomFh::new(&params, &mut r);
        let mut hops = 0;
        let mut pcs = 0;
        let mut prev = rand_fh.channel;
        for _ in 0..200 {
            let d = rand_fh.decide(&mut r);
            if d.channel != prev {
                hops += 1;
            }
            if d.power_level > 0 {
                pcs += 1;
            }
            prev = d.channel;
        }
        assert!(hops > 50, "too few hops: {hops}");
        assert!(pcs > 50, "too few PC slots: {pcs}");
    }

    #[test]
    fn no_defense_collapses_under_jamming() {
        let mut r = rng(3);
        let mut floor = NoDefense::new(&EnvParams::default(), &mut r);
        let m = run_slots(&mut floor, 300, 33);
        assert!(
            m.success_rate() < 0.1,
            "static victim should be pinned: {}",
            m.success_rate()
        );
    }

    #[test]
    fn passive_beats_nothing_and_oracle_beats_passive() {
        let mut r = rng(4);
        let params = EnvParams::default();
        let mut psv = PassiveFh::new(&params, &mut r);
        let mut oracle = MdpOracle::new(&params, &mut r);
        let psv_st = run_slots(&mut psv, 4_000, 44).success_rate();
        let oracle_st = run_slots(&mut oracle, 4_000, 44).success_rate();
        assert!(psv_st > 0.2, "passive ST {psv_st}");
        assert!(
            oracle_st > psv_st,
            "oracle {oracle_st} should beat passive {psv_st}"
        );
    }

    #[test]
    fn dqn_defender_produces_valid_decisions_and_learns_something() {
        let mut r = rng(5);
        let params = EnvParams::default();
        let mut dqn = DqnDefender::small_for_tests(&params, &mut r);
        let m = run_slots(&mut dqn, 1_500, 55);
        assert_eq!(m.slots(), 1_500);
        // While exploring, decisions must stay in range (checked by env
        // asserts) and the agent must have trained.
        assert!(dqn.agent().train_steps() > 0);
    }

    #[test]
    fn dqn_training_toggle() {
        let mut r = rng(6);
        let params = EnvParams::default();
        let mut dqn = DqnDefender::small_for_tests(&params, &mut r);
        dqn.set_training(false);
        assert!(!dqn.is_training());
        let steps_before = dqn.agent().steps();
        let _ = run_slots(&mut dqn, 50, 66);
        assert_eq!(
            dqn.agent().steps(),
            steps_before,
            "frozen agent must not learn"
        );
    }

    #[test]
    fn dqn_checkpoint_roundtrip_resumes_bit_exactly() {
        let params = EnvParams::default();
        let mut r = rng(21);
        let mut original = DqnDefender::small_for_tests(&params, &mut r);
        let _ = run_slots(&mut original, 300, 77); // accumulate real state
        let path = std::env::temp_dir().join("ctjam_defender_roundtrip.ckpt");
        original.save_checkpoint(&path).unwrap();
        let mut restored = DqnDefender::load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.is_training(), original.is_training());
        assert_eq!(restored.current_channel(), original.current_channel());
        assert_eq!(
            restored.agent().train_steps(),
            original.agent().train_steps()
        );
        // Continued under identical seeds, both defenders must walk the
        // exact same trajectory.
        let m1 = run_slots(&mut original, 200, 88);
        let m2 = run_slots(&mut restored, 200, 88);
        assert_eq!(m1, m2, "resumed defender diverged from the original");
    }

    #[test]
    fn corrupted_defender_checkpoint_is_a_typed_error() {
        use ctjam_dqn::checkpoint::CheckpointError;
        let params = EnvParams::default();
        let mut r = rng(22);
        let mut d = DqnDefender::small_for_tests(&params, &mut r);
        let _ = run_slots(&mut d, 50, 99);
        let path = std::env::temp_dir().join("ctjam_defender_corrupt.ckpt");
        d.save_checkpoint(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Bit corruption in the middle of the payload → checksum catches.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DqnDefender::load_checkpoint(&path),
            Err(CheckpointError::ChecksumMismatch)
        ));
        // Truncation → typed error, never a panic.
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(DqnDefender::load_checkpoint(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oracle_uses_threshold_policy_shape() {
        let mut r = rng(7);
        let oracle = MdpOracle::new(&EnvParams::default(), &mut r);
        let threshold = ctjam_mdp::analysis::threshold_of(oracle.mdp(), &{
            let sol = value_iteration(oracle.mdp().tabular(), 0.9, 1e-9, 100_000);
            sol.q
        });
        assert!(threshold >= 1 && threshold <= oracle.mdp().sweep_cycle());
    }
}
